"""Command line frontend for scans, point exports, and verification bundles.

Four subcommands:

  weyl-scan     sweep a symmetric group, classify every element
  points        export the lattice points of one face polytope
  char-compare  lattice-point character against the operator recursion
  verify        aggregate polytope / poset / module checks for one case

All outputs are deterministic: identical invocations produce byte-identical
results.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from .characters import demazure_character_oracle, face_character
from .marked_poset import count_chain_points, count_order_points, is_marked_chain_face
from .polytope import (
    PointSet,
    UnboundedFaceError,
    degree_histogram,
    dilate,
    enumerate_lattice_points,
    minkowski_sum,
    points_to_csv,
    weight_columns,
)
from .rep import (
    DimensionCapError,
    build_highest_weight_module,
    demazure_submodule,
    essential_monomials,
    pbw_filtration_profile,
    verify_monomial_basis,
)
from .roots import DominantWeight, parse_root
from .weyl import (
    RootSubset,
    all_permutations,
    inversion_roots,
    is_kempf,
    is_triangular_element,
    is_triangular_subset,
    parse_permutation,
)


def _case_label(args: argparse.Namespace) -> str:
    """The rank, the weight, and the element or else the subset."""
    lam = args.lam
    parts = [f"n={lam.n}", "lambda=" + ",".join(str(c) for c in lam.coeffs)]
    if args.w is not None:
        parts.append("w=" + " ".join(str(v) for v in args.w.images))
    else:
        parts.append("A=" + ",".join(r.label for r in args.A.sorted_roots()))
    return " ".join(parts)


def _parse_weight(text: str) -> DominantWeight:
    if "," in text and not all(field.strip() for field in text.split(",")):
        raise ValueError(f"empty coefficient in weight {text!r}")
    try:
        coeffs = tuple(int(t) for t in text.replace(",", " ").split())
    except ValueError as exc:
        raise ValueError(f"cannot parse weight {text!r}") from exc
    if not coeffs:
        raise ValueError("weight needs at least one coefficient")
    return DominantWeight(coeffs)


def _parse_subset(text: str, n: int) -> RootSubset:
    roots = []
    for token in text.split(","):
        token = token.strip()
        if token:
            roots.append(parse_root(token))
    for r in roots:
        if r.j > n:
            raise ValueError(f"root {r.label} does not fit rank {n}")
    return RootSubset.of(n, roots)


def _compact(value) -> str:
    """JSON with sorted keys and no whitespace, the form of every document."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def cmd_weyl_scan(args: argparse.Namespace) -> int:
    """Classify every element of the symmetric group on n+1 letters."""
    n = args.n

    # One (w, length, is_kempf, is_triangular) tuple per element.
    rows = [(str(w), w.length(), is_kempf(w), is_triangular_element(w))
            for w in all_permutations(n)]
    bad = [w for w, _, kempf, tri in rows if kempf and not tri]
    counts = {
        "total": len(rows),
        "kempf": sum(1 for r in rows if r[2]),
        "triangular": sum(1 for r in rows if r[3]),
        "kempf_non_triangular": len(bad),
    }
    out = sys.stdout
    if args.format == "json":
        # Keys in `json.dumps(sort_keys=True)` order: counts, elements, rank;
        # is_kempf, is_triangular, length, w inside an element.
        literal = ("false", "true")
        row = '{"is_kempf":%s,"is_triangular":%s,"length":%d,"w":"%s"}'
        elements = ",".join([row % (literal[kempf], literal[tri], length, w)
                             for w, length, kempf, tri in rows])
        out.write('{"counts":%s,"elements":[%s],"rank":%d}\n' % (
            _compact(counts), elements, n))
    elif args.format == "csv":
        out.write("w,length,is_kempf,is_triangular\n")
        out.writelines([f"{w.replace(' ', '')},{length},{kempf},{tri}\n"
                        for w, length, kempf, tri in rows])
    else:
        out.writelines([f"[{w}]  length={length}  "
                        f"{'K' if kempf else '-'}{'T' if tri else '-'}\n"
                        for w, length, kempf, tri in rows])
        out.write(f"total={counts['total']} kempf={counts['kempf']} "
                  f"triangular={counts['triangular']} "
                  f"kempf_non_triangular={counts['kempf_non_triangular']}\n")
    return 1 if bad else 0


def cmd_points(args: argparse.Namespace) -> int:
    """Export the lattice points of one face polytope.

    Rows are written in lexicographic order straight from the point tuples,
    each through one `%d` template per format; weights and degrees are
    column sums over `weight_columns`, taken for all points at once.
    """
    lam = args.lam
    try:
        S = enumerate_lattice_points(args.A, lam)
    except UnboundedFaceError as exc:
        print(f"unbounded: {exc}", file=sys.stderr)
        return 2
    if args.dilate > 1:
        S = dilate(S, args.dilate)
    out = sys.stdout
    if args.format == "csv":
        out.write(points_to_csv(S))
        return 0
    points = S.tuples
    count = len(points)
    cols = list(zip(*points))
    weights = [list(map(sum, zip(*[cols[c] for c in group]))) if group else [0] * count
               for group in weight_columns(S.n, S.roots)]
    degrees = list(map(sum, points))
    weight = ",".join(["%d"] * S.n)
    if args.format == "json":
        # The keys in `json.dumps(sort_keys=True)` order, without building
        # the document: A, count, lambda, points, rank; degree, values,
        # weight inside a point.  `values` lists the nonzero coordinates as
        # [i, j, v]: per column, entry v is ",[i,j,v]" and entry 0 is empty,
        # so a point's entries joined, less the leading comma, are its list.
        out.write('{"A":%s,"count":%d,"lambda":%s,"points":[' % (
            _compact([[r.i, r.j] for r in S.roots]), count, _compact(list(lam.coeffs))))
        entries = [[""] + [f",[{r.i},{r.j},{v}]" for v in range(1, max(col) + 1)]
                   for r, col in zip(S.roots, cols)]
        values = (map("".join, zip(*[map(e.__getitem__, col) for e, col in zip(entries, cols)]))
                  if cols else [""] * count)
        row = '{"degree":%d,"values":[%s],"weight":[' + weight + "]}"
        out.write(",".join([row % (d, v[1:], *w) for d, v, *w in zip(degrees, values, *weights)]))
        out.write('],"rank":%d}\n' % S.n)
    else:
        out.write(f"count {count}\n")
        row = " ".join(f"{r.label}=%d" for r in S.roots) + f"  weight={weight} degree=%d\n"
        out.writelines(map(row.__mod__, zip(*cols, *weights, degrees)))
    return 0


def cmd_char_compare(args: argparse.Namespace) -> int:
    """Compare the lattice-point character with the operator recursion.

    The character comes from the face's point counts per weight, and no
    point is listed: the number of lattice points is its mass."""
    w, lam = args.w, args.lam
    triangular = is_triangular_element(w)
    oracle = demazure_character_oracle(w, lam)
    try:
        lattice = face_character(w, lam)
    except UnboundedFaceError as exc:
        if args.format == "json":
            print(_compact({
                "case": _case_label(args), "triangular": triangular,
                "unbounded": str(exc), "oracle_mass": oracle.mass,
            }))
        else:
            print(f"oracle mass: {oracle.mass}")
            print(f"unbounded: {exc}")
        return 2
    equal = lattice == oracle
    report = {
        "case": _case_label(args),
        "triangular": triangular,
        "lattice_points": lattice.mass,
        "lattice_mass": lattice.mass,
        "oracle_mass": oracle.mass,
        "mass_deficit": oracle.mass - lattice.mass,
        "termwise_equal": equal,
    }
    if args.format == "json":
        print(_compact(report))
    else:
        for key, value in report.items():
            print(f"{key}: {value}")
    return 0 if equal else 1


def _verify_checks(args: argparse.Namespace) -> dict:
    """Run the check battery for one case; every check reports independently.

    Normality, and Minkowski additivity when mu = lambda, pass by
    certificate when the face of A is its marked chain polytope at every
    weight (`is_marked_chain_face`), and no sum is formed.  Write O(nu) and
    C(nu) for the integer points of the marked order and chain polytopes of
    A at nu; the face at nu is then C(nu).  Adding points adds bounds, so
    C(lambda) + ... + C(lambda), k times, lies in C(k lambda).  Conversely:

    - The transfer map phi(x)_p = x_p - max over the lower covers q of p
      of x_q (a marker q reads its marking) is a bijection O(nu) -> C(nu).
      It maps into C(nu): phi(x) >= 0 as x is order-preserving, and along a
      chain a > p_1 > ... > p_s > b the values telescope to at most
      x_{p_1} - marking(b) <= marking(a) - marking(b).  Its inverse sets
      x_p = u_p + max over the lower covers q of x_q, bottom up, so x_p >=
      x_q, and x_p is marking(b) plus the sum of u down some saturated
      path from p to a marker b; a marker a covering p tops it to a chain
      of C, so x_p <= marking(a).  Both maps keep integer points integer.
    - For x in O(k lambda), the Hermite pieces x^(j) = floor((x + j) / k),
      j = 0 .. k-1, sum to x (Hermite's identity), are order-preserving,
      and send the marking k m of a marker to m, so each lies in
      O(lambda).
    - t -> floor((t + j) / k) is nondecreasing, so the pieces are
      comonotone with x: the lower cover q* attaining the max for x
      attains it for every piece, and phi(x)_p = sum over j of
      (x^(j)_p - x^(j)_{q*}) = sum over j of phi(x^(j))_p.

    So u in C(k lambda) is phi(x) for x = phi^-1(u) in O(k lambda), and
    u = sum of the phi(x^(j)), each in C(lambda): the k-fold sum of the face
    is the face at k lambda, for k = 2 (which is also the mu = lambda
    Minkowski check) and k = 3.  The count of S(2 lambda) is then the chain
    count at 2 lambda, which the Ehrhart table holds.  Everything else (mu
    != lambda, and faces where the identity fails) forms the packed sums.
    """
    A, w, lam, mu = args.A, args.w, args.lam, args.mu
    checks: dict[str, dict] = {}
    triangular = is_triangular_subset(A)

    def record(name: str, status: str, **detail) -> None:
        checks[name] = {"status": status, **detail}

    # Every face and every sum of faces is formed once, keyed by the weights
    # of its summands: with mu = lambda, S + S(mu) is the first normality
    # sum, and S(lambda + mu) its target.  `face` loops instead of calling
    # itself: a self-calling closure is a reference cycle, which would keep
    # every face alive after the return until the cycle collector ran.
    faces: dict[tuple[DominantWeight, ...], PointSet] = {}

    def face(*weights: DominantWeight) -> PointSet:
        for nu in weights:
            if (nu,) not in faces:
                faces[(nu,)] = enumerate_lattice_points(A, nu)
        for k in range(2, len(weights) + 1):
            if weights[:k] not in faces:
                faces[weights[:k]] = minkowski_sum(faces[weights[:k - 1]], faces[weights[k - 1:k]])
        return faces[weights]

    S = None
    try:
        S = face(lam)
        record("points", "pass", count=len(S))
    except UnboundedFaceError as exc:
        record("points", "fail", error=str(exc))

    if w is not None:
        oracle = demazure_character_oracle(w, lam)
        if S is None:
            record("character", "fail", oracle_mass=oracle.mass, error="unbounded face")
        else:
            lattice = face_character(w, lam)
            status = "pass" if lattice == oracle else "fail"
            record("character", status, lattice_mass=lattice.mass,
                   oracle_mass=oracle.mass, deficit=oracle.mass - lattice.mass)

    # The Ehrhart table: chain and order counts of the marked poset at
    # t lambda, t = 1..3, each counted without listing a point.
    ehrhart, poset_error = None, None
    try:
        ehrhart = [(count_chain_points(A, nu), count_order_points(A, nu))
                   for nu in [lam.scale(t) for t in (1, 2, 3)]]
    except (ValueError, ArithmeticError) as exc:
        poset_error = exc

    if S is None:
        record("minkowski", "skipped", reason="unbounded face")
        record("normality", "skipped", reason="unbounded face")
    else:
        # No face below raises UnboundedFaceError: the enumerator raises it
        # from the path supports of A alone, before it reads a bound, so
        # once S(lambda) exists no other weight can raise it.
        certified = is_marked_chain_face(A)
        if certified and mu == lam and ehrhart is not None:
            record("minkowski", "pass", left=len(S), right=len(S), total=ehrhart[1][0])
        else:
            ok = face(lam, mu) == face(lam + mu)
            record("minkowski", "pass" if ok else "fail",
                   left=len(S), right=len(face(mu)), total=len(face(lam + mu)))
        ok = certified or (face(lam, lam) == face(lam.scale(2))
                           and face(lam, lam, lam) == face(lam.scale(3)))
        record("normality", "pass" if ok else "fail", checked_dilations=[2, 3])

    if ehrhart is None:
        record("marked_poset", "fail", error=str(poset_error))
    else:
        chain = ehrhart[0][0]
        ok = all(c == o for c, o in ehrhart)
        detail = {"chain_count": chain, "ehrhart": [list(p) for p in ehrhart]}
        if triangular and S is not None:
            detail["lattice_count"] = len(S)
            ok = ok and chain == len(S)
        record("marked_poset", "pass" if ok else "fail", **detail)

    if args.no_rep:
        record("rep", "skipped", reason="disabled")
    elif S is None:
        record("rep", "skipped", reason="unbounded face")
    else:
        try:
            module = build_highest_weight_module(lam, cap=args.max_dim)
            report = verify_monomial_basis(module, S)
            dims = {"subset": report.submodule_dimension, "lattice": len(S)}
            if w is not None:
                dims["demazure"] = demazure_submodule(module, w).dimension
                dims["oracle"] = oracle.mass
            profile = pbw_filtration_profile(module, A)
            hist = degree_histogram(S)
            incs = [profile[0]] + [profile[i] - profile[i - 1]
                                   for i in range(1, len(profile))]
            want = [hist.get(d, 0) for d in range(max(hist) + 1)] if hist else [1]
            graded_ok = incs == want
            essential_ok = essential_monomials(module, A) == S
            basis_ok = report.ok
            status = "pass" if (basis_ok and graded_ok and essential_ok) else "fail"
            record("rep", status, dims=dims, basis_ok=basis_ok,
                   graded_ok=graded_ok, essential_ok=essential_ok)
        except DimensionCapError as exc:
            record("rep", "skipped", reason=str(exc))
        except ArithmeticError as exc:
            record("rep", "fail", error=str(exc))
    return checks


def cmd_verify(args: argparse.Namespace) -> int:
    """Aggregate verification bundle; exit 0 iff every executed check passed."""
    checks = _verify_checks(args)
    ok = all(c["status"] != "fail" for c in checks.values())
    bundle = {"case": _case_label(args), "checks": checks, "ok": ok}
    if args.format == "text":
        print(f"case: {bundle['case']}")
        for name, c in checks.items():
            detail = {k: v for k, v in c.items() if k != "status"}
            print(f"{c['status'].upper():7s} {name}: {detail}")
        print(f"overall: {'ok' if ok else 'FAIL'}")
    else:
        print(_compact(bundle))
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fflv",
        description="Exact combinatorics of triangular Weyl group elements, "
                    "face polytopes, and their module counterparts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    scan = sub.add_parser("weyl-scan", help="classify all elements of one symmetric group")
    scan.add_argument("--n", type=int, required=True, help="Lie rank (permutes n+1 letters)")
    scan.add_argument("--max-rank", type=int, default=6, help="largest allowed rank")
    scan.add_argument("--format", choices=("text", "json", "csv"), default="text")

    def add_element_flags(p: argparse.ArgumentParser, with_subset: bool) -> None:
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--w", help="generator word, e.g. 's2 s3 s1'")
        group.add_argument("--w-oneline", help="one-line notation, e.g. '3 1 4 2'")
        if with_subset:
            group.add_argument("--A", help="explicit root subset, e.g. '1.1,3.3,1.3'")

    points = sub.add_parser("points", help="lattice points of one face polytope")
    add_element_flags(points, with_subset=True)
    points.add_argument("--lambda", dest="lam", required=True,
                        help="dominant weight coefficients, e.g. '1,1,1'")
    points.add_argument("--dilate", type=int, default=1,
                        help="emit the k-fold Minkowski sum of the point set")
    points.add_argument("--format", choices=("text", "json", "csv"), default="text")

    char = sub.add_parser("char-compare",
                          help="lattice-point character vs the operator recursion")
    add_element_flags(char, with_subset=False)
    char.add_argument("--lambda", dest="lam", required=True)
    char.add_argument("--format", choices=("text", "json"), default="text")

    verify = sub.add_parser("verify", help="aggregate checks for one case")
    add_element_flags(verify, with_subset=True)
    verify.add_argument("--lambda", dest="lam", required=True)
    verify.add_argument("--mu", help="second weight for the Minkowski check (default: lambda)")
    verify.add_argument("--max-dim", type=int, default=400,
                        help="dimension cap for the module checks")
    verify.add_argument("--no-rep", action="store_true",
                        help="skip the explicit module checks")
    verify.add_argument("--format", choices=("text", "json"), default="json")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Parse, validate every input here, then run the command.

    The namespace is the command: the weight, element and subset flags are
    replaced by their parsed values, and `A` holds the subset in every
    command that takes a weight.  A bad input or running out of memory
    exits 2, and a broken internal invariant (an `ArithmeticError`) exits
    3, each with one `error:` line on stderr.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "weyl-scan":
            if args.n < 1:
                raise ValueError(f"rank must be >= 1, got {args.n}")
            if args.n > args.max_rank:
                raise ValueError(f"rank {args.n} exceeds the cap {args.max_rank}")
            return cmd_weyl_scan(args)
        args.lam = lam = _parse_weight(args.lam)
        element = args.w if args.w is not None else args.w_oneline
        if element is not None:
            args.w = parse_permutation(element, lam.n)
            args.A = inversion_roots(args.w)
        else:
            args.A = _parse_subset(args.A, lam.n)
        if args.command == "points":
            if args.dilate < 1:
                raise ValueError(f"dilation factor must be >= 1, got {args.dilate}")
            return cmd_points(args)
        if args.command == "char-compare":
            return cmd_char_compare(args)
        if args.max_dim < 1:
            raise ValueError(f"dimension cap must be >= 1, got {args.max_dim}")
        args.mu = lam if args.mu is None else _parse_weight(args.mu)
        if args.mu.n != lam.n:
            raise ValueError("mu and lambda must have the same rank")
        return cmd_verify(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print(f"error: out of memory running {args.command}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"error: broken internal invariant: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
