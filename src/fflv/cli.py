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
import functools
import json
import sys
from typing import Optional, Sequence

from .characters import (
    character_from_lattice_points,
    demazure_character_oracle,
    face_character,
)
from .marked_poset import count_chain_points, count_order_points, is_marked_chain_face
from .polytope import (
    PointSet,
    UnboundedFaceError,
    compose_points,
    count_lattice_points,
    count_sum_points,
    degree_histogram,
    enumerate_lattice_points,
    lattice_point_graph,
    packed_fields,
    weight_columns,
)
from .rep import (
    DimensionCapError,
    _closed,
    build_highest_weight_module,
    essential_monomials,
    subset_submodule,
    verify_monomial_basis,
)
from .roots import DominantWeight, parse_root
from .weyl import (
    RootSubset,
    classify_permutations,
    inversion_roots,
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

    # One (w, length, is_kempf, is_triangular) tuple per element, counted
    # in one pass.
    rows = classify_permutations(n)
    kempf_count = triangular_count = bad = 0
    for _, _, kempf, tri in rows:
        if kempf:
            kempf_count += 1
            if not tri:
                bad += 1
        if tri:
            triangular_count += 1
    counts = {
        "total": len(rows),
        "kempf": kempf_count,
        "triangular": triangular_count,
        "kempf_non_triangular": bad,
    }
    # A row is its letters and a tail, or a head, looked up by the code
    # 4 * length + 2 * is_kempf + is_triangular.
    codes = [(length, kempf, tri) for length in range(n * (n + 1) // 2 + 1)
             for kempf in (False, True) for tri in (False, True)]
    out = sys.stdout
    if args.format == "json":
        # Keys in `json.dumps(sort_keys=True)` order: counts, elements, rank;
        # is_kempf, is_triangular, length, w inside an element.
        literal = ("false", "true")
        heads = [f'{{"is_kempf":{literal[kempf]},"is_triangular":{literal[tri]},'
                 f'"length":{length},"w":"' for length, kempf, tri in codes]
        elements = ",".join([heads[4 * length + 2 * kempf + tri] + w + '"}'
                             for w, length, kempf, tri in rows])
        out.write('{"counts":%s,"elements":[%s],"rank":%d}\n' % (
            _compact(counts), elements, n))
    elif args.format == "csv":
        # Only the letters hold spaces, so one replace over the joined rows
        # drops them.
        tails = [f",{length},{kempf},{tri}\n" for length, kempf, tri in codes]
        out.write("w,length,is_kempf,is_triangular\n")
        out.write("".join([w + tails[4 * length + 2 * kempf + tri]
                           for w, length, kempf, tri in rows]).replace(" ", ""))
    else:
        tails = [f"]  length={length}  {'K' if kempf else '-'}{'T' if tri else '-'}\n"
                 for length, kempf, tri in codes]
        out.write("".join(["[" + w + tails[4 * length + 2 * kempf + tri]
                           for w, length, kempf, tri in rows]))
        out.write(f"total={counts['total']} kempf={counts['kempf']} "
                  f"triangular={counts['triangular']} "
                  f"kempf_non_triangular={counts['kempf_non_triangular']}\n")
    return 1 if bad else 0


def cmd_points(args: argparse.Namespace) -> int:
    """Export the lattice points of one face polytope, or with `--dilate k`
    of its k-fold Minkowski sum, in lexicographic order.

    The rows come off the state graph of `lattice_point_graph`, which
    forms no pairwise sum.  `compose_points` walks it once with text
    cells, each coordinate value's cell formatted once, so a row's text is
    a concatenation, and for text and json once more with packed ints that
    carry the point's weight, the column sums over `weight_columns`, and
    its degree, each in a field of `packed_fields`; the weight and degree
    text is formatted once per distinct packed value.
    """
    lam = args.lam
    try:
        levels = lattice_point_graph(args.A, lam, args.dilate)
    except UnboundedFaceError as exc:
        print(f"unbounded: {exc}", file=sys.stderr)
        return 2
    n, roots = lam.n, args.A.sorted_roots()
    values = [range(max(map(len, level))) for level in levels]

    def rows(cell) -> list[str]:
        """Each point's text: per coordinate c, cell(c, root, v) for its value v."""
        return compose_points(levels, [[cell(c, r, v) for v in vs]
                                       for c, (r, vs) in enumerate(zip(roots, values))], "")

    out = sys.stdout
    if args.format == "csv":
        header = ",".join([r.label for r in roots])
        out.write("\n".join([header] + rows(lambda c, r, v: f",{v}" if c else str(v))) + "\n")
        return 0
    groups = weight_columns(n, roots) + (tuple(range(len(roots))),)
    steps, fields = packed_fields(groups, [len(vs) - 1 for vs in values])
    packed = compose_points(levels, [[v * step for v in vs] for step, vs in zip(steps, values)], 0)

    # Per distinct packed value, its weight coefficients, then its degree.
    sums = {x: tuple([x >> s & mask for s, mask in fields]) for x in set(packed)}
    weight = ",".join(["%d"] * n)
    if args.format == "json":
        # The keys in `json.dumps(sort_keys=True)` order, without building
        # the document: A, count, lambda, points, rank; degree, values,
        # weight inside a point.  `values` lists the nonzero coordinates as
        # [i, j, v]: the cell of value v is ",[i,j,v]" and that of 0 is
        # empty, so a point's text, less the leading comma, is its list.
        out.write('{"A":%s,"count":%d,"lambda":%s,"points":[' % (
            _compact([[r.i, r.j] for r in roots]), len(packed), _compact(list(lam.coeffs))))
        ends = {x: ('{"degree":%d,"values":[' % t[-1], '],"weight":[' + weight % t[:-1] + "]}")
                for x, t in sums.items()}
        out.write(",".join([head + text[1:] + tail for (head, tail), text in zip(
            map(ends.__getitem__, packed),
            rows(lambda c, r, v: f",[{r.i},{r.j},{v}]" if v else ""))]))
        out.write('],"rank":%d}\n' % n)
    else:
        template = f"  weight={weight} degree=%d\n"
        tails = {x: template % t for x, t in sums.items()}
        out.write(f"count {len(packed)}\n")
        out.writelines(map(str.__add__,
                           rows(lambda c, r, v: f" {r.label}={v}" if c else f"{r.label}={v}"),
                           map(tails.__getitem__, packed)))
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

    Minkowski additivity, for every mu, and normality pass by certificate
    when the face of A is its marked chain polytope at every weight
    (`is_marked_chain_face`), and no sum is formed.  Write O(nu) and C(nu)
    for the integer points of the marked order and chain polytopes of A at
    nu; the face at nu is then C(nu).  Adding points adds bounds, so
    C(lambda) + C(mu) lies in C(lambda + mu).  Conversely:

    - The transfer map phi(x)_p = x_p - max over the lower covers q of p
      of x_q (a marker q reads its marking) is a bijection O(nu) -> C(nu).
      It maps into C(nu): phi(x) >= 0 as x is order-preserving, and along a
      chain a > p_1 > ... > p_s > b the values telescope to at most
      x_{p_1} - marking(b) <= marking(a) - marking(b).  Its inverse sets
      x_p = u_p + max over the lower covers q of x_q, bottom up, so x_p >=
      x_q, and x_p is marking(b) plus the sum of u down some saturated
      path from p to a marker b; a marker a covering p tops it to a chain
      of C, so x_p <= marking(a).  Both maps keep integer points integer.
    - For x in O(lambda + mu), the level sets F_k = {p : x_p >= k}, k >= 1,
      are nested order filters, and x is the sum of their indicators.  On
      the markers F_k is {a_1, ..., a_c(k)}: the counts c(k) form the
      conjugate of the markings of lambda + mu, which is the union of the
      conjugates for lambda and for mu.
    - Dealing the filters out by c-value splits x = y + z with y in
      O(lambda) and z in O(mu), each a sum of nested order filters with its
      own weight's marker counts.  The split is comonotone: x_q >= x_q'
      implies y_q >= y_q' and z_q >= z_q', so the lower cover attaining the
      max for x attains it for y and z, and phi(x) = phi(y) + phi(z).

    So u = phi(phi^-1(u)) in C(lambda + mu) is a point of C(lambda) plus
    one of C(mu), and normality at every k is the case mu = (k-1) lambda,
    by induction.  `right` and `total` are the face counts at mu and
    lambda + mu: at mu = lambda, len(S) and the Ehrhart table's chain count
    at 2 lambda.

    Faces where the identity fails compare counts.  S(lambda) + S(mu)
    always lies in S(lambda + mu): the supports of the path inequalities
    are free of the weight, and the bound of each is linear in it, so the
    sum of two points meets the summed bounds.  The sum is therefore the
    face at lambda + mu exactly when it has as many points, and likewise
    the k-fold sum of S(lambda) and S(k lambda).  A sum is counted as the
    paths of its order-ideal graph (`count_sum_points`), a face at a
    weight over its slack graph (`count_lattice_points`), and neither
    lists its points.
    """
    A, w, lam, mu = args.A, args.w, args.lam, args.mu
    checks: dict[str, dict] = {}
    triangular = is_triangular_subset(A)

    def record(name: str, status: str, **detail) -> None:
        checks[name] = {"status": status, **detail}

    # Every face is listed once, keyed by its weight, and every point count
    # of a face or a sum of faces is formed once, keyed by the weights of
    # its summands: with mu = lambda, S + S(mu) is the first normality sum.
    # A weight not listed counts its face without listing it.
    faces: dict[DominantWeight, PointSet] = {}
    counts: dict[tuple[DominantWeight, ...], int] = {}

    def face(nu: DominantWeight) -> PointSet:
        if nu not in faces:
            faces[nu] = enumerate_lattice_points(A, nu)
            counts[(nu,)] = len(faces[nu])
        return faces[nu]

    def count(*weights: DominantWeight) -> int:
        if weights not in counts:
            if len(weights) == 1:
                counts[weights] = count_lattice_points(A, weights[0])
            else:
                counts[weights] = count_sum_points(*map(face, weights))
        return counts[weights]

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
            lattice = character_from_lattice_points(S, lam, w)
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
        if certified and ehrhart is not None:
            # The face at 2 lambda is its chain polytope.
            counts[(lam.scale(2),)] = ehrhart[1][0]
        ok = certified or count(lam, mu) == count(lam + mu)
        record("minkowski", "pass" if ok else "fail",
               left=len(S), right=count(mu), total=count(lam + mu))
        ok = certified or (count(lam, lam) == count(lam.scale(2))
                           and count(lam, lam, lam) == count(lam.scale(3)))
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
    elif w is not None and oracle.mass > args.max_dim:
        record("rep", "skipped", reason=f"Demazure module needs dimension {oracle.mass}, "
                                        f"cap is {args.max_dim}")
    else:
        try:
            # The target is U(n-_A) applied to the highest vector.  For A
            # closed under root addition, every N(w) among them, the essential
            # scan alone gives a basis of its graded module (`fflv.rep`): its
            # rank is the dimension, which for an element must be the Demazure
            # mass, and its degrees the profile.  Any other subset forms its
            # lowering closure and scans up to its dimension.  The cap bounds
            # the span either forms.
            module = build_highest_weight_module(lam)
            closed = _closed(A.members)
            if closed:
                essential = essential_monomials(module, A, args.max_dim)
                dimension = len(essential)
                kept = degree_histogram(essential)
                incs = [kept.get(d, 0) for d in range(max(kept) + 1)]
            else:
                target = subset_submodule(module, A, args.max_dim)
                dimension = target.dimension
                incs = [b - a for a, b in zip((0,) + target.profile, target.profile)]
                essential = essential_monomials(module, A, dimension)
            dims = {"subset": dimension, "lattice": len(S)}
            if w is not None:
                dims["demazure"] = dims["oracle"] = oracle.mass
            # The scan's kept set certifies the basis when it is S and A is
            # closed (`fflv.rep` docstring); otherwise S is checked.
            if essential == S and closed:
                basis_ok = True
            else:
                basis_ok = verify_monomial_basis(module, S, dimension).ok
            hist = degree_histogram(S)
            want = [hist.get(d, 0) for d in range(max(hist) + 1)] if hist else [1]
            graded_ok = incs == want
            essential_ok = essential == S
            mass_ok = w is None or dimension == oracle.mass
            status = "pass" if (basis_ok and graded_ok and essential_ok and mass_ok) else "fail"
            record("rep", status, dims=dims, basis_ok=basis_ok,
                   graded_ok=graded_ok, essential_ok=essential_ok)
        except DimensionCapError as exc:
            # An element's mass fits the cap, so a scan past the cap has
            # kept more than the mass.
            if w is None:
                record("rep", "skipped", reason=str(exc))
            else:
                record("rep", "fail", error=str(exc))
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
    """A new argument parser for the four commands; `main` builds one per
    process, on its first call (`_parser`)."""
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
                        help="cap on the Demazure mass, or on the lowering closure for --A")
    verify.add_argument("--no-rep", action="store_true",
                        help="skip the explicit module checks")
    verify.add_argument("--format", choices=("text", "json"), default="json")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser.  Parsing leaves it as it was, and a
    parser holds a few hundred objects in reference cycles, so building
    one per call would leave them to the collector each time."""
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Parse, validate every input here, then run the command.

    The namespace is the command: the weight, element and subset flags are
    replaced by their parsed values, and `A` holds the subset in every
    command that takes a weight.  A bad input or running out of memory
    exits 2, and a broken internal invariant (an `ArithmeticError`) exits
    3, each with one `error:` line on stderr.
    """
    args = _parser().parse_args(argv)
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
