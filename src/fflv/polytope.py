"""Face polytopes of the lattice-point polytope attached to a dominant weight.

For a subset A of positive roots and a dominant weight, every grid-closed
restricted path contributes the inequality

    sum of the coordinates along the path <= pairing(weight, base root),

and the polytope is the set of nonnegative real coordinate vectors indexed by
A satisfying all of them.  A system is a sorted tuple of supports, free of
the weight; `support_inequalities` reads each bound off its support's base
root, for the path supports here and for the marked chain supports of
`marked_poset` alike.  This module enumerates the integer points exactly,
embeds them into the full-triangle polytope, and forms Minkowski sums and
dilations.  Everything is integer arithmetic.

A point is a tuple of values aligned with its set's root tuple, and a point
set is one tuple of such tuples in strictly increasing lexicographic order.
Each producer emits that order directly, so equal sets have equal tuples and
compare and hash as plain dataclasses.  There is no per-point object:
callers read `PointSet.tuples`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .paths import base_root, enumerate_dyck_paths_for
from .roots import DominantWeight, Root, all_positive_roots, pairing
from .weyl import RootSubset


class UnboundedFaceError(ValueError):
    """Raised when some coordinate of A appears in no path inequality, so the
    polytope contains a ray and has infinitely many lattice points."""

    def __init__(self, n: int, root: Root):
        self.root = root
        super().__init__(
            f"coordinate {root.label} is not bounded by any path inequality "
            f"at rank {n}; the face is an unbounded cone"
        )


@dataclass(frozen=True)
class Inequality:
    """A single path inequality: sum of coordinates over `support` <= bound."""

    support: tuple[Root, ...]
    bound: int

    def __str__(self) -> str:
        lhs = " + ".join(f"s[{r.label}]" for r in self.support)
        return f"{lhs} <= {self.bound}"


@dataclass(frozen=True)
class PointSet:
    """A set of lattice points sharing rank and coordinate order.

    `tuples` holds the value tuples in strictly increasing lexicographic
    order, which every producer emits.  A set then has exactly one
    `tuples`, so the dataclass `==` and hash, which compare the fields, are
    set equality and a set hash.
    """

    n: int
    roots: tuple[Root, ...]
    tuples: tuple[tuple[int, ...], ...]

    def __len__(self) -> int:
        return len(self.tuples)


def support_inequalities(
    supports: Sequence[tuple[Root, ...]], lam: DominantWeight
) -> list[Inequality]:
    """One inequality per support, in the given order, bounded by the weight
    on the coroot of the support's base root."""
    return [Inequality(s, pairing(lam, base_root(s))) for s in supports]


def build_inequalities(A: RootSubset, lam: DominantWeight) -> list[Inequality]:
    """One inequality per grid-closed restricted path of A, in path order."""
    return support_inequalities(enumerate_dyck_paths_for(A), lam)


def enumerate_integer_points(
    n: int, roots: tuple[Root, ...], ineqs: list[Inequality]
) -> PointSet:
    """Nonnegative integer vectors indexed by `roots` satisfying every
    inequality.

    Depth-first assignment in the given coordinate order, keeping the
    remaining slack of every inequality; a coordinate's range at each step is
    capped by the least slack among the inequalities containing it.  Raises
    UnboundedFaceError for the first coordinate that occurs in no inequality.

    Emission order: a node of depth c holds a fixed prefix of c values and
    visits the values of coordinate c in increasing order, so every point
    below value v precedes every point below v + 1.  By induction on the
    depth, the points come out in lexicographic order of their tuples,
    whatever the coordinate order, which is the order `PointSet` keeps.
    The last coordinate's values form one range and are emitted in one
    batch.

    Slack bookkeeping: while coordinate c holds value v, the slack of each
    inequality containing c must be its entry value minus v.  Every child
    returns with all slacks as it found them (induction on the depth; a
    leaf changes none), so subtracting 1 after each value gives the slack
    for the next value, and adding back the number of values, cap + 1, once
    after the loop restores the entry state exactly.  An inequality whose
    last coordinate is c is read by no node below c, so its slack is not
    updated at all.  A negative bound admits no nonnegative point, so the
    result is then empty; with every bound nonnegative, v <= cap <= slack
    keeps every slack, and so every cap, nonnegative.
    """
    touching: list[list[int]] = [[] for _ in roots]
    index = {r: c for c, r in enumerate(roots)}
    for t, q in enumerate(ineqs):
        for r in q.support:
            touching[index[r]].append(t)
    for c, r in enumerate(roots):
        if not touching[c]:
            raise UnboundedFaceError(n, r)
    if any(q.bound < 0 for q in ineqs):
        return PointSet(n, roots, ())
    if not roots:
        return PointSet(n, roots, ((),))

    last_reader = {t: c for c, ts in enumerate(touching) for t in ts}
    read_later = [tuple(t for t in ts if last_reader[t] > c) for c, ts in enumerate(touching)]
    slack = [q.bound for q in ineqs]
    slack_of = slack.__getitem__
    leaf = len(roots) - 1
    found: list[tuple[int, ...]] = []

    def assign(c: int, prefix: tuple[int, ...]) -> None:
        cap = min(map(slack_of, touching[c]))
        if c == leaf:
            found.extend([prefix + (v,) for v in range(cap + 1)])
            return
        updated = read_later[c]
        for v in range(cap + 1):
            assign(c + 1, prefix + (v,))
            for t in updated:
                slack[t] -= 1
        for t in updated:
            slack[t] += cap + 1

    assign(0, ())
    del assign  # break the closure's self-reference, a cycle only gc would free
    return PointSet(n, roots, tuple(found))


def enumerate_lattice_points(A: RootSubset, lam: DominantWeight) -> PointSet:
    """All integer points of the face polytope of A at the given weight."""
    if lam.n != A.n:
        raise ValueError(f"weight rank {lam.n} != subset rank {A.n}")
    ineqs = build_inequalities(A, lam)
    return enumerate_integer_points(A.n, A.sorted_roots(), ineqs)


def _outside(S: PointSet, ineqs: list[Inequality]) -> Optional[str]:
    """Why some point of S lies outside the nonnegative solutions of the
    inequalities, or None.  A root that S has no coordinate for counts as
    zero."""
    if any(v < 0 for p in S.tuples for v in p):
        return "a point has a negative coordinate"
    index = {r: c for c, r in enumerate(S.roots)}
    for q in ineqs:
        cols = [index[r] for r in q.support if r in index]
        if any(sum([p[c] for c in cols]) > q.bound for p in S.tuples):
            return f"a point violates {q}"
    return None


def embed_face(S: PointSet, lam: DominantWeight) -> PointSet:
    """Zero-pad every point of a face to a point indexed by all positive roots.

    Validates the points against the face inequalities of their own root set
    first, building that system once; membership of the image in the full
    polytope is a theorem for triangular A and is what the tests check.
    """
    why = _outside(S, build_inequalities(RootSubset.of(S.n, S.roots), lam))
    if why is not None:
        raise ValueError(f"{why}; not a face point set")
    full = all_positive_roots(S.n)
    index = {r: c for c, r in enumerate(S.roots)}
    cols = [index.get(r) for r in full]
    return PointSet(S.n, full, tuple(sorted(
        [tuple([0 if c is None else p[c] for c in cols]) for p in S.tuples])))


def in_polytope(S: PointSet, lam: DominantWeight) -> bool:
    """Whether every point of S lies in the full-triangle polytope, a root
    that S has no coordinate for counting as zero.  The system is built
    once."""
    return _outside(S, build_inequalities(RootSubset.full(S.n), lam)) is None


def minkowski_sum(S1: PointSet, S2: PointSet) -> PointSet:
    """Pairwise sums {s + t}, deduplicated, in lexicographic order.

    Each point is packed into one int in mixed radix: coordinate c occupies
    a field of w_c = (max_c S1 + max_c S2).bit_length() bits, the fields laid
    out from the last coordinate (lowest bits) to the first (highest bits).
    Coordinates must be nonnegative (ValueError otherwise), so every
    coordinate of s + t lies in 0 .. max_c S1 + max_c S2 < 2**w_c and fits
    its field.  No field sum carries into the next, hence pack(s) + pack(t)
    = pack(s + t) and distinct sums have distinct packed values:
    deduplicating the packed ints and unpacking the survivors gives exactly
    the set of tuple sums.  Every field holds its coordinate whole, so the
    first field where two packed sums differ, the highest, is their first
    differing coordinate, and the packed ints sort in lexicographic order
    of the tuples.
    """
    if S1.n != S2.n or S1.roots != S2.roots:
        raise ValueError("Minkowski sum needs matching rank and root order")
    if not S1.tuples or not S2.tuples:
        return PointSet(S1.n, S1.roots, ())
    cols1, cols2 = list(zip(*S1.tuples)), list(zip(*S2.tuples))
    if any(min(col) < 0 for col in cols1 + cols2):
        raise ValueError("lattice points have nonnegative coordinates")
    fields = []
    shift = 0
    for c1, c2 in zip(reversed(cols1), reversed(cols2)):
        width = (max(c1) + max(c2)).bit_length()
        fields.append((shift, (1 << width) - 1))
        shift += width
    fields.reverse()

    def pack(points: tuple[tuple[int, ...], ...]) -> list[int]:
        return [sum(v << s for v, (s, _) in zip(p, fields)) for p in points]

    outer, inner = sorted((pack(S1.tuples), pack(S2.tuples)), key=len)
    sums: set[int] = set()
    for a in outer:
        sums.update(map(a.__add__, inner))
    return PointSet(S1.n, S1.roots, tuple(
        [tuple([x >> s & mask for s, mask in fields]) for x in sorted(sums)]))


def dilate(S: PointSet, k: int) -> PointSet:
    """k-fold Minkowski sum of S with itself (k >= 1)."""
    if k < 1:
        raise ValueError("dilation factor must be >= 1")
    out = S
    for _ in range(k - 1):
        out = minkowski_sum(out, S)
    return out


def weight_columns(n: int, roots: tuple[Root, ...]) -> tuple[tuple[int, ...], ...]:
    """For each simple root k = 1..n, the coordinates whose root a{i}.{j}
    spans it (i <= k <= j).  Coefficient k of a point's weight is the sum of
    its values at these coordinates."""
    return tuple(tuple(c for c, r in enumerate(roots) if r.i <= k <= r.j)
                 for k in range(1, n + 1))


def degree_histogram(S: PointSet) -> dict[int, int]:
    """Counts of points by total coordinate sum."""
    hist: dict[int, int] = {}
    for vals in S.tuples:
        d = sum(vals)
        hist[d] = hist.get(d, 0) + 1
    return dict(sorted(hist.items()))


def points_to_csv(S: PointSet) -> str:
    """CSV with one column per root in canonical order, one row per point.

    Labels and integers never need quoting, so each row is one `%d`
    template filled from a point's tuple, in the set's lexicographic order."""
    row = ",".join(["%d"] * len(S.roots)) + "\n"
    header = ",".join(r.label for r in S.roots) + "\n"
    return header + "".join(map(row.__mod__, S.tuples))
