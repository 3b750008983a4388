"""Face polytopes of the lattice-point polytope attached to a dominant weight.

For a subset A of positive roots and a dominant weight, every grid-closed
restricted path contributes the inequality

    sum of the coordinates along the path <= pairing(weight, base root),

and the polytope is the set of nonnegative real coordinate vectors indexed by
A satisfying all of them.  This module enumerates the integer points exactly,
embeds them into the full-triangle polytope, and forms Minkowski sums and
dilations.  Everything is integer arithmetic.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import Iterator, NamedTuple

from .paths import enumerate_dyck_paths_for
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


class WeightInRootLattice(NamedTuple):
    """Coefficients c_1..c_n of a weight written in the simple-root basis."""

    coeffs: tuple[int, ...]

    def __str__(self) -> str:
        return "(" + ", ".join(str(c) for c in self.coeffs) + ")"


@dataclass(frozen=True)
class LatticePoint:
    """One integer point: values aligned with a fixed sorted root tuple."""

    n: int
    roots: tuple[Root, ...]
    values: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.roots) != len(self.values):
            raise ValueError("values must align with roots")
        if any(v < 0 for v in self.values):
            raise ValueError("lattice points have nonnegative coordinates")

    def value(self, r: Root) -> int:
        try:
            return self.values[self.roots.index(r)]
        except ValueError:
            return 0

    def as_dict(self) -> dict[Root, int]:
        return {r: v for r, v in zip(self.roots, self.values) if v}

    def __add__(self, other: "LatticePoint") -> "LatticePoint":
        if self.n != other.n or self.roots != other.roots:
            raise ValueError("can only add points over the same root set")
        return LatticePoint(
            self.n, self.roots, tuple(a + b for a, b in zip(self.values, other.values))
        )


@dataclass(frozen=True)
class PointSet:
    """A set of lattice points sharing rank and coordinate order."""

    n: int
    roots: tuple[Root, ...]
    tuples: frozenset[tuple[int, ...]]

    def __len__(self) -> int:
        return len(self.tuples)

    def __iter__(self) -> Iterator[LatticePoint]:
        for vals in self.sorted_tuples():
            yield LatticePoint(self.n, self.roots, vals)

    def __contains__(self, item) -> bool:
        if isinstance(item, LatticePoint):
            if item.roots != self.roots:
                return False
            return item.values in self.tuples
        return tuple(item) in self.tuples

    def sorted_tuples(self) -> list[tuple[int, ...]]:
        return sorted(self.tuples)


def build_inequalities(A: RootSubset, lam: DominantWeight) -> list[Inequality]:
    """One inequality per grid-closed restricted path of A, in path order."""
    return [Inequality(roots, pairing(lam, base)) for roots, base in enumerate_dyck_paths_for(A)]


def enumerate_integer_points(
    n: int, roots: tuple[Root, ...], ineqs: list[Inequality]
) -> PointSet:
    """Nonnegative integer vectors indexed by `roots` satisfying every
    inequality.

    Depth-first assignment in the given coordinate order, keeping the
    remaining slack of every inequality; a coordinate's range at each step is
    capped by the least slack among the inequalities containing it.  Raises
    UnboundedFaceError if some coordinate occurs in no inequality.
    """
    touching: list[list[int]] = [[] for _ in roots]
    index = {r: c for c, r in enumerate(roots)}
    for t, q in enumerate(ineqs):
        for r in q.support:
            touching[index[r]].append(t)
    for c, r in enumerate(roots):
        if not touching[c]:
            raise UnboundedFaceError(n, r)

    remaining = [q.bound for q in ineqs]
    point = [0] * len(roots)
    found: list[tuple[int, ...]] = []

    def assign(c: int) -> None:
        if c == len(roots):
            found.append(tuple(point))
            return
        cap = min(remaining[t] for t in touching[c])
        for v in range(cap + 1):
            point[c] = v
            for t in touching[c]:
                remaining[t] -= v
            assign(c + 1)
            for t in touching[c]:
                remaining[t] += v
        point[c] = 0

    assign(0)
    return PointSet(n, roots, frozenset(found))


def enumerate_lattice_points(A: RootSubset, lam: DominantWeight) -> PointSet:
    """All integer points of the face polytope of A at the given weight."""
    if lam.n != A.n:
        raise ValueError(f"weight rank {lam.n} != subset rank {A.n}")
    ineqs = build_inequalities(A, lam)
    return enumerate_integer_points(A.n, A.sorted_roots(), ineqs)


def embed_face(point: LatticePoint, lam: DominantWeight) -> LatticePoint:
    """Zero-pad a face point to a point indexed by all positive roots.

    Validates the input against the face inequalities of its own support set
    first; membership of the image in the full polytope is a theorem for
    triangular A and is what the tests check.
    """
    A = RootSubset.of(point.n, set(point.roots))
    for q in build_inequalities(A, lam):
        if sum(point.value(r) for r in q.support) > q.bound:
            raise ValueError(f"point violates {q}; not a face lattice point")
    full = all_positive_roots(point.n)
    vals = tuple(point.value(r) for r in full)
    return LatticePoint(point.n, tuple(full), vals)


def in_polytope(point: LatticePoint, lam: DominantWeight) -> bool:
    """Whether a full-support point satisfies every full-triangle inequality."""
    A = RootSubset.full(point.n)
    return all(
        sum(point.value(r) for r in q.support) <= q.bound
        for q in build_inequalities(A, lam)
    )


def minkowski_sum(S1: PointSet, S2: PointSet) -> PointSet:
    """Pairwise sums {s + t}, deduplicated.

    Each point is packed into one int in mixed radix: coordinate c occupies
    a field of w_c = (max_c S1 + max_c S2).bit_length() bits, the fields laid
    out one after another.  Coordinates must be nonnegative (ValueError
    otherwise), so every coordinate of s + t lies in 0 .. max_c S1 + max_c S2
    < 2**w_c and fits its field.  No field sum carries into the next, hence
    pack(s) + pack(t) = pack(s + t) and distinct sums have distinct packed
    values: deduplicating the packed ints and unpacking the survivors gives
    exactly the set of tuple sums.
    """
    if S1.n != S2.n or S1.roots != S2.roots:
        raise ValueError("Minkowski sum needs matching rank and root order")
    if not S1.tuples or not S2.tuples:
        return PointSet(S1.n, S1.roots, frozenset())
    cols1, cols2 = list(zip(*S1.tuples)), list(zip(*S2.tuples))
    if any(min(col) < 0 for col in cols1 + cols2):
        raise ValueError("lattice points have nonnegative coordinates")
    fields = []
    shift = 0
    for c1, c2 in zip(cols1, cols2):
        width = (max(c1) + max(c2)).bit_length()
        fields.append((shift, (1 << width) - 1))
        shift += width

    def pack(points: frozenset[tuple[int, ...]]) -> list[int]:
        return [sum(v << s for v, (s, _) in zip(p, fields)) for p in points]

    outer, inner = sorted((pack(S1.tuples), pack(S2.tuples)), key=len)
    sums: set[int] = set()
    for a in outer:
        sums.update(map(a.__add__, inner))
    return PointSet(S1.n, S1.roots, frozenset(
        tuple([x >> s & mask for s, mask in fields]) for x in sums))


def dilate(S: PointSet, k: int) -> PointSet:
    """k-fold Minkowski sum of S with itself (k >= 1)."""
    if k < 1:
        raise ValueError("dilation factor must be >= 1")
    out = S
    for _ in range(k - 1):
        out = minkowski_sum(out, S)
    return out


def weight_and_degree(point: LatticePoint) -> tuple[WeightInRootLattice, int]:
    """Simple-root coefficients of the coordinate-weighted root sum, and the
    total coordinate sum."""
    coeffs = [0] * point.n
    for r, v in zip(point.roots, point.values):
        for k in range(r.i, r.j + 1):
            coeffs[k - 1] += v
    return WeightInRootLattice(tuple(coeffs)), sum(point.values)


def degree_histogram(S: PointSet) -> dict[int, int]:
    """Counts of points by total coordinate sum."""
    hist: dict[int, int] = {}
    for vals in S.tuples:
        d = sum(vals)
        hist[d] = hist.get(d, 0) + 1
    return dict(sorted(hist.items()))


def points_to_csv(S: PointSet) -> str:
    """CSV with one column per root in canonical order, one row per point."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([r.label for r in S.roots])
    for vals in S.sorted_tuples():
        writer.writerow(vals)
    return buf.getvalue()
