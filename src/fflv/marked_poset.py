"""Marked posets on a root subset and their chain and order polytopes.

The roots of A keep the staircase order (alpha_{i1,j1} >= alpha_{i2,j2} iff
i1 <= i2 and j1 <= j2) and are interleaved with marker elements a_1, ...,
a_{n+1}: marker a_m sits above exactly the roots starting at column m or
later (a_m > alpha_{k,l} iff k >= m) and below exactly the roots ending
before row m (alpha_{k,l} > a_m iff l <= m-1), so a_1 is the unique maximum
and a_{n+1} the unique minimum.  Markers carry the tail sums of the weight:
a_m is marked with m_m + ... + m_n and a_{n+1} with 0.

The chain polytope bounds coordinate sums along saturated marker-to-marker
chains by marking differences, which are the path bounds of `polytope` read
off each chain's support; the order polytope squeezes each coordinate
between its neighbouring markings and its staircase neighbours.  Both have
the same number of integer points at every dilation.  Each side has an
enumerator and a counter that lists no point: the chain count runs the
enumerator's own search, the order count is a dynamic programme over the
order enumerator's root order.

`is_marked_chain_face` compares the face system of a subset with its chain
system, free of the weight.  Where they agree, the face is the marked chain
polytope at every weight, which is what lets `verify` certify normality
through the transfer map instead of forming sums.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Union

from .paths import base_root, enumerate_dyck_paths_for
from .polytope import (
    Inequality,
    PointSet,
    count_integer_points,
    enumerate_integer_points,
    support_inequalities,
)
from .roots import DominantWeight, Root, dominates
from .weyl import RootSubset


class Marker(NamedTuple):
    """The m-th marked element a_m, 1 <= m <= n+1."""

    index: int


Element = Union[Root, Marker]


def _greater(x: Element, y: Element) -> bool:
    """Strict order on roots and markers combined."""
    if isinstance(x, Root) and isinstance(y, Root):
        return x != y and dominates(x, y)
    if isinstance(x, Marker) and isinstance(y, Marker):
        return x.index < y.index
    if isinstance(x, Marker):
        return y.i >= x.index
    return x.j <= y.index - 1


def _label_key(x: Element):
    return (0, x.index, 0) if isinstance(x, Marker) else (1, x.i, x.j)


@dataclass(frozen=True)
class MarkedPoset:
    """A root subset interleaved with marked boundary elements."""

    n: int
    A: RootSubset
    lam: DominantWeight

    def __post_init__(self) -> None:
        if self.lam.n != self.n or self.A.n != self.n:
            raise ValueError("rank mismatch between subset and weight")

    @property
    def markers(self) -> tuple[Marker, ...]:
        return tuple(Marker(m) for m in range(1, self.n + 2))

    @property
    def elements(self) -> tuple[Element, ...]:
        return self.markers + self.A.sorted_roots()

    def marking(self, m: Marker) -> int:
        return sum(self.lam.coeffs[m.index - 1 :])

    def greater(self, x: Element, y: Element) -> bool:
        return _greater(x, y)

    def covers(self) -> list[tuple[Element, Element]]:
        """All pairs (upper, lower) with nothing strictly between."""
        els = self.elements
        out = []
        for x in els:
            for y in els:
                if not _greater(x, y):
                    continue
                if any(_greater(x, z) and _greater(z, y) for z in els):
                    continue
                out.append((x, y))
        return sorted(out, key=lambda e: (_label_key(e[0]), _label_key(e[1])))


def build_marked_poset(A: RootSubset, lam: DominantWeight) -> MarkedPoset:
    return MarkedPoset(A.n, A, lam)


def _chain_supports(P: MarkedPoset) -> list[tuple[Root, ...]]:
    """The root sequences of the saturated chains running from a marker down
    through unmarked roots to the next marker they meet, sorted.

    No marking is read: only a_i covers a root that starts at row i, and a
    root that ends at row j covers only a_{j+1}.  So a chain from a_i through
    r_1 > ... > r_k to a_{j+1} has marking difference m_i + ... + m_j, the
    weight on the coroot of its base root alpha_{i,j}, which is the bound
    `support_inequalities` gives it.
    """
    below: dict[Element, list[Element]] = {}
    for upper, lower in P.covers():
        below.setdefault(upper, []).append(lower)

    found: set[tuple[Root, ...]] = set()

    def descend(trail: list[Root], cur: Element) -> None:
        for nxt in below.get(cur, ()):
            if isinstance(nxt, Marker):
                if trail:
                    found.add(tuple(trail))
            else:
                trail.append(nxt)
                descend(trail, nxt)
                trail.pop()

    for m in P.markers:
        descend([], m)
    del descend  # break the closure's self-reference, a cycle only gc would free
    return sorted(found)


def _dominated(s: tuple[Root, ...], by: tuple[Root, ...]) -> bool:
    """Whether the inequality on support `by` implies the one on `s` at
    every dominant weight: `by` contains every root of `s`, so on
    nonnegative points its sum is the larger, and its base-root interval
    lies inside that of `s`, so its bound is the smaller."""
    b, c = base_root(s), base_root(by)
    return b.i <= c.i and c.j <= b.j and set(s) <= set(by)


def is_marked_chain_face(A: RootSubset) -> bool:
    """Whether the face polytope of A is the marked chain polytope of A at
    every dominant weight.

    The face system (the path supports of A) and the chain system (the
    saturated marker-to-marker chains) are compared by domination, each
    inequality of one implied by some inequality of the other at every
    weight (`_dominated`).  Both polytopes live in the nonnegative orthant
    of the same coordinates, so domination both ways makes them equal for
    every dominant weight.  No weight is read: chains and paths alike are
    supports, bounded through their base roots.  The tests find it true
    for every triangular subset through rank 5 and every triangular element
    at rank 6, and for some non-triangular subsets too.
    """
    paths = enumerate_dyck_paths_for(A)
    chains = _chain_supports(build_marked_poset(A, DominantWeight((0,) * A.n)))
    return (all(any(_dominated(p, c) for c in chains) for p in paths)
            and all(any(_dominated(c, p) for p in paths) for c in chains))


def marked_chain_points(P: MarkedPoset) -> PointSet:
    """Integer points of the marked chain polytope."""
    return enumerate_integer_points(P.n, P.A.sorted_roots(), _chain_system(P))


def count_chain_points(P: MarkedPoset) -> int:
    """The number of integer points of the marked chain polytope, counted
    by the enumerator's search without listing them."""
    return count_integer_points(P.n, P.A.sorted_roots(), _chain_system(P))


def _chain_system(P: MarkedPoset) -> list[Inequality]:
    return support_inequalities(_chain_supports(P), P.lam)


def _order_constraints(P: MarkedPoset):
    """The roots of P in canonical order; per root, its lowest and highest
    value from the markers below and above it; and the indices of its upper
    covers among the roots, which canonical order lists before it."""
    roots = P.A.sorted_roots()
    upper_bound = [P.marking(Marker(r.i)) for r in roots]
    lower_bound = [P.marking(Marker(r.j + 1)) for r in roots]
    index = {r: c for c, r in enumerate(roots)}
    above: list[list[int]] = [[] for _ in roots]
    for c, r in enumerate(roots):
        for q in roots:
            if q == r or not dominates(q, r):
                continue
            if any(z != q and z != r and dominates(q, z) and dominates(z, r) for z in roots):
                continue
            above[c].append(index[q])
    return roots, lower_bound, upper_bound, above


def marked_order_points(P: MarkedPoset) -> PointSet:
    """Integer points of the marked order polytope.

    Each root coordinate lies between the markings of its column marker
    (above) and its row-plus-one marker (below), and respects x_lower <=
    x_upper along root-to-root covers.  Roots are assigned in canonical
    order, which lists every upper staircase neighbour first.

    The depth-first search fixes the roots in that order and tries each
    one's values in increasing order, so every point below a prefix ending
    in v precedes every point below the same prefix ending in v + 1: the
    points come out in lexicographic order, the order `PointSet` keeps.
    """
    roots, lower_bound, upper_bound, above = _order_constraints(P)
    point = [0] * len(roots)
    found: list[tuple[int, ...]] = []

    def assign(c: int) -> None:
        if c == len(roots):
            found.append(tuple(point))
            return
        hi = min([upper_bound[c]] + [point[q] for q in above[c]])
        for v in range(lower_bound[c], hi + 1):
            point[c] = v
            assign(c + 1)

    assign(0)
    del assign  # break the closure's self-reference, a cycle only gc would free
    return PointSet(P.n, roots, tuple(found))


def count_order_points(P: MarkedPoset) -> int:
    """The number of integer points of the marked order polytope, without
    listing them.

    A dynamic programme over `marked_order_points`' own order.  Once roots
    0..c-1 are fixed, the choices left depend only on the values of those
    that a later root still reads as an upper cover, so the prefixes are
    merged by that root index and those values: one dict per index maps the
    values to the number of prefixes that reach them.  A root that no later
    root reads adds its number of values as a factor, with no new state.
    """
    roots, lower_bound, upper_bound, above = _order_constraints(P)
    last_read = [-1] * len(roots)
    for c, qs in enumerate(above):
        for q in qs:
            last_read[q] = c
    kept: tuple[int, ...] = ()
    states: dict[tuple[int, ...], int] = {(): 1}
    for c in range(len(roots)):
        reads = [kept.index(q) for q in above[c]]
        keep = [i for i, q in enumerate(kept + (c,)) if last_read[q] > c]
        merged: dict[tuple[int, ...], int] = {}
        for values, ways in states.items():
            lo, hi = lower_bound[c], min([upper_bound[c]] + [values[i] for i in reads])
            if hi < lo:
                continue
            if last_read[c] < 0:
                key = tuple([values[i] for i in keep])
                merged[key] = merged.get(key, 0) + ways * (hi - lo + 1)
                continue
            for v in range(lo, hi + 1):
                full = values + (v,)
                key = tuple([full[i] for i in keep])
                merged[key] = merged.get(key, 0) + ways
        kept = tuple([(kept + (c,))[i] for i in keep])
        states = merged
    return sum(states.values())
