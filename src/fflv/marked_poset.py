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
the same number of integer points at every dilation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Union

from .polytope import PointSet, enumerate_integer_points, support_inequalities
from .roots import DominantWeight, Root, dominates
from .weyl import RootSubset


class Marker(NamedTuple):
    """The m-th marked element a_m, 1 <= m <= n+1."""

    index: int

    @property
    def label(self) -> str:
        return f"m{self.index}"


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


def marked_chain_points(P: MarkedPoset) -> PointSet:
    """Integer points of the marked chain polytope."""
    return enumerate_integer_points(
        P.n, P.A.sorted_roots(), support_inequalities(_chain_supports(P), P.lam))


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
