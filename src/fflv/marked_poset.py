"""Marked posets on a root subset and their chain and order polytopes.

The roots of A keep the staircase order (alpha_{i1,j1} >= alpha_{i2,j2} iff
i1 <= i2 and j1 <= j2) and are interleaved with marker elements a_1, ...,
a_{n+1}: marker a_m sits above exactly the roots alpha_{k,l} with k >= m
and below exactly those with l <= m-1, so a_1 is the unique maximum and
a_{n+1} the unique minimum.  The markings are the tail sums of the
weight, `to_partition(lam)`: a_m is marked with its entry m - 1.

One cover relation, read off the root grid (row i, column j holds
alpha_{i,j}), serves both polytopes.  A root q covers a root r when q > r,
no root of A lies strictly between them, and r.i <= q.j: when q.j < r.i,
the markers a_m with q.j < m <= r.i lie between them.  The marker just
above r, a_{r.i}, covers it iff A has no root in row r.i to the left of r;
r covers the marker just below it, a_{r.j+1}, iff A has no root in column
r.j below r.

The chain polytope bounds coordinate sums along saturated marker-to-marker
chains by marking differences, which are the path bounds of `polytope` read
off each chain's support; the order polytope squeezes each coordinate
between its neighbouring markings and its upper root covers.  Both have the
same number of integer points at every dilation.  Each side has an
enumerator and a counter that lists no point: the chain count is
`polytope.count_integer_points`, the pass over the slack-state graph that
`polytope.count_points_by_weight` also grades by weight, and the order
count is a dynamic programme over the order enumerator's root order.
Each takes a subset and a weight of the same rank, as
`enumerate_lattice_points` does.

`is_marked_chain_face` compares the face system of a subset with its chain
system, free of the weight.  Where they agree, the face is the marked chain
polytope at every weight, which is what lets `verify` certify normality
through the transfer map instead of forming sums.
"""

from __future__ import annotations

from .characters import to_partition
from .paths import base_root, enumerate_dyck_paths_for
from .polytope import (
    Inequality,
    PointSet,
    count_integer_points,
    enumerate_integer_points,
    support_inequalities,
)
from .roots import DominantWeight, Root
from .weyl import RootSubset


def _upper_covers(roots: tuple[Root, ...]) -> list[list[int]]:
    """Per root r of a subset in canonical order, the indices of the roots
    that cover r in the marked poset, ascending.

    Such a cover q has q.i <= r.i and r.i <= q.j <= r.j.  In each row i,
    from r's own upwards, the candidate with the largest j lies below every
    other candidate of its row, and it covers r iff no candidate of a lower
    row lies below it: iff its j exceeds every j found so far.
    """
    index = {r: c for c, r in enumerate(roots)}
    above = []
    for r in roots:
        covers, reach = [], r.i - 1
        for i in range(r.i, 0, -1):
            for j in range(r.j - (i == r.i), reach, -1):
                q = index.get(Root(i, j))
                if q is not None:
                    covers.append(q)
                    reach = j
                    break
        above.append(covers[::-1])
    return above


def _chain_supports(A: RootSubset) -> list[tuple[Root, ...]]:
    """The root sequences of the saturated chains running from a marker down
    through unmarked roots to the next marker they meet, sorted.

    A chain starts at a root that its marker a_{r.i} covers, goes down root
    covers, and ends at a root that covers its marker a_{r.j+1}.  So a chain
    from a_i through r_1 > ... > r_k to a_{j+1} has marking difference
    m_i + ... + m_j, the weight on the coroot of its base root alpha_{i,j},
    which is the bound `support_inequalities` gives it; no weight is read.
    """
    roots = A.sorted_roots()
    below: list[list[int]] = [[] for _ in roots]
    for c, qs in enumerate(_upper_covers(roots)):
        for q in qs:
            below[q].append(c)
    ends = [not any(Root(i, r.j) in A for i in range(r.i + 1, r.j + 1)) for r in roots]
    stack = [(c,) for c, r in enumerate(roots)
             if not any(Root(r.i, j) in A for j in range(r.i, r.j))]
    found = []
    while stack:
        trail = stack.pop()
        if ends[trail[-1]]:
            found.append(tuple([roots[c] for c in trail]))
        stack.extend([trail + (d,) for d in below[trail[-1]]])
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
    chains = _chain_supports(A)
    return (all(any(_dominated(p, c) for c in chains) for p in paths)
            and all(any(_dominated(c, p) for p in paths) for c in chains))


def _check_rank(A: RootSubset, lam: DominantWeight) -> None:
    if lam.n != A.n:
        raise ValueError(f"weight rank {lam.n} != subset rank {A.n}")


def marked_chain_points(A: RootSubset, lam: DominantWeight) -> PointSet:
    """Integer points of the marked chain polytope of A at lam."""
    return enumerate_integer_points(A.n, A.sorted_roots(), _chain_system(A, lam))


def count_chain_points(A: RootSubset, lam: DominantWeight) -> int:
    """The number of integer points of the marked chain polytope, counted
    by `count_integer_points` over its slack-state graph without listing
    them."""
    return count_integer_points(A.n, A.sorted_roots(), _chain_system(A, lam))


def _chain_system(A: RootSubset, lam: DominantWeight) -> list[Inequality]:
    _check_rank(A, lam)
    return support_inequalities(_chain_supports(A), lam)


def _order_constraints(A: RootSubset, lam: DominantWeight):
    """The roots of A in canonical order; per root, its lowest and highest
    value, the markings of the markers just below and just above it; and
    the indices of its upper root covers, which canonical order lists
    before it.

    A staircase cover q of r with q.j < r.i is no cover of the marked
    poset, and the bounds already imply it: x_q >= mark[q.j] >=
    mark[r.i - 1] >= x_r.
    """
    _check_rank(A, lam)
    roots = A.sorted_roots()
    mark = to_partition(lam)
    return (roots, [mark[r.j] for r in roots], [mark[r.i - 1] for r in roots],
            _upper_covers(roots))


def marked_order_points(A: RootSubset, lam: DominantWeight) -> PointSet:
    """Integer points of the marked order polytope of A at lam.

    Each root coordinate lies between the markings of the markers just
    below and just above it, and respects x_lower <= x_upper along
    root-to-root covers.  Roots are assigned in canonical
    order, which lists every upper cover first.

    The depth-first search fixes the roots in that order and tries each
    one's values in increasing order, so every point below a prefix ending
    in v precedes every point below the same prefix ending in v + 1: the
    points come out in lexicographic order, the order `PointSet` keeps.
    """
    roots, lower_bound, upper_bound, above = _order_constraints(A, lam)
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
    return PointSet(A.n, roots, tuple(found))


def count_order_points(A: RootSubset, lam: DominantWeight) -> int:
    """The number of integer points of the marked order polytope, without
    listing them.

    A dynamic programme over `marked_order_points`' own order.  Once roots
    0..c-1 are fixed, the choices left depend only on the values of those
    that a later root still reads as an upper cover, so the prefixes are
    merged by that root index and those values: one dict per index maps the
    values to the number of prefixes that reach them.  A root that no later
    root reads adds its number of values as a factor, with no new state.
    """
    roots, lower_bound, upper_bound, above = _order_constraints(A, lam)
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
