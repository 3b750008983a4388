"""Marked posets and their chain and order point counts."""

from itertools import combinations

import pytest

from fflv.marked_poset import (
    Marker,
    build_marked_poset,
    ehrhart_count,
    marked_chain_points,
    marked_order_points,
)
from fflv.polytope import UnboundedFaceError, enumerate_lattice_points
from fflv.roots import DominantWeight, Root, all_positive_roots, rho
from fflv.weyl import RootSubset, all_permutations, inversion_roots, is_triangular_element, is_triangular_subset


def all_subsets(n):
    roots = all_positive_roots(n)
    for k in range(len(roots) + 1):
        for combo in combinations(roots, k):
            yield RootSubset.of(n, combo)


def test_marker_count_and_markings():
    P = build_marked_poset(RootSubset.full(2), DominantWeight((2, 1)))
    assert len(P.markers) == 3
    assert [P.marking(m) for m in P.markers] == [3, 1, 0]


def test_first_marker_on_top_last_on_bottom():
    lam = rho(3)
    for A in all_subsets(3):
        P = build_marked_poset(A, lam)
        top, bottom = Marker(1), Marker(4)
        others = [e for e in P.elements if e not in (top, bottom)]
        assert all(P.greater(top, e) for e in others + [bottom])
        assert all(P.greater(e, bottom) for e in others + [top])


def test_root_sits_between_its_markers():
    P = build_marked_poset(RootSubset.full(3), rho(3))
    assert P.greater(Marker(1), Root(1, 2))
    assert P.greater(Root(1, 2), Marker(3))
    assert not P.greater(Root(1, 2), Marker(2))
    assert not P.greater(Marker(2), Root(1, 2))


def test_covers_are_a_transitive_reduction():
    P = build_marked_poset(RootSubset.full(2), DominantWeight((1, 1)))
    covers = P.covers()
    for upper, lower in covers:
        assert P.greater(upper, lower)
        for mid in P.elements:
            if mid in (upper, lower):
                continue
            assert not (P.greater(upper, mid) and P.greater(mid, lower))


def test_chain_points_match_face_points_for_triangular():
    lam = rho(3)
    for w in all_permutations(3):
        if not is_triangular_element(w):
            continue
        A = inversion_roots(w)
        P = build_marked_poset(A, lam)
        assert len(marked_chain_points(P)) == len(enumerate_lattice_points(A, lam))


def test_chain_count_can_agree_for_non_triangular_subsets():
    """Equality of counts does not single out triangular subsets: the pair of
    simple roots at rank 2 is non-triangular yet the counts agree."""
    A = RootSubset.of(2, [Root(1, 1), Root(2, 2)])
    assert not is_triangular_subset(A)
    lam = DominantWeight((1, 1))
    P = build_marked_poset(A, lam)
    assert len(marked_chain_points(P)) == len(enumerate_lattice_points(A, lam))


def test_chain_equals_order_counts_all_subsets_rank2():
    lam = DominantWeight((2, 1))
    for A in all_subsets(2):
        for t in (1, 2, 3):
            assert ehrhart_count(A, lam, t, "chain") == ehrhart_count(A, lam, t, "order")


def test_order_points_respect_interval_bounds():
    A = RootSubset.full(2)
    lam = DominantWeight((2, 1))
    P = build_marked_poset(A, lam)
    pts = marked_order_points(P)
    for pt in pts:
        d = pt.as_dict()
        top = d.get(Root(1, 1), 0)
        mid = d.get(Root(1, 2), 0)
        low = d.get(Root(2, 2), 0)
        assert 1 <= top <= 3
        assert 0 <= mid <= 3
        assert 0 <= low <= 1
        assert top >= mid >= low
    assert len(pts) == len(marked_chain_points(P))


def test_ehrhart_validation():
    with pytest.raises(ValueError):
        ehrhart_count(RootSubset.full(2), DominantWeight((1, 1)), 0, "chain")
    with pytest.raises(ValueError):
        ehrhart_count(RootSubset.full(2), DominantWeight((1, 1)), 1, "volume")
