"""Roots, orders, and dominant weights."""

import pytest
from hypothesis import given, strategies as st

from fflv.roots import (
    DominantWeight,
    Root,
    all_positive_roots,
    dominates,
    fundamental_weight,
    join_root,
    make_root,
    meet_root,
    pairing,
    parse_root,
    rho,
)


def test_make_root_validates():
    assert make_root(1, 3) == Root(1, 3)
    with pytest.raises(ValueError):
        make_root(3, 1)
    with pytest.raises(ValueError):
        make_root(0, 2)


def test_labels_and_parse_round_trip():
    for r in all_positive_roots(4):
        assert parse_root(r.label) == r
        assert parse_root(f"{r.i}.{r.j}") == r
    with pytest.raises(ValueError):
        parse_root("a1")


def test_root_count_and_heights():
    roots = all_positive_roots(3)
    assert len(roots) == 6
    assert sorted(r.height for r in roots) == [1, 1, 1, 2, 2, 3]


def test_staircase_order_extremes():
    """First simple root on top, last simple root on the bottom."""
    roots = all_positive_roots(4)
    assert all(dominates(Root(1, 1), r) for r in roots)
    assert all(dominates(r, Root(4, 4)) for r in roots)


def test_staircase_vs_usual_order():
    # both orders: alpha_{2,3} below alpha_{1,3}
    assert dominates(Root(1, 3), Root(2, 3))
    # the usual order puts alpha_2 below alpha_{2,3}; the staircase order above
    assert dominates(Root(2, 2), Root(2, 3))
    # alpha_2 vs alpha_{1,3}: incomparable in both orders
    assert not dominates(Root(2, 2), Root(1, 3))
    assert not dominates(Root(1, 3), Root(2, 2))


def test_join_meet():
    assert join_root(Root(1, 2), Root(2, 3)) == Root(1, 3)
    assert meet_root(Root(1, 2), Root(2, 3)) == Root(2, 2)
    assert join_root(Root(2, 2), Root(2, 2)) == Root(2, 2)
    assert meet_root(Root(1, 1), Root(3, 3)) is None
    with pytest.raises(ValueError):
        join_root(Root(1, 1), Root(3, 3))


def test_pairing_values():
    lam = DominantWeight((2, 0, 1))
    assert pairing(lam, Root(1, 1)) == 2
    assert pairing(lam, Root(1, 3)) == 3
    assert pairing(lam, Root(2, 2)) == 0
    assert pairing(rho(3), Root(1, 3)) == 3


def test_rho_and_fundamental():
    assert rho(4).coeffs == (1, 1, 1, 1)
    assert fundamental_weight(2, 3).coeffs == (0, 1, 0)
    with pytest.raises(ValueError):
        fundamental_weight(4, 3)


def test_weight_arithmetic():
    a = DominantWeight((1, 2))
    b = DominantWeight((0, 1))
    assert (a + b).coeffs == (1, 3)
    assert a.scale(3).coeffs == (3, 6)
    with pytest.raises(ValueError):
        DominantWeight((-1, 0))


@given(st.lists(st.integers(0, 5), min_size=3, max_size=3),
       st.lists(st.integers(0, 5), min_size=3, max_size=3))
def test_pairing_additive_in_weight(a, b):
    lam, mu = DominantWeight(tuple(a)), DominantWeight(tuple(b))
    for r in all_positive_roots(3):
        assert pairing(lam + mu, r) == pairing(lam, r) + pairing(mu, r)


@given(st.integers(1, 4))
def test_pairing_of_rho_is_height(n):
    for r in all_positive_roots(n):
        assert pairing(rho(n), r) == r.height
