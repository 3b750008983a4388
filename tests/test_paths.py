"""Monotone root paths, restriction, blocks, and grid closure."""

import pytest

from fflv.paths import (
    DyckPath,
    base_root,
    connected_blocks,
    enumerate_dyck_paths,
    enumerate_dyck_paths_for,
    is_dyck_path_for,
    restrict_path,
)
from fflv.roots import Root
from fflv.weyl import Permutation, RootSubset, inversion_roots


def test_path_validation():
    DyckPath(2, (Root(1, 1), Root(1, 2), Root(2, 2)))
    with pytest.raises(ValueError):
        DyckPath(2, ())
    with pytest.raises(ValueError):
        DyckPath(2, (Root(1, 2),))  # must start at a simple root
    with pytest.raises(ValueError):
        DyckPath(3, (Root(1, 1), Root(2, 2)))  # illegal step
    with pytest.raises(ValueError):
        DyckPath(2, (Root(1, 1), Root(1, 3)))  # out of range


def test_full_path_counts():
    assert [len(enumerate_dyck_paths(n)) for n in (1, 2, 3, 4)] == [1, 3, 7, 16]


def test_paths_are_monotone_in_triangle_order():
    for p in enumerate_dyck_paths(3):
        rs = list(p)
        assert all(rs[0].i <= r.i and r.j <= rs[-1].j for r in rs)
        assert rs[0].i == rs[0].j and rs[-1].i == rs[-1].j


def test_base_root():
    p = DyckPath(3, (Root(2, 2), Root(2, 3), Root(3, 3)))
    assert base_root(p) == Root(2, 3)
    assert base_root([Root(1, 1)]) == Root(1, 1)
    with pytest.raises(ValueError):
        base_root([])


def test_restrict_and_blocks():
    p = DyckPath(3, (Root(1, 1), Root(1, 2), Root(1, 3), Root(2, 3), Root(3, 3)))
    A = RootSubset.of(3, [Root(1, 1), Root(3, 3)])
    q = restrict_path(p, A)
    assert [r.label for r in q] == ["a1.1", "a3.3"]
    pieces = connected_blocks(q)
    assert [[r.label for r in blk] for blk in pieces] == [["a1.1"], ["a3.3"]]


def test_connected_blocks_split_rule():
    """Blocks split only when the supports leave a genuine gap; touching
    intervals stay together."""
    blocks = connected_blocks([Root(1, 1), Root(1, 2), Root(3, 3)])
    assert [[r.label for r in b] for b in blocks] == [["a1.1", "a1.2", "a3.3"]]
    blocks = connected_blocks([Root(1, 1), Root(3, 3)])
    assert [[r.label for r in b] for b in blocks] == [["a1.1"], ["a3.3"]]
    blocks = connected_blocks([Root(1, 1), Root(2, 2)])
    assert [[r.label for r in b] for b in blocks] == [["a1.1", "a2.2"]]


def test_grid_closure_condition():
    A = RootSubset.of(2, [Root(1, 1), Root(2, 2)])
    assert not is_dyck_path_for([Root(1, 1), Root(2, 2)], A)
    B = RootSubset.of(2, [Root(1, 1), Root(2, 2), Root(1, 2)])
    assert is_dyck_path_for([Root(1, 1), Root(2, 2)], B)
    assert is_dyck_path_for([Root(1, 1)], A)


def test_enumerate_for_full_set_matches_plain_enumeration():
    for n in (1, 2, 3):
        full = {tuple(p) for p in enumerate_dyck_paths(n)}
        for_A = set(enumerate_dyck_paths_for(RootSubset.full(n)))
        assert for_A == full


def test_enumerate_for_inversion_set():
    """The non-triangular inversion set at rank 3 keeps only short pieces."""
    A = inversion_roots(Permutation.from_oneline((2, 4, 1, 3)))
    got = enumerate_dyck_paths_for(A)
    supports = sorted(tuple(r.label for r in roots) for roots in got)
    assert supports == [("a1.2", "a2.2"), ("a2.2",), ("a2.2", "a2.3")]
    bases = {roots: base_root(roots) for roots in got}
    assert bases[(Root(1, 2), Root(2, 2))] == Root(1, 2)
    assert bases[(Root(2, 2), Root(2, 3))] == Root(2, 3)


def test_enumerate_for_empty_subset():
    assert enumerate_dyck_paths_for(RootSubset.of(3, [])) == []
