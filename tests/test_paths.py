"""Monotone root paths, restriction, blocks, and grid closure."""

import random
from itertools import combinations

import pytest

from fflv.paths import (
    base_root,
    connected_blocks,
    enumerate_dyck_paths,
    enumerate_dyck_paths_for,
    is_dyck_path_for,
)
from fflv.roots import Root, all_positive_roots
from fflv.weyl import Permutation, RootSubset, inversion_roots


def _full_paths_reference(n):
    """Every full path of rank n, by a depth-first walk from each simple
    root that records the trail whenever it sits on a simple root."""
    out = []
    trail = []

    def walk(cur):
        trail.append(cur)
        if cur.i == cur.j:
            out.append(tuple(trail))
        if cur.i + 1 <= cur.j:
            walk(Root(cur.i + 1, cur.j))
        if cur.j + 1 <= n:
            walk(Root(cur.i, cur.j + 1))
        trail.pop()

    for i in range(1, n + 1):
        walk(Root(i, i))
    return sorted(out)


def _paths_for_reference(A):
    """Restrict every full path to A, split into blocks, keep the
    grid-closed ones."""
    found = set()
    for q in _full_paths_reference(A.n):
        restricted = tuple(r for r in q if r in A)
        found.update(piece for piece in connected_blocks(restricted)
                     if is_dyck_path_for(piece, A))
    return sorted(found)


def test_path_validation():
    """Every full path starts and ends at a simple root, takes unit steps
    and stays in the triangle."""
    for n in range(1, 7):
        paths = enumerate_dyck_paths(n)
        assert paths == sorted(set(paths))
        for p in paths:
            assert p and p[0].i == p[0].j and p[-1].i == p[-1].j
            assert all(1 <= r.i <= r.j <= n for r in p)
            assert all((b.i, b.j) in ((a.i + 1, a.j), (a.i, a.j + 1)) for a, b in zip(p, p[1:]))


def test_full_path_counts():
    assert [len(enumerate_dyck_paths(n)) for n in range(1, 7)] == [1, 3, 7, 16, 39, 104]
    with pytest.raises(ValueError):
        enumerate_dyck_paths(0)


def test_full_paths_match_the_depth_first_walk():
    for n in range(1, 7):
        assert enumerate_dyck_paths(n) == _full_paths_reference(n)


def test_paths_are_monotone_in_triangle_order():
    for p in enumerate_dyck_paths(3):
        assert all(p[0].i <= r.i and r.j <= p[-1].j for r in p)
        assert p[0].i == p[0].j and p[-1].i == p[-1].j


def test_base_root():
    assert base_root((Root(2, 2), Root(2, 3), Root(3, 3))) == Root(2, 3)
    assert base_root((Root(1, 1),)) == Root(1, 1)
    with pytest.raises(ValueError):
        base_root(())


def test_restrict_and_blocks():
    p = (Root(1, 1), Root(1, 2), Root(1, 3), Root(2, 3), Root(3, 3))
    A = RootSubset.of(3, [Root(1, 1), Root(3, 3)])
    assert p in enumerate_dyck_paths(3)
    q = tuple(r for r in p if r in A)
    assert [r.label for r in q] == ["a1.1", "a3.3"]
    pieces = connected_blocks(q)
    assert [[r.label for r in blk] for blk in pieces] == [["a1.1"], ["a3.3"]]
    assert enumerate_dyck_paths_for(A) == [(Root(1, 1),), (Root(3, 3),)]


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
        full = set(enumerate_dyck_paths(n))
        for_A = set(enumerate_dyck_paths_for(RootSubset.full(n)))
        assert for_A == full


def test_enumerate_for_matches_reference_on_every_subset_to_rank_4():
    checked = 0
    for n in range(1, 5):
        roots = all_positive_roots(n)
        for k in range(len(roots) + 1):
            for members in combinations(roots, k):
                A = RootSubset.of(n, members)
                assert enumerate_dyck_paths_for(A) == _paths_for_reference(A), A
                checked += 1
    assert checked == 2 + 8 + 64 + 1024


@pytest.mark.parametrize("n", [5, 6])
def test_enumerate_for_matches_reference_on_random_subsets(n):
    rng = random.Random(20140 + n)
    roots = all_positive_roots(n)
    for _ in range(300):
        A = RootSubset.of(n, [r for r in roots if rng.random() < rng.random()])
        assert enumerate_dyck_paths_for(A) == _paths_for_reference(A), A


def test_single_root_at_high_rank():
    """The pass costs what the subset does: one root at rank 30 is one path."""
    assert enumerate_dyck_paths_for(RootSubset.of(30, [Root(1, 1)])) == [(Root(1, 1),)]


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
