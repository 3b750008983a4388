"""Monotone staircase paths in the triangle of positive roots.

A full path starts and ends at a simple root and moves one step at a time,
raising either the start index or the end index.  A path is a tuple of
roots.  Restricting the full paths to a subset of roots, splitting at
support gaps, and checking a grid-closure condition yields the paths that
cut out the face polytope of the subset.  The restrictions come from one
bottom-up pass over the root grid, so no full path is listed unless the
subset is the whole triangle.  A path is kept as its support alone: its
base root, and with it the bound of its inequality, is a function of the
support.
"""

from __future__ import annotations

from typing import Sequence

from .roots import Root
from .weyl import RootSubset


def base_root(p: tuple[Root, ...]) -> Root:
    """First start index paired with last end index: alpha_{i_1, j_s}."""
    if not p:
        raise ValueError("empty path has no base root")
    return Root(p[0].i, p[-1].j)


def _restrictions(A: RootSubset) -> set[tuple[Root, ...]]:
    """The restrictions to A of all full paths of rank A.n.

    One pass over the grid, rows i = n..1 and in each row j = n..i.  Cell
    (i, j) holds the restrictions of the walks from alpha_{i,j} on to a
    simple root: the empty walk when i = j, and the walks through
    (i+1, j) and (i, j+1), each with alpha_{i,j} in front when it lies in
    A.  A full path is such a walk from a simple root, so the cells on the
    diagonal hold all restrictions between them.  Only the row below is
    kept.  Cells outside the triangle share one empty set, which no cell
    changes: each cell gets a new set.
    """
    n = A.n
    found: set[tuple[Root, ...]] = set()
    below: list[set[tuple[Root, ...]]] = [set()] * (n + 2)
    for i in range(n, 0, -1):
        row = [set()] * (n + 2)
        for j in range(n, i - 1, -1):
            tails = below[j] | row[j + 1]
            if i == j:
                tails.add(())
            r = Root(i, j)
            row[j] = {(r,) + t for t in tails} if r in A else tails
        found |= row[i]
        below = row
    return found


def enumerate_dyck_paths(n: int) -> list[tuple[Root, ...]]:
    """All full paths for rank n, sorted by their root sequences: the
    restrictions to the full triangle."""
    if n < 1:
        raise ValueError("rank must be >= 1")
    return sorted(_restrictions(RootSubset.full(n)))


def connected_blocks(p: Sequence[Root]) -> list[tuple[Root, ...]]:
    """Split a restricted path at support gaps.

    Consecutive roots stay in one block while the next root starts no later
    than one past the previous end, so each block has connected total support.
    """
    blocks: list[tuple[Root, ...]] = []
    cur: list[Root] = []
    for r in p:
        if cur and r.i > cur[-1].j + 1:
            blocks.append(tuple(cur))
            cur = []
        cur.append(r)
    if cur:
        blocks.append(tuple(cur))
    return blocks


def is_dyck_path_for(p: Sequence[Root], A: RootSubset) -> bool:
    """Grid closure: every root built from a start index and a later-or-equal
    end index of p must lie in A.

    Expects a restriction of a full path, so start and end indices are each
    weakly increasing along p.
    """
    rs = tuple(p)
    for a in rs:
        for b in rs:
            if a.i <= b.j and Root(a.i, b.j) not in A:
                return False
    return True


def enumerate_dyck_paths_for(A: RootSubset) -> list[tuple[Root, ...]]:
    """The supports of all grid-closed restricted paths for A, deduplicated.

    Restrictions of full paths are split into connected blocks, then
    filtered by the grid condition.  Two full paths restricting to the same
    root sequence yield one entry.  Sorted by root sequence.
    """
    found: set[tuple[Root, ...]] = set()
    for p in _restrictions(A):
        for piece in connected_blocks(p):
            if piece not in found and is_dyck_path_for(piece, A):
                found.add(piece)
    return sorted(found)
