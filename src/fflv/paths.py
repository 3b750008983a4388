"""Monotone staircase paths in the triangle of positive roots.

A full path starts and ends at a simple root and moves one step at a time,
raising either the start index or the end index.  Restricting a full path to
a subset of roots, splitting at support gaps, and checking a grid-closure
condition yields the paths that cut out the face polytope of the subset.
A path is kept as its support alone: its base root, and with it the bound
of its inequality, is a function of the support.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .roots import Root
from .weyl import RootSubset


@dataclass(frozen=True)
class DyckPath:
    """A full staircase path: simple root to simple root, one step at a time."""

    n: int
    roots: tuple[Root, ...]

    def __post_init__(self) -> None:
        rs = self.roots
        if not rs:
            raise ValueError("a path needs at least one root")
        for r in rs:
            if not 1 <= r.i <= r.j <= self.n:
                raise ValueError(f"root {r} out of range for rank {self.n}")
        if rs[0].i != rs[0].j or rs[-1].i != rs[-1].j:
            raise ValueError("a full path must start and end at simple roots")
        for a, b in zip(rs, rs[1:]):
            if (b.i, b.j) not in ((a.i + 1, a.j), (a.i, a.j + 1)):
                raise ValueError(f"illegal step {a} -> {b}")

    def __iter__(self):
        return iter(self.roots)

    def __len__(self) -> int:
        return len(self.roots)


def base_root(p) -> Root:
    """First start index paired with last end index: alpha_{i_1, j_s}."""
    rs = tuple(p)
    if not rs:
        raise ValueError("empty path has no base root")
    return Root(rs[0].i, rs[-1].j)


def enumerate_dyck_paths(n: int) -> list[DyckPath]:
    """All full paths for rank n, sorted by their root sequences.

    Depth-first walk from each simple root; a path is recorded every time the
    walk sits on a simple root, then both extensions are explored.
    """
    if n < 1:
        raise ValueError("rank must be >= 1")
    out: list[tuple[Root, ...]] = []

    def walk(trail: list[Root]) -> None:
        cur = trail[-1]
        if cur.i == cur.j:
            out.append(tuple(trail))
        if cur.i + 1 <= cur.j:
            trail.append(Root(cur.i + 1, cur.j))
            walk(trail)
            trail.pop()
        if cur.j + 1 <= n:
            trail.append(Root(cur.i, cur.j + 1))
            walk(trail)
            trail.pop()

    for i in range(1, n + 1):
        walk([Root(i, i)])
    del walk  # break the closure's self-reference, a cycle only gc would free
    return [DyckPath(n, rs) for rs in sorted(out)]


def restrict_path(q: DyckPath, A: RootSubset) -> tuple[Root, ...]:
    """Subsequence of the full path q lying in A (possibly empty)."""
    return tuple(r for r in q.roots if r in A)


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
    for q in enumerate_dyck_paths(A.n):
        p = restrict_path(q, A)
        if not p:
            continue
        for piece in connected_blocks(p):
            if piece not in found and is_dyck_path_for(piece, A):
                found.add(piece)
    return sorted(found)
