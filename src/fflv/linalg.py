"""Exact integer row spaces with fraction-free elimination.

Every rank and membership computation in this package runs over the
integers.  A growing row space keeps its rows in echelon form (strictly
increasing pivot columns, gcd-reduced, positive leading entry), so
inserting a vector answers "did the rank grow" without ever leaving
exact arithmetic.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from math import gcd
from typing import Iterable, Optional, Sequence


def _normalize(vec: list[int]) -> list[int]:
    """Divide out the gcd and make the leading nonzero entry positive."""
    g = 0
    for x in vec:
        g = gcd(g, x)
        if g == 1:
            break
    if g > 1:
        vec = [x // g for x in vec]
    for x in vec:
        if x > 0:
            return vec
        if x < 0:
            return [-y for y in vec]
    return vec


class IntSpan:
    """Row space of integer vectors supporting exact rank-growth queries.

    Rows are stored in echelon form: each row's first nonzero entry (its
    pivot) sits in a column no other row uses, and rows are ordered by
    pivot column.  Reduction is fraction-free: a vector is scaled by the
    pivot entry before subtraction, then gcd-normalized, so all
    intermediate values stay integral.
    """

    __slots__ = ("width", "_rows", "_pivots")

    def __init__(self, width: int) -> None:
        if width <= 0:
            raise ValueError(f"width must be positive, got {width}")
        self.width = width
        self._rows: list[tuple[int, ...]] = []
        self._pivots: list[int] = []

    @property
    def rank(self) -> int:
        return len(self._rows)

    @property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        return tuple(self._rows)

    def reduce(self, vector: Sequence[int]) -> list[int]:
        """Eliminate all pivot columns from a copy of the vector.

        The result is zero exactly when the vector lies in the span.
        """
        vec = list(vector)
        if len(vec) != self.width:
            raise ValueError(f"vector has length {len(vec)}, expected {self.width}")
        for row, piv in zip(self._rows, self._pivots):
            c = vec[piv]
            if not c:
                continue
            lead = row[piv]
            for k in range(piv):
                vec[k] *= lead
            for k in range(piv, self.width):
                vec[k] = vec[k] * lead - c * row[k]
            vec = _normalize(vec)
        return vec

    def add(self, vector: Sequence[int]) -> Optional[tuple[int, ...]]:
        """Insert a vector if it enlarges the span.

        Returns the stored echelon row (an immutable tuple, shared with the
        span) when the rank grew, None when the vector was already in the
        span.
        """
        vec = self.reduce(vector)
        for piv, x in enumerate(vec):
            if x:
                break
        else:
            return None
        row = tuple(_normalize(vec))
        at = bisect_left(self._pivots, piv)
        self._rows.insert(at, row)
        insort(self._pivots, piv)
        return row

    def __contains__(self, vector: Sequence[int]) -> bool:
        return not any(self.reduce(vector))

    def extend(self, vectors: Iterable[Sequence[int]]) -> int:
        """Insert several vectors; return how much the rank grew."""
        before = self.rank
        for vec in vectors:
            self.add(vec)
        return self.rank - before


def span_rank(vectors: Iterable[Sequence[int]], width: int) -> int:
    """Rank of the integer span of the given vectors."""
    span = IntSpan(width)
    span.extend(vectors)
    return span.rank
