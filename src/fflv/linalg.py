"""Exact integer row spaces with fraction-free elimination on sparse vectors.

Every rank and membership computation in this package runs over the
integers.  Vectors are sparse: a sorted tuple of ``(index, coeff)`` pairs
with nonzero coefficients; the empty tuple is zero.  That form is hashable
and reads as zero or nonzero under ``any()``, and it is the only vector form
taken or returned.  A growing row space keeps its rows in echelon form (one
pivot column per row, gcd-reduced, positive leading entry), so inserting a
vector answers "did the rank grow" without ever leaving exact arithmetic,
and in time proportional to the support of the vector rather than to the
ambient width.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from math import gcd
from typing import Iterable, Optional

SparseVector = tuple[tuple[int, int], ...]


def _content_free(vec: dict[int, int]) -> None:
    """Divide out the gcd of the coefficients, in place."""
    g = 0
    for x in vec.values():
        g = gcd(g, x)
        if g == 1:
            return
    if g > 1:
        for k in vec:
            vec[k] //= g


class IntSpan:
    """Row space of integer vectors supporting exact rank-growth queries.

    Rows are kept in echelon form, keyed by their pivot (first nonzero)
    column: no row is nonzero at a column where an earlier-inserted row has
    its pivot.  A vector is reduced by eliminating, smallest column first,
    every pivot column in its support; eliminating one column creates
    entries only at larger columns, so a heap of pending pivot columns
    visits each column the vector reaches and no other.  Elimination is
    fraction-free: the vector is scaled by the pivot entry (divided by its
    gcd with the eliminated coefficient) before the subtraction, and the
    content is divided out after any scaling, so all values stay integral
    and small.

    The result does not depend on the order of elimination.  Two
    reductions r = a v + s and r' = a' v + s' (a, a' nonzero, s, s' in the
    span) give a' r - a r' in the span and zero on every pivot column; a
    nonzero span element is nonzero at the smallest pivot among the rows it
    uses, so a' r = a r', and gcd and sign normalization pick the same
    multiple.  So eliminating column by column over the whole width gives
    the same rows, pivots and ranks.  Vectors of different weights have
    disjoint supports, so a span of weight vectors is in effect eliminated
    one weight space at a time.
    """

    __slots__ = ("width", "_rows")

    def __init__(self, width: int) -> None:
        if width <= 0:
            raise ValueError(f"width must be positive, got {width}")
        self.width = width
        self._rows: dict[int, SparseVector] = {}

    @property
    def rank(self) -> int:
        return len(self._rows)

    @property
    def rows(self) -> tuple[SparseVector, ...]:
        """The echelon rows in increasing order of pivot column."""
        return tuple(self._rows[p] for p in sorted(self._rows))

    def _entries(self, vector: SparseVector) -> dict[int, int]:
        """A mutable copy of the vector, whose indices must lie in the width."""
        if vector and not 0 <= vector[0][0] <= vector[-1][0] < self.width:
            raise ValueError(f"vector has an index outside 0..{self.width - 1}")
        return dict(vector)

    def reduce(self, vector: SparseVector) -> SparseVector:
        """Eliminate all pivot columns from a copy of the vector.

        The result is gcd-normalized with a positive leading entry, and it
        is zero (the empty tuple) exactly when the vector lies in the span.
        """
        vec = self._entries(vector)
        rows = self._rows
        todo = [k for k in vec if k in rows]
        heapify(todo)
        while todo:
            piv = heappop(todo)
            c = vec.get(piv)
            if c is None:
                continue
            row = rows[piv]
            g = gcd(row[0][1], c)
            lead, c = row[0][1] // g, c // g
            if lead != 1:
                for k in vec:
                    vec[k] *= lead
            for k, y in row:
                x = vec.get(k)
                if x is None:
                    vec[k] = -c * y
                    if k in rows:
                        heappush(todo, k)
                else:
                    x -= c * y
                    if x:
                        vec[k] = x
                    else:
                        del vec[k]
            if lead != 1:
                _content_free(vec)
        if not vec:
            return ()
        _content_free(vec)
        out = sorted(vec.items())
        if out[0][1] < 0:
            return tuple((k, -x) for k, x in out)
        return tuple(out)

    def add(self, vector: SparseVector) -> Optional[SparseVector]:
        """Insert a vector if it enlarges the span.

        Returns the stored echelon row (a sparse tuple, shared with the
        span) when the rank grew, None when the vector was already in the
        span.
        """
        row = self.reduce(vector)
        if not row:
            return None
        self._rows[row[0][0]] = row
        return row

    def __contains__(self, vector: SparseVector) -> bool:
        return not self.reduce(vector)

    def extend(self, vectors: Iterable[SparseVector]) -> int:
        """Insert several vectors; return how much the rank grew."""
        before = self.rank
        for vec in vectors:
            self.add(vec)
        return self.rank - before


def span_rank(vectors: Iterable[SparseVector], width: int) -> int:
    """Rank of the integer span of the given vectors."""
    span = IntSpan(width)
    span.extend(vectors)
    return span.rank
