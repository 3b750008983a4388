"""Fraction-free integer row spaces."""

from bisect import bisect_left, insort
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fflv.linalg import IntSpan, span_rank


def _sparse(vec):
    """The sparse vector with these dense entries."""
    return tuple((i, x) for i, x in enumerate(vec) if x)


def test_basic_rank_growth():
    span = IntSpan(3)
    assert span.rank == 0
    assert span.add(_sparse([2, 4, 6])) == _sparse([1, 2, 3])
    assert span.add(_sparse([1, 2, 3])) is None
    assert span.add(_sparse([0, 0, 5])) == _sparse([0, 0, 1])
    assert span.rank == 2
    assert _sparse([1, 2, 99]) in span
    assert _sparse([0, 1, 0]) not in span
    assert () in span


def test_rows_stay_in_echelon_form():
    span = IntSpan(4)
    span.extend(map(_sparse, [[0, 3, 1, 0], [2, 1, 0, 0], [2, 4, 1, 7]]))
    pivots = []
    for row in span.rows:
        lead, x = row[0]
        assert x > 0
        pivots.append(lead)
    assert pivots == sorted(pivots)
    assert len(set(pivots)) == len(pivots)


def test_membership_is_scale_invariant():
    span = IntSpan(2)
    span.add(_sparse([3, 5]))
    assert _sparse([6, 10]) in span
    assert _sparse([-3, -5]) in span
    assert _sparse([3, 6]) not in span


def test_width_validation():
    with pytest.raises(ValueError):
        IntSpan(0)
    span = IntSpan(2)
    with pytest.raises(ValueError):
        span.add(_sparse([1, 2, 3]))
    with pytest.raises(ValueError):
        span.add(((-1, 1),))


def test_span_rank_helper():
    assert span_rank([], 3) == 0
    assert span_rank(map(_sparse, [[1, 0, 0], [0, 1, 0], [1, 1, 0]]), 3) == 2
    assert span_rank(map(_sparse, [[1, 1, 1], [1, 2, 3], [2, 3, 4], [0, 0, 1]]), 3) == 3


vectors = st.lists(st.integers(-9, 9), min_size=4, max_size=4)


@settings(max_examples=80, deadline=None)
@given(st.lists(vectors, max_size=6))
def test_rank_matches_fraction_gauss(vecs):
    expected = _fraction_rank(vecs, 4)
    assert span_rank(map(_sparse, vecs), 4) == expected


@settings(max_examples=80, deadline=None)
@given(st.lists(vectors, min_size=1, max_size=5), st.integers(-3, 3), st.integers(-3, 3))
def test_linear_combinations_stay_inside(vecs, a, b):
    span = IntSpan(4)
    span.extend(map(_sparse, vecs))
    combo = [a * x + b * y for x, y in zip(vecs[0], vecs[-1])]
    assert _sparse(combo) in span


def _fraction_rank(vecs, width):
    rows = [[Fraction(x) for x in v] for v in vecs]
    rank = 0
    for col in range(width):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank][col]
        rows[rank] = [x / lead for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _dense_normalize(vec):
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


class _DenseSpan:
    """Reference: column-by-column elimination over the whole width."""

    def __init__(self, width):
        self.width = width
        self.rows = []
        self.pivots = []

    def reduce(self, vector):
        vec = list(vector)
        for row, piv in zip(self.rows, self.pivots):
            c = vec[piv]
            if not c:
                continue
            lead = row[piv]
            for k in range(piv):
                vec[k] *= lead
            for k in range(piv, self.width):
                vec[k] = vec[k] * lead - c * row[k]
            vec = _dense_normalize(vec)
        return vec

    def add(self, vector):
        vec = self.reduce(vector)
        for piv, x in enumerate(vec):
            if x:
                break
        else:
            return None
        row = tuple(_dense_normalize(vec))
        at = bisect_left(self.pivots, piv)
        self.rows.insert(at, row)
        insort(self.pivots, piv)
        return row


# Mostly zero entries, so supports are partial and eliminations create
# entries at columns the vector did not reach before.
sparse_entries = st.sampled_from([0, 0, 0, 0, 1, -1, 2, -3, 6])


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 9).flatmap(
    lambda w: st.lists(st.lists(sparse_entries, min_size=w, max_size=w), max_size=12)))
def test_sparse_elimination_matches_dense_reference(vecs):
    width = len(vecs[0]) if vecs else 3
    ref, span = _DenseSpan(width), IntSpan(width)
    for vec in vecs:
        reduced = span.reduce(_sparse(vec))
        assert reduced == _sparse(_dense_normalize(ref.reduce(vec)))
        assert not reduced or reduced[0][1] > 0
        want = ref.add(vec)
        got = span.add(_sparse(vec))
        assert (got is None) == (want is None)
        if got is not None:
            assert got == _sparse(want)
        assert span.rank == len(ref.rows)
        assert list(span.rows) == [_sparse(row) for row in ref.rows]
        assert [row[0][0] for row in span.rows] == ref.pivots
