"""Face polytopes: inequalities, lattice points, sums, exports."""

import pytest
from hypothesis import example, given, settings, strategies as st

from fflv.characters import weyl_dimension
from fflv.polytope import (
    LatticePoint,
    PointSet,
    UnboundedFaceError,
    build_inequalities,
    degree_histogram,
    dilate,
    embed_face,
    enumerate_lattice_points,
    in_polytope,
    minkowski_sum,
    points_to_csv,
    weight_and_degree,
)
from fflv.roots import DominantWeight, Root, all_positive_roots, fundamental_weight, rho
from fflv.weyl import Permutation, RootSubset, inversion_roots


def full(n):
    return RootSubset.full(n)


def test_inequalities_adjoint():
    ineqs = build_inequalities(full(2), DominantWeight((1, 1)))
    rendered = sorted(str(q) for q in ineqs)
    assert rendered == [
        "s[a1.1] + s[a1.2] + s[a2.2] <= 2",
        "s[a1.1] <= 1",
        "s[a2.2] <= 1",
    ]


def test_count_equals_weyl_dimension_small():
    for coeffs in [(1, 0), (1, 1), (2, 1), (2, 2)]:
        lam = DominantWeight(coeffs)
        assert len(enumerate_lattice_points(full(2), lam)) == weyl_dimension(lam)
    assert len(enumerate_lattice_points(full(3), rho(3))) == 64


def test_single_root_face():
    lam = DominantWeight((3, 0))
    S = enumerate_lattice_points(RootSubset.of(2, [Root(1, 1)]), lam)
    assert sorted(t[0] for t in S.sorted_tuples()) == [0, 1, 2, 3]


def test_empty_subset_gives_origin():
    S = enumerate_lattice_points(RootSubset.of(3, []), rho(3))
    assert len(S) == 1


def test_unbounded_face():
    A = inversion_roots(Permutation.from_oneline((4, 2, 3, 1)))
    with pytest.raises(UnboundedFaceError) as err:
        enumerate_lattice_points(A, rho(3))
    assert err.value.root == Root(1, 3)


def test_lattice_point_api():
    pt = LatticePoint(2, (Root(1, 1), Root(1, 2)), (1, 2))
    assert pt.value(Root(1, 2)) == 2
    assert pt.value(Root(2, 2)) == 0
    assert pt.as_dict() == {Root(1, 1): 1, Root(1, 2): 2}
    with pytest.raises(ValueError):
        LatticePoint(2, (Root(1, 1),), (1, 2))
    with pytest.raises(ValueError):
        LatticePoint(2, (Root(1, 1),), (-1,))


def test_embed_face_into_full_polytope():
    lam = DominantWeight((1, 1))
    A = inversion_roots(Permutation.simple(1, 2))
    for pt in enumerate_lattice_points(A, lam):
        emb = embed_face(pt, lam)
        assert in_polytope(emb, lam)
        assert set(emb.roots) == set(full(2).members)


def test_embed_face_rejects_outside_points():
    lam = DominantWeight((1, 1))
    bad = LatticePoint(2, (Root(1, 1),), (5,))
    with pytest.raises(ValueError):
        embed_face(bad, lam)


def test_embedding_can_fail_for_non_triangular_subsets():
    """{alpha_{1,2}, alpha_{2,3}} admits a point outside the long inequality."""
    A = RootSubset.of(3, [Root(1, 2), Root(2, 3)])
    lam = rho(3)
    S = enumerate_lattice_points(A, lam)
    outside = [pt for pt in S if not in_polytope(embed_face(pt, lam), lam)]
    assert outside, "expected at least one face point outside the big polytope"


def test_minkowski_sum_matches_weight_addition():
    lam, mu = DominantWeight((1, 0)), DominantWeight((0, 1))
    S1, S2 = enumerate_lattice_points(full(2), lam), enumerate_lattice_points(full(2), mu)
    assert minkowski_sum(S1, S2) == enumerate_lattice_points(full(2), lam + mu)
    with pytest.raises(ValueError):
        minkowski_sum(S1, enumerate_lattice_points(RootSubset.of(2, [Root(1, 1)]), lam))


def test_dilate_is_k_fold_sum():
    lam = fundamental_weight(1, 2)
    S = enumerate_lattice_points(full(2), lam)
    assert dilate(S, 1) == S
    assert dilate(S, 2) == minkowski_sum(S, S)
    assert dilate(S, 3) == enumerate_lattice_points(full(2), lam.scale(3))
    with pytest.raises(ValueError):
        dilate(S, 0)


def test_weight_and_degree():
    pt = LatticePoint(2, (Root(1, 1), Root(1, 2), Root(2, 2)), (1, 1, 0))
    wt, deg = weight_and_degree(pt)
    assert wt.coeffs == (2, 1)
    assert deg == 2


def test_degree_histogram_adjoint():
    S = enumerate_lattice_points(full(2), DominantWeight((1, 1)))
    assert degree_histogram(S) == {0: 1, 1: 3, 2: 4}
    assert sum(degree_histogram(S).values()) == len(S) == 8


def test_csv_export_header():
    S = enumerate_lattice_points(full(2), fundamental_weight(1, 2))
    lines = points_to_csv(S).splitlines()
    assert lines[0] == "a1.1,a1.2,a2.2"
    assert len(lines) == 4


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 2), st.integers(1, 2), st.integers(2, 3))
def test_k_fold_sums_exhaust_dilated_weight(m1, m2, k):
    """Normality on the full polytope: points of k*lambda are k-fold sums."""
    lam = DominantWeight((m1, m2))
    S = enumerate_lattice_points(full(2), lam)
    acc = S
    for _ in range(k - 1):
        acc = minkowski_sum(acc, S)
    assert acc == enumerate_lattice_points(full(2), lam.scale(k))


def tuple_minkowski(S1, S2):
    """Reference Minkowski sum: every pair added coordinate by coordinate."""
    return frozenset(tuple(a + b for a, b in zip(s, t)) for s in S1.tuples for t in S2.tuples)


def point_set(*points):
    dim = len(points[0])
    return PointSet(3, all_positive_roots(3)[:dim], frozenset(points))


@st.composite
def point_set_pairs(draw):
    """Two point sets over the same coordinates, each of its own size; some
    coordinates are 0 throughout and values range past 2**20."""
    dim = draw(st.integers(0, 6))
    zero = draw(st.sets(st.integers(0, dim - 1))) if dim else set()
    value = st.one_of(st.integers(0, 5), st.integers(2**20 - 2, 2**45))
    vector = st.tuples(*(st.just(0) if c in zero else value for c in range(dim)))
    return tuple(point_set(*draw(st.sets(vector, min_size=1, max_size=draw(st.integers(1, 25)))))
                 for _ in range(2))


@settings(max_examples=150, deadline=None)
@given(point_set_pairs())
@example((point_set(()), point_set(())))
@example((point_set((1, 0, 2)), point_set((0, 0, 1), (3, 0, 0), (1, 0, 1), (2, 0, 7))))
@example((point_set((2**20, 1), (2**21 + 3, 0)), point_set((2**20, 2**20), (1, 2**40))))
def test_packed_minkowski_matches_tuple_sums(pair):
    S1, S2 = pair
    for left, right in ((S1, S2), (S2, S1)):
        out = minkowski_sum(left, right)
        assert (out.n, out.roots) == (S1.n, S1.roots)
        assert out.tuples == tuple_minkowski(S1, S2)


def test_minkowski_sum_edge_sets():
    S = point_set((1, 2), (0, 0))
    assert minkowski_sum(S, point_set((0, 0))) == S
    empty = PointSet(3, S.roots, frozenset())
    assert minkowski_sum(S, empty).tuples == frozenset()
    with pytest.raises(ValueError):
        minkowski_sum(S, point_set((-1, 0)))
