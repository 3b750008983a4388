"""Explicit modules, extremal vectors, monomial bases, and graded profiles."""

import warnings
from functools import lru_cache
from itertools import combinations, product
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fflv.rep
from fflv.characters import demazure_dimension_oracle, weyl_dimension
from fflv.cli import main
from fflv.polytope import PointSet, degree_histogram, enumerate_lattice_points
from fflv.rep import (
    DimensionCapError,
    TensorSpace,
    build_highest_weight_module,
    cartan_component_dimension,
    demazure_submodule,
    essential_monomials,
    extremal_vector,
    pbw_filtration_profile,
    subset_submodule,
    verify_monomial_basis,
)
from fflv.roots import DominantWeight, Root, all_positive_roots, rho
from fflv.weyl import (
    Permutation,
    RootSubset,
    all_permutations,
    inversion_roots,
    is_triangular_element,
)


def test_tensor_space_shape():
    space = TensorSpace.from_weight(DominantWeight((1, 1)))
    assert space.dimension == 9
    [(idx, coeff)] = space.highest_vector()
    assert coeff == 1
    assert space.weight_of(idx) == (2, 1, 0)


def test_sl2_lowering_string():
    lam = DominantWeight((3,))
    module = build_highest_weight_module(lam)
    assert module.dimension == 4
    space = module.space
    f = space.lowering_table(Root(1, 1))
    e = space.raising_table(Root(1, 1))
    assert not any(space.apply(e, module.generator))
    vec = module.generator
    for _ in range(3):
        vec = space.apply(f, vec)
        assert any(vec)
    assert not any(space.apply(f, vec))


def test_module_dimensions_match_weyl_formula():
    for lam in (DominantWeight((1, 1)), DominantWeight((2, 1)), rho(3)):
        module = build_highest_weight_module(lam)
        assert module.dimension == weyl_dimension(lam)


def test_dimension_cap_is_enforced():
    with pytest.raises(DimensionCapError):
        build_highest_weight_module(rho(3), cap=10)


def test_extremal_vector_weights():
    lam = DominantWeight((2, 1))
    module = build_highest_weight_module(lam)
    assert extremal_vector(module, Permutation.identity(2)) == module.generator
    w0 = Permutation.longest(2)
    low = extremal_vector(module, w0)
    support = [i for i, _ in low]
    assert support
    for i in support:
        assert module.space.weight_of(i) == (0, 1, 3)
    with pytest.raises(ValueError):
        extremal_vector(module, Permutation.identity(3))


def test_demazure_dimensions_match_operator_oracle():
    for lam in (DominantWeight((1, 1)), DominantWeight((2, 1))):
        module = build_highest_weight_module(lam)
        for w in all_permutations(2):
            sub = demazure_submodule(module, w)
            assert sub.dimension == demazure_dimension_oracle(w, lam)


def test_subset_submodule_matches_lattice_count_for_triangular():
    lam = DominantWeight((2, 1))
    module = build_highest_weight_module(lam)
    for w in all_permutations(2):
        assert is_triangular_element(w)
        A = inversion_roots(w)
        sub = subset_submodule(module, A)
        assert sub.dimension == len(enumerate_lattice_points(A, lam))
        assert sub.dimension == demazure_submodule(module, w).dimension


def test_subset_submodule_is_silent_when_not_triangular():
    module = build_highest_weight_module(rho(3))
    A = inversion_roots(Permutation.from_word((1, 3, 2), 3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sub = subset_submodule(module, A)
    assert sub.dimension == 13


def test_subset_submodule_is_computed_once_per_subset():
    module = build_highest_weight_module(DominantWeight((2, 1)))
    A = RootSubset.full(2)
    sub = subset_submodule(module, A)
    assert subset_submodule(module, A) is sub
    assert subset_submodule(module, inversion_roots(Permutation.from_word((1,), 2))) is not sub


def test_monomial_basis_for_triangular_rank2():
    lam = DominantWeight((2, 1))
    module = build_highest_weight_module(lam)
    for w in all_permutations(2):
        A = inversion_roots(w)
        report = verify_monomial_basis(module, enumerate_lattice_points(A, lam))
        assert report.ok
        assert report.witness is None
        assert report.lattice_points == report.rank == report.submodule_dimension
    with pytest.raises(ValueError):
        verify_monomial_basis(module, enumerate_lattice_points(RootSubset.full(3), rho(3)))


def test_dependent_monomials_name_a_witness():
    """A point whose monomial kills the highest vector makes the monomials
    dependent: f_1^2 vanishes on V(1, 1), so the padded face {0, 1, 2} of
    A = {a1.1} has rank 2 and (2,) as its witness."""
    module = build_highest_weight_module(DominantWeight((1, 1)))
    A = RootSubset.of(2, {Root(1, 1)})
    points = enumerate_lattice_points(A, module.weight)
    padded = PointSet(points.n, points.roots, tuple(sorted(points.tuples + ((2,),))))
    report = verify_monomial_basis(module, padded)
    assert report.independent is False
    assert report.spanning is True
    assert report.witness == (2,)
    assert (report.lattice_points, report.rank, report.submodule_dimension) == (3, 2, 2)


def test_non_triangular_example_still_has_a_monomial_basis():
    """The smallest non-triangular element does not break the monomial basis
    at rho: every count comes out 13 and the monomials span.  What fails is
    subspace equality: the lowering closure differs from the Borel closure."""
    lam = rho(3)
    module = build_highest_weight_module(lam)
    w = Permutation.from_word((1, 3, 2), 3)
    assert not is_triangular_element(w)
    A = inversion_roots(w)
    report = verify_monomial_basis(module, enumerate_lattice_points(A, lam))
    assert report.lattice_points == 13
    assert report.rank == 13
    assert report.submodule_dimension == 13
    assert report.ok
    assert demazure_submodule(module, w).dimension == 13
    sub = subset_submodule(module, A)
    borel = demazure_submodule(module, w)
    sub_span = sub.span()
    assert any(row not in sub_span for row in borel.basis)


def test_pbw_profile_matches_degree_histogram():
    lam = DominantWeight((1, 1))
    module = build_highest_weight_module(lam)
    A = RootSubset.full(2)
    dims = pbw_filtration_profile(module, A)
    assert dims == [1, 4, 8]
    histogram = degree_histogram(enumerate_lattice_points(A, lam))
    assert histogram == {0: 1, 1: 3, 2: 4}
    increments = [dims[0]] + [b - a for a, b in zip(dims, dims[1:])]
    assert increments == [histogram[d] for d in sorted(histogram)]
    assert subset_submodule(module, A).profile == (1, 4, 8)
    assert module.profile[-1] == module.dimension == 8


def test_essential_monomials_recover_lattice_points():
    lam = DominantWeight((2, 1))
    module = build_highest_weight_module(lam)
    for w in all_permutations(2):
        A = inversion_roots(w)
        pts = enumerate_lattice_points(A, lam)
        for order in ("revlex", "lex"):
            ess = essential_monomials(module, A, order=order)
            assert ess.roots == pts.roots
            assert set(ess.tuples) == set(pts.tuples)
    with pytest.raises(ValueError):
        essential_monomials(module, RootSubset.full(2), order="grlex")


def test_cartan_component_dimensions():
    A = RootSubset.full(2)
    w1 = DominantWeight((1, 0))
    assert cartan_component_dimension(w1, w1, A) == len(
        enumerate_lattice_points(A, DominantWeight((2, 0)))
    )
    lam = DominantWeight((1, 1))
    zero = DominantWeight((0, 0))
    assert cartan_component_dimension(lam, zero, A) == 8
    with pytest.raises(ValueError):
        cartan_component_dimension(lam, DominantWeight((1,)), A)
    with pytest.raises(DimensionCapError):
        cartan_component_dimension(lam, lam, A, cap=3)


def test_rank3_tensor_components_match_doubled_faces():
    """For every triangular element at rank 3, the diagonal closure in
    V(rho) x V(rho) has |S(2 rho)| elements; V(2 rho) has dimension 729,
    above the default cap."""
    lam = rho(3)
    triangular = [w for w in all_permutations(3) if is_triangular_element(w)]
    assert len(triangular) == 22
    for w in triangular:
        A = inversion_roots(w)
        doubled = len(enumerate_lattice_points(A, lam.scale(2)))
        assert cartan_component_dimension(lam, lam, A, cap=1000) == doubled, w


def test_rank4_tensor_components_match_doubled_faces():
    """For every triangular element of S_5 whose doubled face has at most
    600 points, the diagonal closure in V(rho) x V(rho) has |S(2 rho)|
    elements.  The ambient space has 2,500^2 = 6,250,000 dimensions; only
    the closure's support is ever touched."""
    lam = rho(4)
    checked = 0
    for w in all_permutations(4):
        if not is_triangular_element(w):
            continue
        A = inversion_roots(w)
        doubled = len(enumerate_lattice_points(A, lam.scale(2)))
        if doubled <= 600:
            assert cartan_component_dimension(lam, lam, A, cap=600) == doubled, w
            checked += 1
    assert checked == 50


def test_rank4_fundamental_pairs_match_summed_faces():
    """For every pair of fundamental weights at rank 4 and every triangular
    element, the diagonal closure in V(omega_i) x V(omega_j) has
    |S(omega_i + omega_j)| elements."""
    omegas = [DominantWeight(tuple(int(k == i) for k in range(4))) for i in range(4)]
    faces = [inversion_roots(w) for w in all_permutations(4) if is_triangular_element(w)]
    assert len(faces) == 88
    for i, lam in enumerate(omegas):
        for mu in omegas[i:]:
            total = DominantWeight(tuple(a + b for a, b in zip(lam.coeffs, mu.coeffs)))
            for A in faces:
                assert cartan_component_dimension(lam, mu, A) == len(
                    enumerate_lattice_points(A, total)), (lam, mu, A)


def _diagonal_image(left, right, root, i):
    """Reference diagonal action of a lowering on the unit vector at index i
    of the tensor product of two spaces, whose pair (i1, i2) sits at
    i1 * d2 + i2, left factor first."""
    d2 = right.dimension
    i1, i2 = divmod(i, d2)
    out = {}
    for j1, c in left.apply(left.lowering_table(root), ((i1, 1),)):
        out[j1 * d2 + i2] = out.get(j1 * d2 + i2, 0) + c
    for j2, c in right.apply(right.lowering_table(root), ((i2, 1),)):
        out[i1 * d2 + j2] = out.get(i1 * d2 + j2, 0) + c
    return tuple(sorted((t, c) for t, c in out.items() if c))


@pytest.mark.parametrize("lam,mu", [
    (DominantWeight((1, 1)), DominantWeight((1, 0))),
    (DominantWeight((0, 2)), DominantWeight((1, 1))),
    (DominantWeight((1, 0, 1)), DominantWeight((0, 1, 0))),
    (DominantWeight((1, 1, 0)), DominantWeight((0, 0, 0))),
])
def test_concatenated_factors_give_the_diagonal_action(lam, mu):
    left, right = TensorSpace.from_weight(lam), TensorSpace.from_weight(mu)
    space = TensorSpace(lam.n, left.factors + right.factors)
    assert space.dimension == left.dimension * right.dimension
    [(h1, _)] = left.highest_vector()
    [(h2, _)] = right.highest_vector()
    assert space.highest_vector() == ((h1 * right.dimension + h2, 1),)
    for root in RootSubset.full(lam.n).sorted_roots():
        op = space.lowering_table(root)
        for i in range(space.dimension):
            assert space.apply(op, ((i, 1),)) == _diagonal_image(left, right, root, i)


def _row_table(space, a, b):
    """E_ab as a full table with one row of (target, coeff) entries per
    ambient basis vector, built the way op tables were built before ops
    acted on index digits."""
    pools = [tuple(combinations(range(1, space.n + 2), k)) for k in space.factors]
    strides = [1] * len(pools)
    for f in range(len(pools) - 2, -1, -1):
        strides[f] = strides[f + 1] * len(pools[f + 1])
    acts = []
    for pool, stride in zip(pools, strides):
        position = {subset: p for p, subset in enumerate(pool)}
        act = []
        for p, subset in enumerate(pool):
            hit = fflv.rep._wedge_action(a, b, subset)
            act.append(None if hit is None else ((position[hit[0]] - p) * stride, hit[1]))
        acts.append(act)
    rows = []
    for i, digits in enumerate(product(*(range(len(pool)) for pool in pools))):
        entries = {}
        for act, p in zip(acts, digits):
            hit = act[p]
            if hit is not None:
                target = i + hit[0]
                entries[target] = entries.get(target, 0) + hit[1]
        rows.append(tuple((t, c) for t, c in entries.items() if c))
    return tuple(rows)


def _row_apply(rows, vec):
    out = {}
    for i, v in vec:
        for t, c in rows[i]:
            out[t] = out.get(t, 0) + c * v
    return tuple(sorted((t, x) for t, x in out.items() if x))


@st.composite
def _spaces_and_vectors(draw):
    """A tensor space for one weight or for a concatenated pair of weights,
    at ranks 1-4 with at most 2,500 ambient dimensions, and a few random
    sparse vectors in it."""
    n = draw(st.integers(1, 4))
    factors, dimension = [], 1
    for _ in range(draw(st.integers(1, 2))):
        for k in range(1, n + 1):
            for _ in range(draw(st.integers(0, 2))):
                if dimension * comb(n + 1, k) <= 2500:
                    factors.append(k)
                    dimension *= comb(n + 1, k)
    coords = st.dictionaries(st.integers(0, dimension - 1),
                             st.integers(-3, 3).filter(bool), max_size=6)
    vectors = draw(st.lists(coords, min_size=1, max_size=4))
    return TensorSpace(n, factors), [tuple(sorted(v.items())) for v in vectors]


def _every_unit_vector(n, factors):
    space = TensorSpace(n, factors)
    return space, [((i, 1),) for i in range(space.dimension)]


@settings(max_examples=60, deadline=None)
@given(_spaces_and_vectors())
@example(_every_unit_vector(2, (2, 2)))
@example(_every_unit_vector(3, (1, 2, 2, 3)))
@example(_every_unit_vector(2, (1, 2, 1)))
def test_digit_ops_match_full_row_tables(space_and_vectors):
    """Every E_ab acting on index digits gives what the full row table
    gives: on random sparse vectors, and on every unit vector for the
    weights (0, 2) and (1, 2, 1) and the pair (1, 1) x (1, 0)."""
    space, vectors = space_and_vectors
    for a in range(1, space.n + 2):
        for b in range(1, space.n + 2):
            rows, op = _row_table(space, a, b), space.table(a, b)
            for vec in vectors:
                assert space.apply(op, vec) == _row_apply(rows, vec), (a, b, vec)


def test_rank3_verify_runs_three_closures(capsys, monkeypatch):
    whats = []
    closure = fflv.rep._closure

    def counted(space, start, tables, cap=None, what="module"):
        whats.append(what)
        return closure(space, start, tables, cap=cap, what=what)

    monkeypatch.setattr(fflv.rep, "_closure", counted)
    assert main(["verify", "--w-oneline", "4 3 2 1", "--lambda", "1,1,1"]) == 0
    capsys.readouterr()
    assert whats == ["module", "lowering closure", "Borel closure"]


def test_rank4_closures_match_weyl_and_demazure_dimensions():
    lam = rho(4)
    module = build_highest_weight_module(lam, cap=2000)
    assert module.dimension == weyl_dimension(lam) == 1024
    for w in all_permutations(4):
        assert demazure_submodule(module, w).dimension == demazure_dimension_oracle(w, lam)
    full = RootSubset.full(4)
    histogram = degree_histogram(enumerate_lattice_points(full, lam))
    profile = pbw_filtration_profile(module, full)
    assert profile[-1] == 1024
    increments = [profile[0]] + [b - a for a, b in zip(profile, profile[1:])]
    assert increments == [histogram[d] for d in sorted(histogram)]


def _reference_ordered_image(module, listing, exponents):
    """The ordered monomial image rebuilt from the highest vector, one apply
    per unit of exponent, rightmost factor first."""
    space = module.space
    vec = module.generator
    for root, e in zip(reversed(listing), reversed(list(exponents))):
        for _ in range(e):
            vec = space.apply(space.lowering_table(root), vec)
    return vec


@lru_cache(maxsize=None)
def _walk_module(lam):
    return build_highest_weight_module(lam)


@st.composite
def _walks(draw):
    """A module at rank 1-3, a listing of some of its roots in (row, column)
    or tall-first order, and a scan of exponent tuples in no order."""
    lam = draw(st.sampled_from([DominantWeight((3,)), DominantWeight((1, 2)),
                                DominantWeight((2, 1)), rho(3), DominantWeight((0, 2, 1))]))
    roots = draw(st.lists(st.sampled_from(all_positive_roots(lam.n)), min_size=1, unique=True))
    listing = sorted(roots) if draw(st.booleans()) else fflv.rep._tall_first(roots)
    exponents = st.tuples(*[st.integers(0, 4)] * len(listing))
    return lam, tuple(listing), draw(st.lists(exponents, max_size=12))


@settings(max_examples=80, deadline=None)
@given(_walks())
@example((rho(3), (Root(1, 1), Root(1, 2), Root(2, 3)),
          [(0, 0, 0), (1, 2, 1), (1, 2, 1), (0, 0, 0), (2, 0, 1), (3, 2, 0), (1, 2, 1)]))
@example((DominantWeight((1, 2)), (Root(1, 2), Root(1, 1), Root(2, 2)),
          [(0, 2, 0), (0, 1, 2), (1, 1, 2), (1, 4, 2), (0, 0, 1), (0, 0, 0)]))
def test_ordered_images_match_rebuilt_images(walk):
    """The suffix-sharing walk yields every tuple of the scan, in the scan's
    order, with the image rebuilt from the highest vector: with repeats,
    zero tuples, vanishing images and unsorted scans."""
    lam, listing, scan = walk
    module = _walk_module(lam)
    walked = list(fflv.rep._ordered_images(module, listing, scan))
    assert walked == [(s, _reference_ordered_image(module, listing, s)) for s in scan]


def test_monomial_basis_costs_one_apply_per_point(monkeypatch):
    """At rho(4), longest element, the colex walk makes |S| - 1 = 1,023
    applies for the 1,024 points; the lowering closure is formed first, so
    only the walk is counted."""
    module = build_highest_weight_module(rho(4), cap=2000)
    A = inversion_roots(Permutation.longest(4))
    subset_submodule(module, A)
    calls = []
    apply = TensorSpace.apply
    monkeypatch.setattr(TensorSpace, "apply",
                        lambda self, table, vec: calls.append(1) or apply(self, table, vec))
    report = verify_monomial_basis(module, enumerate_lattice_points(A, rho(4)))
    assert report.ok and report.lattice_points == 1024
    assert len(calls) == 1023


@pytest.mark.parametrize("lex,key", [
    (True, None),
    (False, lambda s: tuple(-x for x in reversed(s))),
])
def test_degree_compositions_come_in_scan_order(lex, key):
    """Each degree is generated in the order a sort by the scan key gives."""
    for parts in range(5):
        for total in range(6):
            want = sorted((s for s in product(range(total + 1), repeat=parts)
                           if sum(s) == total), key=key)
            assert list(fflv.rep._degree_compositions(total, parts, lex)) == want, (total, parts)
