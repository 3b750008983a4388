"""Explicit modules, extremal vectors, monomial bases, and graded profiles."""

import json
import operator
import warnings
from functools import lru_cache
from itertools import accumulate, combinations, product
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fflv.rep
from cartan_component import cartan_component_dimension
from fflv.characters import (
    Character,
    demazure_character_oracle,
    weyl_dimension,
)
from fflv.cli import main
from fflv.linalg import IntSpan
from fflv.polytope import (
    PointSet,
    UnboundedFaceError,
    degree_histogram,
    enumerate_lattice_points,
)
from fflv.rep import (
    DimensionCapError,
    TensorSpace,
    build_highest_weight_module,
    demazure_submodule,
    essential_monomials,
    extremal_vector,
    lowering_weights,
    pbw_filtration_profile,
    subset_submodule,
    verify_monomial_basis,
)
from fflv.roots import DominantWeight, Root, all_positive_roots, parse_root, rho
from fflv.weyl import (
    Permutation,
    RootSubset,
    all_permutations,
    inversion_roots,
    is_triangular_element,
)


@lru_cache(maxsize=None)
def _reference_closure(lam):
    """The unbudgeted closure of the highest vector under the simple
    lowerings: the rows, profile and row weights of V(lambda), which
    `build_highest_weight_module` does not form."""
    space = TensorSpace.from_weight(lam)
    simple = [(i + 1, i) for i in range(1, lam.n + 1)]
    return fflv.rep._closure(space, space.highest_vector(), simple, what="reference module")


def _span(space, rows):
    """A new row space of the rows."""
    span = IntSpan(space.dimension)
    for row in rows:
        span.add(row)
    return span


@pytest.mark.parametrize("lam", [lam for n in (1, 2, 3)
                                 for lam in map(DominantWeight, product((0, 1, 2), repeat=n))]
                         + [rho(4)])
def test_reference_closure_is_the_weyl_character(lam):
    """The highest vector's closure under the simple lowerings has the Weyl
    dimension, and its rows have the weights of the Weyl character (the
    Demazure character of the longest element), which the module takes as
    its weights; every simple raising kills the highest vector.  For every
    weight in {0,1,2}^n at ranks 1-3, and at rho(4)."""
    rows, profile, weights = _reference_closure(lam)
    module = build_highest_weight_module(lam, cap=2000)
    assert len(rows) == profile[-1] == weyl_dimension(lam) == module.dimension
    assert weights == module.weights == demazure_character_oracle(
        Permutation.longest(lam.n), lam).terms
    space = module.space
    assert module.generator == space.highest_vector() == ((0, 1),)
    for i in range(1, lam.n + 1):
        assert space.apply(space.table(i, i + 1), module.generator) == ()


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
    e = space.table(1, 2)
    assert not any(space.apply(e, module.generator))
    vec = module.generator
    for _ in range(3):
        vec = space.apply(f, vec)
        assert any(vec)
    assert not any(space.apply(f, vec))


def test_module_dimensions_match_weyl_formula():
    for lam in (DominantWeight((1, 1)), DominantWeight((2, 1)), rho(3)):
        module = build_highest_weight_module(lam)
        assert module.dimension == weyl_dimension(lam) == len(_reference_closure(lam)[0])


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
            assert sub.dimension == demazure_character_oracle(w, lam).mass


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


def test_monomial_basis_for_triangular_rank2():
    lam = DominantWeight((2, 1))
    module = build_highest_weight_module(lam)
    for w in all_permutations(2):
        A = inversion_roots(w)
        report = verify_monomial_basis(module, enumerate_lattice_points(A, lam),
                                       demazure_character_oracle(w, lam).mass)
        assert report.ok
        assert report.witness is None
        assert report.lattice_points == report.rank == report.submodule_dimension
    with pytest.raises(ValueError):
        verify_monomial_basis(module, enumerate_lattice_points(RootSubset.full(3), rho(3)), 64)


def test_dependent_monomials_name_a_witness():
    """A point whose monomial kills the highest vector makes the monomials
    dependent: f_1^2 vanishes on V(1, 1), so the padded face {0, 1, 2} of
    A = {a1.1} has rank 2 and (2,) as its witness."""
    module = build_highest_weight_module(DominantWeight((1, 1)))
    A = RootSubset.of(2, {Root(1, 1)})
    points = enumerate_lattice_points(A, module.weight)
    padded = PointSet(points.n, points.roots, tuple(sorted(points.tuples + ((2,),))))
    report = verify_monomial_basis(module, padded, 2)
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
    sub = subset_submodule(module, A)
    report = verify_monomial_basis(module, enumerate_lattice_points(A, lam), sub.dimension)
    assert report.lattice_points == 13
    assert report.rank == 13
    assert report.submodule_dimension == 13
    assert report.ok
    assert demazure_submodule(module, w).dimension == 13
    borel = demazure_submodule(module, w)
    sub_span = _span(module.space, sub.basis)
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
    assert _reference_closure(lam)[1][-1] == module.dimension == 8


def test_essential_monomials_recover_lattice_points():
    lam = DominantWeight((2, 1))
    module = build_highest_weight_module(lam)
    for w in all_permutations(2):
        A = inversion_roots(w)
        pts = enumerate_lattice_points(A, lam)
        ess = essential_monomials(module, A, subset_submodule(module, A).weights)
        assert ess.roots == pts.roots
        assert set(ess.tuples) == set(pts.tuples)


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
    """`verify` forms no closure of the irreducible module.  An element
    forms no closure at all: the Demazure character gives the target's
    dimension and weights.  A subset forms its lowering closure, and only
    that.  So does the rank-4 longest element under `--max-dim 2000`."""
    formed = []
    closure = fflv.rep._closure

    def counted(space, start, ops, *, what, cap=None, budget=None):
        formed.append(what)
        return closure(space, start, ops, what=what, cap=cap, budget=budget)

    monkeypatch.setattr(fflv.rep, "_closure", counted)
    for argv, whats in [
        (("--w-oneline", "4 3 2 1", "--lambda", "1,1,1"), []),
        (("--A", "1.1,1.2,1.3,2.2,2.3,3.3", "--lambda", "1,1,1"), ["lowering closure"]),
        (("--w-oneline", "5 4 3 2 1", "--lambda", "1,1,1,1", "--max-dim", "2000"), []),
    ]:
        formed.clear()
        assert main(["verify", *argv]) == 0
        capsys.readouterr()
        assert formed == whats, argv


@pytest.mark.parametrize("argv,oracles,reads", [
    (("--w-oneline", "4 3 2 1", "--lambda", "1,1,1"), [(4, 3, 2, 1)], 0),
    (("--w-oneline", "3 4 2 1", "--lambda", "2,1,1"), [(3, 4, 2, 1)], 0),
    (("--w-oneline", "3 4 1 5 2", "--lambda", "1,1,1,1", "--max-dim", "2000"),
     [(3, 4, 1, 5, 2)], 0),
    (("--A", "1.3,2.2,2.3,3.3", "--lambda", "2,1,1"), [(4, 3, 2, 1)], 1),
])
def test_verify_of_an_element_reads_one_demazure_character(capsys, monkeypatch, argv, oracles, reads):
    """`verify --w` computes the Demazure character once, at w, for the
    character check and the module target alike, and never reads the Weyl
    character (`IrreducibleModule.weights`), so no oracle runs at the
    longest element.  `verify --A` reads the Weyl character once, as the
    budget of its lowering closure, and computes it once, at w0."""
    calls, read = [], []
    oracle = fflv.characters.demazure_character_oracle

    def counted(w, lam):
        calls.append(w.images)
        return oracle(w, lam)

    for module in (fflv.cli, fflv.rep, fflv.characters):
        monkeypatch.setattr(module, "demazure_character_oracle", counted)
    weights = fflv.rep.IrreducibleModule.weights
    monkeypatch.setattr(fflv.rep.IrreducibleModule, "weights",
                        property(lambda self: read.append(1) or weights.__get__(self)))
    assert main(["verify", *argv]) == 0
    assert json.loads(capsys.readouterr().out)["checks"]["rep"]["status"] == "pass"
    assert (calls, len(read)) == (oracles, reads)


def test_rank4_closures_match_weyl_and_demazure_dimensions():
    lam = rho(4)
    module = build_highest_weight_module(lam, cap=2000)
    assert module.dimension == weyl_dimension(lam) == len(_reference_closure(lam)[0]) == 1024
    for w in all_permutations(4):
        assert demazure_submodule(module, w).dimension == demazure_character_oracle(w, lam).mass
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


def _degree_compositions(total, parts):
    """Exponent tuples of one degree, increasing in revlex order (lex on
    the reversed tuples, descending)."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for x in range(total, -1, -1):
        for rest in _degree_compositions(total - x, parts - 1):
            yield rest + (x,)


def _reference_scan(module, listing, dimension, budget):
    """The essential scan over every composition of each degree, in revlex
    order: the tuples whose image enlarges the span of the earlier ones,
    until the span has rank `dimension`.  A tuple whose weight the budget
    says is full computes no image.  A degree whose computed images all
    vanish is walked again over its tuples at the budget's weights, and
    the scan raises when those vanish too."""
    parts = fflv.rep.to_partition(module.weight)
    deepest = sum(accumulate(map(operator.sub, parts, parts[::-1])))
    width = (deepest + 1).bit_length()
    steps = [sum([1 << width * (k - 1) for k in range(r.i, r.j + 1)]) for r in listing]
    room = {}
    if budget is not None:
        for content, mult in budget.items():
            depths = list(accumulate(map(operator.sub, parts, content)))
            if depths.pop() == 0 and all(0 <= b <= deepest for b in depths):
                room[sum([b << width * k for k, b in enumerate(depths)])] = mult
    held = {}

    def wanted(s):
        key = sum(map(operator.mul, s, steps))
        return held.get(key, 0) < room.get(key, 0)

    def targeted(s):
        return sum(map(operator.mul, s, steps)) in room

    def walk(degree, keep):
        # The generator asks `keep` only when the loop takes the next tuple,
        # so after the previous image has been added to the span.
        for s in _degree_compositions(degree, len(listing)):
            if keep is None or keep(s):
                yield s, _reference_ordered_image(module, listing, s)

    span = IntSpan(module.space.dimension)
    kept = []
    degree = 0
    while span.rank < dimension:
        live = False
        for s, image in walk(degree, None if budget is None else wanted):
            if image:
                live = True
                if span.add(image) is not None:
                    key = sum(map(operator.mul, s, steps))
                    held[key] = held.get(key, 0) + 1
                    kept.append(s)
                    if span.rank == dimension:
                        break
        if not live and budget is not None:
            live = any(image for _, image in walk(degree, targeted))
        if not live:
            raise ArithmeticError("essential monomial scan did not stabilize")
        degree += 1
    return kept


def test_monomial_basis_costs_one_apply_per_point(monkeypatch):
    """At rho(4), longest element, the colex walk makes |S| - 1 = 1,023
    applies for the 1,024 points, with V(rho(4)) as its target."""
    module = build_highest_weight_module(rho(4), cap=2000)
    A = inversion_roots(Permutation.longest(4))
    calls = []
    apply = TensorSpace.apply
    monkeypatch.setattr(TensorSpace, "apply",
                        lambda self, table, vec: calls.append(1) or apply(self, table, vec))
    report = verify_monomial_basis(module, enumerate_lattice_points(A, rho(4)), module.dimension)
    assert report.ok and report.lattice_points == 1024
    assert len(calls) == 1023


def _reference_report(module, points, dimension):
    """The basis report with every image rebuilt from the highest vector:
    the witness is the first point, in colex order, whose image lies in
    the span of the earlier ones."""
    span = IntSpan(module.space.dimension)
    witness = None
    for s in sorted(points.tuples, key=lambda s: s[::-1]):
        image = _reference_ordered_image(module, points.roots, s)
        if span.add(image) is None and witness is None:
            witness = s
    return fflv.rep.MonomialBasisReport(len(points), span.rank, dimension, witness is None,
                                        span.rank == dimension, witness)


_WALK_WEIGHTS = {1: [DominantWeight((1,)), DominantWeight((3,))],
                 2: [DominantWeight((1, 1)), DominantWeight((2, 1)), DominantWeight((0, 2))],
                 3: [rho(3), DominantWeight((2, 0, 1)), DominantWeight((0, 1, 2))]}


def test_colex_walk_reports_what_rebuilt_images_give():
    """Every field of the basis report, the witness among them, is the one
    that images rebuilt from the highest vector give: for every subset at
    ranks 1-3 whose face is bounded, at two or three weights lambda a
    rank, on its faces at lambda and at 2 lambda (order ideals too) in
    V(lambda), with the lowering closure's dimension as target."""
    reports = []
    for n, weights in _WALK_WEIGHTS.items():
        roots = all_positive_roots(n)
        for lam in weights:
            module = _module(lam)
            for r in range(1, len(roots) + 1):
                for subset in combinations(roots, r):
                    A = RootSubset.of(n, set(subset))
                    try:
                        faces = [enumerate_lattice_points(A, lam.scale(t)) for t in (1, 2)]
                    except UnboundedFaceError:
                        continue
                    dimension = subset_submodule(module, A).dimension
                    for S in faces:
                        report = verify_monomial_basis(module, S, dimension)
                        assert report == _reference_report(module, S, dimension), (lam, A)
                        reports.append((report.independent, report.spanning))
    # At lambda, 125 of the 200 bounded faces are bases and 75 do not span;
    # at 2 lambda, 3 are bases (the face at lambda is {0}) and 197 are dependent.
    assert {k: reports.count(k) for k in set(reports)} == {
        (True, True): 128, (True, False): 75, (False, True): 122, (False, False): 75}


@pytest.mark.parametrize("tuples", [((-1,), (0,)), ((0,), (2,)), ((1,), (2,)),
                                    ((0, 0), (1, 0), (1, 1))])
def test_colex_walk_refuses_a_set_that_is_no_order_ideal(monkeypatch, tuples):
    """A negative coordinate, a hole, a set without the origin and a step
    from (1, 0) to (1, 1) over the missing (0, 1) raise ValueError before
    the refused point's image is formed: here the last point, or the first
    when it is not the origin, so only the steps before it apply."""
    module = build_highest_weight_module(DominantWeight((1, 1)))
    points = PointSet(2, (Root(1, 1), Root(2, 2))[:len(tuples[0])], tuples)
    calls = []
    apply = TensorSpace.apply
    monkeypatch.setattr(TensorSpace, "apply",
                        lambda self, table, vec: calls.append(1) or apply(self, table, vec))
    with pytest.raises(ValueError, match="colex walk"):
        verify_monomial_basis(module, points, 2)
    assert len(calls) == len(tuples) - 2


def test_degree_compositions_come_in_scan_order():
    """Each degree is generated in the order a sort by the revlex key gives."""
    for parts in range(5):
        for total in range(6):
            want = sorted((s for s in product(range(total + 1), repeat=parts)
                           if sum(s) == total), key=lambda s: tuple(-x for x in reversed(s)))
            assert list(_degree_compositions(total, parts)) == want, (total, parts)


def _weights(n, values):
    return [DominantWeight(c) for c in product(values, repeat=n)]


@lru_cache(maxsize=None)
def _module(lam):
    return build_highest_weight_module(lam, cap=2000)


def _rep_block(capsys, *argv):
    assert main(["verify", *argv]) in (0, 1)
    return json.loads(capsys.readouterr().out)["checks"]["rep"]


def _element_and_subset_blocks(capsys, monkeypatch, n, weights):
    """Compare the two `rep` blocks and the two weight maps for every
    element of rank n at each weight; return the blocks' statuses."""
    monkeypatch.setattr(fflv.cli, "build_highest_weight_module",
                        lambda lam, cap: _module(lam))
    statuses = []
    for lam in weights:
        coeffs = ",".join(map(str, lam.coeffs))
        module = _module(lam)
        for w in all_permutations(n):
            A = inversion_roots(w)
            if not A.members:
                continue
            sub = subset_submodule(module, A)
            borel = demazure_submodule(module, w)
            oracle = demazure_character_oracle(w, lam)
            assert (lowering_weights(borel.weights, w) == lowering_weights(oracle.terms, w)
                    == sub.weights), (lam, w)
            assert borel.dimension == oracle.mass == sub.dimension
            element = _rep_block(capsys, "--w-oneline", " ".join(map(str, w.images)),
                                 "--lambda", coeffs, "--max-dim", "2000")
            labels = ",".join(f"{r.i}.{r.j}" for r in A.sorted_roots())
            subset = _rep_block(capsys, "--A", labels, "--lambda", coeffs, "--max-dim", "2000")
            if "dims" in element:
                assert element["dims"].pop("demazure") == element["dims"]["subset"]
                assert element["dims"].pop("oracle") == element["dims"]["subset"]
            assert element == subset, (lam, w)
            statuses.append(element["status"])
    assert len(statuses) == len(weights) * (len(all_permutations(n)) - 1)
    return set(statuses)


@pytest.mark.parametrize("n,weights,statuses", [
    (1, _weights(1, (0, 1, 2)), {"pass"}),
    (2, _weights(2, (0, 1, 2)), {"pass"}),
    (3, _weights(3, (0, 1, 2)), {"pass", "skipped"}),
    (4, [rho(4)], {"pass", "fail", "skipped"}),
])
def test_element_and_its_inversion_set_give_one_rep_block(
        capsys, monkeypatch, n, weights, statuses):
    """For every element of S_2..S_4 at every weight in {0,1,2}^n, and of
    S_5 at rho(4), the `rep` block of `verify --w` (target from the
    Demazure character, profile from the essential scan) equals that of
    `verify --A` on the inversion set (the lowering closure), and the
    Borel closure's weights and the Demazure character's, each mapped by
    w^-1, are the lowering closure's row weights.  The
    blocks pass, or, for some non-triangular elements, are skipped on an
    unbounded face or fail alike at rank 4."""
    assert _element_and_subset_blocks(capsys, monkeypatch, n, weights) == statuses


@pytest.mark.parametrize("lam,elements", [
    (DominantWeight((2, 1)), all_permutations(2)),
    (DominantWeight((1, 0, 2)), all_permutations(3)),
    (rho(3), all_permutations(3)),
    (DominantWeight((2, 1, 1)), all_permutations(3)),
    (rho(4), [Permutation.longest(4), Permutation.from_word((2, 1, 3, 2, 4), 4),
              Permutation.from_word((1, 3, 2), 4)]),
])
def test_budgets_change_no_row_profile_or_kept_set(lam, elements):
    """Budgeted closures (Borel closures and lowering closures of
    inversion sets, on the Weyl character) give the rows, profile and
    weights of the unbudgeted ones, and the budgeted essential scan keeps
    the tuples of the unbudgeted one, in the same order: for every element
    at ranks 2-3, and at rho(4) for the longest element, a triangular
    non-Kempf one and a non-triangular one.  The Weyl character is the
    row weights of the unbudgeted closure of the module."""
    module = _module(lam)
    space, n = module.space, lam.n
    closure = fflv.rep._closure
    assert module.weights == _reference_closure(lam)[2]
    for w in elements:
        A = inversion_roots(w)
        borel = demazure_submodule(module, w)
        raising = [(i, i + 1) for i in range(1, n + 1)]
        assert closure(space, borel.generator, raising, what="Borel closure") == (
            borel.basis, borel.profile, borel.weights)
        sub = subset_submodule(module, A)
        lowering = [(r.j + 1, r.i) for r in A.sorted_roots()]
        assert closure(space, module.generator, lowering, what="lowering closure") == (
            sub.basis, sub.profile, sub.weights)
        listing = fflv.rep._tall_first(A.members)
        kept = fflv.rep._scan(module, listing, sub.dimension, sub.weights)
        assert kept == fflv.rep._scan(module, listing, sub.dimension, None), w


def _one_short(weights, at):
    short = dict(weights)
    short[at] -= 1
    return short


# Weights and elements whose every `verify --w` and `verify --A` bundle
# passes, for the short-character tests.
_SHORT_CHARACTER_CASES = [
    (DominantWeight((1, 1)), [Permutation.longest(2), Permutation.from_word((1,), 2)]),
    (DominantWeight((2, 1)), [Permutation.longest(2), Permutation.from_word((1, 2), 2)]),
    (rho(3), [Permutation.longest(3), Permutation((3, 4, 2, 1))]),
]


@pytest.mark.parametrize("lam,elements", _SHORT_CHARACTER_CASES)
def test_a_short_weyl_character_never_passes_another_bundle(capsys, monkeypatch, lam, elements):
    """A Weyl character one short at any one weight, as the module's
    weights, leaves `verify --w` byte-identical, since an element reads
    no Weyl character, and `verify --A` byte-identical where its lowering
    closure never fills that weight; where it does, it fails the `rep`
    block.  It never gives another passing bundle.  For the longest
    element the lowering closure is the whole module, so every short
    weight fails it but the highest, whose row is the closure's start
    vector and no image."""
    character = demazure_character_oracle(Permutation.longest(lam.n), lam)
    highest = fflv.rep.to_partition(lam)
    coeffs = ",".join(map(str, lam.coeffs))
    runs = []
    for w in elements:
        labels = ",".join(f"{r.i}.{r.j}" for r in inversion_roots(w).sorted_roots())
        runs += [("--w-oneline", " ".join(map(str, w.images)), "--lambda", coeffs),
                 ("--A", labels, "--lambda", coeffs)]
    honest = []
    for argv in runs:
        code = main(["verify", *argv])
        honest.append((code, capsys.readouterr().out))
        assert code == 0
    for at in character.terms:
        short = Character(lam.n, _one_short(character.terms, at))
        monkeypatch.setattr(fflv.rep, "demazure_character_oracle", lambda w, lam: short)
        failed = []
        for argv, (want_code, want) in zip(runs, honest):
            code = main(["verify", *argv])
            out = capsys.readouterr().out
            if (code, out) != (want_code, want):
                assert code == 1, (at, argv)
                assert json.loads(out)["checks"]["rep"]["status"] == "fail", (at, argv)
                failed.append(argv)
        assert not [argv for argv in failed if argv[0] == "--w-oneline"], at
        assert (runs[1] in failed) == (at != highest), at


@pytest.mark.parametrize("lam,elements", _SHORT_CHARACTER_CASES)
def test_a_short_demazure_character_never_passes_another_bundle(capsys, monkeypatch, lam, elements):
    """A Demazure character one short at any one weight, as `verify --w`'s
    oracle, fails both checks that read it: the character check against
    the face, and the `rep` block, whose monomials span more than the
    short target, or whose scan does not stabilize when the highest
    weight is the short one.  It never gives another passing bundle."""
    coeffs = ",".join(map(str, lam.coeffs))
    for w in elements:
        argv = ["verify", "--w-oneline", " ".join(map(str, w.images)), "--lambda", coeffs]
        assert main(argv) == 0
        capsys.readouterr()
        character = demazure_character_oracle(w, lam)
        for at in character.terms:
            short = Character(lam.n, _one_short(character.terms, at))
            monkeypatch.setattr(fflv.cli, "demazure_character_oracle", lambda w, lam: short)
            assert main(argv) == 1, (w, at)
            checks = json.loads(capsys.readouterr().out)["checks"]
            assert checks["character"]["status"] == "fail", (w, at)
            assert checks["rep"]["status"] == "fail", (w, at)
            assert checks["rep"].get("basis_ok") is not True, (w, at)
            monkeypatch.undo()


@pytest.mark.parametrize("lam,w", [
    (DominantWeight((1, 1)), Permutation.longest(2)),
    (DominantWeight((2, 1)), Permutation.from_word((1, 2), 2)),
    (rho(3), Permutation((3, 4, 2, 1))),
])
def test_a_short_scan_budget_can_only_fail(capsys, monkeypatch, lam, w):
    """A scan budget one short at any one weight never passes: scanning to
    the true dimension, the weight never fills and the scan does not
    stabilize; scanning to the budget's total, it keeps one tuple too few.
    Through `verify --w`, a short weight map fails the `rep` block."""
    module = _module(lam)
    A = inversion_roots(w)
    S = enumerate_lattice_points(A, lam)
    oracle = demazure_character_oracle(w, lam)
    weights = lowering_weights(oracle.terms, w)
    listing = fflv.rep._tall_first(A.members)
    for at in weights:
        short = _one_short(weights, at)
        with pytest.raises(ArithmeticError, match="did not stabilize"):
            fflv.rep._scan(module, listing, oracle.mass, short)
        kept = essential_monomials(module, A, weights=short)
        assert len(kept) == len(S) - 1
    at = next(iter(weights))
    monkeypatch.setattr(fflv.cli, "lowering_weights", lambda terms, w: _one_short(weights, at))
    rep = _rep_block(capsys, "--w-oneline", " ".join(map(str, w.images)),
                     "--lambda", ",".join(map(str, lam.coeffs)))
    assert rep["status"] == "fail"
    assert (rep["basis_ok"], rep["essential_ok"], rep["graded_ok"]) == (True, False, False)


def test_non_closed_subset_still_does_not_stabilize():
    """{alpha11, alpha22} is not closed under root addition: its ordered
    monomials never span the lowering closure, budget or no budget."""
    module = _module(DominantWeight((1, 1)))
    A = RootSubset.of(2, {Root(1, 1), Root(2, 2)})
    sub = subset_submodule(module, A)
    assert sub.profile == (1, 3, 5, 7, 8)
    listing = fflv.rep._tall_first(A.members)
    for budget in (sub.weights, None):
        with pytest.raises(ArithmeticError, match="did not stabilize"):
            fflv.rep._scan(module, listing, sub.dimension, budget)


NON_TRIANGULAR_4 = "1.1,1.3,2.2,2.3,2.4,3.3,4.4"


def _subset(n, labels):
    return RootSubset.of(n, {parse_root(t) for t in labels.split(",")})


def _labels(A):
    return ",".join(f"{r.i}.{r.j}" for r in A.sorted_roots())


def _scan_outcome(scan, module, listing, dimension, budget):
    """The kept tuples of a scan, or the message it raises."""
    try:
        return scan(module, listing, dimension, budget)
    except ArithmeticError as exc:
        return str(exc)


def _scan_cases():
    for n, weights in ((2, [rho(2), DominantWeight((2, 1)), DominantWeight((1, 2))]),
                       (3, [rho(3), DominantWeight((2, 1, 1)), DominantWeight((1, 2, 1))])):
        for lam in weights:
            for w in all_permutations(n):
                yield lam, inversion_roots(w)
    roots = all_positive_roots(3)
    for r in range(1, len(roots) + 1):
        for subset in combinations(roots, r):
            yield rho(3), RootSubset.of(3, set(subset))
    yield rho(4), _subset(4, NON_TRIANGULAR_4)


def _downward_closed(kept):
    found = set(kept)
    return all(s[:j] + (s[j] - 1,) + s[j + 1:] in found
               for s in found for j in range(len(s)) if s[j])


def test_order_ideal_scan_keeps_the_reference_scans_tuples():
    """The order-ideal scan keeps the tuples of the scan over every
    composition, in the same order, and raises where it raises, with the
    target's weights as budget and with none: for every element of S_3
    and S_4 at three weights each, every subset at rank 3 at rho(3),
    closed under root addition or not, and the benchmark's non-triangular
    face at rho(4).  For a closed subset the kept tuples are downward
    closed."""
    raised = []
    for lam, A in _scan_cases():
        module = _module(lam)
        target = subset_submodule(module, A)
        listing = fflv.rep._tall_first(A.members)
        for budget in (target.weights, None):
            kept = _scan_outcome(fflv.rep._scan, module, listing, target.dimension, budget)
            assert kept == _scan_outcome(_reference_scan, module, listing, target.dimension,
                                         budget), (lam, A, budget is None)
            raised.append(isinstance(kept, str))
            if fflv.rep._closed(A.members) and not isinstance(kept, str):
                assert _downward_closed(kept), (lam, A)
    assert len(raised) == 2 * (3 * 6 + 3 * 24 + 63 + 1)
    assert 0 < sum(raised) < len(raised)


@pytest.mark.parametrize("lam", [DominantWeight((2, 1)), DominantWeight((1, 2)), rho(3)])
def test_order_ideal_scan_keeps_the_reference_tuples_under_a_short_budget(lam):
    """A budget one short at any one weight changes the kept tuples and the
    raise of the order-ideal scan as it changes those of the scan over
    every composition, to the true dimension and to the budget's total:
    for every element of S_3 and S_4."""
    module = _module(lam)
    for w in all_permutations(lam.n):
        A = inversion_roots(w)
        target = subset_submodule(module, A)
        listing = fflv.rep._tall_first(A.members)
        for at in target.weights:
            short = _one_short(target.weights, at)
            for dimension in (target.dimension, target.dimension - 1):
                assert (_scan_outcome(fflv.rep._scan, module, listing, dimension, short)
                        == _scan_outcome(_reference_scan, module, listing, dimension, short)), (
                    w, at, dimension)


def _spy(monkeypatch, owner, name):
    """Record the arguments of every call of `owner.name`, which still runs."""
    calls = []
    inner = getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *args: calls.append(args) or inner(*args))
    return calls


def test_certified_basis_matches_the_explicit_check(capsys, monkeypatch):
    """On every subset closed under root addition at ranks 1-4, at rho,
    the `basis_ok` of `verify --A` is that of `verify_monomial_basis` on
    the face with the lowering closure's dimension, and the explicit check
    runs exactly where the scan does not keep the face."""
    monkeypatch.setattr(fflv.cli, "build_highest_weight_module", lambda lam, cap: _module(lam))
    calls = _spy(monkeypatch, fflv.cli, "verify_monomial_basis")
    statuses = {}
    for n in (1, 2, 3, 4):
        lam = rho(n)
        module = _module(lam)
        roots = all_positive_roots(n)
        for r in range(1, len(roots) + 1):
            for subset in combinations(roots, r):
                if not fflv.rep._closed(subset):
                    continue
                A = RootSubset.of(n, set(subset))
                calls.clear()
                rep = _rep_block(capsys, "--A", _labels(A), "--lambda", ",".join(["1"] * n),
                                 "--max-dim", "2000")
                key = (rep["status"], not calls)
                statuses[key] = statuses.get(key, 0) + 1
                if rep["status"] == "skipped":
                    continue
                S = enumerate_lattice_points(A, lam)
                explicit = verify_monomial_basis(module, S, subset_submodule(module, A).dimension)
                assert rep["basis_ok"] == explicit.ok, A
                assert len(calls) == (not rep["essential_ok"]), A
    assert statuses == {("pass", True): 286, ("fail", False): 20, ("skipped", True): 96}


def test_a_kept_set_that_is_not_certified_runs_the_explicit_check(capsys, monkeypatch):
    """The certificate needs both a kept set equal to the face and a subset
    closed under root addition.  A scan made to drop one tuple of a closed
    subset's face, and a non-closed subset whose scan is made to return its
    face, each run `verify_monomial_basis` once, and `basis_ok` is its
    answer."""
    calls = _spy(monkeypatch, fflv.cli, "verify_monomial_basis")
    element = ("--w-oneline", "3 4 2 1", "--lambda", "2,1,1")
    assert _rep_block(capsys, *element)["status"] == "pass"
    assert calls == []
    scan = fflv.cli.essential_monomials

    def dropped(*args, **kwargs):
        kept = scan(*args, **kwargs)
        return PointSet(kept.n, kept.roots, kept.tuples[:-1])

    monkeypatch.setattr(fflv.cli, "essential_monomials", dropped)
    rep = _rep_block(capsys, *element)
    assert len(calls) == 1
    assert (rep["status"], rep["basis_ok"], rep["essential_ok"]) == ("fail", True, False)

    calls.clear()
    lam = DominantWeight((1, 1))
    A = RootSubset.of(2, {Root(1, 1), Root(2, 2)})
    assert not fflv.rep._closed(A.members)
    face = enumerate_lattice_points(A, lam)
    monkeypatch.setattr(fflv.cli, "essential_monomials", lambda module, A, weights: face)
    rep = _rep_block(capsys, "--A", _labels(A), "--lambda", "1,1")
    assert len(calls) == 1
    module, S, dimension = calls[0]
    assert rep["essential_ok"] is True
    assert rep["basis_ok"] == verify_monomial_basis(module, S, dimension).ok


def test_essential_scan_work_is_pinned(capsys, monkeypatch):
    """`verify` of the longest element at rho(4) with `--max-dim 2000`
    makes 1,670 applies and 1,152 reductions inside its essential scan;
    the scan over every composition made 3,253 and 1,399.  No operator is
    applied twice to one image.  Without a budget, the scan applies at
    most once per candidate: the zero tuple, and each tuple whose lower
    covers are all kept."""
    applies, adds, inside = [], [], [False]
    apply, add = TensorSpace.apply, IntSpan.add
    monkeypatch.setattr(TensorSpace, "apply", lambda self, table, vec: (
        inside[0] and applies.append((table, vec))) or apply(self, table, vec))
    monkeypatch.setattr(IntSpan, "add", lambda self, vec: (
        inside[0] and adds.append(vec)) or add(self, vec))
    scan = fflv.cli.essential_monomials

    def counted(*args, **kwargs):
        inside[0] = True
        try:
            return scan(*args, **kwargs)
        finally:
            inside[0] = False

    monkeypatch.setattr(fflv.cli, "essential_monomials", counted)
    assert main(["verify", "--w-oneline", "5 4 3 2 1", "--lambda", "1,1,1,1",
                 "--max-dim", "2000"]) == 0
    capsys.readouterr()
    assert (len(applies), len(adds)) == (1670, 1152)
    assert len({(id(table), id(vec)) for table, vec in applies}) == len(applies)

    applies.clear()
    module = _module(rho(4))
    listing = fflv.rep._tall_first(inversion_roots(Permutation.longest(4)).members)
    inside[0] = True
    kept = set(fflv.rep._scan(module, listing, 1024, None))
    inside[0] = False
    m = len(listing)
    candidates = {(0,) * m}
    for t in kept:
        first = next((k for k, x in enumerate(t) if x), m - 1)
        for k in range(first + 1):
            s = t[:k] + (t[k] + 1,) + t[k + 1:]
            if all(s[:j] + (s[j] - 1,) + s[j + 1:] in kept for j in range(m) if s[j]):
                candidates.add(s)
    assert len(applies) <= len(candidates) - 1
