"""Face polytopes: inequalities, lattice points, sums, exports."""

import csv
import gc
import io
import itertools
import random
from collections import Counter
from functools import reduce

import pytest
from hypothesis import example, given, settings, strategies as st

import fflv.polytope
from fflv.characters import weyl_dimension
from fflv.cli import main
from fflv.marked_poset import (
    _chain_supports,
    count_order_points,
    marked_chain_points,
    marked_order_points,
)
from fflv.paths import _restrictions
from fflv.polytope import (
    _search_plan,
    _slack_graph,
    _sum_graph,
    _value_cells,
    Inequality,
    PointSet,
    UnboundedFaceError,
    build_inequalities,
    compose_points,
    count_integer_points,
    count_lattice_points,
    count_points_by_weight,
    count_sum_points,
    degree_histogram,
    enumerate_integer_points,
    enumerate_lattice_points,
    lattice_point_graph,
    minkowski_sum,
    weight_columns,
)
from fflv.rep import build_highest_weight_module, essential_monomials
from fflv.roots import DominantWeight, Root, all_positive_roots, fundamental_weight, rho
from fflv.weyl import (
    Permutation,
    RootSubset,
    all_permutations,
    inversion_roots,
    is_triangular_element,
)


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
    assert [t[0] for t in S.tuples] == [0, 1, 2, 3]


def test_empty_subset_gives_origin():
    S = enumerate_lattice_points(RootSubset.of(3, []), rho(3))
    assert len(S) == 1


def test_unbounded_face():
    A = inversion_roots(Permutation.from_oneline((4, 2, 3, 1)))
    with pytest.raises(UnboundedFaceError) as err:
        enumerate_lattice_points(A, rho(3))
    assert err.value.root == Root(1, 3)


def _outside(S, ineqs):
    """Why some point of S lies outside the nonnegative solutions of the
    inequalities, or None.  A root that S has no coordinate for counts as
    zero."""
    if any(v < 0 for p in S.tuples for v in p):
        return "a point has a negative coordinate"
    index = {r: c for c, r in enumerate(S.roots)}
    for q in ineqs:
        cols = [index[r] for r in q.support if r in index]
        if any(sum([p[c] for c in cols]) > q.bound for p in S.tuples):
            return f"a point violates {q}"
    return None


def embed_face(S, lam):
    """Zero-pad every point of a face to a point indexed by all positive roots.

    Validates the points against the face inequalities of their own root set
    first, building that system once; membership of the image in the full
    polytope is a theorem for triangular A, which
    `test_triangular_faces_embed_into_the_full_polytope` checks.
    """
    why = _outside(S, build_inequalities(RootSubset.of(S.n, S.roots), lam))
    if why is not None:
        raise ValueError(f"{why}; not a face point set")
    roots = all_positive_roots(S.n)
    index = {r: c for c, r in enumerate(S.roots)}
    cols = [index.get(r) for r in roots]
    return PointSet(S.n, roots, tuple(sorted(
        [tuple([0 if c is None else p[c] for c in cols]) for p in S.tuples])))


def in_polytope(S, lam):
    """Whether every point of S lies in the full-triangle polytope, a root
    that S has no coordinate for counting as zero.  The system is built
    once."""
    return _outside(S, build_inequalities(RootSubset.full(S.n), lam)) is None


def test_embed_face_into_full_polytope():
    lam = DominantWeight((1, 1))
    A = inversion_roots(Permutation.simple(1, 2))
    S = enumerate_lattice_points(A, lam)
    emb = embed_face(S, lam)
    assert in_polytope(emb, lam)
    assert emb.roots == all_positive_roots(2)
    assert emb.tuples == ((0, 0, 0), (1, 0, 0))


def test_triangular_faces_embed_into_the_full_polytope():
    """The face of a triangular element, zero-padded, lies in the full
    polytope: at ranks 2 and 3 at every weight in {0,1,2}^n, and at rank 4
    at rho(4), 736 faces."""
    checked = 0
    for n, weights in ((2, itertools.product(range(3), repeat=2)),
                       (3, itertools.product(range(3), repeat=3)), (4, [(1, 1, 1, 1)])):
        faces = [inversion_roots(w) for w in all_permutations(n) if is_triangular_element(w)]
        for lam in map(DominantWeight, weights):
            for A in faces:
                assert in_polytope(embed_face(enumerate_lattice_points(A, lam), lam), lam), (A, lam)
                checked += 1
    assert checked == 736


def test_embed_face_rejects_outside_points():
    lam = DominantWeight((1, 1))
    for bad in (PointSet(2, (Root(1, 1),), ((0,), (5,))),
                PointSet(2, (Root(1, 1),), ((-1,), (0,)))):
        with pytest.raises(ValueError):
            embed_face(bad, lam)
        assert not in_polytope(bad, lam)


def test_embedding_can_fail_for_non_triangular_subsets():
    """{alpha_{1,2}, alpha_{2,3}} admits a point outside the long inequality."""
    A = RootSubset.of(3, [Root(1, 2), Root(2, 3)])
    lam = rho(3)
    S = enumerate_lattice_points(A, lam)
    outside = [p for p in S.tuples
               if not in_polytope(embed_face(PointSet(S.n, S.roots, (p,)), lam), lam)]
    assert outside, "expected at least one face point outside the big polytope"
    assert not in_polytope(embed_face(S, lam), lam)


def test_embed_and_membership_build_one_system_per_call(monkeypatch):
    """Each call builds its inequality system once, however many points."""
    lam = rho(3)
    A = inversion_roots(Permutation.from_word((1, 2, 1), 3))
    S = enumerate_lattice_points(A, lam)
    calls = []
    build = build_inequalities

    def build_recorded(A, lam):
        calls.append(A)
        return build(A, lam)

    monkeypatch.setitem(globals(), "build_inequalities", build_recorded)
    emb = embed_face(S, lam)
    assert calls == [A]
    assert in_polytope(emb, lam)
    assert calls == [A, RootSubset.full(3)]
    assert len(emb) == len(S) == 8


def test_searches_leave_no_cyclic_garbage():
    """The order search is a self-calling closure that returns with its
    reference cycle broken, and the state-graph enumerator and counters and
    the chain and path walks make none, so what they found is freed with
    the result and not kept until a full collection runs.  The collector
    is off during the calls, so no automatic collection hides a cycle."""
    lam = rho(3)
    searches = [lambda: enumerate_lattice_points(full(3), lam),
                lambda: count_integer_points(3, full(3).sorted_roots(),
                                             build_inequalities(full(3), lam)),
                lambda: count_points_by_weight(3, full(3).sorted_roots(),
                                               build_inequalities(full(3), lam)),
                lambda: marked_order_points(full(3), lam),
                lambda: count_order_points(full(3), lam),
                lambda: lattice_point_graph(full(3), lam, 3),
                lambda: sum_points(enumerate_lattice_points(full(3), lam),
                                   enumerate_lattice_points(full(3), lam)),
                lambda: _chain_supports(full(3)),
                lambda: _restrictions(full(3))]
    gc.collect()
    gc.disable()
    try:
        for search in searches:
            assert search()
            assert gc.collect() == 0
    finally:
        gc.enable()


def test_minkowski_sum_matches_weight_addition():
    lam, mu = DominantWeight((1, 0)), DominantWeight((0, 1))
    S1, S2 = enumerate_lattice_points(full(2), lam), enumerate_lattice_points(full(2), mu)
    assert minkowski_sum(S1, S2) == enumerate_lattice_points(full(2), lam + mu)
    with pytest.raises(ValueError):
        minkowski_sum(S1, enumerate_lattice_points(RootSubset.of(2, [Root(1, 1)]), lam))


def test_lattice_point_graph_is_the_k_fold_sum():
    lam = fundamental_weight(1, 2)
    S = enumerate_lattice_points(full(2), lam)
    assert graph_points(2, S.roots, lattice_point_graph(full(2), lam, 1)) == S
    assert graph_points(2, S.roots, lattice_point_graph(full(2), lam, 2)) == minkowski_sum(S, S)
    assert (graph_points(2, S.roots, lattice_point_graph(full(2), lam, 3))
            == enumerate_lattice_points(full(2), lam.scale(3)))
    with pytest.raises(ValueError):
        lattice_point_graph(full(2), lam, 0)


def weight_and_degree(values, n, roots):
    """The point's weight as the `weight_columns` column sums, and its degree."""
    return tuple(sum(values[c] for c in cols) for cols in weight_columns(n, roots)), sum(values)


def test_weight_and_degree():
    wt, deg = weight_and_degree((1, 1, 0), 2, (Root(1, 1), Root(1, 2), Root(2, 2)))
    assert wt == (2, 1)
    assert deg == 2


def test_weight_columns_group_the_roots_spanning_each_simple_root():
    roots = (Root(1, 1), Root(1, 3), Root(2, 2), Root(3, 3))
    assert weight_columns(3, roots) == ((0, 1), (1, 2), (1, 3))
    assert weight_columns(3, (Root(1, 1),)) == ((0,), (), ())
    assert weight_columns(2, ()) == ((), ())


def test_weight_and_degree_matches_the_root_sum():
    """Every point of a rank-3 face: the weight is the coordinate-weighted
    sum of the roots, each root a{i}.{j} adding 1 at simple roots i..j."""
    for A in (full(3), RootSubset.of(3, [Root(1, 2), Root(2, 3), Root(3, 3)])):
        S = enumerate_lattice_points(A, DominantWeight((2, 1, 1)))
        for values in S.tuples:
            expected = [0, 0, 0]
            for r, v in zip(S.roots, values):
                for k in range(r.i, r.j + 1):
                    expected[k - 1] += v
            wt, deg = weight_and_degree(values, S.n, S.roots)
            assert wt == tuple(expected)
            assert deg == sum(values)


def test_degree_histogram_adjoint():
    S = enumerate_lattice_points(full(2), DominantWeight((1, 1)))
    assert degree_histogram(S) == {0: 1, 1: 3, 2: 4}
    assert sum(degree_histogram(S).values()) == len(S) == 8


def points_csv(capsys, A, lam, k=1):
    """The stdout of `points --format csv` for the face of A at lam, or with
    `--dilate k` for its k-fold sum."""
    code = main(["points", "--A", ",".join(f"{r.i}.{r.j}" for r in A.sorted_roots()),
                 "--lambda", ",".join(map(str, lam.coeffs)), "--dilate", str(k),
                 "--format", "csv"])
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    return out


def test_csv_export_header(capsys):
    lines = points_csv(capsys, full(2), fundamental_weight(1, 2)).splitlines()
    assert lines[0] == "a1.1,a1.2,a2.2"
    assert len(lines) == 4


def csv_writer_export(S):
    """Reference CSV: the standard csv writer over the sorted tuples."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([r.label for r in S.roots])
    for vals in sorted(S.tuples):
        writer.writerow(vals)
    return buf.getvalue()


def test_csv_export_matches_the_csv_writer(capsys):
    lam = DominantWeight((2, 1, 1))
    faces = [full(3), RootSubset.of(3, [Root(1, 2), Root(2, 3)]), RootSubset.of(3, [])]
    for A, k in [(A, 1) for A in faces] + [(faces[1], 2)]:
        S = reduce(minkowski_sum, [enumerate_lattice_points(A, lam)] * k)
        assert points_csv(capsys, A, lam, k) == csv_writer_export(S)


def test_sum_and_dilated_face_are_equal_and_hash_equal():
    """S + S comes from packed sums, S(2 lambda) from the enumerator; both
    keep lexicographic order, so the sets compare and hash as equal."""
    for A in (full(3), RootSubset.of(3, [Root(1, 2), Root(2, 3), Root(3, 3)])):
        S = enumerate_lattice_points(A, rho(3))
        doubled = minkowski_sum(S, S)
        target = enumerate_lattice_points(A, rho(3).scale(2))
        assert doubled == target and hash(doubled) == hash(target)


def assert_strictly_increasing(S):
    assert all(a < b for a, b in zip(S.tuples, S.tuples[1:])), S.tuples


def test_every_producer_emits_strictly_increasing_tuples():
    """The enumerator, packed and order-ideal sums and dilations, both
    marked-poset polytopes and the essential monomials all emit
    lexicographic order."""
    lam = DominantWeight((2, 1, 1))
    faces = [full(3), RootSubset.of(3, [Root(1, 2), Root(2, 3)]),
             inversion_roots(Permutation.from_oneline((3, 4, 2, 1))), RootSubset.of(3, [])]
    for A in faces:
        S = enumerate_lattice_points(A, lam)
        T = enumerate_lattice_points(A, DominantWeight((0, 1, 2)))
        produced = [S, minkowski_sum(S, T), minkowski_sum(T, S), reduce(minkowski_sum, [S] * 3),
                    sum_points(S, T), sum_points(T, S),
                    graph_points(3, S.roots, lattice_point_graph(A, lam, 3)),
                    marked_chain_points(A, lam), marked_order_points(A, lam)]
        for P in produced:
            assert_strictly_increasing(P)
    module = build_highest_weight_module(rho(3))
    for A in faces[:3]:
        assert_strictly_increasing(
            essential_monomials(module, A, weyl_dimension(rho(3))))


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
    return {tuple(a + b for a, b in zip(s, t)) for s in S1.tuples for t in S2.tuples}


def point_set(*points):
    dim = len(points[0])
    return PointSet(3, all_positive_roots(3)[:dim], tuple(sorted(set(points))))


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
        assert out.tuples == tuple(sorted(tuple_minkowski(S1, S2)))


def test_minkowski_sum_edge_sets():
    S = point_set((1, 2), (0, 0))
    assert minkowski_sum(S, point_set((0, 0))) == S
    empty = PointSet(3, S.roots, ())
    assert minkowski_sum(S, empty).tuples == ()
    with pytest.raises(ValueError):
        minkowski_sum(S, point_set((-1, 0)))


def _reference_plan(n, roots, ineqs):
    """The set-up of the node-by-node search: per coordinate, the
    inequalities containing it and those of them a later coordinate still
    reads, and the starting slacks.  None when some bound is negative.
    Raises UnboundedFaceError for the first coordinate that occurs in no
    inequality."""
    touching = [[] for _ in roots]
    index = {r: c for c, r in enumerate(roots)}
    for t, q in enumerate(ineqs):
        for r in q.support:
            touching[index[r]].append(t)
    for c, r in enumerate(roots):
        if not touching[c]:
            raise UnboundedFaceError(n, r)
    if any(q.bound < 0 for q in ineqs):
        return None
    last_reader = {t: c for c, ts in enumerate(touching) for t in ts}
    read_later = [tuple(t for t in ts if last_reader[t] > c) for c, ts in enumerate(touching)]
    return touching, read_later, [q.bound for q in ineqs]


def reference_points(n, roots, ineqs):
    """Reference enumerator: the depth-first search over every node of the
    prefix tree.  Each coordinate's values run from 0 up to the least slack
    of the inequalities containing it, in increasing order, so the points
    come out in lexicographic order; a child returns with the slacks as it
    found them."""
    plan = _reference_plan(n, roots, ineqs)
    if plan is None:
        return PointSet(n, roots, ())
    if not roots:
        return PointSet(n, roots, ((),))
    touching, read_later, slack = plan
    found = []

    def assign(c, prefix):
        cap = min(slack[t] for t in touching[c])
        if c == len(roots) - 1:
            found.extend(prefix + (v,) for v in range(cap + 1))
            return
        for v in range(cap + 1):
            assign(c + 1, prefix + (v,))
            for t in read_later[c]:
                slack[t] -= 1
        for t in read_later[c]:
            slack[t] += cap + 1

    assign(0, ())
    return PointSet(n, roots, tuple(found))


def reference_count(n, roots, ineqs):
    """Reference counter: the same search, a leaf adding its cap + 1."""
    plan = _reference_plan(n, roots, ineqs)
    if plan is None:
        return 0
    if not roots:
        return 1
    touching, read_later, slack = plan

    def count(c):
        cap = min(slack[t] for t in touching[c])
        if c == len(roots) - 1:
            return cap + 1
        total = 0
        for _ in range(cap + 1):
            total += count(c + 1)
            for t in read_later[c]:
                slack[t] -= 1
        for t in read_later[c]:
            slack[t] += cap + 1
        return total

    return count(0)


def _outcome(search, n, roots, ineqs):
    """What a search returns, or the root and message of its
    UnboundedFaceError."""
    try:
        return search(n, roots, ineqs)
    except UnboundedFaceError as exc:
        return exc.root, str(exc)


def assert_engine_matches_reference(n, roots, ineqs):
    """The state-graph enumerator and counters against the node-by-node
    search: the same point set in the same emission order and the same
    count, each weight counted as often as the reference points with those
    `weight_columns` sums, in lexicographic order of the weights; or the
    same UnboundedFaceError root and message.  Returns the reference
    outcome."""
    expected = _outcome(reference_points, n, roots, ineqs)
    assert _outcome(enumerate_integer_points, n, roots, ineqs) == expected
    counted = _outcome(reference_count, n, roots, ineqs)
    assert counted == (len(expected) if isinstance(expected, PointSet) else expected)
    assert _outcome(count_integer_points, n, roots, ineqs) == counted
    graded = _outcome(count_points_by_weight, n, roots, ineqs)
    if isinstance(expected, PointSet):
        by_weight = Counter(weight_and_degree(p, n, roots)[0] for p in expected.tuples)
        assert graded == dict(by_weight)
        assert list(graded) == sorted(by_weight)
    else:
        assert graded == expected
    return expected


def brute_force_points(n, roots, ineqs):
    """Reference enumerator: every vector over 0..max bound, kept when it
    satisfies every inequality, in `itertools.product` (lexicographic)
    order.  Raises UnboundedFaceError for the first coordinate that no
    inequality contains."""
    covered = {r for q in ineqs for r in q.support}
    for r in roots:
        if r not in covered:
            raise UnboundedFaceError(n, r)
    index = {r: c for c, r in enumerate(roots)}
    rows = [(tuple(index[r] for r in q.support), q.bound) for q in ineqs]
    top = max([q.bound for q in ineqs] + [0])
    return [p for p in itertools.product(range(top + 1), repeat=len(roots))
            if all(sum(p[c] for c in cols) <= bound for cols, bound in rows)]


def assert_matches_brute_force(n, roots, ineqs):
    """The engine against the node-by-node search, and that search against
    the brute-force one."""
    expected = assert_engine_matches_reference(n, roots, ineqs)
    try:
        brute = brute_force_points(n, roots, ineqs)
    except UnboundedFaceError as exc:
        assert expected == (exc.root, str(exc))
        return
    assert (expected.n, expected.roots) == (n, roots)
    assert expected.tuples == tuple(brute)               # lexicographic emission order


@st.composite
def inequality_systems(draw):
    """A few coordinates out of the rank-4 roots, in any order, and a few
    inequalities over random supports (empty ones included) with small
    bounds, now and then negative ones."""
    roots = tuple(draw(st.permutations(all_positive_roots(4)))[:draw(st.integers(0, 5))])
    support = st.lists(st.sampled_from(roots), unique=True) if roots else st.just([])
    bound = st.one_of(st.integers(0, 3), st.integers(-2, -1))
    ineqs = draw(st.lists(st.builds(lambda s, b: Inequality(tuple(s), b), support, bound),
                          max_size=6))
    return roots, ineqs


@settings(max_examples=300, deadline=None)
@given(inequality_systems())
@example(((), []))
@example(((Root(1, 1),), []))
@example(((Root(1, 1), Root(2, 2)), [Inequality((Root(2, 2),), 2)]))
@example(((Root(1, 1), Root(2, 2)), [Inequality((Root(1, 1), Root(2, 2)), -1),
                                     Inequality((Root(1, 1),), 1)]))
def test_enumerator_matches_brute_force(system):
    roots, ineqs = system
    assert_matches_brute_force(4, roots, ineqs)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_every_small_face_matches_brute_force(n):
    """All 2**(n(n+1)/2) faces of rank n at a few small weights, bounded or
    not, against the node-by-node and the brute-force references."""
    positive = all_positive_roots(n)
    weights = [rho(n), fundamental_weight(1, n), DominantWeight((2,) + (0,) * (n - 1))]
    for size in range(len(positive) + 1):
        for members in itertools.combinations(positive, size):
            A = RootSubset.of(n, members)
            for lam in weights:
                assert_matches_brute_force(n, A.sorted_roots(), build_inequalities(A, lam))


def _all_subsets(n):
    positive = all_positive_roots(n)
    for size in range(len(positive) + 1):
        for members in itertools.combinations(positive, size):
            yield RootSubset.of(n, members)


def test_count_matches_enumeration_on_small_faces():
    """Every subset at ranks 1-3 for every weight in {0,1,2}^n, unbounded
    faces included: the engine's points, count and counts per weight are
    the reference's, or it raises the same error."""
    checked = 0
    for n in (1, 2, 3):
        for A in _all_subsets(n):
            for coeffs in itertools.product(range(3), repeat=n):
                ineqs = build_inequalities(A, DominantWeight(coeffs))
                assert_engine_matches_reference(n, A.sorted_roots(), ineqs)
                checked += 1
    assert checked == 2 * 3 + 8 * 9 + 64 * 27


def test_count_matches_enumeration_on_every_rank4_face():
    """All 1,024 subsets at rank 4 at rho(4), unbounded ones included."""
    lam = rho(4)
    for A in _all_subsets(4):
        assert_engine_matches_reference(4, A.sorted_roots(), build_inequalities(A, lam))


@pytest.mark.slow
def test_every_bounded_rank4_face_matches_the_reference():
    """The face systems of the 816 bounded subsets at rank 4, at rho(4),
    (2,1,1,2) and (1,0,2,1), a zero coefficient among them; about 5 s."""
    checked = 0
    for A in _all_subsets(4):
        for coeffs in ((1, 1, 1, 1), (2, 1, 1, 2), (1, 0, 2, 1)):
            args = (4, A.sorted_roots(), build_inequalities(A, DominantWeight(coeffs)))
            if isinstance(_outcome(reference_count, *args), int):
                assert_engine_matches_reference(*args)
                checked += 1
    assert checked == 3 * 816


def test_count_raises_the_enumerators_unbounded_error():
    A = RootSubset.of(3, [Root(1, 2), Root(1, 3), Root(2, 3)])
    args = (3, A.sorted_roots(), build_inequalities(A, rho(3)))
    errors = [_outcome(search, *args) for search in
              (reference_points, reference_count, enumerate_integer_points, count_integer_points,
               count_points_by_weight)]
    assert errors == [errors[0]] * 5
    assert errors[0][0] == Root(1, 3)


@pytest.mark.parametrize("coeffs", [(1, 1, 1), (2, 1, 1), (1, 1, 1, 1), (2, 1, 1, 2)])
def test_graph_states_are_the_completion_sets(coeffs):
    """Walking each point of the full triangle down `_slack_graph`: the
    prefixes that reach one state have one set of completions, as the
    merging argument says, and on these systems distinct states have
    distinct completion sets, so the merged and tightened slacks leave no
    two states that could be one."""
    n = len(coeffs)
    roots = full(n).sorted_roots()
    ineqs = build_inequalities(full(n), DominantWeight(coeffs))
    levels = list(_slack_graph(len(roots), _search_plan(n, roots, ineqs)))
    points = reference_points(n, roots, ineqs).tuples
    for c in range(len(roots) + 1):
        completions = {}
        for p in points:
            state = 0
            for d in range(c):
                state = levels[d][state][p[d]]
            completions.setdefault(p[:c], (state, set()))[1].add(p[c:])
        by_state = {}
        for state, suffixes in completions.values():
            by_state.setdefault(state, set()).add(frozenset(suffixes))
        assert all(len(sets) == 1 for sets in by_state.values())
        assert len({s for sets in by_state.values() for s in sets}) == len(by_state)
        assert len(by_state) == (len(levels[c]) if c < len(roots) else 1)


@pytest.mark.parametrize("coeffs, filled", [
    ((0, 0, 0, 9), None), ((12, 0, 0, 0), None),
    ((0, 0, 0, 15), 1), ((3, 0, 0, 0), 4), ((0, 0, 0, 7), 1),
])
def test_weight_counts_with_a_field_filled_to_its_width(coeffs, filled):
    """The full rank-4 triangle at weights on one end: the weights reach
    the sum of the coordinate caps on some simple root, the bound the packed
    fields are sized by.  Where that maximum is all ones in binary (simple
    root `filled`; at (3,0,0,0) it is the lowest field), a field one bit
    narrower would carry into its neighbour."""
    A = full(4)
    roots, ineqs = A.sorted_roots(), build_inequalities(A, DominantWeight(coeffs))
    assert_engine_matches_reference(4, roots, ineqs)
    graded = count_points_by_weight(4, roots, ineqs)
    caps = [min(q.bound for q in ineqs if r in q.support) for r in roots]
    widths = [sum(caps[c] for c in group).bit_length() for group in weight_columns(4, roots)]
    tops = [max(weight[k] for weight in graded) for k in range(4)]
    assert [k + 1 for k in range(4) if tops[k] == (1 << widths[k]) - 1] == (
        [] if filled is None else [filled])


NON_TRIANGULAR_4 = RootSubset.of(4, [Root(1, 1), Root(1, 3), Root(2, 2), Root(2, 3), Root(2, 4),
                                     Root(3, 3), Root(4, 4)])


def graph_points(n, roots, levels):
    """The points of a state graph, composed as value tuples."""
    return PointSet(n, roots, tuple(compose_points(levels, _value_cells(levels), ())))


def sum_points(S1, S2):
    """The Minkowski sum of two order ideals on one root order, listed over
    the state graph of `_sum_graph`."""
    return graph_points(S1.n, S1.roots, _sum_graph(len(S1.roots), [S1.tuples, S2.tuples]))


def _bounded_faces(ranks):
    """Per bounded face at the given ranks, the subset and its point set at
    each weight in {0,1,2}^n."""
    for n in ranks:
        weights = [DominantWeight(c) for c in itertools.product(range(3), repeat=n)]
        for A in _all_subsets(n):
            try:
                yield A, {lam: enumerate_lattice_points(A, lam) for lam in weights}
            except UnboundedFaceError:
                pass


def _sample(cases, size):
    """Every case, or a seeded sample of `size` of them."""
    return cases if size is None else random.Random(19).sample(cases, size)


@pytest.mark.parametrize("size", [2000, pytest.param(None, marks=pytest.mark.slow)])
def test_sum_graph_matches_the_pairwise_sums_on_small_faces(size):
    """S(lambda) + S(mu) as the ideal generated by sums of maximal points
    is the set of pairwise sums, and `count_sum_points` counts it, on
    every bounded face at ranks 1-3 for lambda, mu in {0,1,2}^n: all 44,406
    pairs under `-m slow` (about 20 s), a seeded sample otherwise."""
    pairs = [(S[lam], S[mu]) for _, S in _bounded_faces((1, 2, 3)) for lam in S for mu in S]
    assert len(pairs) == 44406
    for S1, S2 in _sample(pairs, size):
        want = minkowski_sum(S1, S2)
        assert sum_points(S1, S2) == want
        assert count_sum_points(S1, S2) == len(want)


@pytest.mark.parametrize("size", [500, pytest.param(None, marks=pytest.mark.slow)])
def test_dilated_graph_matches_the_pairwise_sums_on_small_faces(size):
    """The graph of the k-fold sum, k = 2, 3, lists the pairwise sums on
    every bounded face at ranks 1-3 for lambda in {0,1,2}^n: all 3,396
    cases under `-m slow` (about 10 s), a seeded sample otherwise."""
    cases = [(A, lam, S, k) for A, faces in _bounded_faces((1, 2, 3))
             for lam, S in faces.items() for k in (2, 3)]
    assert len(cases) == 3396
    for A, lam, S, k in _sample(cases, size):
        want = reduce(minkowski_sum, [S] * k)
        assert graph_points(A.n, S.roots, lattice_point_graph(A, lam, k)) == want


@pytest.mark.parametrize("k", [2, 3])
def test_sums_of_a_non_triangular_face(k):
    """The rank-4 face the benchmark dilates, at rho(4): the graph of its
    k-fold sum and the iterated sums over `_sum_graph` both give the
    pairwise sums, and `count_sum_points` their number."""
    S = enumerate_lattice_points(NON_TRIANGULAR_4, rho(4))
    assert len(S) == 208
    want = reduce(minkowski_sum, [S] * k)
    assert graph_points(4, S.roots, lattice_point_graph(NON_TRIANGULAR_4, rho(4), k)) == want
    assert count_sum_points(*[S] * k) == len(want)
    got = S
    for _ in range(k - 1):
        got = sum_points(got, S)
    assert got == want


@pytest.mark.parametrize("A, coeffs, k", [
    (full(3), (1, 1, 1), 2),
    (full(3), (2, 0, 1), 3),
    (RootSubset.of(3, [Root(1, 2), Root(2, 3)]), (2, 1, 1), 3),
    (NON_TRIANGULAR_4, (1, 1, 1, 1), 2),
])
def test_ideal_graph_states_are_the_completion_sets(A, coeffs, k):
    """Walking each point of a k-fold sum down its `_sum_graph`: the
    prefixes that reach one state have one set of completions, as the
    generator-suffix argument says, and every state is reached."""
    S = enumerate_lattice_points(A, DominantWeight(coeffs))
    m = len(S.roots)
    levels = _sum_graph(m, [S.tuples] * k)
    for c in range(m + 1):
        completions = {}
        for p in reduce(minkowski_sum, [S] * k).tuples:
            state = 0
            for d in range(c):
                state = levels[d][state][p[d]]
            completions.setdefault(p[:c], (state, set()))[1].add(p[c:])
        by_state = {}
        for state, suffixes in completions.values():
            by_state.setdefault(state, set()).add(frozenset(suffixes))
        assert all(len(sets) == 1 for sets in by_state.values())
        assert len(by_state) == (len(levels[c]) if c < m else 1)


def test_sum_graph_edge_sets():
    S = point_set((0, 0), (1, 0), (0, 1), (0, 2))
    assert sum_points(S, point_set((0, 0))) == S
    assert sum_points(S, S) == minkowski_sum(S, S)
    assert sum_points(point_set(()), point_set(())) == point_set(())
    for bad in (point_set((1, 0)), point_set((0, 0), (1, 1)), point_set((-1, 0), (0, 0))):
        with pytest.raises(ValueError):
            sum_points(S, bad)


def test_count_sum_points_edge_sets():
    S = point_set((0, 0), (1, 0), (0, 1), (0, 2))
    assert count_sum_points(S) == 4
    assert count_sum_points(S, point_set((0, 0))) == 4
    assert count_sum_points(S, S, S) == len(minkowski_sum(minkowski_sum(S, S), S))
    assert count_sum_points(S, PointSet(3, S.roots, ())) == 0
    assert count_sum_points(point_set(()), point_set(())) == 1
    for bad in (point_set((1, 0)), point_set((0, 0), (1, 1)), point_set((-1, 0), (0, 0)),
                enumerate_lattice_points(full(2), rho(2))):
        with pytest.raises(ValueError):
            count_sum_points(S, bad)


def test_count_lattice_points_is_the_number_listed():
    for A, lam in ((full(3), rho(3)), (NON_TRIANGULAR_4, rho(4)),
                   (RootSubset.of(3, [Root(1, 2), Root(2, 3)]), DominantWeight((2, 1, 1)))):
        assert count_lattice_points(A, lam) == len(enumerate_lattice_points(A, lam))
    with pytest.raises(ValueError):
        count_lattice_points(full(3), rho(2))


def test_lattice_point_graph_rejects_bad_input():
    with pytest.raises(ValueError):
        lattice_point_graph(full(2), rho(2), 0)
    with pytest.raises(ValueError):
        lattice_point_graph(full(2), rho(3), 2)
    with pytest.raises(UnboundedFaceError):
        lattice_point_graph(inversion_roots(Permutation.from_oneline((4, 2, 3, 1))), rho(3), 2)
