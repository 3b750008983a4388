"""Marked posets and their chain and order point counts.

The order of the marked poset is defined here, as the reference:
`_reference_greater` on roots and markers, with its covers, its
marker-to-marker chains and its order points found by brute force.  The
library reads one cover relation off the root grid instead, and the tests
compare the two.
"""

import random
from functools import lru_cache, reduce
from itertools import combinations, product
from typing import NamedTuple

import pytest

from fflv.characters import to_partition
from fflv.marked_poset import (
    _chain_supports,
    _upper_covers,
    count_chain_points,
    count_order_points,
    is_marked_chain_face,
    marked_chain_points,
    marked_order_points,
)
from fflv.paths import enumerate_dyck_paths_for
from fflv.polytope import (
    Inequality,
    UnboundedFaceError,
    build_inequalities,
    count_integer_points,
    enumerate_lattice_points,
    minkowski_sum,
    support_inequalities,
)
from fflv.roots import DominantWeight, Root, all_positive_roots, dominates, rho
from fflv.weyl import RootSubset, all_permutations, inversion_roots, is_triangular_element, is_triangular_subset


def all_subsets(n):
    roots = all_positive_roots(n)
    for k in range(len(roots) + 1):
        for combo in combinations(roots, k):
            yield RootSubset.of(n, combo)


def random_subsets(n, count, seed):
    rng = random.Random(seed)
    roots = all_positive_roots(n)
    return [RootSubset.of(n, [r for r in roots if rng.random() < 0.5]) for _ in range(count)]


class Marker(NamedTuple):
    """The m-th marked element a_m, 1 <= m <= n+1."""

    index: int


def _reference_greater(x, y):
    """The strict order on roots and markers combined: the staircase order
    on roots, a_1 > ... > a_{n+1} on markers, a_m above the roots starting
    at row m or later, and a root above the markers past its last row."""
    if isinstance(x, Root) and isinstance(y, Root):
        return x != y and dominates(x, y)
    if isinstance(x, Marker) and isinstance(y, Marker):
        return x.index < y.index
    if isinstance(x, Marker):
        return y.i >= x.index
    return x.j <= y.index - 1


def _markers(n):
    return tuple(Marker(m) for m in range(1, n + 2))


def _elements(A):
    return _markers(A.n) + A.sorted_roots()


def _marking(lam, m):
    """The tail sum m_m + ... + m_n that marks a_m; 0 for a_{n+1}."""
    return sum(lam.coeffs[m.index - 1:])


@lru_cache(maxsize=None)
def _reference_covers(A):
    """All pairs (upper, lower) with nothing strictly between, by brute
    force over every triple; cached, as several sweeps share subsets."""
    els = _elements(A)
    greater = {(x, y) for x in els for y in els if _reference_greater(x, y)}
    return frozenset((x, y) for x, y in greater
                     if not any((x, z) in greater and (z, y) in greater for z in els))


def _reference_upper_covers(A):
    roots = A.sorted_roots()
    covers = _reference_covers(A)
    return [[c for c, q in enumerate(roots) if (q, r) in covers] for r in roots]


def _reference_marker_chains(A):
    """The saturated chains running from a marker down through unmarked
    roots to the next marker they meet, as {roots: (top, bottom marker)}."""
    below = {}
    for upper, lower in sorted(_reference_covers(A)):
        below.setdefault(upper, []).append(lower)
    found = {}

    def descend(top, trail, cur):
        for nxt in below.get(cur, ()):
            if isinstance(nxt, Marker):
                if trail:
                    found[tuple(trail)] = (top, nxt)
            else:
                trail.append(nxt)
                descend(top, trail, nxt)
                trail.pop()

    for m in _markers(A.n):
        descend(m, [], m)
    return found


# Every subset at ranks 1-4, and 300 seeded random subsets each at ranks 5
# and 6: the sweep the grid-read covers are checked on.
COVER_SWEEP = ([A for n in (1, 2, 3, 4) for A in all_subsets(n)]
               + random_subsets(5, 300, seed=5) + random_subsets(6, 300, seed=6))


def test_marker_count_and_markings():
    """The markings are the tail sums of the weight, `to_partition`."""
    lam = DominantWeight((2, 1))
    assert len(_markers(2)) == 3
    assert [_marking(lam, m) for m in _markers(2)] == [3, 1, 0]
    for n in (1, 2, 3):
        for c in product(range(3), repeat=n):
            lam = DominantWeight(c)
            assert tuple(_marking(lam, m) for m in _markers(n)) == to_partition(lam)


def test_first_marker_on_top_last_on_bottom():
    for A in all_subsets(3):
        top, bottom = Marker(1), Marker(4)
        others = [e for e in _elements(A) if e not in (top, bottom)]
        assert all(_reference_greater(top, e) for e in others + [bottom])
        assert all(_reference_greater(e, bottom) for e in others + [top])


def test_root_sits_between_its_markers():
    assert _reference_greater(Marker(1), Root(1, 2))
    assert _reference_greater(Root(1, 2), Marker(3))
    assert not _reference_greater(Root(1, 2), Marker(2))
    assert not _reference_greater(Marker(2), Root(1, 2))


def test_covers_are_a_transitive_reduction():
    """The root covers read off the grid are the reference covers between
    roots, markers counted: on every subset at ranks 1-4 and on 300 seeded
    random subsets each at ranks 5 and 6."""
    assert len(COVER_SWEEP) == 2 + 8 + 64 + 1024 + 600
    for A in COVER_SWEEP:
        assert _upper_covers(A.sorted_roots()) == _reference_upper_covers(A), A


def test_chain_supports_match_the_reference_walk():
    """The chain walk over the grid-read covers finds the chains the
    reference walk over all covers finds, on the same sweep."""
    for A in COVER_SWEEP:
        assert _chain_supports(A) == sorted(_reference_marker_chains(A)), A


def test_a_marker_between_two_roots_breaks_their_cover():
    """alpha_11 > a_2 > alpha_22, so alpha_11 does not cover alpha_22, and
    each simple root is a chain of its own."""
    A = RootSubset.of(2, [Root(1, 1), Root(2, 2)])
    assert _reference_greater(Root(1, 1), Marker(2)) and _reference_greater(Marker(2), Root(2, 2))
    assert _upper_covers(A.sorted_roots()) == [[], []]
    assert _chain_supports(A) == [(Root(1, 1),), (Root(2, 2),)]


def test_rank_mismatch_is_rejected():
    """A subset and a weight of different ranks are refused by each point
    and count function."""
    A = RootSubset.full(2)
    for lam in (rho(1), rho(3)):
        for fn in (marked_chain_points, count_chain_points, marked_order_points, count_order_points):
            with pytest.raises(ValueError, match="rank"):
                fn(A, lam)


def test_chain_points_match_face_points_for_triangular():
    lam = rho(3)
    for w in all_permutations(3):
        if not is_triangular_element(w):
            continue
        A = inversion_roots(w)
        assert len(marked_chain_points(A, lam)) == len(enumerate_lattice_points(A, lam))


def test_chain_count_can_agree_for_non_triangular_subsets():
    """Equality of counts does not single out triangular subsets: the pair of
    simple roots at rank 2 is non-triangular yet the counts agree."""
    A = RootSubset.of(2, [Root(1, 1), Root(2, 2)])
    assert not is_triangular_subset(A)
    lam = DominantWeight((1, 1))
    assert len(marked_chain_points(A, lam)) == len(enumerate_lattice_points(A, lam))


def test_face_count_equals_chain_count_exactly_where_the_identity_holds():
    """On the bounded non-triangular subsets at ranks 3 and 4, the face
    count at rho equals the chain count exactly where the face is the
    marked chain polytope; both counted without listing a point."""
    tallies = []
    for n in (3, 4):
        lam, equal, bounded = rho(n), 0, 0
        for A in all_subsets(n):
            if is_triangular_subset(A):
                continue
            try:
                face = count_integer_points(n, A.sorted_roots(), build_inequalities(A, lam))
            except UnboundedFaceError:
                continue
            same = face == count_chain_points(A, lam)
            assert same == is_marked_chain_face(A), A
            bounded += 1
            equal += same
        tallies.append((equal, bounded))
    assert tallies == [(18, 26), (253, 617)]


def test_chain_equals_order_counts_all_subsets_rank2():
    lam = DominantWeight((2, 1))
    for A in all_subsets(2):
        for t in (1, 2, 3):
            nu = lam.scale(t)
            assert len(marked_chain_points(A, nu)) == len(marked_order_points(A, nu))


def test_order_points_respect_interval_bounds():
    A = RootSubset.full(2)
    lam = DominantWeight((2, 1))
    pts = marked_order_points(A, lam)
    assert pts.roots == (Root(1, 1), Root(1, 2), Root(2, 2))
    for top, mid, low in pts.tuples:
        assert 1 <= top <= 3
        assert 0 <= mid <= 3
        assert 0 <= low <= 1
        assert top >= mid >= low
    assert len(pts) == len(marked_chain_points(A, lam))


def _reference_order_points(A, lam):
    """Every integer point of the box [0, marking(a_1)]^A, in lexicographic
    order, that respects `_reference_greater`: x_q >= x_r for roots q > r,
    and a root below (above) a marker is at most (at least) its marking."""
    roots, markers = A.sorted_roots(), _markers(A.n)
    top = _marking(lam, markers[0])
    pairs = [(a, b) for a in range(len(roots)) for b in range(len(roots))
             if _reference_greater(roots[a], roots[b])]
    ceilings = [min([_marking(lam, m) for m in markers if _reference_greater(m, r)])
                for r in roots]
    floors = [max([_marking(lam, m) for m in markers if _reference_greater(r, m)])
              for r in roots]
    return tuple(x for x in product(range(top + 1), repeat=len(roots))
                 if all(floors[c] <= x[c] <= ceilings[c] for c in range(len(roots)))
                 and all(x[a] >= x[b] for a, b in pairs))


def test_order_points_match_brute_force_reference():
    """Point by point, on every subset at ranks 1-3, at rho and at one
    weight with a zero coefficient."""
    checked = 0
    for n, other in ((1, (0,)), (2, (2, 0)), (3, (1, 0, 2))):
        for lam in (rho(n), DominantWeight(other)):
            for A in all_subsets(n):
                got = marked_order_points(A, lam)
                assert got.roots == A.sorted_roots()
                assert got.tuples == _reference_order_points(A, lam)
                checked += 1
    assert checked == 2 * (2 + 8 + 64)


def _reference_chain_inequalities(lam, chains):
    """The chain system bounded by marking differences: each chain's top
    marking less its bottom marking, at lam."""
    return [Inequality(support, _marking(lam, top) - _marking(lam, bottom))
            for support, (top, bottom) in sorted(chains.items())]


def test_chain_bounds_are_path_bounds_of_their_supports():
    """Each marking difference is the weight on the coroot of the chain's
    base root: every subset at ranks 1-3 for every weight in {0,1,2}^n, and
    every subset at rank 4 at rho.  The chains do not depend on the weight,
    so each subset's are walked once."""
    sweeps = [(A, [DominantWeight(c) for c in product(range(3), repeat=n)])
              for n in (1, 2, 3) for A in all_subsets(n)]
    sweeps += [(A, [rho(4)]) for A in all_subsets(4)]
    assert sum(len(weights) for _, weights in sweeps) == 2 * 3 + 8 * 9 + 64 * 27 + 1024
    for A, weights in sweeps:
        supports, chains = _chain_supports(A), _reference_marker_chains(A)
        for lam in weights:
            assert (support_inequalities(supports, lam)
                    == _reference_chain_inequalities(lam, chains))


def test_chain_supports_are_path_supports_for_triangular_subsets():
    """For a triangular subset every saturated marker-to-marker chain is a
    grid-closed restricted path, so the chain system is part of the path
    system; this is one half of the face being the marked chain polytope."""
    triangular = [A for n in (1, 2, 3, 4) for A in all_subsets(n) if is_triangular_subset(A)]
    assert len(triangular) == 242
    for A in triangular:
        assert set(_chain_supports(A)) <= set(enumerate_dyck_paths_for(A))


def test_counts_match_the_enumerators():
    """Chain and order counts against the point lists: every subset at ranks
    1-3 for every weight in {0,1,2}^n, and all 1,024 rank-4 subsets at rho(4)
    (the whole test within a budget of 3 s)."""
    sweeps = [(A, DominantWeight(c)) for n in (1, 2, 3) for A in all_subsets(n)
              for c in product(range(3), repeat=n)]
    sweeps += [(A, rho(4)) for A in all_subsets(4)]
    assert len(sweeps) == 2 * 3 + 8 * 9 + 64 * 27 + 1024
    for A, lam in sweeps:
        assert count_order_points(A, lam) == len(marked_order_points(A, lam))
        assert count_chain_points(A, lam) == len(marked_chain_points(A, lam))


def _packed_count_sweep(t):
    """Every subset at rank 3 and every triangular subset at rank 4, at t
    rho and at t times a weight with a zero coefficient."""
    sweeps = [(A, rho(3).scale(t)) for A in all_subsets(3)]
    sweeps += [(A, DominantWeight((2, 0, 1)).scale(t)) for A in all_subsets(3)]
    triangular = [A for A in all_subsets(4) if is_triangular_subset(A)]
    sweeps += [(A, rho(4).scale(t)) for A in triangular]
    sweeps += [(A, DominantWeight((1, 0, 2, 1)).scale(t)) for A in triangular]
    assert len(sweeps) == 2 * 64 + 2 * 199
    return sweeps


@pytest.mark.parametrize("t", [1, 2, pytest.param(3, marks=pytest.mark.slow)])
def test_packed_counts_match_the_enumerators_at_dilations(t):
    """The packed order count and the planned chain count against the point
    lists, at t rho for t = 1, 2 (and 3, 3.7 million points at rank 4,
    under `-m slow`)."""
    for A, lam in _packed_count_sweep(t):
        assert count_order_points(A, lam) == len(marked_order_points(A, lam)), (A, lam)
        assert count_chain_points(A, lam) == len(marked_chain_points(A, lam)), (A, lam)


def test_order_count_reaches_rank5_dilations():
    """The DP counts what no enumeration could list: 3 rho(5) is 4^15."""
    assert count_order_points(RootSubset.full(5), rho(5).scale(3)) == 4 ** 15


@pytest.mark.parametrize("t", [1, 2, 3])
def test_chain_and_order_counts_at_rank5_dilations(t):
    """The Ehrhart rows of the full triangle at rank 5: both counts are
    (t + 1)^15, the dimension of V(t rho(5))."""
    A, lam = RootSubset.full(5), rho(5).scale(t)
    assert count_chain_points(A, lam) == (t + 1) ** 15 == count_order_points(A, lam)


def test_identity_holds_for_every_triangular_subset():
    """The face of every triangular subset at ranks 1-5 is its marked chain
    polytope at every weight; about 2 s, most of it rank 5."""
    counts = []
    for n in (1, 2, 3, 4, 5):
        triangular = [A for A in all_subsets(n) if is_triangular_subset(A)]
        assert all(is_marked_chain_face(A) for A in triangular)
        counts.append(len(triangular))
    assert counts == [2, 7, 34, 199, 1308]


@pytest.mark.slow
def test_identity_holds_for_every_triangular_element_at_rank6():
    """The 1,552 triangular elements of rank 6; 8-30 s."""
    triangular = [w for w in all_permutations(6) if is_triangular_element(w)]
    assert len(triangular) == 1552
    assert all(is_marked_chain_face(inversion_roots(w)) for w in triangular)


def test_identity_fails_where_a_path_has_no_chain():
    """Neither an unbounded face nor the separated pair 1.2, 2.3 is a
    marked chain polytope; the non-triangular pair of simple roots is."""
    assert not is_marked_chain_face(RootSubset.of(3, [Root(1, 2), Root(1, 3), Root(2, 3)]))
    assert not is_marked_chain_face(RootSubset.of(3, [Root(1, 2), Root(2, 3)]))
    pair = RootSubset.of(2, [Root(1, 1), Root(2, 2)])
    assert is_marked_chain_face(pair) and not is_triangular_subset(pair)


def _certified_cases(n, weights):
    """(A, lambda, S(lambda)) for every subset of rank n whose face is its
    marked chain polytope, at each weight with a bounded face."""
    for A in all_subsets(n):
        if not is_marked_chain_face(A):
            continue
        for lam in weights:
            try:
                yield A, lam, enumerate_lattice_points(A, lam)
            except UnboundedFaceError:
                pass


def _assert_sums_fill_dilations(cases):
    checked = 0
    for A, lam, S in cases:
        assert minkowski_sum(S, S) == enumerate_lattice_points(A, lam.scale(2))
        assert reduce(minkowski_sum, [S] * 3) == enumerate_lattice_points(A, lam.scale(3))
        checked += 1
    return checked


def _weights(n, keep):
    return [DominantWeight(c) for c in product(range(3), repeat=n) if keep(c)]


def test_certificate_agrees_with_packed_sums():
    """Where the identity holds, the certificate's claims are facts of the
    packed sums: S + S = S(2 lambda) and S + S + S = S(3 lambda), for every
    weight in {0,1,2}^n, zero coefficients included, at ranks 1-2, and at
    rank 3 for the weights of coefficient sum at most 3 (the rest, 9 s, is
    the slow test below)."""
    cases = [case for n in (1, 2) for case in _certified_cases(n, _weights(n, lambda c: True))]
    cases += _certified_cases(3, _weights(3, lambda c: sum(c) <= 3))
    assert _assert_sums_fill_dilations(cases) == 2 * 3 + 8 * 9 + 52 * 17


@pytest.mark.slow
def test_certificate_agrees_with_packed_sums_at_large_rank3_weights():
    """The rank-3 weights in {0,1,2}^3 of coefficient sum 4 to 6."""
    cases = _certified_cases(3, _weights(3, lambda c: sum(c) > 3))
    assert _assert_sums_fill_dilations(cases) == 52 * 10


def _lower_covers(A):
    """Each root of A with its lower covers in the reference order, roots
    and markers alike."""
    below = {r: [] for r in A.sorted_roots()}
    for upper, lower in _reference_covers(A):
        if isinstance(upper, Root):
            below[upper].append(lower)
    return below


def _top_below(x, r, nu, below):
    """The largest value of a lower cover of r, a marker reading its
    marking at nu."""
    return max(x[q] if isinstance(q, Root) else _marking(nu, q) for q in below[r])


def _transfer(roots, nu, x, below):
    """phi(x) for a point x of the order polytope at nu, as a tuple."""
    return tuple(x[r] - _top_below(x, r, nu, below) for r in roots)


def _lift(roots, nu, u, below):
    """phi^-1(u) for a point u of the chain polytope at nu, bottom up: x_p
    = u_p + the largest x of a lower cover of p."""
    x = {}
    for r, v in reversed(list(zip(roots, u))):  # a lower cover of r is later, or a marker
        x[r] = v + _top_below(x, r, nu, below)
    return x


def _level_filter_split(roots, lam, mu, x):
    """Split x in the order polytope at lam + mu as the certificate of
    `verify` splits it: the level sets F_k = {x >= k} are dealt out by
    their marker counts c(k), the first lam_j filters with c(k) = j to y
    and the other mu_j to z, and each side sums its filters' indicators."""
    markers = _markers(lam.n)
    nu = lam + mu
    y, z = dict.fromkeys(roots, 0), dict.fromkeys(roots, 0)
    left = list(lam.coeffs)
    for k in range(1, _marking(nu, markers[0]) + 1):
        c = sum(_marking(nu, m) >= k for m in markers)
        side = z if not left[c - 1] else y
        left[c - 1] -= side is y
        for r in roots:
            side[r] += x[r] >= k
    return y, z


def _certified_pairs(n, pairs):
    """(A, lam, mu) for every subset of rank n whose face is its marked
    chain polytope and bounded, at each pair of weights."""
    for A, _, _ in _certified_cases(n, [rho(n)]):
        for lam, mu in pairs:
            yield A, DominantWeight(lam), DominantWeight(mu)


def test_level_filter_split_is_a_comonotone_sum():
    """Every point x of O(lambda + mu) splits as y + z with y in O(lambda)
    and z in O(mu), comonotone with x on roots and markers alike, and phi
    adds over the split, so phi(x) is a sum of points of S(lambda) and
    S(mu): on every subset at ranks 1-3 where the identity holds, at pairs
    lambda != mu, zero coefficients included."""
    pairs = {1: [((1,), (2,))], 2: [((1, 0), (0, 1)), ((2, 0), (1, 1))],
             3: [((1, 0, 2), (0, 1, 1)), ((1, 1, 1), (2, 0, 0))]}
    checked = 0
    for n, weights in pairs.items():
        for A, lam, mu in _certified_pairs(n, weights):
            roots, below, nu = A.sorted_roots(), _lower_covers(A), lam + mu
            order = {lam: set(marked_order_points(A, lam).tuples),
                     mu: set(marked_order_points(A, mu).tuples)}
            face = {lam: set(enumerate_lattice_points(A, lam).tuples),
                    mu: set(enumerate_lattice_points(A, mu).tuples)}
            for u in marked_chain_points(A, nu).tuples:
                x = _lift(roots, nu, u, below)
                y, z = _level_filter_split(roots, lam, mu, x)
                assert tuple(y[r] for r in roots) in order[lam]
                assert tuple(z[r] for r in roots) in order[mu]
                assert all(y[r] + z[r] == x[r] for r in roots)
                values = [(x[e], y[e], z[e]) if isinstance(e, Root)
                          else (_marking(nu, e), _marking(lam, e), _marking(mu, e))
                          for e in _elements(A)]
                assert all(b[1] <= a[1] and b[2] <= a[2]
                           for a in values for b in values if b[0] <= a[0])
                phi_y, phi_z = _transfer(roots, lam, y, below), _transfer(roots, mu, z, below)
                assert phi_y in face[lam] and phi_z in face[mu]
                assert tuple(map(sum, zip(phi_y, phi_z))) == u == _transfer(roots, nu, x, below)
                checked += 1
    assert checked == 4216


def test_level_filter_split_writes_dilated_points_as_sums():
    """Every point of C(2 lambda) and C(3 lambda) is a sum of points of
    S(lambda), split as the certificate of `verify` splits it, the case
    mu = (k-1) lambda applied down to k = 2, on every subset at ranks 1-3
    where the identity holds, at rho and at one weight with a zero
    coefficient."""
    checked = 0
    for n, other in ((1, (2,)), (2, (2, 0)), (3, (1, 0, 2))):
        for A, lam, S in _certified_cases(n, [rho(n), DominantWeight(other)]):
            face = set(S.tuples)
            roots, below = S.roots, _lower_covers(A)
            for k in (2, 3):
                for u in marked_chain_points(A, lam.scale(k)).tuples:
                    pieces, rest = [], u
                    for j in range(k, 1, -1):
                        x = _lift(roots, lam.scale(j), rest, below)
                        y, z = _level_filter_split(roots, lam, lam.scale(j - 1), x)
                        pieces.append(_transfer(roots, lam, y, below))
                        rest = _transfer(roots, lam.scale(j - 1), z, below)
                    pieces.append(rest)
                    assert all(piece in face for piece in pieces)
                    assert tuple(map(sum, zip(*pieces))) == u
                    checked += 1
    assert checked == 30_117
