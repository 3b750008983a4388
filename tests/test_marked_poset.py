"""Marked posets and their chain and order point counts."""

from itertools import combinations, product

import pytest

from fflv.marked_poset import (
    Marker,
    _chain_supports,
    build_marked_poset,
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
    dilate,
    enumerate_lattice_points,
    minkowski_sum,
    support_inequalities,
)
from fflv.roots import DominantWeight, Root, all_positive_roots, rho
from fflv.weyl import RootSubset, all_permutations, inversion_roots, is_triangular_element, is_triangular_subset


def all_subsets(n):
    roots = all_positive_roots(n)
    for k in range(len(roots) + 1):
        for combo in combinations(roots, k):
            yield RootSubset.of(n, combo)


def test_marker_count_and_markings():
    P = build_marked_poset(RootSubset.full(2), DominantWeight((2, 1)))
    assert len(P.markers) == 3
    assert [P.marking(m) for m in P.markers] == [3, 1, 0]


def test_first_marker_on_top_last_on_bottom():
    lam = rho(3)
    for A in all_subsets(3):
        P = build_marked_poset(A, lam)
        top, bottom = Marker(1), Marker(4)
        others = [e for e in P.elements if e not in (top, bottom)]
        assert all(P.greater(top, e) for e in others + [bottom])
        assert all(P.greater(e, bottom) for e in others + [top])


def test_root_sits_between_its_markers():
    P = build_marked_poset(RootSubset.full(3), rho(3))
    assert P.greater(Marker(1), Root(1, 2))
    assert P.greater(Root(1, 2), Marker(3))
    assert not P.greater(Root(1, 2), Marker(2))
    assert not P.greater(Marker(2), Root(1, 2))


def test_covers_are_a_transitive_reduction():
    """On every subset at ranks 1-3, the covers are exactly the related pairs
    with nothing strictly between."""
    for n in (1, 2, 3):
        for A in all_subsets(n):
            P = build_marked_poset(A, rho(n))
            covers = set(P.covers())
            for upper in P.elements:
                for lower in P.elements:
                    between = any(P.greater(upper, mid) and P.greater(mid, lower)
                                  for mid in P.elements)
                    is_cover = P.greater(upper, lower) and not between
                    assert ((upper, lower) in covers) == is_cover


def test_chain_points_match_face_points_for_triangular():
    lam = rho(3)
    for w in all_permutations(3):
        if not is_triangular_element(w):
            continue
        A = inversion_roots(w)
        P = build_marked_poset(A, lam)
        assert len(marked_chain_points(P)) == len(enumerate_lattice_points(A, lam))


def test_chain_count_can_agree_for_non_triangular_subsets():
    """Equality of counts does not single out triangular subsets: the pair of
    simple roots at rank 2 is non-triangular yet the counts agree."""
    A = RootSubset.of(2, [Root(1, 1), Root(2, 2)])
    assert not is_triangular_subset(A)
    lam = DominantWeight((1, 1))
    P = build_marked_poset(A, lam)
    assert len(marked_chain_points(P)) == len(enumerate_lattice_points(A, lam))


def test_chain_equals_order_counts_all_subsets_rank2():
    lam = DominantWeight((2, 1))
    for A in all_subsets(2):
        for t in (1, 2, 3):
            P = build_marked_poset(A, lam.scale(t))
            assert len(marked_chain_points(P)) == len(marked_order_points(P))


def test_order_points_respect_interval_bounds():
    A = RootSubset.full(2)
    lam = DominantWeight((2, 1))
    P = build_marked_poset(A, lam)
    pts = marked_order_points(P)
    assert pts.roots == (Root(1, 1), Root(1, 2), Root(2, 2))
    for top, mid, low in pts.tuples:
        assert 1 <= top <= 3
        assert 0 <= mid <= 3
        assert 0 <= low <= 1
        assert top >= mid >= low
    assert len(pts) == len(marked_chain_points(P))


def _reference_order_points(P):
    """Every integer point of the box [0, marking(a_1)]^A, in lexicographic
    order, that respects `P.greater`: x_q >= x_r for roots q > r, and a
    root below (above) a marker is at most (at least) its marking."""
    roots = P.A.sorted_roots()
    top = P.marking(Marker(1))
    pairs = [(a, b) for a in range(len(roots)) for b in range(len(roots))
             if P.greater(roots[a], roots[b])]
    ceilings = [min([P.marking(m) for m in P.markers if P.greater(m, r)]) for r in roots]
    floors = [max([P.marking(m) for m in P.markers if P.greater(r, m)]) for r in roots]
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
                P = build_marked_poset(A, lam)
                got = marked_order_points(P)
                assert got.roots == A.sorted_roots()
                assert got.tuples == _reference_order_points(P)
                checked += 1
    assert checked == 2 * (2 + 8 + 64)


def _reference_marker_chains(P):
    """The saturated chains running from a marker down through unmarked
    roots to the next marker they meet, as {roots: (top, bottom marker)}."""
    below = {}
    for upper, lower in P.covers():
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

    for m in P.markers:
        descend(m, [], m)
    return found


def _reference_chain_inequalities(P, chains):
    """The chain system bounded by marking differences: each chain's top
    marking less its bottom marking, at the weight of P."""
    return [Inequality(support, P.marking(top) - P.marking(bottom))
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
        P = build_marked_poset(A, weights[0])
        supports, chains = _chain_supports(P), _reference_marker_chains(P)
        for lam in weights:
            assert (support_inequalities(supports, lam)
                    == _reference_chain_inequalities(build_marked_poset(A, lam), chains))


def test_chain_supports_are_path_supports_for_triangular_subsets():
    """For a triangular subset every saturated marker-to-marker chain is a
    grid-closed restricted path, so the chain system is part of the path
    system; this is one half of the face being the marked chain polytope."""
    triangular = [A for n in (1, 2, 3, 4) for A in all_subsets(n) if is_triangular_subset(A)]
    assert len(triangular) == 242
    for A in triangular:
        chains = _chain_supports(build_marked_poset(A, rho(A.n)))
        assert set(chains) <= set(enumerate_dyck_paths_for(A))


def test_counts_match_the_enumerators():
    """Chain and order counts against the point lists: every subset at ranks
    1-3 for every weight in {0,1,2}^n, and all 1,024 rank-4 subsets at rho(4)
    (the whole test within a budget of 3 s)."""
    sweeps = [(A, DominantWeight(c)) for n in (1, 2, 3) for A in all_subsets(n)
              for c in product(range(3), repeat=n)]
    sweeps += [(A, rho(4)) for A in all_subsets(4)]
    assert len(sweeps) == 2 * 3 + 8 * 9 + 64 * 27 + 1024
    for A, lam in sweeps:
        P = build_marked_poset(A, lam)
        assert count_order_points(P) == len(marked_order_points(P))
        assert count_chain_points(P) == len(marked_chain_points(P))


def test_order_count_reaches_rank5_dilations():
    """The DP counts what no enumeration could list: 3 rho(5) is 4^15."""
    P = build_marked_poset(RootSubset.full(5), rho(5).scale(3))
    assert count_order_points(P) == 4 ** 15


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
        assert dilate(S, 3) == enumerate_lattice_points(A, lam.scale(3))
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


def _lower_covers(P):
    """Each root of P with its lower covers, roots and markers alike."""
    below = {r: [] for r in P.A.sorted_roots()}
    for upper, lower in P.covers():
        if isinstance(upper, Root):
            below[upper].append(lower)
    return below


def _hermite_split(P, P_k, k, u, below):
    """Split a point u of the chain polytope of P_k, at k times the weight
    of P, into k points of the chain polytope of P, through the transfer
    map: lift u to x in the order polytope of P_k (bottom up, x_p = u_p +
    the largest x of a lower cover of p), take the Hermite pieces
    floor((x + j) / k), j = 0..k-1, and map each piece back."""
    roots = P.A.sorted_roots()

    def top_below(x, r, marking):
        return max(x[q] if isinstance(q, Root) else marking(q) for q in below[r])

    x = {}
    for r, v in reversed(list(zip(roots, u))):  # a lower cover of r is later, or a marker
        x[r] = v + top_below(x, r, P_k.marking)
    pieces = [{r: (x[r] + j) // k for r in roots} for j in range(k)]
    return [tuple(piece[r] - top_below(piece, r, P.marking) for r in roots)
            for piece in pieces]


def test_hermite_split_writes_dilated_points_as_sums():
    """Every point of C(2 lambda) and C(3 lambda) is a sum of points of
    S(lambda), split as the certificate of `verify` splits it, on every
    subset at ranks 1-3 where the identity holds, at rho and at one weight
    with a zero coefficient."""
    checked = 0
    for n, other in ((1, (2,)), (2, (2, 0)), (3, (1, 0, 2))):
        for A, lam, S in _certified_cases(n, [rho(n), DominantWeight(other)]):
            face = set(S.tuples)
            P = build_marked_poset(A, lam)
            below = _lower_covers(P)
            for k in (2, 3):
                P_k = build_marked_poset(A, lam.scale(k))
                for u in marked_chain_points(P_k).tuples:
                    pieces = _hermite_split(P, P_k, k, u, below)
                    assert all(piece in face for piece in pieces)
                    assert tuple(map(sum, zip(*pieces))) == u
                    checked += 1
    assert checked == 30_117
