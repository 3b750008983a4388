"""Marked posets and their chain and order point counts."""

from itertools import combinations, product

from fflv.marked_poset import (
    Marker,
    _chain_supports,
    build_marked_poset,
    marked_chain_points,
    marked_order_points,
)
from fflv.paths import enumerate_dyck_paths_for
from fflv.polytope import Inequality, enumerate_lattice_points, support_inequalities
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
