"""Characters, divided-difference operators, and the lattice-point character."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fflv.characters import (
    Character,
    character_from_lattice_points,
    demazure_character_oracle,
    demazure_operator,
    demazure_operator_division,
    face_character,
    to_partition,
    weyl_dimension,
)
from fflv.polytope import UnboundedFaceError, enumerate_lattice_points
from fflv.roots import DominantWeight, rho
from fflv.weyl import Permutation, all_permutations, inversion_roots, is_triangular_element


def test_to_partition_tail_sums():
    assert to_partition(DominantWeight((2, 1))) == (3, 1, 0)
    assert to_partition(rho(3)) == (3, 2, 1, 0)
    assert to_partition(DominantWeight((0, 0, 0))) == (0, 0, 0, 0)


def test_character_cleanup_and_mass():
    ch = Character(1, {(1, 0): 2, (0, 1): 0, (2, -1): -1})
    assert ch.terms == {(1, 0): 2, (2, -1): -1}
    assert ch.mass == 1
    assert Character(1, {}).mass == 0
    with pytest.raises(ValueError):
        Character(1, {(1, 0, 0): 1})


def test_character_equality():
    """Equal terms at equal rank compare equal; zero terms do not count."""
    a = Character(1, {(0, 1): 2, (1, 0): 0})
    assert a == Character.monomial(1, (0, 1), 2)
    assert a != Character.monomial(1, (0, 1))
    assert Character(1, {}) != Character(2, {})
    assert a != a.terms


def test_operator_string_cases():
    # d >= 0 slides the pair down to its swap
    f = Character.monomial(1, (2, 0))
    assert demazure_operator(1, f).terms == {(2, 0): 1, (1, 1): 1, (0, 2): 1}
    # d = -1 kills the monomial
    assert demazure_operator(1, Character.monomial(1, (0, 1))).terms == {}
    # d <= -2 produces minus the interior string
    g = demazure_operator(1, Character.monomial(1, (0, 3)))
    assert g.terms == {(1, 2): -1, (2, 1): -1}
    with pytest.raises(ValueError):
        demazure_operator(2, f)


def test_operator_drops_cancelled_terms():
    """The operator builds its output without validation, yet a term that
    cancels to zero is dropped: D_1(x^(2,0) + x^(0,2)) is x^(2,0) + x^(0,2),
    the +x^(1,1) of the first string against the -x^(1,1) of the second."""
    f = Character(1, {(2, 0): 1, (0, 2): 1})
    g = demazure_operator(1, f)
    assert g.terms == {(2, 0): 1, (0, 2): 1}
    assert g == f


small_characters = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)),
    st.integers(-2, 3),
    max_size=5,
).map(lambda terms: Character(2, terms))


@settings(max_examples=60, deadline=None)
@given(small_characters, st.integers(1, 2))
def test_operator_is_idempotent(ch, i):
    once = demazure_operator(i, ch)
    assert demazure_operator(i, once) == once


@settings(max_examples=60, deadline=None)
@given(small_characters, st.integers(1, 2))
def test_operator_agrees_with_polynomial_division(ch, i):
    assert demazure_operator(i, ch) == demazure_operator_division(i, ch)


def test_oracle_identity_and_longest():
    lam = DominantWeight((2, 1))
    ch_id = demazure_character_oracle(Permutation.identity(2), lam)
    assert ch_id.terms == {(3, 1, 0): 1}
    full = demazure_character_oracle(Permutation.longest(2), lam)
    assert full.mass == weyl_dimension(lam) == 15
    assert all(m > 0 for m in full.terms.values())


def test_oracle_is_word_independent():
    lam = DominantWeight((2, 1))
    start = Character.monomial(2, to_partition(lam))
    via_121 = start
    for i in reversed((1, 2, 1)):
        via_121 = demazure_operator(i, via_121)
    via_212 = start
    for i in reversed((2, 1, 2)):
        via_212 = demazure_operator(i, via_212)
    assert via_121 == via_212
    assert via_121 == demazure_character_oracle(Permutation.longest(2), lam)


def test_oracle_masses_are_monotone_in_length():
    lam = rho(3)
    by_length = {}
    for w in all_permutations(3):
        by_length.setdefault(w.length(), set()).add(demazure_character_oracle(w, lam).mass)
    assert by_length[0] == {1}
    assert max(by_length[6]) == weyl_dimension(lam) == 64


def test_lattice_character_matches_oracle_for_triangular():
    for lam in (DominantWeight((1, 1)), DominantWeight((2, 1))):
        for w in all_permutations(2):
            assert is_triangular_element(w)
            points = enumerate_lattice_points(inversion_roots(w), lam)
            got = character_from_lattice_points(points, lam, w)
            assert got == demazure_character_oracle(w, lam)


def test_lattice_character_accepts_precomputed_points():
    lam = DominantWeight((2, 1))
    w = Permutation.longest(2)
    pts = enumerate_lattice_points(inversion_roots(w), lam)
    assert character_from_lattice_points(pts, lam, w) == demazure_character_oracle(w, lam)
    other = inversion_roots(Permutation.simple(1, 2))
    with pytest.raises(ValueError):
        character_from_lattice_points(enumerate_lattice_points(other, lam), lam, w)


def test_lattice_character_of_non_triangular_element():
    """The sum is formed for any w; for this non-triangular element at this
    weight it happens to coincide with the operator character anyway."""
    w = Permutation.from_word((1, 3, 2), 3)
    lam = rho(3)
    points = enumerate_lattice_points(inversion_roots(w), lam)
    forced = character_from_lattice_points(points, lam, w)
    assert forced.mass == len(points) == 13
    assert forced == demazure_character_oracle(w, lam)


def test_lattice_character_validates_subset():
    """The point set must be a face of the inversion set of w, at the rank
    of the weight."""
    w = Permutation.longest(2)
    lam = DominantWeight((1, 1))
    wrong = enumerate_lattice_points(inversion_roots(Permutation.simple(1, 2)), lam)
    with pytest.raises(ValueError):
        character_from_lattice_points(wrong, lam, w)
    with pytest.raises(ValueError):
        character_from_lattice_points(enumerate_lattice_points(inversion_roots(w), lam), rho(3), w)


def _listed_character(w, lam):
    """The reference: the character of the listed face points."""
    return character_from_lattice_points(
        enumerate_lattice_points(inversion_roots(w), lam), lam, w)


def _outcome(character, w, lam):
    """What a character function returns, or the root and message of its
    UnboundedFaceError."""
    try:
        return character(w, lam)
    except UnboundedFaceError as exc:
        return exc.root, str(exc)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_face_character_matches_the_listed_points(n):
    """Every element of S_{n+1}, triangular or not, at a fixed weight set:
    the weight-graded character is the one read off the listed points, or
    both raise the same error.  Both may differ from the operator
    character for a non-triangular element, as they do 15 times at rank 4,
    and they still agree."""
    weights = [rho(n), DominantWeight((2,) + (0,) * (n - 1)),
               DominantWeight(tuple(k % 3 for k in range(n)))]
    unbounded = drifted = 0
    for w in all_permutations(n):
        for lam in weights:
            expected = _outcome(_listed_character, w, lam)
            assert _outcome(face_character, w, lam) == expected
            if not isinstance(expected, Character):
                unbounded += 1
            elif expected != demazure_character_oracle(w, lam):
                assert not is_triangular_element(w)
                drifted += 1
    assert (unbounded, drifted) == {1: (0, 0), 2: (0, 0), 3: (3, 0), 4: (33, 15)}[n]


def test_face_character_is_the_demazure_character_for_triangular_rank4():
    """The 88 triangular elements of rank 4, each at three seeded random
    weights in {0..3}^4, against the operator recursion."""
    rng = random.Random(4)
    triangular = [w for w in all_permutations(4) if is_triangular_element(w)]
    assert len(triangular) == 88
    for w in triangular:
        for _ in range(3):
            lam = DominantWeight(tuple(rng.randrange(4) for _ in range(4)))
            assert face_character(w, lam) == demazure_character_oracle(w, lam)


def test_face_character_rejects_a_rank_mismatch():
    with pytest.raises(ValueError):
        face_character(Permutation.longest(2), rho(3))


@pytest.mark.slow
def test_face_character_of_the_rank5_longest_element():
    """14,348,907 points at 2 rho(5), counted by weight; about 2 s."""
    w, lam = Permutation.longest(5), rho(5).scale(2)
    ch = face_character(w, lam)
    assert ch.mass == weyl_dimension(lam) == 14348907
    assert ch == demazure_character_oracle(w, lam)


def test_weyl_dimension_values():
    assert weyl_dimension(DominantWeight((3,))) == 4
    assert weyl_dimension(DominantWeight((1, 1))) == 8
    assert weyl_dimension(DominantWeight((2, 1))) == 15
    assert weyl_dimension(rho(3)) == 64
    assert weyl_dimension(DominantWeight((1, 0, 1))) == 15
    assert weyl_dimension(rho(4)) == 1024
