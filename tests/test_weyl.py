"""Permutations, inversion sets, triangular and Kempf elements."""

import gc
import itertools

import pytest

import fflv.weyl
from fflv.roots import Root, all_positive_roots
from fflv.weyl import (
    Permutation,
    RootSubset,
    all_permutations,
    classify_permutations,
    inversion_roots,
    is_kempf,
    is_triangular_element,
    is_triangular_subset,
    parse_permutation,
    reduced_word,
)


def test_permutation_basics():
    w = Permutation.from_oneline((3, 1, 4, 2))
    assert w(1) == 3 and w(4) == 2
    assert w.n == 3
    assert w.length() == 3
    assert (w * w.inverse()).is_identity()
    with pytest.raises(ValueError):
        Permutation.from_oneline((1, 1, 2))


def test_word_composition_convention():
    """Words multiply left to right: s1*s3*s2 sends 2 to 4."""
    w = Permutation.from_word((1, 3, 2), 3)
    assert w.images == (2, 4, 1, 3)
    u = Permutation.from_word((2, 3, 1), 3)
    assert u.images == (3, 1, 4, 2)
    assert u == w.inverse()


def test_longest_element():
    w0 = Permutation.longest(3)
    assert w0.images == (4, 3, 2, 1)
    assert w0.length() == 6
    assert inversion_roots(w0).members == set(all_positive_roots(3))


def test_parse_permutation_both_grammars():
    assert parse_permutation("s2 s3 s1", 3).images == (3, 1, 4, 2)
    assert parse_permutation("3 1 4 2", 3).images == (3, 1, 4, 2)
    assert parse_permutation("", 3).is_identity()
    with pytest.raises(ValueError):
        parse_permutation("s1 2", 3)
    with pytest.raises(ValueError):
        parse_permutation("2 1", 3)


def test_inversion_roots_match_length():
    for w in all_permutations(3):
        assert len(inversion_roots(w).members) == w.length()


def test_inversion_roots_example():
    w = Permutation.from_oneline((3, 1, 4, 2))
    assert inversion_roots(w).members == {Root(1, 1), Root(3, 3), Root(1, 3)}


def test_triangular_census_s4():
    """Exactly two elements of the 24 fail the triangular condition."""
    bad = [w.images for w in all_permutations(3) if not is_triangular_element(w)]
    assert bad == [(2, 4, 1, 3), (4, 2, 3, 1)]


def test_triangular_subset_examples():
    assert is_triangular_subset(RootSubset.of(2, [Root(1, 1), Root(2, 2), Root(1, 2)]))
    assert not is_triangular_subset(RootSubset.of(2, [Root(1, 1), Root(2, 2)]))
    assert is_triangular_subset(RootSubset.of(3, [Root(1, 1), Root(3, 3), Root(1, 3)]))
    assert is_triangular_subset(RootSubset.full(4))
    assert is_triangular_subset(RootSubset.of(3, []))


def test_element_subset_triangularity_agree_s4():
    for w in all_permutations(3):
        assert is_triangular_element(w) == is_triangular_subset(inversion_roots(w))


def test_kempf_counts():
    """Weakly increasing segment tops: 5, 14, 42 (the Catalan numbers)."""
    assert sum(is_kempf(w) for w in all_permutations(2)) == 5
    assert sum(is_kempf(w) for w in all_permutations(3)) == 14
    assert sum(is_kempf(w) for w in all_permutations(4)) == 42


def test_kempf_implies_triangular_s5():
    for w in all_permutations(4):
        if is_kempf(w):
            assert is_triangular_element(w)


def test_kempf_examples():
    assert is_kempf(Permutation.longest(3))
    assert is_kempf(Permutation.identity(3))
    assert not is_kempf(Permutation.from_oneline((3, 1, 4, 2)))


def test_factorization_round_trip():
    """Segment tops rebuild the permutation, Kempf or not."""
    for n in (2, 3, 4, 5):
        for w in all_permutations(n):
            ells = reference_kempf_factorization(w)
            assert len(ells) == n
            assert all(i - 1 <= ell <= n for i, ell in enumerate(ells, start=1))
            assert permutation_from_segments(ells) == w


def test_factorization_tops_weakly_increasing_iff_kempf():
    for w in all_permutations(3):
        ells = reference_kempf_factorization(w)
        increasing = all(ells[i] <= ells[i + 1] for i in range(len(ells) - 1))
        assert increasing == is_kempf(w)


def _segment(n, i, ell):
    """The right-end segment s_ell s_{ell-1} ... s_i as a permutation.

    ell = i - 1 encodes the empty segment.  As a map it is the cycle sending
    i to ell+1 and m to m-1 for i < m <= ell+1.
    """
    im = list(range(1, n + 2))
    if ell >= i:
        im[i - 1] = ell + 1
        for m in range(i + 1, ell + 2):
            im[m - 1] = m - 1
    return Permutation(tuple(im))


def permutation_from_segments(ells):
    """Rebuild w = w_1 w_2 ... w_n from segment tops, w_i = s_{ell_i} ... s_i.

    Inverse of the segment factorization: any tops with i-1 <= ell_i <= n
    determine a unique permutation (ell_i = i-1 encodes the empty segment).
    """
    ells = tuple(ells)
    n = len(ells)
    for i, ell in enumerate(ells, start=1):
        if not i - 1 <= ell <= n:
            raise ValueError(f"segment top ell_{i}={ell} outside {i - 1}..{n}")
    w = Permutation.identity(n)
    for i in range(n, 0, -1):
        w = _segment(n, i, ells[i - 1]) * w
    return w


def kempf_complement(n, ells):
    """Complement of the inversion set of the Kempf element with segment tops
    (ell_1, ..., ell_n).

    Validates that the tops are weakly increasing (the Kempf condition in
    segment form) and returns all positive roots that are not inversions of
    the rebuilt element.  When consecutive tops rise by at most one, the
    result is the union of left-justified blocks: block i spans columns 1..i
    and rows i..i + (ell_{i+1} - ell_i - 1) with the convention ell_{n+1} = n.
    Larger jumps deepen earlier columns beyond their block, so the set is
    always computed from the element itself.
    """
    ells = tuple(ells)
    if len(ells) != n:
        raise ValueError(f"need {n} segment tops, got {len(ells)}")
    if any(ells[i] > ells[i + 1] for i in range(n - 1)):
        raise ValueError(f"segment tops must be weakly increasing, got {ells}")
    w = permutation_from_segments(ells)
    inv = inversion_roots(w).members
    return RootSubset(n, frozenset(set(all_positive_roots(n)) - inv))


def test_kempf_complement_is_true_complement():
    """The complement always agrees with the rebuilt element's inversions."""
    for n in (2, 3, 4):
        for w in all_permutations(n):
            if not is_kempf(w):
                continue
            ells = reference_kempf_factorization(w)
            comp = kempf_complement(n, ells)
            expected = set(all_positive_roots(n)) - inversion_roots(w).members
            assert comp.members == expected
            assert len(comp.members) + w.length() == len(all_positive_roots(n))


def test_kempf_complement_with_empty_segment():
    """Tops (0,2,3): the empty first segment pushes a tall root into the
    complement that no left-justified block pattern would contain."""
    comp = kempf_complement(3, (0, 2, 3))
    assert Root(1, 3) in comp.members
    w = permutation_from_segments((0, 2, 3))
    assert comp.members == set(all_positive_roots(3)) - inversion_roots(w).members


def test_kempf_complement_all_segments_nontrivial():
    """Tops (1,3,4,4) have every segment nonempty yet the complement still
    reaches above the blocks."""
    comp = kempf_complement(4, (1, 3, 4, 4))
    w = permutation_from_segments((1, 3, 4, 4))
    assert w.images == (2, 4, 5, 3, 1)
    assert Root(1, 3) in comp.members
    assert len(comp.members) == 10 - w.length()


def test_kempf_complement_validation():
    with pytest.raises(ValueError):
        kempf_complement(3, (2, 1, 3))
    with pytest.raises(ValueError):
        kempf_complement(3, (0, 1))
    with pytest.raises(ValueError):
        permutation_from_segments((5, 1, 2))


def test_reduced_word_properties():
    for w in all_permutations(3):
        word = reduced_word(w)
        assert len(word) == w.length()
        assert Permutation.from_word(word, 3) == w


def test_reduced_word_is_lex_smallest():
    assert reduced_word(Permutation.from_oneline((2, 4, 1, 3))) == (1, 3, 2)
    assert reduced_word(Permutation.longest(2)) == (1, 2, 1)


# Reference implementations: the direct definitions that the Lehmer-code and
# pattern-avoidance kernels in fflv.weyl replaced.


def reference_length(w):
    im = w.images
    return sum(1 for a in range(len(im)) for b in range(a + 1, len(im)) if im[a] > im[b])


def reference_kempf_factorization(w):
    n = w.n
    ells = []
    cur = list(w.images)
    for i in range(1, n + 1):
        top = cur[i - 1]
        ells.append(top - 1)
        for k, v in enumerate(cur):
            if i <= v <= top:
                cur[k] = i if v == top else v + 1
    if cur != list(range(1, n + 2)):
        raise AssertionError("segment factorization failed to terminate at identity")
    return tuple(ells)


def reference_is_kempf(w):
    n = w.n
    ells = reference_kempf_factorization(w)
    for i in range(1, n):
        if ells[i] < n:
            len_i = ells[i - 1] - i + 1
            len_i1 = ells[i] - (i + 1) + 1
            if len_i > len_i1 + 1:
                return False
    return True


def reference_is_triangular_element(w):
    im = w.images
    m = len(im)
    for i in range(1, m + 1):
        for k in range(i + 1, m + 1):
            for j in range(k, m + 1):
                if im[i - 1] <= im[j - 1]:
                    continue
                for l in range(j + 1, m + 1):
                    if im[k - 1] > im[l - 1]:
                        if im[i - 1] <= im[l - 1] or im[k - 1] < im[j - 1]:
                            return False
    return True


def test_lehmer_kernel_matches_the_definitions_on_s2_to_s8():
    for n in range(1, 8):
        for w in all_permutations(n):
            assert w.length() == reference_length(w), w
            # is_kempf reads the segment tops off the Lehmer code: ell_i = i - 1 + c_i.
            im = w.images
            assert reference_kempf_factorization(w) == tuple(
                k + sum(1 for v in im[k + 1:] if v < im[k]) for k in range(n)), w
            assert is_kempf(w) == reference_is_kempf(w), w
            assert is_triangular_element(w) == reference_is_triangular_element(w), w


def contains_pattern(images, pattern):
    k = len(pattern)
    for positions in itertools.combinations(range(len(images)), k):
        values = [images[p] for p in positions]
        if all((values[a] < values[b]) == (pattern[a] < pattern[b])
               for a in range(k) for b in range(a + 1, k)):
            return True
    return False


def test_triangular_iff_avoids_2413_and_4231():
    for n in (4, 5):
        for w in all_permutations(n):
            avoids = not (contains_pattern(w.images, (2, 4, 1, 3))
                          or contains_pattern(w.images, (4, 2, 3, 1)))
            assert is_triangular_element(w) == avoids, w


def test_kempf_and_triangular_counts_s6_to_s8():
    """Kempf counts are the Catalan numbers; the triangular counts are
    those of the direct definition."""
    for n, kempf, triangular in ((5, 132, 366), (6, 429, 1552), (7, 1430, 6652)):
        perms = all_permutations(n)
        assert sum(map(is_kempf, perms)) == kempf
        assert sum(map(is_triangular_element, perms)) == triangular


def test_walk_rows_are_the_per_element_classification_on_s2_to_s8():
    """The prefix walk gives, element by element and in order, the text,
    length and flags of the per-element functions; n = 1 has no prefix
    level before its last two letters."""
    for n in range(1, 8):
        want = [(str(w), w.length(), is_kempf(w), is_triangular_element(w))
                for w in all_permutations(n)]
        assert classify_permutations(n) == want, n


def test_walk_rejects_rank_below_one():
    with pytest.raises(ValueError, match="rank must be >= 1"):
        classify_permutations(0)


def test_walk_steps_only_prefixes_of_at_most_n_minus_2_letters(monkeypatch):
    """S_8 is walked over its prefixes of at most 5 letters, 8 + 8*7 + ...
    + 8*7*6*5*4 = 8,800 steps; the last three letters take none."""
    steps = []
    step = fflv.weyl._step

    def counted(state, x):
        steps.append(x)
        return step(state, x)

    monkeypatch.setattr(fflv.weyl, "_step", counted)
    rows = classify_permutations(7)
    assert len(rows) == 40_320
    assert len(steps) == 8_800


# Words of S_5 whose prefix of two letters holds no pattern and forbids no
# free value a < b < c, so their triangularity is decided by the completion
# alone.  Ij before Ik means a prefix letter of Ij stands before one of Ik,
# for I1 = (a, b), I2 = (b, c) and I3 = (c, oo).  Each word of the first
# eight fails through exactly one of the eight conditions of
# `classify_permutations`; the last six pass, one per order.
COMPLETIONS = [
    ("2 4 1 3 5", "abc", "I1 before I2", False),
    ("2 5 1 3 4", "abc", "I1 before I3", False),
    ("3 5 1 2 4", "abc", "I2 before I3", False),
    ("4 2 3 1 5", "bac", "I2 before I1", False),
    ("5 2 4 3 1", "cba", "I3 before I1", False),
    ("5 3 4 2 1", "cba", "I3 before I2", False),
    ("1 3 5 2 4", "cab", "a prefix letter in I1", False),
    ("1 5 3 4 2", "bca", "a prefix letter in I3", False),
    ("4 2 1 3 5", "abc", "I2 before I1 only", True),
    ("4 2 1 5 3", "acb", "I2 before I1 only", True),
    ("2 4 3 1 5", "bac", "I1 before I2 only", True),
    ("2 4 3 5 1", "bca", "I1 before I2 only", True),
    ("4 3 5 1 2", "cab", "two letters of I2", True),
    ("2 4 5 3 1", "cba", "I1 before I2 only", True),
]


def completion_conditions(images):
    """The conditions on the last three letters that hold for a word, from
    their definitions: a pair u ... v of them with u < v is blocked by a
    prefix letter in (u, v) standing before one above v, and with u > v by
    a prefix letter above u standing before one in (v, u)."""
    prefix, tail = images[:-3], images[-3:]
    a, b, c = sorted(tail)
    ends = (a, b, c, len(images) + 1)
    interval = {v: j for j in (1, 2, 3) for v in range(ends[j - 1] + 1, ends[j])}
    before = {(interval[x], interval[y]) for i, x in enumerate(prefix) for y in prefix[i + 1:]
              if x in interval and y in interval and interval[x] != interval[y]}
    found = set()
    for i, u in enumerate(tail):
        for v in tail[i + 1:]:
            for j, k in before:
                if (u < v and u <= ends[j - 1] and ends[j] <= v and ends[k - 1] >= v
                        or u > v and ends[j - 1] >= u and v <= ends[k - 1] and ends[k] <= u):
                    found.add(f"I{j} before I{k}")
    if tail == (c, a, b) and any(a < x < b for x in prefix):
        found.add("a prefix letter in I1")
    if tail == (b, c, a) and any(x > c for x in prefix):
        found.add("a prefix letter in I3")
    return found


@pytest.mark.parametrize("word, order, reason, triangular", COMPLETIONS)
def test_completion_conditions_one_at_a_time(word, order, reason, triangular):
    images = tuple(map(int, word.split()))
    a, b, c = sorted(images[2:])
    assert images[2:] == tuple({"a": a, "b": b, "c": c}[k] for k in order)
    assert completion_conditions(images) == (set() if triangular else {reason})
    w = Permutation(images)
    assert is_triangular_element(w) == triangular, reason
    row = next(row for row in classify_permutations(4) if row[0] == word)
    assert row == (word, w.length(), is_kempf(w), triangular), reason


@pytest.mark.slow
def test_walk_rows_are_the_per_element_classification_on_s9():
    """The prefix walk against the per-element functions on all 362,880
    elements of S_9, one rank past the tier-1 comparison."""
    rows = classify_permutations(8)
    assert len(rows) == 362_880
    for row, images in zip(rows, itertools.permutations(range(1, 10))):
        w = Permutation(images)
        assert row == (str(w), w.length(), is_kempf(w), is_triangular_element(w)), w


def test_folds_on_three_hundred_letters():
    """The folds take letters of any size: a prefix stored one byte per
    letter could not hold 256 .. 300."""
    w0 = Permutation.longest(299)
    assert is_triangular_element(w0)
    assert is_kempf(w0)
    assert w0.length() == 300 * 299 // 2 == 44_850
    w = Permutation((2, 4, 1, 3) + tuple(range(5, 301)))
    assert not is_triangular_element(w)
    assert not is_kempf(w)
    assert w.length() == 3


def test_walk_states_are_not_tracked_by_the_cyclic_collector():
    """A state's prefix is never tracked, and the collector untracks a
    state the first time it meets one, so the states a walk keeps are not
    walked again by every later collection."""
    states = [fflv.weyl._ROOT]
    for x in (3, 1, 4, 2, 5):
        states.append(fflv.weyl._step(states[-1], x))
    assert not any(gc.is_tracked(state[6]) for state in states)
    gc.collect()
    assert not any(gc.is_tracked(state) for state in states)
