"""Symmetric-group elements, inversion sets, triangularity, Kempf elements.

Permutations are elements of S_{n+1} acting on {1, ..., n+1}.  Products of
generator words are evaluated left to right as function composition:
(s_a s_b)(k) = s_a(s_b(k)).

One walk over one-line prefixes classifies elements.  A prefix state
carries the Lehmer code c_i = #{k > i : w(k) < w(i)} of its letters, summed
to the length and checked by the Kempf test as it grows, and the values that
would complete a pattern 2413 or 4231 (the triangular test) if placed later.
`classify_permutations` takes every prefix of S_{n+1} with at most n - 2
letters once, in lexicographic order, and reads the six elements that
complete a prefix of n - 2 letters off its state and one pass over its
letters, with no further step.  `Permutation.length`, `is_kempf` and
`is_triangular_element` fold the same step over one element's letters.  A
state holds its letters as a `str` of code points, which the cyclic garbage
collector does not track.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

from .roots import Root, all_positive_roots


def _completions(prefix: str, x: int) -> int:
    """Bit mask of the values that, placed anywhere after the letters of
    prefix (code points, as `_step` stores them) and then x,
    complete a 2413 or 4231 whose third letter is x.

    A 2413 with x as its "1" needs positions i < k in the prefix with
    x < w(i) < w(k); its "3" is then any value in the open interval
    (w(i), w(k)).  For a fixed k these intervals share their right end, so
    their union is (min{w(i) > x : i < k}, w(k)), empty when that minimum
    exceeds w(k).  A 4231 with x as its "3" needs i < k with
    w(k) < x < w(i); its "1" is any value below w(k), so the union is every
    value below the largest such w(k).  One pass over the prefix keeps the
    running minimum `low` of the values above x and the largest qualifying
    w(k), `top`; bits low+1 .. v-1 are (1 << v) - (2 << low).
    """
    bits = top = 0
    low = None
    for v in map(ord, prefix):
        if v < x:
            if low is not None and v > top:
                top = v
        elif low is None or v < low:
            low = v
        else:
            bits |= (1 << v) - (2 << low)
    return bits | ((1 << top) - 1)


def _step(state: tuple, x: int) -> tuple:
    """The state of a prefix with x appended.

    A state is (seen, text, length, c, kempf, forbidden, prefix):
    - seen: bit v set when the value v is in the prefix;
    - text: the one-line letters so far, each followed by a space;
    - length: the sum of the Lehmer code so far;
    - c: the code value of the last letter;
    - kempf: whether c_i <= c_{i+1} + 1 held at every step so far;
    - forbidden: the values that would complete a 2413 or 4231 placed at any
      later position (`_completions` of every letter so far), or -1 once the
      prefix holds such a pattern; -1 has every bit set, so it stays -1.
      Only the bits of values not yet placed are ever read;
    - prefix: the letters so far as a `str`, letter v stored as chr(v)
      and read back with `map(ord, prefix)`, so a letter of any size fits.
      The cyclic garbage collector does not track a `str`, and it untracks
      a tuple of untracked values the first time it meets one, so the
      states a walk keeps are not walked again by every later collection.
    The values below x that stand to its left are the set bits of
    seen & (2^x - 2); the other x - 1 - that many stand to its right, so
    that is c.  Every occurrence of a pattern is found when its fourth
    letter is appended, since its third letter came earlier.
    """
    seen, text, length, prev, kempf, forbidden, prefix = state
    bit = 1 << x
    c = x - 1 - (seen & (bit - 2)).bit_count()
    if forbidden & bit:
        forbidden = -1
    else:
        forbidden |= _completions(prefix, x)
    return (seen | bit, f"{text}{x} ", length + c, c, kempf and prev <= c + 1,
            forbidden, prefix + chr(x))


# The state of the empty prefix.
_ROOT = (0, "", 0, 0, True, 0, "")


def _fold(images: tuple[int, ...]) -> tuple:
    """The state of the whole one-line word."""
    return functools.reduce(_step, images, _ROOT)


@dataclass(frozen=True)
class Permutation:
    """A permutation in one-line notation: images[k-1] = w(k)."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        if sorted(self.images) != list(range(1, len(self.images) + 1)):
            raise ValueError(f"not a permutation of 1..{len(self.images)}: {self.images}")

    @property
    def n(self) -> int:
        """Rank of the root system this acts on (permutes n+1 letters)."""
        return len(self.images) - 1

    def __call__(self, k: int) -> int:
        return self.images[k - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        if len(self.images) != len(other.images):
            raise ValueError("rank mismatch in composition")
        return Permutation(tuple(self(other(k)) for k in range(1, len(self.images) + 1)))

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.images)
        for k, v in enumerate(self.images, start=1):
            inv[v - 1] = k
        return Permutation(tuple(inv))

    def length(self) -> int:
        """Coxeter length = number of one-line inversions = sum of the Lehmer code."""
        return _fold(self.images)[2]

    def is_identity(self) -> bool:
        return all(v == k for k, v in enumerate(self.images, start=1))

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(1, n + 2)))

    @classmethod
    def simple(cls, i: int, n: int) -> "Permutation":
        if not 1 <= i <= n:
            raise ValueError(f"simple reflection index {i} out of range for rank {n}")
        im = list(range(1, n + 2))
        im[i - 1], im[i] = im[i], im[i - 1]
        return cls(tuple(im))

    @classmethod
    def longest(cls, n: int) -> "Permutation":
        return cls(tuple(range(n + 1, 0, -1)))

    @classmethod
    def from_word(cls, word, n: int) -> "Permutation":
        w = cls.identity(n)
        for i in word:
            w = w * cls.simple(i, n)
        return w

    @classmethod
    def from_oneline(cls, images) -> "Permutation":
        return cls(tuple(images))

    def __str__(self) -> str:
        return " ".join(map(str, self.images))


def parse_permutation(text: str, n: int) -> Permutation:
    """Parse either a generator word 's2 s3 s1' or one-line '3 1 4 2'."""
    tokens = text.replace(",", " ").split()
    if not tokens:
        return Permutation.identity(n)
    if tokens[0].startswith("s"):
        word = []
        for t in tokens:
            if not t.startswith("s"):
                raise ValueError(f"mixed word/one-line input: {text!r}")
            word.append(int(t[1:]))
        return Permutation.from_word(word, n)
    images = tuple(int(t) for t in tokens)
    if len(images) != n + 1:
        raise ValueError(f"one-line input {text!r} does not have {n + 1} entries")
    return Permutation.from_oneline(images)


@dataclass(frozen=True)
class RootSubset:
    """A subset of the positive roots of sl(n+1)."""

    n: int
    members: frozenset[Root] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"rank must be >= 1, got {self.n}")
        for r in self.members:
            if not (1 <= r.i <= r.j <= self.n):
                raise ValueError(f"root {r} out of range for rank {self.n}")

    @classmethod
    def of(cls, n: int, roots) -> "RootSubset":
        return cls(n, frozenset(roots))

    @classmethod
    def full(cls, n: int) -> "RootSubset":
        return cls(n, frozenset(all_positive_roots(n)))

    def __contains__(self, r: Root) -> bool:
        return r in self.members

    def __iter__(self):
        return iter(sorted(self.members))

    def __len__(self) -> int:
        return len(self.members)

    def sorted_roots(self) -> tuple[Root, ...]:
        return tuple(sorted(self.members))


def inversion_roots(w: Permutation) -> RootSubset:
    """Roots alpha_{i,j} with w(i) > w(j+1); their number is the length of w."""
    n = w.n
    mem = frozenset(r for r in all_positive_roots(n) if w(r.i) > w(r.j + 1))
    return RootSubset(n, mem)


def is_triangular_element(w: Permutation) -> bool:
    """Positions i < k <= j < l with w(i) > w(j) and w(k) > w(l) must also
    satisfy w(i) > w(l) and w(k) >= w(j).

    Equivalently, w avoids the patterns 2413 and 4231.  When k = j the
    condition cannot fail: w(k) >= w(j) trivially and w(i) > w(j) > w(l).
    When k < j, a failure at positions i < k < j < l is exactly an
    occurrence of one of the two patterns there, and every occurrence is a
    failure: w(i) < w(l) forces w(j) < w(i) < w(l) < w(k) (pattern 2413),
    and w(k) < w(j) forces w(l) < w(k) < w(j) < w(i) (pattern 4231).

    The test is the walk's step (`_step`) folded over the one-line word:
    the forbidden mask ends at -1 exactly when a pattern occurs.
    """
    return _fold(w.images)[5] >= 0


def is_triangular_subset(A: RootSubset) -> bool:
    """Closure condition on pairs that are strictly ordered in both coordinates.

    For alpha_{i1,j1}, alpha_{i2,j2} in A with i1 < i2, j1 < j2 and i2 <= j1+1,
    the root alpha_{i1,j2} must lie in A, and alpha_{i2,j1} as well when
    i2 <= j1.
    """
    mem = A.members
    for a in mem:
        for b in mem:
            if a.i < b.i and a.j < b.j and b.i <= a.j + 1:
                if Root(a.i, b.j) not in mem:
                    return False
                if b.i <= a.j and Root(b.i, a.j) not in mem:
                    return False
    return True


def is_kempf(w: Permutation) -> bool:
    """Segment lengths may grow by at most one at each step, except below a
    full segment: len(w_i) <= len(w_{i+1}) + 1 whenever ell_{i+1} < n, for
    the unique factorization w = w_1 w_2 ... w_n with w_i = s_{ell_i} ...
    s_i (ell_i = i - 1: empty).

    ell_i = i - 1 + c_i with c the Lehmer code.  Peeling off w_i means
    applying its inverse to the values, which sends ell_i + 1 to i, raises
    i..ell_i by one and fixes the rest, so it keeps the relative order of
    all other values.  Once w_1 ... w_{i-1} are peeled off, positions
    1..i-1 hold 1..i-1 and positions i..n+1 hold i..n+1 in the relative
    order of w(i), ..., w(n+1).  So position i holds i + c_i = ell_i + 1.
    The segment w_i then has length ell_i - i + 1 = c_i, so the test is
    c_i <= c_{i+1} + 1, that is ell_i <= ell_{i+1}.  The exception
    adds nothing: c_i <= n + 1 - i always, and ell_{i+1} = n means
    c_{i+1} = n - i.  The last pair (c_n <= 1, c_{n+1} = 0) always passes,
    so the test runs over the whole code: the walk's Kempf flag, folded
    over the one-line word.
    """
    return _fold(w.images)[4]


def reduced_word(w: Permutation) -> tuple[int, ...]:
    """Lexicographically smallest reduced word (greedy smallest left descent)."""
    word = []
    cur = w
    n = w.n
    while not cur.is_identity():
        inv = cur.inverse()
        i = next(i for i in range(1, n + 1) if inv(i) > inv(i + 1))
        word.append(i)
        cur = Permutation.simple(i, n) * cur
    return tuple(word)


def all_permutations(n: int) -> list[Permutation]:
    """All of S_{n+1} sorted by one-line notation."""
    return [Permutation(p) for p in itertools.permutations(range(1, n + 2))]


def classify_permutations(n: int) -> list[tuple[str, int, bool, bool]]:
    """(one-line text, length, is_kempf, is_triangular) of every element of
    S_{n+1}, in lexicographic one-line order, as `str(w)`, `w.length()`,
    `is_kempf(w)` and `is_triangular_element(w)` give them.

    One walk over the one-line prefixes of at most n - 2 letters, level by
    level, each prefix extended once by `_step`.  Every level is in
    lexicographic order: the one before it is, and each prefix is extended
    by its free values in increasing order.  A prefix of n - 2 letters
    leaves three free values a < b < c, and its six completions, in the
    order abc, acb, bac, bca, cab, cba, are read off its state (length L,
    code value `prev` of its last letter, Kempf flag K, forbidden mask F)
    with no further step.  S_2 has no such prefix; its two rows are
    literal.
    - Length and Kempf flag: the code values of the last three letters are
      (0,0,0), (0,1,0), (1,0,0), (1,1,0), (2,0,0) and (2,1,0), so the
      lengths are L, L+1, L+1, L+2, L+2 and L+3.  The Kempf test adds prev
      <= (the first code value) + 1, and c_i <= c_{i+1} + 1 inside the
      three fails only for cab (2 > 0 + 1), which is never Kempf.
    - Triangular: a pattern 2413 or 4231 is found at its fourth letter, so
      an occurrence either lies in the prefix (F = -1), or has its third
      letter in the prefix and its fourth among a, b, c (F has that bit),
      or has its last two letters u ... v among the completion.  In the
      last case its first letter is in the prefix, and its second is in
      the prefix or is the completion's first letter.
      Two letters in the prefix at i < k: for u < v the pattern is a 2413
      with u < w(i) < v < w(k), a letter in (u, v) standing before one
      above v; for u > v it is a 4231 with v < w(k) < u < w(i), a letter
      above u standing before one in (v, u).  Every value other than a, b
      and c is in the prefix, so with I1 = (a, b), I2 = (b, c) and
      I3 = (c, oo) these are unions of Ij-before-Ik relations: (a, b) is
      blocked by I1 before I2 or I3, (a, c) by I1 or I2 before I3, (b, c)
      by I2 before I3, and (b, a), (c, a) and (c, b) by the mirror
      relations.  An order is blocked by the relations of its three pairs,
      and one pass over the prefix finds the six relations.
      One letter in the prefix: the completion is then the pattern's last
      three letters, 413 (c a b, with a prefix letter in I1 as the "2")
      or 231 (b c a, with a prefix letter in I3 as the "4").
    """
    if n < 1:
        raise ValueError(f"rank must be >= 1, got {n}")
    if n == 1:
        return [("1 2", 0, True, True), ("2 1", 1, True, True)]
    values = range(1, n + 2)
    # The free values under each mask of used ones, in increasing order.
    free = [[x for x in values if not seen >> x & 1] for seen in range(2 << (n + 1))]
    # Per mask of a prefix of n - 2 letters: its free values a < b < c,
    # their bits and the texts of the six orders.
    everything = (2 << (n + 1)) - 2
    ends = {everything ^ (1 << a | 1 << b | 1 << c):
            (a, b, c, 1 << a | 1 << b | 1 << c,
             (f"{a} {b} {c}", f"{a} {c} {b}", f"{b} {a} {c}",
              f"{b} {c} {a}", f"{c} {a} {b}", f"{c} {b} {a}"))
            for a, b, c in itertools.combinations(values, 3)}
    # Bit 3(k-1) + (j-1) of `blocked` is set when a letter of Ij stands
    # before a letter of Ik, and these relations block each order:
    r12, r13, r23, r21, r31, r32 = 1 << 3, 1 << 6, 1 << 7, 1 << 1, 1 << 2, 1 << 5
    abc, acb, bac = r12 | r13 | r23, r12 | r13 | r23 | r32, r21 | r31 | r23 | r13
    bca, cab, cba = r23 | r21 | r31 | r32, r31 | r32 | r12 | r13, r32 | r31 | r21
    level = [_ROOT]
    for _ in range(n - 2):
        level = [_step(state, x) for state in level for x in free[state[0]]]
    rows = []
    for seen, text, length, prev, kempf, forbidden, prefix in level:
        a, b, c, bits, (t1, t2, t3, t4, t5, t6) = ends[seen]
        if forbidden & bits:
            blocked = met = -1
        else:
            # Bit j-1 of `met` is set once a letter of Ij has been seen.
            blocked = met = 0
            for v in map(ord, prefix):
                if v > a:
                    if v < b:
                        blocked |= met
                        met |= 1
                    elif v < c:
                        blocked |= met << 3
                        met |= 2
                    else:
                        blocked |= met << 6
                        met |= 4
        k1 = kempf and prev <= 1
        k2 = kempf and prev <= 2
        rows += (
            (text + t1, length, k1, not blocked & abc),
            (text + t2, length + 1, k1, not blocked & acb),
            (text + t3, length + 1, k2, not blocked & bac),
            (text + t4, length + 2, k2, not (blocked & bca or met & 4)),
            (text + t5, length + 2, False, not (blocked & cab or met & 1)),
            (text + t6, length + 3, kempf and prev <= 3, not blocked & cba),
        )
    return rows
