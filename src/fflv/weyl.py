"""Symmetric-group elements, inversion sets, triangularity, Kempf elements.

Permutations are elements of S_{n+1} acting on {1, ..., n+1}.  Products of
generator words are evaluated left to right as function composition:
(s_a s_b)(k) = s_a(s_b(k)).

One Lehmer code, c_i = #{k > i : w(k) < w(i)}, gives the length (its sum),
the segment tops of the Kempf factorization (ell_i = i - 1 + c_i) and the
Kempf test.  Triangular elements are the permutations that avoid the
patterns 2413 and 4231.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from .roots import Root, all_positive_roots


def _lehmer_code(images: tuple[int, ...]) -> Iterator[int]:
    """c_i = #{k > i : w(k) < w(i)} for each position i, in one pass.

    Bit v of `seen` is set once the value v has appeared, so the values
    below w(i) that stand to the left of i are the set bits of
    seen & (2^{w(i)} - 2); the other w(i) - 1 - that many stand to the right.
    """
    seen = 0
    for v in images:
        bit = 1 << v
        yield v - 1 - (seen & (bit - 2)).bit_count()
        seen |= bit


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
        return sum(_lehmer_code(self.images))

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

    The test runs over the middle pair k < j with bit masks of the values
    left of k and right of j (bit v is set when the value v stands there).
    A 2413 needs w(k) > w(j) and a value left of k and a larger one right
    of j, both strictly between w(j) and w(k); it suffices to compare the
    smallest such left value with the largest such right value.  A 4231
    needs w(k) < w(j), a value left of k above w(j) and a value right of j
    below w(k).  Fewer than four letters hold no pattern.
    """
    im = w.images
    m = len(im)
    if m < 4:
        return True
    full = (2 << m) - 2
    left = 1 << im[0]
    for k in range(1, m - 2):
        wk = im[k]
        below_wk = (1 << wk) - 1
        seen = left | (1 << wk)
        for wj in im[k + 1:m - 1]:
            seen |= 1 << wj
            right = full ^ seen
            if wk > wj:
                between = below_wk & ~((2 << wj) - 1)
                lo = left & between
                if lo and (right & between) >> (lo & -lo).bit_length():
                    return False
            elif left >> (wj + 1) and right & below_wk:
                return False
        left |= 1 << wk
    return True


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


def _segment(n: int, i: int, ell: int) -> Permutation:
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


def kempf_factorization(w: Permutation) -> tuple[int, ...]:
    """Segment tops (ell_1, ..., ell_n) of the unique factorization
    w = w_1 w_2 ... w_n with w_i = s_{ell_i} ... s_i (ell_i = i-1: empty).

    ell_i = i - 1 + c_i with c the Lehmer code.  Peeling off w_i means
    applying its inverse to the values, which sends ell_i + 1 to i, raises
    i..ell_i by one and fixes the rest, so it keeps the relative order of
    all other values.  Once w_1 ... w_{i-1} are peeled off, positions
    1..i-1 hold 1..i-1 and positions i..n+1 hold i..n+1 in the relative
    order of w(i), ..., w(n+1).  So position i holds i + c_i = ell_i + 1.
    """
    return tuple(i + c for i, c in zip(range(w.n), _lehmer_code(w.images)))


def is_kempf(w: Permutation) -> bool:
    """Segment lengths may grow by at most one at each step, except below a
    full segment: len(w_i) <= len(w_{i+1}) + 1 whenever ell_{i+1} < n.

    The segment w_i has length ell_i - i + 1 = c_i (Lehmer code), so the
    test is c_i <= c_{i+1} + 1, that is ell_i <= ell_{i+1}.  The exception
    adds nothing: c_i <= n + 1 - i always, and ell_{i+1} = n means
    c_{i+1} = n - i.  The last pair (c_n <= 1, c_{n+1} = 0) always passes,
    so the test runs over the whole code.
    """
    prev = 0
    for c in _lehmer_code(w.images):
        if prev > c + 1:
            return False
        prev = c
    return True


def permutation_from_segments(ells) -> Permutation:
    """Rebuild w = w_1 w_2 ... w_n from segment tops, w_i = s_{ell_i} ... s_i.

    Inverse of kempf_factorization: any tops with i-1 <= ell_i <= n determine
    a unique permutation (ell_i = i-1 encodes the empty segment).
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


def kempf_complement(n: int, ells) -> RootSubset:
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
    import itertools

    return [Permutation(p) for p in itertools.permutations(range(1, n + 2))]
