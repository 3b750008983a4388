"""Symmetric-group elements, inversion sets, triangularity, Kempf elements.

Permutations are elements of S_{n+1} acting on {1, ..., n+1}.  Products of
generator words are evaluated left to right as function composition:
(s_a s_b)(k) = s_a(s_b(k)).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .roots import Root, all_positive_roots


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
        """Coxeter length = number of one-line inversions."""
        im = self.images
        return sum(1 for a in range(len(im)) for b in range(a + 1, len(im)) if im[a] > im[b])

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
    satisfy w(i) > w(l) and w(k) >= w(j)."""
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
    w = w_1 w_2 ... w_n with w_i = s_{ell_i} ... s_i (ell_i = i-1: empty)."""
    n = w.n
    ells = []
    cur = list(w.images)
    for i in range(1, n + 1):
        # Peel off w_i: apply its inverse, which sends ell+1 to i and v to v+1
        # for i <= v <= ell, to the one-line images of what is left.
        top = cur[i - 1]
        ells.append(top - 1)
        for k, v in enumerate(cur):
            if i <= v <= top:
                cur[k] = i if v == top else v + 1
    if cur != list(range(1, n + 2)):
        raise AssertionError("segment factorization failed to terminate at identity")
    return tuple(ells)


def is_kempf(w: Permutation) -> bool:
    """Segment lengths may grow by at most one at each step, except below a
    full segment: len(w_i) <= len(w_{i+1}) + 1 whenever ell_{i+1} < n."""
    n = w.n
    ells = kempf_factorization(w)
    for i in range(1, n):
        if ells[i] < n:
            len_i = ells[i - 1] - i + 1
            len_i1 = ells[i] - (i + 1) + 1
            if len_i > len_i1 + 1:
                return False
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
