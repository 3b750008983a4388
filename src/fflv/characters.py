"""Formal characters on exponent vectors, Demazure operators, dimension
formulas, and the character of a face: from its weight-graded count
(`face_character`), or from its listed lattice points
(`character_from_lattice_points`).

Weights are encoded as exponent vectors in Z^{n+1}: a dominant weight with
coefficients (m_1, ..., m_n) becomes the partition (m_1+...+m_n, m_2+...+m_n,
..., m_n, 0), the root alpha_{i,j} becomes e_i - e_{j+1}, and permutations
act by permuting coordinates.  This keeps every operation in exact integer
arithmetic and makes termwise comparison of characters trivial.
"""

from __future__ import annotations

from math import prod
from operator import sub
from typing import Iterable, Mapping

from .polytope import PointSet, build_inequalities, count_points_by_weight
from .roots import DominantWeight, all_positive_roots, pairing
from .weyl import Permutation, inversion_roots, reduced_word


def to_partition(lam: DominantWeight) -> tuple[int, ...]:
    """Tail sums (m_k + ... + m_n) for k = 1..n, then a trailing zero."""
    return tuple(sum(lam.coeffs[k:]) for k in range(lam.n)) + (0,)


class Character:
    """A finite integer combination of formal exponentials x^a, a in Z^{n+1}.

    Multiplicities are nonzero integers; characters of actual modules carry
    positive ones, which the tests assert where it matters.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Mapping[tuple[int, ...], int]):
        clean: dict[tuple[int, ...], int] = {}
        for vec, mult in terms.items():
            if len(vec) != n + 1:
                raise ValueError(f"exponent vector {vec} is not length {n + 1}")
            if mult:
                clean[tuple(vec)] = clean.get(tuple(vec), 0) + mult
        self.n = n
        self.terms = {v: m for v, m in clean.items() if m}

    @classmethod
    def _of(cls, n: int, terms: dict[tuple[int, ...], int]) -> "Character":
        """A character on terms that this module built: distinct exponent
        vectors of length n + 1, tuples already.  Only the zero
        multiplicities are dropped; nothing is validated."""
        ch = cls.__new__(cls)
        ch.n = n
        ch.terms = {v: m for v, m in terms.items() if m}
        return ch

    @classmethod
    def monomial(cls, n: int, vec: Iterable[int], mult: int = 1) -> "Character":
        return cls(n, {tuple(vec): mult})

    @property
    def mass(self) -> int:
        return sum(self.terms.values())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Character)
            and self.n == other.n
            and self.terms == other.terms
        )


def demazure_operator(i: int, f: Character) -> Character:
    """Isobaric divided difference D_i f = (x_i f - x_{i+1} s_i f)/(x_i - x_{i+1}).

    Evaluated monomial by monomial via the closed string form: with
    d = a_i - a_{i+1}, the monomial x^a maps to the sum of the d+1 monomials
    sliding a_i down to a_{i+1} when d >= 0, to 0 when d = -1, and to minus
    the interior string when d <= -2.
    """
    if not 1 <= i <= f.n:
        raise ValueError(f"operator index {i} outside 1..{f.n}")
    out: dict[tuple[int, ...], int] = {}

    def bump(vec: tuple[int, ...], mult: int) -> None:
        out[vec] = out.get(vec, 0) + mult

    for vec, mult in f.terms.items():
        a, b = vec[i - 1], vec[i]
        d = a - b
        if d >= 0:
            for k in range(d + 1):
                bump(vec[: i - 1] + (a - k, b + k) + vec[i + 1 :], mult)
        elif d <= -2:
            for k in range(1, -d):
                bump(vec[: i - 1] + (a + k, b - k) + vec[i + 1 :], -mult)
    return Character._of(f.n, out)


def demazure_operator_division(i: int, f: Character) -> Character:
    """Same operator computed by literal polynomial division.

    Forms x_i f - x_{i+1} (s_i f) and divides by (x_i - x_{i+1}) with exact
    leading-term elimination; a nonzero remainder is an internal error.
    """
    if not 1 <= i <= f.n:
        raise ValueError(f"operator index {i} outside 1..{f.n}")
    num: dict[tuple[int, ...], int] = {}
    for vec, mult in f.terms.items():
        up = vec[: i - 1] + (vec[i - 1] + 1, vec[i]) + vec[i + 1 :]
        num[up] = num.get(up, 0) + mult
        swapped = vec[: i - 1] + (vec[i], vec[i - 1] + 1) + vec[i + 1 :]
        num[swapped] = num.get(swapped, 0) - mult
    num = {v: m for v, m in num.items() if m}

    # Group the numerator along (i, i+1)-strings: fixed other coordinates and
    # fixed pair sum s.  Within a string, N = Q * (x_i - x_{i+1}) forces the
    # quotient coefficient at i-exponent p to be the suffix sum of N above p,
    # and exactness means each string sums to zero.
    strings: dict[tuple, dict[int, int]] = {}
    for vec, mult in num.items():
        key = (vec[: i - 1] + vec[i + 1 :], vec[i - 1] + vec[i])
        strings.setdefault(key, {})[vec[i - 1]] = mult
    quot: dict[tuple[int, ...], int] = {}
    for (rest, s), coeffs in strings.items():
        if sum(coeffs.values()):
            raise ArithmeticError("division by x_i - x_{i+1} left a remainder")
        suffix = 0
        for p in range(max(coeffs), min(coeffs), -1):
            suffix += coeffs.get(p, 0)
            if suffix:
                qv = rest[: i - 1] + (p - 1, s - p) + rest[i - 1 :]
                quot[qv] = quot.get(qv, 0) + suffix
    return Character(f.n, quot)


def demazure_character_oracle(w: Permutation, lam: DominantWeight) -> Character:
    """Apply the operators along a reduced word of w, rightmost letter first,
    to the monomial of the partition encoding of the weight."""
    if w.n != lam.n:
        raise ValueError("rank mismatch")
    ch = Character.monomial(lam.n, to_partition(lam))
    for i in reversed(reduced_word(w)):
        ch = demazure_operator(i, ch)
    return ch


def character_from_lattice_points(
    points: PointSet, lam: DominantWeight, w: Permutation
) -> Character:
    """Character read off from the face lattice points of the inversion set:
    the w-permuted exponentials of (partition weight minus the point's root
    sum), one per point.

    `points` is the face of inversion_roots(w) at lam; its root set must be
    that inversion set.  The sum is the Demazure character when w is
    triangular, and for any other w it measures how far the face drifts
    from the true character.
    """
    if w.n != lam.n or points.n != lam.n:
        raise ValueError("rank mismatch")
    if set(points.roots) != inversion_roots(w).members:
        raise ValueError("point set must be a face of the inversion set of w")
    base = to_partition(lam)
    out: dict[tuple[int, ...], int] = {}
    for values in points.tuples:
        vec = list(base)
        for r, v in zip(points.roots, values):
            vec[r.i - 1] -= v
            vec[r.j] += v
        img = [0] * (lam.n + 1)
        for i, a in enumerate(vec, start=1):
            img[w(i) - 1] = a
        key = tuple(img)
        out[key] = out.get(key, 0) + 1
    return Character._of(lam.n, out)


def face_character(w: Permutation, lam: DominantWeight) -> Character:
    """The character `character_from_lattice_points` reads off the face of
    inversion_roots(w) at lam, from the face's point counts per weight
    (`count_points_by_weight`) without listing a point.  Raises
    UnboundedFaceError as the enumerator does.

    A point whose weight sums to b_k on simple root k has the root sum
    b_1 alpha_1 + ... + b_n alpha_n, and alpha_k is e_k - e_{k+1}, so its
    exponent vector is the partition weight with b_k - b_{k+1} added at
    position k (b_0 = b_{n+1} = 0), which w then permutes.  So each weight
    is mapped once, all weights a column at a time, and distinct weights
    give distinct exponentials.
    """
    if w.n != lam.n:
        raise ValueError("rank mismatch")
    A = inversion_roots(w)
    counts = count_points_by_weight(lam.n, A.sorted_roots(), build_inequalities(A, lam))
    # The origin is a point of every face, so there is at least one weight.
    zero = (0,) * len(counts)
    b = [zero, *zip(*counts), zero]
    cols: list = [None] * (lam.n + 1)
    for k, a in enumerate(to_partition(lam)):
        cols[w(k + 1) - 1] = map(a.__add__, map(sub, b[k], b[k + 1]))
    return Character._of(lam.n, dict(zip(zip(*cols), counts.values())))


def weyl_dimension(lam: DominantWeight) -> int:
    """Product over the root triangle of (pairing + height)/height, exactly."""
    roots = all_positive_roots(lam.n)
    num = prod(pairing(lam, r) + r.height for r in roots)
    den = prod(r.height for r in roots)
    if num % den:
        raise ArithmeticError("dimension product is not an integer")
    return num // den

