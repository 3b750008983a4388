"""Positive roots of sl(n+1) and the two partial orders used throughout.

A positive root of type A_n is an interval sum alpha_{i,j} = alpha_i + ... +
alpha_j of simple roots, encoded here as the pair (i, j) with 1 <= i <= j <= n.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple


class Root(NamedTuple):
    """The positive root alpha_{i,j}; simple roots are Root(i, i)."""

    i: int
    j: int

    @property
    def height(self) -> int:
        return self.j - self.i + 1

    @property
    def label(self) -> str:
        return f"a{self.i}.{self.j}"

    def __str__(self) -> str:
        return self.label


def make_root(i: int, j: int, n: int | None = None) -> Root:
    """Validated constructor; checks 1 <= i <= j (<= n when a rank is given)."""
    if not (1 <= i <= j):
        raise ValueError(f"not a positive root: ({i}, {j})")
    if n is not None and j > n:
        raise ValueError(f"root ({i}, {j}) out of range for rank {n}")
    return Root(i, j)


def parse_root(text: str) -> Root:
    """Parse 'a1.3' or '1.3' into Root(1, 3)."""
    body = text.strip()
    if body.startswith("a"):
        body = body[1:]
    try:
        left, right = body.split(".")
        return make_root(int(left), int(right))
    except ValueError as exc:
        raise ValueError(f"cannot parse root {text!r}") from exc


def all_positive_roots(n: int) -> tuple[Root, ...]:
    """All n(n+1)/2 positive roots of sl(n+1), sorted lexicographically."""
    if n < 1:
        raise ValueError(f"rank must be >= 1, got {n}")
    return tuple(Root(i, j) for i in range(1, n + 1) for j in range(i, n + 1))


def dominates(a: Root, b: Root) -> bool:
    """True iff a >= b in the triangle order: a.i <= b.i and a.j <= b.j.

    This is the order Dyck paths descend in; alpha_1 is the unique maximum
    and alpha_n the unique minimum.
    """
    return a.i <= b.i and a.j <= b.j


@dataclass(frozen=True)
class DominantWeight:
    """A dominant integral weight, stored by fundamental-weight coefficients."""

    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.coeffs) < 1:
            raise ValueError("weight needs rank >= 1")
        if any(c < 0 for c in self.coeffs):
            raise ValueError(f"coefficients must be >= 0, got {self.coeffs}")

    @property
    def n(self) -> int:
        return len(self.coeffs)

    def __add__(self, other: "DominantWeight") -> "DominantWeight":
        if self.n != other.n:
            raise ValueError("rank mismatch")
        return DominantWeight(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def scale(self, k: int) -> "DominantWeight":
        if k < 0:
            raise ValueError("scale factor must be >= 0")
        return DominantWeight(tuple(k * c for c in self.coeffs))

    def __str__(self) -> str:
        return "(" + ",".join(map(str, self.coeffs)) + ")"


def fundamental_weight(k: int, n: int) -> DominantWeight:
    if not 1 <= k <= n:
        raise ValueError(f"fundamental weight index {k} out of range for rank {n}")
    return DominantWeight(tuple(1 if m == k else 0 for m in range(1, n + 1)))


def rho(n: int) -> DominantWeight:
    """The weight with every fundamental coefficient equal to 1."""
    return DominantWeight((1,) * n)


def pairing(lam: DominantWeight, root: Root) -> int:
    """lambda evaluated on the coroot of alpha_{i,j}: m_i + ... + m_j."""
    if root.j > lam.n:
        raise ValueError(f"root {root} out of range for rank {lam.n}")
    return sum(lam.coeffs[root.i - 1 : root.j])
