"""Exact integer models of irreducible sl(n+1) modules and their submodules.

The module with highest weight (m_1, ..., m_n) is realized inside the tensor
product of m_k copies of the k-th exterior power of C^(n+1), one block per
fundamental weight.  Ambient basis vectors are tuples of k-element subsets of
{1, ..., n+1}; the matrix unit E_ab acts on each tensor factor by replacing b
with a (with the sign of the resorting shuffle) and is summed over factors.
Ops act on index digits: a basis index is the mixed-radix number of the
subsets' pool positions, and E_ab on factor f moves its digit from p to p',
so the index by (p' - p) times the stride of f (see `TensorSpace`).  No
ambient basis is built.
All coordinates are integers and every rank is computed exactly.

Vectors are sparse throughout (`fflv.linalg.SparseVector`): the generator,
every closure row and every monomial image is a weight vector, whose support
lies in one weight space (at rho(4), at most 110 of the 2,500 ambient
coordinates), and applying an operator or eliminating against a span costs
time in that support, not in the ambient dimension.  Lattice points arrive
as the value tuples of a `PointSet` and are reported as such.  Ordered
lowering monomials share a stack of suffix images; bases walk colex, one
apply a point.

Lowering and raising follow the convention that the lowering operator for the
positive root built on rows i..j is E_{j+1,i} and the raising operator is
E_{i,j+1}, so lowering moves weight down the dominance order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from math import gcd, prod
from typing import Iterable, Iterator, Optional, Sequence

from .characters import to_partition, weyl_dimension
from .linalg import IntSpan, SparseVector
from .polytope import PointSet
from .roots import DominantWeight, Root, all_positive_roots
from .weyl import Permutation, RootSubset, reduced_word

_SubsetKey = tuple[int, ...]
_Op = tuple[tuple[int, int, tuple[Optional[tuple[int, int]], ...]], ...]


class DimensionCapError(RuntimeError):
    """A construction would exceed the configured dimension cap."""

    def __init__(self, needed: int, limit: int, what: str = "module") -> None:
        super().__init__(f"{what} needs dimension {needed}, cap is {limit}")
        self.needed = needed
        self.limit = limit


def _wedge_action(a: int, b: int, subset: _SubsetKey) -> Optional[tuple[_SubsetKey, int]]:
    """Apply the matrix unit E_ab to a basis subset of an exterior power.

    Returns the image subset and sign, or None when the image vanishes.
    """
    if a == b:
        return (subset, 1) if b in subset else None
    if b not in subset or a in subset:
        return None
    lo, hi = min(a, b), max(a, b)
    sign = -1 if sum(1 for s in subset if lo < s < hi) % 2 else 1
    image = tuple(sorted([a] + [s for s in subset if s != b]))
    return image, sign


class TensorSpace:
    """Ambient tensor product of exterior powers for one dominant weight.

    Factors are listed smallest exterior power first; the basis is the
    lexicographic product of the subset bases of the factors, so a basis
    index is the mixed-radix number whose digit for factor f is the
    position of its subset in that factor's pool, ``index // stride % size``.
    E_ab on factor f moves digit p to p' and leaves the other digits alone,
    so it moves the index by (p' - p) times the stride of f; summing over
    the factors gives the op.  No basis and no row per basis vector is
    stored.  Vectors in this space are sparse (see `fflv.linalg`).
    """

    __slots__ = ("n", "factors", "dimension", "_pools", "_strides", "_tables")

    def __init__(self, n: int, factors: Sequence[int]) -> None:
        if n < 1:
            raise ValueError(f"rank must be at least 1, got {n}")
        for k in factors:
            if not 1 <= k <= n:
                raise ValueError(f"exterior power degree {k} outside 1..{n}")
        self.n = n
        self.factors = tuple(factors)
        self._pools = [tuple(combinations(range(1, n + 2), k)) for k in self.factors]
        self._strides = [prod(map(len, self._pools[f + 1:])) for f in range(len(self._pools))]
        self.dimension = prod(map(len, self._pools))
        self._tables: dict[tuple[int, int], _Op] = {}

    @classmethod
    def from_weight(cls, lam: DominantWeight) -> "TensorSpace":
        factors = [k for k, m in enumerate(lam.coeffs, start=1) for _ in range(m)]
        return cls(len(lam.coeffs), factors)

    def highest_vector(self) -> SparseVector:
        """The basis vector whose every factor is {1, ..., k}: the first
        subset of each pool, so index 0."""
        return ((0, 1),)

    def weight_of(self, index: int) -> tuple[int, ...]:
        """Content vector of a basis index: how many tensor factors contain
        each of 1..n+1."""
        content = [0] * (self.n + 1)
        for pool, stride in zip(self._pools, self._strides):
            for s in pool[index // stride % len(pool)]:
                content[s - 1] += 1
        return tuple(content)

    def table(self, a: int, b: int) -> _Op:
        """E_ab per tensor factor, cached: the stride, the pool size and, at
        each pool position, the (index shift, sign) of its image, or None
        where E_ab kills the subset."""
        cached = self._tables.get((a, b))
        if cached is not None:
            return cached
        acts = []
        for pool, stride in zip(self._pools, self._strides):
            position = {subset: p for p, subset in enumerate(pool)}
            hits = [_wedge_action(a, b, subset) for subset in pool]
            acts.append((stride, len(pool), tuple(
                None if hit is None else ((position[hit[0]] - p) * stride, hit[1])
                for p, hit in enumerate(hits))))
        table = self._tables[(a, b)] = tuple(acts)
        return table

    def lowering_table(self, root: Root) -> _Op:
        return self.table(root.j + 1, root.i)

    def raising_table(self, root: Root) -> _Op:
        return self.table(root.i, root.j + 1)

    def apply(self, table: _Op, vec: SparseVector) -> SparseVector:
        """Image of a sparse vector under an op, as a sparse vector."""
        out: dict[int, int] = {}
        for i, v in vec:
            for stride, size, act in table:
                hit = act[i // stride % size]
                if hit is not None:
                    t = i + hit[0]
                    out[t] = out.get(t, 0) + hit[1] * v
        return tuple(sorted((t, x) for t, x in out.items() if x))


@dataclass(frozen=True)
class ExplicitModule:
    """A submodule of the ambient tensor space, given by an echelon basis.

    The generator is the cyclic vector the basis was grown from; the basis
    rows are sparse integer vectors in echelon form, ordered by pivot
    column, so the dimension is their count.  Entry d of the profile is the
    dimension of the span of all products of at most d of the generating
    operators applied to the generator; the last entry is the dimension.
    Lowering closures of this module are kept per root subset, so each one
    is computed once.
    """

    space: TensorSpace
    weight: DominantWeight
    generator: SparseVector
    basis: tuple[SparseVector, ...]
    profile: tuple[int, ...]
    _subsets: dict[tuple[Root, ...], "ExplicitModule"] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def span(self) -> IntSpan:
        """A new row space of the basis, which the caller may extend."""
        span = IntSpan(self.space.dimension)
        for row in self.basis:
            span.add(row)
        return span


def _closure(
    space: TensorSpace,
    start: SparseVector,
    tables: Sequence[_Op],
    cap: Optional[int] = None,
    what: str = "module",
) -> tuple[tuple[SparseVector, ...], tuple[int, ...]]:
    """Smallest span containing the start vector and closed under the ops.

    Grown breadth first, one degree at a time: the rows that entered at
    degree d span the degree-d products modulo all shorter ones, so applying
    every op to them alone reaches degree d + 1.  Returns the echelon rows
    and the rank after each degree, up to the degree where the span stops
    growing.
    """
    span = IntSpan(space.dimension)
    row = span.add(start)
    frontier = [row] if row is not None else []
    profile = [span.rank]
    while frontier:
        fresh: list[SparseVector] = []
        for vec in frontier:
            for table in tables:
                row = span.add(space.apply(table, vec))
                if row is not None:
                    if cap is not None and span.rank > cap:
                        raise DimensionCapError(span.rank, cap, what)
                    fresh.append(row)
        if fresh:
            profile.append(span.rank)
        frontier = fresh
    return span.rows, tuple(profile)


def build_highest_weight_module(lam: DominantWeight, cap: int = 400) -> ExplicitModule:
    """Irreducible module generated from the highest vector by simple lowerings.

    The closure of the highest vector of the ambient tensor space under the
    simple lowering operators; its dimension always comes out equal to the
    Weyl dimension formula, which is checked.
    """
    n = len(lam.coeffs)
    expected = weyl_dimension(lam)
    if expected > cap:
        raise DimensionCapError(expected, cap)
    space = TensorSpace.from_weight(lam)
    simple = [space.lowering_table(Root(i, i)) for i in range(1, n + 1)]
    top = space.highest_vector()
    basis, profile = _closure(space, top, simple, cap=cap)
    if len(basis) != expected:
        raise ArithmeticError(
            f"highest weight closure has dimension {len(basis)}, expected {expected}"
        )
    return ExplicitModule(space, lam, top, basis, profile)


def extremal_vector(module: ExplicitModule, w: Permutation) -> SparseVector:
    """The weight vector of extremal weight w(lambda), up to a scalar.

    Built by lowering along a reduced word: reading the word right to left,
    each letter contributes the full lowering string from the current
    weight.  The result spans the one-dimensional extremal weight space.
    """
    space = module.space
    if w.n != space.n:
        raise ValueError(f"permutation rank {w.n} does not match module rank {space.n}")
    content = list(to_partition(module.weight))
    vec = module.generator
    for i in reversed(reduced_word(w)):
        amount = content[i - 1] - content[i]
        if amount < 0:
            raise ArithmeticError(
                f"negative lowering string at simple root {i}; wrong convention"
            )
        table = space.lowering_table(Root(i, i))
        for _ in range(amount):
            vec = space.apply(table, vec)
        content[i - 1], content[i] = content[i], content[i - 1]
    if not vec:
        raise ArithmeticError(f"extremal vector for {w} vanished")
    expected = [0] * (space.n + 1)
    parts = to_partition(module.weight)
    for i in range(1, space.n + 2):
        expected[w(i) - 1] = parts[i - 1]
    for idx, _ in vec:
        if list(space.weight_of(idx)) != expected:
            raise ArithmeticError(f"extremal vector for {w} is not of weight {expected}")
    g = 0
    for _, v in vec:
        g = gcd(g, v)
        if g == 1:
            break
    if g > 1:
        vec = tuple((idx, v // g) for idx, v in vec)
    return vec


def demazure_submodule(module: ExplicitModule, w: Permutation) -> ExplicitModule:
    """Span generated from the extremal vector by the Borel subalgebra.

    Closure of the extremal vector of weight w(lambda) under all raising
    operators.  The Cartan subalgebra acts diagonally on every vector this
    produces (they are weight vectors), so no extra closure step is needed.
    """
    space = module.space
    gen = extremal_vector(module, w)
    tables = [space.raising_table(r) for r in all_positive_roots(space.n)]
    basis, profile = _closure(space, gen, tables, what="Borel closure")
    return ExplicitModule(space, module.weight, gen, basis, profile)


def subset_submodule(module: ExplicitModule, A: RootSubset) -> ExplicitModule:
    """Span generated from the highest vector by the lowerings in A.

    The closure is defined for every subset A, triangular or not.  It is
    computed once per module and subset; later calls return the same object.
    """
    space = module.space
    if A.n != space.n:
        raise ValueError(f"subset rank {A.n} does not match module rank {space.n}")
    roots = A.sorted_roots()
    sub = module._subsets.get(roots)
    if sub is None:
        tables = [space.lowering_table(r) for r in roots]
        basis, profile = _closure(space, module.generator, tables, what="lowering closure")
        sub = ExplicitModule(space, module.weight, module.generator, basis, profile)
        module._subsets[roots] = sub
    return sub


def _ordered_images(
    module: ExplicitModule, listing: Sequence[Root], scan: Iterable[tuple[int, ...]]
) -> Iterator[tuple[tuple[int, ...], SparseVector]]:
    """Yield (s, image of the highest vector under the ordered monomial s)
    for each exponent tuple s of the scan, in any order.  The rightmost
    factor acts first; for the last tuple, level k of a stack holds
    L_k^{s_k} ... L_m^{s_m} v.  The next tuple keeps the levels above the
    highest position p where it differs; level p goes on from its image if
    s_p grew, and every other level from p down is rebuilt from the one
    above.  A zero level is not applied to."""
    space = module.space
    tables = [space.lowering_table(r) for r in listing]
    last = (0,) * len(listing)
    levels = [module.generator] * (len(listing) + 1)
    for s in scan:
        p = len(s) - 1
        while p >= 0 and s[p] == last[p]:
            p -= 1
        for k in range(p, -1, -1):
            grew = k == p and s[k] > last[k]
            vec = levels[k] if grew else levels[k + 1]
            todo = s[k] - last[k] if grew else s[k]
            while todo and vec:
                vec = space.apply(tables[k], vec)
                todo -= 1
            levels[k] = vec
        last = s
        yield s, levels[0]


@dataclass(frozen=True)
class MonomialBasisReport:
    """Outcome of checking the ordered monomials against the lattice points.
    The witness is the first point, in colex order, whose monomial vector
    lies in the span of the earlier ones: a value tuple aligned with the
    point set's roots."""

    lattice_points: int
    rank: int
    submodule_dimension: int
    independent: bool
    spanning: bool
    witness: Optional[tuple[int, ...]]

    @property
    def ok(self) -> bool:
        return self.independent and self.spanning


def verify_monomial_basis(module: ExplicitModule, points: PointSet) -> MonomialBasisReport:
    """Check that the ordered monomials over the lattice points form a basis.

    `points` is the face polytope of A, the subset of its coordinates, at
    the module's weight.  For each lattice point, the ordered lowering
    monomial is applied to the highest vector; the report records whether
    those vectors are linearly independent and whether they span the
    submodule generated by the lowerings in A.  Points are walked in colex
    order (lex on the reversed tuple).  The face is downward closed, so a
    point's predecessor is the point less one at its first nonzero exponent,
    and each image costs one apply.
    """
    sub = subset_submodule(module, RootSubset.of(points.n, points.roots))
    span = IntSpan(module.space.dimension)
    witness: Optional[tuple[int, ...]] = None
    colex = sorted(points.tuples, key=lambda s: s[::-1])
    for s, image in _ordered_images(module, points.roots, colex):
        if span.add(image) is None and witness is None:
            witness = s
    return MonomialBasisReport(
        lattice_points=len(points),
        rank=span.rank,
        submodule_dimension=sub.dimension,
        independent=witness is None,
        spanning=span.rank == sub.dimension,
        witness=witness,
    )


def pbw_filtration_profile(module: ExplicitModule, A: RootSubset) -> list[int]:
    """Dimensions of the filtration by number of lowering factors.

    Entry d is the dimension of the span of all products of at most d
    lowering operators from A applied to the highest vector; the list stops
    once the dimension stabilizes.  Successive differences count lattice
    points by degree when the monomial basis theorem applies.
    """
    return list(subset_submodule(module, A).profile)


def _tall_first(roots: Iterable[Root]) -> list[Root]:
    """Total order on roots: taller first, then smaller starting row."""
    return sorted(roots, key=lambda r: (-(r.j - r.i), r.i))


def _degree_compositions(total: int, parts: int, lex: bool) -> Iterator[tuple[int, ...]]:
    """Exponent tuples of one degree, increasing in lex order or else in
    revlex order (lex on the reversed tuples, descending)."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for x in range(total + 1) if lex else range(total, -1, -1):
        for rest in _degree_compositions(total - x, parts - 1, lex):
            yield (x,) + rest if lex else rest + (x,)


def essential_monomials(
    module: ExplicitModule, A: RootSubset, order: str = "revlex"
) -> PointSet:
    """Exponents whose ordered monomial escapes the span of all smaller ones.

    Monomials are compared degree first; within a degree, "revlex" compares
    exponent tuples (taller roots first) by reverse lexicographic order and
    "lex" by lexicographic order.  Exponents are scanned in increasing
    order and kept exactly when their monomial vector enlarges the span, so
    the result does not depend on any basis choice.  Each degree is
    generated in scan order, not sorted, and walked by `_ordered_images`.

    When the monomials never span the lowering closure, ArithmeticError is
    raised at the first degree whose ordered monomials all kill the highest
    vector.  An ordered monomial of degree d + 1 is its leftmost factor
    times an ordered monomial of degree d, so every later degree vanishes
    too; lowering operators are nilpotent, so that degree always comes.
    """
    if order not in ("revlex", "lex"):
        raise ValueError(f"order must be 'revlex' or 'lex', got {order!r}")
    space = module.space
    target = subset_submodule(module, A).dimension
    listing = _tall_first(A.members)
    span = IntSpan(space.dimension)
    found: list[dict[Root, int]] = []
    degree = 0
    while span.rank < target:
        vanished = True
        scan = _degree_compositions(degree, len(listing), order == "lex")
        for s, image in _ordered_images(module, listing, scan):
            vanished = vanished and not image
            if span.add(image) is not None:
                found.append(dict(zip(listing, s)))
                if span.rank == target:
                    break
        if vanished:
            raise ArithmeticError("essential monomial scan did not stabilize")
        degree += 1
    roots = A.sorted_roots()
    # Each exponent tuple is scanned once, so the sorted tuples are distinct.
    return PointSet(space.n, roots, tuple(sorted(tuple(f.get(r, 0) for r in roots)
                                                 for f in found)))


def cartan_component_dimension(
    lam: DominantWeight, mu: DominantWeight, A: RootSubset, cap: int = 400
) -> int:
    """Dimension of the diagonal lowering closure of the top tensor vector.

    Inside the tensor product of the modules for the two weights, the
    vector (highest) x (highest) is closed under the diagonal action of the
    lowerings in A; the dimension of that span is returned.
    """
    n = len(lam.coeffs)
    if len(mu.coeffs) != n or A.n != n:
        raise ValueError("weights and subset must share one rank")
    left = TensorSpace.from_weight(lam)
    right = TensorSpace.from_weight(mu)
    # Over the concatenated factors the lexicographic basis index of a pair
    # is i1 * d2 + i2, and E_ab summed over all factors is the diagonal action.
    space = TensorSpace(n, left.factors + right.factors)
    tables = [space.lowering_table(r) for r in A.sorted_roots()]
    basis, _ = _closure(space, space.highest_vector(), tables, cap=cap,
                        what="diagonal closure")
    return len(basis)
