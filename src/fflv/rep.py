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
lies in one weight space, and applying an operator or eliminating against a
span costs time in that support, not in the ambient dimension.  Lattice
points arrive as the value tuples of a `PointSet` and are reported as such.
Ordered lowering monomials share a stack of suffix images; bases walk colex,
one apply a point.

Lowering and raising follow the convention that the lowering operator for the
positive root built on rows i..j is E_{j+1,i} and the raising operator is
E_{i,j+1}, so lowering moves weight down the dominance order.

No stage does work whose result is already known:

- Generation.  The simple raising operators e_1, ..., e_n generate n+ as a
  Lie algebra (every e_alpha is an iterated commutator of them), so a
  subspace closed under them is closed under every e_alpha: the Borel
  closure of an extremal vector is taken over the e_i alone.
- PBW and the twist by w.  For A = N(w), the inversion set of w, the
  lowerings in A span n- intersected with w^-1 n+ w, so U(n-_A) v_lambda is
  w^-1 V_w(lambda) for a lift of w: it has the dimension of V_w(lambda),
  and the weights of V_w(lambda) mapped by w^-1 (`lowering_weights`).  By
  Demazure's character formula those are the mass and the terms of the
  Demazure character at w (`demazure_character_oracle`), so no closure is
  formed for an element: neither V_w(lambda) nor a lowering closure.
  N(w) is closed under root addition, so by PBW the ordered monomials of
  degree at most d span the degree-d piece of the filtration, and the
  essential scan's rank after each degree is the graded profile.  A subset
  that is not closed (say {alpha11, alpha22}) keeps its lowering closure.
  The Borel closure of the extremal vector (`demazure_submodule`) stays as
  the tests' reference for that character.
- The essential scan.  For A closed under root addition the associated
  graded module of the PBW filtration is cyclic over the symmetric
  algebra S(n-_A), and revlex is invariant under translation, so a tuple
  that is not kept has no kept tuple above it: the kept tuples form an
  order ideal, and a tuple with a lower cover that was not kept is never
  imaged (`_scan`).  Each image is its leftmost factor applied to its
  predecessor's carried image, one apply.
- The monomial basis.  The kept tuples of degree d map to a basis of
  F_d / F_(d-1), in any order of factors, since reordering the factors of
  a degree-d monomial changes it by terms in F_(d-1).  So for closed A,
  when the scan, budgeted by the target's own weights, keeps exactly the
  lattice points, their ordered monomials (in the face's order of roots)
  are a basis of the target, with rank the number of points: a set whose
  images form a basis of the associated graded module is a basis.
  `verify` then runs no `verify_monomial_basis`; for a subset that is not
  closed, or a kept set that differs from the points, it does.
- The irreducible module.  No closure of V(lambda) is formed
  (`IrreducibleModule`).  Index 0 of the tensor space is killed by every
  E_{i,i+1} and is a weight vector of weight lambda in a
  finite-dimensional module, so it generates a copy of V(lambda).  The
  weights of V(lambda), with multiplicity, are the Weyl character, which
  is Demazure's formula at the longest element
  (`demazure_character_oracle`), computed on first read.  Every vector a
  stage forms lies in that copy: the extremal vector and every ordered
  monomial image are lowerings of the highest vector, and the closures
  are spans of images of those.  So the Weyl character is a sound budget
  for the Borel closure, the lowering closures and the scan's target.
- Weight budgets.  A closure or scan knows each image's weight before it
  computes it, and skips the image when the span's weight space there is
  already full (`_closure`, `_scan`): full against the Weyl character for
  the Borel and lowering closures, and against the target's weights for
  the essential scan, which are the Demazure character mapped by w^-1 for
  an element and the lowering closure's row weights for a subset.  A
  skipped image lies in the span, so rows, ranks, profiles and kept sets
  do not change.  A short budget can only leave a result short: a short
  Weyl character, which no check reads, a lowering dimension that
  disagrees with the oracle mass and the lattice count; a short Demazure
  character, also the character check's oracle, a failed character check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate, combinations
from math import gcd, prod
from operator import itemgetter, sub
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .characters import demazure_character_oracle, to_partition, weyl_dimension
from .linalg import IntSpan, SparseVector
from .polytope import PointSet
from .roots import DominantWeight, Root
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
    """A closure inside the ambient tensor space, given by an echelon basis.

    The generator is the cyclic vector the basis was grown from; the basis
    rows are sparse integer vectors in echelon form, ordered by pivot
    column, so the dimension is their count.  Entry d of the profile is the
    dimension of the span of all products of at most d of the generating
    operators applied to the generator; the last entry is the dimension.
    Every row is a weight vector, and `weights` counts the rows of each
    weight (content vector, as `TensorSpace.weight_of` gives it): the
    closure's character.
    """

    space: TensorSpace
    weight: DominantWeight
    generator: SparseVector
    basis: tuple[SparseVector, ...]
    profile: tuple[int, ...]
    weights: dict[tuple[int, ...], int] = field(compare=False, repr=False)

    @property
    def dimension(self) -> int:
        return len(self.basis)


@dataclass(frozen=True)
class IrreducibleModule:
    """The irreducible module V(lambda) in its tensor space, with no basis.

    The generator is the highest vector, index 0; the dimension is the
    Weyl dimension, and `weights` is the Weyl character: the multiplicity
    of each weight (content vector, as `TensorSpace.weight_of` gives it)
    of the copy of V(lambda) that the generator spans under the lowerings
    (module docstring).  The character is computed on first read, so only
    a stage that budgets a closure with it pays for it.  Lowering closures
    of this module are kept per root subset, so each one is computed once.
    """

    space: TensorSpace
    weight: DominantWeight
    generator: SparseVector
    _subsets: dict[tuple[Root, ...], ExplicitModule] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    @property
    def dimension(self) -> int:
        return weyl_dimension(self.weight)

    @cached_property
    def weights(self) -> dict[tuple[int, ...], int]:
        return demazure_character_oracle(Permutation.longest(self.weight.n), self.weight).terms


def _closure(
    space: TensorSpace,
    start: SparseVector,
    ops: Sequence[tuple[int, int]],
    *,
    what: str,
    cap: Optional[int] = None,
    budget: Optional[Mapping[tuple[int, ...], int]] = None,
) -> tuple[tuple[SparseVector, ...], tuple[int, ...], dict[tuple[int, ...], int]]:
    """Smallest span containing the start vector and closed under the
    matrix units E_ab, given as pairs (a, b).

    Grown breadth first, one degree at a time: the rows that entered at
    degree d span the degree-d products modulo all shorter ones, so applying
    every op to them alone reaches degree d + 1.  Returns the echelon rows,
    the rank after each degree, up to the degree where the span stops
    growing, and the number of rows of each weight.

    Every row is a weight vector, and E_ab adds one at position a of its
    content and takes one away at b, so each image's weight is known before
    it is computed.  A budget bounds, per weight, the dimension of that
    weight space in a module known to contain the closure; a weight it
    does not list has bound 0.  An image is skipped when its weight already
    has that many rows: the span's weight space is then the module's, which
    holds the image.  A skipped image would not have enlarged the span, so
    the same images enter in the same order, and the rows and the profile
    are those without a budget.  A bound that is too small can only leave
    the closure short.
    """
    span = IntSpan(space.dimension)
    moves = [(space.table(a, b), a - 1, b - 1) for a, b in ops]
    counts: dict[tuple[int, ...], int] = {}
    frontier = []
    row = span.add(start)
    if row is not None:
        weight = space.weight_of(row[0][0])
        counts[weight] = 1
        frontier.append((row, weight))
    profile = [span.rank]
    while frontier:
        fresh = []
        for vec, weight in frontier:
            for table, a, b in moves:
                shifted = list(weight)
                shifted[a] += 1
                shifted[b] -= 1
                key = tuple(shifted)
                held = counts.get(key, 0)
                if budget is not None and held >= budget.get(key, 0):
                    continue
                row = span.add(space.apply(table, vec))
                if row is not None:
                    if cap is not None and span.rank > cap:
                        raise DimensionCapError(span.rank, cap, what)
                    counts[key] = held + 1
                    fresh.append((row, key))
        if fresh:
            profile.append(span.rank)
        frontier = fresh
    return span.rows, tuple(profile), counts


def build_highest_weight_module(lam: DominantWeight, cap: int = 400) -> IrreducibleModule:
    """The irreducible module of highest weight lambda, with no closure formed.

    Returns the tensor space and the highest vector (index 0), with the
    Weyl dimension checked against the cap first.  Index 0 is killed by
    every E_{i,i+1} and has weight lambda, so it generates a copy of
    V(lambda) holding every vector a stage forms (module docstring); the
    module's weights, the Weyl character, bound each weight space of
    those stages.  A character short at some weight only leaves a closure
    or scan short, which the checks report.
    """
    expected = weyl_dimension(lam)
    if expected > cap:
        raise DimensionCapError(expected, cap)
    space = TensorSpace.from_weight(lam)
    return IrreducibleModule(space, lam, space.highest_vector())


def extremal_vector(module: IrreducibleModule, w: Permutation) -> SparseVector:
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


def demazure_submodule(module: IrreducibleModule, w: Permutation) -> ExplicitModule:
    """Span generated from the extremal vector by the Borel subalgebra.

    Closure of the extremal vector of weight w(lambda) under the simple
    raising operators, which generate every raising operator (module
    docstring), with the Weyl character as its budget.  The Cartan
    subalgebra acts diagonally on every vector this produces (they are
    weight vectors), so no extra closure step is needed.  The profile
    counts products of simple raisings.  `verify` takes V_w(lambda)'s
    dimension and weights from its Demazure character instead; this
    closure is the tests' reference for that character.
    """
    space = module.space
    gen = extremal_vector(module, w)
    simple = [(i, i + 1) for i in range(1, space.n + 1)]
    basis, profile, weights = _closure(space, gen, simple, what="Borel closure",
                                       budget=module.weights)
    return ExplicitModule(space, module.weight, gen, basis, profile, weights)


def lowering_weights(
    weights: Mapping[tuple[int, ...], int], w: Permutation
) -> dict[tuple[int, ...], int]:
    """The weights of U(n-_A) v_lambda for A = N(w), with multiplicity,
    from the weights of V_w(lambda): the terms of the Demazure character
    at w, or the row weights of the Borel closure `demazure_submodule`.

    A lift of w^-1 maps V_w(lambda) onto U(n-_A) v_lambda (module
    docstring) and the weight space of content c onto that of the content
    whose position i reads position w(i) of c.  That map is a bijection of
    weights, so the multiplicities carry over.
    """
    reads = [w(i) - 1 for i in range(1, w.n + 2)]
    return {tuple([c[k] for k in reads]): m for c, m in weights.items()}


def subset_submodule(module: IrreducibleModule, A: RootSubset) -> ExplicitModule:
    """Span generated from the highest vector by the lowerings in A.

    The closure is defined for every subset A, triangular or not, and the
    Weyl character is its budget.  It is computed once per module
    and subset; later calls return the same object.
    """
    space = module.space
    _check_rank(A.n, space)
    roots = A.sorted_roots()
    sub = module._subsets.get(roots)
    if sub is None:
        ops = [(r.j + 1, r.i) for r in roots]
        basis, profile, weights = _closure(space, module.generator, ops,
                                           what="lowering closure", budget=module.weights)
        sub = ExplicitModule(space, module.weight, module.generator, basis, profile, weights)
        module._subsets[roots] = sub
    return sub


def _check_rank(n: int, space: TensorSpace) -> None:
    if n != space.n:
        raise ValueError(f"subset rank {n} does not match module rank {space.n}")


def _ordered_images(
    module: IrreducibleModule,
    listing: Sequence[Root],
    scan: Iterable[tuple[int, ...]],
) -> Iterator[tuple[tuple[int, ...], SparseVector]]:
    """Yield (s, image of the highest vector under the ordered monomial s)
    for each exponent tuple s of the scan, in any order.  The rightmost
    factor acts first; for the last tuple, level k of a stack holds
    L_k^{s_k} ... L_m^{s_m} v.  The next tuple keeps the levels above the
    highest position p where it differs; level p goes on from its image if
    s_p grew, and every other level from p down is rebuilt from the one
    above.  A zero level is not applied to.  Walked over a downward closed
    set in colex order, as `verify_monomial_basis` walks a face, each image
    costs one apply.
    """
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


def verify_monomial_basis(
    module: IrreducibleModule, points: PointSet, dimension: Optional[int] = None
) -> MonomialBasisReport:
    """Check that the ordered monomials over the lattice points form a basis.

    `points` is the face polytope of A, the subset of its coordinates, at
    the module's weight.  For each lattice point, the ordered lowering
    monomial is applied to the highest vector; the report records whether
    those vectors are linearly independent and whether they span U(n-_A)
    applied to the highest vector, which holds them all.  `dimension` is
    the dimension of that submodule where it is known (for A = N(w), the
    mass of the Demazure character at w, by the module docstring); without
    it the lowering closure of A is formed.  Points are walked in colex order (lex on the
    reversed tuple).  The face is downward closed, so a point's
    predecessor is the point less one at its first nonzero exponent, and
    each image costs one apply.
    """
    _check_rank(points.n, module.space)
    if dimension is None:
        dimension = subset_submodule(module, RootSubset.of(points.n, points.roots)).dimension
    span = IntSpan(module.space.dimension)
    witness: Optional[tuple[int, ...]] = None
    colex = sorted(points.tuples, key=lambda s: s[::-1])
    for s, image in _ordered_images(module, points.roots, colex):
        if span.add(image) is None and witness is None:
            witness = s
    return MonomialBasisReport(
        lattice_points=len(points),
        rank=span.rank,
        submodule_dimension=dimension,
        independent=witness is None,
        spanning=span.rank == dimension,
        witness=witness,
    )


def pbw_filtration_profile(module: IrreducibleModule, A: RootSubset) -> list[int]:
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


def essential_monomials(
    module: IrreducibleModule,
    A: RootSubset,
    weights: Optional[Mapping[tuple[int, ...], int]] = None,
) -> PointSet:
    """Exponents whose ordered monomial escapes the span of all smaller ones.

    Monomials are compared degree first, and within a degree by reverse
    lexicographic order of their exponent tuples (taller roots first): one
    fixed homogeneous order, as in the essential-monomial results of
    Feigin, Fourier and Littelmann.  A tuple is kept exactly when its
    monomial vector enlarges the span of the earlier ones, so the result
    does not depend on any basis choice.  The scan (`_scan`) images only
    the candidates each degree's carried tuples lead to, one apply each;
    for A closed under root addition the kept tuples are an order ideal,
    and a tuple with a lower cover that was not kept is never imaged.

    The scan runs until the span is U(n-_A) applied to the highest vector,
    which holds every monomial vector.  `weights` are that submodule's
    weights with multiplicity where they are known (for A = N(w), the
    Demazure character at w mapped by `lowering_weights`); without them
    the lowering closure of A is formed and its rows' weights are taken.
    Their total is the rank the scan stops at, and each is the budget of
    its weight.

    For closed A, the kept tuples equal to the face certify its monomial
    basis (module docstring), which `verify` reads instead of
    `verify_monomial_basis`.  When the monomials never span the target,
    ArithmeticError is raised at the first degree that carries nothing:
    an ordered monomial of degree d + 1 is its leftmost factor times an
    ordered monomial of degree d, and lowering operators are nilpotent,
    so that degree always comes.
    """
    _check_rank(A.n, module.space)
    if weights is None:
        weights = subset_submodule(module, A).weights
    listing = _tall_first(A.members)
    kept = _scan(module, listing, sum(weights.values()), weights)
    roots = A.sorted_roots()
    at = [listing.index(r) for r in roots]
    # Each exponent tuple is scanned once, so the sorted tuples are distinct.
    return PointSet(module.space.n, roots, tuple(sorted(tuple([s[k] for k in at])
                                                        for s in kept)))


def _closed(roots: Iterable[Root]) -> bool:
    """Whether a set of positive roots is closed under root addition:
    alpha_{i,j} + alpha_{j+1,k} = alpha_{i,k} lies in it whenever both
    summands do.  Then n-_A is a subalgebra, the case of PBW that the
    essential scan and `verify`'s basis certificate rest on."""
    held = set(roots)
    return all(Root(r.i, q.j) in held for r in held for q in held if q.i == r.j + 1)


def _scan(
    module: IrreducibleModule,
    listing: Sequence[Root],
    dimension: int,
    budget: Optional[Mapping[tuple[int, ...], int]],
) -> list[tuple[int, ...]]:
    """The exponent tuples over `listing`, in scan order, whose ordered
    monomial enlarges the span of the earlier ones, until the span has
    rank `dimension` (`essential_monomials`).

    Candidates.  A tuple s of degree d >= 1 is t + e_k for k its first
    nonzero position and t = s - e_k, whose first nonzero position is at
    least k.  So the candidates of degree d, the t + e_k over the tuples t
    carried from degree d - 1 and k up to t's first nonzero position, are
    reached once each, and the image of s is L_k applied to t's carried
    image: one apply per image.  A tuple is packed into one int, position
    k in the field at bit `width` * k, so the last position is highest and
    descending ints are the revlex scan order of a degree.

    Carrying.  If A is not closed under root addition (`_closed`), every
    nonzero image is carried.  A tuple whose predecessor's image is zero
    has a zero image, so every nonzero image is formed and the kept tuples
    are those of a walk over every tuple.  If A is closed, a tuple is
    carried when it is kept, and s is a candidate only when every lower
    cover s - e_j is carried.  By PBW the ordered monomials of degree at
    most d span F_d, the span of the products of at most d lowerings in
    A.  So a tuple of degree d is kept exactly when its class in F_d /
    F_(d-1) escapes those of the earlier tuples of its degree, whatever
    the order of its factors.  The associated graded module is an
    S(n-_A)-module and revlex is invariant under translation: if the class
    of t is a combination of those of tuples t' < t, the class of t + u is
    the same combination of those of t' + u < t + u, so t + u is not kept
    either.  The images are weight vectors, so this holds weight by
    weight: t + u lies in the span of the earlier images of its weight.

    Budget.  The image of s has the weight lambda - (b_1 alpha_1 + ... +
    b_n alpha_n), b_k the sum of s over the roots that contain alpha_k; it
    is keyed by the b_k packed into one int, `width` bits each.  A budget
    maps a weight (content vector) to the multiplicity of the target, a
    submodule holding every image, there; a weight it does not list has
    none.  An image whose weight already has that many rows in the span
    is carried but not reduced: it is in the target's weight space, which
    the span then holds, so it would not have been kept.  A weight fills
    only once, so the earlier images of a tuple's weight were all reduced
    while the tuple can still be kept, and the argument above compares
    only with those.  So with any budget, even one that is too small, the
    kept tuples are those of the walk over every tuple with that budget,
    and with the target's own weights they are those without a budget.

    An image is nonzero only if its weight is one of the module's, whose
    depths b_k sum to at most H, the height of lambda - w0 lambda; a tuple
    of degree d has that sum at least d.  So all images of degree H + 1
    vanish, nothing is carried past degree H, and every exponent and b_k
    of a candidate is at most H + 1: no field carries.  The scan raises
    when a degree carries nothing while the rank is still short: then no
    later tuple has a nonzero image or, for closed A, none would be kept.
    """
    parts = to_partition(module.weight)
    deepest = sum(accumulate(map(sub, parts, parts[::-1])))
    width = (deepest + 1).bit_length()
    steps = [sum([1 << width * (k - 1) for k in range(r.i, r.j + 1)]) for r in listing]
    room: dict[int, int] = {}
    if budget is not None:
        for content, mult in budget.items():
            depths = list(accumulate(map(sub, parts, content)))
            # A weight out of these bounds is not the module's, so no image's.
            if depths.pop() == 0 and all(0 <= b <= deepest for b in depths):
                room[sum([b << width * k for k, b in enumerate(depths)])] = mult
    held: dict[int, int] = {}
    m = len(listing)
    units = [1 << width * k for k in range(m)]
    mask = (1 << width) - 1
    closed = _closed(listing)
    space = module.space
    tables = [space.lowering_table(r) for r in listing]
    span = IntSpan(space.dimension)
    kept: list[int] = []
    # (packed tuple, position of its leftmost factor or -1, image of its
    # predecessor or its own at degree 0, packed depths, nonzero positions)
    todo = [(0, -1, module.generator, 0, ())]
    while span.rank < dimension:
        todo.sort(key=itemgetter(0), reverse=True)
        carried: dict[int, tuple] = {}
        for s, k, vec, key, support in todo:
            image = space.apply(tables[k], vec) if k >= 0 else vec
            if not image:
                continue
            if budget is not None and held.get(key, 0) >= room.get(key, 0):
                carried[s] = image, key, support
            elif span.add(image) is not None:
                held[key] = held.get(key, 0) + 1
                kept.append(s)
                carried[s] = image, key, support
                if span.rank == dimension:
                    break
            elif not closed:
                carried[s] = image, key, support
        if not carried:
            raise ArithmeticError("essential monomial scan did not stabilize")
        todo = []
        for t, (vec, key, support) in carried.items():
            first = support[0] if support else m
            for k in range(min(first + 1, m)):
                s = t + units[k]
                # The lower covers of s other than t are s - e_j, j in t's support.
                if closed and not all([s - units[j] in carried for j in support if j != k]):
                    continue
                todo.append((s, k, vec, key + steps[k], support if k == first else (k,) + support))
    return [tuple([s >> width * k & mask for k in range(m)]) for s in kept]
