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
Faces are walked colex on one stack, one apply a point.  No default forms
a closure, and none is kept.

Lowering and raising follow the convention that the lowering operator for the
positive root built on rows i..j is E_{j+1,i} and the raising operator is
E_{i,j+1}, so lowering moves weight down the dominance order.

No stage does work whose result is already known:

- Generation.  The simple raising operators e_1, ..., e_n generate n+ as a
  Lie algebra (every e_alpha is an iterated commutator of them), so a
  subspace closed under them is closed under every e_alpha: the Borel
  closure of an extremal vector is taken over the e_i alone.
- PBW and the twist by w.  For A closed under root addition, by PBW the
  ordered monomials of degree at most d span the degree-d piece of the
  filtration, so the essential scan alone, run until a degree keeps
  nothing, gives a basis of the associated graded module of U(n-_A)
  v_lambda: its rank is the dimension and its degrees are the graded
  profile.  No closure is formed for a closed subset: neither V(lambda)
  nor a lowering closure.  A subset that is not closed (say {alpha11,
  alpha22}) keeps its lowering closure.  For A = N(w), the inversion set
  of w, which is closed, the lowerings in A span n- intersected with
  w^-1 n+ w, so U(n-_A) v_lambda is w^-1 V_w(lambda) for a lift of w: its
  dimension is the mass of the Demazure character at w
  (`demazure_character_oracle`), which `verify` compares with the scan's
  rank, two independent computations of one number.  The Borel closure of
  the extremal vector (`demazure_submodule`) stays as the tests' reference
  for that character.
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
  when the scan keeps exactly the lattice points, their ordered monomials
  (in the face's order of roots) are a basis of the target, with rank the
  number of points: a set whose images form a basis of the associated
  graded module is a basis.
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
  for the Borel closure and the lowering closures.  No stage checks
  V(lambda)'s dimension: `verify`'s cap bounds the span a stage forms,
  and a capped lowering closure reads the Weyl character only when
  V(lambda) fits the cap.
- Weight budgets.  A closure knows each image's weight before it computes
  it, and skips the image when the span's weight space there is already
  full against the Weyl character (`_closure`).  A skipped image lies in
  the span, so rows, ranks and profiles do not change.  A short budget can
  only leave a closure short: a short Weyl character, which no check
  reads, gives a lowering dimension and profile that disagree with the
  lattice count.  The essential scan has no budget: it stops where a
  degree keeps nothing, or for a subset that is not closed at the
  lowering closure's dimension.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate, combinations
from math import gcd, prod
from operator import itemgetter, sub
from typing import Iterable, Mapping, Optional, Sequence

from .characters import demazure_character_oracle, to_partition, weyl_dimension
from .linalg import IntSpan, SparseVector
from .polytope import PointSet
from .roots import DominantWeight, Root
from .weyl import Permutation, RootSubset, reduced_word

_SubsetKey = tuple[int, ...]
_Op = tuple[tuple[int, int, tuple[Optional[tuple[int, int]], ...]], ...]


class DimensionCapError(RuntimeError):
    """A stage would form a span over the dimension cap; the message names it."""


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

    The generator is the highest vector, index 0, and `weights` is the
    Weyl character: the multiplicity of each weight (content vector, as
    `TensorSpace.weight_of` gives it) of the copy of V(lambda) that the
    generator spans under the lowerings (module docstring).  The character
    is computed on first read, so only a stage that budgets a closure with
    it pays for it.
    """

    space: TensorSpace
    weight: DominantWeight
    generator: SparseVector

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
    the closure short.  A cap raises DimensionCapError at the first row
    past it, when the closure's dimension is known only to exceed the cap.
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
                        raise DimensionCapError(f"{what} needs dimension more than {cap}, the cap")
                    counts[key] = held + 1
                    fresh.append((row, key))
        if fresh:
            profile.append(span.rank)
        frontier = fresh
    return span.rows, tuple(profile), counts


def build_highest_weight_module(lam: DominantWeight) -> IrreducibleModule:
    """The irreducible module of highest weight lambda, with no closure formed.

    Returns the tensor space and the highest vector (index 0) and checks
    nothing.  Index 0 is killed by every E_{i,i+1} and has weight lambda,
    so it generates a copy of V(lambda) holding every vector a stage forms
    (module docstring); the module's weights, the Weyl character, bound
    each weight space of the closures.  A character short at some weight
    only leaves a closure short, which the checks report.
    """
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
    counts products of simple raisings.  `verify` reads V_w(lambda)'s
    dimension off its Demazure character instead; this closure is the
    tests' reference for that character.
    """
    space = module.space
    gen = extremal_vector(module, w)
    simple = [(i, i + 1) for i in range(1, space.n + 1)]
    basis, profile, weights = _closure(space, gen, simple, what="Borel closure",
                                       budget=module.weights)
    return ExplicitModule(space, module.weight, gen, basis, profile, weights)


def subset_submodule(
    module: IrreducibleModule, A: RootSubset, cap: Optional[int] = None
) -> ExplicitModule:
    """Span generated from the highest vector by the lowerings in A.

    The closure is defined for every subset A, triangular or not.  Each
    call forms it anew, and raises DimensionCapError at its first row past
    the cap.  The Weyl character is its budget unless V(lambda) exceeds the
    cap: a capped closure then makes at most (cap + 1)|A| applies.
    """
    space = module.space
    _check_rank(A.n, space)
    ops = [(r.j + 1, r.i) for r in A.sorted_roots()]
    fits = cap is None or weyl_dimension(module.weight) <= cap
    basis, profile, weights = _closure(space, module.generator, ops, what="lowering closure",
                                       cap=cap, budget=module.weights if fits else None)
    return ExplicitModule(space, module.weight, module.generator, basis, profile, weights)


def _check_rank(n: int, space: TensorSpace) -> None:
    if n != space.n:
        raise ValueError(f"subset rank {n} does not match module rank {space.n}")


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
    module: IrreducibleModule, points: PointSet, dimension: int
) -> MonomialBasisReport:
    """Check that the ordered monomials over the lattice points form a basis.

    `points` is the face polytope of A, the subset of its coordinates, at
    the module's weight.  For each lattice point, the ordered lowering
    monomial is applied to the highest vector v; the report records whether
    those vectors are linearly independent and whether they span U(n-_A) v,
    which holds them all and has dimension `dimension`: for A closed under
    root addition the essential scan's rank (module docstring), else the
    lowering closure's.

    The face is an order ideal of N^m, walked in colex order (lex on the
    reversed tuple), which extends the componentwise order.  So the colex
    successor s of t raises the highest position p where they differ
    (s_p > t_p) by one and is zero below p: s and t + e_p, each with its
    entries below p set to zero, lie under s and above t, so each is s.
    The origin comes first.  Any other step raises ValueError before its
    image is formed.

    Level k of one stack holds L_k^{s_k} ... L_m^{s_m} v for the last point
    s, the rightmost factor acting first; level m + 1 is v.  A step keeps
    the levels above p, applies L_p once to level p and copies it into the
    levels below, whose exponents are zero.  So whenever the walk does not
    raise, each image is exact, at one apply a point.
    """
    space = module.space
    _check_rank(points.n, space)
    tables = [space.lowering_table(r) for r in points.roots]
    levels = [module.generator] * (len(tables) + 1)
    span = IntSpan(space.dimension)
    witness: Optional[tuple[int, ...]] = None
    last: Optional[tuple[int, ...]] = None
    for s in sorted(points.tuples, key=lambda s: s[::-1]):
        if last is None:
            if any(s):
                raise ValueError(f"colex walk starts at {s}, not at the origin")
        else:
            p = len(s) - 1
            while p >= 0 and s[p] == last[p]:
                p -= 1
            if p < 0 or s[p] != last[p] + 1 or any(s[:p]):
                raise ValueError(f"colex walk steps from {last} to {s}: not an order ideal")
            levels[:p + 1] = [space.apply(tables[p], levels[p])] * (p + 1)
        last = s
        if span.add(levels[0]) is None and witness is None:
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


def essential_monomials(module: IrreducibleModule, A: RootSubset, cap: int) -> PointSet:
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

    For closed A the scan needs no target: it runs until a degree keeps
    nothing, and the kept tuples are then a basis of the associated graded
    module of U(n-_A) v_lambda, so their number is its dimension and their
    degrees its graded profile.  DimensionCapError is raised at the first
    kept tuple past `cap`.  For other A the monomials need not span, and
    the scan stops once its rank reaches `cap`, which the caller sets to
    the dimension of U(n-_A) v_lambda, the lowering closure's
    (`subset_submodule`).

    For closed A, the kept tuples equal to the face certify its monomial
    basis (module docstring), which `verify` reads instead of
    `verify_monomial_basis`.  When the monomials of other A never span the
    target, ArithmeticError is raised at the first degree that carries
    nothing: an ordered monomial of degree d + 1 is its leftmost factor
    times an ordered monomial of degree d, and lowering operators are
    nilpotent, so that degree always comes.
    """
    _check_rank(A.n, module.space)
    listing = _tall_first(A.members)
    kept = _scan(module, listing, cap)
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


def _scan(module: IrreducibleModule, listing: Sequence[Root], cap: int) -> list[tuple[int, ...]]:
    """The exponent tuples over `listing`, in scan order, whose ordered
    monomial enlarges the span of the earlier ones (`essential_monomials`).
    For A closed under root addition the scan runs until a degree keeps
    nothing and raises DimensionCapError at the first kept tuple past the
    cap; for other A it stops once its rank reaches the cap.

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
    cover s - e_j is kept.  By PBW the ordered monomials of degree at
    most d span F_d, the span of the products of at most d lowerings in
    A.  So a tuple of degree d is kept exactly when its class in F_d /
    F_(d-1) escapes those of the earlier tuples of its degree, whatever
    the order of its factors.  The associated graded module is an
    S(n-_A)-module and revlex is invariant under translation: if the class
    of t is a combination of those of tuples t' < t, the class of t + u is
    the same combination of those of t' + u < t + u, so t + u is not kept
    either.  The same holds for every tuple above a degree that keeps
    nothing, so the scan stops there with the whole basis of the graded
    module: its rank is the dimension of U(n-_A) v_lambda.

    The image of s has the weight lambda - (b_1 alpha_1 + ... + b_n
    alpha_n), b_k the sum of s over the roots that contain alpha_k.  It is
    nonzero only if that weight is one of the module's, whose depths b_k
    sum to at most H, the height of lambda - w0 lambda; a tuple of degree
    d has that sum at least d.  So all images of degree H + 1 vanish,
    nothing is carried past degree H, and every exponent of a candidate is
    at most H + 1: no field carries.  For A not closed the scan raises
    when a degree carries nothing while the rank is still short of the
    cap: then no later tuple has a nonzero image.
    """
    parts = to_partition(module.weight)
    deepest = sum(accumulate(map(sub, parts, parts[::-1])))
    width = (deepest + 1).bit_length()
    m = len(listing)
    units = [1 << width * k for k in range(m)]
    mask = (1 << width) - 1
    closed = _closed(listing)
    space = module.space
    tables = [space.lowering_table(r) for r in listing]
    span = IntSpan(space.dimension)
    kept: list[int] = []
    # (packed tuple, position of its leftmost factor or -1, image of its
    # predecessor or its own at degree 0, nonzero positions)
    todo = [(0, -1, module.generator, ())]
    while todo and (closed or span.rank < cap):
        todo.sort(key=itemgetter(0), reverse=True)
        carried: dict[int, tuple] = {}
        for s, k, vec, support in todo:
            image = space.apply(tables[k], vec) if k >= 0 else vec
            if not image:
                continue
            if span.add(image) is not None:
                if span.rank > cap:
                    raise DimensionCapError(f"lowering closure needs dimension more than {cap}, "
                                            "the cap")
                kept.append(s)
                carried[s] = image, support
                if not closed and span.rank == cap:
                    break
            elif not closed:
                carried[s] = image, support
        todo = []
        for t, (vec, support) in carried.items():
            first = support[0] if support else m
            for k in range(min(first + 1, m)):
                s = t + units[k]
                # The lower covers of s other than t are s - e_j, j in t's support.
                if closed and not all([s - units[j] in carried for j in support if j != k]):
                    continue
                todo.append((s, k, vec, support if k == first else (k,) + support))
    if not closed and span.rank < cap:
        raise ArithmeticError("essential monomial scan did not stabilize")
    return [tuple([s >> width * k & mask for k in range(m)]) for s in kept]
