"""Face polytopes of the lattice-point polytope attached to a dominant weight.

For a subset A of positive roots and a dominant weight, every grid-closed
restricted path contributes the inequality

    sum of the coordinates along the path <= pairing(weight, base root),

and the polytope is the set of nonnegative real coordinate vectors indexed by
A satisfying all of them.  A system is a sorted tuple of supports, free of
the weight; `support_inequalities` reads each bound off its support's base
root, for the path supports here and for the marked chain supports of
`marked_poset` alike.  This module enumerates the integer points exactly
and counts them without listing them, in total or per weight, all three
over one state graph that merges prefixes with equal completions
(`_slack_graph`).  One walk over such a graph (`compose_points`) composes
per-coordinate cells into value tuples, text rows or packed sums
(`packed_fields`).  A face is an order ideal of N^m, so the Minkowski sum
of faces, and of a face with itself k times, is the ideal generated by
sums of maximal points, whose state graph of generator suffixes
(`_sum_graph`) lists the k-fold sum (`lattice_point_graph`) and counts
any sum (`count_sum_points`) without forming a pairwise sum;
`minkowski_sum`, the pairwise sum of arbitrary point sets, is the
reference.  Everything is integer arithmetic.

A point is a tuple of values aligned with its set's root tuple, and a point
set is one tuple of such tuples in strictly increasing lexicographic order.
Each producer emits that order directly, so equal sets have equal tuples and
compare and hash as plain dataclasses.  There is no per-point object:
callers read `PointSet.tuples`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import compress, repeat
from operator import add, mul
from typing import Iterator, Optional, Sequence

from .paths import base_root, enumerate_dyck_paths_for
from .roots import DominantWeight, Root, pairing
from .weyl import RootSubset


class UnboundedFaceError(ValueError):
    """Raised when some coordinate of A appears in no path inequality, so the
    polytope contains a ray and has infinitely many lattice points."""

    def __init__(self, n: int, root: Root):
        self.root = root
        super().__init__(
            f"coordinate {root.label} is not bounded by any path inequality "
            f"at rank {n}; the face is an unbounded cone"
        )


@dataclass(frozen=True)
class Inequality:
    """A single path inequality: sum of coordinates over `support` <= bound."""

    support: tuple[Root, ...]
    bound: int

    def __str__(self) -> str:
        lhs = " + ".join(f"s[{r.label}]" for r in self.support)
        return f"{lhs} <= {self.bound}"


@dataclass(frozen=True)
class PointSet:
    """A set of lattice points sharing rank and coordinate order.

    `tuples` holds the value tuples in strictly increasing lexicographic
    order, which every producer emits.  A set then has exactly one
    `tuples`, so the dataclass `==` and hash, which compare the fields, are
    set equality and a set hash.
    """

    n: int
    roots: tuple[Root, ...]
    tuples: tuple[tuple[int, ...], ...]

    def __len__(self) -> int:
        return len(self.tuples)


def support_inequalities(
    supports: Sequence[tuple[Root, ...]], lam: DominantWeight
) -> list[Inequality]:
    """One inequality per support, in the given order, bounded by the weight
    on the coroot of the support's base root."""
    return [Inequality(s, pairing(lam, base_root(s))) for s in supports]


def build_inequalities(A: RootSubset, lam: DominantWeight) -> list[Inequality]:
    """One inequality per grid-closed restricted path of A, in path order."""
    return support_inequalities(enumerate_dyck_paths_for(A), lam)


def _search_plan(
    n: int, roots: tuple[Root, ...], ineqs: list[Inequality]
) -> Optional[list[tuple[int, int]]]:
    """Per inequality, its support as a bit mask over the coordinates of
    `roots` (bit c for coordinate c) and its bound.  None when some bound
    is negative, so no nonnegative point exists.  Raises UnboundedFaceError
    for the first coordinate that occurs in no inequality."""
    index = {r: c for c, r in enumerate(roots)}
    rows = [(sum([1 << c for c in {index[r] for r in q.support}]), q.bound) for q in ineqs]
    covered = 0
    for mask, _ in rows:
        covered |= mask
    for c, r in enumerate(roots):
        if not covered >> c & 1:
            raise UnboundedFaceError(n, r)
    if any(bound < 0 for _, bound in rows):
        return None
    return rows


def _minimal(masks: list[int], among: list[int]) -> tuple[int, ...]:
    """The indices in `among` whose mask contains no other mask of `among`."""
    return tuple([i for i in among
                  if not any(k != i and masks[k] & masks[i] == masks[k] for k in among)])


@lru_cache(maxsize=64)
def _slack_plan(m: int, masks: tuple[int, ...]) -> tuple[tuple, tuple]:
    """The weight-free part of the state graph of a support system over m
    coordinates, the supports of its rows as bit masks (`_search_plan`):
    per support at depth 0, the rows whose support contains it, and per
    depth c < m, the step that `_slack_children` takes from a state at
    depth c.  A system's supports are free of the weight, so every weight
    and dilation of one face or chain system shares its plan.

    A remaining support at depth c is the nonempty part at c or later of
    some row's support.  The state of a prefix of c values holds, per
    remaining support in increasing mask order, the least remaining bound
    of the rows whose support contains it: the slacks merged and tightened
    at once (see `count_integer_points` for why equal states have equal
    completions).  So a slack is at most that of any larger support, and
    the least slack over a family of supports is the least over its
    minimal members (`_minimal`), which are all a step reads: for the cap
    of coordinate c, and for each remaining support at depth c + 1 the
    supports at depth c that contain it, split into those containing c,
    whose slack drops by the value of c, and the others.
    """
    supports = sorted(set(masks) - {0})
    start = tuple([tuple([r for r, mask in enumerate(masks) if mask & s == s])
                   for s in supports])
    steps = []
    for c in range(m):
        bit = 1 << c
        after = sorted({s & ~bit for s in supports} - {0})
        hit = [i for i, s in enumerate(supports) if s & bit]
        missed = [i for i, s in enumerate(supports) if not s & bit]
        take = [_minimal(supports, [i for i in hit if t & ~supports[i] == 0]) for t in after]
        keep = [_minimal(supports, [i for i in missed if t & ~supports[i] == 0]) for t in after]
        steps.append((_minimal(supports, hit), tuple(zip(take, keep))))
        supports = after
    return start, tuple(steps)


def _slack_start(m: int, rows: list[tuple[int, int]]) -> tuple[tuple[int, ...], tuple]:
    """The state at depth 0 of `rows` over m coordinates, per support the
    least bound of the rows containing it, and the steps of their plan."""
    start, steps = _slack_plan(m, tuple([mask for mask, _ in rows]))
    return tuple([min([rows[r][1] for r in idx]) for idx in start]), steps


def _slack_children(step: tuple, state: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The states that the values 0, 1, ..., cap of the next coordinate
    lead to from a state, for one step of `_slack_plan`."""
    caps, moves = step
    cap = min([state[i] for i in caps])
    # The new slack is min(x - v, y); a side with no support gets a
    # stand-in that never wins for v <= cap.
    pairs = []
    for tk, kp in moves:
        x = min([state[i] for i in tk]) if tk else None
        y = min([state[i] for i in kp]) if kp else None
        pairs.append((y + cap if x is None else x, x if y is None else y))
    return [tuple([x - v if x - v < y else y for x, y in pairs]) for v in range(cap + 1)]


def _slack_graph(m: int, rows: list[tuple[int, int]]) -> Iterator[list[list[int]]]:
    """The state graph of the nonnegative integer solutions of `rows` over
    m coordinates, one depth at a time: for each c < m, per state at depth
    c, the states at depth c + 1 that coordinate c's values 0, 1, ..., cap
    lead to (`_slack_plan`, `_slack_children`).  Depth 0 holds one state,
    the root, and so does depth m.  Only the current depth's states are
    kept, so a caller that reads each depth once holds one depth alive.
    """
    root, steps = _slack_start(m, rows)
    states = [root]
    for step in steps:
        ids: dict[tuple[int, ...], int] = {}
        # A state not seen before at depth c + 1 gets the next id.
        yield [[ids.setdefault(child, len(ids)) for child in _slack_children(step, state)]
               for state in states]
        states = list(ids)


def _completion_counts(levels: list[list[list[int]]]) -> list[list[int]]:
    """Per depth of a state graph, per state, its number of completions:
    one backward pass from depth m, whose one state completes once.  The
    root's count, at depth 0, is the number of points."""
    completions = [[1]]
    for level in reversed(levels):
        below = completions[-1]
        completions.append([sum([below[k] for k in kids]) for kids in level])
    completions.reverse()
    return completions


def compose_points(levels: list[list[list[int]]], cells: Sequence[Sequence], unit) -> list:
    """Per point of a state graph, in lexicographic order of the points, the
    composition `unit + cells[0][v_0] + ... + cells[m-1][v_{m-1}]` of its
    coordinates' cells, for cells under an associative `+`: value tuples
    `(v,)` with unit `()` give the points, strings give text rows, and ints
    give packed sums.

    `levels` is a state graph as `_slack_graph` yields it: per coordinate
    c, per state at depth c, the states that c's values 0, 1, ... lead to,
    where a state at depth c stands for every prefix of c values reaching
    it, and its completions are the same for all of them.  The graph of a
    face (`count_integer_points`) and of a sum of faces (`_sum_graph`) both
    have that property, and their depth 0 and depth m hold one state each.
    A backward pass gives each state its number of completions.  The split
    depth d is the first depth whose states' completion counts sum to at
    most a sixteenth of the number of points (or m, the number of
    coordinates, if none does).  Every state at depth d gets its suffix
    list, the compositions of its completions, built once, bottom-up from
    depth m: a state's list is, for v = 0, 1, ..., its v-th cell in front
    of each entry of its v-th child's list.  Then the prefixes of depth d
    are walked breadth-first, each composition extended by its state's
    suffix list.

    Emission order: the prefixes at each depth come out in lexicographic
    order, since each one's children follow in increasing value order, and
    by induction on the depth from m, each suffix list is in lexicographic
    order too.  A point is its prefix followed by a suffix, so the points
    come out in lexicographic order of their tuples, whatever the
    coordinate order, which is the order `PointSet` keeps.

    Memory: a state at depth c + 1 is reached from some state at depth c,
    and a parent's completion count is the sum of its children's, so the
    summed completion counts never grow with depth.  The suffix lists
    alive at any time, those of depth c + 1 while depth c is built, so
    hold at most an eighth as many entries as there are points; the lists
    of depth c + 1 are dropped once depth c is built.  The prefix list of
    each depth holds at most one entry per point.
    """
    m = len(levels)
    completions = _completion_counts(levels)
    total = completions[0][0]
    split = next((c for c in range(m + 1) if 16 * sum(completions[c]) <= total), m)
    suffixes: list[list] = [[unit]]
    for c in reversed(range(split, m)):
        below, cell = suffixes, cells[c]
        suffixes = []
        for kids in levels[c]:
            found: list = []
            for x, k in zip(cell, kids):
                found += map(x.__add__, below[k])
            suffixes.append(found)
    prefixes = [(unit, 0)]
    for cell, level in zip(cells[:split], levels[:split]):
        prefixes = [(p + x, k) for p, s in prefixes for x, k in zip(cell, level[s])]
    points: list = []
    for p, s in prefixes:
        points += map(p.__add__, suffixes[s])
    return points


def _value_cells(levels: list[list[list[int]]]) -> list[list[tuple[int]]]:
    """Per coordinate, the cell `(v,)` of each value v, for `compose_points`
    to compose value tuples."""
    values = [(v,) for v in range(max([len(kids) for level in levels for kids in level],
                                      default=0))]
    return [values] * len(levels)


def enumerate_integer_points(
    n: int, roots: tuple[Root, ...], ineqs: list[Inequality]
) -> PointSet:
    """Nonnegative integer vectors indexed by `roots` satisfying every
    inequality, in lexicographic order, composed as value tuples over the
    state graph of `_slack_graph` (`compose_points`).  Raises
    UnboundedFaceError for the first coordinate that occurs in no
    inequality."""
    rows = _search_plan(n, roots, ineqs)
    if rows is None:
        return PointSet(n, roots, ())
    levels = list(_slack_graph(len(roots), rows))
    return PointSet(n, roots, tuple(compose_points(levels, _value_cells(levels), ())))


def _ideal_graph(shifts: Sequence[int], generators: set[int]) -> Iterator[list[list[int]]]:
    """The state graph of the order ideal of N^m generated by `generators`,
    one depth at a time as `_slack_graph` yields it.  A generator is packed
    with coordinate c in the field at bit shifts[c], the fields laid out
    from the last coordinate (lowest bits) to the first.

    The state of a prefix of c values is the set of the generators' suffixes
    (their coordinates c and later, the low bits below coordinate c - 1's
    field) over the generators at or above the prefix.  A completion of the
    prefix is a point at or below one of those suffixes, so equal states
    have equal completions.  Coordinate c takes the values 0 .. the largest
    value of c in the state, and value v leads to the suffixes after c of
    those with a value of at least v at c.  Depth m holds one state, the
    empty suffix.
    """
    states = [frozenset(generators)]
    for shift in shifts:
        low = (1 << shift) - 1
        ids: dict[frozenset[int], int] = {}
        level = []
        for state in states:
            by_value: dict[int, list[int]] = {}
            for x in state:
                by_value.setdefault(x >> shift, []).append(x & low)
            kids = [0] * (1 + max(by_value))
            child: set[int] = set()
            for v in reversed(range(len(kids))):
                child.update(by_value.get(v, ()))
                kids[v] = ids.setdefault(frozenset(child), len(ids))
            level.append(kids)
        yield level
        states = list(ids)


def _sum_graph(m: int, summands: Sequence[Sequence[tuple[int, ...]]]) -> list[list[list[int]]]:
    """The state graph of the Minkowski sum of the point sets `summands`
    over m coordinates, each a nonempty finite order ideal of N^m, as
    faces are.  Raises ValueError when some summand is no order ideal.

    A face is an order ideal: x >= 0 under upper bounds on sums of
    nonnegative coordinates, so lowering a coordinate of a point keeps it
    in the face.  If I is the ideal generated by G and J the one generated
    by H, then I + J is the ideal generated by G + H.  Each g + h lies in
    I + J, which is an ideal: for x <= a + b with a in I and b in J, take
    y = min(x, a) and z = x - y; then y <= a and 0 <= z <= b, so y is in I,
    z in J and x = y + z.  Conversely a + b <= g + h for generators g >= a
    and h >= b.  So the sum is the ideal generated by the sums of the
    summands' maximal points, taken one summand at a time with the sums
    deduplicated after each step, and `_ideal_graph` lists it without
    forming a pairwise sum of points.  Every generator is a point of the
    sum so far, so a step forms at most (points so far) x (maximal points
    of the summand) sums, and pairwise sums form (points so far) x (points
    of the summand).

    Packing: `packed_fields` gives each coordinate its own field, capped
    at 1 + the sum over the summands of their largest value at c.  A sum
    of generators, and a summand's point plus 1 at one coordinate, stay
    within the caps, so packed ints add as vectors, and a point p is
    maximal in its summand exactly when no p + e_c is packed among the
    summand's points.  A point p with p_c > 0 whose p - e_c is not among
    them shows a summand that is no order ideal.
    """
    columns = [list(zip(*points)) for points in summands]
    units, fields = packed_fields([(c,) for c in range(m)],
                                  [1 + sum([max(cols[c]) for cols in columns]) for c in range(m)])
    generators = {0}
    for points, cols in zip(summands, columns):
        packed = [0] * len(points)
        for col, u in zip(cols, units):
            packed = list(map(add, packed, map(mul, col, repeat(u))))
        present = set(packed)
        if any(min(col) < 0 or not present.issuperset(map(u.__rsub__, compress(packed, col)))
               for col, u in zip(cols, units)):
            raise ValueError("a summand is not an order ideal of nonnegative points")
        covered: set[int] = set()
        for u in units:
            covered.update(map(u.__rsub__, present.intersection(map(u.__add__, packed))))
        maximal = present - covered
        sums: set[int] = set()
        for g in generators:
            sums.update(map(g.__add__, maximal))
        generators = sums
    return list(_ideal_graph([shift for shift, _ in fields], generators))


def count_sum_points(first: PointSet, *rest: PointSet) -> int:
    """The number of points of the Minkowski sum of faces, or of any finite
    order ideals of N^m on one root order, counted as the paths of the
    state graph of `_sum_graph` without listing a point.  Raises
    ValueError for mismatched coordinates or a summand that is not an
    order ideal."""
    summands = (first, *rest)
    if any(S.n != first.n or S.roots != first.roots for S in rest):
        raise ValueError("Minkowski sum needs matching rank and root order")
    if not all([S.tuples for S in summands]):
        return 0
    levels = _sum_graph(len(first.roots), [S.tuples for S in summands])
    return _completion_counts(levels)[0][0]


def _check_rank(A: RootSubset, lam: DominantWeight) -> None:
    if lam.n != A.n:
        raise ValueError(f"weight rank {lam.n} != subset rank {A.n}")


def lattice_point_graph(A: RootSubset, lam: DominantWeight, k: int = 1) -> list[list[list[int]]]:
    """The state graph of the k-fold Minkowski sum of the face of A at the
    given weight (k >= 1), over the coordinates of `A.sorted_roots()`, for
    `compose_points`: the face's graph of `_slack_graph` for k = 1, and
    otherwise the graph of `_sum_graph` over k copies of the points
    composed on it.  A dominant weight bounds every support by a
    nonnegative number, so the origin is a point and the graph is never
    empty.  Raises UnboundedFaceError as the enumerator does."""
    _check_rank(A, lam)
    if k < 1:
        raise ValueError("dilation factor must be >= 1")
    roots = A.sorted_roots()
    levels = list(_slack_graph(len(roots), _search_plan(A.n, roots, build_inequalities(A, lam))))
    if k == 1:
        return levels
    return _sum_graph(len(roots), [compose_points(levels, _value_cells(levels), ())] * k)


def _weight_tally(
    m: int, rows: list[tuple[int, int]], steps: Sequence[int]
) -> dict[int, int]:
    """Per packed weight, the number of solutions of `rows` over m
    coordinates with that weight, where a value v at coordinate c adds
    v * steps[c] to the packed weight.

    One pass down the state graph of `_slack_graph` keeps, per state of
    the current depth, a tally from the packed weight of each prefix
    reaching it to the number of such prefixes, so only one depth is
    alive.  A prefix's packed weight is its parent prefix's plus v *
    steps[c] for its last value v, so each state's tally is the sum of its
    parents' tallies shifted along the edges into it, and at depth m,
    which holds one state, the tally covers every point (see
    `count_integer_points`).
    """
    tallies: list[dict[int, int]] = [{0: 1}]
    for step, level in zip(steps, _slack_graph(m, rows)):
        # Every state of the next depth is some state's child.
        reached: list[dict[int, int]] = [
            {} for _ in range(1 + max([k for kids in level for k in kids]))]
        for tally, kids in zip(tallies, level):
            for v, k in enumerate(kids):
                into, shift = reached[k], v * step
                for key, count in tally.items():
                    key += shift
                    into[key] = into.get(key, 0) + count
        tallies = reached
    return tallies[0]


def count_integer_points(
    n: int, roots: tuple[Root, ...], ineqs: list[Inequality]
) -> int:
    """The number of points `enumerate_integer_points` returns, counted
    over the states of `_slack_graph` (`_slack_plan`, `_slack_children`)
    without building a point.  Raises the same UnboundedFaceError.

    Soundness.  Fix coordinates 0..c-1 of a prefix.  An inequality then
    constrains the rest only through its remaining support R, its support
    at c or later, and its remaining bound, its bound minus the prefix's
    sum over its support.  Of the inequalities with the same R, the one
    with the least remaining bound implies the others, so they merge to
    that least slack.  If R lies inside R' and R' has the smaller slack,
    the inequality on R' implies the one on R, because every coordinate is
    nonnegative: the sum over R is at most the sum over R'.  So each slack
    is tightened to the least slack over the remaining supports containing
    it.  Neither step changes the set of completions, and the tightened
    slacks, one per remaining support, are all that set depends on: the
    remaining supports at depth c are the same for every prefix, so
    prefixes with equal states have equal completions.  Coordinate c may
    take the values 0..cap, cap the least slack of a support containing c;
    a larger value breaks that inequality whatever follows, and with it
    every slack stays nonnegative, so each state has a completion (all
    zeros).

    The count is the number of paths from the root to depth m.  One pass
    down the depths carries, per state, the number of prefixes reaching
    it, and adds it to each child; depth m holds one state, the empty one.
    """
    rows = _search_plan(n, roots, ineqs)
    if rows is None:
        return 0
    root, steps = _slack_start(len(roots), rows)
    counts = {root: 1}
    for step in steps:
        reached: dict[tuple[int, ...], int] = {}
        for state, ways in counts.items():
            for child in _slack_children(step, state):
                reached[child] = reached.get(child, 0) + ways
        counts = reached
    return counts[()]


def packed_fields(
    groups: Sequence[Sequence[int]], caps: Sequence[int]
) -> tuple[list[int], list[tuple[int, int]]]:
    """Packed sums of coordinate groups: per coordinate c, the step that a
    value v at c adds v times, and per group, in the given order, the
    (shift, mask) of its bit field, the field of the last group lowest.

    A group's field holds the sum of its coordinates' values, and it is
    the bit length of the sum of their caps wide.  A point or a prefix of
    one sums to at most that in every field when each coordinate is at
    most its cap, so no field carries: packed sums add exactly, distinct
    sums have distinct packed values, and the packed values sort as the
    tuples of group sums do.
    """
    steps = [0] * len(caps)
    fields = []
    shift = 0
    for group in reversed(groups):
        width = sum([caps[c] for c in group]).bit_length()
        fields.append((shift, (1 << width) - 1))
        for c in group:
            steps[c] += 1 << shift
        shift += width
    fields.reverse()
    return steps, fields


def count_points_by_weight(
    n: int, roots: tuple[Root, ...], ineqs: list[Inequality]
) -> dict[tuple[int, ...], int]:
    """The points `enumerate_integer_points` returns, counted per weight
    without building a point: a weight is the tuple of column sums over
    `weight_columns`, the `weight=` of `points`.  The keys come in
    lexicographic order.  Raises the same UnboundedFaceError.

    A weight is packed into one int by `packed_fields`, one field per
    simple root, and the tally of `_weight_tally` adds packed weights.  A
    coordinate's value is at most its cap, the least bound of an
    inequality containing it, so no field carries.
    """
    rows = _search_plan(n, roots, ineqs)
    if rows is None:
        return {}
    caps = [min([bound for mask, bound in rows if mask >> c & 1]) for c in range(len(roots))]
    steps, fields = packed_fields(weight_columns(n, roots), caps)
    tally = _weight_tally(len(roots), rows, steps)
    return {tuple([x >> s & mask for s, mask in fields]): tally[x] for x in sorted(tally)}


def enumerate_lattice_points(A: RootSubset, lam: DominantWeight) -> PointSet:
    """All integer points of the face polytope of A at the given weight."""
    _check_rank(A, lam)
    ineqs = build_inequalities(A, lam)
    return enumerate_integer_points(A.n, A.sorted_roots(), ineqs)


def count_lattice_points(A: RootSubset, lam: DominantWeight) -> int:
    """The number of integer points of the face polytope of A at the given
    weight, counted without listing one (`count_integer_points`)."""
    _check_rank(A, lam)
    return count_integer_points(A.n, A.sorted_roots(), build_inequalities(A, lam))


def minkowski_sum(S1: PointSet, S2: PointSet) -> PointSet:
    """Pairwise sums {s + t}, deduplicated, in lexicographic order: the
    reference that the sums of faces, listed over `lattice_point_graph`
    and counted by `count_sum_points`, are tested against, for arbitrary
    point sets.

    Each point is packed into one int by `packed_fields`, one field per
    coordinate, capped at max_c S1 + max_c S2.  Coordinates must be
    nonnegative (ValueError otherwise), so every coordinate of s + t is
    within its cap: pack(s) + pack(t) = pack(s + t), and unpacking the
    sorted distinct sums gives the tuple sums in lexicographic order.
    """
    if S1.n != S2.n or S1.roots != S2.roots:
        raise ValueError("Minkowski sum needs matching rank and root order")
    if not S1.tuples or not S2.tuples:
        return PointSet(S1.n, S1.roots, ())
    cols1, cols2 = list(zip(*S1.tuples)), list(zip(*S2.tuples))
    if any(min(col) < 0 for col in cols1 + cols2):
        raise ValueError("lattice points have nonnegative coordinates")
    steps, fields = packed_fields([(c,) for c in range(len(S1.roots))],
                                  list(map(add, map(max, cols1), map(max, cols2))))
    packed = [[sum(map(mul, p, steps)) for p in S.tuples] for S in (S1, S2)]
    outer, inner = sorted(packed, key=len)
    sums: set[int] = set()
    for a in outer:
        sums.update(map(a.__add__, inner))
    return PointSet(S1.n, S1.roots, tuple(
        [tuple([x >> s & mask for s, mask in fields]) for x in sorted(sums)]))


def weight_columns(n: int, roots: tuple[Root, ...]) -> tuple[tuple[int, ...], ...]:
    """For each simple root k = 1..n, the coordinates whose root a{i}.{j}
    spans it (i <= k <= j).  Coefficient k of a point's weight is the sum of
    its values at these coordinates."""
    return tuple(tuple(c for c, r in enumerate(roots) if r.i <= k <= r.j)
                 for k in range(1, n + 1))


def degree_histogram(S: PointSet) -> dict[int, int]:
    """Counts of points by total coordinate sum."""
    hist: dict[int, int] = {}
    for vals in S.tuples:
        d = sum(vals)
        hist[d] = hist.get(d, 0) + 1
    return dict(sorted(hist.items()))
