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
over one state graph that merges prefixes with equal completions; it
embeds them into the full-triangle polytope, and forms Minkowski sums and
dilations.
Everything is integer arithmetic.

A point is a tuple of values aligned with its set's root tuple, and a point
set is one tuple of such tuples in strictly increasing lexicographic order.
Each producer emits that order directly, so equal sets have equal tuples and
compare and hash as plain dataclasses.  There is no per-point object:
callers read `PointSet.tuples`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from .paths import base_root, enumerate_dyck_paths_for
from .roots import DominantWeight, Root, all_positive_roots, pairing
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


def _slack_graph(m: int, rows: list[tuple[int, int]]) -> Iterator[list[list[int]]]:
    """The state graph of the nonnegative integer solutions of `rows` over
    m coordinates, one depth at a time: for each c < m, per state at depth
    c, the states at depth c + 1 that coordinate c's values 0, 1, ..., cap
    lead to.  Depth 0 holds one state, the root, and so does depth m.

    A remaining support at depth c is the nonempty part at c or later of
    some inequality's support.  The state of a prefix of c values holds,
    per remaining support in increasing mask order, the least remaining
    bound of the inequalities whose support contains it: the slacks merged
    and tightened at once (see `count_integer_points` for why equal states
    have equal completions).  So a slack is at most that of any larger
    support, and the least slack over a family of supports is the least
    over its minimal members (`_minimal`), which are all the loop reads:
    for the cap of coordinate c, and for each remaining support at depth
    c + 1 the supports at depth c that contain it, split into those
    containing c, whose slack drops by the value of c, and the others.
    Only the current depth's states are kept, so a caller that reads each
    depth once holds one depth alive.
    """
    supports = sorted({mask for mask, _ in rows if mask})
    root = tuple([min([bound for mask, bound in rows if mask & s == s]) for s in supports])
    states = [root]
    for c in range(m):
        bit = 1 << c
        after = sorted({s & ~bit for s in supports} - {0})
        hit = [i for i, s in enumerate(supports) if s & bit]
        missed = [i for i, s in enumerate(supports) if not s & bit]
        caps = _minimal(supports, hit)
        take = [_minimal(supports, [i for i in hit if t & ~supports[i] == 0]) for t in after]
        keep = [_minimal(supports, [i for i in missed if t & ~supports[i] == 0]) for t in after]
        ids: dict[tuple[int, ...], int] = {}
        level = []
        for state in states:
            cap = min([state[i] for i in caps])
            # The new slack is min(x - v, y); a side with no support gets a
            # stand-in that never wins for v <= cap.
            pairs = []
            for tk, kp in zip(take, keep):
                x = min([state[i] for i in tk]) if tk else None
                y = min([state[i] for i in kp]) if kp else None
                pairs.append((y + cap if x is None else x, x if y is None else y))
            # A state not seen before at depth c + 1 gets the next id.
            level.append([ids.setdefault(tuple([x - v if x - v < y else y for x, y in pairs]),
                                         len(ids)) for v in range(cap + 1)])
        yield level
        supports, states = after, list(ids)


def enumerate_integer_points(
    n: int, roots: tuple[Root, ...], ineqs: list[Inequality]
) -> PointSet:
    """Nonnegative integer vectors indexed by `roots` satisfying every
    inequality, in lexicographic order.  Raises UnboundedFaceError for the
    first coordinate that occurs in no inequality.

    The points are read off the state graph of `_slack_graph`, in which a
    state at depth c stands for every prefix of c values reaching it, and
    its completions are the same for all of them (`count_integer_points`).
    A backward pass gives each state its number of completions.  The split
    depth d is the first depth whose states' completion counts sum to at
    most a sixteenth of the number of points (or m, the number of
    coordinates, if none does).  Every state at depth d gets its suffix
    list, the list of its completions, built once, bottom-up from depth m:
    a state's list is, for v = 0, 1, ..., cap, the value v in front of
    each entry of its v-th child's list.  Then the prefixes of depth d are
    walked breadth-first, each extended by its state's suffix list.

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
    hold at most an eighth as many entries as there are points, each
    shorter than a point; the lists of depth c + 1 are dropped once depth
    c is built.  The prefix list of each depth holds at most one entry per
    point.  A quarter in place of a sixteenth was slower on the full
    triangle at rho(5) and 3 rho(4), and its larger suffix lists raised
    the peak memory of a `points` export.
    """
    rows = _search_plan(n, roots, ineqs)
    if rows is None:
        return PointSet(n, roots, ())
    m = len(roots)
    levels = list(_slack_graph(m, rows))
    completions = [[1]]
    for level in reversed(levels):
        below = completions[-1]
        completions.append([sum([below[k] for k in kids]) for kids in level])
    completions.reverse()
    total = completions[0][0]
    split = next((c for c in range(m + 1) if 16 * sum(completions[c]) <= total), m)
    suffixes: list[list[tuple[int, ...]]] = [[()]]
    for level in reversed(levels[split:]):
        below = suffixes
        suffixes = []
        for kids in level:
            found = []
            for v, k in enumerate(kids):
                found += map((v,).__add__, below[k])
            suffixes.append(found)
    prefixes: list[tuple[tuple[int, ...], int]] = [((), 0)]
    for level in levels[:split]:
        prefixes = [(p + (v,), k) for p, s in prefixes for v, k in enumerate(level[s])]
    points: list[tuple[int, ...]] = []
    for p, s in prefixes:
        points += map(p.__add__, suffixes[s])
    return PointSet(n, roots, tuple(points))


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
    over the state graph of `_slack_graph` without building a point.
    Raises the same UnboundedFaceError.

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

    The count is the number of paths from the root to depth m: it is the
    pass of `_weight_tally` with every step zero, where each state's tally
    holds the single key 0.
    """
    rows = _search_plan(n, roots, ineqs)
    if rows is None:
        return 0
    return _weight_tally(len(roots), rows, [0] * len(roots))[0]


def count_points_by_weight(
    n: int, roots: tuple[Root, ...], ineqs: list[Inequality]
) -> dict[tuple[int, ...], int]:
    """The points `enumerate_integer_points` returns, counted per weight
    without building a point: a weight is the tuple of column sums over
    `weight_columns`, the `weight=` of `points`.  The keys come in
    lexicographic order.  Raises the same UnboundedFaceError.

    A weight is packed into one int, one bit field per simple root, the
    field of the last simple root lowest, and a value v at a coordinate
    adds v times the packed sum of the simple roots its root spans, as
    `minkowski_sum` packs a point.  No field carries: a coordinate's value
    is at most its cap, the least bound of an inequality containing it, so
    the sum in field k, for a point or any prefix of one, is at most the
    sum of the caps of the roots spanning k, and the field is that sum's
    bit length wide.  So packed weights add exactly, distinct weights have
    distinct packed values, and the packed values sort as the weight
    tuples do.
    """
    rows = _search_plan(n, roots, ineqs)
    if rows is None:
        return {}
    caps = [min([bound for mask, bound in rows if mask >> c & 1]) for c in range(len(roots))]
    fields = []
    steps = [0] * len(roots)
    shift = 0
    for group in reversed(weight_columns(n, roots)):
        width = sum([caps[c] for c in group]).bit_length()
        fields.append((shift, (1 << width) - 1))
        for c in group:
            steps[c] += 1 << shift
        shift += width
    fields.reverse()
    tally = _weight_tally(len(roots), rows, steps)
    return {tuple([x >> s & mask for s, mask in fields]): tally[x] for x in sorted(tally)}


def enumerate_lattice_points(A: RootSubset, lam: DominantWeight) -> PointSet:
    """All integer points of the face polytope of A at the given weight."""
    if lam.n != A.n:
        raise ValueError(f"weight rank {lam.n} != subset rank {A.n}")
    ineqs = build_inequalities(A, lam)
    return enumerate_integer_points(A.n, A.sorted_roots(), ineqs)


def _outside(S: PointSet, ineqs: list[Inequality]) -> Optional[str]:
    """Why some point of S lies outside the nonnegative solutions of the
    inequalities, or None.  A root that S has no coordinate for counts as
    zero."""
    if any(v < 0 for p in S.tuples for v in p):
        return "a point has a negative coordinate"
    index = {r: c for c, r in enumerate(S.roots)}
    for q in ineqs:
        cols = [index[r] for r in q.support if r in index]
        if any(sum([p[c] for c in cols]) > q.bound for p in S.tuples):
            return f"a point violates {q}"
    return None


def embed_face(S: PointSet, lam: DominantWeight) -> PointSet:
    """Zero-pad every point of a face to a point indexed by all positive roots.

    Validates the points against the face inequalities of their own root set
    first, building that system once; membership of the image in the full
    polytope is a theorem for triangular A and is what the tests check.
    """
    why = _outside(S, build_inequalities(RootSubset.of(S.n, S.roots), lam))
    if why is not None:
        raise ValueError(f"{why}; not a face point set")
    full = all_positive_roots(S.n)
    index = {r: c for c, r in enumerate(S.roots)}
    cols = [index.get(r) for r in full]
    return PointSet(S.n, full, tuple(sorted(
        [tuple([0 if c is None else p[c] for c in cols]) for p in S.tuples])))


def in_polytope(S: PointSet, lam: DominantWeight) -> bool:
    """Whether every point of S lies in the full-triangle polytope, a root
    that S has no coordinate for counting as zero.  The system is built
    once."""
    return _outside(S, build_inequalities(RootSubset.full(S.n), lam)) is None


def minkowski_sum(S1: PointSet, S2: PointSet) -> PointSet:
    """Pairwise sums {s + t}, deduplicated, in lexicographic order.

    Each point is packed into one int in mixed radix: coordinate c occupies
    a field of w_c = (max_c S1 + max_c S2).bit_length() bits, the fields laid
    out from the last coordinate (lowest bits) to the first (highest bits).
    Coordinates must be nonnegative (ValueError otherwise), so every
    coordinate of s + t lies in 0 .. max_c S1 + max_c S2 < 2**w_c and fits
    its field.  No field sum carries into the next, hence pack(s) + pack(t)
    = pack(s + t) and distinct sums have distinct packed values:
    deduplicating the packed ints and unpacking the survivors gives exactly
    the set of tuple sums.  Every field holds its coordinate whole, so the
    first field where two packed sums differ, the highest, is their first
    differing coordinate, and the packed ints sort in lexicographic order
    of the tuples.
    """
    if S1.n != S2.n or S1.roots != S2.roots:
        raise ValueError("Minkowski sum needs matching rank and root order")
    if not S1.tuples or not S2.tuples:
        return PointSet(S1.n, S1.roots, ())
    cols1, cols2 = list(zip(*S1.tuples)), list(zip(*S2.tuples))
    if any(min(col) < 0 for col in cols1 + cols2):
        raise ValueError("lattice points have nonnegative coordinates")
    fields = []
    shift = 0
    for c1, c2 in zip(reversed(cols1), reversed(cols2)):
        width = (max(c1) + max(c2)).bit_length()
        fields.append((shift, (1 << width) - 1))
        shift += width
    fields.reverse()

    def pack(points: tuple[tuple[int, ...], ...]) -> list[int]:
        return [sum(v << s for v, (s, _) in zip(p, fields)) for p in points]

    outer, inner = sorted((pack(S1.tuples), pack(S2.tuples)), key=len)
    sums: set[int] = set()
    for a in outer:
        sums.update(map(a.__add__, inner))
    return PointSet(S1.n, S1.roots, tuple(
        [tuple([x >> s & mask for s, mask in fields]) for x in sorted(sums)]))


def dilate(S: PointSet, k: int) -> PointSet:
    """k-fold Minkowski sum of S with itself (k >= 1)."""
    if k < 1:
        raise ValueError("dilation factor must be >= 1")
    out = S
    for _ in range(k - 1):
        out = minkowski_sum(out, S)
    return out


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


def points_to_csv(S: PointSet) -> str:
    """CSV with one column per root in canonical order, one row per point.

    Labels and integers never need quoting, so each row is one `%d`
    template filled from a point's tuple, in the set's lexicographic order."""
    row = ",".join(["%d"] * len(S.roots)) + "\n"
    header = ",".join(r.label for r in S.roots) + "\n"
    return header + "".join(map(row.__mod__, S.tuples))
