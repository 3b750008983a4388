"""Checks of the program's outputs against computations made apart from it.

Each function takes a case and its captured stdout and returns the problems it
found, as strings.  References come from the benchmark's own code: inversion
counts and the pattern definition of a triangular element, Weyl's product
formula, a reduced word by bubble sort, and the Minkowski sum of point sets.
The Demazure character is built with `characters.demazure_operator_division`,
the division form of the operator that the program's string form is checked
against.  A `Checker` keeps what one run has parsed so that formats of one
case and the dilations of one face can be compared with each other.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from itertools import combinations, permutations

from cases import Case


def inversions(w: tuple[int, ...]) -> int:
    return sum(1 for a, b in combinations(w, 2) if a > b)


def _quads(m: int) -> list[tuple[int, int, int, int]]:
    """0-based positions i < k <= j < l."""
    return [(i, k, j, l) for i in range(m) for k in range(i + 1, m)
            for j in range(k, m) for l in range(j + 1, m)]


def triangular(w: tuple[int, ...], quads=None) -> bool:
    """Pattern definition: whenever i < k <= j < l, w(i) > w(j) and
    w(k) > w(l), also w(i) > w(l) and w(k) >= w(j)."""
    for i, k, j, l in quads if quads is not None else _quads(len(w)):
        if w[i] > w[j] and w[k] > w[l] and not (w[i] > w[l] and w[k] >= w[j]):
            return False
    return True


def inversion_set(w: tuple[int, ...]) -> set[tuple[int, int]]:
    """Roots (i, j) with w(i) > w(j+1)."""
    n = len(w) - 1
    return {(i, j) for i in range(1, n + 1) for j in range(i, n + 1) if w[i - 1] > w[j]}


def weyl_dimension(lam: tuple[int, ...]) -> int:
    """Product over roots (i, j) of (m_i + ... + m_j + j - i + 1) / (j - i + 1)."""
    n = len(lam)
    dim = Fraction(1)
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            dim *= Fraction(sum(lam[i - 1:j]) + j - i + 1, j - i + 1)
    if dim.denominator != 1:
        raise ArithmeticError(f"Weyl product for {lam} is not an integer")
    return int(dim)


def demazure_dimension(w: tuple[int, ...], lam: tuple[int, ...]) -> int:
    """Mass of the Demazure character D_w x^lambda, operators by division.

    Bubble-sorting the one-line notation swaps positions i, i+1 at right
    descents, so w = s_{i_1} ... s_{i_k} with i_k the first swap; D_{i_k}
    acts first.
    """
    from fflv.characters import Character, demazure_operator_division

    n = len(lam)
    parts = tuple(sum(lam[k:]) for k in range(n)) + (0,)
    ch = Character.monomial(n, parts)
    cur = list(w)
    while True:
        i = next((i for i in range(n) if cur[i] > cur[i + 1]), None)
        if i is None:
            return ch.mass
        cur[i], cur[i + 1] = cur[i + 1], cur[i]
        ch = demazure_operator_division(i + 1, ch)


def reference_dimension(case: Case) -> int:
    if list(case.element) == sorted(case.element, reverse=True):
        return weyl_dimension(case.lam)
    return demazure_dimension(case.element, case.lam)


def _parse_roots(text: str) -> list[tuple[int, int]]:
    return sorted(tuple(int(x) for x in tok.split(".")) for tok in text.split(","))


# --- weyl-scan ---------------------------------------------------------------

def _scan_rows(case: Case, out: str):
    """Rows (w, length, kempf, triangular) and the counts the output states."""
    lines = out.splitlines()
    if case.fmt == "json":
        data = json.loads(out)
        rows = [(tuple(int(t) for t in e["w"].split()), e["length"], e["is_kempf"],
                 e["is_triangular"]) for e in data["elements"]]
        return rows, data["counts"]
    if case.fmt == "csv":
        if lines[0] != "w,length,is_kempf,is_triangular":
            raise ValueError(f"bad csv header {lines[0]!r}")
        rows = []
        for line in lines[1:]:
            w, length, k, t = line.split(",")
            rows.append((tuple(int(c) for c in w), int(length), k == "True", t == "True"))
        return rows, None
    rows = []
    for line in lines[:-1]:
        w, rest = line[1:].split("]")
        length, flags = rest.split()
        rows.append((tuple(int(t) for t in w.split()), int(length.split("=")[1]),
                     flags[0] == "K", flags[1] == "T"))
    counts = {k: int(v) for k, v in (f.split("=") for f in lines[-1].split())}
    return rows, counts


def _row_problems(n: int, rows) -> list[str]:
    if [r[0] for r in rows] != list(permutations(range(1, n + 2))):
        return [f"rows are not S_{n + 1} in one-line order"]
    problems = []
    quads = _quads(n + 1)
    for w, length, kempf, tri in rows:
        if length != inversions(w):
            problems.append(f"{w}: length {length} != {inversions(w)} inversions")
        if tri != triangular(w, quads):
            problems.append(f"{w}: triangular flag {tri} contradicts the pattern definition")
        if kempf and not tri:
            problems.append(f"{w}: Kempf but not triangular")
        if len(problems) > 5:
            break
    return problems


def check_scan(case: Case, out: str, rows_checked: bool) -> tuple[list[str], object]:
    """Row checks are skipped when another format of the same scan already
    passed them; the `Checker` then compares the rows."""
    n = int(case.argv[2])
    rows, counts = _scan_rows(case, out)
    problems = [] if rows_checked else _row_problems(n, rows)
    if counts is not None:
        want = {"total": math.factorial(n + 1), "kempf": sum(r[2] for r in rows),
                "triangular": sum(r[3] for r in rows), "kempf_non_triangular": 0}
        if counts != want:
            problems.append(f"counts {counts} != {want}")
    return problems, (("scan", n), rows)


# --- verify / char-compare -----------------------------------------------------

def check_verify(case: Case, out: str) -> tuple[list[str], bool]:
    """Problems, and whether the module checks came back skipped."""
    data = json.loads(out)
    checks = data["checks"]
    dim = reference_dimension(case)
    problems = []
    if data["ok"] is not True:
        problems.append("ok is not true")
    if case.subset and set(_parse_roots(case.subset)) != inversion_set(case.element):
        problems.append(f"--A {case.subset} is not the inversion set of {case.element}")
    for name in ("points", "minkowski", "normality", "marked_poset"):
        if checks.get(name, {}).get("status") != "pass":
            problems.append(f"{name}: {checks.get(name)}")
    if checks["points"].get("count") != dim:
        problems.append(f"lattice count {checks['points'].get('count')} != dimension {dim}")
    poset = checks["marked_poset"]
    if poset.get("chain_count") != dim or poset.get("lattice_count") != dim:
        problems.append(f"marked poset counts {poset} != dimension {dim}")
    if any(c != o for c, o in poset.get("ehrhart", [])):
        problems.append(f"chain and order counts differ: {poset.get('ehrhart')}")
    if "--A" not in case.argv:
        ch = checks.get("character", {})
        if ch.get("status") != "pass" or not ch.get("lattice_mass") == ch.get("oracle_mass") == dim:
            problems.append(f"character: {ch} against dimension {dim}")
    rep = checks["rep"]
    if "--no-rep" in case.argv:
        return problems, False
    if rep["status"] == "skipped":
        return problems, True
    if rep["status"] != "pass" or set(rep["dims"].values()) != {dim}:
        problems.append(f"rep: {rep} against dimension {dim}")
    return problems, False


def check_char_compare(case: Case, out: str) -> list[str]:
    if case.fmt == "json":
        data = json.loads(out)
    else:
        data = dict(line.split(": ", 1) for line in out.splitlines())
    dim = reference_dimension(case)
    want = {"triangular": triangular(case.element), "termwise_equal": True, "lattice_points": dim,
            "lattice_mass": dim, "oracle_mass": dim, "mass_deficit": 0}
    got = {k: str(data[k]) == "True" if isinstance(v, bool) else int(data[k])
           for k, v in want.items()}
    return [f"{got} != {want}"] if got != want else []


# --- points --------------------------------------------------------------------

def _weight_degree(roots, values) -> tuple[list[int], int]:
    n = max(j for _, j in roots)
    weight = [0] * n
    for (i, j), v in zip(roots, values):
        for k in range(i, j + 1):
            weight[k - 1] += v
    return weight, sum(values)


def _point_rows(case: Case, out: str, roots) -> tuple[list[tuple[int, ...]], list[str]]:
    problems = []
    labels = [f"a{i}.{j}" for i, j in roots]
    lines = out.splitlines()
    rows = []
    if case.fmt == "csv":
        if lines[0].split(",") != labels:
            problems.append(f"csv header {lines[0]!r}")
        rows = [tuple(int(x) for x in line.split(",")) for line in lines[1:]]
        return rows, problems
    if case.fmt == "json":
        data = json.loads(out)
        if data["A"] != [list(r) for r in roots] or data["lambda"] != list(case.lam):
            problems.append("json header does not match the case")
        position = {r: c for c, r in enumerate(roots)}
        stated = []
        for p in data["points"]:
            vals = [0] * len(roots)
            for i, j, v in p["values"]:
                vals[position[(i, j)]] = v
            rows.append(tuple(vals))
            stated.append((p["weight"], p["degree"]))
        count = data["count"]
    else:
        count = int(lines[0].split()[1])
        stated = []
        for line in lines[1:]:
            body, weight, degree = line.rsplit(" ", 2)
            pairs = [tok.split("=") for tok in body.split()]
            if [p[0] for p in pairs] != labels:
                problems.append(f"text row labels {line!r}")
                break
            rows.append(tuple(int(p[1]) for p in pairs))
            stated.append(([int(x) for x in weight[len("weight="):].split(",")],
                           int(degree[len("degree="):])))
    if count != len(rows):
        problems.append(f"count {count} != {len(rows)} rows")
    for vals, (weight, degree) in zip(rows, stated):
        if (weight, degree) != tuple(_weight_degree(roots, vals)):
            problems.append(f"weight/degree of {vals} stated as {weight}, {degree}")
            break
    return rows, problems


def check_points(case: Case, out: str) -> tuple[list[str], object]:
    roots = _parse_roots(case.subset)
    rows, problems = _point_rows(case, out, roots)
    if any(v < 0 for r in rows for v in r):
        problems.append("negative coordinate")
    if any(a >= b for a, b in zip(rows, rows[1:])):
        problems.append("rows are not strictly increasing")
    n = len(case.lam)
    if len(roots) == n * (n + 1) // 2:
        dim = weyl_dimension(tuple(case.dilate * m for m in case.lam))
        if len(rows) != dim:
            problems.append(f"{len(rows)} points on the full triangle != Weyl dimension {dim}")
    return problems, (("points", case.subset, case.lam, case.dilate), rows)


def minkowski(S, T) -> set[tuple[int, ...]]:
    return {tuple(a + b for a, b in zip(s, t)) for s in S for t in T}


class Checker:
    """Checks the first output of each case in one run, then compares
    across cases: formats of one scan or export, and dilations of a face
    against the benchmark's own k-fold sums."""

    def __init__(self, cases: list[Case]) -> None:
        self.cases = cases
        self.parsed: dict[object, list] = {}

    def check(self, index: int, out: str) -> tuple[list[str], bool]:
        """Problems with one output, and whether its module checks were skipped."""
        case = self.cases[index]
        try:
            if case.kind == "verify":
                return check_verify(case, out)
            if case.kind == "char-compare":
                return check_char_compare(case, out), False
            if case.kind == "weyl-scan":
                seen = ("scan", int(case.argv[2])) in self.parsed
                problems, (key, rows) = check_scan(case, out, seen)
            else:
                problems, (key, rows) = check_points(case, out)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return [f"unparseable output: {exc!r}"], False
        first = self.parsed.setdefault(key, rows)
        if first != rows:
            problems.append(f"{case.fmt} rows differ from another format of the same case")
        return problems, False

    def finish(self) -> list[str]:
        """Dilated exports against k-fold sums of the undilated one."""
        problems = []
        for key, rows in self.parsed.items():
            if key[0] != "points" or key[3] == 1:
                continue
            base = self.parsed.get(key[:3] + (1,))
            if base is None:
                problems.append(f"no undilated export for {key}")
                continue
            acc = set(base)
            for _ in range(key[3] - 1):
                acc = minkowski(acc, base)
            if sorted(acc) != rows:
                problems.append(f"--dilate {key[3]} of {key[1]} is not the {key[3]}-fold sum")
        return problems
