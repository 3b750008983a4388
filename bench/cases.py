"""The fixed case list of each benchmark workload.

A case is one `fflv` command line.  Every case also carries what the checks
need to judge its output without trusting the program: the Weyl group
element in one-line notation (for `--A` cases, the element whose inversion
set the subset is), the weight, and the output format.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

FULL_TRIANGLE_5 = ",".join(f"{i}.{j}" for i in range(1, 6) for j in range(i, 6))
# Not triangular (1.1 and 2.4 need 1.4), bounded at rho(4), 208 points there.
NON_TRIANGULAR_4 = "1.1,1.3,2.2,2.3,2.4,3.3,4.4"


@dataclass(frozen=True)
class Case:
    """One CLI invocation and the facts its checks start from."""

    argv: tuple[str, ...]
    kind: str                                # weyl-scan | verify | char-compare | points
    fmt: str
    lam: tuple[int, ...] = ()
    element: Optional[tuple[int, ...]] = None
    subset: str = ""                         # --A argument, when given
    dilate: int = 1

    @property
    def label(self) -> str:
        return " ".join(self.argv)


def _oneline(text: str) -> tuple[int, ...]:
    return tuple(int(t) for t in text.split())


def scan(n: int, fmt: str) -> Case:
    return Case(("weyl-scan", "--n", str(n), "--max-rank", "7", "--format", fmt),
                "weyl-scan", fmt)


def verify(element: str, lam: str, *, word: str = "", subset: str = "",
           no_rep: bool = False, max_dim: int = 0) -> Case:
    """`element` is one-line notation; `word` or `subset` pick the flag used."""
    if subset:
        flag = ("--A", subset)
    elif word:
        flag = ("--w", word)
    else:
        flag = ("--w-oneline", element)
    argv = ("verify",) + flag + ("--lambda", lam)
    if no_rep:
        argv += ("--no-rep",)
    if max_dim:
        argv += ("--max-dim", str(max_dim))
    return Case(argv, "verify", "json", _weight(lam), _oneline(element), subset)


def char_compare(element: str, lam: str, fmt: str, *, word: str = "") -> Case:
    flag = ("--w", word) if word else ("--w-oneline", element)
    return Case(("char-compare",) + flag + ("--lambda", lam, "--format", fmt),
                "char-compare", fmt, _weight(lam), _oneline(element))


def points(subset: str, lam: str, fmt: str, dilate: int = 1) -> Case:
    argv = ("points", "--A", subset, "--lambda", lam, "--format", fmt)
    if dilate > 1:
        argv += ("--dilate", str(dilate))
    return Case(argv, "points", fmt, _weight(lam), subset=subset, dilate=dilate)


def _weight(text: str) -> tuple[int, ...]:
    return tuple(int(t) for t in text.split(","))


WORKLOADS: dict[str, list[Case]] = {
    # Classification of all of S_7 and S_8 and row formatting; no polytope
    # or module code runs.
    "scan": [scan(n, fmt) for n in (6, 7) for fmt in ("text", "csv", "json")],
    # Polytope battery without modules: Minkowski sums and normality
    # dominate, then enumeration, paths, Ehrhart counts and characters.
    # Triangular Kempf, triangular non-Kempf, the longest element, and an
    # explicit triangular subset (the inversion set of 3 4 2 5 1).
    "polytope": [
        verify("4 3 2 5 1", "1,1,1,1", no_rep=True),
        verify("4 5 1 2 3", "1,1,1,1", no_rep=True),
        verify("3 4 2 5 1", "1,1,1,1", subset="1.2,1.4,2.2,2.4,3.4,4.4", no_rep=True),
        verify("3 4 2 1", "2,2,1", word="s1 s2 s3 s1 s2", no_rep=True),
        verify("4 3 2 1", "2,1,1", no_rep=True),
        char_compare("5 4 3 2 1", "2,1,1,2", "json"),
        char_compare("3 5 4 2 1", "1,2,1,1", "text"),
        char_compare("3 4 1 5 2", "2,1,1,2", "json", word="s2 s1 s3 s2 s4"),
    ],
    # Full verify with module checks: closures and IntSpan elimination
    # dominate.  Rank 3 (longest, Kempf, explicit subset of 2 4 3 1) and a
    # rank-4 triangular non-Kempf element whose module needs --max-dim.
    "module": [
        verify("4 3 2 1", "1,2,1"),
        verify("3 4 2 1", "2,1,1"),
        verify("2 4 3 1", "2,1,1", subset="1.3,2.2,2.3,3.3"),
        verify("3 4 1 5 2", "1,1,1,1", word="s2 s1 s3 s2 s4", max_dim=2000),
    ],
    # Every point materialised and serialised: the full triangle at rho(5)
    # in each format, and 2- and 3-fold sums of a non-triangular face,
    # which no normality theorem covers.
    "export": [points(FULL_TRIANGLE_5, "1,1,1,1,1", fmt) for fmt in ("text", "csv", "json")]
    + [points(NON_TRIANGULAR_4, "1,1,1,1", "csv"),
       points(NON_TRIANGULAR_4, "1,1,1,1", "json", dilate=2),
       points(NON_TRIANGULAR_4, "1,1,1,1", "csv", dilate=3)],
}
