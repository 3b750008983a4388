"""Tests of the benchmark itself.

    python3 -m pytest -q bench/test_bench.py

They run every workload's cases once untraced and twice traced (about two
and a half minutes on two cores), so they live beside the benchmark rather
than in the repository's test suite.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from cases import WORKLOADS  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def test_spec_matches_the_benchmark():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert "setup_s" in {m["name"] for m in SPEC["end_to_end"]}


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_tracing_keeps_stdout_and_counts_repeat(workload):
    run.OUT.mkdir(exist_ok=True)
    trace = str(run.OUT / f"test-trace-{workload}.json.gz")
    _, plain, _ = run.run_worker(workload)
    traced = [run.run_worker(workload, "--trace-out", trace) for _ in range(2)]
    for k, case in enumerate(WORKLOADS[workload]):
        outputs = {rec[k]["stdout"] for rec in [plain] + [t[1] for t in traced]}
        assert len(outputs) == 1, f"{case.label}: stdout changes under tracing"
        assert plain[k]["rc"] == 0, case.label

    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]
    first, second = (run._layer_values(final["trace"], sum(len(r["stdout"].encode()) for r in recs))
                     for _, recs, final in traced)
    assert {n: first[n] for n in counts} == {n: second[n] for n in counts}
    # Every per-layer metric is measured, whether or not this workload calls it.
    assert {m["name"] for m in SPEC["per_layer"]} - {"trace.overhead_s"} <= set(first)
