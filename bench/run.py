"""Benchmark of the fflv command line.

    python3 bench/run.py --workload scan --seed 1 --seconds 15 --trace 0

Runs one workload of `cases.WORKLOADS` for about `--seconds` seconds and
prints, as its last line, one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  The metric names and units come from
BENCHMARK.json at the repository root: its `end_to_end` metrics with
`--trace 0`, its `per_layer` metrics with `--trace 1`.

One caller, closed loop.  A pass is a fresh worker process (`worker.py`)
that runs every case of the workload once, one after another, in the fixed
order of the case list.  The case lists do not depend on `--seed`, which is
only recorded: a shuffled order moved the peak memory of an `export` pass
between 75 and 87 MB.  Passes follow each other while the next one should
end within `--seconds`; there is always at least one, and a pass that has
begun is finished, so every run attempts whole passes.  Before the
passes, set-up-only workers are started a few times so that `setup_s` is a
median of many starts.  With `--trace 1`, untraced and traced passes
alternate: the traced ones give the layer numbers, and the difference of the
two kinds of pass is the tracing overhead.

Workers get PYTHONHASHSEED=0 and no FFLV_* variables, so the program runs
with its own defaults.  The parent only waits while a worker runs; it checks
each case's first output (checks.py) between passes, and compares every
later output of the case with that one byte for byte.  An operation is one
CLI invocation.  It fails when it exits non-zero, when its module checks come
back skipped, or when its output differs from the checked one.  `correct`
is false when a checked output is wrong.

Exits 2 without a result when the program cannot be run, for example when
`src/fflv` is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
HASH_SEED = "0"
SETUP_PROBES = 7
WORKER_TIMEOUT_S = 160

sys.path.insert(0, str(ROOT / "src"))
from cases import WORKLOADS  # noqa: E402
from checks import Checker  # noqa: E402


class BenchError(RuntimeError):
    """The program could not be run; no result is printed."""


def _worker_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith(("PYTHON", "FFLV_"))}
    env["PYTHONHASHSEED"] = HASH_SEED
    return env


def run_worker(workload: str, *extra: str) -> tuple[float, list[dict], dict]:
    """Start one worker and wait for it: set-up seconds, case records, final record."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload, *extra]
    spawned = time.monotonic_ns()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            cwd=ROOT, env=_worker_env())
    try:
        out, err = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker for {workload} ran over {WORKER_TIMEOUT_S} s")
    if proc.returncode != 0:
        tail = err.decode(errors="replace").strip().splitlines()[-1:] or [""]
        raise BenchError(f"worker exited with {proc.returncode}: {tail[0]}")
    records = [json.loads(line) for line in out.decode().splitlines()]
    final = records.pop()
    return (final["ready_ns"] - spawned) / 1e9, records, final


def _layer_values(trace: dict, stdout_bytes: int) -> dict[str, float]:
    """Every per-layer value one traced pass gives, by metric name."""
    values: dict[str, float] = {"cli.stdout_bytes": stdout_bytes}
    for name, calls in trace["calls"].items():
        values[f"{name}.calls"] = calls
    for name, seconds in trace["s"].items():
        values[f"{name}.s"] = seconds
    for layer, seconds in trace["layer_self_s"].items():
        values[f"{layer}.self_s"] = seconds
    values.update(trace["counters"])
    values["weyl.classified"] = values["weyl.is_kempf.calls"]
    pairs = values["polytope.minkowski_pairs"]
    adds = values["linalg.IntSpan.add.calls"]
    values["polytope.minkowski_yield"] = values["polytope.minkowski_sums"] / pairs if pairs else 0.0
    values["linalg.IntSpan.add.yield"] = values["linalg.IntSpan.add.grew"] / adds if adds else 0.0
    return values


def measure(workload: str, seed: int, seconds: float, traced_run: bool) -> dict:
    """Run whole passes for `seconds` and collect samples, checks and failures."""
    cases = WORKLOADS[workload]
    checker = Checker(cases)
    checked: dict[int, str] = {}
    problems: list[str] = []
    failures: list[str] = []
    attempted = 0
    trace_path = OUT / f"trace-{workload}-seed{seed}.json.gz"

    deadline = time.monotonic() + seconds
    run_worker(workload, "--setup-only")            # bytecode and page cache, not timed
    setups = [run_worker(workload, "--setup-only")[0] for _ in range(SETUP_PROBES)]
    OUT.mkdir(exist_ok=True)
    passes = []
    while True:
        round_start = time.monotonic()
        for traced in ((False, True) if traced_run else (False,)):
            extra = ("--trace-out", str(trace_path)) if traced else ()
            setup, records, final = run_worker(workload, *extra)
            if not traced:
                setups.append(setup)
            stdout_bytes = 0
            for rec in records:
                attempted += 1
                k, out = rec["case"], rec["stdout"]
                stdout_bytes += len(out.encode())
                if rec["rc"] != 0:
                    failures.append(f"{cases[k].label}: exit {rec['rc']}: {rec['stderr'][-300:]}")
                    continue
                digest = hashlib.sha256(out.encode()).hexdigest()
                if k in checked:
                    if checked[k] != digest:
                        failures.append(f"{cases[k].label}: output differs from an earlier pass")
                    continue
                found, skipped = checker.check(k, out)
                if skipped:
                    failures.append(f"{cases[k].label}: module checks skipped")
                    continue
                problems += [f"{cases[k].label}: {p}" for p in found]
                checked[k] = digest
            passes.append({
                "traced": traced,
                "wall_s": sum(rec["seconds"] for rec in records),
                "peak_rss_mb": final["maxrss_kb"] / 1024,
                "setup_s": setup,
                "case_s": {cases[rec["case"]].label: rec["seconds"] for rec in records},
                "stdout_bytes": stdout_bytes,
                "trace": final.get("trace"),
            })
        # Another round only if it should end in time, judged by this one.
        if 2 * time.monotonic() - round_start > deadline:
            break
    problems += checker.finish()
    return {"passes": passes, "setups": setups, "attempted": attempted,
            "problems": problems, "failures": failures}


def metrics(spec: dict, run: dict, traced_run: bool) -> dict[str, dict]:
    """The end-to-end metrics, or with `traced_run` the per-layer ones, as
    medians over the run's passes.  `wall_s` sums each case's median time."""
    plain = [p for p in run["passes"] if not p["traced"]]
    if traced_run:
        wanted = spec["per_layer"]
        traced = [p for p in run["passes"] if p["traced"]]
        layer = [_layer_values(p["trace"], p["stdout_bytes"]) for p in traced]
        values = {name: statistics.median(t[name] for t in layer) for name in layer[0]}
        values["trace.overhead_s"] = (statistics.median(p["wall_s"] for p in traced)
                                      - statistics.median(p["wall_s"] for p in plain))
    else:
        wanted = spec["end_to_end"]
        values = {
            "wall_s": sum(statistics.median(p["case_s"][label] for p in plain)
                          for label in plain[0]["case_s"]),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
            "setup_s": statistics.median(run["setups"]),
        }
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError(f"BENCHMARK.json names metrics this benchmark does not measure: {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        run = measure(args.workload, args.seed, args.seconds, bool(args.trace))
        result = {
            "correct": not run["problems"],
            "attempted": run["attempted"],
            "failed": len(run["failures"]),
            "metrics": metrics(spec, run, bool(args.trace)),
        }
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    for line in run["problems"] + run["failures"]:
        print(f"bench: {line}", file=sys.stderr)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "pythonhashseed": HASH_SEED,
              "python": platform.python_version(), **run, "result": result}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
