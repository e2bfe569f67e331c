"""Measure the benchmark's own run-to-run spread and write ``baseline.json``.

Run from the repository root::

    python3 benchmarks/e2e/baseline.py            # ~55 min

For every workload in ``BENCHMARK.json`` it makes ``SETS`` sets of
untraced runs, one run per seed in ``SEEDS`` in each set, one ``run.py``
process at a time. For every end-to-end metric it records each set's
median and quartiles,
the spread (interquartile distance over the median) and how far the
later sets' medians moved from the first set's. The bounds in
``BENCHMARK.json`` come from these numbers: a bound must exceed the
widest spread and the largest median move, and should exceed three
times the widest spread where the host is quiet enough. It also
keeps one traced run's per-layer table per workload, one run per
implementation mode (``--impl``) as comparison rows, and host facts.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RUN = HERE / "run.py"
OUT = HERE / "baseline.json"
SETS = 2
SEEDS = range(1, 11)
IMPL_SEED = 2015
RUN_TIMEOUT_S = 600


def run_bench(workload: str, seed: int, *extra: str) -> dict:
    """One ``run.py`` process; returns its result line plus the details."""
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed), *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S, check=True)
    details, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
    result["failures"] = details["failures"]
    return result


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def host_facts() -> dict:
    import numpy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "machine": platform.machine(),
            "loadavg": os.getloadavg()}


def main() -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    out: dict = {"host_start": host_facts(), "seeds": list(SEEDS), "workloads": {}}
    for workload in (w["name"] for w in benchmark["workloads"]):
        sets = []
        for index in range(SETS):
            runs = [run_bench(workload, seed) for seed in out["seeds"]]
            print(f"{workload} set {index + 1}: "
                  f"{sum(r['failed'] for r in runs)} failed trials", file=sys.stderr)
            sets.append(runs)
        e2e = {}
        for name in sets[0][0]["metrics"]:
            per_set = [summarize([r["metrics"][name]["value"] for r in runs])
                       for runs in sets]
            first = per_set[0]["median"]
            e2e[name] = {
                "unit": sets[0][0]["metrics"][name]["unit"],
                "sets": per_set,
                "max_spread": max(s["spread"] for s in per_set),
                "max_median_move": max(abs(s["median"] - first) / first for s in per_set),
            }
        traced = run_bench(workload, IMPL_SEED, "--trace", "1")
        impl = {mode: run_bench(workload, IMPL_SEED, "--impl", mode)
                for mode in ("default", "scalar", "reference")}
        out["workloads"][workload] = {
            "e2e": e2e,
            "failures": [[seed, *failure] for runs in sets
                         for seed, r in zip(out["seeds"], runs) for failure in r["failures"]],
            "per_layer": {"seed": IMPL_SEED, "failed": traced["failed"],
                          "metrics": traced["metrics"]},
            "impl": {mode: {"correct": r["correct"], "failures": r["failures"],
                            **{k: v["value"] for k, v in r["metrics"].items()}}
                     for mode, r in impl.items()},
        }
        print(json.dumps({workload: {k: (round(v["max_spread"], 4),
                                         round(v["max_median_move"], 4))
                                     for k, v in e2e.items()}}), file=sys.stderr)
    out["host_end"] = host_facts()
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    out["bounds"] = {
        name: {"widest_spread": max(w["e2e"][name]["max_spread"]
                                    for w in out["workloads"].values()),
               "largest_median_move": max(w["e2e"][name]["max_median_move"]
                                          for w in out["workloads"].values()),
               "bound": bound}
        for name, bound in bounds.items()}
    OUT.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
