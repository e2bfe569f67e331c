"""Smoke test of the end-to-end benchmark on scaled-down (``--smoke``) trials.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e`` (~10 s).
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def _bench(*args: str, cwd: Path = ROOT, env: dict | None = None) -> subprocess.CompletedProcess:
    """``BENCHMARK.json``'s command, run with this interpreter."""
    return subprocess.run([sys.executable, *BENCHMARK["command"][1:], *args], cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=120)


def _smoke(workload: str, trace: int) -> tuple[dict, dict]:
    proc = _bench("--workload", workload, "--seed", "11", "--seconds", "0",
                  "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    details, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
    return details, result


@pytest.fixture(scope="module", params=WORKLOADS)
def runs(request):
    return request.param, _smoke(request.param, 0), _smoke(request.param, 1)


def test_every_metric_is_printed_with_its_unit(runs):
    _, (_, untraced), (_, traced) = runs
    for result, group in ((untraced, "end_to_end"), (traced, "per_layer")):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in BENCHMARK[group]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_traced_digests_equal_untraced(runs):
    _, (untraced, _), (traced, _) = runs
    plain = {t["label"]: t["digest"] for t in untraced["trials"]}
    assert plain and all(t["digest"] for t in untraced["trials"])
    assert {t["label"]: t["digest"] for t in traced["trials"] if t["traced"]} == plain
    assert {t["label"]: t["digest"] for t in traced["trials"] if not t["traced"]} == plain


def test_layer_self_times_add_up_to_trial_wall(runs):
    _, _, (details, result) = runs
    assert details["sweeps"] == 1
    wall = sum(t["wall_s"] for t in details["trials"] if t["traced"])
    own = sum(m["value"] for name, m in result["metrics"].items()
              if name.endswith(".self_s") or name == "invariants.s")
    assert own == pytest.approx(wall, rel=0.01)


def test_trace_out_is_chrome_trace_json(tmp_path):
    out = tmp_path / "smoke.trace.json"
    proc = _bench("--workload", "chaos-campaign", "--seconds", "0", "--trace", "1",
                  "--smoke", "--trace-out", str(out))
    assert proc.returncode == 0, proc.stderr
    trace = json.loads(out.read_text())
    events = trace["traceEvents"]
    assert events and trace["otherData"]["dropped_spans"] == 0
    assert {e["ph"] for e in events} == {"X"}
    ids = {e["args"]["span"] for e in events}
    assert all(e["args"]["parent"] in ids or e["args"]["parent"] == 0 for e in events)
    assert {e["cat"] for e in events} >= {"bench", "core", "flows", "yarn", "mapreduce"}


@pytest.fixture
def bench(monkeypatch):
    """``run.py`` imported in-process, with invariants on as in a run."""
    monkeypatch.setenv("REPRO_INVARIANTS", "1")
    monkeypatch.syspath_prepend(str(HERE))
    import run

    return run


def test_corrupted_pin_counts_as_failed_trial(bench):
    from trials import WORKLOADS as SWEEPS

    trial = SWEEPS["terasort-testbed"](2015, True)[0]
    outcome = bench.run_one(trial, bench.MIN_BUDGET_S)
    pin = {"digest": outcome.digest, "elapsed": outcome.elapsed, "wall_s": outcome.wall_s}
    assert bench.judge(outcome, pin) is None
    assert "differs from pin" in bench.judge(outcome, dict(pin, digest="0" * 64))
    assert "differs from pin" in bench.judge(outcome, dict(pin, elapsed=pin["elapsed"] + 1))


def test_one_ms_budget_counts_as_failed_trial(bench):
    from trials import WORKLOADS as SWEEPS

    trial = SWEEPS["paper-recovery"](2015, True)[0]
    outcome = bench.run_one(trial, 0.001)
    assert outcome.digest is None
    assert "wall budget" in bench.judge(outcome, None)


def test_reference_clock_rescales_host_seconds():
    from time import perf_counter

    import hostspeed

    clock = hostspeed.ReferenceClock()
    clock.start()
    try:
        c0, t0 = clock(), perf_counter()
        while perf_counter() - t0 < 0.5:
            hostspeed.probe(100)
        reading, host = clock() - c0, perf_counter() - t0
    finally:
        clock.stop()
    assert len(clock.samples) > hostspeed.WINDOW  # the timer fired
    probing = sum(clock.samples[hostspeed.WINDOW:])
    scale = hostspeed.REFERENCE_PROBE_S / statistics.median(clock.samples)
    assert reading == pytest.approx((host - probing) * scale, rel=0.25)


def test_refuses_implementation_knobs():
    proc = _bench("--workload", WORKLOADS[0], "--smoke",
                  env=dict(os.environ, REPRO_SCHEDULER="reference"))
    assert proc.returncode != 0 and not proc.stdout


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = _bench("--workload", WORKLOADS[0], "--smoke", cwd=tmp_path, env=env)
    assert proc.returncode != 0 and not proc.stdout
