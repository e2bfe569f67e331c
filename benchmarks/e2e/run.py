"""End-to-end benchmark: seconds per trial on four paper-scale workloads.

Run from the repository root (no install or ``PYTHONPATH`` needed)::

    python3 benchmarks/e2e/run.py --workload terasort-testbed --seed 2015
    python3 benchmarks/e2e/run.py --workload chaos-campaign --trace 1 \\
        --trace-out /tmp/chaos.trace.json
    python3 benchmarks/e2e/run.py --workload shuffle-wide --impl scalar
    python3 benchmarks/e2e/run.py --workload paper-recovery --refresh-expected

One process runs one workload as a closed loop with one client: no
threads, no trial fan-out, no trial cache. The workload's trial list (a
*sweep*, see ``trials.py``) runs back to back after one untimed warm-up
trial, with ``gc.collect()`` between trials outside the timed region.
Whole sweeps repeat while the next one is predicted to end within
``--seconds``; at least one always runs. A repeated sweep re-runs the
same seeds, so its digests must equal the first sweep's (and the
warm-up's).

A trial fails if it raises, outlives its wall budget (SIGALRM; the
larger of 60 s and 10x its pinned wall), reports an invariant
violation, differs from an earlier run of the same trial in the
process, or — when ``expected.json`` pins it — differs from its pinned
digest or simulated ``elapsed``. A job that fails inside the simulation
is not a failed trial: its outcome is part of the digest.

``--trace 0`` prints the end-to-end metrics, measured untraced in
reference seconds: host seconds rescaled by how fast the host runs a
fixed probe at that moment (``hostspeed.py``), so that a shared host's
slow minutes do not read as a slower simulator.
``--trace 1`` runs every trial twice, untraced then traced (``spans.py``),
and prints the per-layer metrics, each per sweep. The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds the
per-trial digests and failures.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import signal
import statistics
import sys
from collections import Counter
from dataclasses import asdict, dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

from hostspeed import ReferenceClock
from trials import EXPECTED, WORKLOADS, load_pins, pinned_trials

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

DEFAULT_SEED = 2015
DEFAULT_SECONDS = 20
MIN_BUDGET_S = 60.0
BUDGET_PER_PINNED_WALL = 10.0

#: Implementation-mode knobs: set by ``--impl`` only, never inherited.
REFUSED_ENV = ("REPRO_KERNEL", "REPRO_SCHEDULER", "REPRO_DATA_PLANE", "REPRO_PROFILE",
               "REPRO_TRACE_COUNT_ONLY", "REPRO_TRIAL_CACHE")
IMPL_ENV = {
    "default": {},
    "scalar": {"REPRO_DATA_PLANE": "reference"},
    "reference": {"REPRO_DATA_PLANE": "reference", "REPRO_SCHEDULER": "reference",
                  "REPRO_KERNEL": "reference"},
}

#: Times trials and set-up in reference seconds while it runs (untraced
#: runs); otherwise it reads host seconds.
CLOCK = ReferenceClock()


class BudgetExceeded(BaseException):
    """Raised from SIGALRM when a trial outlives its wall budget.

    Not an ``Exception``, so ``except Exception`` handlers let it pass.
    The kernel still catches it when it lands inside a generator step
    (``Process._resume`` stores any ``BaseException`` as the process's
    failure), so it is not what ends or fails the trial: the alarm
    re-fires every second until one lands outside a step, and
    ``run_one`` fails any trial during which it fired at all."""


@dataclass
class Outcome:
    """One executed trial."""

    label: str
    seed: int
    traced: bool
    #: Host seconds.
    wall_s: float = 0.0
    #: The same span, and the set-up part of it, on ``CLOCK``.
    trial_s: float = 0.0
    setup_s: float | None = None
    elapsed: float | None = None
    digest: str | None = None
    violations: list[str] = field(default_factory=list)
    error: str | None = None
    #: Why the trial counts as failed, or ``None``.
    failure: str | None = None


class _RunProbe:
    """Wraps the public ``MapReduceRuntime.run`` for one trial: notes
    when it is first called (the end of set-up) and keeps the runtime
    and its result for the per-layer counters."""

    def __enter__(self) -> "_RunProbe":
        from repro.mapreduce.job import MapReduceRuntime

        self.t_run: float | None = None
        self.runtime = self.result = None
        self._original = original = vars(MapReduceRuntime)["run"]
        probe = self

        def run(rt, *args, **kwargs):
            if probe.t_run is None:
                probe.t_run = CLOCK()
            result = original(rt, *args, **kwargs)
            probe.runtime, probe.result = rt, result
            return result

        run.__name__ = original.__name__
        MapReduceRuntime.run = run
        return self

    def __exit__(self, *exc) -> None:
        from repro.mapreduce.job import MapReduceRuntime

        MapReduceRuntime.run = self._original

    def counts(self) -> Counter:
        """The finished runtime's counters, read from public surfaces."""
        rt, result = self.runtime, self.result
        out: Counter = Counter()
        if rt is None:
            return out
        out.update(rt.cluster.flows.stats)
        kinds = rt.trace.summary()["kinds"]
        out["events"] = rt.trace.total_events()
        for kind in ("attempt_start", "sfm_regenerate", "fault_injected"):
            out[kind] = kinds.get(kind, 0)
        for key in ("failed_map_attempts", "failed_reduce_attempts", "map_reruns"):
            out[key] = result.counters[key]
        return out


def run_one(trial: Callable[[], dict], budget_s: float, tracer=None,
            counts: Counter | None = None) -> Outcome:
    """Run one trial under a wall budget; with ``tracer``, inside a root
    span with every layer wrapped. Adds the runtime's counters to
    ``counts`` when given."""
    fired: list[int] = []

    def on_alarm(signum, _frame):
        fired.append(signum)
        raise BudgetExceeded

    gc.collect()
    previous = signal.signal(signal.SIGALRM, on_alarm)
    outcome = Outcome(trial.label, trial.seed, traced=tracer is not None)
    with _RunProbe() as probe:
        if tracer is not None:
            tracer.install()
            call = tracer.timed(trial.__call__, "trial", "bench")
        else:
            call = trial
        t0, c0 = perf_counter(), CLOCK()
        try:
            # Re-fires every second until cleared: a firing that lands in
            # a generator step is stored as that process's failure.
            signal.setitimer(signal.ITIMER_REAL, budget_s, 1.0)
            try:
                payload = call()
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except BudgetExceeded:
            payload = None
        except Exception as exc:  # a raising trial is a failed trial, not a crash
            payload = None
            outcome.error = f"raised {type(exc).__name__}: {exc}"
        finally:
            outcome.trial_s = CLOCK() - c0
            outcome.wall_s = perf_counter() - t0
            signal.signal(signal.SIGALRM, previous)
            if tracer is not None:
                tracer.uninstall()
        if probe.t_run is not None:
            outcome.setup_s = probe.t_run - c0
        if counts is not None:
            counts.update(probe.counts())
    if fired:
        outcome.error = f"exceeded its {budget_s:g} s wall budget"
    elif payload is not None:
        outcome.elapsed = payload["elapsed"]
        outcome.digest = payload["digest"]
        outcome.violations = list(payload["violations"])
    return outcome


def judge(outcome: Outcome, pin: dict | None, first: Outcome | None = None) -> str | None:
    """Why ``outcome`` counts as a failed trial, or ``None``. ``first``
    is an earlier run of the same trial that it must reproduce."""
    if outcome.error:
        return outcome.error
    if outcome.violations:
        return "invariant violations: " + "; ".join(outcome.violations)
    if first is not None and first.digest is not None and outcome.digest != first.digest:
        return f"digest {outcome.digest[:12]} differs from an earlier run's {first.digest[:12]}"
    if pin is not None:
        if outcome.digest != pin["digest"]:
            return f"digest {outcome.digest[:12]} differs from pin {pin['digest'][:12]}"
        if outcome.elapsed != pin["elapsed"]:
            return f"elapsed {outcome.elapsed!r} differs from pin {pin['elapsed']!r}"
    return None


def budget_for(pin: dict | None) -> float:
    if pin is None:
        return MIN_BUDGET_S
    return max(MIN_BUDGET_S, BUDGET_PER_PINNED_WALL * pin["wall_s"])


# -- the closed loop ------------------------------------------------------------

@dataclass
class Run:
    """Everything one benchmark process measured."""

    #: Measured untraced executions, in order.
    untraced: list[Outcome] = field(default_factory=list)
    #: Traced executions (``--trace 1``), one after each untraced one.
    traced: list[Outcome] = field(default_factory=list)
    #: The warm-up plus every measured execution.
    attempted: int = 0
    failures: list[tuple[str, str]] = field(default_factory=list)
    #: Summed untraced ``trial_s`` of each whole sweep.
    sweep_times: list[float] = field(default_factory=list)
    #: Runtime counters summed over the traced executions.
    counts: Counter = field(default_factory=Counter)

    def record(self, outcome: Outcome, failure: str | None) -> None:
        outcome.failure = failure
        self.attempted += 1
        if failure is not None:
            self.failures.append((outcome.label, failure))


def run_workload(sweep: list, pins: dict[str, dict], seconds: float,
                 tracer=None) -> Run:
    run = Run()
    warm = sweep[0]
    warmup = run_one(warm, budget_for(pins.get(warm.label)))
    run.record(warmup, judge(warmup, pins.get(warm.label)))
    first = {warm.label: warmup}
    start = perf_counter()
    while True:
        sweep_start = perf_counter()
        for trial in sweep:
            pin = pins.get(trial.label)
            budget = budget_for(pin)
            outcome = run_one(trial, budget)
            run.record(outcome, judge(outcome, pin, first.get(trial.label)))
            run.untraced.append(outcome)
            first.setdefault(trial.label, outcome)
            if tracer is not None:
                tracer.trial += 1
                traced = run_one(trial, budget, tracer, run.counts)
                run.record(traced, judge(traced, pin, outcome))
                run.traced.append(traced)
        run.sweep_times.append(sum(o.trial_s for o in run.untraced[-len(sweep):]))
        now = perf_counter()
        if now - start + (now - sweep_start) > seconds:
            return run


def e2e_metrics(run: Run) -> dict[str, tuple[float, str]]:
    setups = [o.setup_s for o in run.untraced if o.setup_s is not None]
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        # Geometric, not median: paper-recovery's two jobs leave a gap in
        # its trial times just where the median falls.
        "trial_s": (statistics.geometric_mean(o.trial_s for o in run.untraced), "s"),
        "sweep_s": (statistics.median(run.sweep_times), "s"),
        "setup_s": (statistics.median(setups) if setups else 0.0, "s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }


# -- entry point ----------------------------------------------------------------

def _prepare(impl: str) -> None:
    """Select the implementation and import ``repro`` from this checkout."""
    refused = [k for k in REFUSED_ENV if os.environ.get(k)]
    if refused:
        sys.exit(f"run.py: unset {', '.join(refused)}; the benchmark selects "
                 "implementations itself (--impl)")
    os.environ.update(IMPL_ENV[impl])
    os.environ["REPRO_INVARIANTS"] = "1"
    # One thread: numpy's BLAS pool would otherwise start one per core.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import repro
    except ImportError as exc:
        sys.exit(f"run.py: cannot import repro from {ROOT / 'src'}: {exc}")
    if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"run.py: imported repro from {repro.__file__}, not from {ROOT / 'src'}")


def refresh_expected(workload: str) -> None:
    """Re-pin the digest, simulated ``elapsed`` and wall time of every
    trial ``trials.pinned_trials`` names (like ``verify --refresh-golden``)."""
    from repro.runner import atomic_write_text

    trials = pinned_trials(workload)
    run_one(trials[0], MIN_BUDGET_S)  # warm-up, as in a measured run
    pins = {}
    for trial in trials:
        outcome = run_one(trial, MIN_BUDGET_S)
        failure = judge(outcome, None)
        if failure:
            sys.exit(f"run.py: {workload} {trial.label}: {failure}")
        pins[trial.label] = {"digest": outcome.digest, "elapsed": outcome.elapsed,
                             "wall_s": round(outcome.wall_s, 3)}
    data = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
    data[workload] = pins
    atomic_write_text(EXPECTED, json.dumps(data, indent=0, sort_keys=True) + "\n")
    print(f"pinned {len(pins)} {workload} trials in {EXPECTED}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="measure whole sweeps for about this long (at least one)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: run traced and print the per-layer metrics")
    parser.add_argument("--trace-out", metavar="FILE",
                        help="with --trace 1: write the spans as Chrome trace JSON")
    parser.add_argument("--impl", choices=sorted(IMPL_ENV), default="default",
                        help="implementation mode (comparison rows, not gated)")
    parser.add_argument("--smoke", action="store_true",
                        help="scaled-down trials for the smoke test")
    parser.add_argument("--refresh-expected", action="store_true",
                        help="re-pin the workload's trials in expected.json")
    args = parser.parse_args()
    if args.seconds < 0:
        parser.error("--seconds must be >= 0")
    if args.trace_out and not args.trace:
        parser.error("--trace-out needs --trace 1")
    if args.refresh_expected and args.impl != "default":
        parser.error("pins come from the default implementation")
    _prepare(args.impl)
    if args.refresh_expected:
        refresh_expected(args.workload)
        return 0

    from spans import SPAN_CAP, Tracer, layer_metrics

    sweep = WORKLOADS[args.workload](args.seed, args.smoke)
    pins = {} if args.smoke else load_pins(args.workload)
    tracer = Tracer(SPAN_CAP if args.trace_out else 0) if args.trace else None
    if tracer is None:
        CLOCK.start()  # spans are host seconds: the probes would land in them
    try:
        run = run_workload(sweep, pins, args.seconds, tracer)
    finally:
        CLOCK.stop()
    if tracer is not None:
        metrics = layer_metrics(
            tracer, run.counts, sweeps=len(run.sweep_times),
            untraced_s=sum(o.wall_s for o in run.untraced),
            traced_s=sum(o.wall_s for o in run.traced),
            simulated_s=sum(o.elapsed or 0.0 for o in run.untraced))
        if args.trace_out:
            tracer.write_chrome(args.trace_out)
    else:
        metrics = e2e_metrics(run)
    first_sweep = run.untraced[:len(sweep)] + run.traced[:len(sweep)]
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "impl": args.impl,
        "smoke": args.smoke, "sweeps": len(run.sweep_times),
        "pinned_trials": sum(t.label in pins for t in sweep),
        "probes": len(CLOCK.samples),
        "probe_s": statistics.median(CLOCK.samples) if CLOCK.samples else None,
        "trials": [asdict(o) for o in first_sweep], "failures": run.failures,
    }))
    print(json.dumps({
        "correct": not run.failures, "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
