"""The differential runner: scenario corpus x implementation matrix.

The repo carries three implementations of its max-min flow scheduler
(``REPRO_SCHEDULER`` incremental/columnar/reference), kept
byte-equivalent by construction. This module is the enforcement: every
scenario runs under each distinct scheduler in :data:`COMBOS` through
a plain :class:`~repro.runner.TrialRunner` fan-out (the whole matrix
takes about a second, so it is rerun rather than checkpointed),
and any digest divergence is a hard failure that names the scenario,
its seed, and the **first diverging trace event** — located by
re-running the two disagreeing schedulers in-process and
binary-searching the event streams
(:func:`repro.metrics.trace.first_divergence`), so the report points at
the regression, not just at a hash mismatch.

Golden digests pin the corpus against *time* as well: the expected
digest of every scenario lives in ``tests/golden/scenarios.json`` and
``python -m repro verify --refresh-golden`` is the only sanctioned way
to move it.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator, Sequence

from repro.runner import TrialRunner
from repro.sim.core import SimulationError
from repro.verify.scenarios import SCENARIOS, corpus, run_verify_spec, scenario_spec

__all__ = [
    "COMBOS",
    "Divergence",
    "DivergenceError",
    "GOLDEN_FILE",
    "check_golden",
    "load_golden",
    "locate_divergence",
    "refresh_golden",
    "run_matrix",
    "run_matrix_trial",
]

#: The implementation matrix: the ``REPRO_SCHEDULER`` selections every
#: scenario runs under. "default" leaves the knob unset; every corpus
#: scenario is below COLUMNAR_FLOW_MIN_NODES, so it runs the
#: incremental scheduler, and the columnar one is pinned here on the
#: whole corpus.
COMBOS: tuple[str, ...] = ("default", "reference", "columnar")


class DivergenceError(SimulationError):
    """Two flow schedulers disagreed on a scenario."""

    def __init__(self, divergence: "Divergence") -> None:
        super().__init__(str(divergence))
        self.divergence = divergence


@dataclass
class Divergence:
    """Everything needed to chase one digest mismatch."""

    scenario: str
    seed: int
    combo_a: str
    combo_b: str
    digest_a: str
    digest_b: str
    event_index: int | None = None
    event_a: dict[str, Any] | None = None
    event_b: dict[str, Any] | None = None

    def __str__(self) -> str:
        head = (f"scenario {self.scenario!r} (seed {self.seed}) diverges "
                f"between schedulers {self.combo_a} "
                f"({self.digest_a[:12]}) and {self.combo_b} "
                f"({self.digest_b[:12]})")
        if self.event_index is None:
            return head
        return (f"{head}; first diverging trace event at index "
                f"{self.event_index}: {self.event_a!r} != {self.event_b!r}")


@contextmanager
def _impl_env(scheduler: str) -> Iterator[None]:
    """Select one flow scheduler for the current process only."""
    key = "REPRO_SCHEDULER"
    saved = os.environ.get(key)
    try:
        if scheduler == "default":
            os.environ.pop(key, None)
        else:
            os.environ[key] = scheduler
        yield
    finally:
        if saved is None:
            os.environ.pop(key, None)
        else:
            os.environ[key] = saved


def _apply_mutation(payload: dict[str, Any], mutate: str) -> None:
    """Test-only divergence seeding: ``mutate`` perturbs the payload the
    way a real regression would. Only the verify tests pass one."""
    if mutate == "":
        return
    if mutate == "append-event":
        records = payload.get("trace_records")
        if records is not None:
            records.append({"time": -1.0, "kind": "verify_divergence_probe"})
        payload["digest"] = "diverged-" + payload["digest"][:32]
        return
    raise SimulationError(f"unknown verify mutation {mutate!r}")


def run_matrix_trial(seed: int, jobs: tuple[tuple[str, str, str], ...],
                     collect_trace: bool = False) -> dict[str, Any]:
    """:class:`TrialRunner` fan-out target. ``seed`` indexes ``jobs``;
    each entry is ``(scenario, scheduler, mutate)``. The scheduler is
    selected *inside* the trial so it holds in whichever worker process
    the trial lands in."""
    name, scheduler, mutate = jobs[seed]
    with _impl_env(scheduler):
        payload = run_verify_spec(scenario_spec(name), collect_trace=collect_trace)
    payload["combo"] = scheduler
    _apply_mutation(payload, mutate)
    return payload


def locate_divergence(divergence: Divergence,
                      mutations: dict[tuple[str, str], str] | None = None,
                      ) -> Divergence:
    """Re-run the two disagreeing schedulers in-process with full trace
    capture and fill in the first diverging event."""
    from repro.metrics.trace import first_divergence

    records = {}
    for scheduler in (divergence.combo_a, divergence.combo_b):
        mutate = (mutations or {}).get((divergence.scenario, scheduler), "")
        jobs = ((divergence.scenario, scheduler, mutate),)
        records[scheduler] = run_matrix_trial(0, jobs, collect_trace=True)["trace_records"]
    a, b = records[divergence.combo_a], records[divergence.combo_b]
    index = first_divergence(a, b)
    if index is not None:
        divergence.event_index = index
        divergence.event_a = a[index] if index < len(a) else None
        divergence.event_b = b[index] if index < len(b) else None
    return divergence


def run_matrix(
    names: list[str] | None = None,
    combos: Sequence[str] = COMBOS,
    mutations: dict[tuple[str, str], str] | None = None,
    echo=print,
    jobs: int = 1,
) -> dict[str, Any]:
    """Run the corpus (or the scenarios ``names``) under every scheduler
    in ``combos``, fanned out across ``jobs`` worker processes.

    Raises :class:`DivergenceError` on the first scenario whose digests
    disagree, after locating the first diverging trace event. Returns a
    report with the per-scenario digests (from the first scheduler) for
    golden comparison. ``mutations`` maps ``(scenario, scheduler)`` to a
    test-only perturbation name — how the tests prove a divergence is
    caught and reported.
    """
    selected = [spec["name"] for spec in corpus(names)]
    cells = tuple((name, scheduler, (mutations or {}).get((name, scheduler), ""))
                  for name in selected for scheduler in combos)
    results = TrialRunner(jobs=jobs).run("matrix", run_matrix_trial,
                                         range(len(cells)), {"jobs": cells})

    digests: dict[str, str] = {}
    for i, name in enumerate(selected):
        rows = results[i * len(combos):(i + 1) * len(combos)]
        base = rows[0].payload
        digests[name] = base["digest"]
        for scheduler, row in zip(combos[1:], rows[1:]):
            if row.payload["digest"] != base["digest"]:
                divergence = Divergence(
                    scenario=name, seed=SCENARIOS[name]["runtime_seed"],
                    combo_a=combos[0], combo_b=scheduler,
                    digest_a=base["digest"], digest_b=row.payload["digest"])
                raise DivergenceError(locate_divergence(divergence, mutations))
        echo(f"  {name:28s} {len(rows)} combos  "
             f"digest {base['digest'][:12]}  "
             f"{'ok' if base['success'] else 'job-failed'}")
    return {
        "scenarios": len(selected),
        "combos": list(combos),
        "runs": len(cells),
        "digests": digests,
    }


# -- golden digests ----------------------------------------------------------

GOLDEN_FILE = "scenarios.json"


def golden_path() -> Path:
    """``tests/golden/scenarios.json``."""
    return Path(__file__).resolve().parents[3] / "tests" / "golden" / GOLDEN_FILE


def load_golden() -> dict[str, str]:
    path = golden_path()
    try:
        return json.loads(path.read_text())
    except OSError:
        return {}


def check_golden(digests: dict[str, str]) -> list[str]:
    """Compare scenario digests to the checked-in golden file. Every
    message ends with the remediation, because the right fix is usually
    a deliberate refresh, not a revert."""
    golden = load_golden()
    problems = []
    for name, digest in digests.items():
        expected = golden.get(name)
        if expected is None:
            problems.append(f"scenario {name!r} has no golden digest")
        elif expected != digest:
            problems.append(f"scenario {name!r} digest drifted: expected "
                            f"{expected[:12]}, got {digest[:12]}")
    if problems:
        problems.append("if the change is intentional, run "
                        "`python -m repro verify --refresh-golden` and commit "
                        "the updated tests/golden/scenarios.json")
    return problems


def refresh_golden(digests: dict[str, str]) -> Path:
    from repro.runner import atomic_write_text

    path = golden_path()
    path.parent.mkdir(parents=True, exist_ok=True)
    # Atomic: the golden file is the corpus's source of truth — a kill
    # mid-refresh must not leave it torn.
    atomic_write_text(path, json.dumps(digests, indent=2, sort_keys=True) + "\n")
    return path
