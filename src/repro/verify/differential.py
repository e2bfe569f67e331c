"""The differential runner: scenario corpus x implementation matrix.

The repo carries three implementations of its max-min flow scheduler
(``REPRO_SCHEDULER`` incremental/columnar/reference), kept
byte-equivalent by construction. This module is the enforcement: every
scenario runs under each distinct scheduler in :data:`COMBOS` through
the :class:`~repro.runner.TrialRunner` fan-out,
and any digest divergence is a hard failure that names the scenario,
its seed, and the **first diverging trace event** — located by
re-running the two disagreeing combinations in-process and
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

from repro.sim.core import SimulationError
from repro.verify.scenarios import SCENARIOS, corpus, quick_corpus, run_verify_spec, scenario_spec

__all__ = [
    "COMBOS",
    "Divergence",
    "DivergenceError",
    "GOLDEN_FILE",
    "QUICK_COMBOS",
    "check_golden",
    "load_golden",
    "locate_divergence",
    "refresh_golden",
    "run_matrix",
    "run_matrix_trial",
]

#: The full implementation matrix: (kernel, scheduler) environment
#: selections, the columns of a verify-matrix row. "default" leaves the
#: knob unset; the kernel column accepts nothing else (there is one
#: kernel).
COMBOS: tuple[tuple[str, str], ...] = (
    ("default", "default"),
    ("default", "reference"),
    # The default scheduler follows the cluster's size: every corpus
    # scenario is below COLUMNAR_FLOW_MIN_NODES, so ("default",
    # "default") already runs the incremental scheduler, and the
    # columnar one is pinned here on the whole corpus.
    ("default", "columnar"),
)

#: The --quick budget: the default scheduler against the reference one.
QUICK_COMBOS: tuple[tuple[str, str], ...] = COMBOS[:2]


class DivergenceError(SimulationError):
    """Two implementation combinations disagreed on a scenario."""

    def __init__(self, divergence: "Divergence") -> None:
        super().__init__(str(divergence))
        self.divergence = divergence


@dataclass
class Divergence:
    """Everything needed to chase one digest mismatch."""

    scenario: str
    seed: int
    combo_a: tuple[str, str]
    combo_b: tuple[str, str]
    digest_a: str
    digest_b: str
    event_index: int | None = None
    event_a: dict[str, Any] | None = None
    event_b: dict[str, Any] | None = None

    def __str__(self) -> str:
        head = (f"scenario {self.scenario!r} (seed {self.seed}) diverges "
                f"between kernel/scheduler={'/'.join(self.combo_a)} "
                f"({self.digest_a[:12]}) and {'/'.join(self.combo_b)} "
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


def run_matrix_trial(seed: int, jobs: tuple[tuple[str, str, str, str], ...],
                     collect_trace: bool = False) -> dict[str, Any]:
    """:class:`TrialRunner` fan-out target. ``seed`` indexes ``jobs``;
    each entry is ``(scenario, kernel, scheduler, mutate)``. The
    scheduler is selected *inside* the trial so it holds in whichever
    worker process the trial lands in."""
    name, kernel, scheduler, mutate = jobs[seed]
    with _impl_env(scheduler):
        payload = run_verify_spec(scenario_spec(name), collect_trace=collect_trace)
    payload["combo"] = (kernel, scheduler)
    _apply_mutation(payload, mutate)
    return payload


def locate_divergence(divergence: Divergence,
                      mutations: dict[tuple[str, str, str], str] | None = None,
                      ) -> Divergence:
    """Re-run the two disagreeing combinations in-process with full
    trace capture and fill in the first diverging event."""
    from repro.metrics.trace import first_divergence

    records = {}
    for combo in (divergence.combo_a, divergence.combo_b):
        mutate = (mutations or {}).get((divergence.scenario, *combo), "")
        jobs = ((divergence.scenario, combo[0], combo[1], mutate),)
        records[combo] = run_matrix_trial(0, jobs, collect_trace=True)["trace_records"]
    a, b = records[divergence.combo_a], records[divergence.combo_b]
    index = first_divergence(a, b)
    if index is not None:
        divergence.event_index = index
        divergence.event_a = a[index] if index < len(a) else None
        divergence.event_b = b[index] if index < len(b) else None
    return divergence


def run_matrix(
    names: list[str] | None = None,
    combos: Sequence[tuple[str, str]] = COMBOS,
    quick: bool = False,
    mutations: dict[tuple[str, str, str], str] | None = None,
    echo=print,
    store: Any = None,
    jobs: int = 1,
) -> dict[str, Any]:
    """Run the corpus across the implementation matrix, fanned out
    across ``jobs`` worker processes.

    Raises :class:`DivergenceError` on the first scenario whose digests
    disagree, after locating the first diverging trace event. Returns a
    report with the per-scenario digests (from the first combo) for
    golden comparison. ``mutations`` maps ``(scenario, kernel,
    scheduler)`` to a test-only perturbation name — how the tests prove
    a divergence is caught and reported.

    The matrix runs on the campaign layer: with ``store`` (a path or an
    open :class:`~repro.campaign.CampaignStore`) every scenario × combo
    run is checkpointed as it completes, so a killed full-matrix sweep
    resumes via the same call (or ``python -m repro campaign resume``)
    re-running only the missing cells; ``None`` keeps the one-shot
    in-memory behaviour.
    """
    from repro.campaign import open_store, run_spec

    scenarios = quick_corpus() if quick and names is None else corpus(names)
    selected = [spec["name"] for spec in scenarios]
    cells: list[tuple[str, str, str, str]] = []
    for name in selected:
        for kernel, scheduler in combos:
            mutate = (mutations or {}).get((name, kernel, scheduler), "")
            cells.append((name, kernel, scheduler, mutate))

    spec = {"kind": "verify-matrix", "jobs": [list(j) for j in cells]}
    with open_store(store) as opened:
        stats = run_spec(spec, opened, jobs=jobs)
        payloads = dict(opened.payloads(stats["campaign_id"]))

    by_scenario: dict[str, list[tuple[int, tuple[str, str], dict]]] = {}
    for seed in range(len(cells)):
        name = cells[seed][0]
        by_scenario.setdefault(name, []).append(
            (seed, (cells[seed][1], cells[seed][2]), payloads[seed]))

    digests: dict[str, str] = {}
    for name in selected:
        rows = by_scenario[name]
        base_seed, base_combo, base = rows[0]
        digests[name] = base["digest"]
        for seed, combo, payload in rows[1:]:
            if payload["digest"] != base["digest"]:
                divergence = Divergence(
                    scenario=name, seed=SCENARIOS[name]["runtime_seed"],
                    combo_a=base_combo, combo_b=combo,
                    digest_a=base["digest"], digest_b=payload["digest"])
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
