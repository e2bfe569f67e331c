"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``run``
    Run one simulated job, e.g.::

        python -m repro run terasort --size-gb 100 --policy alm \\
            --fault node@0.5:reducer --report --export job.json

``experiment``
    Regenerate one paper figure/table, e.g.::

        python -m repro experiment table2 --scale 0.5

``list``
    Show available workloads, policies and experiments.

``chaos``
    Run a seeded chaos campaign checked against the simulation-wide
    invariants, e.g.::

        python -m repro chaos --seed 7 --trials 50

``campaign``
    Durable, resumable chaos campaigns: every completed trial is
    checkpointed into a sqlite store as it finishes, so a killed sweep
    resumes losing nothing, e.g.::

        python -m repro chaos --store sweeps.db --trials 100000
        python -m repro campaign resume --store sweeps.db
        python -m repro campaign submit --store sweeps.db --spec spec.json
        python -m repro campaign status --store sweeps.db
        python -m repro campaign export --store sweeps.db --out sweep.json

``verify``
    Differential verification: run the whole scenario corpus under
    every flow scheduler, check golden trace digests, check the
    metamorphic relations, and check every paper figure's shape claims
    at full scale, e.g.::

        python -m repro verify --matrix --jobs 4
        python -m repro verify --refresh-golden

Fault specs: ``reduce@P`` (OOM the reducer at progress P),
``map@P:IDX``, ``node@P:TARGET`` (TARGET = reducer | map-only | worker
index), ``nodetime@T:TARGET``, ``maps@T:N`` (kill N maps at time T),
``slow@T:IDX[:FACTOR]`` (degrade a node's disk),
``partition@T:IDX[,IDX...]:DUR`` (transient network partition that
heals after DUR seconds), ``rack@T:IDX[:crash|network]`` (rack-wide
failure), ``am@P[:REPEAT]`` (crash the AppMaster at reduce progress P,
REPEAT incarnations in a row), ``amtime@T`` (crash the AppMaster at
time T). Each shorthand parses into the JSON fault spec that chaos
trials and verify scenarios carry; an omitted optional part leaves its
key out, so the injector class's default applies.
"""

from __future__ import annotations

import argparse
import inspect
import os
import sys
import time

from repro.experiments import EXPERIMENTS
from repro.faults.chaos import build_runtime
from repro.metrics import export_result_json, failure_timeline, progress_curve, task_gantt
from repro.runner import TrialRunner
from repro.sim.core import SimulationError
from repro.workloads import BENCHMARKS

__all__ = ["main", "parse_fault"]


def _policy_choices() -> tuple[str, ...]:
    """Every recovery policy (the zoo), imported lazily so ``--help``
    stays cheap and a broken policy module fails loudly at the point of
    use, not at import."""
    from repro.policies import policy_names

    return policy_names()


def parse_fault(spec: str) -> dict:
    """Parse one ``--fault`` shorthand into its JSON fault spec (the form
    :func:`repro.faults.chaos.build_fault` materialises)."""
    try:
        kind, rest = spec.split("@", 1)
        parts = rest.split(":")
        at, extra = float(parts[0]), parts[1:]
        if kind in ("reduce", "map"):
            return {"kind": "task-oom", "task_type": kind, "at_progress": at,
                    **_given(extra, ("task_index", int))}
        if kind in ("node", "nodetime"):
            when = "at_progress" if kind == "node" else "at_time"
            return {"kind": "node-network", when: at, **_given(extra, ("target", _node_target))}
        if kind == "maps":
            return {"kind": "map-wave", "count": int(extra[0]), "at_time": at}
        if kind == "slow":
            return {"kind": "degraded", "at_time": at,
                    **_given(extra, ("node_index", int), ("disk_factor", float))}
        if kind == "partition":
            return {"kind": "partition", "at_time": at,
                    "node_indices": [int(i) for i in extra[0].split(",")],
                    **_given(extra[1:], ("duration", float))}
        if kind == "am":
            return {"kind": "am-crash", "at_progress": at, **_given(extra, ("repeat", int))}
        if kind == "amtime":
            return {"kind": "am-crash", "at_time": at}
        if kind == "rack":
            return {"kind": "rack", "at_time": at,
                    **_given(extra, ("rack_index", int), ("mode", str))}
    except (ValueError, IndexError) as exc:
        raise argparse.ArgumentTypeError(f"bad fault spec {spec!r}: {exc}") from exc
    raise argparse.ArgumentTypeError(f"unknown fault kind in {spec!r}")


def _given(parts: list[str], *keys: tuple) -> dict:
    """The optional trailing shorthand ``parts`` as JSON keys, cast per
    ``(key, cast)``; a part left out is a key left out, so the injector
    class's default applies."""
    return {key: cast(part) for part, (key, cast) in zip(parts, keys)}


def _node_target(text: str):
    if text in ("reducer", "map-only"):
        return text
    return int(text)


def _parse_policies(text: str) -> tuple[str, ...]:
    """``--policies`` value -> roster tuple (``'all'`` = the registry).

    The argparse ``type`` of every ``--policies`` flag, so an empty
    roster or an unregistered name is a usage error (exit 2)."""
    registered = _policy_choices()
    if text.strip() == "all":
        return registered
    roster = tuple(p.strip() for p in text.split(",") if p.strip())
    if not roster:
        raise argparse.ArgumentTypeError("empty --policies roster")
    unknown = [p for p in roster if p not in registered]
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown policy {', '.join(map(repr, unknown))}; "
            f"registered: {', '.join(registered)}")
    return roster


def _scenario(name: str) -> str:
    """argparse ``type`` of ``verify --scenario``: a corpus name, so a
    typo is a usage error (exit 2)."""
    from repro.verify.scenarios import SCENARIOS

    if name not in SCENARIOS:
        raise argparse.ArgumentTypeError(
            f"unknown scenario {name!r}; choose from {', '.join(SCENARIOS)}")
    return name


def _positive(cast):
    """argparse ``type`` for trial and worker counts (``int``) and
    input-size scales (``float``): a finite value above zero."""
    def parse(text: str):
        try:
            value = cast(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {cast.__name__} value: {text!r}") from None
        if not 0 < value < float("inf"):
            raise argparse.ArgumentTypeError(f"must be positive, got {text}")
        return value
    return parse


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Simulated YARN MapReduce + the ALM fault-tolerance framework",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one simulated job")
    p_run.add_argument("workload", choices=sorted(BENCHMARKS))
    p_run.add_argument("--size-gb", type=float, default=None,
                       help="input size in GB (default: the paper's size)")
    p_run.add_argument("--reducers", type=int, default=None)
    p_run.add_argument("--policy", choices=_policy_choices(), default="yarn")
    p_run.add_argument("--fault", action="append", default=[], type=parse_fault,
                       metavar="SPEC", help="fault spec (repeatable); see module docs")
    p_run.add_argument("--nodes", type=int, default=21)
    p_run.add_argument("--racks", type=int, default=2)
    p_run.add_argument("--seed", type=int, default=2015)
    p_run.add_argument("--speculation", action="store_true")
    p_run.add_argument("--report", action="store_true",
                       help="print progress curve, gantt, failure timeline "
                            "and flow-scheduler counters")
    p_run.add_argument("--export", metavar="PATH", default=None,
                       help="write the full trace as JSON")

    p_exp = sub.add_parser("experiment", help="regenerate a paper figure/table")
    p_exp.add_argument("name", choices=EXPERIMENTS)
    p_exp.add_argument("--scale", type=_positive(float), default=0.5,
                       help="input-size scale vs the paper (default 0.5)")
    p_exp.add_argument("--policies", metavar="LIST", default=None,
                       type=_parse_policies,
                       help="comma-separated policy roster, or 'all' for the "
                            "whole registry (table2 only: sweeps the roster "
                            "instead of the paper's yarn/sfm pair)")

    p_chaos = sub.add_parser(
        "chaos", help="run a seeded chaos campaign with invariant checking")
    p_chaos.add_argument("--seed", type=int, default=7,
                         help="campaign seed: same seed = identical campaign")
    p_chaos.add_argument("--trials", type=_positive(int), default=50)
    p_chaos.add_argument("--scale", type=_positive(float), default=None,
                         help="input-size scale per trial (default 1.0, or "
                              "0.5 under --smoke); part of the campaign id")
    p_chaos.add_argument("--am-faults", action="store_true",
                         help="include AM-crash and lossy-RPC archetypes "
                              "in the fault pool")
    p_chaos.add_argument("--policies", metavar="LIST", default=None,
                         type=_parse_policies,
                         help="comma-separated policy roster to rotate trials "
                              "across, or 'all' for every registered policy "
                              "(default: the five seed systems)")
    p_chaos.add_argument("--smoke", action="store_true",
                         help="CI budget: smaller inputs, at most 30 trials")
    p_chaos.add_argument("--jobs", type=_positive(int), default=1, metavar="N",
                         help="fan trials across N worker processes "
                              "(default: serial)")
    p_chaos.add_argument("--out", metavar="DIR", default="chaos-reports",
                         help="directory for reproducer JSON files")
    p_chaos.add_argument("--no-minimize", action="store_true",
                         help="skip greedy schedule minimization on violation")
    p_chaos.add_argument("--replay", metavar="FILE", default=None,
                         help="re-run a reproducer JSON instead of a campaign")
    p_chaos.add_argument("--store", metavar="FILE", default=None,
                         help="durable campaign store (sqlite): checkpoint "
                              "every trial, resume a killed campaign via "
                              "`repro campaign resume`")

    p_camp = sub.add_parser(
        "campaign",
        help="durable, resumable campaigns: submit / resume / status / export")
    camp_sub = p_camp.add_subparsers(dest="campaign_cmd", required=True)
    c_submit = camp_sub.add_parser(
        "submit", help="register a campaign and run it to completion")
    c_submit.add_argument("--store", metavar="FILE", required=True,
                          help="sqlite campaign store (created if missing)")
    c_submit.add_argument("--spec", metavar="FILE", required=True,
                          help="JSON campaign spec (kind chaos); "
                               "`repro chaos --store FILE` submits a chaos "
                               "campaign from flags")
    c_submit.add_argument("--jobs", type=_positive(int), default=1, metavar="N",
                          help="fan trials across N worker processes")
    c_submit.add_argument("--out", metavar="DIR", default=None,
                          help="reproducer directory for chaos campaigns")
    c_submit.add_argument("--no-minimize", action="store_true")
    c_resume = camp_sub.add_parser(
        "resume", help="resume an interrupted campaign from its store")
    c_resume.add_argument("--store", metavar="FILE", required=True)
    c_resume.add_argument("--id", default=None, metavar="PREFIX",
                          help="campaign id prefix (default: the most "
                               "recently updated incomplete campaign)")
    c_resume.add_argument("--jobs", type=_positive(int), default=1, metavar="N")
    c_resume.add_argument("--out", metavar="DIR", default=None)
    c_resume.add_argument("--no-minimize", action="store_true")
    c_status = camp_sub.add_parser(
        "status", help="per-campaign progress and incremental aggregates")
    c_status.add_argument("--store", metavar="FILE", required=True)
    c_status.add_argument("--id", default=None, metavar="PREFIX")
    c_export = camp_sub.add_parser(
        "export", help="write one campaign (spec, trials, aggregates) as JSON")
    c_export.add_argument("--store", metavar="FILE", required=True)
    c_export.add_argument("--id", default=None, metavar="PREFIX",
                          help="campaign id prefix (default: sole campaign)")
    c_export.add_argument("--out", metavar="FILE", required=True)
    c_export.add_argument("--payloads", action="store_true",
                          help="include full per-trial payloads")

    p_verify = sub.add_parser(
        "verify",
        help="differential verification: scenario corpus x implementation "
             "matrix, golden digests, metamorphic relations, paper claims")
    p_verify.add_argument("--matrix", action="store_true",
                          help="corpus under every flow scheduler in "
                               "verify.COMBOS plus golden check")
    p_verify.add_argument("--metamorphic", action="store_true",
                          help="metamorphic relations only")
    p_verify.add_argument("--refresh-golden", action="store_true",
                          help="re-run the corpus and rewrite "
                               "tests/golden/scenarios.json")
    p_verify.add_argument("--scenario", action="append", default=None,
                          type=_scenario, metavar="NAME",
                          help="restrict to named scenario(s)")
    p_verify.add_argument("--jobs", type=_positive(int), default=1, metavar="N",
                          help="fan matrix runs and paper-claim rows across "
                               "N worker processes (default: serial)")
    p_verify.add_argument("--out", metavar="DIR", default="chaos-reports",
                          help="directory for metamorphic reproducer JSON "
                               "files")

    sub.add_parser("list", help="show workloads, policies and experiments")
    return parser


def cmd_run(args) -> int:
    # Omitted sizes fall back to the workload's own (the paper's) defaults.
    defaults = inspect.signature(BENCHMARKS[args.workload]).parameters
    spec = {
        "workload": args.workload,
        "input_gb": args.size_gb if args.size_gb is not None
        else defaults["input_gb"].default,
        "reducers": args.reducers if args.reducers is not None
        else defaults["num_reducers"].default,
        "nodes": args.nodes,
        "racks": args.racks,
        "runtime_seed": args.seed,
        "policy": args.policy,
        "faults": args.fault,
        "speculation": args.speculation,
    }
    # An impossible job (too few nodes, no reducers, empty input, ...)
    # is a usage error (exit 2), not a FAILED job (exit 1) or a traceback.
    try:
        rt = build_runtime(spec, f"{args.workload}-{args.policy}")
    except SimulationError as exc:
        print(f"repro run: error: {exc}", file=sys.stderr)
        return 2
    result = rt.run()
    status = "SUCCESS" if result.success else "FAILED"
    print(f"{result.job_name}: {status} in {result.elapsed:.1f} simulated seconds")
    for key, value in result.counters.items():
        print(f"  {key:28s} {value}")
    if args.report:
        print()
        print(progress_curve(result.trace))
        print()
        print(task_gantt(result))
        print()
        print(failure_timeline(result.trace))
        print("\nflow scheduler:")
        for key, value in sorted(rt.cluster.flows.stats.items()):
            print(f"  {key:16s} {value}")
    if args.export:
        path = export_result_json(result, args.export)
        print(f"\ntrace written to {path}")
    return 0 if result.success else 1


def cmd_experiment(args) -> int:
    # Only table2 sweeps a roster; any other experiment would silently
    # ignore it.
    kwargs = {}
    if args.policies is not None:
        if args.name != "table2":
            print("repro experiment: error: --policies applies to table2 only, "
                  f"not {args.name}", file=sys.stderr)
            return 2
        kwargs["systems"] = args.policies
    driver, render, _claims = EXPERIMENTS[args.name]
    print(render(driver(scale=args.scale, **kwargs)))
    return 0


def cmd_chaos(args) -> int:
    import json
    from pathlib import Path

    from repro.faults.chaos import run_trial_spec

    if args.replay is not None:
        try:
            repro = json.loads(Path(args.replay).read_text())
        except (OSError, ValueError) as exc:
            print(f"repro chaos: error: cannot read reproducer {args.replay}: {exc}",
                  file=sys.stderr)
            return 2
        if not isinstance(repro, dict):
            print(f"repro chaos: error: {args.replay} is not a reproducer "
                  "(expected a JSON object)", file=sys.stderr)
            return 2
        if "relation" in repro:
            # verify writes these into the same default --out directory,
            # but their spec is a scenario spec and replaying one could
            # not re-check the relation anyway.
            print(f"{args.replay} is a metamorphic reproducer (relation "
                  f"{repro['relation']!r}); re-check it with "
                  "`python -m repro verify --metamorphic`", file=sys.stderr)
            return 2
        spec = repro.get("spec", repro)  # accept a bare spec too
        if repro.get("minimized_faults"):
            spec = dict(spec, faults=repro["minimized_faults"])
        try:
            payload = run_trial_spec(spec)
        except SimulationError as exc:
            # Exit 1 means "violation reproduced": a reproducer that
            # cannot even be built is a usage error instead.
            print(f"repro chaos: error: cannot replay {args.replay}: {exc}",
                  file=sys.stderr)
            return 2
        status = "ok" if not payload["violations"] else "VIOLATION"
        print(f"replay of trial {spec['index']} "
              f"({spec['policy']}/{spec['workload']}): {status}")
        for v in payload["violations"]:
            print(f"  - {v}")
        return 1 if payload["violations"] else 0

    spec = {"kind": "chaos", "seed": args.seed,
            "trials": min(args.trials, 30) if args.smoke else args.trials,
            "scale": args.scale if args.scale is not None else (0.5 if args.smoke else 1.0),
            "am_faults": args.am_faults}
    if args.policies:
        spec["policies"] = list(args.policies)
    return _run_campaign_spec(spec, args)


def _run_campaign_spec(spec, args) -> int:
    """Run one chaos campaign spec (from ``chaos`` flags, a ``submit
    --spec`` file or a store row) against ``args.store``; print its
    summary. A spec of any other kind is a :class:`StoreError`."""
    from repro.faults.chaos import run_campaign

    try:
        summary = run_campaign(spec, store=args.store, out_dir=args.out,
                               minimize=not args.no_minimize, jobs=args.jobs)
    except KeyboardInterrupt:
        if args.store:
            print(f"\ninterrupted — completed trials are checkpointed; resume "
                  f"with: python -m repro campaign resume --store {args.store}")
        return 130
    resumed = f", {summary['skipped']} resumed from store" if summary["skipped"] else ""
    print(f"chaos campaign seed={summary['spec']['seed']}: {summary['trials']} trials"
          f" ({summary['executed']} executed{resumed}), "
          f"{summary['jobs_failed']} job failures (legitimate), "
          f"{summary['violations']} invariant violations")
    print("  policies: " + ", ".join(
        f"{k}={v}" for k, v in sorted(summary["by_policy"].items())))
    print("  fault kinds: " + ", ".join(
        f"{k}={v}" for k, v in sorted(summary["by_kind"].items())))
    if summary["violations"]:
        print("  violating trials: "
              + ", ".join(str(i) for i in summary["violating_trials"]))
    if args.store:
        print(f"  campaign id: {summary['campaign_id']}  (store: {args.store})")
    return 1 if summary["violations"] else 0


def cmd_campaign(args) -> int:
    from repro.campaign import StoreError

    # Only submit may create a store: pointing the other commands at a
    # missing file would otherwise leave an empty sqlite file behind.
    if args.campaign_cmd != "submit" and not os.path.isfile(args.store):
        message = f"no campaign store at {args.store}"
    else:
        try:
            return _campaign_command(args)
        except StoreError as exc:  # unknown --id prefix, a bad --spec, ...
            message = str(exc)
    print(f"repro campaign {args.campaign_cmd}: error: {message}", file=sys.stderr)
    return 2


def _campaign_command(args) -> int:
    import json

    from repro.campaign import CampaignStore, StoreError

    if args.campaign_cmd == "submit":
        try:
            with open(args.spec) as fh:
                spec = json.load(fh)
        except (OSError, ValueError) as exc:
            raise StoreError(f"cannot read campaign spec {args.spec}: {exc}") from None
        if not isinstance(spec, dict):
            raise StoreError(f"{args.spec} is not a campaign spec "
                             "(expected a JSON object)")
        return _run_campaign_spec(spec, args)

    if args.campaign_cmd == "resume":
        with CampaignStore(args.store) as store:
            row = store.campaign(args.id) if args.id else store.latest_incomplete()
        if row is None:
            print(f"no incomplete campaign in {args.store}")
            return 1
        return _run_campaign_spec(row["spec"], args)

    if args.campaign_cmd == "status":
        return _campaign_status(args)
    return _campaign_export(args)


def _campaign_status(args) -> int:
    from repro.campaign import CampaignStore, aggregate_chaos

    with CampaignStore(args.store) as store:
        if store.quarantined:
            print(f"warning: corrupt store quarantined to {store.quarantined}")
        rows = [store.campaign(args.id)] if args.id else store.campaigns()
        if not rows:
            print(f"no campaigns in {args.store}")
            return 0
        for row in rows:
            spec = row["spec"]
            # A row of a retired kind lists its done count alone.
            chaos = spec["kind"] == "chaos"
            planned = f"/{spec['trials']}" if chaos else ""
            done = store.counts(row["campaign_id"])["done"]
            line = (f"{row['campaign_id'][:12]}  {spec['kind']:13s} "
                    f"{done}{planned} trials  {row['status']}")
            if chaos:
                agg = aggregate_chaos(store.payloads(row["campaign_id"]))
                line += (f"  violations={agg['violations']} "
                         f"jobs_failed={agg['jobs_failed']}")
            if row["last_error"]:
                line += f"  last_error={row['last_error']}"
            print(line)
    return 0


def _campaign_export(args) -> int:
    import json

    from repro.campaign import CampaignStore, aggregate_chaos
    from repro.runner import atomic_write_text

    with CampaignStore(args.store) as store:
        if args.id:
            row = store.campaign(args.id)
        else:
            rows = store.campaigns()
            if len(rows) != 1:
                print(f"{args.store} holds {len(rows)} campaigns — pass --id")
                return 1
            row = rows[0]
        cid = row["campaign_id"]
        doc = {
            "campaign": row,
            "summary": (aggregate_chaos(store.payloads(cid))
                        if row["spec"]["kind"] == "chaos" else None),
            "counts": store.counts(cid),
            "trials": store.trial_rows(cid),
        }
        if args.payloads:
            doc["payloads"] = {seed: p for seed, p in store.payloads(cid)}
    atomic_write_text(args.out, json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"campaign {cid[:12]} exported to {args.out}")
    return 0


def cmd_verify(args) -> int:
    from repro.verify import (
        COMBOS,
        DivergenceError,
        check_golden,
        load_golden,
        refresh_golden,
        run_all_relations,
        run_matrix,
    )

    if args.refresh_golden:
        report = run_matrix(names=args.scenario, combos=COMBOS[:1], jobs=args.jobs)
        # A --scenario refresh moves only the named pins; a full one
        # writes exactly the corpus, so stale pins drop.
        digests = report["digests"]
        if args.scenario:
            digests = {**load_golden(), **digests}
        path = refresh_golden(digests)
        print(f"golden digests for {report['scenarios']} scenarios written "
              f"to {path}")
        return 0

    # No layer flag selects everything.
    do_matrix = args.matrix or not args.metamorphic
    do_metamorphic = args.metamorphic or not args.matrix
    do_paper = not (args.matrix or args.metamorphic)
    failures = 0

    if do_matrix:
        print(f"differential matrix ({len(COMBOS)} schedulers):")
        try:
            report = run_matrix(names=args.scenario, jobs=args.jobs)
        except DivergenceError as exc:
            print(f"DIVERGENCE: {exc}")
            return 1
        print(f"  {report['runs']} runs over {report['scenarios']} scenarios: "
              "all digests identical across the matrix")
        golden_problems = check_golden(report["digests"])
        for problem in golden_problems:
            print(f"  golden: {problem}")
        if golden_problems:
            failures += 1
        else:
            print(f"  golden: {len(report['digests'])} scenario digests match "
                  "tests/golden/scenarios.json")

    if do_metamorphic:
        print("metamorphic relations:")
        results = run_all_relations(out_dir=args.out)
        failed = [r for r in results if not r.ok]
        failures += len(failed)
        print(f"  {len(results) - len(failed)}/{len(results)} relations hold")

    if do_paper:
        failures += _check_paper_claims(args.jobs)

    return 1 if failures else 0


def _paper_row(index: int, names: tuple[str, ...]) -> dict:
    """:class:`~repro.runner.TrialRunner` fan-out target: run the
    experiment ``names[index]`` at scale 1.0 and return its rendered
    text, one ``(status, line)`` per claim and its wall seconds. A row
    that raises returns one ``ERROR`` line as its text and no claims, so
    the other rows still run and print."""
    name = names[index]
    driver, render, claims = EXPERIMENTS[name]
    start = time.perf_counter()
    try:
        result = driver(scale=1.0)
        text = render(result)
        lines = [(c.status, f"{c.status} {name}/{c.name} value={c.value:g} "
                  f"bound=[{c.lo:g}, {c.hi:g}]" + (f" owner={c.owner}" if c.owner else ""))
                 for c in claims(result)]
    except Exception as exc:
        text, lines = f"  ERROR {name}: {type(exc).__name__}: {exc}", None
    return {"text": text, "claims": lines, "wall": time.perf_counter() - start}


def _check_paper_claims(jobs: int) -> int:
    """Run every experiment at scale 1.0 across ``jobs`` worker
    processes, then print each row's table, one line per claim and its
    wall seconds in table order; return how many claims FAIL or XPASS
    plus how many rows raised."""
    print("paper claims (scale 1.0):")
    names = tuple(EXPERIMENTS)
    results = TrialRunner(jobs=jobs).run(experiment="paper", fn=_paper_row,
                                         seeds=range(len(names)), kwargs={"names": names})
    failed = total = errors = 0
    for name, trial in zip(names, results):
        row = trial.payload
        print(row["text"])
        if row["claims"] is None:
            errors += 1
        for status, line in row["claims"] or ():
            print(f"  {line}")
            failed += status in ("FAIL", "XPASS")
            total += 1
        print(f"  {name}: {row['wall']:.1f} s wall")
    print(f"  {failed} of {total} claims FAIL or XPASS")
    if errors:
        print(f"  {errors} of {len(names)} rows ERROR")
    return failed + errors


def cmd_list(_args) -> int:
    from repro.faults.chaos import CHAOS_POLICIES
    from repro.policies import POLICIES

    print("workloads:  " + ", ".join(sorted(BENCHMARKS)))
    print("policies:")
    for name, (_factory, description) in POLICIES.items():
        tag = " [seed]" if name in CHAOS_POLICIES else ""
        print(f"  {name:10s} {description}{tag}")
    print("experiments:" + " " + ", ".join(EXPERIMENTS))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "run":
        return cmd_run(args)
    if args.command == "experiment":
        return cmd_experiment(args)
    if args.command == "chaos":
        return cmd_chaos(args)
    if args.command == "campaign":
        return cmd_campaign(args)
    if args.command == "verify":
        return cmd_verify(args)
    return cmd_list(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
