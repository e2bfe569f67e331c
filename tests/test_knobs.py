"""The package reads a fixed set of environment knobs, each documented
in README.md; its CLI, config objects, policy factories and experiment
drivers offer fixed sets of options; the trial paths do not load the
trial store's ``sqlite3``."""

import argparse
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
KNOB = re.compile(r"REPRO_[A-Z_]+")
#: Retired knobs: read by nothing, named only where an old cache key
#: still spells them (``repro.runner.runner._RETIRED_KERNEL_SLOT``).
RETIRED = {"REPRO_KERNEL": "runner/runner.py"}


def _knob_sites() -> dict[str, set[str]]:
    """Every ``REPRO_*`` name in the package -> the files naming it."""
    sites: dict[str, set[str]] = {}
    package = ROOT / "src" / "repro"
    for path in package.rglob("*.py"):
        for knob in KNOB.findall(path.read_text(encoding="utf-8")):
            sites.setdefault(knob, set()).add(path.relative_to(package).as_posix())
    return sites


def _package_knobs() -> set[str]:
    return set(_knob_sites())


def test_package_reads_exactly_the_supported_knobs():
    """A knob no workload, benchmark or CI step sets is dead weight:
    adding one is a deliberate change to this list."""
    assert _package_knobs() - set(RETIRED) == {
        "REPRO_SCHEDULER", "REPRO_JOBS", "REPRO_TRIAL_CACHE",
        "REPRO_VERIFY", "REPRO_INVARIANTS"}


def test_retired_knobs_are_named_only_by_the_cache_key():
    sites = _knob_sites()
    for knob, path in RETIRED.items():
        assert sites.get(knob) == {path}, (knob, sites.get(knob))


def test_every_env_knob_is_documented_in_readme():
    knobs = _package_knobs()
    assert "REPRO_SCHEDULER" in knobs  # the scan itself found the package
    readme = set(KNOB.findall((ROOT / "README.md").read_text(encoding="utf-8")))
    assert sorted(knobs - readme) == []


def _cli_options(parser: argparse.ArgumentParser, command: str = "") -> set[tuple[str, str]]:
    """Every ``(subcommand, long option)`` pair below ``parser``."""
    pairs = set()
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                pairs |= _cli_options(sub, f"{command} {name}".strip())
        elif action.option_strings and not isinstance(action, argparse._HelpAction):
            pairs.add((command, max(action.option_strings, key=len)))
    return pairs


def test_cli_offers_exactly_the_supported_options():
    """Like an env knob, a flag is surface to document and keep working:
    adding or removing one is a deliberate change to this list."""
    from repro.cli import _build_parser

    expected = {
        "run": ["--export", "--fault", "--nodes", "--policy", "--racks", "--reducers",
                "--report", "--seed", "--size-gb", "--speculation"],
        "experiment": ["--jobs", "--policies", "--scale", "--trial-cache"],
        "chaos": ["--am-faults", "--jobs", "--no-minimize", "--out", "--policies",
                  "--replay", "--scale", "--seed", "--smoke", "--store", "--trials"],
        "campaign submit": ["--jobs", "--no-minimize", "--out", "--spec", "--store"],
        "campaign resume": ["--id", "--jobs", "--no-minimize", "--out", "--store"],
        "campaign status": ["--id", "--store"],
        "campaign export": ["--id", "--out", "--payloads", "--store"],
        "verify": ["--jobs", "--matrix", "--metamorphic", "--out", "--quick",
                   "--refresh-golden", "--scenario", "--store"],
    }
    assert _cli_options(_build_parser()) == {
        (command, option) for command, options in expected.items() for option in options}


def test_trial_paths_do_not_import_sqlite3():
    """The trial store is opened lazily, so the modules every trial runs
    through never load ``sqlite3`` (it costs ~1 MB of resident memory
    per worker)."""
    code = ("import sys, repro.experiments.common, repro.faults.chaos; "
            "print('sqlite3' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert out.stdout.strip() == "False"


def test_config_objects_offer_exactly_the_settable_fields():
    """Every field is a setting some job, experiment, trial spec or test
    varies; a value nothing sets is a module constant. Adding or
    removing a field is a deliberate change to this list."""
    import dataclasses

    from repro.alm.alg import ALGConfig
    from repro.alm.sfm import ALMConfig
    from repro.baselines.iss import ISSConfig
    from repro.cluster.cluster import ClusterSpec
    from repro.cluster.node import NodeSpec
    from repro.hdfs.hdfs import HdfsConfig
    from repro.mapreduce.config import JobConf
    from repro.mapreduce.speculation import SpeculationConfig
    from repro.sim.backoff import BackoffPolicy
    from repro.workloads.generator import TraceMix
    from repro.yarn.rm import YarnConfig

    expected = {
        JobConf: ("map_memory_mb", "reduce_memory_mb", "io_sort_factor", "num_fetchers",
                  "shuffle_buffer_fraction", "fetch_retries_per_host",
                  "reducer_stall_seconds", "host_failure_penalty", "map_refetch_reports",
                  "slowstart_completed_maps", "max_attempts", "task_timeout",
                  "am_max_attempts", "am_recovery", "keep_containers_across_am_restart",
                  "am_restart_delay", "io_sort_mb"),
        YarnConfig: ("min_allocation_mb", "max_allocation_mb", "nm_heartbeat_interval",
                     "nm_liveness_timeout", "allocation_latency", "nm_memory_fraction",
                     "rpc_drop_prob", "rpc_delay_prob", "rpc_max_delay", "rpc_seed"),
        HdfsConfig: ("block_size", "replication", "level"),
        ClusterSpec: ("num_nodes", "num_racks", "node", "core_bandwidth", "seed"),
        NodeSpec: ("cores", "memory_mb", "disk_bandwidth", "nic_bandwidth"),
        ALMConfig: ("enable_alg", "enable_sfm", "alg", "fcm_cap", "limit_local",
                    "proactive_regeneration", "wait_dont_fail"),
        ALGConfig: ("frequency", "level"),
        SpeculationConfig: ("interval", "slowness_threshold", "min_runtime",
                            "max_speculative"),
        ISSConfig: ("replicas", "off_rack"),
        BackoffPolicy: ("base", "multiplier", "max_interval", "max_retries", "jitter"),
        TraceMix: ("num_jobs", "median_input_gb", "mean_reducers", "max_reducers",
                   "mean_interarrival", "seed"),
    }
    assert {cls: tuple(f.name for f in dataclasses.fields(cls)) for cls in expected} \
        == expected


def test_policy_factories_declare_exactly_the_swept_keywords():
    """``make_policy`` passes a factory only the keywords it declares;
    the paper's figures vary the ALG frequency and level and the FCM
    cap, and no factory declares anything else."""
    import inspect

    from repro.policies import POLICIES

    expected = {
        "yarn": (), "alg": ("alg_frequency", "alg_level"), "sfm": ("fcm_cap",),
        "alm": ("alg_frequency", "alg_level", "fcm_cap"), "iss": (), "atlas": (),
        "binocular": (), "m3r": (), "quantile": (),
    }
    assert {name: tuple(inspect.signature(factory).parameters)
            for name, (factory, _) in POLICIES.items()} == expected


def test_experiment_drivers_declare_exactly_the_passed_parameters():
    """A driver parameter is one some test, bench or CLI call passes;
    a value nothing varies is fixed in the driver. Adding or removing
    one is a deliberate change to this list."""
    import inspect

    from repro.experiments import EXPERIMENTS

    expected = {
        "fig01": ("map_failure_counts", "reduce_failure_progress", "scale"),
        "fig02": ("progress_points", "scale", "repeats"),
        "fig03": ("system", "scale"),
        "fig04": ("scale",),
        "fig08": ("progress_points", "scale"),
        "fig09": ("progress_points", "scale"),
        "fig10": ("scale",),
        "fig11": ("scale",),
        "fig12": ("frequencies", "input_gb", "scale"),
        "fig13": ("scale",),
        "fig14": ("per_reducer_gb", "failure_counts", "num_reducers", "scale"),
        "fig15": ("scale",),
        "table2": ("points", "systems", "scale"),
    }
    assert {name: tuple(inspect.signature(driver).parameters)
            for name, (driver, _) in EXPERIMENTS.items()} == expected


def test_repro_list_names_exactly_the_experiment_table(capsys):
    from repro.cli import main
    from repro.experiments import EXPERIMENTS

    assert main(["list"]) == 0
    [line] = [line for line in capsys.readouterr().out.splitlines()
              if line.startswith("experiments:")]
    assert line.removeprefix("experiments:").strip().split(", ") == list(EXPERIMENTS)
