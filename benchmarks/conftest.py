"""Benchmark harness configuration.

The ablation and fleet benches print their rows and assert their
shapes. Absolute times are simulator seconds, not the authors' testbed
seconds. The paper's own figures are checked by ``python -m repro
verify`` (see EXPERIMENTS.md).

Input sizes default to half the paper's (REPRO_SCALE=0.5) to keep the
suite's wall time reasonable. The ``scale`` fixture is the only reader
of REPRO_SCALE. Each banner names the scale its bench ran at, and
benches that take no scale print none.
"""

import os

import pytest


@pytest.fixture(scope="session")
def scale() -> float:
    return float(os.environ.get("REPRO_SCALE", "0.5"))


@pytest.fixture
def report():
    def print_report(title: str, body: str, scale: float | None = None) -> None:
        at = "" if scale is None else f" (scale={scale})"
        print(f"\n=== {title}{at} ===")
        print(body)
    return print_report
