"""Benchmark harness configuration.

The benches here time the simulator's machinery (flow scheduler, DES
kernel, trial runner, chaos campaigns, campaign store) and print what
they measured under a ``report`` banner. The paper's figures, the
ablations and the fleet argument are checked by ``python -m repro
verify`` (see EXPERIMENTS.md).
"""

import pytest


@pytest.fixture
def report():
    def print_report(title: str, body: str) -> None:
        print(f"\n=== {title} ===")
        print(body)
    return print_report
