"""Benchmark harness configuration.

Each bench regenerates one of the paper's tables/figures and prints the
rows the paper reports next to the paper's own numbers. Absolute times
are simulator seconds, not the authors' testbed seconds — the *shapes*
(who wins, by roughly what factor, where crossovers fall) are the
reproduction target (see EXPERIMENTS.md).

Input sizes default to half the paper's (REPRO_SCALE=0.5) to keep the
suite's wall time reasonable; set REPRO_SCALE=1.0 for the full-size
reproduction. The ``scale`` fixture is the only reader of REPRO_SCALE:
the ``figure`` fixture passes it to each figure's driver.
"""

import os

import pytest


@pytest.fixture(scope="session")
def scale() -> float:
    return float(os.environ.get("REPRO_SCALE", "0.5"))


@pytest.fixture
def report(scale):
    def print_report(title: str, body: str) -> None:
        print(f"\n=== {title} (REPRO_SCALE={scale}) ===")
        print(body)
    return print_report


@pytest.fixture
def figure(benchmark, report, scale):
    """Run one ``repro.experiments.EXPERIMENTS`` entry once under the
    benchmark timer, report its rendered rows and return its result."""
    from repro.experiments import EXPERIMENTS

    def run(name: str, title: str, **kwargs):
        driver, render = EXPERIMENTS[name]
        result = benchmark.pedantic(driver, rounds=1, iterations=1,
                                    kwargs={"scale": scale, **kwargs})
        report(title, render(result))
        return result
    return run
