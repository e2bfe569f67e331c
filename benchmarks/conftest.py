"""Benchmark harness configuration.

Each bench regenerates one of the paper's tables/figures and prints the
rows the paper reports next to the paper's own numbers. Absolute times
are simulator seconds, not the authors' testbed seconds — the *shapes*
(who wins, by roughly what factor, where crossovers fall) are the
reproduction target (see EXPERIMENTS.md).

Input sizes default to half the paper's (REPRO_SCALE=0.5) to keep the
suite's wall time reasonable; set REPRO_SCALE=1.0 for the full-size
reproduction. The ``scale`` fixture is the only reader of REPRO_SCALE:
the ``figure`` fixture passes it to each figure's driver unless the
bench fixes its own. Each banner names the scale its bench ran at, and
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


@pytest.fixture
def figure(benchmark, report, scale):
    """Run one ``repro.experiments.EXPERIMENTS`` entry once under the
    benchmark timer, report its rendered rows and return its result."""
    from repro.experiments import EXPERIMENTS

    def run(name: str, title: str, **kwargs):
        driver, render = EXPERIMENTS[name]
        kwargs = {"scale": scale, **kwargs}
        result = benchmark.pedantic(driver, rounds=1, iterations=1, kwargs=kwargs)
        report(title, render(result), kwargs["scale"])
        return result
    return run
