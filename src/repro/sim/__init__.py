"""Discrete-event simulation kernel.

A compact, dependency-free engine in the style of SimPy: a
:class:`~repro.sim.core.Simulator` drives generator-based
:class:`~repro.sim.core.Process` coroutines that yield
:class:`~repro.sim.core.Event` objects (timeouts, conditions, other
processes). On top of the kernel sit FIFO stores
(:mod:`repro.sim.resources`) and a max-min fair bandwidth allocator
(:mod:`repro.sim.flows`) used to model disks and network links.
"""

from repro.sim.core import (
    AllOf,
    AnyOf,
    Event,
    Interrupt,
    Process,
    SimulationError,
    Simulator,
    Timeout,
)
from repro.sim.flows import Flow, FlowScheduler, LinkResource
from repro.sim.resources import Store

__all__ = [
    "AllOf",
    "AnyOf",
    "Event",
    "Flow",
    "FlowScheduler",
    "Interrupt",
    "LinkResource",
    "Process",
    "SimulationError",
    "Simulator",
    "Store",
    "Timeout",
]
