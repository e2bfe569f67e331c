"""Fault injection: task kills and node failures, by time or progress.

Mirrors the paper's methodology (§V-B): transient task failures are
emulated by injecting an out-of-memory exception into a running task at
a chosen progress point; node failures by stopping a node's network
services (or crashing it outright) at a chosen time, job-progress point
or trace-event trigger. The chaos extensions add transient partitions
with recovery, rack-correlated failures and degraded-hardware faults.
"""

from repro.faults.inject import (
    AMFault,
    EventTrigger,
    FaultInjector,
    MapWaveFault,
    NodeFault,
    PartitionFault,
    RackFault,
    TaskFault,
    kill_node_at_progress,
    kill_reduce_at_progress,
    kill_maps_at_time,
)
from repro.faults.stragglers import SlowNodeFault

__all__ = [
    "AMFault",
    "EventTrigger",
    "FaultInjector",
    "MapWaveFault",
    "NodeFault",
    "PartitionFault",
    "RackFault",
    "SlowNodeFault",
    "TaskFault",
    "kill_maps_at_time",
    "kill_node_at_progress",
    "kill_reduce_at_progress",
]
