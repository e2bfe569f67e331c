"""Fallible RPC channel: seeded, deterministic message loss and delay.

Every control-plane message in the simulator (NM heartbeats, AM->RM
allocate requests, RM->AM grant deliveries, container releases) can be
routed through an :class:`RpcChannel`. The default channel is
*reliable* and a strict no-op: zero RNG draws, zero extra events, so
trace digests of RPC-fault-free scenarios are byte-identical to a
build without this module.

When configured with loss/delay probabilities the channel becomes
*fallible*. Outcomes are not drawn from a shared RNG stream — they are
derived by hashing ``(seed, label)`` with SHA-256 (the same trick as
:mod:`repro.sim.backoff`), so a message's fate is a pure function of
its identity: independent of event ordering and bit-reproducible
across reruns.

Heartbeats are drop-only (a delayed heartbeat is indistinguishable
from a dropped one at the liveness scan's granularity); point-to-point
messages (allocate/grant/release) can be dropped or delayed.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.sim.core import SimulationError

__all__ = ["RpcChannel", "RpcOutcome"]


def _unit(seed: int, label: str) -> float:
    """Deterministic uniform in [0, 1) from (seed, label)."""
    digest = hashlib.sha256(f"{seed}|{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


@dataclass(frozen=True)
class RpcOutcome:
    """Fate of one message: delivered (possibly late) or dropped."""

    dropped: bool
    delay: float = 0.0


class RpcChannel:
    """Seeded drop/delay model for control-plane messages."""

    def __init__(self, drop_prob: float = 0.0, delay_prob: float = 0.0,
                 max_delay: float = 2.0, seed: int = 0) -> None:
        if not (0.0 <= drop_prob < 1.0) or not (0.0 <= delay_prob < 1.0):
            raise SimulationError("rpc probabilities must be in [0, 1)")
        if drop_prob + delay_prob >= 1.0:
            raise SimulationError("rpc drop_prob + delay_prob must be < 1")
        if max_delay < 0:
            raise SimulationError("rpc max_delay must be >= 0")
        self.drop_prob = drop_prob
        self.delay_prob = delay_prob
        self.max_delay = max_delay
        self.seed = seed
        #: Reliable channels are pass-through: callers skip the
        #: fallible paths entirely, keeping default digests unchanged.
        self.fallible = drop_prob > 0.0 or delay_prob > 0.0
        self.stats: dict[str, int] = {
            "heartbeats_dropped": 0, "dropped": 0, "delayed": 0, "sent": 0,
        }
        self._seq: dict[str, int] = {}

    # -- heartbeats (drop-only) -------------------------------------------
    def heartbeat_dropped(self, node_id: int, now: float) -> bool:
        """Whether this node's heartbeat at time ``now`` is lost.

        Keyed on (node_id, time) rather than a stream position, so the
        fate does not depend on the order in which one tick's
        heartbeats are processed.
        """
        if not self.fallible or self.drop_prob <= 0.0:
            return False
        if _unit(self.seed, f"hb|{node_id}|{now!r}") < self.drop_prob:
            self.stats["heartbeats_dropped"] += 1
            return True
        return False

    # -- point-to-point messages ------------------------------------------
    def send(self, label: str) -> RpcOutcome:
        """Fate of the next message on the ``label`` lane.

        Each lane (e.g. ``alloc|am0-r3`` or ``grant|c17``) keeps its own
        send counter, so a retransmit on the same lane gets a fresh,
        independent — yet fully deterministic — outcome.
        """
        n = self._seq.get(label, 0)
        self._seq[label] = n + 1
        self.stats["sent"] += 1
        if not self.fallible:
            return RpcOutcome(dropped=False)
        u = _unit(self.seed, f"msg|{label}|{n}")
        if u < self.drop_prob:
            self.stats["dropped"] += 1
            return RpcOutcome(dropped=True)
        if u < self.drop_prob + self.delay_prob:
            self.stats["delayed"] += 1
            frac = _unit(self.seed, f"delay|{label}|{n}")
            return RpcOutcome(dropped=False, delay=frac * self.max_delay)
        return RpcOutcome(dropped=False)
