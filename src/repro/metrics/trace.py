"""Structured event trace for a simulated job.

Everything the experiment drivers report — recovery timelines (Figs. 3,
10), additional-failure counts (Fig. 4, Table II), phase durations — is
derived from this trace rather than ad-hoc counters, so tests and
benchmarks read the same source of truth.

Queries are backed by a per-kind index maintained on ``log``: the hot
paths (``of_kind``/``count``/``first``/``last``/``times``) touch only
the events of the requested kind instead of scanning the whole log,
which matters once the runner fans out thousands of trials.

Recording is on the simulation hot path (one ``log`` call per flow
completion, heartbeat decision, attempt transition, ...), so it is
built lean: ``TraceEvent`` is a ``__slots__`` class, the no-listener
case appends without copying any listener list, and the determinism
digest is maintained incrementally as events are recorded (see
:meth:`Trace.digest`) instead of JSON-encoding the whole trace at trial
end.

Every event is stored one way: a ``TraceEvent`` appended to ``events``
and indexed under its kind. Each record goes into the streaming digest
through ``_export_record`` — the same coercion the JSON exports use —
so the digest is by construction the hash of the export.

The digest pays per batch, not per record: ``log`` queues the coerced
record, and every :data:`_DIGEST_BATCH` records one cached encoder
encodes the whole queue as a JSON list, whose brackets are stripped
before hashing. A JSON list is its items joined by ``,``, so the
hashed bytes equal encoding each record alone and joining them with
``,`` — the same bytes as one ``json.dumps`` of the whole document.
Records are coerced when logged (primitives kept, anything else
``str``-ed), so mutating a logged ``data`` dict later cannot reach the
digest. :meth:`Trace.digest` drains the queue first.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Iterable

from repro.sim.core import Simulator

__all__ = ["ProgressSampler", "Trace", "TraceEvent", "first_divergence"]


class TraceEvent:
    """One logged occurrence: ``(time, kind, data)``.

    A ``__slots__`` value class (not a dataclass): traces hold hundreds
    of thousands of these per trial, so no per-instance ``__dict__``.
    """

    __slots__ = ("time", "kind", "data")

    def __init__(self, time: float, kind: str, data: dict[str, Any]) -> None:
        self.time = time
        self.kind = kind
        self.data = data

    def __getitem__(self, key: str) -> Any:
        return self.data[key]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TraceEvent):
            return NotImplemented
        return (self.time, self.kind, self.data) == (other.time, other.kind, other.data)

    def __repr__(self) -> str:
        return f"TraceEvent(time={self.time!r}, kind={self.kind!r}, data={self.data!r})"


def _matches(event: TraceEvent, match: dict[str, Any]) -> bool:
    return all(event.data.get(k) == v for k, v in match.items())


#: json.dumps kwargs of the incremental digest: with them, the streamed
#: bytes equal one ``json.dumps`` of the whole-trace document (see
#: :meth:`Trace.digest`).
_DUMPS_KW = dict(sort_keys=True, separators=(",", ":"), default=str)
#: One encoder for every digest batch and series dump: ``json.dumps``
#: with non-default kwargs builds a fresh ``JSONEncoder`` per call.
_ENCODER = json.JSONEncoder(**_DUMPS_KW)
#: Records queued per digest encoding (see the module docstring).
_DIGEST_BATCH = 256


def _export_record(time: float, kind: str, data: dict[str, Any]) -> dict[str, Any]:
    """One export-shaped record; the single place record coercion is
    defined (the streaming digest and JSON exports both go through it,
    which is what keeps digest == hash-of-export)."""
    record: dict[str, Any] = {"time": time, "kind": kind}
    for k, v in data.items():
        record[k] = v if isinstance(v, (str, int, float, bool)) or v is None else str(v)
    return record


class Trace:
    """Append-only log of job events plus sampled time series.

    ``events`` keeps the global order (exports and text reports render
    it); ``_by_kind`` indexes the same event objects per kind so the
    query helpers are O(matching events), not O(all events).
    """

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.events: list[TraceEvent] = []
        self.series: dict[str, list[tuple[float, float]]] = {}
        self._by_kind: dict[str, list[TraceEvent]] = {}
        self._listeners: dict[str, list[Any]] = {}
        # Incremental digest state, byte-compatible with json.dumps of
        # the whole {"events": [...], "series": {...}} document (see
        # digest()): export records queue in _pending and are hashed
        # one batch at a time by _drain.
        self._hasher = hashlib.sha256(b'{"events":[')
        self._pending: list[dict[str, Any]] = []
        self._hashed_any = False

    # -- events -----------------------------------------------------------
    def log(self, kind: str, **data: Any) -> None:
        listeners = self._listeners.get(kind)
        now = self.sim.now
        event = TraceEvent(now, kind, data)
        self.events.append(event)
        bucket = self._by_kind.get(kind)
        if bucket is None:
            bucket = self._by_kind[kind] = []
        bucket.append(event)
        pending = self._pending
        pending.append(_export_record(now, kind, data))
        if len(pending) >= _DIGEST_BATCH:
            self._drain()
        if listeners:
            for fn in list(listeners):
                fn(event)

    def _drain(self) -> None:
        """Hash the queued records: one list encoding, brackets
        stripped, joined to the previous batch by ``,``."""
        pending = self._pending
        if not pending:
            return
        if self._hashed_any:
            self._hasher.update(b",")
        self._hashed_any = True
        self._hasher.update(_ENCODER.encode(pending)[1:-1].encode())
        pending.clear()

    def digest(self) -> str:
        """Determinism digest of everything recorded so far.

        Byte-identical to hashing ``json.dumps({"events": trace_records
        (self), "series": self.series}, sort_keys=True, separators=
        (",", ":"), default=str)`` — the pre-streaming definition — but
        events were hashed in batches as they were logged, so only the
        queued tail and the (small) series dict are encoded here. Cheap
        to call repeatedly: the event hasher is cloned, never consumed.
        """
        self._drain()
        h = self._hasher.copy()
        h.update(b'],"series":')
        h.update(_ENCODER.encode(self.series).encode())
        h.update(b"}")
        return h.hexdigest()

    def subscribe(self, kind: str, fn) -> None:
        """Call ``fn(event)`` synchronously on every future ``kind``
        event. This is what lets fault triggers key on trace events
        ("second crash 10 s after the first node_lost") without
        polling: the listener fires at the exact log instant, so
        event-triggered faults stay deterministic."""
        self._listeners.setdefault(kind, []).append(fn)

    def unsubscribe(self, kind: str, fn) -> None:
        bucket = self._listeners.get(kind)
        if bucket and fn in bucket:
            bucket.remove(fn)

    def of_kind(self, kind: str) -> list[TraceEvent]:
        return list(self._by_kind.get(kind, ()))

    def count(self, kind: str, **match: Any) -> int:
        bucket = self._by_kind.get(kind, ())
        if not match:
            return len(bucket)
        return sum(1 for e in bucket if _matches(e, match))

    def first(self, kind: str, **match: Any) -> TraceEvent | None:
        for e in self._by_kind.get(kind, ()):
            if _matches(e, match):
                return e
        return None

    def last(self, kind: str, **match: Any) -> TraceEvent | None:
        for e in reversed(self._by_kind.get(kind, ())):
            if _matches(e, match):
                return e
        return None

    def times(self, kind: str, **match: Any) -> list[float]:
        return [e.time for e in self._by_kind.get(kind, ()) if _matches(e, match)]

    # -- export -----------------------------------------------------------
    def iter_records(self):
        """Export-shaped records (dicts) in log order."""
        for e in self.events:
            yield _export_record(e.time, e.kind, e.data)

    def total_events(self) -> int:
        """Number of recorded events."""
        return len(self.events)

    # -- series ----------------------------------------------------------
    def sample(self, name: str, value: float) -> None:
        self.series.setdefault(name, []).append((self.sim.now, float(value)))

    def series_values(self, name: str) -> list[tuple[float, float]]:
        return list(self.series.get(name, []))

    # -- aggregates -------------------------------------------------------
    def summary(self) -> dict[str, Any]:
        """Cheap aggregate view: per-kind counts, series lengths and the
        event time span — no per-event detail, safe to ship across
        process boundaries or into JSON."""
        return {
            "events": self.total_events(),
            "kinds": {kind: len(bucket) for kind, bucket in self._by_kind.items()},
            "series": {name: len(points) for name, points in self.series.items()},
            "first_time": self.events[0].time if self.events else None,
            "last_time": self.events[-1].time if self.events else None,
        }


class ProgressSampler:
    """Periodically samples callables into trace series (e.g. the reduce
    progress curves plotted in Figs. 3, 4 and 10).

    Built on :meth:`Simulator.periodic` (``immediate=True``: the first
    sample lands at the start instant, as the old generator loop did).
    ``stop`` cancels the periodic outright, so a stop→start cycle hands
    over cleanly by construction — the cancelled wakeup is discarded by
    the kernel and at most one periodic ever samples.
    """

    def __init__(self, sim: Simulator, trace: Trace, interval: float = 1.0) -> None:
        self.sim = sim
        self.trace = trace
        self.interval = interval
        self._probes: dict[str, Any] = {}
        self._blocks: list[Any] = []
        self._running = False
        self._periodic = None
        #: ``(series points list, probe)`` per probe, bound on the first
        #: tick after an ``add_probe`` (not before: an unsampled series
        #: must stay absent from the digest).
        self._bound: list[tuple[list, Any]] | None = None

    def add_probe(self, name: str, fn) -> None:
        self._probes[name] = fn
        self._bound = None

    def add_probe_block(self, fn) -> None:
        """Register a *batched* probe: ``fn()`` returns an iterable of
        ``(name, value)`` pairs, all sampled at the tick instant. One
        block can derive many series from a single pass over the job's
        state — one callback where per-name probes would each rescan
        it. A block may also return nothing and log events instead
        (``MapReduceRuntime`` logs ``task_progress`` this way). Series
        are keyed by name and the digest sorts keys, so block samples
        digest identically to the same values sampled through
        individual probes."""
        self._blocks.append(fn)

    def start(self) -> None:
        if not self._running:
            self._running = True
            self._periodic = self.sim.periodic(
                self.interval, self._tick, immediate=True, name="progress-sampler")

    def stop(self) -> None:
        self._running = False
        if self._periodic is not None:
            self._periodic.cancel()
            self._periodic = None

    def _tick(self):
        if not self._running:
            return False
        bound = self._bound
        if bound is None:
            series = self.trace.series
            bound = self._bound = [(series.setdefault(name, []), fn)
                                   for name, fn in self._probes.items()]
        now = self.sim.now
        for points, fn in bound:
            points.append((now, float(fn())))
        for block in self._blocks:
            for name, value in block():
                self.trace.sample(name, value)


def _record_key(record: Any) -> bytes:
    """Canonical bytes for one event record (or :class:`TraceEvent`)."""
    if isinstance(record, TraceEvent):
        record = {"time": record.time, "kind": record.kind, **record.data}
    return json.dumps(record, **_DUMPS_KW).encode()


def first_divergence(a: Iterable[Any], b: Iterable[Any]) -> int | None:
    """Index of the first position where two event streams differ.

    Accepts lists of exported records (dicts) or :class:`TraceEvent`
    objects. Returns ``None`` when the streams are identical (same
    records, same length); when one stream is a strict prefix of the
    other, the divergence index is the shorter length.

    Two streams that share a long prefix are the common case (a kernel
    regression fires thousands of events in before drifting), so the
    search is binary, not linear: each record is hashed once into a
    cumulative prefix digest, and prefix equality at any cut point is
    then an O(1) comparison. Equal cumulative digests at index ``i``
    mean the first ``i`` records agree — hashes are chained, so a
    coincidental re-match after a divergence cannot fool the search.
    """
    a = list(a)
    b = list(b)
    n = min(len(a), len(b))

    def prefixes(events: list[Any]) -> list[bytes]:
        out: list[bytes] = []
        h = hashlib.sha256()
        for record in events[:n]:
            h.update(_record_key(record))
            out.append(h.digest())
        return out

    pa, pb = prefixes(a), prefixes(b)
    if n and pa[n - 1] == pb[n - 1]:
        return None if len(a) == len(b) else n
    # Smallest i with prefix-digest mismatch == first diverging index.
    lo, hi = 0, n - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if pa[mid] == pb[mid]:
            lo = mid + 1
        else:
            hi = mid
    if n == 0:
        return None if len(a) == len(b) else 0
    return lo
