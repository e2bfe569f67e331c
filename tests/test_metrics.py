"""Tests for trace collection, exports and text reports."""

import enum
import json

import pytest

from repro.faults import kill_reduce_at_progress
from repro.metrics import (
    ProgressSampler,
    Trace,
    export_result_json,
    failure_timeline,
    progress_curve,
    result_summary,
    task_gantt,
    trace_records,
)
from repro.mapreduce.tasks import TaskState
from repro.metrics.trace import _DIGEST_BATCH
from repro.sim import Simulator

from tests.conftest import make_runtime, tiny_workload


@pytest.fixture
def result():
    rt = make_runtime(tiny_workload(reducers=2, reduce_cpu=0.08))
    kill_reduce_at_progress(0.8).install(rt)
    return rt.run()


class TestTrace:
    def test_log_and_query(self):
        sim = Simulator()
        trace = Trace(sim)
        seen = []
        trace.subscribe("thing", lambda e: seen.append((e.time, e["a"])))
        trace.log("thing", a=1)

        def proc(sim):
            yield sim.timeout(5)
            trace.log("thing", a=2)
            trace.log("other", b=3)

        sim.process(proc(sim))
        sim.run()
        assert trace.count("thing") == 2
        assert trace.count("thing", a=2) == 1
        assert trace.first("thing").time == 0
        assert trace.last("thing")["a"] == 2
        assert trace.times("other") == [5]
        assert trace.first("missing") is None
        # Listeners fire synchronously at the log instant, per kind.
        assert seen == [(0, 1), (5, 2)]

    def test_series_sampling(self):
        sim = Simulator()
        trace = Trace(sim)
        sampler = ProgressSampler(sim, trace, interval=1.0)
        sampler.add_probe("clock", lambda: sim.now)
        sampler.start()

        def stopper(sim):
            yield sim.timeout(4.5)
            sampler.stop()

        sim.process(stopper(sim))
        sim.run(until=10)
        values = trace.series_values("clock")
        assert len(values) == 5  # t = 0..4
        assert values[-1] == (4.0, 4.0)

    def test_event_indexing(self):
        sim = Simulator()
        trace = Trace(sim)
        trace.log("k", x="y")
        assert trace.events[0]["x"] == "y"

    def test_kind_index_matches_linear_scan(self):
        """The per-kind index must answer every query identically to a
        full scan of ``events`` (the pre-index implementation)."""
        sim = Simulator()
        trace = Trace(sim)
        for i in range(50):
            trace.log(f"kind-{i % 3}", i=i, parity=i % 2)
        for kind in ("kind-0", "kind-1", "kind-2", "missing"):
            scan = [e for e in trace.events if e.kind == kind]
            assert trace.of_kind(kind) == scan
            assert trace.count(kind) == len(scan)
            assert trace.count(kind, parity=1) == sum(
                1 for e in scan if e.data.get("parity") == 1)
            matches = [e for e in scan if e.data.get("parity") == 0]
            assert trace.first(kind, parity=0) == (matches[0] if matches else None)
            assert trace.last(kind, parity=0) == (matches[-1] if matches else None)
            assert trace.times(kind) == [e.time for e in scan]
        # Exports keep the interleaved log order across kinds.
        assert [r["kind"] for r in trace.iter_records()] == [e.kind for e in trace.events]
        assert [r["i"] for r in trace.iter_records()] == list(range(50))
        assert trace.total_events() == 50

    def test_of_kind_returns_copy(self):
        sim = Simulator()
        trace = Trace(sim)
        trace.log("k", a=1)
        trace.of_kind("k").clear()
        assert trace.count("k") == 1

    def test_summary(self):
        sim = Simulator()
        trace = Trace(sim)
        assert trace.summary()["events"] == 0
        assert trace.summary()["first_time"] is None
        trace.log("a", x=1)
        trace.log("b")
        trace.log("a")
        trace.sample("s", 0.5)
        s = trace.summary()
        assert s == {
            "events": 3,
            "kinds": {"a": 2, "b": 1},
            "series": {"s": 1},
            "first_time": 0.0,
            "last_time": 0.0,
        }


        def later(sim):
            yield sim.timeout(4.0)
            trace.log("b")

        sim.process(later(sim))
        sim.run()
        s = trace.summary()
        assert (s["events"], s["kinds"]["b"]) == (4, 2)
        assert (s["first_time"], s["last_time"]) == (0.0, 4.0)


class TestProgressSampler:
    def test_restart_does_not_duplicate_samples(self):
        """Regression: after a stop→start cycle the old suspended loop
        used to wake, see ``_running`` and keep sampling alongside the
        new loop, doubling every series point."""
        sim = Simulator()
        trace = Trace(sim)
        sampler = ProgressSampler(sim, trace, interval=1.0)
        sampler.add_probe("clock", lambda: sim.now)

        def driver(sim):
            sampler.start()
            yield sim.timeout(2.5)
            sampler.stop()
            sampler.start()  # old loop still pending its 3.0 wake-up
            yield sim.timeout(2.0)
            sampler.stop()

        sim.process(driver(sim))
        sim.run(until=10)
        times = [t for t, _ in trace.series_values("clock")]
        # Exactly one sample per tick — no duplicated timestamps.
        assert times == sorted(times)
        assert len(times) == len(set(times))
        # First loop covers t=0,1,2; restart resumes at t=2.5,3.5.
        assert times == [0.0, 1.0, 2.0, 2.5, 3.5]

    def test_start_is_idempotent_while_running(self):
        sim = Simulator()
        trace = Trace(sim)
        sampler = ProgressSampler(sim, trace, interval=1.0)
        sampler.add_probe("clock", lambda: sim.now)
        sampler.start()
        sampler.start()

        def stopper(sim):
            yield sim.timeout(2.5)
            sampler.stop()

        sim.process(stopper(sim))
        sim.run(until=10)
        times = [t for t, _ in trace.series_values("clock")]
        assert times == [0.0, 1.0, 2.0]


class TestExports:
    def test_result_summary(self, result):
        s = result_summary(result)
        assert s["success"] is True
        assert s["elapsed"] == pytest.approx(result.elapsed)
        assert s["counters"]["failed_reduce_attempts"] == 1

    def test_trace_records_jsonable(self, result):
        records = trace_records(result.trace)
        json.dumps(records)  # must not raise
        assert any(r["kind"] == "attempt_failed" for r in records)

    def test_export_json_roundtrip(self, result, tmp_path):
        path = export_result_json(result, tmp_path / "job.json")
        payload = json.loads(path.read_text())
        assert payload["summary"]["workload"] == "tiny"
        assert payload["events"]
        assert "reduce_progress" in payload["series"]


class TestReports:
    def test_progress_curve_renders(self, result):
        out = progress_curve(result.trace)
        assert "reduce_progress" in out
        assert "%" in out

    def test_progress_curve_empty_series(self, result):
        assert "no samples" in progress_curve(result.trace, name="ghost")

    def test_failure_timeline_lists_injection(self, result):
        out = failure_timeline(result.trace)
        assert "fault_injected" in out
        assert "attempt_failed" in out

    def test_failure_timeline_clean_run(self):
        res = make_runtime().run()
        assert "no failures" in failure_timeline(res.trace)

    def test_task_gantt_shows_failed_attempt(self, result):
        out = task_gantt(result, task_filter="reduce")
        assert "fail" in out
        assert "ok" in out


def _whole_document_digest(trace: Trace) -> str:
    """The digest's definition: sha256 of one ``json.dumps`` of the
    exported events plus the series."""
    import hashlib

    blob = json.dumps({"events": trace_records(trace), "series": trace.series},
                      sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _log_n(trace: Trace, start: int, stop: int) -> None:
    for i in range(start, stop):
        trace.log("hb", node=i, lag=i / 8.0, ok=i % 3 == 0, note=None)


_N = _DIGEST_BATCH


class TestStreamingDigest:
    """The incremental digest must stay byte-compatible with hashing the
    whole-trace JSON document, the digest's pre-streaming definition.
    ``Trace.log`` hashes records one batch of ``_DIGEST_BATCH`` at a
    time, so every batch boundary is checked too."""

    def test_matches_legacy_whole_trace_encoding(self, result):
        # A whole job, plus two kinds interleaved record by record.
        interleaved = Trace(Simulator())
        for i in range(11):
            interleaved.log("hb", node=i, lag=i / 8.0)
            interleaved.log("other", step=i)
        for trace in (result.trace, interleaved):
            assert trace.digest() == _whole_document_digest(trace)

    def test_digest_clones_not_consumes(self):
        sim = Simulator()
        trace = Trace(sim)
        trace.log("a", x=1)
        d1 = trace.digest()
        assert trace.digest() == d1  # repeatable
        trace.log("b", y=2)
        d2 = trace.digest()
        assert d2 != d1
        assert trace.digest() == d2

    def test_empty_trace_digest_matches_legacy(self):
        import hashlib

        sim = Simulator()
        trace = Trace(sim)
        blob = json.dumps({"events": [], "series": {}},
                          sort_keys=True, separators=(",", ":"), default=str)
        assert trace.digest() == hashlib.sha256(blob.encode("utf-8")).hexdigest()

    @pytest.mark.parametrize("n", [0, 1, _N - 1, _N, _N + 1, 3 * _N + 7])
    def test_matches_whole_document(self, n):
        trace = Trace(Simulator())
        _log_n(trace, 0, n)
        trace.sample("progress", 0.5)
        assert trace.digest() == _whole_document_digest(trace)

    def test_digest_between_logs_changes_nothing(self):
        probed, plain = Trace(Simulator()), Trace(Simulator())
        _log_n(plain, 0, 3 * _N + 7)
        cuts = [0, _N - 1, _N, _N + 1, 3 * _N + 7]
        for lo, hi in zip(cuts, cuts[1:]):
            _log_n(probed, lo, hi)
            assert probed.digest() == _whole_document_digest(probed)
        assert probed.digest() == plain.digest()

    @pytest.mark.parametrize("n", [1, _N - 1, _N])
    def test_mutation_after_log_does_not_reach_digest(self, n):
        """The record is coerced when logged, whether it is still queued
        (``n`` < batch) or already hashed (``n`` = batch)."""
        mutated, twin = Trace(Simulator()), Trace(Simulator())
        for trace in (mutated, twin):
            _log_n(trace, 0, n - 1)
        nodes = [1, 2]
        mutated.log("lost", nodes=nodes, count=2)
        twin.log("lost", nodes=[1, 2], count=2)
        nodes.append(3)
        mutated.events[-1].data["count"] = 3
        assert mutated.digest() == twin.digest()

    def test_non_primitive_values_coerced_as_exported(self):
        class Colour(enum.Enum):
            RED = "red"

        class Level(enum.IntEnum):
            HIGH = 2

        trace = Trace(Simulator())
        _log_n(trace, 0, _N - 2)
        for i in range(4):
            trace.log("odd", colour=Colour.RED, level=Level.HIGH, pair=(i, "x"),
                      state=TaskState.RUNNING)
        assert trace_records(trace)[-1]["pair"] == "(3, 'x')"
        assert trace.digest() == _whole_document_digest(trace)
