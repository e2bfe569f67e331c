"""Parallel seeded-trial execution with disk memoization.

Every experiment in this repo averages (or sweeps) seeded trials that
are completely independent of one another, so the runner is the one
place that knows how to execute them fast and honestly:

- ``jobs > 1`` fans trials out across worker processes with
  :class:`concurrent.futures.ProcessPoolExecutor`; ``jobs=1`` (the
  default) runs them in-process, serially, in seed order — the
  deterministic reference path. Fan-out is *chunked*: each worker task
  is one contiguous block of seeds, so ``(fn, kwargs)`` is pickled once
  per chunk (not once per seed) and results return one message per
  chunk. On a single-core host the serial path is auto-selected even
  when ``jobs > 1`` (process fan-out is strictly overhead there).
- A trial is a **module-level** callable ``fn(seed, **kwargs)``
  returning a JSON-serialisable dict. Fanning out a spec that cannot be
  pickled (lambda fault factories, closures) is a :class:`TrialError`.
- Completed trials are memoized in a trial store
  (:class:`~repro.campaign.store.CampaignStore`, the same sqlite store
  durable campaigns use) keyed by ``(spec_digest, seed)`` when the
  caller passes one. Every seed is loaded from the store, and every
  fresh trial is recorded into it as it completes, so an interrupted
  run loses only trials in flight. Specs containing unnameable
  callables are never cached. The store is opened only when a
  cacheable spec runs, so trial paths without one never load
  ``sqlite3``.
"""

from __future__ import annotations

import atexit
import hashlib
import os
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Sequence

if TYPE_CHECKING:  # pragma: no cover
    from repro.campaign.store import CampaignStore

__all__ = [
    "TrialError",
    "TrialResult",
    "TrialRunner",
    "atomic_write_text",
    "shutdown_pools",
    "spec_digest",
]


def atomic_write_text(path: str | Path, text: str) -> None:
    """Crash-durable file write: write to a temp file in the same
    directory, then :func:`os.replace` it into place. A kill mid-write
    leaves at worst a stray temp file — readers never observe a torn
    half-written file at ``path``. Used for every artifact the repo
    relies on surviving a crash: chaos/metamorphic reproducers, golden
    digests, campaign exports."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp.{os.getpid()}")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


class TrialError(RuntimeError):
    """A trial raised; the message names the experiment and seed.

    Raised with a plain string argument so it round-trips through the
    worker-process pickle boundary intact."""


def _stable_name(value: Any) -> str | None:
    """A process-independent string for one spec value, or ``None`` when
    the value has no stable identity (lambdas, closures, default reprs
    that embed memory addresses). Functions and classes are named by
    their qualified name; other callables (``functools.partial``) by
    their repr."""
    if callable(value) and hasattr(value, "__qualname__"):
        name = f"{getattr(value, '__module__', '')}.{value.__qualname__}"
        if "<lambda>" in name or "<locals>" in name or name == ".":
            return None
        return name
    text = repr(value)
    if " at 0x" in text:
        return None
    return text


#: The slot of the retired kernel knob, always empty: there is one
#: kernel now, but the slot stays in every key so stored trial rows and
#: campaign ids keep the digests they were recorded under.
_RETIRED_KERNEL_SLOT = "REPRO_KERNEL="


def _env_mode() -> str:
    """The implementation-mode part of the cache key: the
    ``REPRO_SCHEDULER`` choice. Digests are pinned identical across
    schedulers, but the whole point of a verify run is to prove that —
    a cached default-scheduler payload served to a reference-scheduler
    run would turn the equivalence check into a tautology."""
    from repro.cluster.cluster import scheduler_choice

    return f"{_RETIRED_KERNEL_SLOT}\x00REPRO_SCHEDULER={scheduler_choice()}"


def spec_digest(experiment: str, fn: Callable, kwargs: dict[str, Any]) -> str | None:
    """Cache key for a trial spec, or ``None`` if any part of the spec
    is unnameable — such specs are executed but never memoized. The key
    also folds in the flow-scheduler choice so runs under different
    implementations never share cache entries."""
    parts = [experiment, _stable_name(fn) or "", _env_mode()]
    if not parts[1]:
        return None
    for key in sorted(kwargs):
        name = _stable_name(kwargs[key])
        if name is None:
            return None
        parts.append(f"{key}={name}")
    blob = "\x00".join(parts)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _invoke_trial(fn: Callable, seed: int, kwargs: dict[str, Any]) -> tuple[dict, float]:
    """Top-level trial entry point (must stay module-level: it is the
    function shipped to worker processes)."""
    t0 = time.perf_counter()
    payload = fn(seed, **kwargs)
    if not isinstance(payload, dict):
        payload = {"value": payload}
    return payload, time.perf_counter() - t0


def _invoke_chunk(experiment: str, fn: Callable, seeds: list[int],
                  kwargs: dict[str, Any]) -> list[tuple[int, dict, float]]:
    """Run one contiguous seed block in a worker process.

    ``(fn, kwargs)`` crosses the pickle boundary once for the whole
    block, and the block's results come back as one message. A raising
    trial surfaces as :class:`TrialError` naming its seed — the bare
    worker traceback otherwise says nothing about *which* of the block's
    seeds died."""
    out = []
    for seed in seeds:
        try:
            payload, wall = _invoke_trial(fn, seed, kwargs)
        except Exception as exc:
            raise TrialError(
                f"{experiment}: trial for seed {seed} raised "
                f"{type(exc).__name__}: {exc}"
            ) from exc
        out.append((seed, payload, wall))
    return out


# -- persistent worker pools -------------------------------------------------
#
# Experiment drivers call ``TrialRunner.run`` once per figure point, so
# a pool-per-call design pays worker spawn + interpreter warm-up on
# every sweep step. Pools are instead cached per worker count for the
# lifetime of the driver process and torn down once at exit.
_POOLS: dict[int, ProcessPoolExecutor] = {}


def _get_pool(workers: int) -> ProcessPoolExecutor:
    pool = _POOLS.get(workers)
    if pool is None:
        pool = ProcessPoolExecutor(max_workers=workers)
        _POOLS[workers] = pool
    return pool


def _discard_pool(workers: int) -> None:
    pool = _POOLS.pop(workers, None)
    if pool is not None:
        pool.shutdown(wait=False, cancel_futures=True)


def shutdown_pools() -> None:
    """Tear down every cached worker pool (idempotent; also runs at
    interpreter exit). Call between benchmark phases when a clean slate
    matters more than warm workers."""
    for workers in list(_POOLS):
        _discard_pool(workers)


atexit.register(shutdown_pools)


def _parallel_viable() -> bool:
    """Whether process fan-out can possibly win on this host.

    With one CPU the pool only adds pickling and scheduling on top of
    the same serial compute (measured 0.58× on a 1-core runner), so the
    runner quietly takes the serial path there."""
    return (os.cpu_count() or 1) > 1


@dataclass
class TrialResult:
    """Outcome of one seeded trial: a picklable, JSON-serialisable
    payload plus execution metadata."""

    experiment: str
    seed: int
    payload: dict[str, Any] = field(default_factory=dict)
    cached: bool = False
    wall_seconds: float = 0.0


class TrialRunner:
    """Fans seeded trials out across ``jobs`` worker processes and
    memoizes them in a trial store.

    ``store`` is an open :class:`~repro.campaign.store.CampaignStore`
    (borrowed, never closed here), the path of one (opened for each
    :meth:`run`) or ``None`` for no memoization.
    """

    def __init__(self, jobs: int = 1,
                 store: "CampaignStore | str | Path | None" = None) -> None:
        self.jobs = jobs
        self.store = store

    # -- public API ---------------------------------------------------------
    def run(
        self,
        experiment: str,
        fn: Callable[..., dict[str, Any]],
        seeds: Sequence[int],
        kwargs: dict[str, Any] | None = None,
    ) -> list[TrialResult]:
        """Run ``fn(seed, **kwargs)`` for every seed; results come back
        in seed-argument order regardless of completion order.

        Seeds the store already holds come back ``cached``; every fresh
        trial is recorded into the store as it completes, so a
        ``KeyboardInterrupt`` mid-fan-out (which flushes every
        already-completed trial before re-raising) loses only trials in
        flight. A payload the store cannot encode is a
        :class:`TrialError`."""
        kwargs = dict(kwargs or {})
        cache_key = spec_digest(experiment, fn, kwargs) if self.store is not None else None
        opened = nullcontext()
        if cache_key is not None:
            from repro.campaign.store import open_store

            opened = open_store(self.store)

        results: dict[int, TrialResult] = {}
        with opened as store:
            def emit(result: TrialResult) -> None:
                if store is not None:
                    try:
                        store.record_trial(cache_key, result.seed, result.payload,
                                           result.wall_seconds)
                    except (TypeError, ValueError) as exc:
                        raise TrialError(
                            f"{experiment}: seed {result.seed} payload cannot be "
                            f"stored: {exc}") from exc
                results[result.seed] = result

            todo: list[int] = []
            for seed in seeds:
                payload = store.trial_payload(cache_key, seed) if store is not None else None
                if payload is not None:
                    results[seed] = TrialResult(experiment, seed, payload, cached=True)
                else:
                    todo.append(seed)

            if todo:
                if self.jobs > 1 and len(todo) > 1 and _parallel_viable():
                    self._run_parallel(experiment, fn, todo, kwargs, emit, results)
                else:
                    for s in todo:
                        emit(self._run_one(experiment, fn, s, kwargs))

        ordered = [results[s] for s in seeds]
        self._check_invariant_payloads(experiment, ordered)
        return ordered

    @staticmethod
    def _check_invariant_payloads(experiment: str, results: list["TrialResult"]) -> None:
        """Experiment trials carry their post-run invariant violations
        in the payload (see
        :func:`repro.experiments.common.run_benchmark_trial`); surface
        any as a hard failure so a quietly-corrupted experiment cannot
        average its way into a figure. (The chaos campaign collects its
        findings under a different key — it must observe violations,
        not die on the first one.)"""
        failing = [
            (r.seed, v) for r in results
            for v in (r.payload.get("invariant_violations") or ())
        ]
        if failing:
            from repro.invariants import InvariantViolation

            raise InvariantViolation(
                [f"{experiment} seed {seed}: {v}" for seed, v in failing])

    # -- execution ----------------------------------------------------------
    def _run_one(self, experiment: str, fn: Callable, seed: int,
                 kwargs: dict[str, Any]) -> TrialResult:
        payload, wall = _invoke_trial(fn, seed, kwargs)
        return TrialResult(experiment, seed, payload, wall_seconds=wall)

    def _run_parallel(self, experiment: str, fn: Callable, seeds: list[int],
                      kwargs: dict[str, Any], emit: Callable[[TrialResult], None],
                      done: dict[int, TrialResult]) -> None:
        workers = min(self.jobs, len(seeds))
        try:
            self._submit_all(experiment, fn, seeds, kwargs, workers, emit)
        except BrokenProcessPool:
            # A worker died (OOM kill, crash): drop the poisoned pool
            # and retry once on a fresh one before giving up. Seeds whose
            # chunks already completed were emitted and are not re-run.
            _discard_pool(workers)
            remaining = [s for s in seeds if s not in done]
            if remaining:
                self._submit_all(experiment, fn, remaining, kwargs, workers, emit)

    def _submit_all(self, experiment: str, fn: Callable, seeds: list[int],
                    kwargs: dict[str, Any], workers: int,
                    emit: Callable[[TrialResult], None]) -> None:
        pool = _get_pool(workers)
        chunk_size = -(-len(seeds) // workers)  # ceil division
        futures = {}
        for start in range(0, len(seeds), chunk_size):
            block = seeds[start:start + chunk_size]
            futures[pool.submit(_invoke_chunk, experiment, fn, block, kwargs)] = block
        consumed: set = set()

        def consume(future) -> None:
            if future in consumed:
                return
            consumed.add(future)
            try:
                rows = future.result()
            except BrokenProcessPool:
                raise
            except TrialError:
                raise
            except Exception as exc:
                # Pool-layer failure (unpicklable spec or result, worker
                # teardown):
                # still name the seeds so the block is identifiable.
                block = futures[future]
                raise TrialError(
                    f"{experiment}: seed block {block} failed "
                    f"with {type(exc).__name__}: {exc}"
                ) from exc
            for seed, payload, wall in rows:
                emit(TrialResult(experiment, seed, payload, wall_seconds=wall))

        try:
            for future in as_completed(futures):
                consume(future)
        except KeyboardInterrupt:
            # Ctrl-C mid-fan-out: flush every chunk that already finished
            # (so a durable store loses nothing), cancel what never
            # started, and tear the pool down — otherwise the cached
            # persistent pool keeps its worker children running until
            # interpreter exit.
            for future in futures:
                if future.done() and not future.cancelled():
                    try:
                        consume(future)
                    except Exception:
                        pass  # best-effort flush; the interrupt wins
            _discard_pool(workers)  # shutdown + cancel pending futures
            raise
