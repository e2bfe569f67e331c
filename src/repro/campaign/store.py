"""The trial store: sqlite-backed, crash-safe, resumable.

This is the one place completed trials persist. A store file holds
trial rows keyed by ``(spec_digest, seed)``, where the key is the
:func:`repro.runner.spec_digest` of the trial family — ``(experiment,
fn, kwargs)`` plus the implementation-mode environment. The
:class:`~repro.runner.TrialRunner` loads every seed it is asked for
from the store and records each fresh trial into it as the trial
completes, so re-running the same spec maps onto the same rows, and a
run under a different ``REPRO_SCHEDULER`` gets rows of its own (its
trials genuinely are different executions). Campaigns add a row in
``campaigns`` holding the spec they were built from, which is all
``campaign resume`` needs.

Durability properties:

- every completed trial is recorded in its own transaction *as it
  completes*, not at end of run — a SIGKILL at any instant loses at
  most in-flight trials;
- the database runs in WAL mode with ``synchronous=NORMAL``: torn
  writes cannot corrupt committed rows, and committed rows survive a
  process kill (an OS crash can lose the tail of the WAL — acceptable:
  the affected trials simply re-run on resume);
- a corrupt database file (torn by something outside sqlite's control:
  truncation, disk faults, an errant writer) is quarantined to
  ``<name>.corrupt-N`` and a fresh store started in its place, so a
  damaged store degrades to re-running trials instead of wedging every
  future resume;
- ``run_count`` increments on re-record, which is how the resume tests
  assert "zero re-executed trials" — after a kill + resume, every row
  must still say ``run_count == 1``.
"""

from __future__ import annotations

import json
import os
import sqlite3
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator

from repro.sim.core import SimulationError

__all__ = ["CampaignStore", "StoreError", "open_store"]


class StoreError(SimulationError):
    """The campaign store cannot satisfy a request (unknown campaign,
    a spec its kind cannot run, ...)."""


_SCHEMA = """
CREATE TABLE IF NOT EXISTS campaigns (
    campaign_id TEXT PRIMARY KEY,
    spec        TEXT NOT NULL,
    status      TEXT NOT NULL DEFAULT 'running',
    last_error  TEXT,
    created_at  REAL NOT NULL,
    updated_at  REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS trials (
    campaign_id  TEXT    NOT NULL,
    seed         INTEGER NOT NULL,
    status       TEXT    NOT NULL DEFAULT 'done',
    payload      TEXT    NOT NULL,
    digest       TEXT,
    wall_seconds REAL    NOT NULL DEFAULT 0.0,
    run_count    INTEGER NOT NULL DEFAULT 1,
    completed_at REAL    NOT NULL,
    PRIMARY KEY (campaign_id, seed)
);
"""


class CampaignStore:
    """Open (creating or recovering as needed) a campaign store.

    ``path`` is a filesystem path (missing parent directories are
    created) or ``":memory:"`` (the default) for an ephemeral store —
    the one-shot mode ``run_campaign`` uses when no ``--store`` is
    given.
    """

    def __init__(self, path: str | Path = ":memory:") -> None:
        self.path = str(path)
        self.quarantined: str | None = None
        self._conn = self._open()

    # -- lifecycle ----------------------------------------------------------
    def _open(self) -> sqlite3.Connection:
        try:
            return self._connect()
        except sqlite3.DatabaseError:
            if self.path == ":memory:":
                raise
            self.quarantined = self._quarantine()
            return self._connect()

    def _connect(self) -> sqlite3.Connection:
        if self.path != ":memory:":
            Path(self.path).parent.mkdir(parents=True, exist_ok=True)
        conn = sqlite3.connect(self.path, timeout=30.0)
        try:
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=NORMAL")
            conn.executescript(_SCHEMA)
            conn.commit()
        except sqlite3.DatabaseError:
            conn.close()
            raise
        return conn

    def _quarantine(self) -> str:
        """Move a corrupt database aside (with its -wal/-shm leftovers)
        so a fresh store can start; returns the quarantine path."""
        n = 0
        while True:
            candidate = f"{self.path}.corrupt-{n}"
            if not os.path.exists(candidate):
                break
            n += 1
        os.replace(self.path, candidate)
        for suffix in ("-wal", "-shm"):
            try:
                os.replace(self.path + suffix, candidate + suffix)
            except OSError:
                pass
        return candidate

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "CampaignStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- campaigns ----------------------------------------------------------
    def register(self, campaign_id: str, spec: dict[str, Any]) -> str:
        """Register (or re-open) a campaign. ``campaign_id`` is the
        runner ``spec_digest`` of the trial family, so the same campaign
        spec always lands on the same rows; re-registering updates the
        stored spec (e.g. a trial-count extension) and flips the status
        back to ``running``."""
        now = time.time()
        self._conn.execute(
            "INSERT INTO campaigns (campaign_id, spec, status, created_at, updated_at)"
            " VALUES (?, ?, 'running', ?, ?)"
            " ON CONFLICT(campaign_id) DO UPDATE SET"
            "   spec = excluded.spec, status = 'running', last_error = NULL,"
            "   updated_at = excluded.updated_at",
            (campaign_id, json.dumps(spec, sort_keys=True), now, now))
        self._conn.commit()
        return campaign_id

    def campaign(self, campaign_id: str) -> dict[str, Any]:
        """Load one campaign row (``campaign_id`` may be a unique
        prefix); the ``spec`` comes back parsed."""
        rows = self._conn.execute(
            "SELECT campaign_id, spec, status, last_error, created_at, updated_at"
            " FROM campaigns WHERE campaign_id LIKE ? ORDER BY created_at",
            (campaign_id + "%",)).fetchall()
        if not rows:
            raise StoreError(f"no campaign matching {campaign_id!r} in {self.path}")
        if len(rows) > 1:
            raise StoreError(
                f"campaign id prefix {campaign_id!r} is ambiguous in {self.path} "
                f"({len(rows)} matches)")
        return self._campaign_row(rows[0])

    def campaigns(self) -> list[dict[str, Any]]:
        rows = self._conn.execute(
            "SELECT campaign_id, spec, status, last_error, created_at, updated_at"
            " FROM campaigns ORDER BY created_at").fetchall()
        return [self._campaign_row(r) for r in rows]

    @staticmethod
    def _campaign_row(row) -> dict[str, Any]:
        cid, spec, status, last_error, created_at, updated_at = row
        return {
            "campaign_id": cid,
            "spec": json.loads(spec),
            "status": status,
            "last_error": last_error,
            "created_at": created_at,
            "updated_at": updated_at,
        }

    def latest_incomplete(self) -> dict[str, Any] | None:
        """The most recently updated campaign not marked complete —
        what ``python -m repro campaign resume`` picks without an id."""
        rows = self._conn.execute(
            "SELECT campaign_id, spec, status, last_error, created_at, updated_at"
            " FROM campaigns WHERE status != 'complete'"
            " ORDER BY updated_at DESC LIMIT 1").fetchall()
        return self._campaign_row(rows[0]) if rows else None

    def mark_status(self, campaign_id: str, status: str,
                    error: str | None = None) -> None:
        self._conn.execute(
            "UPDATE campaigns SET status = ?, last_error = ?, updated_at = ?"
            " WHERE campaign_id = ?",
            (status, error, time.time(), campaign_id))
        self._conn.commit()

    # -- trials -------------------------------------------------------------
    def record_trial(self, campaign_id: str, seed: int, payload: dict[str, Any],
                     wall_seconds: float = 0.0) -> None:
        """Record one completed trial in its own transaction — this is
        the durability point the whole layer exists for."""
        self._conn.execute(
            "INSERT INTO trials"
            " (campaign_id, seed, status, payload, digest, wall_seconds, completed_at)"
            " VALUES (?, ?, 'done', ?, ?, ?, ?)"
            " ON CONFLICT(campaign_id, seed) DO UPDATE SET"
            "   status = excluded.status, payload = excluded.payload,"
            "   digest = excluded.digest, wall_seconds = excluded.wall_seconds,"
            "   completed_at = excluded.completed_at,"
            "   run_count = run_count + 1",
            (campaign_id, int(seed), json.dumps(payload, sort_keys=True),
             payload.get("digest"), float(wall_seconds), time.time()))
        self._conn.commit()

    def trial_payload(self, campaign_id: str, seed: int) -> dict[str, Any] | None:
        """The recorded payload of one completed trial, or ``None``."""
        row = self._conn.execute(
            "SELECT payload FROM trials"
            " WHERE campaign_id = ? AND seed = ? AND status = 'done'",
            (campaign_id, int(seed))).fetchone()
        return json.loads(row[0]) if row else None

    def completed_seeds(self, campaign_id: str) -> set[int]:
        rows = self._conn.execute(
            "SELECT seed FROM trials WHERE campaign_id = ? AND status = 'done'",
            (campaign_id,)).fetchall()
        return {r[0] for r in rows}

    def payloads(self, campaign_id: str) -> Iterator[tuple[int, dict[str, Any]]]:
        """Stream ``(seed, payload)`` in seed order — the incremental-
        aggregation entry point (one row in memory at a time)."""
        cursor = self._conn.execute(
            "SELECT seed, payload FROM trials"
            " WHERE campaign_id = ? AND status = 'done' ORDER BY seed",
            (campaign_id,))
        for seed, payload in cursor:
            yield seed, json.loads(payload)

    def trial_rows(self, campaign_id: str) -> list[dict[str, Any]]:
        rows = self._conn.execute(
            "SELECT seed, status, digest, wall_seconds, run_count, completed_at"
            " FROM trials WHERE campaign_id = ? ORDER BY seed",
            (campaign_id,)).fetchall()
        return [
            {"seed": seed, "status": status, "digest": digest,
             "wall_seconds": wall, "run_count": run_count, "completed_at": done_at}
            for seed, status, digest, wall, run_count, done_at in rows
        ]

    def counts(self, campaign_id: str) -> dict[str, Any]:
        done, executions, wall = self._conn.execute(
            "SELECT COUNT(*), COALESCE(SUM(run_count), 0),"
            "       COALESCE(SUM(wall_seconds), 0.0)"
            " FROM trials WHERE campaign_id = ? AND status = 'done'",
            (campaign_id,)).fetchone()
        return {"done": done, "executions": executions,
                "trial_wall_seconds": round(wall, 3)}

    def max_run_count(self, campaign_id: str) -> int:
        row = self._conn.execute(
            "SELECT COALESCE(MAX(run_count), 0) FROM trials WHERE campaign_id = ?",
            (campaign_id,)).fetchone()
        return row[0]


@contextmanager
def open_store(store: CampaignStore | str | Path | None = None) -> Iterator[CampaignStore]:
    """Borrow ``store`` if it is already open; otherwise open it (a path,
    or ``None`` for an ephemeral in-memory store) for the ``with`` block
    and close it afterwards."""
    if isinstance(store, CampaignStore):
        yield store
        return
    with CampaignStore(":memory:" if store is None else store) as opened:
        yield opened
