"""Crash-safe feed state: WAL + rolling snapshots + recovery.

The serving layer's contract is *exactly-once, byte-identical*: kill the
process at any instant — mid-fanout, mid-fsync, mid-snapshot — restart
with ``--recover``, and every mailbox, seen set and cursor position is
the one an uninterrupted run would hold. Three pieces deliver it:

**The write-ahead log** (:mod:`repro.feed.wal`). Every accepted post
(with a digest of the engine's receiver verdict — see
:func:`receivers_digest` — and the assigned sequence number), every
impression batch and every window-expiry sweep is appended —
CRC-framed, fsync'd per policy — *before* the in-memory mutation. The
engine decision itself is deliberately **not** logged as state: recovery
re-offers the logged posts to an engine restored from the snapshot, so
an engine mutation whose post never reached the WAL simply vanishes —
the client was never acked and retries (idempotently).

**Rolling snapshots** (:class:`SnapshotStore`). Every
``snapshot_every`` logged records, the WAL rotates to a fresh segment
and the complete feed state — mailbox store, engine checkpoint
(:func:`~repro.resilience.snapshot_engine`), dedup window, every
counter — is written through the same atomic CRC-framed path the
supervisor's checkpoints use (:mod:`repro.storage.framing`). The mailbox
store goes in as flat numpy arrays in CSR order
(:meth:`~repro.feed.mailbox.MailboxStore.snapshot_arrays`), so neither
capture nor load builds a Python object per entry. Old snapshots and the
WAL segments they obsolete are pruned (``keep_snapshots`` deep), so disk
use is bounded by snapshot size plus one snapshot interval of WAL; each
snapshot's WAL floor is part of its file name, so pruning reads no
snapshot.

**Recovery** (:meth:`DurableFeedLog.recover`). Load the newest snapshot
that passes its CRC (a torn or bit-rotted snapshot is *skipped*, falling
back to the previous one and a longer replay — that is what
``keep_snapshots >= 2`` buys), restore mailboxes and engine, then replay
the WAL tail: re-offer each logged post and cross-check the engine
reproduces the recorded receiver digest and the store assigns the
recorded sequence number — any mismatch is a determinism violation and fails loud
rather than serving silently-wrong feeds. A snapshot of another layout
version is refused with a :class:`~repro.errors.CheckpointError`. A torn
final frame (the append the crash interrupted) is truncated; torn bytes
anywhere *earlier* mean damage at rest and raise. While recovery runs the service stays up in
degraded mode: reads serve the restored-so-far state flagged
``stale: true`` and ``/healthz`` reports the replay.

**Exactly-once ingestion.** ``POST /posts`` may carry an
``idempotency_key``; the key rides in the post's WAL record (replay
rebuilds the key → (seq, receivers) window from the re-offered posts)
and the window itself rides in snapshots, bounded to the
``dedup_window`` most recent keys. A client retrying an acked post gets the original
verdict back without touching the engine (a small ``dedup`` WAL record
keeps the received/deduped counters exact across a crash); a client
retrying an *unacked* post (crash before the WAL append) is a genuinely
new ingest. Either way: one fanout.
"""

from __future__ import annotations

import re
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path

from ..core import Post
from ..errors import CheckpointError, ConfigurationError
from ..io import post_from_dict, post_to_dict
from ..resilience.checkpoint import load_engine_state, snapshot_engine
from ..storage.framing import read_framed, write_framed
from .wal import WriteAheadLog, list_segments, segment_index

__all__ = [
    "DurabilityConfig",
    "DurableFeedLog",
    "FEED_SNAPSHOT_VERSION",
    "RecoveryReport",
    "SnapshotStore",
    "receivers_digest",
]

_DIGEST_MASK = (1 << 64) - 1


def receivers_digest(receivers) -> list[int]:
    """Order-insensitive O(1)-size fingerprint of a receiver set: count
    and 64-bit sum.

    A post's WAL record carries this instead of the receiver list itself:
    the list is O(fanout) bytes per record (it dominated the log's write
    cost at real amplification), while recovery only needs enough to
    cross-check that re-offering the post reproduces the same set. Count
    plus sum catches any single-receiver divergence and every realistic
    engine-nondeterminism failure (both components run at C speed; a
    per-element fold costs ~20us/post at amplification 400, a third of
    the whole WAL budget). Byte-exact equivalence is enforced separately
    by the snapshot CRCs and the differential recovery harness.
    """
    return [len(receivers), sum(receivers) & _DIGEST_MASK]

#: Bumped on incompatible feed-snapshot layout changes (2: the mailbox
#: store as CSR arrays; no reader for version 1 is kept).
FEED_SNAPSHOT_VERSION = 2

SNAPSHOT_PREFIX = "snapshot-"
SNAPSHOT_SUFFIX = ".ckpt"
#: ``snapshot-<index>-w<WAL floor>.ckpt``; a name without a floor pins
#: the whole log.
_SNAPSHOT_NAME = re.compile(r"snapshot-(\d+)(?:-w(\d+))?\.ckpt")


@dataclass(frozen=True)
class DurabilityConfig:
    """Knobs for the durable feed log (CLI: ``repro serve --wal-dir ...``).

    Attributes:
        wal_dir: directory holding WAL segments and snapshots.
        snapshot_every: logged records between rolling snapshots (also
            the WAL-replay bound a recovery pays).
        fsync: WAL fsync policy — ``always`` / ``interval`` / ``never``
            (see :mod:`repro.feed.wal` for the durability tiers).
        fsync_interval: appends per group commit under ``interval``.
        keep_snapshots: rolling snapshots retained; >= 2 lets recovery
            fall back past a corrupt newest snapshot.
        dedup_window: most-recent idempotency keys remembered.
        fault_plan: optional :class:`~repro.resilience.FeedFaultPlan`
            chaos injectors (tests / the chaos smoke harness).
    """

    wal_dir: str | Path
    snapshot_every: int = 1024
    fsync: str = "interval"
    fsync_interval: int = 64
    keep_snapshots: int = 2
    dedup_window: int = 1024
    fault_plan: object | None = None

    def __post_init__(self) -> None:
        if self.snapshot_every < 1:
            raise ConfigurationError(
                f"snapshot_every must be >= 1, got {self.snapshot_every}"
            )
        if self.keep_snapshots < 1:
            raise ConfigurationError(
                f"keep_snapshots must be >= 1, got {self.keep_snapshots}"
            )
        if self.dedup_window < 1:
            raise ConfigurationError(
                f"dedup_window must be >= 1, got {self.dedup_window}"
            )


def snapshot_path(directory: str | Path, index: int, wal_floor: int) -> Path:
    return Path(directory) / (
        f"{SNAPSHOT_PREFIX}{index:06d}-w{wal_floor:06d}{SNAPSHOT_SUFFIX}"
    )


def snapshot_file_index(path: str | Path) -> int:
    return int(_SNAPSHOT_NAME.fullmatch(Path(path).name).group(1))


def snapshot_wal_floor(path: str | Path) -> int:
    """The first WAL segment the snapshot at ``path`` needs, from its name."""
    return int(_SNAPSHOT_NAME.fullmatch(Path(path).name).group(2) or 1)


class SnapshotStore:
    """Rolling, CRC-validated feed snapshots in the WAL directory.

    Files are ``snapshot-NNNNNN-wWWWWWW.ckpt`` (index, then the first WAL
    segment the snapshot needs), written through
    :func:`~repro.storage.framing.write_framed` (temp + fsync + rename
    under a length+CRC header) — a crash mid-save leaves the previous
    snapshot intact, and a snapshot damaged at rest fails its CRC on
    load instead of restoring garbage.
    """

    def __init__(self, directory: str | Path, *, keep: int = 2, fault_plan=None):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.keep = keep
        self.fault_plan = fault_plan

    def list(self) -> list[Path]:
        """Snapshot files ascending by index."""
        found = [
            p
            for p in self.directory.glob(f"{SNAPSHOT_PREFIX}*{SNAPSHOT_SUFFIX}")
            if p.is_file() and _SNAPSHOT_NAME.fullmatch(p.name)
        ]
        return sorted(found, key=snapshot_file_index)

    def next_index(self) -> int:
        existing = self.list()
        return snapshot_file_index(existing[-1]) + 1 if existing else 1

    def save(self, payload: dict) -> Path:
        """Write ``payload`` as the next snapshot, named with its
        ``wal_segment`` floor, and prune to ``keep``.

        Raises ``OSError`` if the write fails (full disk — injected or
        real); the previous snapshots are untouched either way.
        """
        if self.fault_plan is not None:
            self.fault_plan.on_snapshot()
        path = snapshot_path(
            self.directory, self.next_index(), int(payload["wal_segment"])
        )
        write_framed(path, payload)
        for old in self.list()[: -self.keep]:
            old.unlink()
        return path

    def load_best(self) -> tuple[dict | None, Path | None, list[tuple[str, str]]]:
        """Newest snapshot that passes validation.

        Returns ``(payload, path, skipped)`` where ``skipped`` lists
        ``(filename, reason)`` for every newer snapshot that failed its
        CRC or shape check — the fallback trail recovery reports.
        ``(None, None, skipped)`` when no snapshot is loadable. A sound
        snapshot of another layout version raises :class:`CheckpointError`.
        """
        skipped: list[tuple[str, str]] = []
        for path in reversed(self.list()):
            try:
                payload = read_framed(path)
            except CheckpointError as error:
                skipped.append((path.name, str(error)))
                continue
            if not isinstance(payload, dict):
                skipped.append(
                    (path.name, f"unsupported feed snapshot: {type(payload)}")
                )
                continue
            if payload.get("version") != FEED_SNAPSHOT_VERSION:
                raise CheckpointError(
                    f"{path.name} is feed snapshot version "
                    f"{payload.get('version')!r}; this build reads only version "
                    f"{FEED_SNAPSHOT_VERSION}"
                )
            return payload, path, skipped
        return None, None, skipped


@dataclass(frozen=True)
class RecoveryReport:
    """What one :meth:`DurableFeedLog.recover` run did."""

    used_snapshot: str | None
    snapshots_skipped: tuple[tuple[str, str], ...]
    start_segment: int
    final_segment: int
    segments_replayed: int
    records_replayed: dict[str, int] = field(default_factory=dict)
    torn_bytes: int = 0
    duration_seconds: float = 0.0

    @property
    def records_total(self) -> int:
        return sum(self.records_replayed.values())

    def to_dict(self) -> dict[str, object]:
        return {
            "used_snapshot": self.used_snapshot,
            "snapshots_skipped": [list(pair) for pair in self.snapshots_skipped],
            "start_segment": self.start_segment,
            "final_segment": self.final_segment,
            "segments_replayed": self.segments_replayed,
            "records_replayed": dict(self.records_replayed),
            "records_total": self.records_total,
            "torn_bytes": self.torn_bytes,
            "duration_seconds": self.duration_seconds,
        }


class DurableFeedLog:
    """The durability engine behind a :class:`~repro.feed.FeedService`.

    Owns the WAL, the snapshot store and the idempotency window; the
    feed service calls ``log_*`` before each mutation (under its write
    lock) and :meth:`maybe_snapshot` after. Not thread-safe on its own —
    it lives entirely inside the service's write critical section.
    """

    def __init__(self, config: DurabilityConfig):
        self.config = config
        self.wal = WriteAheadLog(
            config.wal_dir,
            fsync=config.fsync,
            fsync_interval=config.fsync_interval,
            fault_plan=config.fault_plan,
        )
        self.snapshots = SnapshotStore(
            config.wal_dir, keep=config.keep_snapshots, fault_plan=config.fault_plan
        )
        #: idempotency key -> {"seq": int, "receivers": frozenset[int]}
        self._dedup: OrderedDict[str, dict] = OrderedDict()
        self.dedup_hits = 0
        self.dedup_evicted = 0
        self._since_snapshot = 0
        self.snapshots_taken = 0
        self.snapshot_failures = 0
        self.last_snapshot_seconds = 0.0
        self.last_recovery: RecoveryReport | None = None

    # -- idempotency window ------------------------------------------------

    def dedup_lookup(self, key: str) -> dict | None:
        hit = self._dedup.get(key)
        if hit is not None:
            self.dedup_hits += 1
        return hit

    def dedup_record(self, key: str, seq: int, receivers) -> None:
        # The frozenset is stored as-is — the write path is per-post hot,
        # so ordering is deferred to snapshot capture.
        self._dedup[key] = {"seq": seq, "receivers": frozenset(receivers)}
        while len(self._dedup) > self.config.dedup_window:
            self._dedup.popitem(last=False)
            self.dedup_evicted += 1

    # -- the log_* write path ----------------------------------------------

    def log_post(self, post: Post, receivers, seq: int, idem: str | None) -> None:
        """WAL a processed post *before* its fanout is applied."""
        self.wal.append(
            {
                "t": "post",
                "post": post_to_dict(post),
                "recv": receivers_digest(receivers),
                "seq": seq,
                "idem": idem,
            }
        )
        if idem is not None:
            self.dedup_record(idem, seq, receivers)
        self._since_snapshot += 1

    def log_impressions(self, user: int, seqs) -> None:
        self.wal.append({"t": "impressions", "user": user, "seqs": sorted(seqs)})
        self._since_snapshot += 1

    def log_dedup(self, key: str) -> None:
        """WAL a retry answered from the idempotency window (replay counts
        it as received and deduped)."""
        self.wal.append({"t": "dedup", "idem": key})
        self._since_snapshot += 1

    def log_expire(self, now: float) -> None:
        """WAL a window-expiry sweep (prescriptive: replay runs expiry
        exactly where the live run did, no cadence re-derivation)."""
        self.wal.append({"t": "expire", "now": now})
        self._since_snapshot += 1

    # -- snapshots ---------------------------------------------------------

    def capture(self, feed) -> dict[str, object]:
        """The complete JSON-able feed state at this instant."""
        return {
            "version": FEED_SNAPSHOT_VERSION,
            "wal_segment": self.wal.segment,
            "mailbox": feed.store.snapshot_arrays(),
            "engine": snapshot_engine(feed.service.engine),
            "dedup": [
                [key, entry["seq"], sorted(entry["receivers"])]
                for key, entry in self._dedup.items()
            ],
            "wal_counters": self.wal.snapshot_counters(),
            "counters": {
                "posts_received": feed.posts_received,
                "posts_processed": feed.posts_processed,
                "posts_shed": feed.posts_shed,
                "posts_deduped": feed.posts_deduped,
                "since_expire": feed._since_expire,
                "since_purge": feed.service._since_purge,
                "dedup_hits": self.dedup_hits,
                "dedup_evicted": self.dedup_evicted,
                "snapshots_taken": self.snapshots_taken,
                "snapshot_failures": self.snapshot_failures,
            },
        }

    def snapshot(self, feed, *, must_succeed: bool = False) -> Path | None:
        """Rotate the WAL and persist a full snapshot; prune what the
        retained snapshots no longer need.

        A failed save (full disk) is *absorbed* by default — the service
        keeps running on the previous snapshot plus a longer WAL, and
        ``snapshot_failures`` counts the miss; ``must_succeed`` (the
        shutdown flush) re-raises instead.
        """
        start = time.perf_counter()
        self.wal.rotate()
        payload = self.capture(feed)
        try:
            path = self.snapshots.save(payload)
        except OSError:
            self.snapshot_failures += 1
            self._since_snapshot = 0
            if must_succeed:
                raise
            return None
        self.snapshots_taken += 1
        self._since_snapshot = 0
        self.last_snapshot_seconds = time.perf_counter() - start
        # Every retained snapshot, damaged or not, pins the WAL from the
        # floor in its name.
        retained = self.snapshots.list()
        if retained:
            self.wal.prune_segments(min(map(snapshot_wal_floor, retained)))
        return path

    def maybe_snapshot(self, feed) -> Path | None:
        if self._since_snapshot >= self.config.snapshot_every:
            return self.snapshot(feed)
        return None

    # -- recovery ----------------------------------------------------------

    def recover(self, feed, *, snapshot_after: bool = True) -> RecoveryReport:
        """Rebuild ``feed``'s state from disk; leaves the WAL open for
        appending where the crashed run left off.

        While this runs ``feed.stale`` is True: reads are served from the
        restored-so-far state and flagged, and ``/healthz`` degrades.
        """
        start = time.perf_counter()
        feed.stale = True
        try:
            payload, used_path, skipped = self.snapshots.load_best()
            start_segment = 1
            if payload is not None:
                feed.store.load_arrays(payload["mailbox"])
                load_engine_state(feed.service.engine, payload["engine"])
                self._dedup = OrderedDict(
                    (
                        key,
                        {
                            "seq": int(seq),
                            "receivers": frozenset(int(r) for r in recv),
                        },
                    )
                    for key, seq, recv in payload.get("dedup", [])
                )
                counters = payload.get("counters", {})
                feed.posts_received = int(counters.get("posts_received", 0))
                feed.posts_processed = int(counters.get("posts_processed", 0))
                feed.posts_shed = int(counters.get("posts_shed", 0))
                feed.posts_deduped = int(counters.get("posts_deduped", 0))
                feed._since_expire = int(counters.get("since_expire", 0))
                feed.service._since_purge = int(counters.get("since_purge", 0))
                self.dedup_hits = int(counters.get("dedup_hits", 0))
                self.dedup_evicted = int(counters.get("dedup_evicted", 0))
                self.snapshots_taken = int(counters.get("snapshots_taken", 0))
                self.snapshot_failures = int(counters.get("snapshot_failures", 0))
                self.wal.load_counters(payload.get("wal_counters", {}))
                start_segment = int(payload.get("wal_segment", 1))
            else:
                segments = list_segments(self.wal.directory)
                if segments and segment_index(segments[0]) > 1:
                    raise CheckpointError(
                        "no loadable snapshot, but the WAL starts at segment "
                        f"{segment_index(segments[0])} — earlier segments were "
                        "pruned against snapshots that are now unreadable; "
                        "state cannot be reconstructed"
                    )

            segments = [
                p
                for p in list_segments(self.wal.directory)
                if segment_index(p) >= start_segment
            ]
            replayed: dict[str, int] = {}
            torn_total = 0
            last_index = segment_index(segments[-1]) if segments else start_segment
            for seg_path in segments:
                index = segment_index(seg_path)
                records, torn = self.wal.read_segment(index)
                if torn and index != last_index:
                    raise CheckpointError(
                        f"{seg_path}: {torn} torn bytes in a non-final WAL "
                        "segment — segments are only ever torn at the crash "
                        "point; this file is damaged at rest"
                    )
                torn_total += torn
                for record in records:
                    self._replay_record(feed, record, source=str(seg_path))
                    kind = str(record["t"])
                    replayed[kind] = replayed.get(kind, 0) + 1
                    self.wal.records_total += 1
                    self.wal.records_by_type[kind] = (
                        self.wal.records_by_type.get(kind, 0) + 1
                    )

            # Continue appending where the crash happened (torn tail cut).
            self.wal.open_segment(last_index, truncate_torn=True)
            self._since_snapshot = sum(replayed.values())
            report = RecoveryReport(
                used_snapshot=used_path.name if used_path else None,
                snapshots_skipped=tuple(skipped),
                start_segment=start_segment,
                final_segment=last_index,
                segments_replayed=len(segments),
                records_replayed=replayed,
                torn_bytes=torn_total,
                duration_seconds=time.perf_counter() - start,
            )
            self.last_recovery = report
        finally:
            feed.stale = False
        if snapshot_after and report.records_total:
            # Fold the replayed tail into a fresh snapshot so the *next*
            # restart replays only what arrives after this one.
            self.snapshot(feed)
        return report

    def _replay_record(self, feed, record: dict, *, source: str) -> None:
        kind = record.get("t")
        if kind == "post":
            post = post_from_dict(record["post"])
            recorded = [int(v) for v in record["recv"]]
            receivers = frozenset(feed.service.ingest(post))
            if receivers_digest(receivers) != recorded:
                raise CheckpointError(
                    f"{source}: replaying post {post.post_id} produced a "
                    f"receiver set with digest {receivers_digest(receivers)} "
                    f"but the WAL recorded {recorded} — engine is not "
                    "deterministic against this log (wrong algorithm/graph/"
                    "thresholds?)"
                )
            seq, _ = feed.store.fanout(post, receivers)
            if seq != int(record["seq"]):
                raise CheckpointError(
                    f"{source}: replaying post {post.post_id} assigned "
                    f"seq {seq}, WAL recorded {record['seq']} — mailbox "
                    "state does not line up with this log"
                )
            idem = record.get("idem")
            if idem is not None:
                self.dedup_record(idem, seq, receivers)
            feed.posts_received += 1
            feed.posts_processed += 1
            feed._since_expire += 1
        elif kind == "impressions":
            feed.store.record_impressions(
                int(record["user"]), [int(s) for s in record["seqs"]]
            )
        elif kind == "dedup":
            self.dedup_hits += 1
            feed.posts_received += 1
            feed.posts_deduped += 1
        elif kind == "expire":
            feed.store.expire(float(record["now"]))
            feed._since_expire = 0
        else:
            raise CheckpointError(
                f"{source}: unknown WAL record type {kind!r}"
            )

    def close(self) -> None:
        self.wal.close()

    # -- reporting ---------------------------------------------------------

    def status(self) -> dict[str, object]:
        """JSON-able durability section for ``/feed/stats``."""
        report = self.last_recovery
        return {
            "wal_dir": str(self.config.wal_dir),
            "fsync": self.config.fsync,
            "wal": {
                **self.wal.snapshot_counters(),
                "segment": self.wal.segment,
                "segments_on_disk": self.wal.segments_on_disk(),
                "records_since_snapshot": self._since_snapshot,
            },
            "snapshots": {
                "taken": self.snapshots_taken,
                "failures": self.snapshot_failures,
                "on_disk": len(self.snapshots.list()),
                "keep": self.config.keep_snapshots,
                "last_seconds": self.last_snapshot_seconds,
            },
            "dedup": {
                "window": self.config.dedup_window,
                "keys": len(self._dedup),
                "hits": self.dedup_hits,
                "evicted": self.dedup_evicted,
            },
            "recovery": report.to_dict() if report is not None else None,
        }
