"""The feed service: fanout-on-write over a diversification engine.

Write path: :meth:`FeedService.ingest` runs one post through the wrapped
:class:`~repro.service.DiversificationService` (any M-SPSD engine —
serial, shared-component, sharded, supervised), takes the engine's
receiver set, and fans the post out into the per-user
:class:`~repro.feed.mailbox.MailboxStore`. Read path:
:meth:`FeedService.read` serves one cursor page from a mailbox, filtered
by the user's recorded impressions.

Backpressure is real-time, not replay-time: the service tracks a virtual
single-server backlog over wall-clock arrivals (the online analogue of
:meth:`DiversificationService._replay_shedding`) and, when an
:class:`~repro.resilience.OverloadController` says to shed, raises
:class:`~repro.errors.FeedOverloadError` carrying the backlog — the HTTP
front end turns that into ``429`` + ``Retry-After``. The accounting is
exactly balanced: every post received is either processed or shed.

Memory: the mailbox store registers as the governor's ``mailbox`` byte
family, so feed depth participates in the same budget/ladder as the
engine windows, indexes and journals.
"""

from __future__ import annotations

import random
import time
from collections.abc import Iterable
from threading import RLock

from ..core import Post
from ..errors import ConfigurationError, FeedOverloadError
from ..obs.instruments import FeedInstruments
from ..service import DiversificationService
from .durable import DurabilityConfig, DurableFeedLog, RecoveryReport
from .mailbox import FeedPage, MailboxConfig, MailboxStore


class FeedService:
    """Write-path/read-path split over a multi-user diversification service.

    Args:
        service: a :class:`DiversificationService` wrapping a *multi-user*
            engine (its ``ingest`` must return receiver sets).
        mailboxes: mailbox bounds; receivers default to every user the
            engine's subscription table knows.
        expire_every: run mailbox window expiry every N ingested posts
            (stream-time cadence, like the engine's own ``purge_every``).
        durability: a :class:`~repro.feed.durable.DurabilityConfig` turns
            on the WAL + snapshot + recovery machinery; every mutation is
            logged before it applies and ``recover()`` rebuilds state
            after a crash. ``None`` (default) keeps the feed in-memory.
        retry_jitter: fraction of jitter spread onto 429 ``Retry-After``
            values (0.25 → up to +25%), breaking retry stampedes after a
            shed; 0 disables.
        jitter_seed: seed for the jitter RNG — a fixed seed makes the
            jittered values reproducible (tests, differential runs).
    """

    def __init__(
        self,
        service: DiversificationService,
        *,
        users: Iterable[int] | None = None,
        mailboxes: MailboxConfig | None = None,
        expire_every: int = 256,
        durability: DurabilityConfig | None = None,
        retry_jitter: float = 0.0,
        jitter_seed: int | None = None,
    ):
        if not service.is_multiuser:
            raise ConfigurationError(
                "FeedService needs a multi-user engine (receiver sets); "
                "wrap a make_multiuser(...) engine, not a single-user one"
            )
        if expire_every < 1:
            raise ConfigurationError(
                f"expire_every must be >= 1, got {expire_every}"
            )
        if retry_jitter < 0:
            raise ConfigurationError(
                f"retry_jitter must be >= 0, got {retry_jitter}"
            )
        if users is None:
            table = getattr(service.engine, "subscriptions", None)
            if table is None:
                raise ConfigurationError(
                    "this engine does not expose its subscription table; "
                    "pass users= explicitly"
                )
            users = table.users
        self.service = service
        self.store = MailboxStore(users, mailboxes)
        self._expire_every = expire_every
        self._since_expire = 0
        # One lock serializes the whole write path: engine decision, WAL
        # append, mailbox fanout — so the log order IS the apply order.
        self._write_lock = RLock()
        self.durable = DurableFeedLog(durability) if durability is not None else None
        #: True while recovery replays the WAL; reads are flagged stale.
        self.stale = False
        self.retry_jitter = retry_jitter
        self._jitter_rng = random.Random(jitter_seed)
        # Virtual single-server backlog over wall-clock time: the moment
        # the engine will have drained everything accepted so far.
        self._server_free: float | None = None
        self.posts_received = 0
        self.posts_processed = 0
        self.posts_shed = 0
        self.posts_deduped = 0
        self.reads = 0
        self.entries_served = 0
        self.entries_filtered = 0
        self.deadlines_exceeded = 0
        self._instruments: FeedInstruments | None = None
        if service.registry is not None:
            self.bind_metrics()

    @property
    def overload(self):
        return self.service.overload

    @property
    def registry(self):
        return self.service.registry

    def bind_metrics(self) -> None:
        """Register the ``repro_feed_*`` families on the wrapped service's
        registry (binding one there first if needed) and hook the mailbox
        byte family into the governor."""
        if self.service.registry is None:
            from ..obs import Registry

            self.service.bind_metrics(Registry())
        if self._instruments is None:
            self._instruments = FeedInstruments(self.service.registry, self)
            if self.durable is not None:
                from ..obs.instruments import DurabilityInstruments

                DurabilityInstruments(self.service.registry, self.durable)
        if self.service.governor is not None:
            self.service.governor.add_source("mailbox", self.store.approx_bytes)

    # -- write path --------------------------------------------------------

    def backlog_delay(self, now: float | None = None) -> float:
        """Current virtual backlog in seconds (0 when idle)."""
        if self._server_free is None:
            return 0.0
        if now is None:
            now = time.monotonic()
        return max(0.0, self._server_free - now)

    def _jittered(self, retry_after: float) -> float:
        """Spread ``Retry-After`` by up to ``retry_jitter`` so a cohort of
        shed clients does not retry in lockstep (seeded → reproducible)."""
        if self.retry_jitter <= 0:
            return retry_after
        return retry_after * (1.0 + self._jitter_rng.uniform(0.0, self.retry_jitter))

    def ingest(self, post: Post, *, idempotency_key: str | None = None) -> frozenset[int]:
        """Run ``post`` through the engine and fan it out; returns the
        receiver set. Raises :class:`FeedOverloadError` when shed."""
        receivers, _ = self.ingest_detailed(post, idempotency_key=idempotency_key)
        return receivers

    def ingest_detailed(
        self, post: Post, *, idempotency_key: str | None = None
    ) -> tuple[frozenset[int], bool]:
        """:meth:`ingest` plus whether the idempotency window answered.

        With durability on, a retried ``idempotency_key`` returns the
        original receiver set without touching the engine or mailboxes —
        and the dedup check runs *before* the shedding gate, so a retry
        of already-committed work is never 429'd into a retry storm.
        """
        with self._write_lock:
            self.posts_received += 1
            durable = self.durable
            if durable is not None and idempotency_key is not None:
                hit = durable.dedup_lookup(idempotency_key)
                if hit is not None:
                    durable.log_dedup(idempotency_key)
                    self.posts_deduped += 1
                    durable.maybe_snapshot(self)
                    return frozenset(hit["receivers"]), True
            now = time.monotonic()
            backlog = self.backlog_delay(now)
            controller = self.service.overload
            if controller is not None and controller.should_shed(backlog):
                controller.record_shed()
                self.posts_shed += 1
                if self.service.governor is not None:
                    self.service.governor.observe()
                raise FeedOverloadError(
                    f"ingestion shedding: backlog {backlog:.3f}s over budget",
                    retry_after=self._jittered(
                        max(backlog - controller.resume_delay, 0.001)
                    ),
                )
            start = time.perf_counter()
            receivers = self.service.ingest(post)
            if durable is not None:
                # WAL before apply: the record (receivers + the seq the
                # store is about to assign) hits the log first, so a
                # crash between here and the fanout replays the fanout.
                durable.log_post(
                    post, receivers, self.store.peek_next_seq(), idempotency_key
                )
            seq, delivered = self.store.fanout(post, receivers)
            elapsed = time.perf_counter() - start
            free_from = now if self._server_free is None else max(now, self._server_free)
            self._server_free = free_from + elapsed
            if controller is not None:
                controller.record_processed()
            self.posts_processed += 1
            self._since_expire += 1
            if self._since_expire >= self._expire_every:
                if durable is not None:
                    durable.log_expire(post.timestamp)
                self.store.expire(post.timestamp)
                self._since_expire = 0
            if durable is not None:
                durable.maybe_snapshot(self)
            if self._instruments is not None:
                self._instruments.observe_fanout(elapsed, delivered)
            return receivers, False

    def replay(self, posts: Iterable[Post]) -> dict[str, int]:
        """Bulk-ingest a recorded stream; sheds are counted, not raised."""
        accepted = shed = deliveries_before = 0
        deliveries_before = self.store.deliveries
        for post in posts:
            try:
                self.ingest(post)
                accepted += 1
            except FeedOverloadError:
                shed += 1
        return {
            "accepted": accepted,
            "shed": shed,
            "deliveries": self.store.deliveries - deliveries_before,
        }

    # -- read path ---------------------------------------------------------

    def read(self, user: int, cursor: int | None = None, limit: int = 20) -> FeedPage:
        """One impression-filtered page of ``user``'s feed."""
        page = self.store.read(user, cursor, limit)
        self.reads += 1
        self.entries_served += len(page.entries)
        self.entries_filtered += page.filtered
        return page

    def record_impressions(self, user: int, seqs: Iterable[int]) -> tuple[int, int]:
        """Mark rendered entries seen; returns ``(recorded, ignored)``."""
        seqs = list(seqs)
        with self._write_lock:
            if self.durable is not None:
                # Validate the user first so a 404 never reaches the WAL.
                if user not in self.store:
                    return self.store.record_impressions(user, seqs)
                self.durable.log_impressions(user, seqs)
                recorded, ignored = self.store.record_impressions(user, seqs)
                self.durable.maybe_snapshot(self)
                return recorded, ignored
            return self.store.record_impressions(user, seqs)

    # -- reporting ---------------------------------------------------------

    def recover(self, **kwargs) -> RecoveryReport:
        """Rebuild state from the WAL directory (``repro serve --recover``);
        see :meth:`~repro.feed.durable.DurableFeedLog.recover`."""
        if self.durable is None:
            raise ConfigurationError(
                "recovery needs durability: construct the FeedService with "
                "a DurabilityConfig (CLI: --wal-dir)"
            )
        with self._write_lock:
            return self.durable.recover(self, **kwargs)

    def degradation_report(self) -> dict[str, object]:
        """The wrapped service's health report plus feed-level state:
        a recovery in flight (stale reads) degrades ``/healthz``."""
        report = self.service.degradation_report()
        reasons = report["reasons"]
        if self.stale:
            reasons.append("feed recovery replaying the WAL; reads are stale")
            report["status"] = "degraded"
        if self.durable is not None:
            report["durability"] = self.durable.status()
        return report

    def _health_probe(self) -> str:
        report = self.degradation_report()
        if report["status"] == "ok":
            return "ok\n"
        return "degraded: " + "; ".join(report["reasons"]) + "\n"

    def stats(self) -> dict[str, object]:
        """One JSON-able summary (the ``/feed/stats`` body)."""
        store = self.store
        return {
            "posts": {
                "received": self.posts_received,
                "processed": self.posts_processed,
                "shed": self.posts_shed,
                "deduped": self.posts_deduped,
            },
            "stale": self.stale,
            "durability": self.durable.status() if self.durable else None,
            "deliveries": store.deliveries,
            "mailboxes": {
                "materialized": store.mailbox_count,
                "users": len(store.users),
                "entries": store.total_entries,
                "seen": store.total_seen,
                "evicted_capacity": store.evicted_capacity,
                "evicted_expired": store.evicted_expired,
                "approx_bytes": store.approx_bytes(),
            },
            "reads": {
                "count": self.reads,
                "entries_served": self.entries_served,
                "entries_filtered": self.entries_filtered,
                "impressions": store.impressions,
            },
            "backlog_delay": self.backlog_delay(),
        }

    def serve(
        self,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        request_deadline: float | None = None,
    ):
        """Start the HTTP front end (metrics + feed routes) on a daemon
        thread; returns the running :class:`~repro.feed.http.FeedServer`."""
        from .http import FeedServer

        self.bind_metrics()
        server = FeedServer(
            self, host=host, port=port, request_deadline=request_deadline
        )
        server.start()
        return server

    def flush(self) -> None:
        """Force a final snapshot + WAL fsync (the SIGTERM path).

        Unlike the rolling snapshots, a failure here *raises* — shutdown
        must not report a durable state it could not write.
        """
        if self.durable is not None:
            with self._write_lock:
                self.durable.snapshot(self, must_succeed=True)

    def close(self) -> None:
        """Flush durable state, then close the wrapped engine (worker
        pools, spill files). A failed final flush propagates — callers
        (the CLI's SIGTERM handler) exit nonzero on it."""
        try:
            if self.durable is not None:
                with self._write_lock:
                    try:
                        self.flush()
                    finally:
                        self.durable.close()
        finally:
            close = getattr(self.service.engine, "close", None)
            if callable(close):
                close()
