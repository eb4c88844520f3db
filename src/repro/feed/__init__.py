"""End-to-end feed serving: fanout-on-write mailboxes + paginated reads.

The paper's engines decide *who receives which post*; this package turns
that decision into a servable product surface. The write path runs every
arriving post through a multi-user diversification engine and fans the
receiver set out into bounded per-user mailboxes of a columnar
:class:`MailboxStore`; the read path serves stable cursor pages from
those mailboxes, filtered by per-user impression state. :class:`FeedServer` exposes both over the same
threaded HTTP endpoint that already serves metrics and health.

With a :class:`DurabilityConfig` the deployment is crash-safe: every
mutation is written ahead to a CRC-framed, fsync'd log
(:mod:`repro.feed.wal`), rolling snapshots bound replay
(:mod:`repro.feed.durable`), ingestion is exactly-once under client
retries (``idempotency_key``), and ``FeedService.recover()`` rebuilds the
mailboxes byte-identical after a kill at any instant.

Typical wiring (the ``repro serve`` CLI does exactly this)::

    engine = make_multiuser("s_unibin", thresholds, graph, subs)
    service = DiversificationService(engine, overload=..., governor=...)
    feed = FeedService(
        service,
        mailboxes=MailboxConfig(capacity=512),
        durability=DurabilityConfig(wal_dir="var/feed"),
    )
    feed.recover()  # replay snapshot + WAL tail after a crash
    with feed.serve(port=8080) as server:
        ...
"""

from .durable import (
    DurabilityConfig,
    DurableFeedLog,
    RecoveryReport,
    SnapshotStore,
)
from .mailbox import FeedEntry, FeedPage, MailboxConfig, MailboxStore
from .service import FeedService
from .http import FeedServer
from .wal import WriteAheadLog

__all__ = [
    "DurabilityConfig",
    "DurableFeedLog",
    "FeedEntry",
    "FeedPage",
    "FeedServer",
    "FeedService",
    "MailboxConfig",
    "MailboxStore",
    "RecoveryReport",
    "SnapshotStore",
    "WriteAheadLog",
]
