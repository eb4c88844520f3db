"""Rolling snapshots: CRC validation, corrupt-snapshot fallback, full-disk
absorption, WAL truncation keyed to snapshot retention."""

from __future__ import annotations

import pytest

from repro.core import Thresholds
from repro.errors import CheckpointError
from repro.feed import DurabilityConfig, FeedService, MailboxConfig
from repro.feed.durable import FEED_SNAPSHOT_VERSION, SnapshotStore
from repro.feed.wal import list_segments, segment_index
from repro.multiuser import make_multiuser
from repro.resilience import FeedFaultPlan
from repro.service import DiversificationService
from repro.storage.framing import read_framed, write_framed

from .conftest import THRESHOLDS, make_posts


def payload(**fields) -> dict:
    return {"version": FEED_SNAPSHOT_VERSION, "wal_segment": 1, **fields}


def build_feed(graph, subscriptions, wal_dir, **durability_kwargs):
    durability_kwargs.setdefault("fsync", "never")
    engine = make_multiuser("s_unibin", THRESHOLDS, graph, subscriptions)
    return FeedService(
        DiversificationService(engine),
        mailboxes=MailboxConfig(capacity=64, window=120.0),
        expire_every=16,
        durability=DurabilityConfig(wal_dir=wal_dir, **durability_kwargs),
    )


class TestSnapshotStore:
    def test_save_prunes_to_keep(self, tmp_path):
        store = SnapshotStore(tmp_path, keep=2)
        for i in range(4):
            store.save(payload(i=i, wal_segment=10 + i))
        names = [p.name for p in store.list()]
        assert names == ["snapshot-000003-w000012.ckpt", "snapshot-000004-w000013.ckpt"]
        loaded, path, skipped = store.load_best()
        assert loaded["i"] == 3 and path.name == names[-1] and skipped == []

    def test_load_best_skips_corrupt_newest(self, tmp_path):
        store = SnapshotStore(tmp_path, keep=3)
        store.save(payload(i=0))
        store.save(payload(i=1))
        newest = store.list()[-1]
        raw = bytearray(newest.read_bytes())
        raw[-3] ^= 0xFF  # bit rot inside the newest snapshot's payload
        newest.write_bytes(bytes(raw))
        loaded, path, skipped = store.load_best()
        assert loaded["i"] == 0
        assert path.name == "snapshot-000001-w000001.ckpt"
        assert len(skipped) == 1 and "CRC" in skipped[0][1]

    def test_load_best_skips_torn_write(self, tmp_path):
        store = SnapshotStore(tmp_path, keep=3)
        store.save(payload(i=0))
        torn = tmp_path / "snapshot-000002-w000001.ckpt"
        write_framed(torn, payload(i=1))
        torn.write_bytes(torn.read_bytes()[:-10])
        loaded, path, skipped = store.load_best()
        assert loaded["i"] == 0
        assert "truncated" in skipped[0][1]

    def test_all_corrupt_returns_none_with_trail(self, tmp_path):
        store = SnapshotStore(tmp_path, keep=3)
        store.save(payload())
        store.list()[0].write_bytes(b"garbage")
        loaded, path, skipped = store.load_best()
        assert loaded is None and path is None and len(skipped) == 1

    def test_version_1_snapshot_is_refused_by_version(self, tmp_path):
        store = SnapshotStore(tmp_path, keep=3)
        write_framed(tmp_path / "snapshot-000001.ckpt", {"version": 1, "wal_segment": 1})
        with pytest.raises(CheckpointError, match="version 1"):
            store.load_best()


class TestDurableSnapshots:
    def test_rolling_snapshot_rotates_and_prunes_wal(
        self, graph, subscriptions, tmp_path
    ):
        feed = build_feed(
            graph, subscriptions, tmp_path, snapshot_every=25, keep_snapshots=2
        )
        for post in make_posts(120):
            feed.ingest(post)
        durable = feed.durable
        assert durable.snapshots_taken >= 3
        # WAL segments older than the oldest retained snapshot are gone.
        snaps = durable.snapshots.list()
        assert len(snaps) == 2
        floors = [int(read_framed(p)["wal_segment"]) for p in snaps]
        assert [p.name.endswith(f"-w{floor:06d}.ckpt") for p, floor in zip(snaps, floors)] == [
            True,
            True,
        ]
        oldest_needed = min(floors)
        on_disk = [p for p in list_segments(tmp_path)]
        assert all(segment_index(p) >= oldest_needed for p in on_disk)
        feed.close()

    def test_corrupt_newest_snapshot_falls_back_to_longer_replay(
        self, graph, subscriptions, tmp_path
    ):
        posts = make_posts(120)
        live = build_feed(graph, subscriptions, tmp_path, snapshot_every=25)
        for post in posts:
            live.ingest(post)
        expected = live.store.state_dict()
        # Corrupt the newest snapshot; recovery must use the previous one
        # and replay a longer WAL tail to the same state.
        newest = live.durable.snapshots.list()[-1]
        raw = bytearray(newest.read_bytes())
        raw[-1] ^= 0xFF
        newest.write_bytes(bytes(raw))

        recovered = build_feed(graph, subscriptions, tmp_path, snapshot_every=25)
        report = recovered.recover()
        assert report.used_snapshot != newest.name
        assert len(report.snapshots_skipped) == 1
        assert recovered.store.state_dict() == expected
        recovered.close()

    def test_injected_full_disk_absorbed_and_counted(
        self, graph, subscriptions, tmp_path
    ):
        feed = build_feed(
            graph,
            subscriptions,
            tmp_path,
            snapshot_every=25,
            fault_plan=FeedFaultPlan(fail_snapshots=2),
        )
        posts = make_posts(120)
        for post in posts:
            feed.ingest(post)
        assert feed.durable.snapshot_failures == 2
        assert feed.durable.snapshots_taken >= 1  # disk "recovered" later
        # Recovery still lands on the exact live state despite the misses.
        expected = feed.store.state_dict()
        recovered = build_feed(graph, subscriptions, tmp_path, snapshot_every=25)
        recovered.recover()
        assert recovered.store.state_dict() == expected
        recovered.close()

    def test_flush_failure_propagates_from_close(
        self, graph, subscriptions, tmp_path
    ):
        feed = build_feed(
            graph,
            subscriptions,
            tmp_path,
            snapshot_every=10_000,
            fault_plan=FeedFaultPlan(fail_snapshots=1),
        )
        for post in make_posts(10):
            feed.ingest(post)
        with pytest.raises(OSError, match="No space left"):
            feed.close()

    def test_pruned_wal_with_unreadable_snapshots_refuses_recovery(
        self, graph, subscriptions, tmp_path
    ):
        live = build_feed(
            graph, subscriptions, tmp_path, snapshot_every=20, keep_snapshots=1
        )
        for post in make_posts(100):
            live.ingest(post)
        assert min(
            int(p.name.split("-")[1].split(".")[0]) for p in list_segments(tmp_path)
        ) > 1
        for snap in live.durable.snapshots.list():
            snap.write_bytes(b"garbage")
        recovered = build_feed(graph, subscriptions, tmp_path)
        with pytest.raises(CheckpointError, match="cannot be reconstructed"):
            recovered.recover()

    def test_pruning_reads_no_snapshot(self, graph, subscriptions, tmp_path, monkeypatch):
        def run(wal_dir):
            feed = build_feed(
                graph, subscriptions, wal_dir, snapshot_every=25, keep_snapshots=2
            )
            for post in make_posts(120):
                feed.ingest(post)
            names = (
                [p.name for p in list_segments(wal_dir)],
                [p.name for p in feed.durable.snapshots.list()],
            )
            feed.durable.close()
            return names

        expected = run(tmp_path / "reading")

        def refuse(path):
            raise AssertionError(f"snapshot() read {path}")

        monkeypatch.setattr("repro.feed.durable.read_framed", refuse)
        monkeypatch.setattr("repro.storage.framing.read_framed", refuse)
        assert run(tmp_path / "names") == expected
        assert len(expected[0]) < 120 // 25  # segments were pruned

    def test_damaged_retained_snapshot_still_pins_its_segments(
        self, graph, subscriptions, tmp_path
    ):
        live = build_feed(
            graph, subscriptions, tmp_path, snapshot_every=25, keep_snapshots=3
        )
        posts = iter(make_posts(200))
        while live.durable.snapshots_taken < 2:
            live.ingest(next(posts))
        damaged = live.durable.snapshots.list()[-1]
        damaged.write_bytes(b"garbage")
        while live.durable.snapshots_taken < 4:
            live.ingest(next(posts))
        retained = live.durable.snapshots.list()
        assert retained[0] == damaged
        floor = int(damaged.name.split("-w")[1].split(".")[0])
        assert min(segment_index(p) for p in list_segments(tmp_path)) == floor
        expected = live.store.state_dict()
        retained[-1].write_bytes(b"garbage")
        recovered = build_feed(graph, subscriptions, tmp_path, snapshot_every=25)
        report = recovered.recover()
        assert report.used_snapshot == retained[1].name
        assert recovered.store.state_dict() == expected
        recovered.close()
