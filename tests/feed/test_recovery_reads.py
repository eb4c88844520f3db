"""Reads around recovery: cursor stability across restart, stale-flagged
degraded serving while the WAL replays, seeded Retry-After jitter, and
per-request deadlines on the HTTP front end."""

from __future__ import annotations

import json
import threading
import urllib.request

import pytest

from repro.errors import FeedOverloadError
from repro.feed import DurabilityConfig, FeedService, MailboxConfig
from repro.feed.durable import DurableFeedLog
from repro.multiuser import make_multiuser
from repro.resilience import OverloadController
from repro.service import DiversificationService

from .conftest import THRESHOLDS, make_posts

USER = 100


def build_feed(graph, subscriptions, wal_dir=None, **kwargs):
    engine = make_multiuser("s_unibin", THRESHOLDS, graph, subscriptions)
    service = DiversificationService(engine, overload=kwargs.pop("overload", None))
    durability = (
        DurabilityConfig(wal_dir=wal_dir, fsync="never", snapshot_every=100_000)
        if wal_dir is not None
        else None
    )
    return FeedService(
        service,
        mailboxes=kwargs.pop("mailboxes", MailboxConfig(capacity=64, window=600.0)),
        expire_every=1000,
        durability=durability,
        **kwargs,
    )


class TestCursorStabilityAcrossRestart:
    def test_pagination_resumes_after_crash_without_dupes_or_gaps(
        self, graph, subscriptions, tmp_path
    ):
        live = build_feed(graph, subscriptions, tmp_path)
        for post in make_posts(60):
            live.ingest(post)
        full = [entry.seq for entry in live.store.read_all(USER)]
        assert full

        # Page 1 before the crash; the client holds the cursor.
        first = live.read(USER, cursor=None, limit=3)
        seen_before = [entry.seq for entry in first.entries]
        cursor = first.next_cursor

        # Crash (no close), recover into a fresh process image.
        recovered = build_feed(graph, subscriptions, tmp_path)
        recovered.recover(snapshot_after=False)

        collected = list(seen_before)
        while cursor is not None:
            page = recovered.read(USER, cursor=cursor, limit=3)
            collected.extend(entry.seq for entry in page.entries)
            cursor = page.next_cursor
        assert collected == full  # no duplicates, no gaps, same order

    def test_impressions_stay_filtered_after_restart(
        self, graph, subscriptions, tmp_path
    ):
        live = build_feed(graph, subscriptions, tmp_path)
        for post in make_posts(60):
            live.ingest(post)
        first = live.read(USER, cursor=None, limit=5)
        rendered = [entry.seq for entry in first.entries]
        live.record_impressions(USER, rendered)

        recovered = build_feed(graph, subscriptions, tmp_path)
        recovered.recover(snapshot_after=False)
        refresh = recovered.read(USER, cursor=None, limit=500)
        served = {entry.seq for entry in refresh.entries}
        assert served.isdisjoint(rendered), "recovery re-served impressions"
        assert refresh.filtered >= len(rendered)

    def test_reader_paginating_mid_recovery_is_consistent(
        self, graph, subscriptions, tmp_path
    ):
        """Reads run concurrently with the WAL replay (and the capacity
        evictions it triggers): every page a reader sees is internally
        consistent — strictly descending seqs, no duplicates."""
        live = build_feed(
            graph,
            subscriptions,
            tmp_path,
            mailboxes=MailboxConfig(capacity=16, window=600.0),
        )
        for post in make_posts(200):  # capacity 16: replay evicts constantly
            live.ingest(post)
        expected = [entry.seq for entry in live.store.read_all(USER)]

        recovered = build_feed(
            graph,
            subscriptions,
            tmp_path,
            mailboxes=MailboxConfig(capacity=16, window=600.0),
        )
        failures: list[str] = []
        done = threading.Event()

        def reader():
            while not done.is_set():
                page = recovered.read(USER, cursor=None, limit=10)
                seqs = [entry.seq for entry in page.entries]
                if seqs != sorted(seqs, reverse=True):
                    failures.append(f"page not descending: {seqs}")
                if len(set(seqs)) != len(seqs):
                    failures.append(f"duplicates in page: {seqs}")

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for thread in threads:
            thread.start()
        try:
            recovered.recover(snapshot_after=False)
        finally:
            done.set()
            for thread in threads:
                thread.join(timeout=30)
        assert failures == []
        assert [entry.seq for entry in recovered.store.read_all(USER)] == expected


class TestCountersAcrossRestart:
    def test_reading_empty_feeds_changes_no_mailbox_stats(
        self, graph, subscriptions, tmp_path
    ):
        live = build_feed(graph, subscriptions, tmp_path)
        for post in make_posts(3):
            live.ingest(post)
        empty = [u for u in sorted(live.store.users) if not live.store.depth_of(u)]
        assert empty
        for user in empty:
            assert live.read(user).entries == ()
        before = live.stats()["mailboxes"]

        recovered = build_feed(graph, subscriptions, tmp_path)
        recovered.recover(snapshot_after=False)
        assert recovered.stats()["mailboxes"] == before

    def test_answered_retry_after_the_last_snapshot_survives_a_crash(
        self, graph, subscriptions, tmp_path
    ):
        live = build_feed(graph, subscriptions, tmp_path)
        posts = make_posts(20)
        for i, post in enumerate(posts):
            live.ingest(post, idempotency_key=f"k{i}")
        live.flush()  # the last snapshot, before the retries
        for i in (3, 7, 7):
            receivers, deduped = live.ingest_detailed(
                posts[i], idempotency_key=f"k{i}"
            )
            assert deduped
        before = live.stats()["posts"]
        assert before["deduped"] == 3

        recovered = build_feed(graph, subscriptions, tmp_path)
        recovered.recover(snapshot_after=False)
        assert recovered.stats()["posts"] == before
        assert recovered.durable.dedup_hits == live.durable.dedup_hits


class TestStaleDegradedReads:
    def test_reads_are_stale_and_health_degraded_during_replay(
        self, graph, subscriptions, tmp_path, monkeypatch
    ):
        live = build_feed(graph, subscriptions, tmp_path)
        for post in make_posts(40):
            live.ingest(post)

        recovered = build_feed(graph, subscriptions, tmp_path)
        observed: list[tuple[bool, str]] = []
        original = DurableFeedLog._replay_record

        def spying(self, feed, record, *, source):
            if len(observed) == 20:  # one probe mid-replay
                report = feed.degradation_report()
                observed.append((feed.stale, report["status"]))
            else:
                observed.append((feed.stale, ""))
            return original(self, feed, record, source=source)

        monkeypatch.setattr(DurableFeedLog, "_replay_record", spying)
        recovered.recover(snapshot_after=False)
        assert all(stale for stale, _ in observed)
        assert ("degraded" in [status for _, status in observed])
        # Recovery done: fresh reads are authoritative again.
        assert recovered.stale is False
        assert recovered.degradation_report()["status"] == "ok"

    def test_http_feed_page_carries_stale_flag(self, graph, subscriptions):
        feed = build_feed(graph, subscriptions)
        for post in make_posts(10):
            feed.ingest(post)
        server = feed.serve(port=0)
        try:
            page = json.load(
                urllib.request.urlopen(
                    f"{server.url}/feed?user={USER}&limit=5", timeout=10
                )
            )
            assert page["stale"] is False
            feed.stale = True  # what recovery sets while replaying
            page = json.load(
                urllib.request.urlopen(
                    f"{server.url}/feed?user={USER}&limit=5", timeout=10
                )
            )
            assert page["stale"] is True
        finally:
            feed.stale = False
            server.stop()
            feed.close()


class TestRetryAfterJitter:
    def shed_values(self, graph, subscriptions, seed, count=6):
        feed = build_feed(
            graph,
            subscriptions,
            overload=OverloadController(max_delay=0.05),
            retry_jitter=0.5,
            jitter_seed=seed,
        )
        feed.service.overload.set_memory_pressure(True)
        values = []
        for post in make_posts(count):
            with pytest.raises(FeedOverloadError) as info:
                feed.ingest(post)
            values.append(info.value.retry_after)
        return values

    def test_fixed_seed_is_deterministic(self, graph, subscriptions):
        a = self.shed_values(graph, subscriptions, seed=42)
        b = self.shed_values(graph, subscriptions, seed=42)
        assert a == b

    def test_jitter_spreads_and_seeds_differ(self, graph, subscriptions):
        a = self.shed_values(graph, subscriptions, seed=42)
        b = self.shed_values(graph, subscriptions, seed=7)
        assert a != b
        assert len(set(a)) > 1  # actually spread, not a constant offset
        base = 0.001  # the un-jittered floor for an idle backlog
        for value in a:
            assert base <= value <= base * 1.5 + 1e-9

    def test_zero_jitter_is_exact(self, graph, subscriptions):
        feed = build_feed(
            graph, subscriptions, overload=OverloadController(max_delay=0.05)
        )
        feed.service.overload.set_memory_pressure(True)
        with pytest.raises(FeedOverloadError) as info:
            feed.ingest(make_posts(1)[0])
        assert info.value.retry_after == pytest.approx(0.001)


class TestRequestDeadlines:
    def test_overrunning_handler_answers_504_and_counts(
        self, graph, subscriptions
    ):
        feed = build_feed(graph, subscriptions)
        for post in make_posts(5):
            feed.ingest(post)
        server = feed.serve(port=0, request_deadline=1e-9)
        try:
            with pytest.raises(urllib.error.HTTPError) as info:
                urllib.request.urlopen(
                    f"{server.url}/feed?user={USER}&limit=5", timeout=10
                )
            assert info.value.code == 504
            body = json.load(info.value)
            assert "deadline exceeded" in body["error"]
            assert feed.deadlines_exceeded == 1
        finally:
            server.stop()
            feed.close()

    def test_generous_deadline_is_invisible(self, graph, subscriptions):
        feed = build_feed(graph, subscriptions)
        for post in make_posts(40):
            feed.ingest(post)
        server = feed.serve(port=0, request_deadline=30.0)
        try:
            page = json.load(
                urllib.request.urlopen(
                    f"{server.url}/feed?user={USER}&limit=5", timeout=10
                )
            )
            assert page["entries"]
            assert feed.deadlines_exceeded == 0
        finally:
            server.stop()
            feed.close()

    def test_deadline_metric_exported(self, graph, subscriptions):
        from repro.obs import render_prometheus

        feed = build_feed(graph, subscriptions)
        server = feed.serve(port=0, request_deadline=1e-9)
        try:
            # Every route overruns a 1e-9 budget, /metrics included —
            # scrape the registry directly.
            with pytest.raises(urllib.error.HTTPError) as info:
                urllib.request.urlopen(f"{server.url}/feed/stats", timeout=10)
            assert info.value.code == 504
            text = render_prometheus(feed.registry)
            assert "repro_feed_deadline_exceeded_total 1" in text
        finally:
            server.stop()
            feed.close()
