"""FeedService: the write path's fanout, backpressure and accounting."""

from __future__ import annotations

import pytest

from repro.core import Thresholds, make_diversifier
from repro.errors import ConfigurationError, FeedOverloadError
from repro.feed import FeedService, MailboxConfig
from repro.multiuser import make_multiuser
from repro.obs import Registry, snapshot
from repro.resilience import GovernorConfig, MemoryGovernor, OverloadController
from repro.service import DiversificationService

from .conftest import THRESHOLDS, make_posts


def make_feed(service, **kwargs) -> FeedService:
    return FeedService(service, mailboxes=MailboxConfig(**kwargs))


class TestConstruction:
    def test_rejects_single_user_engines(self, graph):
        single = DiversificationService(
            make_diversifier("unibin", THRESHOLDS, graph)
        )
        with pytest.raises(ConfigurationError, match="multi-user"):
            FeedService(single)

    def test_users_default_to_the_subscription_table(self, service, subscriptions):
        feed = make_feed(service)
        assert feed.store.users == frozenset(subscriptions.users)


class TestWritePath:
    def test_ingest_fans_out_to_the_engine_receiver_set(self, service, posts):
        feed = make_feed(service)
        delivered: dict[int, list[int]] = {}
        for post in posts:
            for user in feed.ingest(post):
                delivered.setdefault(user, []).append(post.post_id)
        assert delivered  # the world actually routes posts
        for user, post_ids in delivered.items():
            assert [e.post_id for e in reversed(feed.store.read_all(user))] == post_ids

    def test_replay_summary_balances(self, service, posts):
        feed = make_feed(service)
        summary = feed.replay(posts)
        assert summary["accepted"] == len(posts)
        assert summary["shed"] == 0
        assert summary["deliveries"] == feed.store.deliveries > 0
        assert feed.posts_received == feed.posts_processed + feed.posts_shed

    def test_expiry_cadence_follows_stream_time(self, graph, subscriptions, posts):
        engine = make_multiuser("s_unibin", THRESHOLDS, graph, subscriptions)
        feed = FeedService(
            DiversificationService(engine),
            mailboxes=MailboxConfig(window=30.0),
            expire_every=16,
        )
        feed.replay(posts)
        assert feed.store.evicted_expired > 0
        newest = max(p.timestamp for p in posts)
        # Expiry lags by at most one cadence (16 posts, each advancing
        # stream time < 2s), never serves the deep past: everything left
        # is within window + one cadence of slack.
        slack = 30.0 + 16 * 2.0
        for user in feed.store.users:
            for entry in feed.store.read_all(user):
                assert entry.timestamp >= newest - slack


class TestBackpressure:
    def make_overloaded(self, graph, subscriptions):
        controller = OverloadController(max_delay=0.05)
        engine = make_multiuser("s_unibin", THRESHOLDS, graph, subscriptions)
        service = DiversificationService(engine, overload=controller)
        return make_feed(service), controller

    def test_forced_shedding_raises_with_retry_after(self, graph, subscriptions, posts):
        feed, controller = self.make_overloaded(graph, subscriptions)
        controller.set_memory_pressure(True)
        with pytest.raises(FeedOverloadError) as excinfo:
            feed.ingest(posts[0])
        assert excinfo.value.retry_after > 0
        assert feed.posts_shed == 1

    def test_accounting_stays_exactly_balanced_under_shedding(
        self, graph, subscriptions, posts
    ):
        feed, controller = self.make_overloaded(graph, subscriptions)
        accepted = 0
        for i, post in enumerate(posts):
            if i == 20:
                controller.set_memory_pressure(True)
            if i == 60:
                controller.set_memory_pressure(False)
            try:
                feed.ingest(post)
                accepted += 1
            except FeedOverloadError:
                pass
        assert feed.posts_shed == 40
        assert feed.posts_processed == accepted == len(posts) - 40
        assert feed.posts_received == feed.posts_processed + feed.posts_shed
        assert controller.counters.processed == feed.posts_processed
        assert controller.counters.shed_dropped == feed.posts_shed

    def test_shed_posts_never_reach_mailboxes(self, graph, subscriptions, posts):
        feed, controller = self.make_overloaded(graph, subscriptions)
        controller.set_memory_pressure(True)
        for post in posts[:10]:
            with pytest.raises(FeedOverloadError):
                feed.ingest(post)
        assert feed.store.deliveries == 0
        assert feed.store.total_entries == 0


class TestGovernorIntegration:
    def test_mailbox_bytes_join_the_governed_budget(self, graph, subscriptions, posts):
        engine = make_multiuser("s_unibin", THRESHOLDS, graph, subscriptions)
        governor = MemoryGovernor(
            engine, GovernorConfig(budget_bytes=50_000_000, check_every=16)
        )
        service = DiversificationService(engine, governor=governor)
        feed = make_feed(service)
        feed.bind_metrics()
        feed.replay(posts)
        governor.observe(16)  # force a tick so last_usage is current
        usage = governor.last_usage
        assert usage.get("mailbox", 0) == feed.store.approx_bytes() > 0


class TestMetrics:
    def test_feed_families_are_scrapable_and_exact(self, service, posts):
        service.bind_metrics(Registry())
        feed = make_feed(service)
        feed.replay(posts)
        user = sorted(feed.store.users)[0]
        page = feed.read(user, None, 5)
        feed.record_impressions(user, [e.seq for e in page.entries])
        feed.read(user, None, 5)
        snap = {m["name"]: m for m in snapshot(service.registry)["metrics"]}
        series = {
            name: {
                tuple(sorted(s["labels"].items())): s.get("value", s.get("count"))
                for s in snap[name]["samples"]
            }
            for name in snap
            if name.startswith("repro_feed")
        }
        assert series["repro_feed_posts_total"][(("status", "accepted"),)] == len(posts)
        assert series["repro_feed_posts_total"][(("status", "shed"),)] == 0
        assert series["repro_feed_deliveries_total"][()] == feed.store.deliveries
        assert series["repro_feed_reads_total"][()] == 2
        assert series["repro_feed_entries_filtered_total"][()] == feed.entries_filtered > 0
        assert series["repro_feed_mailbox_bytes"][()] == feed.store.approx_bytes()
