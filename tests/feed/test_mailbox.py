"""Mailbox semantics: bounding, cursor pagination, the impression filter,
and the store's incremental accounting."""

from __future__ import annotations

import math
import random

import pytest

from repro.core import Post
from repro.errors import ConfigurationError, UnknownUserError
from repro.feed import MailboxConfig, MailboxStore
from repro.storage.accounting import estimate_mailbox_bytes

USER = 100


def make_post(i: int, ts: float | None = None, author: int = 1) -> Post:
    return Post(
        post_id=i, author=author, text=f"p{i}", timestamp=float(i if ts is None else ts), fingerprint=i
    )


def filled(n: int, capacity: int = 100, window: float = math.inf) -> MailboxStore:
    """A one-user store whose mailbox got posts 1..n (seq i, timestamp i)."""
    store = MailboxStore([USER], MailboxConfig(capacity=capacity, window=window))
    for seq in range(1, n + 1):
        store.fanout(make_post(seq), [USER])
    return store


def seqs(store: MailboxStore) -> list[int]:
    """The mailbox's live seqs, oldest first."""
    return [entry[0] for entry in box(store)["entries"]]


def box(store: MailboxStore) -> dict:
    return store.state_dict()["boxes"][str(USER)]


class TestConfig:
    def test_rejects_bad_capacity(self):
        with pytest.raises(ConfigurationError):
            MailboxConfig(capacity=0)

    def test_rejects_bad_window(self):
        with pytest.raises(ConfigurationError):
            MailboxConfig(window=0.0)
        with pytest.raises(ConfigurationError):
            MailboxConfig(window=float("nan"))

    def test_defaults_are_unbounded_in_time(self):
        config = MailboxConfig()
        assert config.capacity == 1024
        assert math.isinf(config.window)


class TestBounding:
    def test_capacity_evicts_oldest(self):
        store = filled(7, capacity=5)
        assert seqs(store) == [3, 4, 5, 6, 7]
        assert box(store)["evicted_capacity"] == 2

    def test_capacity_eviction_prunes_seen(self):
        store = filled(5, capacity=5)
        store.record_impressions(USER, [1, 2])
        store.fanout(make_post(6), [USER])
        store.fanout(make_post(7), [USER])
        assert box(store)["seen"] == []  # 1 and 2 fell off the left
        assert store.total_seen == 0

    def test_window_expiry_drops_stale_prefix(self):
        store = filled(10, window=4.0)
        evicted = store.expire(now=10.0)
        assert evicted == 5  # timestamps 1..5 < 10 - 4
        assert seqs(store) == [6, 7, 8, 9, 10]
        assert box(store)["evicted_expired"] == 5


class TestPagination:
    def test_first_page_is_newest_first(self):
        page = filled(10).read(USER, cursor=None, limit=3)
        assert [e.seq for e in page.entries] == [10, 9, 8]
        assert page.next_cursor == 8

    def test_cursor_continues_without_overlap_or_gap(self):
        store = filled(10)
        seen: list[int] = []
        cursor = None
        while True:
            page = store.read(USER, cursor, 3)
            seen.extend(e.seq for e in page.entries)
            if page.next_cursor is None:
                break
            cursor = page.next_cursor
        assert seen == list(range(10, 0, -1))

    def test_exhausted_page_has_no_cursor(self):
        page = filled(2).read(USER, cursor=None, limit=10)
        assert page.next_cursor is None

    def test_cursor_is_stable_under_concurrent_appends(self):
        # New deliveries only prepend (higher seqs): a reader mid-paginate
        # sees exactly the snapshot below their cursor.
        store = filled(6)
        first = store.read(USER, None, 3)
        for seq in range(7, 12):
            store.fanout(make_post(seq), [USER])
        rest = store.read(USER, first.next_cursor, 100)
        assert [e.seq for e in first.entries] == [6, 5, 4]
        assert [e.seq for e in rest.entries] == [3, 2, 1]

    def test_filtered_entries_still_advance_the_cursor(self):
        store = filled(6)
        store.record_impressions(USER, [5, 4])
        page = store.read(USER, None, 2)
        assert [e.seq for e in page.entries] == [6, 3]
        assert page.filtered == 2
        assert page.next_cursor == 3


class TestImpressions:
    def test_recorded_entries_never_reserve(self):
        store = filled(5)
        first = store.read(USER, None, 5)
        store.record_impressions(USER, [e.seq for e in first.entries])
        refresh = store.read(USER, None, 5)
        assert refresh.entries == ()
        assert refresh.filtered == 5

    def test_unknown_and_evicted_seqs_are_ignored(self):
        store = filled(4, capacity=3)  # seq 1 evicted
        recorded, ignored = store.record_impressions(USER, [1, 3, 99])
        assert (recorded, ignored) == (1, 2)

    def test_duplicate_impressions_count_once(self):
        store = filled(3)
        assert store.record_impressions(USER, [2, 2, 2]) == (1, 0)


class TestStore:
    def make_store(self, **kwargs) -> MailboxStore:
        return MailboxStore([100, 200, 300], MailboxConfig(**kwargs))

    def test_fanout_delivers_one_seq_to_all_receivers(self):
        store = self.make_store()
        seq, delivered = store.fanout(make_post(1), [100, 300])
        assert delivered == 2
        assert [e.seq for e in store.read_all(100)] == [seq]
        assert [e.seq for e in store.read_all(300)] == [seq]
        assert store.read_all(200) == []

    def test_mailboxes_materialize_lazily(self):
        store = self.make_store()
        assert store.mailbox_count == 0
        store.fanout(make_post(1), [100])
        assert store.mailbox_count == 1

    def test_reads_and_impressions_materialize_nothing(self):
        store = self.make_store()
        store.fanout(make_post(1), [100])
        before = store.state_dict()
        assert store.read(200, None, 10).entries == ()
        assert store.record_impressions(300, [1]) == (0, 1)
        assert store.mailbox_count == 1
        assert store.state_dict() == before

    def test_unknown_user_raises(self):
        store = self.make_store()
        with pytest.raises(UnknownUserError):
            store.read(999, None, 10)
        with pytest.raises(UnknownUserError):
            store.record_impressions(999, [1])
        with pytest.raises(UnknownUserError):
            store.fanout(make_post(1), [999])

    def test_read_validates_cursor_and_limit(self):
        store = self.make_store()
        with pytest.raises(ConfigurationError):
            store.read(100, None, 0)
        with pytest.raises(ConfigurationError):
            store.read(100, 0, 10)

    def test_empty_user_set_is_rejected(self):
        with pytest.raises(ConfigurationError):
            MailboxStore([])

    def test_expire_runs_on_stream_time(self):
        store = self.make_store(window=4.0)
        for i in range(1, 11):
            store.fanout(make_post(i), [100, 200])
        dropped = store.expire(now=10.0)
        assert dropped == 10  # 5 stale entries in each of two mailboxes
        assert store.evicted_expired == 10

    def test_incremental_accounting_matches_recount(self):
        store = self.make_store(capacity=6, window=5.0)
        for i in range(1, 21):
            store.fanout(make_post(i), [100, 200] if i % 2 else [100, 300])
        store.record_impressions(100, [e.seq for e in store.read(100, None, 3).entries])
        store.expire(now=17.0)
        boxes = store.state_dict()["boxes"].values()
        assert store.total_entries == sum(len(b["entries"]) for b in boxes)
        assert store.total_seen == sum(len(b["seen"]) for b in boxes)
        assert store.approx_bytes() == estimate_mailbox_bytes(
            store.mailbox_count, store.total_entries, store.total_seen, store.post_rows
        )

    def test_approx_bytes_shrinks_after_expiry(self):
        store = self.make_store(window=3.0)
        for i in range(1, 11):
            store.fanout(make_post(i), [100])
        before = store.approx_bytes()
        store.expire(now=10.0)
        assert store.approx_bytes() < before

    def test_approx_bytes_covers_the_arrays_after_heavy_churn(self):
        users = list(range(1, 401))
        store = MailboxStore(users, MailboxConfig(capacity=8, window=30.0))
        rng = random.Random(5)
        worst = 0.0
        for i in range(1, 3001):
            store.fanout(make_post(i), rng.sample(users, rng.randrange(0, 120)))
            if i % 97 == 0:
                store.expire(now=float(i))
            if i % 13 == 0:
                user = rng.choice(users)
                page = store.read(user, None, 4)
                store.record_impressions(user, [e.seq for e in page.entries])
            assert store.approx_bytes() >= store.nbytes
            worst = max(worst, store.nbytes / store.approx_bytes())
        assert worst > 0.25  # the estimate is an upper bound, not a guess
