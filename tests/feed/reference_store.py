"""A deliberately plain mailbox store: the test oracle for the columnar
:class:`~repro.feed.MailboxStore`.

One ``deque`` of :class:`~repro.feed.FeedEntry` per user plus a ``set``
of seen seqs, with the same public surface as the real store. The
contract it pins down:

* a mailbox materializes on its first delivery only — reading or
  impressing an empty feed changes nothing;
* a receiver set is a set (a repeated receiver is delivered once), and a
  fanout naming an unsubscribed user raises before anything changes;
* expiry drops each mailbox's prefix of entries older than the cutoff,
  even when timestamps are not monotone.
"""

from __future__ import annotations

import math
from collections import deque

from repro.errors import ConfigurationError, UnknownUserError
from repro.feed import FeedEntry, FeedPage, MailboxConfig


class Mailbox:
    """One user's bounded feed: entries ascending by seq, plus the seen set."""

    def __init__(self) -> None:
        self.entries: deque[FeedEntry] = deque()
        self.seen: set[int] = set()
        self.evicted_capacity = 0
        self.evicted_expired = 0

    def popleft(self) -> int:
        """Drop the oldest entry; returns how many seen marks went with it."""
        old = self.entries.popleft()
        if old.seq in self.seen:
            self.seen.discard(old.seq)
            return 1
        return 0

    def page(self, cursor, limit: int) -> FeedPage:
        served: list[FeedEntry] = []
        filtered = 0
        scanned_to = None
        for entry in reversed(self.entries):
            if cursor is not None and entry.seq >= cursor:
                continue
            if len(served) >= limit:
                return FeedPage(tuple(served), scanned_to, filtered)
            scanned_to = entry.seq
            if entry.seq in self.seen:
                filtered += 1
            else:
                served.append(entry)
        return FeedPage(tuple(served), None, filtered)

    def state_dict(self) -> dict[str, object]:
        return {
            "entries": [
                [e.seq, e.post_id, e.author, e.timestamp] for e in self.entries
            ],
            "seen": sorted(self.seen),
            "evicted_capacity": self.evicted_capacity,
            "evicted_expired": self.evicted_expired,
        }


class ReferenceStore:
    """The plain-Python twin of :class:`~repro.feed.MailboxStore`."""

    def __init__(self, users, config: MailboxConfig | None = None):
        self.config = config or MailboxConfig()
        self.users = frozenset(users)
        self.boxes: dict[int, Mailbox] = {}
        self.next_seq = 1
        self.deliveries = 0
        self.evicted_capacity = 0
        self.evicted_expired = 0
        self.impressions = 0

    def _check(self, user: int) -> None:
        if user not in self.users:
            raise UnknownUserError(f"user {user} has no mailbox (not subscribed)")

    def fanout(self, post, receivers) -> tuple[int, int]:
        receivers = sorted(set(receivers))
        for user in receivers:
            self._check(user)
        seq = self.next_seq
        self.next_seq += 1
        entry = FeedEntry(seq, post.post_id, post.author, post.timestamp)
        for user in receivers:
            box = self.boxes.setdefault(user, Mailbox())
            box.entries.append(entry)
            if len(box.entries) > self.config.capacity:
                box.popleft()
                box.evicted_capacity += 1
                self.evicted_capacity += 1
        self.deliveries += len(receivers)
        return seq, len(receivers)

    def expire(self, now: float) -> int:
        if math.isinf(self.config.window):
            return 0
        cutoff = now - self.config.window
        dropped = 0
        for box in self.boxes.values():
            while box.entries and box.entries[0].timestamp < cutoff:
                box.popleft()
                box.evicted_expired += 1
                dropped += 1
        self.evicted_expired += dropped
        return dropped

    def read(self, user: int, cursor, limit: int) -> FeedPage:
        if limit < 1:
            raise ConfigurationError(f"limit must be >= 1, got {limit}")
        if cursor is not None and cursor < 1:
            raise ConfigurationError(f"cursor must be >= 1, got {cursor}")
        self._check(user)
        return self.boxes.get(user, Mailbox()).page(cursor, limit)

    def record_impressions(self, user: int, seqs) -> tuple[int, int]:
        self._check(user)
        box = self.boxes.get(user, Mailbox())
        live = {entry.seq for entry in box.entries}
        recorded = ignored = 0
        for seq in seqs:
            if seq not in live:
                ignored += 1
            elif seq not in box.seen:
                box.seen.add(seq)
                recorded += 1
        self.impressions += recorded
        return recorded, ignored

    @property
    def mailbox_count(self) -> int:
        return len(self.boxes)

    @property
    def total_entries(self) -> int:
        return sum(len(box.entries) for box in self.boxes.values())

    @property
    def total_seen(self) -> int:
        return sum(len(box.seen) for box in self.boxes.values())

    def depth_of(self, user: int) -> int:
        box = self.boxes.get(user)
        return len(box.entries) if box is not None else 0

    def snapshot_arrays(self) -> dict[str, object]:
        """This state in :meth:`MailboxStore.snapshot_arrays`' layout, built
        independently of it (the post table spans every seq from the oldest
        live one; seqs no box holds get zeros)."""
        boxes = sorted(self.boxes.items())
        entries = [entry for _, box in boxes for entry in box.entries]
        base = min((entry.seq for entry in entries), default=self.next_seq)
        table = {entry.seq: entry for entry in entries}
        posts = [table.get(seq, FeedEntry(seq, 0, 0, 0.0)) for seq in range(base, self.next_seq)]
        return {
            "user": [user for user, _ in boxes],
            "len": [len(box.entries) for _, box in boxes],
            "box_capacity": [box.evicted_capacity for _, box in boxes],
            "box_expired": [box.evicted_expired for _, box in boxes],
            "seqs": [entry.seq for entry in entries],
            "seen": [entry.seq in box.seen for _, box in boxes for entry in box.entries],
            "next_seq": self.next_seq,
            "post_base": base,
            "post_id": [post.post_id for post in posts],
            "author": [post.author for post in posts],
            "timestamp": [post.timestamp for post in posts],
            "deliveries": self.deliveries,
            "evicted_capacity": self.evicted_capacity,
            "evicted_expired": self.evicted_expired,
            "impressions": self.impressions,
        }

    def state_dict(self) -> dict[str, object]:
        return {
            "next_seq": self.next_seq,
            "boxes": {
                str(user): box.state_dict() for user, box in sorted(self.boxes.items())
            },
            "deliveries": self.deliveries,
            "evicted_capacity": self.evicted_capacity,
            "evicted_expired": self.evicted_expired,
            "impressions": self.impressions,
        }
