"""Per-user mailboxes: the materialized feeds behind fanout-on-write.

Every accepted post gets one store-global seq and lands in each
receiver's mailbox (at most ``capacity`` entries, none older than
``window`` in stream time), so ``GET /feed`` is a pure mailbox scan. A
cursor means "entries with seq below N": seqs only grow, so pagination
is stable under concurrent writes. Impressed entries are skipped.

The store is columnar, so fanout, eviction, expiry and snapshots are
numpy operations, not per-delivery Python objects: a post table indexed
by seq (timestamps plus one shared :class:`FeedEntry` per post), one row
per materialized mailbox (head, tail, length, eviction counters) and one
slot per delivery (seq, row, links to the row's older and newer entry,
seen bit). Dead slots are compacted away once they reach the live count,
leaving the live ones grouped by row in seq order (CSR).
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass
from threading import RLock

import numpy as np

from ..core.post import Post
from ..errors import ConfigurationError, UnknownUserError
from ..storage.accounting import estimate_mailbox_bytes

#: Snapshot keys of the per-row columns (the attribute is ``_`` + key).
_ROW_KEYS = ("user", "len", "box_capacity", "box_expired")
_ROW_COLUMNS = tuple(f"_{key}" for key in _ROW_KEYS) + ("_head", "_tail")
_SLOT_COLUMNS = ("_slot_seq", "_slot_row", "_next", "_prev", "_seen")
_COUNTERS = ("deliveries", "evicted_capacity", "evicted_expired", "impressions")


@dataclass(frozen=True, slots=True)
class FeedEntry:
    """One delivered post in a mailbox (a stub, not the post payload)."""

    seq: int
    post_id: int
    author: int
    timestamp: float

    def to_dict(self) -> dict[str, object]:
        return {name: getattr(self, name) for name in self.__slots__}


@dataclass(frozen=True)
class MailboxConfig:
    """Bounds for every mailbox in a store: at most ``capacity`` entries
    (oldest evicted past it), each servable for ``window`` stream-time
    seconds (``inf`` disables expiry; capacity still bounds memory)."""

    capacity: int = 1024
    window: float = math.inf

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ConfigurationError(f"mailbox capacity must be >= 1, got {self.capacity}")
        if not self.window > 0:
            raise ConfigurationError(f"mailbox window must be > 0 (or inf), got {self.window}")


@dataclass(frozen=True, slots=True)
class FeedPage:
    """One page of a mailbox read."""

    entries: tuple[FeedEntry, ...]
    next_cursor: int | None
    filtered: int

    def to_dict(self) -> dict[str, object]:
        entries = [entry.to_dict() for entry in self.entries]
        return {"entries": entries, "next_cursor": self.next_cursor, "filtered": self.filtered}


def _column(values, size: int, dtype=np.int64) -> np.ndarray:
    out = np.empty(size, dtype)
    out[: len(values)] = values
    return out


class MailboxStore:
    """All mailboxes of a deployment, behind one reentrant lock. A mailbox
    materializes on its first delivery (reading or impressing an empty feed
    changes nothing); counts are incremental, so :meth:`approx_bytes` is O(1).
    """

    def __init__(self, users: Iterable[int], config: MailboxConfig | None = None):
        self.config = config or MailboxConfig()
        self._users = frozenset(users)
        if not self._users:
            raise ConfigurationError("a MailboxStore needs at least one user")
        self._ids = np.array(sorted(self._users), dtype=np.int64)
        # Ids spanning <= 4x their count: an offset table beats searchsorted.
        span, self._dense = int(self._ids[-1] - self._ids[0]) + 1, None
        if span <= 4 * len(self._ids):
            self._dense = np.full(span, -1, np.int64)
            self._dense[self._ids - self._ids[0]] = np.arange(len(self._ids))
        self._row_of = np.full(len(self._ids), -1, np.int64)  # position -> row
        self.mailbox_count = 0  # materialized rows
        self._user = np.empty(0, np.int64)
        self._lock = RLock()
        self.load_arrays({})

    @property
    def users(self) -> frozenset[int]:
        return self._users

    def __contains__(self, user: int) -> bool:
        return user in self._users

    def _positions(self, users: np.ndarray) -> np.ndarray:
        """Each user's index in the sorted ids; unknown users raise first."""
        if self._dense is not None:  # a gap maps to -1, whose id differs too
            offset = np.maximum(users - self._ids[0], 0)
            pos = self._dense[np.minimum(offset, len(self._dense) - 1)]
        else:
            pos = np.minimum(np.searchsorted(self._ids, users), len(self._ids) - 1)
        unknown = self._ids[pos] != users
        if unknown.any():
            user = int(users[unknown.argmax()])
            raise UnknownUserError(f"user {user} has no mailbox (not subscribed)")
        return pos

    def _row(self, user: int) -> int:
        """``user``'s row, or -1 while their mailbox is unmaterialized."""
        if user not in self._users:
            raise UnknownUserError(f"user {user} has no mailbox (not subscribed)")
        return int(self._row_of[self._ids.searchsorted(user)])

    def _reserve(self, columns, size: int) -> None:
        if size > len(getattr(self, columns[0])):
            for name in columns:
                array = getattr(self, name)
                setattr(self, name, _column(array, 2 * size, array.dtype))

    def _pop(self, rows: np.ndarray) -> None:
        """Unlink the oldest entry of each (distinct, non-empty) row."""
        old = self._head[rows]
        nxt = self._next[old]
        self._head[rows] = nxt
        self._prev[nxt[nxt >= 0]] = -1
        self._tail[rows[nxt < 0]] = -1
        self._len[rows] -= 1
        self._slot_row[old] = -1
        self._dead += len(old)
        self.total_entries -= len(old)
        self.total_seen -= int(np.count_nonzero(self._seen[old]))
        # Compact once dead slots reach the live ones (or the row count,
        # so a compaction, O(live + rows), stays amortized O(1) per pop).
        if self._dead and self._dead >= max(self.total_entries, self.mailbox_count):
            self.load_arrays(self.snapshot_arrays())

    # -- write path --------------------------------------------------------

    def peek_next_seq(self) -> int:
        """The seq the next :meth:`fanout` assigns (WAL'd before it applies)."""
        with self._lock:
            return self._next_seq

    def fanout(self, post: Post, receivers: Iterable[int]) -> tuple[int, int]:
        """Deliver ``post`` under one new seq to each distinct receiver;
        returns ``(seq, deliveries)``."""
        users = np.fromiter(receivers, np.int64)
        users = np.sort(users) if isinstance(receivers, (set, frozenset)) else np.unique(users)
        with self._lock:
            pos = self._positions(users)
            rows, k = self._row_of[pos], len(users)
            fresh = rows < 0
            if fresh.any():  # first deliveries materialize rows
                new = np.arange(self.mailbox_count, self.mailbox_count + fresh.sum())
                self._reserve(_ROW_COLUMNS, new[-1] + 1)
                self._user[new] = self._ids[pos[fresh]]
                self._head[new] = self._tail[new] = -1
                self._len[new] = self._box_capacity[new] = self._box_expired[new] = 0
                self._row_of[pos[fresh]] = rows[fresh] = new
                self.mailbox_count += len(new)
            seq, start = self._next_seq, self._used
            self._next_seq += 1
            self._reserve(("_timestamp",), seq - self._base + 1)
            self._timestamp[seq - self._base] = post.timestamp
            self._stubs.append(FeedEntry(seq, post.post_id, post.author, post.timestamp))
            self._reserve(_SLOT_COLUMNS, start + k)
            self._used += k
            tail, new = self._tail[rows], slice(start, start + k)
            self._slot_seq[new], self._slot_row[new] = seq, rows
            self._seen[new], self._next[new], self._prev[new] = False, -1, tail
            slots, linked = np.arange(start, start + k), tail >= 0
            self._next[tail[linked]] = slots[linked]
            self._head[rows[~linked]] = slots[~linked]
            self._tail[rows] = slots
            lengths = self._len[rows] + 1
            self._len[rows] = lengths
            self.total_entries += k
            self.deliveries += k
            full = rows[lengths > self.config.capacity]
            if len(full):
                self._box_capacity[full] += 1
                self.evicted_capacity += len(full)
                self._pop(full)
            return seq, k

    def expire(self, now: float) -> int:
        """Drop each mailbox's prefix of entries older than ``now -
        window`` (stream time); returns how many were dropped."""
        if math.isinf(self.config.window):
            return 0
        with self._lock:
            cutoff = now - self.config.window
            rows = np.flatnonzero(self._len[: self.mailbox_count] > 0)
            dropped = 0
            while len(rows):
                oldest = self._slot_seq[self._head[rows]] - self._base
                rows = rows[self._timestamp[oldest] < cutoff]
                self._box_expired[rows] += 1
                dropped += len(rows)
                self._pop(rows)  # may compact: row ids stay, slots move
                rows = rows[self._len[rows] > 0]
            self.evicted_expired += dropped
            return dropped

    # -- read path ---------------------------------------------------------

    def _newest(self, user: int):
        """``user``'s newest slot (-1 if none) and memoryviews of links and
        seqs: walking them yields Python ints, far cheaper than numpy's."""
        row = self._row(user)
        slot = int(self._tail[row]) if row >= 0 else -1
        return slot, memoryview(self._prev), memoryview(self._slot_seq)

    def read(self, user: int, cursor: int | None, limit: int) -> FeedPage:
        """Up to ``limit`` unseen entries of ``user``'s feed, newest first,
        below ``cursor``. ``next_cursor`` is the last seq *scanned* (served
        or filtered): pass it back to continue; ``None`` means exhausted."""
        if limit < 1:
            raise ConfigurationError(f"limit must be >= 1, got {limit}")
        if cursor is not None and cursor < 1:
            raise ConfigurationError(f"cursor must be >= 1, got {cursor}")
        with self._lock:
            slot, prev, seqs = self._newest(user)
            while cursor is not None and slot >= 0 and seqs[slot] >= cursor:
                slot = prev[slot]
            seen, served, filtered, scanned_to = memoryview(self._seen), [], 0, None
            while slot >= 0:
                if len(served) >= limit:
                    return FeedPage(tuple(served), scanned_to, filtered)
                scanned_to = seqs[slot]
                if seen[slot]:
                    filtered += 1
                else:
                    served.append(self._stubs[scanned_to - self._base])
                slot = prev[slot]
            return FeedPage(tuple(served), None, filtered)

    def read_all(self, user: int, *, page_size: int = 64) -> list[FeedEntry]:
        """Page through ``user``'s whole feed (test/differential helper)."""
        entries, page = [], self.read(user, None, page_size)
        while True:
            entries.extend(page.entries)
            if page.next_cursor is None:
                return entries
            page = self.read(user, page.next_cursor, page_size)

    def record_impressions(self, user: int, seqs: Iterable[int]) -> tuple[int, int]:
        """Mark ``seqs`` seen for ``user``; returns ``(recorded, ignored)``.
        Seqs not live in the mailbox (evicted, never delivered) are ignored."""
        seqs = list(seqs)
        with self._lock:
            slot, prev, live_seqs = self._newest(user)
            low = min(seqs, default=math.inf)
            live: dict[int, int] = {}  # seq -> slot, newest down to min(seqs)
            while slot >= 0 and live_seqs[slot] >= low:
                live[live_seqs[slot]] = slot
                slot = prev[slot]
            recorded = ignored = 0
            for seq in seqs:
                slot = live.get(seq, -1)
                if slot < 0:
                    ignored += 1
                elif not self._seen[slot]:
                    self._seen[slot] = True
                    recorded += 1
            self.total_seen += recorded
            self.impressions += recorded
            return recorded, ignored

    # -- accounting --------------------------------------------------------

    @property
    def post_rows(self) -> int:
        """Post-table rows: every seq from the table's trimmed front on."""
        return len(self._stubs)

    def approx_bytes(self) -> int:
        """Accounted bytes for the governor's ``mailbox`` family."""
        counts = (self.mailbox_count, self.total_entries, self.total_seen)
        return estimate_mailbox_bytes(*counts, self.post_rows)

    @property
    def nbytes(self) -> int:
        """Bytes of the row, slot and timestamp arrays (not the user index
        or the entry stubs)."""
        columns = _ROW_COLUMNS + _SLOT_COLUMNS + ("_timestamp",)
        return sum(getattr(self, name).nbytes for name in columns)

    def depth_of(self, user: int) -> int:
        with self._lock:
            row = self._row(user) if user in self._users else -1
            return int(self._len[row]) if row >= 0 else 0

    # -- persistence -------------------------------------------------------

    def snapshot_arrays(self) -> dict[str, object]:
        """The store as flat arrays in CSR order (a feed snapshot's mailbox
        section): per row its user, length and eviction counters; seqs and
        seen flags row after row; the post table from the oldest live seq."""
        with self._lock:
            live = np.flatnonzero(self._slot_row[: self._used] >= 0)
            # A row's slots are allocated in seq order: sort by (row, slot).
            order = live[np.argsort(self._slot_row[live] * max(self._used, 1) + live)]
            seqs, end = self._slot_seq[order], self._next_seq - self._base
            start = int(seqs.min()) - self._base if len(seqs) else end
            stubs, n = self._stubs[start:], self.mailbox_count
            return {
                **{key: getattr(self, f"_{key}")[:n].copy() for key in _ROW_KEYS},
                **{key: getattr(self, key) for key in _COUNTERS},
                "seqs": seqs, "seen": self._seen[order], "next_seq": self._next_seq,
                "post_base": self._base + start,
                "post_id": np.array([entry.post_id for entry in stubs], np.int64),
                "author": np.array([entry.author for entry in stubs], np.int64),
                "timestamp": self._timestamp[start:end].copy(),
            }

    def load_arrays(self, state: dict[str, object]) -> None:
        """Replace all contents with ``state`` (from :meth:`snapshot_arrays`;
        ``{}`` empties the store); a user outside the deployment raises."""
        empty = np.empty(0, np.int64)
        users = np.asarray(state.get("user", empty), np.int64)
        pos = self._positions(users)
        n, rows = len(users), np.repeat(np.arange(len(users)), state.get("len", empty))
        m, size = len(rows), 2 * len(rows)
        first, last = np.diff(rows, prepend=-1) != 0, np.diff(rows, append=-1) != 0
        with self._lock:
            self._row_of[self._positions(self._user[: self.mailbox_count])] = -1
            self._row_of[pos] = np.arange(n)
            for key in _ROW_KEYS:
                setattr(self, f"_{key}", _column(state.get(key, empty), 2 * n))
            self._head, self._tail = np.full(2 * n, -1), np.full(2 * n, -1)
            self._head[rows[first]] = np.flatnonzero(first)
            self._tail[rows[last]] = np.flatnonzero(last)
            self._slot_seq = _column(state.get("seqs", empty), size)
            self._slot_row = _column(rows, size)
            self._seen = _column(state.get("seen", empty), size, bool)
            self._next = _column(np.where(last, -1, np.arange(1, m + 1)), size)
            self._prev = _column(np.where(first, -1, np.arange(-1, m - 1)), size)
            self.mailbox_count, self._used, self._dead = n, m, 0
            self.total_entries, self.total_seen = m, int(np.count_nonzero(self._seen[:m]))
            self._base = int(state.get("post_base", 1))
            self._next_seq = int(state.get("next_seq", 1))
            times = np.asarray(state.get("timestamp", empty), np.float64)
            self._timestamp = _column(times, 2 * len(times), np.float64)
            ids, authors = (np.asarray(state.get(k, empty)).tolist() for k in ("post_id", "author"))
            seqs = range(self._base, self._next_seq)
            self._stubs = list(map(FeedEntry, seqs, ids, authors, times.tolist()))
            for key in _COUNTERS:
                setattr(self, key, int(state.get(key, 0)))

    def state_dict(self) -> dict[str, object]:
        """JSON-able view of the store, next seq included: what tests and
        differential harnesses compare (snapshots use :meth:`snapshot_arrays`)."""
        with self._lock:
            arrays = self.snapshot_arrays()
            stubs = self._stubs[arrays["post_base"] - self._base :]
        posts = [(e.post_id, e.author, e.timestamp) for e in stubs]
        seqs, seen = arrays["seqs"].tolist(), arrays["seen"].tolist()
        boxes, end, base = {}, 0, arrays["post_base"]
        for user, n, capacity, expired in zip(*(arrays[key].tolist() for key in _ROW_KEYS)):
            span, end = range(end, end + n), end + n
            boxes[user] = {"entries": [[seqs[j], *posts[seqs[j] - base]] for j in span],
                           "seen": [seqs[j] for j in span if seen[j]],
                           "evicted_capacity": capacity, "evicted_expired": expired}
        boxes = {str(user): boxes[user] for user in sorted(boxes)}
        counters = {key: arrays[key] for key in _COUNTERS}
        return {"next_seq": arrays["next_seq"], "boxes": boxes, **counters}
