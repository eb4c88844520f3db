"""Reference model the benchmark checks ``repro``'s outputs against.

Written from the definitions, not from the program, and importing nothing
from ``repro``:

* **Coverage (paper Definition 1).** Post q covers post p iff their
  fingerprints are at most λc bits apart, their timestamps at most λt
  seconds apart (on the exact values of the two floats, see
  :func:`further_apart`), and their authors are the same or adjacent in
  the author graph.
* **Per-user greedy SPSD.** A post reaches user u iff u follows its author
  and no post already delivered to u covers it. Posts are taken in stream
  order, so the answer for any prefix of the stream is the prefix of the
  answer for the whole stream.
* **Feed contract.** Every processed post takes the next sequence number
  (from 1). A user's mailbox holds the newest ``capacity`` deliveries,
  minus entries older than ``window`` seconds of stream time at the last
  expiry sweep; sweeps run after every ``expire_every``-th processed post.
  A page lists the entries below the cursor, newest first, skipping
  impressed ones; ``next_cursor`` is the last entry served when the page
  is full and older entries remain, else ``None``.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import defaultdict
from fractions import Fraction


def further_apart(later: float, earlier: float, lambda_t: float) -> bool:
    """``later - earlier > lambda_t`` on the exact values. A float
    subtraction rounds, and when the gap is within an ulp of ``lambda_t``
    the rounding decides: ``1819.303 - 19.303`` gives ``1800.0``, but the
    two floats are more than 1800 apart."""
    gap = later - earlier
    return gap > lambda_t or (gap == lambda_t and Fraction(later) - Fraction(earlier) > lambda_t)


def covers(q: dict, p: dict, lambda_c: int, lambda_t: float, adjacent) -> bool:
    """Definition 1 for two post records (``adjacent``: author -> set)."""
    earlier, later = sorted((p["timestamp"], q["timestamp"]))
    return (
        not further_apart(later, earlier, lambda_t)
        and (p["fingerprint"] ^ q["fingerprint"]).bit_count() <= lambda_c
        and (p["author"] == q["author"] or q["author"] in adjacent[p["author"]])
    )


def receiver_sets(
    posts: list[dict],
    subscriptions: dict[int, list[int]],
    edges,
    lambda_c: int,
    lambda_t: float,
) -> list[frozenset[int]]:
    """Per-post receiver sets of per-user greedy SPSD over ``posts``
    (which must be in non-decreasing timestamp order)."""
    adjacent: dict[int, set[int]] = defaultdict(set)
    for a, b in edges:
        adjacent[a].add(b)
        adjacent[b].add(a)
    by_author: dict[int, list[int]] = defaultdict(list)
    for index, post in enumerate(posts):
        by_author[post["author"]].append(index)
    # Coverage needs the same or an adjacent author, so posts from two
    # components of the graph induced on a user's followed authors never
    # cover each other: the user's greedy run splits into one independent
    # run per component, and users who share a component share its run.
    delivered_for: dict[tuple[int, ...], list[int]] = {}
    receivers: list[set[int]] = [set() for _ in posts]
    for user, followed in subscriptions.items():
        for component in _components(set(followed), adjacent):
            delivered = delivered_for.get(component)
            if delivered is None:
                delivered = _greedy(posts, component, by_author, adjacent, lambda_c, lambda_t)
                delivered_for[component] = delivered
            for index in delivered:
                receivers[index].add(user)
    return [frozenset(r) for r in receivers]


def _components(authors: set[int], adjacent) -> list[tuple[int, ...]]:
    """Connected components of the author graph restricted to ``authors``."""
    components = []
    remaining = set(authors)
    while remaining:
        frontier = [remaining.pop()]
        component = set(frontier)
        while frontier:
            neighbours = adjacent[frontier.pop()] & remaining
            remaining -= neighbours
            component |= neighbours
            frontier.extend(neighbours)
        components.append(tuple(sorted(component)))
    return components


def _greedy(posts, authors, by_author, adjacent, lambda_c, lambda_t) -> list[int]:
    """One greedy SPSD run over the posts of ``authors``: a post is kept
    iff no kept post covers it. (The test of :func:`covers`, inlined: this
    loop is where the reference spends its time.)"""
    candidates = sorted(i for a in authors for i in by_author.get(a, ()))
    delivered: list[int] = []
    kept: list[tuple[float, int, int]] = []  # (timestamp, fingerprint, author), time order
    for index in candidates:
        post = posts[index]
        t, f, a = post["timestamp"], post["fingerprint"], post["author"]
        near = adjacent[a]
        j = len(kept) - 1
        while j >= 0:
            kt, kf, ka = kept[j]
            if t - kt >= lambda_t and further_apart(t, kt, lambda_t):  # cheap test first: hot loop
                j = -1  # kept posts are in time order: the rest are older
                break
            if (f ^ kf).bit_count() <= lambda_c and (ka == a or ka in near):
                break
            j -= 1
        if j < 0:
            delivered.append(index)
            kept.append((t, f, a))
    return delivered


class FeedModel:
    """Expected mailbox contents and pages after any number of processed
    posts, for a stream whose receiver sets are known.

    ``processed`` lists the posts in the order the service processed them
    (retries answered from the idempotency window are not processed);
    ``receivers`` gives each one's receiver set. Seq ``k`` (1-based) is
    ``processed[k - 1]``.
    """

    def __init__(
        self,
        processed: list[dict],
        receivers: list[frozenset[int]],
        *,
        capacity: int,
        window: float,
        expire_every: int = 256,
    ):
        self.processed = processed
        self.capacity = capacity
        self.window = window
        self.expire_every = expire_every
        #: user -> seqs delivered to them, ascending
        self.deliveries: dict[int, list[int]] = defaultdict(list)
        for seq, users in enumerate(receivers, start=1):
            for user in users:
                self.deliveries[user].append(seq)

    def cutoff(self, n: int) -> float:
        """Stream-time expiry cutoff in force after ``n`` processed posts."""
        swept = n - n % self.expire_every
        if swept == 0:
            return float("-inf")
        return self.processed[swept - 1]["timestamp"] - self.window

    def present(self, user: int, n: int) -> list[int]:
        """Seqs in ``user``'s mailbox after ``n`` processed posts, ascending."""
        seqs = self.deliveries.get(user, [])
        hi = bisect_right(seqs, n)
        kept = seqs[max(0, hi - self.capacity) : hi]
        cutoff = self.cutoff(n)
        return [s for s in kept if self.processed[s - 1]["timestamp"] >= cutoff]

    def page(self, user: int, n: int, cursor, limit: int, impressed) -> dict:
        """The expected page: ``{"seqs", "next_cursor", "filtered"}``."""
        below = [s for s in reversed(self.present(user, n)) if cursor is None or s < cursor]
        unseen = [s for s in below if s not in impressed]
        served = unseen[:limit]
        full = len(served) == limit and any(s < served[-1] for s in below)
        last = served[-1] if full else None
        filtered = sum(1 for s in below if s in impressed and (last is None or s > last))
        return {"seqs": served, "next_cursor": last, "filtered": filtered}

    def feed(self, user: int, n: int, impressed) -> list[int]:
        """Every unseen entry of ``user``'s feed, newest first."""
        return [s for s in reversed(self.present(user, n)) if s not in impressed]

    def entry(self, seq: int) -> dict:
        post = self.processed[seq - 1]
        return {
            "seq": seq,
            "post_id": post["post_id"],
            "author": post["author"],
            "timestamp": post["timestamp"],
        }

