"""Output checks: compare what ``repro`` returned with the reference in
:mod:`oracle`. Each check records a failure message instead of raising,
so one run reports every kind of divergence it saw."""

from __future__ import annotations

import json

#: Failure messages kept verbatim; later ones are only counted.
KEEP = 20


class Checker:
    def __init__(self) -> None:
        self.failures = 0
        self.messages: list[str] = []

    @property
    def ok(self) -> bool:
        return self.failures == 0

    def expect(self, condition: bool, message) -> bool:
        if not condition:
            self.failures += 1
            if len(self.messages) < KEEP:
                self.messages.append(message() if callable(message) else message)
        return condition


def check_ingest(checker: Checker, reply, post: dict, expected, followers, deduplicated=False) -> None:
    """One ``POST /posts`` reply against the reference receiver set."""
    pid = post["post_id"]
    if not checker.expect(isinstance(reply, dict), f"post {pid}: reply {reply!r}"):
        return
    got = reply.get("receivers")
    checker.expect(
        reply.get("deduplicated") is deduplicated,
        f"post {pid}: deduplicated={reply.get('deduplicated')!r}, expected {deduplicated}",
    )
    checker.expect(reply.get("post_id") == pid, f"post {pid}: reply names post {reply.get('post_id')}")
    if not checker.expect(isinstance(got, list), f"post {pid}: receivers {got!r}"):
        return
    checker.expect(len(got) == len(set(got)), f"post {pid}: a receiver is listed twice")
    checker.expect(reply.get("deliveries") == len(got), f"post {pid}: deliveries != len(receivers)")
    outsiders = set(got) - followers
    checker.expect(not outsiders, lambda: f"post {pid}: receivers {sorted(outsiders)[:5]} do not follow author {post['author']}")
    checker.expect(
        set(got) == expected,
        lambda: f"post {pid}: {len(set(got) - expected)} extra and {len(expected - set(got))} missing receivers",
    )


def check_batch_output(checker: Checker, output: bytes, posts: list[dict], expected) -> int:
    """The ``repro diversify`` receiver trace: exactly one record per post
    that reaches anyone, with the reference receiver set. Returns the
    number of deliveries the trace lists."""
    want = {post["post_id"]: (post, receivers) for post, receivers in zip(posts, expected) if receivers}
    seen: set[int] = set()
    deliveries = 0
    for line in output.splitlines():
        record = json.loads(line)
        pid = record.get("post_id")
        if not checker.expect(pid not in seen, f"batch: post {pid} emitted twice"):
            continue
        seen.add(pid)
        got = record.get("receivers", [])
        deliveries += len(got)
        entry = want.get(pid)
        if not checker.expect(entry is not None, f"batch: post {pid} reaches nobody but was emitted"):
            continue
        post, receivers = entry
        checker.expect(
            all(record.get(k) == post[k] for k in ("author", "timestamp", "fingerprint")),
            f"batch: post {pid} fields differ from the input",
        )
        checker.expect(
            got == sorted(receivers),
            lambda: f"batch: post {pid}: {len(set(got) - receivers)} extra and {len(receivers - set(got))} missing receivers",
        )
    missing = set(want) - seen
    checker.expect(not missing, lambda: f"batch: {len(missing)} posts with receivers not emitted, e.g. {sorted(missing)[:3]}")
    return deliveries


def check_page(checker: Checker, model, user: int, states, cursor, limit: int, impressed: set, page) -> None:
    """One ``GET /feed`` page. ``states`` are the processed-post counts
    the server may have been at while answering (one value for a
    sequential client; a range beside a concurrent writer)."""
    where = f"feed user={user} cursor={cursor}"
    if not checker.expect(isinstance(page, dict) and "entries" in page, f"{where}: reply {page!r}"):
        return
    entries = page["entries"]
    seqs = [e.get("seq") for e in entries]
    checker.expect(len(seqs) == len(set(seqs)), f"{where}: an entry is served twice in one page")
    reserved = [s for s in seqs if s in impressed]
    checker.expect(not reserved, f"{where}: impressed entries {reserved[:5]} served again")
    checker.expect(page.get("stale") is False, f"{where}: stale page outside recovery")
    for n in states:
        want = model.page(user, n, cursor, limit, impressed)
        if (
            seqs == want["seqs"]
            and page.get("next_cursor") == want["next_cursor"]
            and page.get("filtered") == want["filtered"]
            and entries == [model.entry(s) for s in seqs]
        ):
            return
    checker.expect(False, lambda: f"{where}: page {seqs} (next {page.get('next_cursor')}) matches no state in {list(states)[:1]}..{list(states)[-1:]}: expected {model.page(user, states[-1], cursor, limit, impressed)}")


def check_feed(checker: Checker, model, user: int, n: int, impressed: set, pages: list, limit: int) -> None:
    """A whole paginated feed: the pages chain by cursor and together list
    every unseen entry newest first, with no duplicates or gaps."""
    where = f"feed user={user}"
    served: list[int] = []
    cursor = None
    for index, page in enumerate(pages):
        check_page(checker, model, user, (n,), cursor, limit, impressed, page)
        served.extend(e.get("seq") for e in page.get("entries", ()))
        cursor = page.get("next_cursor")
        last = index == len(pages) - 1
        checker.expect((cursor is None) == last, f"{where}: page {index} next_cursor {cursor!r}")
    checker.expect(len(served) == len(set(served)), f"{where}: an entry is served on two pages")
    want = model.feed(user, n, impressed)
    checker.expect(
        served == want,
        lambda: f"{where}: paged entries {served[:6]}.. differ from {want[:6]}.. ({len(served)} vs {len(want)})",
    )
