"""The three workloads and the one round of work each run repeats.

Every round of every workload runs the same pipeline on its own inputs,
so that each end-to-end metric is measured on each workload:

1. **batch** — ``repro diversify --subscriptions`` over the whole stream
   (shipped defaults: bare ``unibin``, one worker, batch 512); its
   receiver trace is checked against the reference.
2. **serve** — ``repro serve`` with a write-ahead log at shipped
   durability settings (group commit, snapshot every 1024 records, keep
   2). One extra launch is stopped at its banner, so set-up is taken
   three times per round (two serve launches and the batch launch).
3. **traffic** — one bulk ``POST /posts``, then the workload's client
   script: a strict closed loop on one connection, or (``feed_readmix``)
   a writer and a reader thread beside it (see :func:`_mixed`).
4. **read-back** — whole paginated feeds of sampled users.
5. **crash** — SIGKILL right after the last reply, then ``--recover``
   with the same flags; sampled feeds and the durable ``/feed/stats``
   counters must read back as they were before the kill.

Every reply is checked against :mod:`oracle` once the timed loops are
done.
"""

from __future__ import annotations

import random
import re
import shutil
import statistics
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from checks import Checker, check_batch_output, check_feed, check_ingest, check_page
from harness import Client, Program, Server, dir_mb, run_batch
from inputs import LAMBDA_C, LAMBDA_T, Shape, generate
from oracle import FeedModel, receiver_sets

PAGE_LIMIT = 20
COMPARE_USERS = 200  # of the read-back users, paged again after recovery
IMPRESS_PER_READ = 5


@dataclass(frozen=True)
class Workload:
    name: str
    shape: Shape
    capacity: int = 1024  # mailbox capacity (1024 is the shipped default)
    serve_posts: int = 0  # posts (a prefix of the stream) the server gets
    bulk_posts: int = 0  # of those, sent first in one bulk POST /posts
    read_every: int = 0  # closed loop: page + impressions after every k-th post
    retry_every: int = 0  # writer re-sends every k-th keyed post
    mix_impressions: int = 0  # reader iterations that impress (see _mixed)
    readback_users: int = 200  # users whose whole feed is paged before the kill


WORKLOADS = {
    w.name: w
    for w in (
        # 10^5 subscribers, ~400 deliveries per post: mailbox fanout,
        # snapshots and recovery dominate; the engine is ~10% of a write.
        Workload(
            name="feed_fanout",
            shape=Shape(
                users=100_000, authors=500, community=10, edge_p=0.5,
                cross_edges=100, follows=2, home_share=0.7, posts=6600,
                mean_gap=1.5, topics=4, dup_share=0.3, max_flip=10,
            ),
            # The batch gets all 6,600 posts: 2,200 took ~0.5 s, too
            # short to ride out a stall of the host.
            serve_posts=2200,
            bulk_posts=1100,
            read_every=8,
            readback_users=600,
        ),
        # Dense, redundancy-heavy stream with few deliveries per post:
        # coverage checks dominate; mailboxes, WAL and HTTP do little.
        Workload(
            name="engine_batch",
            shape=Shape(
                users=3000, authors=200, community=10, edge_p=0.7,
                cross_edges=50, follows=6, home_share=0.8, posts=12000,
                mean_gap=0.3, topics=3, dup_share=0.8, max_flip=10,
            ),
            serve_posts=4000,
            bulk_posts=3000,
            read_every=8,
            readback_users=600,
        ),
        # Moderate store, capacity below per-user deliveries and a window
        # shorter than the stream: reads beside writes, eviction, expiry,
        # the impression filter and the idempotency window.
        Workload(
            name="feed_readmix",
            shape=Shape(
                users=5000, authors=200, community=10, edge_p=0.5,
                cross_edges=50, follows=10, home_share=0.5, posts=3000,
                mean_gap=1.2, topics=4, dup_share=0.3, max_flip=10,
            ),
            capacity=48,
            serve_posts=3000,
            bulk_posts=2000,
            retry_every=10,
            mix_impressions=300,
        ),
    )
}


@dataclass
class Round:
    """What one round measured and checked."""

    metrics: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    checker: Checker | None = None
    #: span files by process ("batch", "serve", "recovered"), when traced
    spans: dict[str, Path | None] = field(default_factory=dict)
    #: client-side times the traced report lines spans up with
    client: dict = field(default_factory=lambda: {"windows": {}, "path_s": {}})
    #: counts the program reports itself (batch summary, /feed/stats)
    program: dict = field(default_factory=dict)
    #: client-observed request latencies of the script (see run.py)
    loop: dict[str, float] = field(default_factory=dict)


class Traffic:
    """Client-side state of one round's serve phase."""

    def __init__(self, workload: Workload, inputs, expected, checker: Checker, rnd: Round):
        self.w = workload
        self.checker = checker
        self.rnd = rnd
        self.posts = inputs.posts[: workload.serve_posts]
        self.expected = expected[: workload.serve_posts]
        self.followers: dict[int, set[int]] = defaultdict(set)
        for user, authors in inputs.subscriptions.items():
            for author in authors:
                self.followers[author].add(user)
        self.model = FeedModel(self.posts, self.expected, capacity=workload.capacity, window=LAMBDA_T)
        self.impressed: dict[int, set[int]] = defaultdict(set)
        self.impressions_recorded = 0
        self.deliveries = 0
        self.retries = 0
        self.sent = 0  # posts sent that the server will process
        self.acked = 0  # posts the server has answered
        self.lock = threading.Lock()
        self.ingest_ms: list[float] = []
        self.read_ms: list[float] = []
        self.impress_ms: list[float] = []
        self.rng = inputs.rng
        self.users = sorted(inputs.subscriptions)
        #: client latency (ms) of every request to the first server, by route
        self.route_ms: dict[str, list[float]] = {
            route: [] for route in ("POST /posts", "GET /feed", "POST /impressions", "GET /feed/stats")
        }
        self.recording = True
        #: checks run after the timed phases, so they cost the loop nothing
        self.pending: list = []

    def call(self, client: Client, method: str, path: str, payload=None):
        with self.lock:
            self.rnd.attempted += 1
        status, body, elapsed = client.call(method, path, payload)
        if self.recording:
            self.route_ms[f"{method} {path.split('?', 1)[0]}"].append(elapsed * 1e3)
        if status != 200:
            with self.lock:
                self.rnd.failed += 1
            self.checker.expect(False, f"{method} {path}: HTTP {status} {body!r}")
            return None, elapsed
        return body, elapsed

    def verify(self) -> None:
        for check, args in self.pending:
            check(self.checker, *args)
        self.pending.clear()

    # -- write path --------------------------------------------------------

    def bulk(self, client: Client) -> float:
        """Post the first ``bulk_posts`` posts in one request; returns its
        latency in seconds."""
        posts = self.posts[: self.w.bulk_posts]
        body, elapsed = self.call(client, "POST", "/posts", posts)
        want = sum(len(r) for r in self.expected[: len(posts)])
        self.checker.expect(
            body == {"accepted": len(posts), "shed": 0, "deliveries": want},
            f"bulk POST /posts: {body!r}, expected {len(posts)} accepted, {want} deliveries",
        )
        self.deliveries += want
        self.sent = self.acked = len(posts)
        return elapsed

    def post(self, client: Client, index: int) -> None:
        post = self.posts[index]
        payload = dict(post, idempotency_key=f"post-{post['post_id']}")
        with self.lock:
            self.sent += 1
        reply, elapsed = self.call(client, "POST", "/posts", payload)
        with self.lock:
            self.acked += 1
        self.ingest_ms.append(elapsed * 1e3)
        followers = self.followers[post["author"]]
        self.pending.append((check_ingest, (reply, post, self.expected[index], followers)))
        if reply is not None:
            self.deliveries += len(reply.get("receivers", ()))
        if self.w.retry_every and index % self.w.retry_every == 0:
            again, _ = self.call(client, "POST", "/posts", payload)
            self.retries += 1
            self.pending.append((check_ingest, (again, post, self.expected[index], followers, True)))

    # -- read path ---------------------------------------------------------

    def read(self, client: Client, user: int, cursor=None, states=None):
        query = f"/feed?user={user}&limit={PAGE_LIMIT}" + (f"&cursor={cursor}" if cursor is not None else "")
        lo = self.acked
        page, elapsed = self.call(client, "GET", query)
        hi = self.sent
        if states is None:
            states = range(lo, hi + 1)
        impressed = frozenset(self.impressed[user])
        self.pending.append((check_page, (self.model, user, states, cursor, PAGE_LIMIT, impressed, page)))
        return page, elapsed

    def impress(self, client: Client, user: int, page, *, exact: bool) -> None:
        seqs = [e["seq"] for e in (page or {}).get("entries", [])][:IMPRESS_PER_READ]
        reply, elapsed = self.call(client, "POST", "/impressions", {"user": user, "seqs": seqs})
        self.impress_ms.append(elapsed * 1e3)
        if reply is not None:
            recorded, ignored = reply.get("recorded"), reply.get("ignored")
            if exact:  # a sequential client knows every seq is live and unseen
                self.checker.expect((recorded, ignored) == (len(seqs), 0), f"impressions user={user}: {reply!r}")
            else:
                self.checker.expect(recorded + ignored == len(seqs), f"impressions user={user}: {reply!r}")
            self.impressions_recorded += recorded
        self.impressed[user].update(seqs)

    def paged_feed(self, client: Client, user: int, n: int) -> tuple[list, list[float]]:
        pages, times, cursor = [], [], None
        while True:
            query = f"/feed?user={user}&limit={PAGE_LIMIT}" + (f"&cursor={cursor}" if cursor is not None else "")
            page, elapsed = self.call(client, "GET", query)
            times.append(elapsed * 1e3)
            if page is None:
                break
            pages.append(page)
            cursor = page.get("next_cursor")
            if cursor is None:
                break
        impressed = frozenset(self.impressed[user])
        self.pending.append((check_feed, (self.model, user, n, impressed, pages, PAGE_LIMIT)))
        return pages, times


def serve_args(workload: Workload, paths: dict, wal: Path) -> list[str]:
    return [
        "--graph", paths["graph"], "--subscriptions", paths["subscriptions"],
        "--port", "0", "--wal-dir", str(wal),
        "--mailbox-capacity", str(workload.capacity),
    ]


def run_round(workload: Workload, seed: int, program: Program, work: Path) -> Round:
    """Generate the seed's inputs, then run and check one whole round."""
    rnd = Round()
    checker = Checker()
    inputs = generate(workload.shape, seed)
    paths = inputs.write(work)
    expected = receiver_sets(inputs.posts, inputs.subscriptions, inputs.edges, LAMBDA_C, LAMBDA_T)
    setups: list[float] = []
    rss: list[float] = []

    # 1. batch
    rnd.attempted += 1
    batch = run_batch(
        program,
        ["--posts", paths["posts"], "--graph", paths["graph"],
         "--subscriptions", paths["subscriptions"], "--algorithm", "unibin"],
        work / "batch.fifo",
        work / "batch.log",
    )
    setups.append(batch["setup_s"])
    rss.append(batch["peak_rss_mb"])
    rnd.metrics["diversify_posts_per_s"] = len(inputs.posts) / batch["process_s"]
    rnd.client["windows"]["batch offer"] = batch["window"]
    rnd.client["path_s"]["batch offer"] = batch["process_s"]
    rnd.spans["batch"] = batch["spans"]
    listed = check_batch_output(checker, batch["output"], inputs.posts, expected)
    want = sum(len(r) for r in expected)
    checker.expect(listed == want, f"batch: trace lists {listed} deliveries, reference {want}")
    summary = SUMMARY.search(batch["stdout"])
    if checker.expect(summary is not None, f"batch: no summary line in {batch['stdout']!r}"):
        offers, delivered, comparisons = (int(g.replace(",", "")) for g in summary.groups())
        checker.expect(delivered == want, f"batch: summary says {delivered} deliveries, reference {want}")
        rnd.program["core"] = {
            "core.instance_offers": offers,
            "core.comparisons": comparisons,
            "core.comparisons_per_offer": comparisons / max(offers, 1),
        }

    # 2. serve: one launch stopped at its banner, then the one that serves
    wal = work / "wal"
    args = serve_args(workload, paths, wal)
    rnd.attempted += 1
    throwaway = Server(program, args, work / "serve.log")
    setups.append(throwaway.ready_s)
    rss.append(throwaway.stop())
    shutil.rmtree(wal)
    rnd.attempted += 1
    server = Server(program, args, work / "serve.log")
    setups.append(server.ready_s)
    client = Client(server.port)
    traffic = Traffic(workload, inputs, expected, checker, rnd)

    # 3. traffic: one bulk request, then the client script
    rnd.metrics["ingest_posts_per_s"] = workload.bulk_posts / traffic.bulk(client)
    first = workload.bulk_posts
    if workload.mix_impressions:
        write_s, read_s, reads = _mixed(traffic, client, first)
    else:
        start = time.perf_counter()
        for index in range(first, workload.serve_posts):
            traffic.post(client, index)
            if workload.read_every and (index + 1) % workload.read_every == 0:
                audience = sorted(traffic.expected[index]) or traffic.users
                user = audience[traffic.rng.randrange(len(audience))]
                page, _ = traffic.read(client, user, states=(traffic.acked,))
                traffic.impress(client, user, page, exact=True)
        write_s = time.perf_counter() - start
    n = traffic.acked
    rnd.loop["feed.http.loop_posts_per_s"] = (workload.serve_posts - first) / write_s
    rnd.loop["feed.http.post_p50_ms"] = statistics.median(traffic.ingest_ms)
    rnd.loop["feed.http.impress_p50_ms"] = statistics.median(traffic.impress_ms)

    # 4. read-back of sampled users' whole feeds
    sample = traffic.rng.sample(traffic.users, workload.readback_users)
    before: dict[int, list] = {}
    readback_ms: list[float] = []
    start = time.perf_counter()
    for user in sample:
        pages, times = traffic.paged_feed(client, user, n)
        before[user] = pages
        readback_ms.extend(times)
    readback_s = time.perf_counter() - start
    if not workload.mix_impressions:
        read_ms, reads, read_s = readback_ms, len(readback_ms), readback_s
    else:
        read_ms = traffic.read_ms
    rnd.loop["feed.http.read_p50_ms"] = statistics.median(read_ms)
    rnd.loop["feed.http.read_pages_per_s"] = reads / read_s

    stats, _ = traffic.call(client, "GET", "/feed/stats")
    traffic.verify()
    _check_stats(checker, stats, traffic, n)
    for route, path in (("POST /posts", "feed write"), ("GET /feed", "feed read"), ("POST /impressions", "impressions")):
        rnd.client["path_s"][path] = sum(traffic.route_ms[route]) / 1e3
    rnd.client["GET /feed"] = list(traffic.route_ms["GET /feed"])
    if isinstance(stats, dict):
        wal_stats = (stats.get("durability") or {}).get("wal", {})
        rnd.program.update(
            deliveries=stats["deliveries"],
            wal_records=wal_stats.get("records_total", 0),
            wal_fsyncs=wal_stats.get("fsyncs_total", 0),
        )

    # 5. crash after the last reply, then recover with the same flags
    rnd.metrics["wal_dir_mb"] = dir_mb(wal)
    server.dump_spans()
    rnd.spans["serve"] = server.spans
    rss.append(server.stop())
    traffic.recording = False
    rnd.attempted += 1
    recovered = Server(program, [*args, "--recover"], work / "recover.log")
    rnd.metrics["recovery_s"] = recovered.ready_s
    rnd.client["windows"]["recovery"] = recovered.window
    rnd.client["path_s"]["recovery"] = recovered.ready_s
    client = Client(recovered.port)
    for user in sample[:COMPARE_USERS]:
        pages, _ = traffic.paged_feed(client, user, n)
        checker.expect(
            _strip(pages) == _strip(before[user]),
            f"recovery: feed of user {user} differs from before the kill",
        )
    after, _ = traffic.call(client, "GET", "/feed/stats")
    traffic.verify()
    checker.expect(
        _durable(after) == _durable(stats),
        lambda: f"recovery: /feed/stats {_durable(after)} != before the kill {_durable(stats)}",
    )
    recovered.dump_spans()
    rnd.spans["recovered"] = recovered.spans
    rss.append(recovered.stop())

    rnd.metrics["setup_s"] = statistics.median(setups)
    rnd.metrics["peak_rss_mb"] = max(rss)
    rnd.checker = checker
    return rnd


SUMMARY = re.compile(
    r"\d+/(\d+) instance offers admitted; ([\d,]+) deliveries .*?; ([\d,]+) comparisons"
)


def _in_threads(*functions) -> None:
    """Run each function in its own thread; re-raise the first error."""
    errors: list[BaseException] = []

    def guarded(function) -> None:
        try:
            function()
        except BaseException as error:  # surfaced to the caller below
            errors.append(error)

    threads = [threading.Thread(target=guarded, args=(f,)) for f in functions]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


def _mixed(traffic: Traffic, client: Client, first: int) -> tuple[float, float, int]:
    """A writer and a reader thread, each a closed loop.

    The writer sends a fixed number of posts. The reader pages a feed (a
    first page and a cursor page) and, in its first ``mix_impressions``
    iterations, impresses entries of the first page; then it keeps paging
    until the writer is done. Impressions are WAL records, so their fixed
    count keeps the number of snapshots the same in every run. Reads are
    not logged, so reading until the writer ends costs nothing there, and
    it keeps every read and write of the mix beside the other thread's
    traffic: with both loops of fixed length, whichever finished first
    left the other running alone for a share of the run that changed from
    run to run, and that share set the medians.
    """
    w = traffic.w
    reader_rng = random.Random(traffic.rng.random())
    writing = threading.Event()
    writing.set()
    times: dict[str, float] = {}
    reads = [0]

    def writer() -> None:
        try:
            start = time.perf_counter()
            for index in range(first, w.serve_posts):
                traffic.post(client, index)
            times["write"] = time.perf_counter() - start
        finally:
            writing.clear()

    def reader() -> None:
        start = time.perf_counter()
        iteration = 0
        while iteration < w.mix_impressions or writing.is_set():
            user = traffic.users[reader_rng.randrange(len(traffic.users))]
            page, elapsed = traffic.read(client, user)
            traffic.read_ms.append(elapsed * 1e3)
            cursor = (page or {}).get("next_cursor")
            if cursor is None:  # a short feed: page below its last entry
                entries = (page or {}).get("entries") or [{"seq": 1}]
                cursor = entries[-1]["seq"]
            _, elapsed = traffic.read(client, user, cursor=cursor)
            traffic.read_ms.append(elapsed * 1e3)
            if iteration < w.mix_impressions:
                traffic.impress(client, user, page, exact=False)
            iteration += 1
        reads[0] = 2 * iteration
        times["read"] = time.perf_counter() - start

    _in_threads(writer, reader)
    return times["write"], times["read"], reads[0]


def _check_stats(checker: Checker, stats, traffic: Traffic, n: int) -> None:
    if not checker.expect(isinstance(stats, dict), f"/feed/stats: {stats!r}"):
        return
    posts = stats["posts"]
    checker.expect(
        posts["received"] == posts["processed"] + posts["shed"] + posts["deduped"],
        f"/feed/stats: received != processed + shed + deduped: {posts}",
    )
    checker.expect(posts["processed"] == n and posts["shed"] == 0, f"/feed/stats: {posts}, expected {n} processed")
    checker.expect(posts["deduped"] == traffic.retries, f"/feed/stats: {posts['deduped']} deduped, {traffic.retries} retries sent")
    checker.expect(
        stats["deliveries"] == traffic.deliveries,
        f"/feed/stats: {stats['deliveries']} deliveries, replies sum to {traffic.deliveries}",
    )
    checker.expect(
        stats["reads"]["impressions"] == traffic.impressions_recorded,
        f"/feed/stats: {stats['reads']['impressions']} impressions, replies recorded {traffic.impressions_recorded}",
    )


def _strip(pages: list) -> list:
    return [{k: v for k, v in page.items() if k != "stale"} for page in pages]


def _durable(stats) -> dict:
    """The ``/feed/stats`` counters that the WAL and snapshots carry.

    Left out, because the log does not carry them: read counters (per
    process); ``received`` and ``deduped``, since retries answered from
    the idempotency window are not logged and survive a crash only up to
    the last snapshot (``processed`` is compared); and the materialized
    mailbox count with the byte estimate built on it, since a read of a
    user with no deliveries materializes an empty mailbox that no WAL
    record brings back.
    """
    if not isinstance(stats, dict):
        return {}
    boxes = {k: v for k, v in stats["mailboxes"].items() if k not in ("materialized", "approx_bytes")}
    return {
        "processed": stats["posts"]["processed"],
        "shed": stats["posts"]["shed"],
        "deliveries": stats["deliveries"],
        "mailboxes": boxes,
        "impressions": stats["reads"]["impressions"],
    }
