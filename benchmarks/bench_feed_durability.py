"""Feed durability: WAL write-path overhead and recovery replay speed.

The PR-10 acceptance bar: crash-safe mailbox persistence must be cheap
enough to leave on — fanout throughput with the write-ahead log enabled
(group-commit ``fsync="interval"``, the production default) may cost at
most 15% over the WAL-off path at reference amplification — and a
restart must finish its replay inside an operational budget
(``snapshot_every`` bounds the tail a recovery ever pays, so the
benchmark's full-log replay is the worst case).

The WAL-on arm runs the shipped durability defaults, rolling snapshots
every 1024 records included, so their cost is part of the measured
overhead. The recovery arm replays a separate log written with snapshots
off, so it always replays every post.

Methodology: every timed run executes in a **fresh subprocess**. Timing
base and WAL paths sequentially inside one interpreter is systematically
biased — each 100k-mailbox run bloats the heap and slows whichever mode
runs later by more than the WAL signal itself — and cycle-GC pauses land
arbitrarily; children therefore time a single run each with GC disabled,
and the parent takes best-of-``ROUNDS`` per mode. Every child also
reports a SHA-256 of its final mailbox state: base, WAL and recovered
runs must agree byte-for-byte before any number is trusted.

Reports:

* ``wal_overhead`` — relative fanout slowdown with the WAL on (gated
  <15% at reference scale; below it the absolute per-post budget
  ``wal_cost_us_per_post`` gates instead, because tiny-fanout baselines
  make any fixed cost look huge relatively);
* ``recovery_seconds`` — wall-clock full-log replay (gated by
  ``RECOVERY_BUDGET_SECONDS``);
* ``recovery_replay_speedup`` — replay rate over live WAL-on ingest
  rate (informational; tracked in the trajectory).

Writes ``BENCH_durability.json`` at the repo root and regression-gates
against the committed copy with relative slack ``REPRO_FEED_TOLERANCE``
(default 0.5); the gate is skipped when the committed file was measured
at a different cpu_count or subscriber count. Set
``REPRO_WRITE_BASELINE=1`` to refresh the committed file.
"""

import gc
import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent))

from conftest import bench_scale

from repro.authors import AuthorGraph
from repro.core import Post, Thresholds
from repro.feed import DurabilityConfig, FeedService, MailboxConfig
from repro.multiuser import SubscriptionTable, make_multiuser
from repro.service import DiversificationService

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_durability.json"

ALGORITHM = "s_unibin"
AUTHORS = 500
SUBS_PER_USER = 2
POSTS = int(os.environ.get("REPRO_FEED_POSTS", "1000"))
ROUNDS = 3
SEED = 29

#: The durability budget: at reference scale the log may cost at most
#: this much of fanout throughput, relative.
WAL_OVERHEAD_CEILING = 0.15
#: Reference scale for the relative gate (fanout amplification 400, the
#: capacity benchmark's world). Below it the per-post fanout is so cheap
#: that a fixed WAL cost dominates any ratio, so the absolute budget
#: gates instead — it is what implies <15% at reference amplification.
REFERENCE_SUBSCRIBERS = 100_000
WAL_COST_CEILING_US = 150.0
#: Operational restart budget for the full-log replay at this scale
#: (production replays are bounded by ``snapshot_every``, a fraction of
#: this log).
RECOVERY_BUDGET_SECONDS = 10.0

#: Relative slack on the committed baselines.
TOLERANCE = float(os.environ.get("REPRO_FEED_TOLERANCE", "0.5"))

SCALE_SUBSCRIBERS = {"small": 10_000, "medium": 100_000, "large": 250_000}


def subscriber_count() -> int:
    env = os.environ.get("REPRO_FEED_SUBSCRIBERS")
    if env:
        return int(env)
    return SCALE_SUBSCRIBERS.get(bench_scale(), 100_000)


def build_world(users: int):
    rng = random.Random(SEED)
    authors = list(range(1, AUTHORS + 1))
    graph = AuthorGraph(nodes=authors, edges=[])
    spec = {
        user: rng.sample(authors, SUBS_PER_USER)
        for user in range(100_000_000, 100_000_000 + users)
    }
    subscriptions = SubscriptionTable(spec)
    posts = []
    now = 0.0
    for i in range(POSTS):
        now += rng.random()
        posts.append(
            Post(
                post_id=i,
                author=authors[i % AUTHORS],
                text=f"post {i}",
                timestamp=now,
                fingerprint=rng.getrandbits(64),
            )
        )
    return graph, subscriptions, posts


def build_feed(graph, subscriptions, wal_dir=None, snapshot_every=1024):
    thresholds = Thresholds(lambda_c=8, lambda_t=120.0, lambda_a=1.0)
    engine = make_multiuser(ALGORITHM, thresholds, graph, subscriptions)
    durability = (
        DurabilityConfig(
            wal_dir=wal_dir, fsync="interval", snapshot_every=snapshot_every
        )
        if wal_dir is not None
        else None
    )
    feed = FeedService(
        DiversificationService(engine),
        mailboxes=MailboxConfig(capacity=64, window=thresholds.lambda_t),
        durability=durability,
    )
    # Production configuration on both sides of the comparison: the
    # serving path (`repro serve`, bench_feed_capacity) always binds
    # instruments, so the WAL's relative cost is measured against the
    # write path as actually deployed.
    feed.bind_metrics()
    return feed


def _state_digest(feed) -> str:
    return hashlib.sha256(
        json.dumps(feed.store.state_dict(), sort_keys=True).encode()
    ).hexdigest()


def _child_main(mode: str, wal_dir: str, users: int) -> None:
    """One timed run in a pristine interpreter; emits a JSON line."""
    graph, subscriptions, posts = build_world(users)
    records = 0
    if mode == "recover":
        feed = build_feed(graph, subscriptions, wal_dir)
        gc.collect()
        gc.disable()
        start = time.perf_counter()
        report = feed.recover(snapshot_after=False)
        elapsed = time.perf_counter() - start
        records = report.records_total
    else:
        # "wal" runs the shipped snapshot cadence; "log" keeps snapshots
        # off so the recovery arm replays the whole log.
        feed = build_feed(
            graph,
            subscriptions,
            None if mode == "base" else wal_dir,
            snapshot_every=1_000_000 if mode == "log" else 1024,
        )
        gc.collect()
        gc.disable()
        start = time.perf_counter()
        for i, post in enumerate(posts):
            feed.ingest(post, idempotency_key=f"bench-{i}")
        elapsed = time.perf_counter() - start
    print(
        json.dumps(
            {"elapsed": elapsed, "digest": _state_digest(feed), "records": records}
        )
    )


def _spawn(mode: str, wal_dir: Path, users: int) -> dict:
    env = dict(os.environ)
    src = Path(__file__).resolve().parent.parent / "src"
    env["PYTHONPATH"] = f"{src}{os.pathsep}{env['PYTHONPATH']}" if env.get(
        "PYTHONPATH"
    ) else str(src)
    result = subprocess.run(
        [sys.executable, __file__, "--child", mode, str(wal_dir), str(users)],
        capture_output=True,
        text=True,
        timeout=600,
        env=env,
    )
    assert result.returncode == 0, (
        f"{mode} child failed ({result.returncode}):\n{result.stderr}"
    )
    return json.loads(result.stdout.strip().splitlines()[-1])


def _run(users: int):
    wal_root = Path(tempfile.mkdtemp(prefix="bench-wal-"))
    try:
        base_time = wal_time = float("inf")
        digests = set()
        for round_index in range(ROUNDS):
            reply = _spawn("base", wal_root / "unused", users)
            base_time = min(base_time, reply["elapsed"])
            digests.add(reply["digest"])

            wal_dir = wal_root / f"round-{round_index}"
            reply = _spawn("wal", wal_dir, users)
            digests.add(reply["digest"])
            wal_time = min(wal_time, reply["elapsed"])
        assert len(digests) == 1, (
            f"base/WAL runs disagree on final mailbox state: {digests}"
        )

        # Recovery replays a full log: one more WAL-on child with
        # snapshots off, crashed by construction (no close, no flush).
        full_log = wal_root / "full-log"
        reply = _spawn("log", full_log, users)
        digests.add(reply["digest"])
        assert len(digests) == 1, "the snapshot-free run diverged"
        reply = _spawn("recover", full_log, users)
        assert reply["digest"] in digests, (
            "recovered mailbox state diverged from the live runs"
        )
        recovery_seconds = reply["elapsed"]
        records_replayed = reply["records"]
        assert records_replayed >= POSTS
    finally:
        shutil.rmtree(wal_root, ignore_errors=True)

    wal_posts_per_sec = POSTS / wal_time
    replay_posts_per_sec = POSTS / recovery_seconds
    return {
        "benchmark": "feed_durability",
        "scale": bench_scale(),
        "algorithm": ALGORITHM,
        "cpu_count": os.cpu_count(),
        "subscribers": users,
        "authors": AUTHORS,
        "posts": POSTS,
        "rounds": ROUNDS,
        "fsync": "interval",
        "base_posts_per_sec": POSTS / base_time,
        "wal_posts_per_sec": wal_posts_per_sec,
        "wal_overhead": (wal_time / base_time) - 1.0,
        "wal_cost_us_per_post": (wal_time - base_time) / POSTS * 1e6,
        "recovery_seconds": recovery_seconds,
        "recovery_records_replayed": records_replayed,
        "recovery_replay_posts_per_sec": replay_posts_per_sec,
        "recovery_replay_speedup": replay_posts_per_sec / wal_posts_per_sec,
    }


def _check_against_committed(result) -> list[str]:
    if not RESULT_PATH.exists():
        return []
    committed = json.loads(RESULT_PATH.read_text())
    if (
        committed.get("cpu_count") != result["cpu_count"]
        or committed.get("subscribers") != result["subscribers"]
    ):
        print(
            "note: committed baseline measured at "
            f"cpu_count={committed.get('cpu_count')}, "
            f"subscribers={committed.get('subscribers')}; gate skipped"
        )
        return []
    failures = []
    ceiling = committed["wal_overhead"] * (1.0 + TOLERANCE) + 0.02
    if result["wal_overhead"] > ceiling:
        failures.append(
            f"WAL overhead {result['wal_overhead']:.1%} > {ceiling:.1%} "
            f"(committed {committed['wal_overhead']:.1%} + {TOLERANCE:.0%})"
        )
    floor = committed["recovery_replay_speedup"] * (1.0 - TOLERANCE)
    if result["recovery_replay_speedup"] < floor:
        failures.append(
            f"recovery replay speedup {result['recovery_replay_speedup']:.2f}x "
            f"< {floor:.2f}x (committed "
            f"{committed['recovery_replay_speedup']:.2f}x - {TOLERANCE:.0%})"
        )
    return failures


def test_feed_durability(benchmark):
    users = subscriber_count()
    result = benchmark.pedantic(lambda: _run(users), rounds=1, iterations=1)
    print()
    print(
        f"{ALGORITHM}: {result['subscribers']:,} subscribers x "
        f"{result['posts']} posts, fsync={result['fsync']}"
    )
    print(
        f"write path: {result['base_posts_per_sec']:,.0f} posts/s bare, "
        f"{result['wal_posts_per_sec']:,.0f} posts/s with WAL "
        f"(overhead {result['wal_overhead']:.1%}, "
        f"{result['wal_cost_us_per_post']:.0f}us/post)"
    )
    print(
        f"recovery: {result['recovery_records_replayed']} records in "
        f"{result['recovery_seconds']:.3f}s = "
        f"{result['recovery_replay_posts_per_sec']:,.0f} posts/s "
        f"({result['recovery_replay_speedup']:.2f}x live ingest)"
    )

    if users >= REFERENCE_SUBSCRIBERS:
        assert result["wal_overhead"] <= WAL_OVERHEAD_CEILING, (
            f"WAL costs {result['wal_overhead']:.1%} of fanout throughput; "
            f"the durability budget is {WAL_OVERHEAD_CEILING:.0%}"
        )
    assert result["wal_cost_us_per_post"] <= WAL_COST_CEILING_US, (
        f"WAL costs {result['wal_cost_us_per_post']:.0f}us per post; "
        f"the absolute budget is {WAL_COST_CEILING_US:.0f}us"
    )
    assert result["recovery_seconds"] <= RECOVERY_BUDGET_SECONDS, (
        f"recovery took {result['recovery_seconds']:.2f}s; the restart "
        f"budget is {RECOVERY_BUDGET_SECONDS:.0f}s"
    )

    failures = _check_against_committed(result)
    assert not failures, "; ".join(failures)

    if os.environ.get("REPRO_WRITE_BASELINE"):
        RESULT_PATH.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
        print(f"baseline written to {RESULT_PATH}")


if __name__ == "__main__":
    if len(sys.argv) == 5 and sys.argv[1] == "--child":
        _child_main(sys.argv[2], sys.argv[3], int(sys.argv[4]))
    else:  # pragma: no cover - manual invocation guard
        sys.exit("usage: bench_feed_durability.py --child MODE WAL_DIR USERS")
