"""Tests of the benchmark's reference and of its output checks.

    python3 -m pytest perfbench/test_oracle.py

The reference is tested on hand-built streams at each boundary of the
coverage definition; the checks are tested by mutation: an output that
matches the reference passes, and the same output with one receiver
added or removed, an impressed entry served again, or a page entry
duplicated or dropped, fails. The traced run's per-path breakdown is
tested the same way: span time counted twice must be flagged. Last,
a program that fails at start-up must abort the run with its own error.
"""

from __future__ import annotations

import json

import pytest

from checks import Checker, check_batch_output, check_feed, check_ingest, check_page
from oracle import FeedModel, covers, receiver_sets

LC, LT = 18, 1800.0
EDGES = [(1, 2)]  # authors 1 and 2 are adjacent; 3 is adjacent to nobody
ALL = {10: [1, 2, 3]}


def post(pid, author, ts, fp):
    return {"post_id": pid, "author": author, "text": f"p{pid}", "timestamp": ts, "fingerprint": fp}


def bits(n: int) -> int:
    """A fingerprint ``n`` bits away from 0."""
    return (1 << n) - 1


def reached(posts, subs=ALL, edges=EDGES):
    return [sorted(r) for r in receiver_sets(posts, subs, edges, LC, LT)]


# -- coverage boundaries ------------------------------------------------------


@pytest.mark.parametrize("distance, covered", [(LC - 1, True), (LC, True), (LC + 1, False)])
def test_hamming_boundary(distance, covered):
    got = reached([post(1, 1, 0.0, 0), post(2, 1, 1.0, bits(distance))])
    assert got == [[10], [] if covered else [10]]


@pytest.mark.parametrize("gap, covered", [(LT - 0.5, True), (LT, True), (LT + 0.5, False)])
def test_time_boundary(gap, covered):
    got = reached([post(1, 1, 100.0, 0), post(2, 1, 100.0 + gap, 0)])
    assert got == [[10], [] if covered else [10]]


@pytest.mark.parametrize("author, covered", [(1, True), (2, True), (3, False)])
def test_author_boundary(author, covered):
    """Same author and adjacent author cover; a non-adjacent one does not."""
    got = reached([post(1, 1, 0.0, 0), post(2, author, 1.0, 0)])
    assert got == [[10], [] if covered else [10]]


def test_adjacency_is_symmetric():
    assert reached([post(1, 2, 0.0, 0), post(2, 1, 1.0, 0)]) == [[10], []]


def test_only_followers_receive():
    subs = {10: [1], 20: [2], 30: [3]}
    assert reached([post(1, 1, 0.0, 0), post(2, 3, 1.0, 0)], subs) == [[10], [30]]


def test_coverage_is_by_delivered_posts_only():
    """A covered post covers nothing: C is near B, far from A, and B was
    covered by A, so C is delivered."""
    a, b, c = 0, bits(15), bits(30)
    got = reached([post(1, 1, 0.0, a), post(2, 1, 1.0, b), post(3, 1, 2.0, c)])
    assert got == [[10], [], [10]]


def test_users_with_different_follows_decide_independently():
    """Author 2's post is covered for user 10 (who also follows author 1)
    but reaches user 20, who follows author 2 alone."""
    subs = {10: [1, 2], 20: [2]}
    assert reached([post(1, 1, 0.0, 0), post(2, 2, 1.0, 0)], subs) == [[10], [20]]


def test_unconnected_components_do_not_interact():
    """Authors 1 and 3 are not adjacent: a user following both gets each
    author's posts decided on their own."""
    subs = {10: [1, 3]}
    got = reached([post(1, 1, 0.0, 0), post(2, 3, 1.0, 0), post(3, 1, 2.0, 0), post(4, 3, 3.0, 0)], subs)
    assert got == [[10], [10], [], []]


def test_time_boundary_is_exact():
    """The float gap rounds to λt, but the two floats are further apart."""
    assert 1819.303 - 19.303 == LT
    assert reached([post(1, 1, 19.303, 0), post(2, 1, 1819.303, 0)]) == [[10], [10]]
    assert not covers(post(1, 1, 19.303, 0), post(2, 1, 1819.303, 0), LC, LT, {1: set()})


def test_covers_matches_definition():
    adjacent = {1: {2}, 2: {1}, 3: set()}
    p, q = post(1, 1, 0.0, 0), post(2, 2, LT, bits(LC))
    assert covers(p, q, LC, LT, adjacent) and covers(q, p, LC, LT, adjacent)
    assert not covers(p, post(3, 3, 0.0, 0), LC, LT, adjacent)


@pytest.mark.parametrize("seed", range(20))
def test_receiver_sets_equal_the_plain_definition(seed):
    """The reference splits users into components and stops scanning at
    the window's edge; a plain per-user run over :func:`covers` must give
    the same receivers."""
    import random

    rng = random.Random(seed)
    authors = list(range(1, 9))
    edges = [(a, b) for a in authors for b in authors if a < b and rng.random() < 0.3]
    adjacent = {a: set() for a in authors}
    for a, b in edges:
        adjacent[a].add(b)
        adjacent[b].add(a)
    subs = {u: rng.sample(authors, rng.randint(1, 5)) for u in range(100, 130)}
    stream, now = [], 0.0
    for pid in range(1, 121):
        now += rng.choice([0.0, 60.0, 400.0, LT / 2])
        stream.append(post(pid, rng.choice(authors), now, rng.choice([0, bits(10), bits(LC), bits(LC + 2), bits(40)])))
    plain = [set() for _ in stream]
    for user, followed in subs.items():
        kept = []
        for index, p in enumerate(stream):
            if p["author"] in followed and not any(covers(q, p, LC, LT, adjacent) for q in kept):
                kept.append(p)
                plain[index].add(user)
    assert receiver_sets(stream, subs, edges, LC, LT) == [frozenset(r) for r in plain]


# -- feed model ---------------------------------------------------------------


def model(n_posts=6, capacity=3, window=1e9, expire_every=256, gap=1.0):
    posts = [post(i, 1, i * gap, i) for i in range(1, n_posts + 1)]
    return FeedModel(posts, [frozenset({10})] * n_posts, capacity=capacity, window=window, expire_every=expire_every)


def test_capacity_keeps_newest():
    assert model().present(10, 6) == [4, 5, 6]
    assert model().present(10, 2) == [1, 2]


def test_expiry_runs_on_cadence():
    m = model(n_posts=6, capacity=10, window=2.0, expire_every=4, gap=1.0)
    assert m.present(10, 3) == [1, 2, 3]  # no sweep yet
    assert m.present(10, 4) == [2, 3, 4]  # swept at post 4: cutoff 4 - 2
    assert m.present(10, 6) == [2, 3, 4, 5, 6]  # next sweep only at post 8


def test_pages_chain_and_skip_impressed():
    m = model(n_posts=6, capacity=10)
    first = m.page(10, 6, None, 2, {5})
    assert first == {"seqs": [6, 4], "next_cursor": 4, "filtered": 1}
    second = m.page(10, 6, 4, 2, {5})
    assert second == {"seqs": [3, 2], "next_cursor": 2, "filtered": 0}
    assert m.page(10, 6, 2, 2, {5}) == {"seqs": [1], "next_cursor": None, "filtered": 0}
    assert m.feed(10, 6, {5}) == [6, 4, 3, 2, 1]


def test_full_last_page_has_no_cursor():
    m = model(n_posts=4, capacity=10)
    assert m.page(10, 4, None, 4, set()) == {"seqs": [4, 3, 2, 1], "next_cursor": None, "filtered": 0}
    # Older entries that are all impressed still count as "more to scan".
    assert m.page(10, 4, None, 2, {1, 2}) == {"seqs": [4, 3], "next_cursor": 3, "filtered": 0}


# -- the checks reject mutated outputs ----------------------------------------


STREAM = [post(1, 1, 0.0, 0), post(2, 2, 5.0, bits(40)), post(3, 3, 9.0, 0)]
SUBS = {10: [1, 2], 20: [2, 3], 30: [3]}
FOLLOWERS = {1: {10}, 2: {10, 20}, 3: {20, 30}}


def expected():
    return receiver_sets(STREAM, SUBS, EDGES, LC, LT)


def ingest_reply(index, receivers):
    return {"accepted": 1, "post_id": STREAM[index]["post_id"], "receivers": sorted(receivers),
            "deliveries": len(receivers), "deduplicated": False}


def ingest_ok(index, receivers, dedup=False) -> bool:
    checker = Checker()
    reply = ingest_reply(index, receivers)
    reply["deduplicated"] = dedup
    want = expected()[index]
    check_ingest(checker, reply, STREAM[index], want, FOLLOWERS[STREAM[index]["author"]], dedup)
    return checker.ok


def test_ingest_check_accepts_reference():
    assert all(ingest_ok(i, expected()[i]) for i in range(len(STREAM)))


def test_ingest_check_rejects_added_receiver():
    assert not ingest_ok(1, expected()[1] | {30})  # 30 does not follow author 2
    assert not ingest_ok(2, expected()[2] | {10})


def test_ingest_check_rejects_removed_receiver():
    assert not ingest_ok(1, expected()[1] - {20})


def test_ingest_check_rejects_lost_dedup_flag():
    checker = Checker()
    check_ingest(checker, ingest_reply(0, expected()[0]), STREAM[0], expected()[0], FOLLOWERS[1], True)
    assert not checker.ok


def batch_trace(mutate=None) -> bytes:
    records = []
    for p, receivers in zip(STREAM, expected()):
        if receivers:
            record = {k: p[k] for k in ("post_id", "author", "text", "timestamp", "fingerprint")}
            record["receivers"] = sorted(receivers)
            records.append(record)
    if mutate:
        mutate(records)
    return "\n".join(json.dumps(r) for r in records).encode()


def batch_ok(trace: bytes) -> bool:
    checker = Checker()
    check_batch_output(checker, trace, STREAM, expected())
    return checker.ok


def test_batch_check_accepts_reference():
    assert batch_ok(batch_trace())


def test_batch_check_rejects_added_and_removed_receivers():
    assert not batch_ok(batch_trace(lambda rs: rs[0]["receivers"].append(30)))
    assert not batch_ok(batch_trace(lambda rs: rs[-1]["receivers"].pop()))


def test_batch_check_rejects_missing_and_repeated_records():
    assert not batch_ok(batch_trace(lambda rs: rs.pop()))
    assert not batch_ok(batch_trace(lambda rs: rs.append(dict(rs[0]))))


def feed_pages(m, n, impressed, limit):
    pages, cursor = [], None
    while True:
        want = m.page(10, n, cursor, limit, impressed)
        pages.append({"user": 10, "entries": [m.entry(s) for s in want["seqs"]],
                      "next_cursor": want["next_cursor"], "filtered": want["filtered"], "stale": False})
        cursor = want["next_cursor"]
        if cursor is None:
            return pages


def feed_ok(pages, m, impressed, limit=2) -> bool:
    checker = Checker()
    check_feed(checker, m, 10, 6, impressed, pages, limit)
    return checker.ok


def test_feed_check_accepts_reference():
    m = model(capacity=10)
    assert feed_ok(feed_pages(m, 6, {5}, 2), m, {5})


def test_feed_check_rejects_reserved_impression():
    m = model(capacity=10)
    pages = feed_pages(m, 6, set(), 2)  # served as if nothing were impressed
    assert not feed_ok(pages, m, {5})
    checker = Checker()
    check_page(checker, m, 10, (6,), None, 2, {6}, pages[0])
    assert any("served again" in msg for msg in checker.messages)


def test_feed_check_rejects_duplicated_entry():
    m = model(capacity=10)
    pages = feed_pages(m, 6, set(), 2)
    pages[1]["entries"].insert(0, pages[0]["entries"][-1])
    assert not feed_ok(pages, m, set())


def test_feed_check_rejects_missing_entry():
    m = model(capacity=10)
    pages = feed_pages(m, 6, set(), 2)
    del pages[1]["entries"][0]
    assert not feed_ok(pages, m, set())


def test_concurrent_page_matches_any_state_in_range():
    m = model(capacity=10)
    want = m.page(10, 4, None, 2, set())
    page = {"user": 10, "entries": [m.entry(s) for s in want["seqs"]],
            "next_cursor": want["next_cursor"], "filtered": 0, "stale": False}
    checker = Checker()
    check_page(checker, m, 10, range(3, 6), None, 2, set(), page)
    assert checker.ok
    check_page(checker, m, 10, range(5, 7), None, 2, set(), page)
    assert not checker.ok


# -- the reference agrees with the program at every boundary -----------------


def test_program_agrees_at_every_boundary():
    """Each boundary case gets its own two authors and user, and its own
    stretch of stream time, so one ``repro diversify`` run covers them all."""
    import shutil
    import subprocess
    import sys

    from harness import ROOT

    cases = [  # (fingerprint of the second post, time of the first, gap, second author adjacent?)
        (0, 19.303, LT, None),  # the float gap rounds to λt; the floats are further apart
        (bits(LC - 1), 0.0, 1.0, None), (bits(LC), 0.0, 1.0, None), (bits(LC + 1), 0.0, 1.0, None),
        (0, 0.0, LT - 0.5, None), (0, 0.0, LT, None), (0, 0.0, LT + 0.5, None),
        (0, 0.0, 1.0, True), (0, 0.0, 1.0, False),
    ]
    nodes, edges, subs, stream = [], [], {}, []
    for k, (fp, first, gap, adjacent) in enumerate(cases):
        a, b = 2 * k + 1, 2 * k + 2
        nodes += [a, b]
        if adjacent:
            edges.append((a, b))
        second = a if adjacent is None else b
        subs[100 + k] = [a, b]
        base = k * 10 * LT + first
        stream += [post(2 * k + 1, a, base, 0), post(2 * k + 2, second, base + gap, fp)]
    work = ROOT / ".bench_work" / "test-boundaries"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        (work / "graph.json").write_text(json.dumps({"nodes": nodes, "edges": edges}))
        (work / "subs.json").write_text(json.dumps({str(u): a for u, a in subs.items()}))
        (work / "posts.jsonl").write_text("".join(json.dumps(p) + "\n" for p in stream))
        subprocess.run(
            [sys.executable, "-m", "repro", "diversify", "--posts", "posts.jsonl", "--graph", "graph.json",
             "--subscriptions", "subs.json", "--algorithm", "unibin", "--output", "out.jsonl"],
            cwd=work, env={"PYTHONPATH": str(ROOT / "src"), "PATH": ""}, check=True, capture_output=True,
        )
        got = {r["post_id"]: r["receivers"] for r in map(json.loads, (work / "out.jsonl").read_text().splitlines())}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    want = {p["post_id"]: sorted(r) for p, r in zip(stream, receiver_sets(stream, subs, edges, LC, LT)) if r}
    assert got == want
    # The cases do test both sides: the second post is dropped in exactly
    # the covered cases (Hamming <= λc, gap <= λt, same or adjacent author).
    assert sorted(pid for pid in range(2, 2 * len(cases) + 1, 2) if pid not in want) == [4, 6, 10, 12, 16]


# -- per-path breakdown of the traced run -------------------------------------


def breakdown(tmp_path, recovered_spans, batch_loose=None):
    """The breakdown of a run whose recovery (launch to banner: 0..1 s)
    recorded ``recovered_spans`` as ``(id, start, end, thread)`` roots."""
    from tracing import PATHS, Trace, path_breakdown

    def trace(name, spans=(), loose=None):
        payload = {
            "aggregates": {}, "counters": {}, "loose": loose or {},
            "spans": [[sid, "feed.service.recover", start, end, None, thread, {}] for sid, start, end, thread in spans],
        }
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(payload))
        return Trace(path)

    traces = {"serve": trace("serve"), "recovered": trace("recovered", recovered_spans),
              "batch": trace("batch", loose=batch_loose)}
    client = {"windows": {"recovery": (0.0, 1.0), "batch offer": (0.0, 1.0)}, "path_s": {p: 1.0 for p in PATHS}}
    return path_breakdown(traces, client)


def test_breakdown_accepts_spans_inside_the_path(tmp_path):
    from tracing import overcounted

    report = breakdown(tmp_path, [(0, 0.0, 0.4, 1), (1, 0.5, 0.9, 1)], batch_loose={"io.decode": 0.6})
    assert report["recovery"]["remainder_s"] == pytest.approx(0.2)
    assert overcounted(report) == []


def test_breakdown_flags_overlapping_spans(tmp_path):
    """Two threads' root spans over the same stretch count it twice."""
    from tracing import overcounted

    report = breakdown(tmp_path, [(0, 0.0, 0.9, 1), (1, 0.2, 0.8, 2)])
    assert report["recovery"]["remainder_s"] == pytest.approx(-0.5)
    assert [m.split(":")[0] for m in overcounted(report)] == ["recovery"]


def test_breakdown_flags_aggregates_beyond_the_path(tmp_path):
    from tracing import overcounted

    report = breakdown(tmp_path, [], batch_loose={"io.decode": 1.5})
    assert [m.split(":")[0] for m in overcounted(report)] == ["batch offer"]


# -- a program that fails at start-up -----------------------------------------


def test_failed_serve_start_up_reports_its_log(tmp_path):
    from harness import BenchError, Program, Server

    program = Program(tmp_path)
    try:
        with pytest.raises(BenchError, match=r"(?s)did not come up.*missing\.json"):
            Server(program, ["--graph", "missing.json", "--subscriptions", "missing.json", "--port", "0"], tmp_path / "serve.log")
    finally:
        program.close()
    assert all(proc.returncode is not None for proc in program.procs)


def test_failed_batch_start_up_reports_its_log(tmp_path):
    from harness import BenchError, Program, run_batch

    program = Program(tmp_path)
    try:
        with pytest.raises(BenchError, match=r"(?s)diversify exited.*missing\.json"):
            run_batch(program, ["--posts", "missing.jsonl", "--graph", "missing.json"], tmp_path / "out.fifo", tmp_path / "batch.log")
    finally:
        program.close()
    assert all(proc.returncode is not None for proc in program.procs)


def test_reap_collects_a_child_that_has_already_ended(tmp_path):
    """Waiting for the exit must leave the child to ``reap``, which
    collects it with its peak RSS, also when asked to signal it."""
    import signal
    import sys
    import time

    from harness import Program, exited, reap

    program = Program(tmp_path)
    proc = program.start([sys.executable, "-c", "pass"])
    while not exited(proc):
        time.sleep(0.01)
    assert reap(proc, sig=signal.SIGKILL) > 0
    assert proc.returncode == 0
