"""Span recording for the traced run, and the per-layer report.

The wrappers live here, in the benchmark's own files: :func:`install`
replaces the public entry points of each layer of ``repro`` with timed
wrappers before the CLI starts (see ``launch.py``). A span records its
name, start, end, parent and thread; spans are kept in memory and written
out when the process ends or receives SIGUSR1. Calls made millions of
times (single-user instance offers, per-record decode and encode) are
aggregated instead: their count and total time are added to the
enclosing span, so self time stays exact without a span per call.

Timestamps are ``time.perf_counter()``, which on Linux reads the
system-wide monotonic clock, so the benchmark can line spans up with the
times it took on the client side.
"""

from __future__ import annotations

import itertools
import json
import os
import statistics
import threading
import time
from collections import defaultdict

#: Spans: (name, layer owner, attribute, aggregated?)
FEED_POINTS = [
    ("feed.http.posts", "repro.feed.http:FeedServer", "_route_posts", False),
    ("feed.http.feed", "repro.feed.http:FeedServer", "_route_feed", False),
    ("feed.http.impressions", "repro.feed.http:FeedServer", "_route_impressions", False),
    ("feed.http.stats", "repro.feed.http:FeedServer", "_route_stats", False),
    ("feed.service.ingest", "repro.feed.service:FeedService", "ingest_detailed", False),
    ("feed.service.replay", "repro.feed.service:FeedService", "replay", False),
    ("feed.service.read", "repro.feed.service:FeedService", "read", False),
    ("feed.service.impressions", "repro.feed.service:FeedService", "record_impressions", False),
    ("feed.service.recover", "repro.feed.service:FeedService", "recover", False),
    ("service.ingest", "repro.service.server:DiversificationService", "ingest", False),
    ("multiuser.offer", "repro.multiuser.shared:SharedComponentMultiUser", "offer", False),
    ("feed.mailbox.fanout", "repro.feed.mailbox:MailboxStore", "fanout", False),
    ("feed.mailbox.expire", "repro.feed.mailbox:MailboxStore", "expire", False),
    ("feed.mailbox.read", "repro.feed.mailbox:MailboxStore", "read", False),
    ("feed.mailbox.impressions", "repro.feed.mailbox:MailboxStore", "record_impressions", False),
    ("feed.wal.append", "repro.feed.wal:WriteAheadLog", "append", False),
    ("feed.wal.sync", "repro.feed.wal:WriteAheadLog", "sync", False),
    ("feed.wal.prune", "repro.feed.wal:WriteAheadLog", "prune_segments", False),
    ("feed.durable.snapshot", "repro.feed.durable:DurableFeedLog", "snapshot", False),
    ("feed.durable.capture", "repro.feed.durable:DurableFeedLog", "capture", False),
    ("feed.durable.replay_record", "repro.feed.durable:DurableFeedLog", "_replay_record", False),
    ("feed.durable.save", "repro.feed.durable:SnapshotStore", "save", False),
    ("feed.durable.load_best", "repro.feed.durable:SnapshotStore", "load_best", False),
    # durable.py binds these by name at import, so they are patched there.
    ("storage.framing.write", "repro.feed.durable", "write_framed", False),
    ("storage.framing.read", "repro.feed.durable", "read_framed", False),
    ("resilience.checkpoint.snapshot_engine", "repro.feed.durable", "snapshot_engine", False),
    ("resilience.checkpoint.load_engine", "repro.feed.durable", "load_engine_state", False),
]
COMMON_POINTS = [
    ("multiuser.build", "repro.multiuser", "make_multiuser", False),
    ("io.load_graph", "repro.io", "read_graph_json", False),
    ("io.load_subscriptions", "repro.io", "read_subscriptions_json", False),
    ("parallel.offer_batch", "repro.parallel.engine:ParallelSharedMultiUser", "offer_batch", False),
    ("core.offer", "repro.core.base:StreamDiversifier", "offer", True),
]
BATCH_POINTS = [
    ("io.encode", "repro.io", "post_to_dict", True),
    ("io.encode", "json", "dumps", True),
]


class Recorder:
    """In-memory span store shared by every thread of one process."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [id, name, start, end, parent, thread, {aggregated name: s}]
        self.aggregates: dict[str, list] = defaultdict(lambda: [0, 0.0])
        self.counters: dict[str, float] = defaultdict(float)
        #: aggregated seconds spent outside any span, by name
        self.loose: dict[str, float] = defaultdict(float)
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def timed(self, name: str, function, aggregate: bool):
        recorder = self
        clock = time.perf_counter

        if aggregate:
            def wrapper(*args, **kwargs):
                start = clock()
                try:
                    return function(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    entry = recorder.aggregates[name]
                    entry[0] += 1
                    entry[1] += elapsed
                    stack = recorder._stack()
                    if stack:
                        inner = stack[-1][6]
                        inner[name] = inner.get(name, 0.0) + elapsed
                    else:
                        recorder.loose[name] += elapsed
        else:
            def wrapper(*args, **kwargs):
                stack = recorder._stack()
                span = [next(recorder._ids), name, clock(), None, stack[-1][0] if stack else None, threading.get_ident(), {}]
                stack.append(span)
                try:
                    result = function(*args, **kwargs)
                    if name == "storage.framing.write" and isinstance(result, int):
                        recorder.counters["storage.framing.bytes_written"] += result
                    return result
                finally:
                    span[3] = clock()
                    stack.pop()
                    recorder.spans.append(span)

        wrapper.__wrapped__ = function
        return wrapper

    def timed_iterator(self, name: str, function):
        """Wrap a generator function: time spent producing each item is
        aggregated under ``name`` (decode time of a lazy reader)."""
        recorder = self

        def wrapper(*args, **kwargs):
            iterator = iter(function(*args, **kwargs))
            entry = recorder.aggregates[name]
            while True:
                start = time.perf_counter()
                try:
                    item = next(iterator)
                except StopIteration:
                    elapsed = time.perf_counter() - start
                    entry[1] += elapsed
                    recorder.loose[name] += elapsed
                    return
                elapsed = time.perf_counter() - start
                entry[0] += 1
                entry[1] += elapsed
                stack = recorder._stack()
                if stack:
                    inner = stack[-1][6]
                    inner[name] = inner.get(name, 0.0) + elapsed
                else:
                    recorder.loose[name] += elapsed
                yield item

        return wrapper

    def dump(self, path: str) -> None:
        payload = {
            "pid": os.getpid(),
            "spans": self.spans,
            "aggregates": dict(self.aggregates),
            "counters": dict(self.counters),
            "loose": dict(self.loose),
        }
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        os.replace(tmp, path)


def _resolve(target: str):
    import importlib

    module_name, _, cls = target.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, cls) if cls else owner


def install(recorder: Recorder, command: str) -> None:
    """Wrap every layer boundary the ``command`` (serve or diversify) runs."""
    import repro.cli  # noqa: F401 - import everything before patching names
    import repro.feed  # noqa: F401

    points = COMMON_POINTS + (FEED_POINTS if command == "serve" else BATCH_POINTS)
    for name, target, attr, aggregate in points:
        owner = _resolve(target)
        setattr(owner, attr, recorder.timed(name, getattr(owner, attr), aggregate))
    import repro.io

    repro.io.read_posts_jsonl = recorder.timed_iterator("io.decode", repro.io.read_posts_jsonl)


# -- report -----------------------------------------------------------------


class Trace:
    """The spans of one process, with self times computed."""

    def __init__(self, path) -> None:
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
        self.aggregates = payload["aggregates"]
        self.counters = payload["counters"]
        self.loose = payload["loose"]
        self.spans = {s[0]: s for s in payload["spans"]}
        children = defaultdict(float)
        for span in self.spans.values():
            if span[4] is not None:
                children[span[4]] += span[3] - span[2]
        self.self_s = {
            sid: (s[3] - s[2]) - children[sid] - sum(s[6].values()) for sid, s in self.spans.items()
        }

    def named(self, name: str) -> list:
        return [s for s in self.spans.values() if s[1] == name]

    def total(self, name: str) -> float:
        return sum(s[3] - s[2] for s in self.named(name))

    def durations_ms(self, name: str) -> list[float]:
        return [(s[3] - s[2]) * 1e3 for s in self.named(name)]

    def parent_name(self, span) -> str | None:
        parent = self.spans.get(span[4])
        return parent[1] if parent else None

    def roots_within(self, names, window=None) -> list:
        """Top-level spans named in ``names`` (inside ``window``, a
        ``(start, end)`` pair of client-side times, when given)."""
        out = []
        for span in self.spans.values():
            if span[4] is not None or (names is not None and span[1] not in names):
                continue
            if window is not None and not (window[0] <= span[2] and span[3] <= window[1]):
                continue
            out.append(span)
        return out

    def subtree_self(self, roots, *, loose: bool = False) -> dict[str, float]:
        """Self time by span name over ``roots`` and all their descendants,
        plus aggregated calls attributed to their enclosing spans (and,
        with ``loose``, aggregated calls made outside any span)."""
        keep = {r[0] for r in roots}
        changed = True
        while changed:  # close over descendants
            changed = False
            for sid, span in self.spans.items():
                if sid not in keep and span[4] in keep:
                    keep.add(sid)
                    changed = True
        by_name: dict[str, float] = defaultdict(float)
        for sid in keep:
            by_name[self.spans[sid][1]] += self.self_s[sid]
            for name, seconds in self.spans[sid][6].items():
                by_name[name] += seconds
        if loose:
            for name, seconds in self.loose.items():
                by_name[name] += seconds
        return dict(by_name)


def _p50(values) -> float:
    return statistics.median(values) if values else 0.0


def _mean(values) -> float:
    return sum(values) / len(values) if values else 0.0


def layer_metrics(batch: Trace, serve: Trace, recovered: Trace, client: dict, program: dict) -> dict[str, float]:
    """The per-layer metrics, named as in ``BENCHMARK.json``.

    ``client`` holds client-side latencies (ms) by route and the path
    windows; ``program`` holds counts the program reports itself.
    """
    m: dict[str, float] = {}
    m["feed.http.overhead_p50_ms"] = _p50(client["GET /feed"]) - _p50(serve.durations_ms("feed.service.read"))
    ingests = serve.named("feed.service.ingest")
    m["feed.service.self_ms_per_post"] = _mean([serve.self_s[s[0]] * 1e3 for s in ingests])
    m["service.engine_ms_per_post"] = _mean(serve.durations_ms("service.ingest"))
    m["multiuser.build_s"] = serve.total("multiuser.build")
    m.update(program["core"])
    offer_batches = batch.named("parallel.offer_batch")
    m["parallel.self_s"] = sum(batch.self_s[s[0]] for s in offer_batches)
    m["io.load_inputs_s"] = serve.total("io.load_graph") + serve.total("io.load_subscriptions")
    m["io.decode_s"] = batch.aggregates.get("io.decode", [0, 0.0])[1]
    m["io.encode_s"] = batch.aggregates.get("io.encode", [0, 0.0])[1]
    m["feed.mailbox.fanout_ms_per_post"] = _mean(serve.durations_ms("feed.mailbox.fanout"))
    m["feed.mailbox.deliveries"] = program["deliveries"]
    m["feed.mailbox.expire_s"] = serve.total("feed.mailbox.expire")
    m["feed.mailbox.read_us_p50"] = _p50(serve.durations_ms("feed.mailbox.read")) * 1e3
    m["feed.mailbox.impress_us_p50"] = _p50(serve.durations_ms("feed.mailbox.impressions")) * 1e3
    m["feed.wal.append_us_per_record"] = _mean(serve.durations_ms("feed.wal.append")) * 1e3
    m["feed.wal.records"] = program["wal_records"]
    m["feed.wal.fsyncs"] = program["wal_fsyncs"]
    snapshots = serve.named("feed.durable.snapshot")
    m["feed.durable.snapshots"] = len(snapshots)
    m["feed.durable.snapshot_s"] = serve.total("feed.durable.snapshot")
    m["feed.durable.capture_s"] = serve.total("feed.durable.capture")
    m["feed.durable.prune_s"] = serve.total("feed.wal.prune") + sum(
        s[3] - s[2] for s in serve.named("storage.framing.read") if serve.parent_name(s) == "feed.durable.snapshot"
    )
    m["feed.durable.snapshot_mb"] = serve.counters.get("storage.framing.bytes_written", 0.0) / (1 << 20)
    m["feed.durable.recover_load_s"] = recovered.total("feed.durable.load_best")
    m["feed.durable.replay_s"] = recovered.total("feed.durable.replay_record")
    m["feed.durable.replayed_records"] = len(recovered.named("feed.durable.replay_record"))
    m["feed.durable.recover_snapshot_s"] = sum(
        s[3] - s[2] for s in recovered.named("feed.durable.snapshot") if recovered.parent_name(s) == "feed.service.recover"
    )
    m["storage.framing.write_s"] = serve.total("storage.framing.write") + recovered.total("storage.framing.write")
    m["storage.framing.read_s"] = serve.total("storage.framing.read") + recovered.total("storage.framing.read")
    m["storage.framing.bytes_written"] = serve.counters.get("storage.framing.bytes_written", 0.0) + recovered.counters.get(
        "storage.framing.bytes_written", 0.0
    )
    m["resilience.checkpoint.snapshot_engine_s"] = serve.total("resilience.checkpoint.snapshot_engine") + recovered.total(
        "resilience.checkpoint.snapshot_engine"
    )
    m["resilience.checkpoint.load_engine_s"] = recovered.total("resilience.checkpoint.load_engine")
    return m


#: Path -> (process, root span names); None means every top-level span of
#: the process inside the path's client-side window.
PATHS = {
    "feed write": ("serve", {"feed.http.posts"}),
    "feed read": ("serve", {"feed.http.feed"}),
    "impressions": ("serve", {"feed.http.impressions"}),
    "recovery": ("recovered", None),
    "batch offer": ("batch", None),
}


#: How far self time may exceed a path's end-to-end time (clock reads on
#: both sides of a request) before the breakdown is called wrong.
OVERCOUNT_TOLERANCE_S = 1e-3


def path_breakdown(traces: dict[str, Trace], client: dict) -> dict[str, dict]:
    """For each path: its traced end-to-end time, the self time of every
    span on it, and the remainder no span covers (end-to-end time minus
    the self times). See :func:`overcounted` for what a negative
    remainder means."""
    report = {}
    for path, (process, names) in PATHS.items():
        trace = traces[process]
        window = client["windows"].get(path)
        roots = trace.roots_within(names, window if names is None else None)
        selfs = trace.subtree_self(roots, loose=names is None)
        total = client["path_s"][path]
        covered = sum(selfs.values())
        report[path] = {
            "e2e_s": total,
            "self_s": dict(sorted(selfs.items(), key=lambda kv: -kv[1])),
            "remainder_s": total - covered,
        }
    return report


def overcounted(report: dict[str, dict]) -> list[str]:
    """Paths whose self times add up to more than their end-to-end time:
    span time counted twice (spans of concurrent threads under one path)
    or taken from outside the path's window (aggregates made elsewhere in
    the process). The breakdown of such a path is wrong."""
    return [
        f"{path}: self times exceed end-to-end {row['e2e_s']:.4f}s by {-row['remainder_s']:.4f}s"
        for path, row in report.items()
        if row["remainder_s"] < -OVERCOUNT_TOLERANCE_S
    ]
