"""Seeded inputs for the benchmark workloads.

Everything here is plain Python: the benchmark's reference must not share
code with the program it checks, so this module imports nothing from
``repro``. One seed fixes the whole input set (author graph, subscription
table, post stream, and the client's choices of users to read); the
*shape* of the inputs (sizes, densities) is fixed per workload, so every
seed draws an input of the same size and make-up.

Posts carry precomputed 64-bit fingerprints (the ``fingerprint`` field of
``posts.jsonl``), so the program never runs SimHash on them and the
reference needs no SimHash of its own. Redundancy comes from topics:
each author community owns a few base fingerprints, and a near-duplicate
post flips up to ``max_flip`` bits of one of them, so two near-duplicates
of one topic lie up to ``2 * max_flip`` bits apart — on both sides of the
content threshold when ``max_flip`` is 10 and λc is 18.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

#: The thresholds both ``repro serve`` and ``repro diversify`` ship with.
LAMBDA_C = 18
LAMBDA_T = 1800.0


@dataclass(frozen=True)
class Shape:
    """The make-up of one workload's inputs (fixed; the seed only draws)."""

    users: int
    authors: int
    community: int  # authors per community
    edge_p: float  # chance that two authors of one community are adjacent
    cross_edges: int  # extra edges between random authors of any community
    follows: int  # authors each user follows
    home_share: float  # chance a follow is drawn from the user's home community
    posts: int
    mean_gap: float  # mean seconds between consecutive posts
    topics: int  # base fingerprints per community
    dup_share: float  # share of posts that are near-duplicates of a topic
    max_flip: int  # bits a near-duplicate flips in its topic's base


@dataclass
class Inputs:
    """One workload's generated inputs."""

    nodes: list[int]
    edges: list[tuple[int, int]]
    subscriptions: dict[int, list[int]]
    posts: list[dict]
    rng: random.Random  # continues the seed's stream for client choices

    def write(self, directory) -> dict[str, str]:
        """Write graph.json, subscriptions.json and posts.jsonl in the
        formats ``repro`` reads; returns their paths by name."""
        paths = {
            "graph": str(directory / "graph.json"),
            "subscriptions": str(directory / "subscriptions.json"),
            "posts": str(directory / "posts.jsonl"),
        }
        with open(paths["graph"], "w", encoding="utf-8") as handle:
            json.dump({"nodes": self.nodes, "edges": [list(e) for e in self.edges]}, handle)
        with open(paths["subscriptions"], "w", encoding="utf-8") as handle:
            json.dump({str(u): a for u, a in self.subscriptions.items()}, handle)
        with open(paths["posts"], "w", encoding="utf-8") as handle:
            for post in self.posts:
                handle.write(json.dumps(post))
                handle.write("\n")
        return paths


def generate(shape: Shape, seed: int) -> Inputs:
    """Draw one input set of ``shape`` from ``seed``."""
    rng = random.Random(seed)
    authors = list(range(1, shape.authors + 1))
    communities = [
        authors[i : i + shape.community]
        for i in range(0, len(authors), shape.community)
    ]
    community_of = {a: c for c, members in enumerate(communities) for a in members}

    edges: set[tuple[int, int]] = set()
    for members in communities:
        for i, a in enumerate(members):
            for b in members[i + 1 :]:
                if rng.random() < shape.edge_p:
                    edges.add((a, b))
    within = len(edges)
    while len(edges) < within + shape.cross_edges:
        a, b = sorted(rng.sample(authors, 2))
        edges.add((a, b))

    subscriptions: dict[int, list[int]] = {}
    first_user = 1_000_000
    for user in range(first_user, first_user + shape.users):
        home = communities[rng.randrange(len(communities))]
        chosen: set[int] = set()
        while len(chosen) < shape.follows:
            pool = home if rng.random() < shape.home_share else authors
            chosen.add(pool[rng.randrange(len(pool))])
        subscriptions[user] = sorted(chosen)

    topic_bases = [
        [rng.getrandbits(64) for _ in range(shape.topics)] for _ in communities
    ]
    posts: list[dict] = []
    now = 0.0
    for post_id in range(1, shape.posts + 1):
        now += rng.expovariate(1.0 / shape.mean_gap)
        author = authors[rng.randrange(len(authors))]
        if rng.random() < shape.dup_share:
            fingerprint = rng.choice(topic_bases[community_of[author]])
            for _ in range(rng.randint(0, shape.max_flip)):
                fingerprint ^= 1 << rng.randrange(64)
        else:
            fingerprint = rng.getrandbits(64)
        posts.append(
            {
                "post_id": post_id,
                "author": author,
                "text": f"post {post_id} by author {author}",
                "timestamp": round(now, 3),
                "fingerprint": fingerprint,
            }
        )
    return Inputs(authors, sorted(edges), subscriptions, posts, rng)

