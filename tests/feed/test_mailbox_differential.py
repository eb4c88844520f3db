"""The columnar mailbox store against the plain deque model.

Hypothesis drives random op scripts — fanout with capacity overflow and
repeat receivers, reads at arbitrary cursors, impressions (stale and
foreign seqs included), expiry over non-monotone timestamps, unknown
receivers, the model's state loaded into a fresh store through
``load_arrays``, and a snapshot file written and loaded back — and after every op the pages, every counter
and ``state_dict()`` must equal :mod:`reference_store`'s.
"""

from __future__ import annotations

import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Post
from repro.errors import UnknownUserError
from repro.feed import MailboxConfig, MailboxStore
from repro.storage.framing import read_framed, write_framed

from .reference_store import ReferenceStore

USERS = (3, 7, 11, 40, 41)
STRANGER = 99

users = st.sampled_from(USERS)
stamps = st.integers(min_value=0, max_value=30).map(float)
ops = st.one_of(
    st.tuples(st.just("fanout"), st.lists(users, max_size=7), stamps),
    st.tuples(st.just("fanout"), st.lists(users, max_size=7), stamps),
    st.tuples(st.just("fanout"), st.lists(users, max_size=7), stamps),
    st.tuples(st.just("stranger"), st.lists(users, max_size=3)),
    st.tuples(
        st.just("read"),
        users,
        st.none() | st.integers(min_value=1, max_value=40),
        st.integers(min_value=1, max_value=5),
    ),
    st.tuples(st.just("impress"), users, st.lists(st.integers(0, 40), max_size=6)),
    st.tuples(st.just("expire"), stamps),
    st.tuples(st.just("load_model")),
    st.tuples(st.just("snapshot")),
)


def assert_same(store: MailboxStore, model: ReferenceStore) -> None:
    for name in (
        "deliveries", "evicted_capacity", "evicted_expired", "impressions",
        "mailbox_count", "total_entries", "total_seen",
    ):
        assert getattr(store, name) == getattr(model, name), name
    for user in USERS:
        assert store.depth_of(user) == model.depth_of(user)
    assert store.state_dict() == model.state_dict()


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    capacity=st.integers(min_value=1, max_value=4),
    window=st.sampled_from([math.inf, 4.0, 12.0]),
    script=st.lists(ops, max_size=40),
)
def test_columnar_store_matches_the_reference(capacity, window, script):
    config = MailboxConfig(capacity=capacity, window=window)
    store, model = MailboxStore(USERS, config), ReferenceStore(USERS, config)
    with tempfile.TemporaryDirectory() as scratch:
        snapshot = Path(scratch) / "mailbox.ckpt"
        for step, op in enumerate(script):
            kind = op[0]
            if kind == "fanout":
                post = Post(post_id=1000 + step, author=step % 4, text="", timestamp=op[2], fingerprint=0)
                assert store.fanout(post, iter(op[1])) == model.fanout(post, op[1])
            elif kind == "stranger":
                post = Post(post_id=step, author=0, text="", timestamp=0.0, fingerprint=0)
                for target in (store, model):
                    with pytest.raises(UnknownUserError):
                        target.fanout(post, [*op[1], STRANGER])
            elif kind == "read":
                _, user, cursor, limit = op
                assert store.read(user, cursor, limit) == model.read(user, cursor, limit)
            elif kind == "impress":
                assert store.record_impressions(op[1], op[2]) == model.record_impressions(
                    op[1], op[2]
                )
            elif kind == "expire":
                assert store.expire(op[1]) == model.expire(op[1])
            elif kind == "load_model":
                store = MailboxStore(USERS, config)
                store.load_arrays(model.snapshot_arrays())
            else:
                write_framed(snapshot, store.snapshot_arrays())
                store = MailboxStore(USERS, config)
                store.load_arrays(read_framed(snapshot))
            assert_same(store, model)
