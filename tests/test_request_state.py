"""The one per-request record, ``scheduler.RequestState``, checked after
every chunk while ``Engine`` serves small mixed prefill/decode/verify
traces in both modes: its progress is its table's token count, which
no scheduler step writes (the record holds no count of its own), its
outputs and their ticks line up, the cache holds exactly its prompt and
outputs, it waits in the one queue its progress names, a speculative
record's tree is drafted from all of its outputs, and a retired record
holds no blocks. A record holds a tree only when the draft has nodes
past the root, and then its next chunk verifies that tree; a root-only
draft runs as a decode. Every verify keeps a chain from its tree's
root."""

from __future__ import annotations

import copy
import functools

import pytest
from hypothesis import given, settings, strategies as st

from tileserve.config import ServeConfig
from tileserve.engine import Engine, EngineRequest
from tileserve.kv_cache import PoolExhausted
from tileserve.oracle import ToyModel
from tileserve.scheduler import Stage
from tileserve.trace import gen_trace


@functools.lru_cache(maxsize=None)
def toy_model() -> ToyModel:
    return ToyModel.seeded(ServeConfig().model, seed=0)


def check_records(engine: Engine) -> None:
    sched = engine.sched
    assert not sched._in_flight
    queued = {}
    for name, queue in (("prefill", sched._prefill), ("decode", sched._decode), ("verify", sched._verify)):
        for rs in queue:
            assert id(rs) not in queued, rs.request.req_id
            queued[id(rs)] = name
    for rid, rs in engine.runtimes.items():
        prompt, outputs = rs.request.prompt, rs.outputs
        assert len(rs.token_ticks) == len(outputs) <= rs.request.output_len
        if rs.done:
            assert not rs.table.blocks and rid not in engine.cache._seqs and id(rs) not in queued
            continue
        total = rs.table.total_tokens
        assert engine.cache._seqs[rid].tokens == (prompt + outputs)[:total]
        if total < len(prompt):
            assert not outputs and queued[id(rs)] == "prefill"
            continue
        assert total == len(prompt) + len(outputs) - 1  # every output but the last has K/V
        if rs.request.spec is not None:
            tree = engine._propose(rs)  # drafted from every output before its root
            assert tree.tokens[0] == outputs[-1]
            assert rs.spec_tree == (tree if tree.spec_len > 1 else None)
        # A record with a tree to verify waits for a verify, any other for a decode.
        assert queued[id(rs)] == ("decode" if rs.spec_tree is None else "verify")


class CheckedEngine(Engine):
    """An engine that checks every record after each chunk."""

    def _execute_chunk(self, chunk) -> None:
        super()._execute_chunk(chunk)
        check_records(self)


# Prompts over four token ids, so prefixes repeat and hit the cache.
REQUESTS = st.lists(
    st.tuples(
        st.lists(st.integers(0, 3), min_size=1, max_size=20),
        st.integers(1, 8),  # output_len
        st.integers(0, 4000),  # arrival
        st.none() | st.tuples(st.integers(1, 2), st.integers(1, 3)),  # at most 7 tree tokens
    ),
    min_size=1,
    max_size=6,
)


@pytest.mark.parametrize("numeric", [True, False], ids=["numeric", "simulate"])
@settings(max_examples=40, deadline=None)
@given(
    requests=REQUESTS,
    budget=st.integers(8, 24),
    block_size=st.sampled_from((1, 2, 4)),
    cache_cap=st.integers(0, 8),
)
def test_every_live_record_agrees_with_its_table_and_the_cache_after_every_chunk(
    numeric, requests, budget, block_size, cache_cap
):
    cfg = ServeConfig(budget=budget, kv_block_size=block_size, kv_cache_cap_blocks=cache_cap)
    engine = CheckedEngine(cfg, toy_model() if numeric else None)
    for i, (prompt, output_len, arrival, spec) in enumerate(requests):
        engine.submit(EngineRequest(f"r{i}", prompt, output_len, arrival, spec))
    report = engine.run()
    assert report["completed"] == len(requests)
    for rid, rs in engine.runtimes.items():
        assert report["requests"][rid]["generated"] == len(rs.outputs) == rs.request.output_len


@pytest.mark.parametrize("numeric", [True, False], ids=["numeric", "simulate"])
@settings(max_examples=40, deadline=None)
@given(requests=REQUESTS, budget=st.integers(8, 24))
def test_every_kept_verify_path_is_a_chain_from_the_root(numeric, requests, budget):
    """What ``RadixKvCache.keep_path`` keeps of a verify is one root path
    of the tree it verifies (still the request's ``spec_tree`` then), at
    most the request's depth long: each node's parent is the node before
    it, so no siblings are committed as one sequence."""
    engine = Engine(ServeConfig(budget=budget), toy_model() if numeric else None)
    for i, (prompt, output_len, arrival, spec) in enumerate(requests):
        engine.submit(EngineRequest(f"r{i}", prompt, output_len, arrival, spec))
    keep_path = engine.cache.keep_path
    kept = []

    def keep_path_checked(table, kv_len, path):
        rs = next(rs for rs in engine.runtimes.values() if rs.table is table)
        parents = rs.spec_tree.parents
        assert 1 <= len(path) <= rs.request.spec[1] and path[0] == 0
        assert all(parents[node] == prev for prev, node in zip(path, path[1:])), path
        kept.append(path)
        return keep_path(table, kv_len, path)

    engine.cache.keep_path = keep_path_checked
    engine.run()
    assert len(kept) == sum(c["stages"].count("V") for c in engine.chunk_log)


class RoutingEngine(Engine):
    """An engine that checks, before each chunk runs, that its stages
    follow the records: a record holding a tree is a verify entry of that
    very tree, which has nodes past the root, and every other continuing
    record is in the decode run."""

    verified = 0  # verify entries run

    def _execute_chunk(self, chunk) -> None:
        for rs in chunk.decode_run:
            assert rs.spec_tree is None, rs.request.req_id
        for entry in chunk.entries:
            rs = entry.req
            if entry.stage is Stage.VERIFY:
                assert entry.spec_tree is rs.spec_tree and entry.spec_tree.spec_len > 1, rs.request.req_id
                self.verified += 1
            else:
                assert rs.spec_tree is None and not rs.outputs, rs.request.req_id
        super()._execute_chunk(chunk)


@pytest.mark.parametrize("numeric", [True, False], ids=["numeric", "simulate"])
@settings(max_examples=40, deadline=None)
@given(
    requests=st.lists(
        st.tuples(
            st.lists(st.integers(0, 3), min_size=1, max_size=20),
            st.integers(1, 12),  # output_len
            st.integers(0, 4000),  # arrival
            st.tuples(st.integers(1, 2), st.integers(1, 3)),
        ),
        min_size=1,
        max_size=6,
    ),
    budget=st.integers(8, 24),
)
def test_only_a_tree_past_the_root_is_verified_and_its_next_chunk_verifies_it(numeric, requests, budget):
    engine = RoutingEngine(ServeConfig(budget=budget), toy_model() if numeric else None)
    for i, (prompt, output_len, arrival, spec) in enumerate(requests):
        engine.submit(EngineRequest(f"r{i}", prompt, output_len, arrival, spec))
    report = engine.run()
    assert report["completed"] == len(requests)
    spec = report["spec"]
    stages = "".join(c["stages"] for c in engine.chunk_log)
    assert spec["verifies"] == engine.verified == stages.count("V")
    # Each step after a prompt's last slice is a verify or a decode.
    assert spec["verifies"] + spec["decoded"] == len(stages) - stages.count("P")


def record_fields(rs) -> dict:
    """A copy of a record's fields, the submitted request aside, that
    compares by value (a logits row by its bytes)."""
    fields = {name: copy.deepcopy(value) for name, value in vars(rs).items() if name not in ("request", "logits_rows")}
    return {**fields, "logits_rows": {pos: row.tobytes() for pos, row in rs.logits_rows.items()}}


class SnapshotEngine(Engine):
    """An engine that copies every record's fields just before each
    chunk is scheduled."""

    before: dict = {}

    def _admit_arrived(self) -> None:
        super()._admit_arrived()
        self.before = {rid: record_fields(rs) for rid, rs in self.runtimes.items()}


@pytest.mark.parametrize("numeric", [True, False], ids=["numeric", "simulate"])
def test_a_chunk_whose_reservation_fails_leaves_every_record_as_it_was(numeric):
    """A pool too small for the trace: the chunk whose blocks cannot be
    reserved raises ``PoolExhausted`` naming it, and every record, its
    table included, is as it was before that chunk was scheduled."""
    cfg = ServeConfig(budget=64, kv_block_size=4, kv_pool_blocks=160, kv_cache_cap_blocks=64)
    engine = SnapshotEngine(cfg, toy_model() if numeric else None, seed=1)
    for row in gen_trace("sharegpt_like", 1, 48, spec=(2, 3)):
        spec = row["spec"]
        engine.submit(EngineRequest(row["id"], row["prompt"], row["output_len"], row["arrival"], (spec["width"], spec["depth"])))
    with pytest.raises(PoolExhausted, match="^chunk 12: "):
        engine.run()
    assert {rid: record_fields(rs) for rid, rs in engine.runtimes.items()} == engine.before
