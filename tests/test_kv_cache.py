"""Radix K/V cache: prefix matching, copy-on-write, batch reservations,
LRU eviction, and one-token commits against one commit of the same run."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tileserve.kv_cache import PoolExhausted, RadixKvCache

from conftest import kv_rows

KV_HEADS = 1
HEAD = 4


def commit(cache: RadixKvCache, table, tokens: list[int], start_pos: int, **kw):
    k, v = kv_rows(tokens, start_pos, KV_HEADS, HEAD)
    cache.commit_tokens(table, tokens, **kw)
    cache.write_kv(table, 0, start_pos, k, v)
    return table


def build_seq(cache: RadixKvCache, seq_id, tokens: list[int]):
    """Start a sequence and commit the tokens its match left; a failed
    commit releases the sequence, so its matched prefix is not pinned."""
    table = cache.start_sequence(seq_id, tokens)
    matched = table.total_tokens
    try:
        commit(cache, table, tokens[matched:], matched)
    except PoolExhausted:
        cache.release_sequence(table)
        raise
    return table, matched


def release_all(cache: RadixKvCache, live: dict) -> None:
    """Release every live sequence; then nothing may stay referenced,
    and every block is free or cached."""
    for table, _ in live.values():
        cache.release_sequence(table)
    part = cache.pool_partition()
    assert part["referenced"] == set()
    assert len(part["free"]) + len(part["cached"]) == cache.pool_blocks
    assert not any(cache.ref_count)


def lcp_oracle(query: list[int], cached: list[list[int]]) -> int:
    """Brute force: longest common prefix between the query and any
    fully cached token path (block-complete prefixes only)."""
    best = 0
    for path in cached:
        n = 0
        for a, b in zip(query, path):
            if a != b:
                break
            n += 1
        best = max(best, n)
    return best


# ---------------------------------------------------------------------------
# match_prefix
# ---------------------------------------------------------------------------


class TestMatchPrefix:
    def test_empty_query(self, small_cache):
        m = small_cache.match_prefix([])
        assert m.matched_len == 0 and m.blocks == []

    def test_partial_block_match(self, small_cache):
        # Tree holds ABCD as two blocks; ABCE matches 3 tokens, the last
        # block is returned with one valid token.
        table, _ = build_seq(small_cache, "s0", [10, 11, 12, 13])
        m = small_cache.match_prefix([10, 11, 12, 99])
        assert m.matched_len == 3
        assert m.blocks == table.blocks[:2]
        small_cache.release_blocks(m)

    def test_full_match(self, small_cache):
        table, _ = build_seq(small_cache, "s0", [10, 11, 12, 13])
        m = small_cache.match_prefix([10, 11, 12, 13])
        assert m.matched_len == 4
        assert m.blocks == table.blocks
        small_cache.release_blocks(m)

    def test_match_pins_blocks(self, small_cache):
        build_seq(small_cache, "s0", [10, 11, 12, 13])
        m = small_cache.match_prefix([10, 11])
        bid = m.blocks[0]
        assert small_cache.ref_count[bid] == 2  # s0 plus the match
        small_cache.release_blocks(m)
        assert small_cache.ref_count[bid] == 1

    def test_matches_equal_brute_force_lcp(self):
        rng = np.random.default_rng(7)
        cache = RadixKvCache(block_size=2, pool_blocks=4096, cache_cap_blocks=4096, kv_heads=KV_HEADS, head_size=HEAD)
        cached_paths: list[list[int]] = []
        for i in range(60):
            tokens = rng.integers(0, 4, size=rng.integers(1, 12)).tolist()
            try:
                build_seq(cache, f"s{i}", tokens)
            except PoolExhausted:
                break
            # only block-complete prefixes are reachable in the tree
            cached_paths.append(tokens[: len(tokens) // 2 * 2])
        for _ in range(1000):
            query = rng.integers(0, 4, size=rng.integers(0, 14)).tolist()
            m = cache.match_prefix(query)
            assert m.matched_len == lcp_oracle(query, cached_paths)
            cache.release_blocks(m)


# ---------------------------------------------------------------------------
# commit_tokens
# ---------------------------------------------------------------------------


class TestCommit:
    def test_zero_tokens_identity(self, small_cache):
        table, _ = build_seq(small_cache, "s0", [1, 2, 3])
        blocks, total = list(table.blocks), table.total_tokens
        commit(small_cache, table, [], 3)
        assert table.blocks == blocks and table.total_tokens == total

    def test_block_arithmetic(self, small_cache):
        table = small_cache.start_sequence("s0", [5, 6, 7])
        commit(small_cache, table, [5, 6, 7], 0)
        assert len(table.blocks) == 2
        assert table.total_tokens == 3
        assert table.last_block_tokens(small_cache.block_size) == 1

    def test_cow_on_shared_partial_block(self, small_cache):
        # s0 caches ABCD; s1 matches ABC (half of the second block) and
        # appends one token: the old block must stay unchanged.
        t0, _ = build_seq(small_cache, "s0", [10, 11, 12, 13])
        shared = t0.blocks[1]
        before_k = small_cache.keys[0, shared].copy()
        t1 = small_cache.start_sequence("s1", [10, 11, 12, 99])
        assert t1.total_tokens == 3
        commit(small_cache, t1, [99], 3)
        assert t1.blocks[1] != shared
        assert t1.last_block_tokens(small_cache.block_size) == 2
        np.testing.assert_array_equal(small_cache.keys[0, shared], before_k)

    def test_exclusive_block_appends_in_place(self, small_cache):
        table = small_cache.start_sequence("s0", [1, 2, 3])
        commit(small_cache, table, [1], 0)
        bid = table.blocks[-1]
        commit(small_cache, table, [2], 1)
        assert table.blocks[-1] == bid  # no copy for a private block

    def test_full_blocks_enter_tree(self, small_cache):
        build_seq(small_cache, "s0", [1, 2, 3, 4, 5])
        # two full blocks cached, the trailing single token is private
        assert small_cache.cached_block_count() == 2

    def test_uncacheable_commit_stays_out_of_tree(self, small_cache):
        table = small_cache.start_sequence("s0", [1, 2, 3, 4])
        commit(small_cache, table, [1, 2, 3, 4], 0, cacheable=False)
        assert small_cache.cached_block_count() == 0

    def test_pool_exhausted(self):
        cache = RadixKvCache(block_size=2, pool_blocks=2, cache_cap_blocks=0, kv_heads=KV_HEADS, head_size=HEAD)
        table = cache.start_sequence("s0", list(range(6)))
        with pytest.raises(PoolExhausted, match="'s0' needs 3"):
            commit(cache, table, list(range(6)), 0)
        # All or nothing: a failed commit leaves no trace, also when the
        # last block has room for part of it.
        assert table.blocks == [] and table.total_tokens == 0
        assert cache._seqs["s0"].tokens == []
        assert cache.free_block_count() == 2
        commit(cache, table, [0], 0)
        blocks, tokens = list(table.blocks), list(cache._seqs["s0"].tokens)
        with pytest.raises(PoolExhausted):
            commit(cache, table, list(range(1, 6)), 1)
        assert table.blocks == blocks and table.total_tokens == 1
        assert cache._seqs["s0"].tokens == tokens == [0]
        assert cache.free_block_count() == 1

    def test_truncate_rolls_back_private_tail(self, small_cache):
        table = small_cache.start_sequence("s0", [1, 2, 3, 4, 5])
        commit(small_cache, table, [1, 2, 3], 0)
        commit(small_cache, table, [4, 5], 3, cacheable=False)
        small_cache.truncate_tokens(table, 3)
        assert table.total_tokens == 3
        assert len(table.blocks) == 2
        free_before = small_cache.free_block_count()
        commit(small_cache, table, [4, 5], 3)
        assert small_cache.free_block_count() <= free_before

    def test_release_frees_private_blocks_in_table_order(self, small_cache):
        """Uncached blocks go back on the free list in table order; an
        unreferenced cached leaf becomes evictable instead."""
        table = small_cache.start_sequence("s0", [1, 2, 3, 4, 5])
        commit(small_cache, table, [1, 2], 0)
        commit(small_cache, table, [3, 4, 5], 2, cacheable=False)
        cached, *private = table.blocks
        free = list(small_cache._free)
        small_cache.release_sequence(table)
        assert small_cache._free == free + private
        assert small_cache.evict(1) == 1 and small_cache._free[-1] == cached


def pool_state(cache: RadixKvCache, tables: list) -> tuple:
    return [(list(t.blocks), t.total_tokens) for t in tables], list(cache.ref_count), list(cache._free)


class TestReserveBlocks:
    def test_a_batch_that_does_not_fit_changes_nothing(self):
        # Six 2-token blocks, nothing cached: ``a`` holds two (the last with
        # room), ``b`` one (full), so three are free. ``a`` needs none for one
        # token, ``b`` one for two, and ``c`` three for five: two are left.
        cache = RadixKvCache(block_size=2, pool_blocks=6, cache_cap_blocks=0, kv_heads=KV_HEADS, head_size=HEAD)
        a, _ = build_seq(cache, "a", [1, 2, 3])
        b, _ = build_seq(cache, "b", [4, 5])
        c = cache.start_sequence("c", [6] * 5)
        before = pool_state(cache, [a, b, c])
        evicts = []
        cache.evict = lambda needed: evicts.append(needed) or 0
        with pytest.raises(PoolExhausted) as err:
            cache.reserve_blocks([(a, 1), (b, 2), (c, 5)])
        assert str(err.value) == "sequence 'c' needs 3 K/V blocks for 5 tokens, 2 free of 6 after eviction"
        assert evicts == [1]
        assert pool_state(cache, [a, b, c]) == before

    def test_a_batch_that_fits_after_eviction_evicts_once(self):
        # A released 3-block chain leaves three free blocks and three
        # evictable ones; two 4-token prompts need four blocks.
        cache = RadixKvCache(block_size=2, pool_blocks=6, cache_cap_blocks=6, kv_heads=KV_HEADS, head_size=HEAD)
        cache.release_sequence(build_seq(cache, "x", [1, 2, 3, 4, 5, 6])[0])
        tables = [cache.start_sequence(sid, [sid] * 4) for sid in (7, 8)]
        evicts = []
        real_evict = cache.evict
        cache.evict = lambda needed: evicts.append(needed) or real_evict(needed)
        cache.reserve_blocks([(t, 4) for t in tables])
        assert evicts == [1] and cache.free_block_count() == 4
        for t in tables:
            cache.commit_tokens(t, [t.seq_id] * 4)
        assert evicts == [1] and cache.free_block_count() == 0

    def test_enough_free_blocks_for_every_token_evict_nothing(self, small_cache):
        table = small_cache.start_sequence("s0", [1, 2, 3])
        small_cache.evict = None  # any call would fail
        small_cache.reserve_blocks([(table, 3)])


# ---------------------------------------------------------------------------
# write_kv: one pool slice per layer
# ---------------------------------------------------------------------------


def two_layer_cache() -> RadixKvCache:
    return RadixKvCache(
        block_size=2, pool_blocks=16, cache_cap_blocks=8, kv_heads=KV_HEADS, head_size=HEAD, num_layers=2
    )


def write_layers(cache: RadixKvCache, table, tokens: list[int], start_pos: int) -> None:
    """Layer ``l`` gets the rows of ``kv_rows`` plus ``l``."""
    k, v = kv_rows(tokens, start_pos, KV_HEADS, HEAD)
    for layer in range(2):
        cache.write_kv(table, layer, start_pos, k + layer, v + layer)


class TestWriteKv:
    def test_layer_one_leaves_layer_zero_unchanged(self):
        cache = two_layer_cache()
        table = cache.start_sequence("s0", [1, 2, 3])
        cache.commit_tokens(table, [1, 2, 3])
        k, v = kv_rows([1, 2, 3], 0, KV_HEADS, HEAD)
        cache.write_kv(table, 0, 0, k, v)
        before = cache.keys[0].copy(), cache.values[0].copy()
        cache.write_kv(table, 1, 0, k + 1, v + 1)
        np.testing.assert_array_equal(cache.keys[0], before[0])
        np.testing.assert_array_equal(cache.values[0], before[1])
        pos = np.arange(3)
        blocks = np.asarray(table.blocks)[pos // 2]
        np.testing.assert_array_equal(cache.keys[1, blocks, pos % 2], k + 1)
        np.testing.assert_array_equal(cache.values[1, blocks, pos % 2], v + 1)

    def test_cow_copies_every_layer(self):
        cache = two_layer_cache()
        t0 = cache.start_sequence("s0", [10, 11, 12, 13])
        cache.commit_tokens(t0, [10, 11, 12, 13])
        write_layers(cache, t0, [10, 11, 12, 13], 0)
        shared = t0.blocks[1]
        before = cache.keys[:, shared].copy(), cache.values[:, shared].copy()
        t1 = cache.start_sequence("s1", [10, 11, 12, 99])
        cache.commit_tokens(t1, [99])
        write_layers(cache, t1, [99], 3)
        own = t1.blocks[1]
        assert own != shared
        np.testing.assert_array_equal(cache.keys[:, shared], before[0])
        np.testing.assert_array_equal(cache.values[:, shared], before[1])
        # Row 0 of the copy is the shared token 12, in both layers.
        np.testing.assert_array_equal(cache.keys[:, own, 0], before[0][:, 0])
        np.testing.assert_array_equal(cache.values[:, own, 0], before[1][:, 0])
        k, v = kv_rows([99], 3, KV_HEADS, HEAD)
        for layer in range(2):
            np.testing.assert_array_equal(cache.keys[layer, own, 1], k[0] + layer)
            np.testing.assert_array_equal(cache.values[layer, own, 1], v[0] + layer)

    def test_rows_outside_the_committed_tokens_raise(self, small_cache):
        table = small_cache.start_sequence("s0", [1, 2, 3])
        small_cache.commit_tokens(table, [1, 2, 3])
        k, v = kv_rows([3, 4], 2, KV_HEADS, HEAD)
        with pytest.raises(ValueError, match="outside"):
            small_cache.write_kv(table, 0, 2, k, v)
        with pytest.raises(ValueError, match="outside"):
            small_cache.write_kv(table, 0, -1, k, v)
        assert not small_cache.keys.any()


    def test_rows_outside_the_committed_tokens_have_no_slots(self, small_cache):
        table = small_cache.start_sequence("s0", [1, 2, 3])
        small_cache.commit_tokens(table, [1, 2, 3])
        with pytest.raises(ValueError, match="sequence 's0': rows 2..3 are outside its 3 committed tokens"):
            small_cache.kv_slots([(table, 0, 1), (table, 2, 2)])


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_one_scatter_per_layer_writes_what_write_kv_per_stage_writes(data):
    """A chunk's new K/V, written through ``kv_slots`` with one scatter per
    layer, leaves both pools byte-equal to one ``write_kv`` per stage and
    layer. The stages share prefixes, so some commits copy on write."""
    block_size = data.draw(st.sampled_from((1, 2, 4)), label="block_size")
    caches = [
        RadixKvCache(block_size, pool_blocks=64, cache_cap_blocks=32, kv_heads=2, head_size=HEAD, num_layers=2)
        for _ in range(2)
    ]
    prompts = data.draw(st.lists(st.lists(st.integers(0, 2), min_size=1, max_size=9), min_size=1, max_size=5))
    counts = [data.draw(st.integers(1, 7), label=f"new tokens {i}") for i in range(len(prompts))]
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    spans = [[], []]
    for cache, stage_spans in zip(caches, spans):
        for i, (prompt, n) in enumerate(zip(prompts, counts)):
            table = cache.start_sequence(i, prompt)
            start = table.total_tokens
            cache.commit_tokens(table, prompt[start:] + [3] * n)
            stage_spans.append((table, start, table.total_tokens - start))
    rows = sum(n for *_, n in spans[0])
    k = rng.normal(size=(2, rows, 2, HEAD)).astype(np.float32)
    v = rng.normal(size=(2, rows, 2, HEAD)).astype(np.float32)
    per_stage, scattered = caches
    slots = scattered.kv_slots(spans[1])
    for layer in range(2):
        row = 0
        for table, start, n in spans[0]:
            per_stage.write_kv(table, layer, start, k[layer, row : row + n], v[layer, row : row + n])
            row += n
        scattered.keys[layer].reshape(-1, 2, HEAD)[slots] = k[layer]
        scattered.values[layer].reshape(-1, 2, HEAD)[slots] = v[layer]
    assert len(set(slots.tolist())) == rows
    assert per_stage.keys.tobytes() == scattered.keys.tobytes()
    assert per_stage.values.tobytes() == scattered.values.tobytes()


# ---------------------------------------------------------------------------
# evict
# ---------------------------------------------------------------------------


class TestEvict:
    def test_empty_tree(self, small_cache):
        assert small_cache.evict(3) == 0

    def test_lru_order(self, small_cache):
        # Three cached one-block sequences, released so all leaves are
        # evictable; insertion order fixes last_used order.
        tables = []
        for i, tok in enumerate([[1, 2], [3, 4], [5, 6]]):
            t, _ = build_seq(small_cache, f"s{i}", tok)
            tables.append(t)
        ids = [t.blocks[0] for t in tables]
        for t in tables:
            small_cache.release_sequence(t)
        assert small_cache.evict(2) == 2
        part = small_cache.pool_partition()
        assert ids[0] in part["free"] and ids[1] in part["free"]
        assert ids[2] in part["cached"]

    def test_referenced_leaf_pinned(self, small_cache):
        t, _ = build_seq(small_cache, "s0", [1, 2])
        assert small_cache.evict(1) == 0  # still referenced by s0
        small_cache.release_sequence(t)
        assert small_cache.evict(1) == 1

    def test_non_leaf_never_evicted(self, small_cache):
        t0, _ = build_seq(small_cache, "s0", [1, 2, 3, 4])
        small_cache.release_sequence(t0)
        # Only the deeper block (leaf) may go first.
        assert small_cache.evict(1) == 1
        reachable = small_cache.reachable_block_ids()
        assert len(reachable) == 1

    def test_parent_joins_once_its_child_goes(self, small_cache):
        t0, _ = build_seq(small_cache, "s0", [1, 2, 3, 4, 5, 6])
        ids = list(t0.blocks)
        small_cache.release_sequence(t0)
        assert small_cache.evict(1) == 1
        assert ids[2] in small_cache.pool_partition()["free"]
        assert small_cache.evict(5) == 2  # the rest of the chain, deepest first
        assert small_cache.cached_block_count() == 0

    def test_stale_heap_entries_do_not_pile_up(self, small_cache):
        # Each release of a matched leaf queues it for eviction again; the
        # queue must not grow with the number of releases.
        t, _ = build_seq(small_cache, "s0", [1, 2])
        small_cache.release_sequence(t)
        for _ in range(500):
            small_cache.release_blocks(small_cache.match_prefix([1, 2]))
        assert len(small_cache._lru) <= 2 * small_cache.cached_block_count() + 64
        assert small_cache.evict(2) == 1

    def test_no_reachable_evicted_handles(self, small_cache):
        t0, _ = build_seq(small_cache, "s0", [1, 2, 3, 4, 5, 6])
        small_cache.release_sequence(t0)
        small_cache.evict(2)
        part = small_cache.pool_partition()
        assert small_cache.reachable_block_ids() == part["cached"]


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------


def test_pool_conservation_random_ops():
    rng = np.random.default_rng(11)
    cache = RadixKvCache(block_size=2, pool_blocks=64, cache_cap_blocks=24, kv_heads=KV_HEADS, head_size=HEAD)
    live: dict[str, tuple] = {}
    next_id = 0
    for step in range(2000):
        op = rng.random()
        if op < 0.45 or not live:
            tokens = rng.integers(0, 5, size=rng.integers(1, 10)).tolist()
            sid = f"s{next_id}"
            next_id += 1
            try:
                table, _ = build_seq(cache, sid, tokens)
                live[sid] = (table, tokens)
            except PoolExhausted:
                pass
        elif op < 0.7:
            sid = list(live)[int(rng.integers(len(live)))]
            table, tokens = live.pop(sid)
            cache.release_sequence(table)
        else:
            cache.evict(int(rng.integers(1, 4)))
        part = cache.pool_partition()
        total = len(part["free"]) + len(part["cached"]) + len(part["referenced"])
        assert total == cache.pool_blocks, f"leak at step {step}"
        assert not (part["free"] & part["cached"] & part["referenced"])
    release_all(cache, live)


def test_cow_isolation_shadow_map():
    """Replaying every live sequence's table returns exactly the K/V
    values committed for it, under random interleaved sharing."""
    rng = np.random.default_rng(3)
    cache = RadixKvCache(block_size=4, pool_blocks=256, cache_cap_blocks=128, kv_heads=KV_HEADS, head_size=HEAD)
    live: dict[str, tuple] = {}
    next_id = 0
    for _ in range(400):
        roll = rng.random()
        if roll < 0.5 or not live:
            tokens = rng.integers(0, 6, size=rng.integers(1, 18)).tolist()
            sid = f"s{next_id}"
            next_id += 1
            try:
                table, _ = build_seq(cache, sid, tokens)
                live[sid] = (table, list(tokens))
            except PoolExhausted:
                continue
        elif roll < 0.8:
            sid = list(live)[int(rng.integers(len(live)))]
            table, tokens = live[sid]
            extra = rng.integers(0, 6, size=rng.integers(1, 6)).tolist()
            try:
                commit(cache, table, extra, len(tokens))
                tokens.extend(extra)
            except PoolExhausted:
                continue
        else:
            sid = list(live)[int(rng.integers(len(live)))]
            table, _ = live.pop(sid)
            cache.release_sequence(table)

        # shadow check: every live sequence sees its own committed values,
        # every row of it, compared exactly in one gather per sequence
        for table, tokens in live.values():
            assert table.total_tokens == len(tokens)
            pos = np.arange(len(tokens))
            blocks = np.asarray(table.blocks)[pos // 4]
            want_k, want_v = kv_rows(tokens, 0, KV_HEADS, HEAD)
            np.testing.assert_array_equal(cache.keys[0, blocks, pos % 4], want_k)
            np.testing.assert_array_equal(cache.values[0, blocks, pos % 4], want_v)
    release_all(cache, live)


def test_shared_prefix_reuse_is_real():
    cache = RadixKvCache(block_size=2, pool_blocks=32, cache_cap_blocks=16, kv_heads=KV_HEADS, head_size=HEAD)
    t0, _ = build_seq(cache, "a", [7, 8, 9, 1])
    t1 = cache.start_sequence("b", [7, 8, 9, 1])
    assert t1.total_tokens == 4
    assert t1.blocks == t0.blocks  # physical sharing, not copies


def cache_state(cache: RadixKvCache, tables: dict) -> tuple:
    """What a commit may change: each table, the ref counts, the free
    list, the radix tree (content, block and recency of each node),
    each sequence's tokens, tree cursor and caching flag, and the stats."""

    def tree(node):
        return {key: (child.block_id, child.last_used, tree(child)) for key, child in node.children.items()}

    def path(node):
        return path(node.parent) + [node.block_id] if node.parent is not None else []

    return (
        {sid: (list(t.blocks), t.total_tokens) for sid, t in tables.items()},
        list(cache.ref_count),
        list(cache._free),
        tree(cache._root),
        {sid: (list(seq.tokens), path(seq.cursor), seq.caching_ok) for sid, seq in cache._seqs.items()},
        dict(cache.stats),
    )


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_one_token_commits_leave_what_one_commit_of_the_run_leaves(data):
    """Two caches run the same operations, except that the second commits
    every run of tokens one token at a time, as decodes do. Prompts share
    prefixes, so matches end inside cached blocks and the next commit
    copies them; runs may be non-cacheable, sequences are truncated and
    released, and a small cache cap evicts as blocks fill. The pool is
    large enough that no commit runs short of blocks."""
    bs = data.draw(st.integers(2, 4), label="block_size")
    cap = data.draw(st.integers(0, 6), label="cache_cap_blocks")
    caches = [RadixKvCache(bs, 256, cap, KV_HEADS, HEAD) for _ in range(2)]
    tables: list[dict] = [{}, {}]
    shared = [1, 2, 3, 1, 2, 3, 4, 5, 6, 7]
    small = st.lists(st.integers(0, 3), max_size=6)
    for step in range(data.draw(st.integers(1, 30), label="steps")):
        live = sorted(tables[0])
        op = data.draw(st.sampled_from(["start", "commit", "commit", "truncate", "release", "evict"] if live else ["start"]))
        sid = f"s{step}" if op == "start" else data.draw(st.sampled_from(live))
        if op == "start":
            arg = shared[: data.draw(st.integers(0, len(shared)))] + data.draw(small) or [0]
        elif op == "commit":
            arg = data.draw(small.filter(bool)), data.draw(st.booleans())
        elif op == "truncate":
            arg = data.draw(st.integers(0, tables[0][sid].total_tokens))
        else:
            arg = data.draw(st.integers(1, 3))
        outcomes = []
        for one_at_a_time, (cache, table_of) in enumerate(zip(caches, tables)):
            try:
                if op == "start":
                    table_of[sid] = cache.start_sequence(sid, arg)
                elif op == "commit":
                    run, cacheable = arg
                    for part in [[t] for t in run] if one_at_a_time else [run]:
                        cache.commit_tokens(table_of[sid], part, cacheable=cacheable)
                elif op == "truncate":
                    cache.truncate_tokens(table_of[sid], arg)
                elif op == "release":
                    cache.release_sequence(table_of.pop(sid))
                else:
                    cache.evict(arg)
                outcomes.append(None)
            except ValueError as exc:  # a truncation into the cached prefix
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]
        assert cache_state(caches[0], tables[0]) == cache_state(caches[1], tables[1]), (step, op)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_appending_a_run_leaves_what_one_commit_per_table_leaves(data):
    """Two caches run the same operations, except that a decode-like run,
    one token for each of several sequences, goes through one
    ``commit_tokens`` call per table in the first and one ``append_run``
    call in the second. Prompts share prefixes, so last blocks are partly
    matched tree nodes; appends fill blocks; a small or zero cache cap
    turns caching off for a sequence; multi-token and non-cacheable
    commits, truncations, releases and evictions come in between; and the
    pool is small enough that some appends run short, which both caches
    must raise at the same table."""
    bs = data.draw(st.integers(2, 4), label="block_size")
    pool = data.draw(st.integers(8, 40), label="pool_blocks")
    cap = data.draw(st.integers(0, 6), label="cache_cap_blocks")
    caches = [RadixKvCache(bs, pool, cap, KV_HEADS, HEAD) for _ in range(2)]
    tables: list[dict] = [{}, {}]
    shared = [1, 2, 3, 1, 2, 3, 4, 5, 6, 7]
    small = st.lists(st.integers(0, 3), max_size=6)
    for step in range(data.draw(st.integers(1, 30), label="steps")):
        live = sorted(tables[0])
        ops = ["start", "append", "append", "append", "commit", "truncate", "release", "evict"]
        op = data.draw(st.sampled_from(ops if live else ["start"]))
        sid = f"s{step}" if op in ("start", "append") else data.draw(st.sampled_from(live))
        if op == "start":
            arg = shared[: data.draw(st.integers(0, len(shared)))] + data.draw(small) or [0]
        elif op == "append":
            sids = data.draw(st.lists(st.sampled_from(live), min_size=1, unique=True))
            arg = sids, data.draw(st.lists(st.integers(0, 3), min_size=len(sids), max_size=len(sids)))
        elif op == "commit":
            arg = data.draw(small.filter(bool)), data.draw(st.booleans())
        elif op == "truncate":
            arg = data.draw(st.integers(0, tables[0][sid].total_tokens))
        else:
            arg = data.draw(st.integers(1, 3))
        outcomes = []
        for batched, (cache, table_of) in enumerate(zip(caches, tables)):
            try:
                if op == "start":
                    table_of[sid] = cache.start_sequence(sid, arg)
                elif op == "append" and batched:
                    cache.append_run([table_of[s] for s in arg[0]], arg[1])
                elif op == "append":
                    for s, token in zip(*arg):
                        cache.commit_tokens(table_of[s], [token])
                elif op == "commit":
                    cache.commit_tokens(table_of[sid], arg[0], cacheable=arg[1])
                elif op == "truncate":
                    cache.truncate_tokens(table_of[sid], arg)
                elif op == "release":
                    cache.release_sequence(table_of.pop(sid))
                else:
                    cache.evict(arg)
                outcomes.append(None)
            except (ValueError, PoolExhausted) as exc:  # a truncation into the cached prefix; a full pool
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]
        assert cache_state(caches[0], tables[0]) == cache_state(caches[1], tables[1]), (step, op)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_a_commit_copies_the_last_block_exactly_when_it_is_shared(data):
    """A commit adds one to ``cow_copies`` exactly when the table's last
    block has room and the tree caches it or another sequence holds it,
    and none when it fails. Prompts share prefixes, so matches end inside
    cached blocks; sequences are also truncated, released and evicted,
    and the pool is small enough that some commits run short."""
    bs = data.draw(st.integers(2, 4), label="block_size")
    pool = data.draw(st.integers(4, 24), label="pool_blocks")
    cache = RadixKvCache(bs, pool, data.draw(st.integers(0, 6), label="cache_cap_blocks"), KV_HEADS, HEAD)
    tables: dict = {}
    shared = [1, 2, 3, 1, 2, 3, 4, 5, 6, 7]
    small = st.lists(st.integers(0, 3), max_size=6)
    for step in range(data.draw(st.integers(1, 30), label="steps")):
        live = sorted(tables)
        op = data.draw(st.sampled_from(["start", "commit", "commit", "truncate", "release", "evict"] if live else ["start"]))
        if op == "start":
            prompt = shared[: data.draw(st.integers(0, len(shared)))] + data.draw(small) or [0]
            tables[f"s{step}"] = cache.start_sequence(f"s{step}", prompt)
            continue
        table = tables[data.draw(st.sampled_from(live))]
        if op == "commit":
            run, cacheable = data.draw(small.filter(bool)), data.draw(st.booleans())
            room = table.total_tokens < len(table.blocks) * bs
            last = table.blocks[-1] if room else None
            copies = int(room and (last in cache.pool_partition()["cached"] or cache.ref_count[last] > 1))
            before = cache.stats["cow_copies"]
            try:
                cache.commit_tokens(table, run, cacheable=cacheable)
            except PoolExhausted:
                copies = 0
            assert cache.stats["cow_copies"] - before == copies, step
        elif op == "truncate":
            try:
                cache.truncate_tokens(table, data.draw(st.integers(0, table.total_tokens)))
            except ValueError:  # into the cached prefix
                pass
        elif op == "release":
            cache.release_sequence(tables.pop(table.seq_id))
        else:
            cache.evict(data.draw(st.integers(1, 3)))
    release_all(cache, {sid: (t, None) for sid, t in tables.items()})
