"""Attention kernel: ``run_tile`` against the dense fp64 oracle, for one
query tile of any stage, for a batched decode run and for a batch of
prefill tiles, and the block table checks of its ``TileKv`` input."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tileserve.attention import DimensionMismatch, InconsistentBlockTable, TileKv, run_tile
from tileserve.kv_cache import BlockTable
from tileserve.oracle import dense_attention
from tileserve.planner import TileTable, TileUnit
from tileserve.scheduler import Stage
from tileserve.spec_decode import SpecTree, tree_mask

# The kernel sums fp32 products over at most 48 K/V columns of N(0, 1)
# data and rescales across splits; its rows are convex combinations of
# V rows, so an absolute bound fits. Over 3000 examples the worst error
# was 2.4e-7.
ATOL = 1e-5
HEAD_SIZE = 4


def pack_sequences(kvs: list[tuple[np.ndarray, np.ndarray]], block_size: int, seed: int):
    """One layer's K/V pools holding each dense [tokens, kvHeads, headSize]
    (k, v) pair in its own blocks, drawn in a shuffled order, and each
    sequence's block table."""
    needs = [-(-k.shape[0] // block_size) for k, _ in kvs]
    kv_heads = kvs[0][0].shape[1]
    # Block 0 stays unused, so padding a batch with it reads no sequence.
    order = 1 + np.random.default_rng(seed).permutation(sum(needs))
    keys = np.zeros((1 + sum(needs), block_size, kv_heads, HEAD_SIZE), dtype=np.float32)
    values = np.zeros_like(keys)
    tables = []
    for i, ((k, v), need) in enumerate(zip(kvs, needs)):
        blocks = order[sum(needs[:i]) : sum(needs[: i + 1])].tolist()
        for j, bid in enumerate(blocks):
            rows = slice(j * block_size, min((j + 1) * block_size, k.shape[0]))
            keys[bid, : rows.stop - rows.start] = k[rows]
            values[bid, : rows.stop - rows.start] = v[rows]
        tables.append(BlockTable(seq_id=i, blocks=blocks, total_tokens=k.shape[0]))
    return keys, values, tables


def assert_matches_dense(got, q, k, v, mask, scale) -> None:
    """Every head of ``got`` against the dense attention of its K/V head."""
    heads, kv_heads = q.shape[1], k.shape[1]
    for head in range(heads):
        kv_head = head // (heads // kv_heads)
        want = dense_attention(q[:, head], k[:, kv_head], v[:, kv_head], mask, scale)
        np.testing.assert_allclose(got[:, head], want, rtol=0, atol=ATOL, err_msg=f"head {head}")


@st.composite
def cases(draw):
    """A query tile of a random stage, its dense inputs and the kernel's options."""
    stage = draw(st.sampled_from(Stage))
    if stage is Stage.DECODE:
        stage_tokens = 1
    else:
        stage_tokens = draw(st.integers(1, 12 if stage is Stage.PREFILL else 8))
    q_start = draw(st.integers(0, stage_tokens - 1))
    q_len = draw(st.integers(1, stage_tokens - q_start))
    parents = [None] + [draw(st.integers(0, i - 1)) for i in range(1, stage_tokens)]
    kv_heads = draw(st.sampled_from((1, 2)))
    heads = kv_heads * draw(st.sampled_from((1, 2)))
    tile = TileUnit(
        stage_id=0,
        stage=stage,
        head=0,  # the kernel runs every head and does not read it
        q_start=q_start,
        q_len=q_len,
        kv_len=draw(st.integers(0, 30)),
        stage_tokens=stage_tokens,
    )
    block_size = draw(st.sampled_from((1, 4, 8)))
    blocks = -(-(tile.kv_len + stage_tokens) // block_size)
    split = draw(st.none() | st.integers(1, blocks + 1))
    return tile, parents, heads, kv_heads, block_size, split, draw(st.integers(0, 2**32 - 1))


def dense_mask(tile: TileUnit, parents: list[int | None], total: int) -> np.ndarray:
    """[q_len, total] mask of the tile's rows over the entry's K/V: causal
    rows see the history, earlier stage rows and themselves; tree rows see
    the history and their own ancestors."""
    mask = np.zeros((tile.q_len, total), dtype=bool)
    for r in range(tile.q_len):
        row = tile.q_start + r
        if tile.stage is not Stage.VERIFY:
            mask[r, : tile.kv_len + row + 1] = True
            continue
        mask[r, : tile.kv_len] = True
        node = row
        while node is not None:
            mask[r, tile.kv_len + node] = True
            node = parents[node]
    return mask


@settings(max_examples=300, deadline=None)
@given(cases())
def test_run_tile_matches_dense_attention(case):
    tile, parents, heads, kv_heads, block_size, split, seed = case
    total = tile.kv_len + tile.stage_tokens
    rng = np.random.default_rng(seed)
    q = rng.normal(size=(tile.q_len, heads, HEAD_SIZE)).astype(np.float32)
    k = rng.normal(size=(total, kv_heads, HEAD_SIZE)).astype(np.float32)
    v = rng.normal(size=(total, kv_heads, HEAD_SIZE)).astype(np.float32)
    scale = 1.0 / np.sqrt(HEAD_SIZE)
    spec_mask = None
    if tile.stage is Stage.VERIFY:
        spec_mask = tree_mask(SpecTree(tuple(range(tile.stage_tokens)), tuple(parents)))
    keys, values, tables = pack_sequences([(k, v)], block_size, seed)
    tiles = TileTable.of([tile])

    got = run_tile(tiles, q, keys, values, TileKv.of(tiles, tables, block_size, spec_mask), scale, split)

    assert got.shape == q.shape
    assert_matches_dense(got, q, k, v, dense_mask(tile, parents, total), scale)


@st.composite
def decode_runs(draw):
    """A decode run of mixed reaches, with the pool's block size, the
    K/V and query head counts, and the K/V split."""
    kv_lens = draw(st.lists(st.integers(0, 40), min_size=1, max_size=6))
    block_size = draw(st.sampled_from((1, 4, 8, 16)))
    kv_heads = draw(st.sampled_from((1, 2)))
    heads = kv_heads * draw(st.sampled_from((1, 2, 4)))
    longest = -(-(max(kv_lens) + 1) // block_size)
    split = draw(st.none() | st.integers(1, longest + 1))
    return kv_lens, block_size, heads, kv_heads, split, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=200, deadline=None)
@given(decode_runs())
def test_a_decode_run_in_one_call_and_tile_by_tile_matches_dense_attention(run):
    """The run's tiles in one batched call, padded to the longest reach,
    and each tile in a call of its own both give every decode row its
    dense attention over its own history and token."""
    kv_lens, block_size, heads, kv_heads, split, seed = run
    rng = np.random.default_rng(seed)
    kvs = [
        (rng.normal(size=(n + 1, kv_heads, HEAD_SIZE)).astype(np.float32),
         rng.normal(size=(n + 1, kv_heads, HEAD_SIZE)).astype(np.float32))
        for n in kv_lens
    ]
    q = rng.normal(size=(len(kv_lens), heads, HEAD_SIZE)).astype(np.float32)
    scale = 1.0 / np.sqrt(HEAD_SIZE)
    keys, values, tables = pack_sequences(kvs, block_size, seed)
    tiles = TileTable.of([TileUnit(i, Stage.DECODE, 0, 0, 1, n, 1) for i, n in enumerate(kv_lens)])

    batched = run_tile(tiles, q, keys, values, TileKv.of(tiles, tables, block_size), scale, split)
    for i, (k, v) in enumerate(kvs):
        tile = tiles[i : i + 1]
        alone = run_tile(tile, q[i : i + 1], keys, values, TileKv.of(tile, tables[i : i + 1], block_size), scale, split)
        for got in (batched[i : i + 1], alone):
            assert_matches_dense(got, q[i : i + 1], k, v, None, scale)


@st.composite
def prefill_batches(draw):
    """Causal prefill tiles of one query length > 1, each with its own
    history, stage length and place in its stage, with the pool's block
    size, the K/V and query head counts, and the K/V split."""
    q_len = draw(st.integers(2, 6))
    tiles = []
    for i in range(draw(st.integers(1, 5))):
        q_start = draw(st.integers(0, 8))
        stage_tokens = q_start + q_len + draw(st.integers(0, 4))
        tiles.append(TileUnit(i, Stage.PREFILL, 0, q_start, q_len, draw(st.integers(0, 30)), stage_tokens))
    block_size = draw(st.sampled_from((1, 4, 8, 16)))
    kv_heads = draw(st.sampled_from((1, 2)))
    heads = kv_heads * draw(st.sampled_from((1, 2)))
    longest = -(-max(tile.reach for tile in tiles) // block_size)
    split = draw(st.none() | st.integers(1, longest + 1))
    return tiles, block_size, heads, kv_heads, split, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=200, deadline=None)
@given(prefill_batches())
def test_a_prefill_batch_in_one_call_and_tile_by_tile_matches_dense_attention(batch):
    """Prefill tiles batched in one call, whose rows stop at different
    columns, and each tile in a call of its own both give every row its
    dense causal attention over its own sequence."""
    units, block_size, heads, kv_heads, split, seed = batch
    q_len = units[0].q_len
    rng = np.random.default_rng(seed)
    kvs = [
        (rng.normal(size=(u.kv_len + u.stage_tokens, kv_heads, HEAD_SIZE)).astype(np.float32),
         rng.normal(size=(u.kv_len + u.stage_tokens, kv_heads, HEAD_SIZE)).astype(np.float32))
        for u in units
    ]
    q = rng.normal(size=(len(units) * q_len, heads, HEAD_SIZE)).astype(np.float32)
    scale = 1.0 / np.sqrt(HEAD_SIZE)
    keys, values, tables = pack_sequences(kvs, block_size, seed)
    tiles = TileTable.of(units)

    batched = run_tile(tiles, q, keys, values, TileKv.of(tiles, tables, block_size), scale, split)
    for i, (unit, (k, v)) in enumerate(zip(units, kvs)):
        rows = slice(i * q_len, (i + 1) * q_len)
        tile = tiles[i : i + 1]
        alone = run_tile(tile, q[rows], keys, values, TileKv.of(tile, tables[i : i + 1], block_size), scale, split)
        mask = dense_mask(unit, [], k.shape[0])
        for got in (batched[rows], alone):
            assert_matches_dense(got, q[rows], k, v, mask, scale)


def test_a_short_table_inside_a_batch_is_refused():
    tiles = TileTable.of([TileUnit(i, Stage.DECODE, 0, 0, 1, n, 1) for i, n in enumerate((5, 9, 2))])
    tables = [BlockTable("a", [1], 6), BlockTable("b", [3, 4], 9), BlockTable("c", [5], 3)]
    with pytest.raises(InconsistentBlockTable, match=r"sequence 'b': block table covers 9 tokens, tile needs 10"):
        TileKv.of(tiles, tables, 8)
    tables[1].total_tokens = 10
    assert TileKv.of(tiles, tables, 8).block_ids.tolist() == [[1, 0], [3, 4], [5, 0]]


def test_tile_inputs_that_do_not_fit_are_refused():
    decodes = TileTable.of([TileUnit(i, Stage.DECODE, 0, 0, 1, 3, 1) for i in range(2)])
    verify = TileTable.of([TileUnit(0, Stage.VERIFY, 0, 0, 2, 3, 2)])
    table = BlockTable("s", [0], 5)
    with pytest.raises(DimensionMismatch, match="as many block tables"):
        TileKv.of(decodes, [table], 8)
    with pytest.raises(DimensionMismatch, match="spec_mask must be present"):
        TileKv.of(verify, [table], 8)
    with pytest.raises(DimensionMismatch, match="spec mask must be specLen x specLen"):
        TileKv.of(verify, [table], 8, np.ones((3, 3), dtype=bool))
    mixed = TileTable.of([*decodes, TileUnit(2, Stage.PREFILL, 0, 0, 2, 3, 2)])
    for batch in (mixed, TileTable.of([*verify, *verify])):
        with pytest.raises(DimensionMismatch, match="a batch runs causal tiles of one query length"):
            TileKv.of(batch, [table] * len(batch), 8)
    kv = TileKv.of(decodes, [table, table], 8)
    pool = np.zeros((1, 8, 1, HEAD_SIZE), dtype=np.float32)
    with pytest.raises(DimensionMismatch, match="q rows 3"):
        run_tile(decodes, np.zeros((3, 1, HEAD_SIZE), dtype=np.float32), pool, pool, kv, 1.0)
