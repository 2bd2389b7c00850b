"""Attention kernel: ``run_tile`` against the dense fp64 oracle."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from tileserve.attention import run_tile
from tileserve.oracle import dense_attention
from tileserve.planner import TileUnit
from tileserve.scheduler import Stage
from tileserve.spec_decode import SpecTree, tree_mask

from conftest import pack_kv_view

# The kernel sums fp32 products over at most 48 K/V columns of N(0, 1)
# data and rescales across splits; its rows are convex combinations of
# V rows, so an absolute bound fits. Over 3000 examples the worst error
# was 2.4e-7.
ATOL = 1e-5


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
    head_size = 4
    total = tile.kv_len + tile.stage_tokens
    rng = np.random.default_rng(seed)
    q = rng.normal(size=(tile.q_len, heads, head_size)).astype(np.float32)
    k = rng.normal(size=(total, kv_heads, head_size)).astype(np.float32)
    v = rng.normal(size=(total, kv_heads, head_size)).astype(np.float32)
    scale = 1.0 / np.sqrt(head_size)
    spec_mask = None
    if tile.stage is Stage.VERIFY:
        spec_mask = tree_mask(SpecTree(tuple(range(tile.stage_tokens)), tuple(parents)))

    got = run_tile(tile, q, pack_kv_view(k, v, block_size), scale, split, spec_mask)

    assert got.shape == q.shape
    mask = dense_mask(tile, parents, total)
    for head in range(heads):
        kv_head = head // (heads // kv_heads)
        want = dense_attention(q[:, head], k[:, kv_head], v[:, kv_head], mask, scale)
        np.testing.assert_allclose(got[:, head], want, rtol=0, atol=ATOL, err_msg=f"head {head}")
