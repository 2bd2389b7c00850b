"""Tiled attention meta-kernel: matmul-softmax-matmul per query tile.

One kernel body serves prefill, decode, and verify tiles, and one call
runs every head of a query tile. Heads are a batch dimension of the
body: the query rows of the heads that share a K/V head are stacked
into one block of rows, so each K/V split is gathered from the paged
cache once for all heads. How far a tile attends is decided once, by
``TileUnit.reach`` in the planner: the kernel reads the whole K/V
blocks up to the reach, and masks each row at its own limit (the
reach for a verify row, one column less per earlier row for a causal
tile). Positions past a row's limit, or rejected by the speculative
tree mask, are forced to a large negative sentinel before the
exponentials, so they carry zero probability mass; block padding lies
past every row's limit. Long K/V ranges are folded in block-aligned
splits through the running-max online-softmax update.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kv_cache import KvView
from .planner import TileTable, TileUnit
from .scheduler import Stage

#: Large negative sentinel standing in for -inf; avoids NaN from inf - inf
#: in the max subtraction while still underflowing to exactly 0 under exp.
NEG_INF = np.float32(-1.0e30)


class InconsistentBlockTable(ValueError):
    """Block table does not cover the K/V range the tile needs."""


class DimensionMismatch(ValueError):
    pass


@dataclass
class SoftmaxState:
    """Running row max, row sum, and rescaled accumulator across splits.

    Rows run over the last axis of the scores; any leading axes are a
    batch (here the K/V heads)."""

    row_max: np.ndarray
    row_sum: np.ndarray
    accum: np.ndarray

    @classmethod
    def start(cls, scores: np.ndarray, v: np.ndarray) -> "SoftmaxState":
        """The state after the first split: ``update`` from an empty
        state, without rescaling the zeros."""
        row_max = scores.max(axis=-1)
        probs = np.exp(scores - row_max[..., None])
        return cls(row_max=row_max, row_sum=probs.sum(axis=-1), accum=probs @ v)

    def update(self, scores: np.ndarray, v: np.ndarray) -> None:
        new_max = np.maximum(self.row_max, scores.max(axis=-1))
        correction = np.exp(self.row_max - new_max)
        probs = np.exp(scores - new_max[..., None])
        self.row_sum = self.row_sum * correction + probs.sum(axis=-1)
        self.accum = self.accum * correction[..., None] + probs @ v
        self.row_max = new_max

    def finalize(self) -> np.ndarray:
        return self.accum / self.row_sum[..., None]


def skip_plan(tile: TileUnit | TileTable, kv_block_size: int):
    """(computed, skipped) whole K/V blocks of a tile, or their columns for
    a table: the blocks up to the reach are computed, the rest skipped."""
    computed = tile.computed_blocks(kv_block_size)
    return computed, -(-(tile.kv_len + tile.stage_tokens) // kv_block_size) - computed


def plan_splits(n_blocks: int, kv_split_blocks: int | None) -> list[tuple[int, int]]:
    """[b0, b1) block ranges of ``n_blocks`` K/V blocks cut every
    ``kv_split_blocks`` blocks; one range when unsplit, none when there
    are no blocks."""
    if kv_split_blocks is not None and kv_split_blocks < 1:
        raise ValueError("kv_split_blocks must be >= 1")
    if n_blocks <= 0:
        return []
    if kv_split_blocks is None or kv_split_blocks >= n_blocks:
        return [(0, n_blocks)]
    return [
        (s, min(s + kv_split_blocks, n_blocks)) for s in range(0, n_blocks, kv_split_blocks)
    ]


def run_tile(
    tile: TileUnit,
    q: np.ndarray,
    kv: KvView,
    scale: float,
    kv_split_blocks: int | None = None,
    spec_mask: np.ndarray | None = None,
) -> np.ndarray:
    """Execute one query tile for every head: scaled QK over whole
    blocks, masking, online softmax across K/V splits, and the
    attention-weighted value sum.

    ``q`` holds the tile's query rows of every head, [qTileLen, heads,
    headSize]; query head h reads K/V head h // (heads // kvHeads) of
    ``kv``, the entry's K/V in one layer. ``tile.head`` is not read.
    ``spec_mask`` is the verify stage's tree mask and must be given
    exactly for verify tiles.

    Returns the tile's [qTileLen, heads, headSize] output. Results agree
    with the dense reference for any split choice; only the
    floating-point reassociation differs.
    """
    if (tile.stage is Stage.VERIFY) != (spec_mask is not None):
        raise DimensionMismatch("spec_mask must be present iff the tile is a verify stage")
    if kv.total_tokens < tile.reach:
        raise InconsistentBlockTable(
            f"block table covers {kv.total_tokens} tokens, tile needs {tile.reach}"
        )
    q_len, heads, head_size = q.shape
    if q_len != tile.q_len:
        raise DimensionMismatch(f"q rows {q_len} != tile q_len {tile.q_len}")
    kv_heads = kv.keys.shape[2]
    group = heads // kv_heads
    # The query heads of one K/V head, stacked into one block of rows:
    # [kvHeads, group * qTileLen, headSize], head-major within the block.
    q_rows = np.ascontiguousarray(
        q.reshape(q_len, kv_heads, group, head_size).transpose(1, 2, 0, 3), dtype=np.float32
    ).reshape(kv_heads, group * q_len, head_size)
    bs = kv.block_size
    n_blocks = tile.computed_blocks(bs)
    dead = _dead_columns(tile, n_blocks * bs, spec_mask)
    state = None
    for b0, b1 in plan_splits(n_blocks, kv_split_blocks):
        ids = kv.block_ids[b0:b1]
        span = (b1 - b0) * bs
        # One gather per split serves every head; each K/V head reads its
        # rows through a strided view, K as [kvHeads, headSize, span] and
        # V as [kvHeads, span, headSize].
        k = kv.keys.take(ids, axis=0).reshape(span, kv_heads, head_size).transpose(1, 2, 0)
        v = kv.values.take(ids, axis=0).reshape(span, kv_heads, head_size).transpose(1, 0, 2)
        scores = (np.float32(scale) * (q_rows @ k)).reshape(kv_heads, group, q_len, span)
        scores = np.where(dead[:, b0 * bs : b1 * bs], NEG_INF, scores)
        scores = scores.reshape(kv_heads, group * q_len, span)
        if state is None:
            state = SoftmaxState.start(scores, v)
        else:
            state.update(scores, v)
    out = state.finalize().reshape(kv_heads, group, q_len, head_size)
    return out.transpose(2, 0, 1, 3).reshape(q_len, heads, head_size)


def _dead_columns(tile: TileUnit, width: int, spec_mask: np.ndarray | None) -> np.ndarray:
    """[qTileLen, width] mask of the K/V columns each row of the tile must
    not attend. Each causal row sees one column less than the row after
    it; every verify row sees the history and the tree nodes its mask
    allows, up to the reach."""
    if spec_mask is None:
        row_limit = np.arange(tile.reach - tile.q_len + 1, tile.reach + 1)
        return np.arange(width) >= row_limit[:, None]
    spec_len = spec_mask.shape[0]
    if spec_mask.shape != (spec_len, spec_len) or spec_len != tile.stage_tokens:
        raise DimensionMismatch("spec mask must be specLen x specLen for the verify stage")
    dead = np.zeros((tile.q_len, width), dtype=bool)
    dead[:, tile.kv_len : tile.reach] = ~spec_mask[tile.q_start : tile.q_start + tile.q_len]
    dead[:, tile.reach :] = True
    return dead
