"""Tiled attention meta-kernel: matmul-softmax-matmul over query tiles.

One kernel body serves prefill, decode and verify tiles. A call runs
every head of its tiles: the query rows of the heads that share a K/V
head are stacked into one block of rows, so each K/V column is gathered
from the paged cache once for all heads. A call runs one tile, or a
batch of tiles of one query length (a chunk's decode run, as
PagedAttention runs every decode sequence in one launch over per-sequence
block tables).

What a call reads besides the layer's pools is fixed for the chunk and
built once, before the layer loop, as a ``TileKv``: each tile's block
ids (a [tiles, blocks] matrix, so one ``take`` per pool gathers the
whole call's K/V), how many K/V columns each tile reads, and one
additive bias. How far a tile attends is ``tile_reach``, decided in the
planner. One rule builds that input for a lone tile and a batch alike:
the call reads every tile's blocks up to the longest reach, and the bias
covers only the columns that some row may not attend. For causal tiles
those start at the smallest row limit: the last row of a lone prefill
tile's causal triangle, each row's own reach in a decode run. A verify
tile, which runs alone, is biased by its tree mask over its stage columns.
Masked scores sit at a large negative sentinel before the exponentials,
so they carry zero probability mass. Long K/V ranges are folded in
block-aligned splits through the running-max online-softmax update;
scaling, masking and the exponentials run in place.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .kv_cache import BlockTable
from .planner import STAGES, TileTable, TileUnit
from .scheduler import Stage

#: Large negative sentinel standing in for -inf; avoids NaN from inf - inf
#: in the max subtraction while still underflowing to exactly 0 under exp.
NEG_INF = np.float32(-1.0e30)

_VERIFY = STAGES.index(Stage.VERIFY)


class InconsistentBlockTable(ValueError):
    """Block table does not cover the K/V range the tile needs."""


class DimensionMismatch(ValueError):
    pass


@dataclass
class SoftmaxState:
    """Running row max, row sum, and rescaled accumulator across splits.

    Rows run over the last axis of the scores; any leading axes are a
    batch (here the tiles and K/V heads). Both steps overwrite the
    scores they are given with their exponentials."""

    row_max: np.ndarray
    row_sum: np.ndarray
    accum: np.ndarray

    @classmethod
    def start(cls, scores: np.ndarray, v: np.ndarray) -> "SoftmaxState":
        """The state after the first split: ``update`` from an empty
        state, without rescaling the zeros."""
        row_max = scores.max(axis=-1)
        probs = np.exp(np.subtract(scores, row_max[..., None], out=scores), out=scores)
        return cls(row_max=row_max, row_sum=probs.sum(axis=-1), accum=probs @ v)

    def update(self, scores: np.ndarray, v: np.ndarray) -> None:
        new_max = np.maximum(self.row_max, scores.max(axis=-1))
        correction = np.exp(self.row_max - new_max)
        probs = np.exp(np.subtract(scores, new_max[..., None], out=scores), out=scores)
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


@dataclass(frozen=True, eq=False)
class TileKv:
    """What a ``run_tile`` call reads of the paged K/V besides the
    layer's pools; it is the same in every layer, so a chunk builds it
    once per call with :meth:`of`.

    ``block_ids`` is [tiles, blocks]: each tile's K/V blocks, in order,
    with block 0 padding a tile that needs fewer than the longest.
    Each tile reads the first ``width`` K/V columns of its blocks, the
    longest reach. ``bias`` is None or a float32 [tiles, qTileLen, w]
    array, 0 where a row may attend and ``NEG_INF`` where it may not,
    added to the last w of those columns; None when every row attends
    every column."""

    block_ids: np.ndarray
    width: int
    bias: np.ndarray | None

    @classmethod
    def of(
        cls,
        tiles: TileTable,
        tables: Sequence[BlockTable],
        block_size: int,
        spec_mask: np.ndarray | None = None,
    ) -> "TileKv":
        """The input of ``tiles``, one tile or a batch of causal tiles of
        one query length, whose K/V sits in ``tables[i]`` for tile i.
        ``spec_mask`` is the verify stage's tree mask and must be given
        exactly for a verify tile.

        Raises:
            InconsistentBlockTable: a table covers fewer tokens than its
                tile's reach.
            DimensionMismatch: the tiles, tables and mask do not fit.
        """
        n = len(tiles)
        if n < 1 or len(tables) != n:
            raise DimensionMismatch(f"{n} tiles need as many block tables, not {len(tables)}")
        _, stage, _, q_start, q_len, _, stage_tokens, _ = tiles.cols[:, 0].tolist()
        if n > 1 and ((tiles.q_len != q_len).any() or (tiles.stage == _VERIFY).any() or spec_mask is not None):
            raise DimensionMismatch("a batch runs causal tiles of one query length")
        if (stage == _VERIFY) != (spec_mask is not None):
            raise DimensionMismatch("spec_mask must be present iff the tile is a verify stage")
        reach = tiles.reach.tolist()
        needs = [_covered_blocks(table, r, block_size) for table, r in zip(tables, reach)]
        longest = max(needs)
        block_ids = np.array(
            [table.blocks[:need] + [0] * (longest - need) for table, need in zip(tables, needs)], dtype=np.int64
        )
        width = max(reach)
        if spec_mask is not None:
            if spec_mask.shape != (stage_tokens, stage_tokens):
                raise DimensionMismatch("spec mask must be specLen x specLen for the verify stage")
            bias = np.where(spec_mask[q_start : q_start + q_len], np.float32(0), NEG_INF)
            return cls(block_ids, width, bias[None])
        # Row r of tile t attends its first reach[t] - q_len + 1 + r
        # columns, so every row attends the columns before ``start``.
        start = min(reach) - q_len + 1
        if start == width:
            return cls(block_ids, width, None)
        limit = tiles.reach[:, None] - q_len + 1 + np.arange(q_len)
        return cls(block_ids, width, np.where(np.arange(start, width) < limit[..., None], np.float32(0), NEG_INF))


def _covered_blocks(table: BlockTable, reach: int, block_size: int) -> int:
    """The blocks of ``table`` that hold a tile's first ``reach`` tokens."""
    if table.total_tokens < reach:
        raise InconsistentBlockTable(
            f"sequence {table.seq_id!r}: block table covers {table.total_tokens} tokens, tile needs {reach}"
        )
    return -(-reach // block_size)


def run_tile(
    tiles: TileTable,
    q: np.ndarray,
    keys: np.ndarray,
    values: np.ndarray,
    kv: TileKv,
    scale: float,
    kv_split_blocks: int | None = None,
) -> np.ndarray:
    """Execute a call's query tiles for every head: scaled QK, the
    additive mask, online softmax across K/V splits, and the
    attention-weighted value sum.

    ``q`` holds the tiles' query rows of every head, tile after tile,
    [tiles * qTileLen, heads, headSize]; query head h reads K/V head
    h // (heads // kvHeads). ``keys`` and ``values`` are one layer's
    pools, [pool_blocks, block_size, kvHeads, headSize], and ``kv`` the
    tiles' ``TileKv``. ``tiles.head`` is not read.

    Returns the tiles' [tiles * qTileLen, heads, headSize] output.
    Results agree with the dense reference for any split choice and any
    batch; only the floating-point reassociation differs.
    """
    n_tiles, n_blocks = kv.block_ids.shape
    rows, heads, head_size = q.shape
    q_len = int(tiles.q_len[0])
    if len(tiles) != n_tiles or rows != n_tiles * q_len:
        raise DimensionMismatch(
            f"q rows {rows} do not fit {len(tiles)} tiles of q_len {q_len} and {n_tiles} block rows"
        )
    _, bs, kv_heads, _ = keys.shape
    group = heads // kv_heads
    # The query heads of one K/V head, stacked into one block of rows:
    # [tiles, kvHeads, group * qTileLen, headSize], head-major within it.
    q_rows = q.reshape(n_tiles, q_len, kv_heads, group, head_size).transpose(0, 2, 3, 1, 4)
    q_rows = q_rows.reshape(n_tiles, kv_heads, group * q_len, head_size)
    # One gather per pool serves every tile and head; each K/V head reads
    # its columns through a strided view.
    k_all = keys.take(kv.block_ids, axis=0).reshape(n_tiles, n_blocks * bs, kv_heads, head_size)
    v_all = values.take(kv.block_ids, axis=0).reshape(n_tiles, n_blocks * bs, kv_heads, head_size)
    width = kv.width
    bias = kv.bias
    masked = width - bias.shape[-1] if bias is not None else width  # first biased column
    state = None
    for b0, b1 in plan_splits(n_blocks, kv_split_blocks):
        c0, c1 = b0 * bs, min(b1 * bs, width)
        k = k_all[:, c0:c1].transpose(0, 2, 3, 1)  # [tiles, kvHeads, headSize, span]
        v = v_all[:, c0:c1].transpose(0, 2, 1, 3)  # [tiles, kvHeads, span, headSize]
        scores = q_rows @ k
        scores *= np.float32(scale)
        if c1 > masked:
            lo = max(c0, masked)
            view = scores.reshape(n_tiles, kv_heads, group, q_len, c1 - c0)[..., lo - c0 :]
            view += bias[:, None, None, :, lo - masked : c1 - masked]
        if state is None:
            state = SoftmaxState.start(scores, v)
        else:
            state.update(scores, v)
    out = state.finalize().reshape(n_tiles, kv_heads, group, q_len, head_size)
    return out.transpose(0, 3, 1, 2, 4).reshape(rows, heads, head_size)
