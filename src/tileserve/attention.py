"""Tiled attention meta-kernel: matmul-softmax-matmul per tile unit.

One kernel body serves prefill, decode, and verify tiles. How far a
tile attends is decided once, by ``TileUnit.reach`` in the planner:
the kernel reads the whole K/V blocks up to the reach from the paged
cache, and masks each row at its own limit (the reach for a verify
row, one column less per earlier row for a causal tile). Positions
past a row's limit, or rejected by the speculative tree mask, are
forced to a large negative sentinel before the exponentials, so they
carry zero probability mass; block padding lies past every row's
limit. Long K/V ranges are folded in block-aligned splits through the
running-max online-softmax update.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kv_cache import KvView
from .planner import TileUnit
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
    """Running row max, row sum, and rescaled accumulator across splits."""

    row_max: np.ndarray
    row_sum: np.ndarray
    accum: np.ndarray

    @classmethod
    def fresh(cls, rows: int, head_size: int) -> "SoftmaxState":
        return cls(
            row_max=np.full(rows, -np.inf, dtype=np.float32),
            row_sum=np.zeros(rows, dtype=np.float32),
            accum=np.zeros((rows, head_size), dtype=np.float32),
        )

    def update(self, scores: np.ndarray, v: np.ndarray) -> None:
        new_max = np.maximum(self.row_max, scores.max(axis=1))
        correction = np.exp(self.row_max - new_max)
        probs = np.exp(scores - new_max[:, None])
        self.row_sum = self.row_sum * correction + probs.sum(axis=1)
        self.accum = self.accum * correction[:, None] + probs @ v
        self.row_max = new_max

    def finalize(self) -> np.ndarray:
        return self.accum / self.row_sum[:, None]


def skip_plan(tile: TileUnit, kv_block_size: int) -> tuple[int, int]:
    """(computed, skipped) whole K/V blocks of a tile: the blocks up to
    its reach are computed, the rest of the stage's blocks skipped."""
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
    """Execute one tile: scaled QK over whole blocks, masking, online
    softmax across K/V splits, and the attention-weighted value sum.

    ``q`` holds the tile's query rows of every head, [qTileLen, heads,
    headSize]; the tile reads its own head and the K/V head of its
    group in ``kv``, the entry's K/V in one layer. ``spec_mask`` is the
    verify stage's tree mask and must be given exactly for verify tiles.

    Returns the tile's [qTileLen, headSize] output. Results agree with
    the dense reference for any split choice; only the floating-point
    reassociation differs.
    """
    if (tile.stage is Stage.VERIFY) != (spec_mask is not None):
        raise DimensionMismatch("spec_mask must be present iff the tile is a verify stage")
    if kv.total_tokens < tile.reach:
        raise InconsistentBlockTable(
            f"block table covers {kv.total_tokens} tokens, tile needs {tile.reach}"
        )
    if q.shape[0] != tile.q_len:
        raise DimensionMismatch(f"q rows {q.shape[0]} != tile q_len {tile.q_len}")
    kv_head = tile.head // (q.shape[1] // kv.keys.shape[2])
    q = np.asarray(q[:, tile.head], dtype=np.float32)
    bs = kv.block_size
    # Each causal row sees one column less than the row after it; every
    # verify row sees the whole span, which the tree mask then narrows.
    row_limit = np.full(tile.q_len, tile.reach)
    if tile.stage is not Stage.VERIFY:
        row_limit -= np.arange(tile.q_len)[::-1]
    state = SoftmaxState.fresh(tile.q_len, q.shape[1])
    for b0, b1 in plan_splits(tile.computed_blocks(bs), kv_split_blocks):
        ids = list(kv.block_ids[b0:b1])
        k = kv.keys[ids][:, :, kv_head, :].reshape(-1, q.shape[1])
        v = kv.values[ids][:, :, kv_head, :].reshape(-1, q.shape[1])
        scores = np.float32(scale) * (q @ k.T)
        cols = b0 * bs + np.arange(scores.shape[1])
        scores[cols[None, :] >= row_limit[:, None]] = NEG_INF
        if spec_mask is not None:
            _mask_verify_split(scores, spec_mask, tile, cols)
        state.update(scores, v)
    return state.finalize()


def _mask_verify_split(
    scores: np.ndarray, spec_mask: np.ndarray, tile: TileUnit, cols: np.ndarray
) -> None:
    spec_len = spec_mask.shape[0]
    if spec_mask.shape != (spec_len, spec_len) or spec_len != tile.stage_tokens:
        raise DimensionMismatch("spec mask must be specLen x specLen for the verify stage")
    # Columns in [kvLen, kvLen + specLen) follow the tree mask; history
    # columns are fully valid for every speculative row.
    in_spec = (cols >= tile.kv_len) & (cols < tile.kv_len + spec_len)
    if not in_spec.any():
        return
    spec_cols = (cols[in_spec] - tile.kv_len).astype(int)
    rows = tile.q_start + np.arange(tile.q_len)
    allowed = spec_mask[np.ix_(rows, spec_cols)]
    region = scores[:, in_spec]
    region[~allowed] = NEG_INF
    scores[:, in_spec] = region
