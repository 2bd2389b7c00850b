"""Tiled attention meta-kernel: matmul-softmax-matmul per tile unit.

One kernel body serves prefill, decode, and verify tiles. K/V is read
whole blocks at a time from the paged cache; positions past a row's
valid length (causal rule), past the sequence's last valid token
(block padding), or rejected by the speculative mask are forced to a
large negative sentinel before the exponentials, so they carry zero
probability mass. Long K/V ranges are folded in block-aligned splits
through the running-max online-softmax update.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gemm import QkvSel, fused_qkv_read
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
class AttentionTileJob:
    """Everything one tile needs: query source, paged K/V, masks, scale.

    ``q_rows`` addresses the tile's rows inside the chunk's fused QKV
    tensor. ``spec_mask`` must be present exactly for verify tiles.
    """

    tile: TileUnit
    qkv: np.ndarray  # [chunk_tokens, heads + 2*kvHeads, headSize]
    q_rows: tuple[int, int]
    kv: KvView
    scale: float
    kv_heads: int
    spec_mask: np.ndarray | None = None

    def __post_init__(self):
        if (self.tile.stage is Stage.VERIFY) != (self.spec_mask is not None):
            raise DimensionMismatch("spec_mask must be present iff the tile is a verify stage")


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


def causal_valid_len(q_global_row: int, kv_len: int) -> int:
    """Valid K/V length for a causal query row (self-inclusive)."""
    if q_global_row < 0:
        raise ValueError("q_global_row must be >= 0")
    return kv_len + q_global_row + 1


def attend_limit(tile: TileUnit) -> int:
    """Last K/V position (exclusive) any row of this tile may read."""
    if tile.stage is Stage.VERIFY:
        return tile.kv_len + tile.stage_tokens
    return causal_valid_len(tile.q_start + tile.q_len - 1, tile.kv_len)


def skip_plan(tile: TileUnit, kv_block_size: int) -> tuple[int, int]:
    """(computed, skipped) whole K/V blocks for a causal tile.

    A block is computed iff its first position is visible to the
    tile's last row; everything after is dead by the causal rule.
    Verify tiles have no causal skipping (their history span is fully
    valid), so all blocks are computed.
    """
    total_kv = tile.kv_len + tile.stage_tokens
    total_blocks = -(-total_kv // kv_block_size)
    if tile.stage is Stage.VERIFY:
        return total_blocks, 0
    limit = attend_limit(tile)
    computed = min(total_blocks, -(-limit // kv_block_size))
    return computed, total_blocks - computed


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


def run_tile(job: AttentionTileJob, kv_split_blocks: int | None = None) -> np.ndarray:
    """Execute one tile: scaled QK over whole blocks, masking, online
    softmax across K/V splits, and the attention-weighted value sum.

    Returns the tile's [qTileLen, headSize] output. Results agree with
    the dense reference for any split choice; only the floating-point
    reassociation differs.
    """
    tile = job.tile
    bs = job.kv.block_size
    limit = attend_limit(tile)
    if job.kv.total_tokens < limit:
        raise InconsistentBlockTable(
            f"block table covers {job.kv.total_tokens} tokens, tile needs {limit}"
        )
    n_heads = job.qkv.shape[1] - 2 * job.kv_heads
    kv_head = tile.head // (n_heads // job.kv_heads)
    q = fused_qkv_read(job.qkv, QkvSel.Q, tile.head, job.q_rows, job.kv_heads)
    q = np.asarray(q, dtype=np.float32)
    if q.shape[0] != tile.q_len:
        raise DimensionMismatch(f"q rows {q.shape[0]} != tile q_len {tile.q_len}")

    n_blocks = -(-limit // bs)
    valid_tokens = min(job.kv.total_tokens, n_blocks * bs)
    row_valid = _row_valid_lens(tile)
    state = SoftmaxState.fresh(tile.q_len, q.shape[1])
    for b0, b1 in plan_splits(n_blocks, kv_split_blocks):
        ids = list(job.kv.block_ids[b0:b1])
        k = job.kv.keys[ids][:, :, kv_head, :].reshape(-1, q.shape[1])
        v = job.kv.values[ids][:, :, kv_head, :].reshape(-1, q.shape[1])
        scores = np.float32(job.scale) * (q @ k.T)
        cols = b0 * bs + np.arange(scores.shape[1])
        scores[cols[None, :] >= row_valid[:, None]] = NEG_INF  # causal / span limit
        scores[:, cols >= valid_tokens] = NEG_INF  # padded tail of the last block
        if tile.stage is Stage.VERIFY:
            _mask_verify_split(scores, job.spec_mask, tile, cols)
        state.update(scores, v)
    return state.finalize()


def _row_valid_lens(tile: TileUnit) -> np.ndarray:
    if tile.stage is Stage.VERIFY:
        return np.full(tile.q_len, tile.kv_len + tile.stage_tokens)
    rows = tile.q_start + np.arange(tile.q_len)
    return tile.kv_len + rows + 1


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
