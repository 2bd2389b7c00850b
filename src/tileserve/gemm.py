"""Fixed-tile GEMM with virtual padding on the token dimension.

The primitive only ever multiplies full (tileM x tileK) by
(tileK x tileN) buffers. Arbitrary token counts are handled by
allocating the on-chip buffer at full tile height, copying in only
the valid rows (selective read, zeros elsewhere), and writing back
only the valid rows (selective write); no padded data ever reaches
the output. Each query tile's attention output, every head at once, is
written straight into the tensor the output projection reads, with no
permuted copy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

SUPPORTED_TILE_MN = (16, 32, 64, 128, 256)
SUPPORTED_TILE_K = (64, 128)


class ShapeMismatch(ValueError):
    pass


class IndexOutOfRange(IndexError):
    pass


@dataclass(frozen=True)
class TilePrimitive:
    """A fixed-shape matmul kernel; no edge-case branches inside."""

    tile_m: int
    tile_n: int
    tile_k: int

    def __post_init__(self):
        for name, value, allowed in (
            ("tile_m", self.tile_m, SUPPORTED_TILE_MN),
            ("tile_n", self.tile_n, SUPPORTED_TILE_MN),
            ("tile_k", self.tile_k, SUPPORTED_TILE_K),
        ):
            if value not in allowed:
                raise ShapeMismatch(f"{name}={value} not in supported set {allowed}")


def gemm_virtual_pad(a: np.ndarray, b: np.ndarray, prim: TilePrimitive, order) -> np.ndarray:
    """C = A @ B with virtual padding on M.

    A is (M x K) fp32 with arbitrary M; K must be a multiple of the
    primitive's tileK. ``order`` is the linear op's task table: its
    ``all_items()`` are the (row, col) grid tiles, core by core, and
    must cover the grid. Accumulation is fp32 with tiles visited in
    ascending K, so the result is deterministic and independent of the
    visit order.
    """
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeMismatch(f"incompatible operands {a.shape} @ {b.shape}")
    m, k = a.shape
    n = b.shape[1]
    if k % prim.tile_k != 0:
        raise ShapeMismatch(f"K={k} must be a multiple of tileK={prim.tile_k}")
    out = np.empty((m, n), dtype=np.float32)
    a = np.ascontiguousarray(a, dtype=np.float32)
    b = np.ascontiguousarray(b, dtype=np.float32)
    rows = -(-m // prim.tile_m)
    cols = -(-n // prim.tile_n)
    a_buf = np.zeros((prim.tile_m, prim.tile_k), dtype=np.float32)
    for i, j in order.all_items():
        if not (0 <= i < rows and 0 <= j < cols):
            raise ShapeMismatch(f"tile ({i}, {j}) outside grid {(rows, cols)}")
        r0 = i * prim.tile_m
        valid = min(prim.tile_m, m - r0)
        c0 = j * prim.tile_n
        c1 = min(c0 + prim.tile_n, n)
        acc = np.zeros((prim.tile_m, c1 - c0), dtype=np.float32)
        for k0 in range(0, k, prim.tile_k):
            a_buf[:valid] = a[r0 : r0 + valid, k0 : k0 + prim.tile_k]
            a_buf[valid:] = 0.0
            acc += a_buf @ b[k0 : k0 + prim.tile_k, c0:c1]
        out[r0 : r0 + valid, c0:c1] = acc[:valid]
    return out


def smooth_shape(m: int, budget: int, grid: int | Sequence[int]) -> int:
    """Smallest supported size >= m.

    ``grid`` is either a step (supported sizes are its multiples up to
    the budget) or an explicit collection of supported sizes; the
    budget itself is always supported.
    """
    if not 1 <= m <= budget:
        raise ValueError(f"m={m} must be in [1, budget={budget}]")
    if isinstance(grid, int):
        sizes = list(range(grid, budget + 1, grid))
    else:
        sizes = sorted(s for s in grid if s <= budget)
    if not sizes or sizes[-1] != budget:
        sizes.append(budget)
    for s in sizes:
        if s >= m:
            return s
    return budget


def fused_sv_write(o: np.ndarray, row_start: int, tile: np.ndarray) -> None:
    """Write one query tile's attention output, [rows, heads, headSize]
    with every head, straight into the [tokens, heads, headSize] tensor
    feeding the output projection."""
    if o.ndim != 3 or tile.shape[1:] != o.shape[1:]:
        raise ShapeMismatch(f"tile {tile.shape} does not match output tensor {o.shape}")
    rows = tile.shape[0]
    if row_start < 0 or row_start + rows > o.shape[0]:
        raise IndexOutOfRange(f"rows [{row_start}, {row_start + rows}) outside [0, {o.shape[0]})")
    o[row_start : row_start + rows] = tile
