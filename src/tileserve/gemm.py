"""Fixed-tile GEMM with virtual padding on the token dimension.

The primitive only ever multiplies full (tileM x tileK) by
(tileK x tileN) buffers. Arbitrary token counts are handled by
padding A with zero rows to whole tiles (selective read, zeros
elsewhere) and returning only the valid rows (selective write); no
padded data ever reaches the output. The host runs every tile of a K
step as one matmul over the padded A: the task table decides which
tiles exist and is checked to cover the grid, and since no tile's
result depends on another's, the order the cores would run them in
cannot change the output. Each attention call's output, every head of
its query tiles at once, is written straight into the tensor the
output projection reads, with no permuted copy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .planner import GridTable

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


def gemm_virtual_pad(a: np.ndarray, b: np.ndarray, prim: TilePrimitive, order: GridTable) -> np.ndarray:
    """C = A @ B with virtual padding on M.

    A is (M x K) fp32 with arbitrary M; K must be a multiple of the
    primitive's tileK. ``order`` is the linear op's task table, and it
    decides which (row, col) grid tiles exist: they must cover the grid,
    each tile once, or ``ShapeMismatch`` is raised. The check runs on a
    table's first use with each grid, and the table remembers a grid it
    passed (``GridTable.covers``), so the engine's per-(op, M) tables are
    not checked again in every layer of every chunk. A is padded with
    zero rows to whole tiles, and one matmul per K step, over every
    tile at once, accumulates in fp32 in ascending K. The padded rows
    are dropped from the result, which is deterministic and does not
    depend on the table's order.
    """
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeMismatch(f"incompatible operands {a.shape} @ {b.shape}")
    m, k = a.shape
    n = b.shape[1]
    if k % prim.tile_k != 0:
        raise ShapeMismatch(f"K={k} must be a multiple of tileK={prim.tile_k}")
    rows = -(-m // prim.tile_m)
    cols = -(-n // prim.tile_n)
    if (rows, cols) not in order.covers:
        i, j = order.cells
        outside = (i < 0) | (i >= rows) | (j < 0) | (j >= cols)
        if outside.any():
            at = outside.argmax()
            raise ShapeMismatch(f"tile ({i[at]}, {j[at]}) outside grid {(rows, cols)}")
        if not (np.bincount(i * cols + j, minlength=rows * cols) == 1).all():
            raise ShapeMismatch(f"task table does not cover the {(rows, cols)} grid once")
        order.covers.add((rows, cols))
    a_pad = np.zeros((rows * prim.tile_m, k), dtype=np.float32)
    a_pad[:m] = a
    b = np.asarray(b, dtype=np.float32)
    acc = a_pad[:, : prim.tile_k] @ b[: prim.tile_k]
    for k0 in range(prim.tile_k, k, prim.tile_k):
        acc += a_pad[:, k0 : k0 + prim.tile_k] @ b[k0 : k0 + prim.tile_k]
    return acc[:m]


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
    """Write one attention call's output, [rows, heads, headSize] with
    every head, straight into the [tokens, heads, headSize] tensor
    feeding the output projection."""
    if o.ndim != 3 or tile.shape[1:] != o.shape[1:]:
        raise ShapeMismatch(f"tile {tile.shape} does not match output tensor {o.shape}")
    rows = tile.shape[0]
    if row_start < 0 or row_start + rows > o.shape[0]:
        raise IndexOutOfRange(f"rows [{row_start}, {row_start + rows}) outside [0, {o.shape[0]})")
    o[row_start : row_start + rows] = tile
