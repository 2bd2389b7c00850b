"""Offline-profiled GEMM task orderings.

An ordering descriptor names how a result-matrix tile grid is walked
(and thus dealt to cores): plain row/column major, or zigzag with a
column-group width that keeps a small set of weight panels hot in L2.
The profile store maps (op, M, N, K) to the tiling and ordering picked
by the offline simulator sweep.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class MissingProfile(KeyError):
    """Shape was never profiled; callers fall back to row-major order."""


@dataclass(frozen=True)
class OrderingDescriptor:
    kind: str  # "row_major" | "col_major" | "zigzag"
    width: int = 0


ROW_MAJOR = OrderingDescriptor("row_major")
COL_MAJOR = OrderingDescriptor("col_major")

#: Canonical candidate list; earlier entries win simulator ties.
CANDIDATE_ORDERINGS: tuple[OrderingDescriptor, ...] = (
    ROW_MAJOR,
    COL_MAJOR,
    OrderingDescriptor("zigzag", 2),
    OrderingDescriptor("zigzag", 4),
    OrderingDescriptor("zigzag", 8),
)


def grid_order(desc: OrderingDescriptor, rows: int, cols: int) -> np.ndarray:
    """Visit order of an (rows x cols) tile grid under a descriptor: an
    int64 [2, rows * cols] array of (row, col) cells, by index arithmetic
    over the row-major grid."""
    cells = np.indices((rows, cols), dtype=np.int64)
    if desc.kind == "row_major":
        return cells.reshape(2, -1)
    if desc.kind == "col_major":
        return cells.transpose(0, 2, 1).reshape(2, -1)
    if desc.kind == "zigzag":
        if desc.width < 1:
            raise ValueError("zigzag width must be >= 1")
        # Column groups of ``width``, each walked row-major; the last may be narrower.
        full = cols - cols % desc.width
        groups = cells[:, :, :full].reshape(2, rows, full // desc.width, desc.width)
        return np.concatenate(
            (groups.transpose(0, 2, 1, 3).reshape(2, -1), cells[:, :, full:].reshape(2, -1)), axis=1
        )
    raise ValueError(f"unknown ordering kind {desc.kind!r}")


@dataclass(frozen=True)
class ProfileEntry:
    tile_m: int
    tile_n: int
    tile_k: int
    order: OrderingDescriptor


class ProfileStore:
    """Key-value store: (op, M, N, K) -> ProfileEntry."""

    def __init__(self):
        self._entries: dict[tuple[str, int, int, int], ProfileEntry] = {}

    def put(self, op: str, m: int, n: int, k: int, entry: ProfileEntry) -> None:
        self._entries[(op, m, n, k)] = entry

    def get(self, op: str, m: int, n: int, k: int) -> ProfileEntry:
        try:
            return self._entries[(op, m, n, k)]
        except KeyError:
            raise MissingProfile((op, m, n, k)) from None

    def profiled_ms(self, op: str, n: int, k: int) -> list[int]:
        return sorted(m for (o, m, nn, kk) in self._entries if (o, nn, kk) == (op, n, k))
