"""Chunk decomposition into tile units and per-core task tables.

Attention work is cut along the query dimension into fixed-size tile
blocks, crossed with heads, weighted by the attended K/V area, sorted
heaviest-first, and dealt to cores in snake order (1..k, k..1, ...).
The units form a ``TileTable`` of int64 columns, cut from per-stage
columns (the chunk's decode run is already columns; ``np.repeat`` only
where an entry spans several tiles), so a chunk is cut, sorted, dealt
and priced by a fixed number of NumPy calls.
Linear work is a 2-D grid over the padded result matrix whose visit
order comes from the offline profile store. A ``GridTable`` holds that
order as (row, col) int64 columns and deals cell c to core c mod k, so
each core's tiles are a strided view of it: building a linear op's table
is index arithmetic, not a Python list per cell. The GEMM kernel and the
cost model read the same table.

``tile_reach`` is the one rule that decides how far a tile attends: the
``reach`` column holds it, and ``TileUnit.reach`` applies it to one unit.
The sort area, computed K/V blocks, kernel block loop and row masks,
and the cost model's unit costs all derive from it.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .config import ServeConfig
from .profiles import ROW_MAJOR, MissingProfile, ProfileStore, grid_order
from .scheduler import Chunk, Stage

STAGES = tuple(Stage)  # a ``TileTable`` row's ``stage`` is an index into this


class UnsupportedShape(ValueError):
    """Linear op dimensions are not aligned to the hardware quantum."""


def tile_reach(verify, kv_len, q_start, q_len, stage_tokens):
    """K/V length (exclusive) a tile's last row may attend: the history
    plus the stage rows up to and including that row for a causal tile,
    the history plus the whole speculative span for a verify tile (its
    tree mask narrows the span per row). Takes ints and a bool, or int64
    and bool columns; the arithmetic select serves both."""
    return kv_len + verify * stage_tokens + (1 - verify) * (q_start + q_len)


@dataclass(frozen=True)
class TileUnit:
    """One (query tile x head) attention work item."""

    stage_id: int
    stage: Stage
    head: int
    q_start: int
    q_len: int
    kv_len: int
    stage_tokens: int

    @property
    def reach(self) -> int:
        """``tile_reach`` of this unit."""
        return tile_reach(self.stage is Stage.VERIFY, self.kv_len, self.q_start, self.q_len, self.stage_tokens)

    def computed_blocks(self, kv_block_size: int) -> int:
        """Whole K/V blocks up to the reach; the stage's later blocks are
        dead under the causal rule and skipped."""
        return -(-self.reach // kv_block_size)


class TileTable:
    """(query tile x head) units as int64 columns: ``cols`` is [8, units],
    one row per ``TileUnit`` field (``stage`` as an index into ``STAGES``)
    and the reach. ``len`` counts units, iteration yields ``TileUnit``s,
    and a slice or mask index gives the table of those rows."""

    stage_id, stage, head, q_start, q_len, kv_len, stage_tokens, reach = (
        property(lambda table, row=row: table.cols[row]) for row in range(8)
    )

    def __init__(self, cols: np.ndarray):
        self.cols = cols

    @classmethod
    def of(cls, units: Sequence[TileUnit]) -> "TileTable":
        rows = [(u.stage_id, STAGES.index(u.stage), u.head, u.q_start, u.q_len, u.kv_len, u.stage_tokens) for u in units]
        return cls._with_reach(np.array(rows, dtype=np.int64).reshape(-1, 7).T)

    @classmethod
    def _with_reach(cls, cols: np.ndarray) -> "TileTable":
        reach = tile_reach(cols[1] == STAGES.index(Stage.VERIFY), cols[5], cols[3], cols[4], cols[6])
        return cls(np.vstack((cols, reach)))

    def __len__(self) -> int:
        return self.cols.shape[1]

    def __getitem__(self, index) -> "TileTable":
        return TileTable(self.cols[:, index])

    def __iter__(self):
        for sid, stage, head, q_start, q_len, kv_len, stage_tokens in self.cols[:7].T.tolist():
            yield TileUnit(sid, STAGES[stage], head, q_start, q_len, kv_len, stage_tokens)

    def computed_blocks(self, kv_block_size: int) -> np.ndarray:
        return -(-self.reach // kv_block_size)


@dataclass(frozen=True)
class TaskTable:
    """Attention tiles per core, each core's in run order; every tile
    appears exactly once. Linear ops use a ``GridTable``."""

    per_core: tuple[Sequence, ...]

    @property
    def core_num(self) -> int:
        return len(self.per_core)

    def all_items(self) -> list:
        return [item for core in self.per_core for item in core]


@dataclass(frozen=True, eq=False)
class GridTable:
    """A linear op's task table: ``cells`` is an int64 [2, cells] array
    of (row, col) grid tiles in visit order, and cell c runs on core
    c mod ``core_num``. ``priced`` keeps the cost model's results for
    this table (see ``simulate_linear``), so pricing it again is a
    lookup."""

    cells: np.ndarray
    core_num: int
    priced: dict = field(default_factory=dict, repr=False)

    @property
    def per_core(self) -> tuple[np.ndarray, ...]:
        """Each core's [2, tiles] (row, col) columns, in its run order."""
        return tuple(self.cells[:, core :: self.core_num] for core in range(self.core_num))


class LinearOp(Enum):
    QKV = "qkv"
    O_PROJ = "o_proj"
    GATE_UP = "gate_up"
    DOWN = "down"


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def decompose_attention(chunk: Chunk, head_num: int, cfg: ServeConfig) -> TileTable:
    """Split every stage along the query dimension and cross with heads:
    one row per (stage, query tile), repeated for each head. A stage's
    ``stage_id`` is its place in the chunk's flat order: decode ``i`` is
    stage ``i`` and ``entries[j]`` is stage ``decodes + j``.

    Every stage cuts at ``cfg.prefill_tile_size``, so a stage no
    longer than that is one tile, and the tiles follow from per-stage int
    columns, the decode rows straight from ``decode_kv``; only a chunk
    with an entry longer than one tile pays for the ``np.repeat`` that
    cuts it."""
    entries, d, size = chunk.entries, chunk.decodes, cfg.prefill_tile_size
    n = d + len(entries)
    if not n:
        raise ValueError("chunk must be nonempty")
    cols = np.zeros((7, n), dtype=np.int64)  # the TileUnit fields
    cols[0] = np.arange(n)
    cols[1, :d] = STAGES.index(Stage.DECODE)
    cols[4, :d] = cols[6, :d] = 1
    cols[5, :d] = chunk.decode_kv
    cols[1, d:] = [STAGES.index(e.stage) for e in entries]
    cols[4, d:] = cols[6, d:] = [e.token_num for e in entries]
    cols[5, d:] = [e.kv_len for e in entries]
    if cols[6].max() > size:
        tiles = -(-cols[6] // size)
        cols = np.repeat(cols, tiles, axis=1)
        cols[3] = (np.arange(cols.shape[1]) - np.repeat(np.cumsum(tiles) - tiles, tiles)) * size
        cols[4] = np.minimum(size, cols[6] - cols[3])
    cols = np.repeat(TileTable._with_reach(cols).cols, head_num, axis=1)
    cols[2] = np.arange(cols.shape[1]) % head_num
    return TileTable(cols)


def contiguous_assign(items: list, core_num: int) -> list[list]:
    """Baseline: consecutive runs of ceil(n/k) items per core."""
    size = _ceil_div(len(items), core_num) if items else 0
    return [list(items[i * size : (i + 1) * size]) for i in range(core_num)]


def reorder_attention(tiles: TileTable | Sequence[TileUnit], core_num: int) -> TaskTable:
    """Sort by area (heaviest first, deterministic ties) and deal in snake
    order; each core's table is a slice of one core-major table."""
    if core_num < 1:
        raise ValueError("core_num must be >= 1")
    if not isinstance(tiles, TileTable):
        tiles = TileTable.of(tiles)
    area = tiles.q_len * tiles.reach
    order = np.lexsort((tiles.q_start, tiles.head, tiles.stage_id, -area))
    turn = np.arange(len(order)) % (2 * core_num)
    core = np.minimum(turn, 2 * core_num - 1 - turn)
    dealt = tiles[order[np.argsort(core, kind="stable")]]
    ends = np.cumsum(np.bincount(core, minlength=core_num)).tolist()
    return TaskTable(tuple(dealt[lo:hi] for lo, hi in zip([0, *ends], ends)))


def decompose_linear(
    chunk: Chunk,
    n_len: int,
    tile_m: int,
    tile_n: int,
    quantum: int = 16,
) -> tuple[int, int]:
    """(row, col) tile counts of the (tokenNum x nLen) result matrix of
    a linear op.

    The M dimension is rounded up to the quantum; virtual padding
    covers the remainder.
    """
    if chunk.total_tokens < 1:
        raise ValueError("chunk must be nonempty")
    if n_len % quantum != 0:
        raise UnsupportedShape(f"nLen={n_len} is not a multiple of the quantum {quantum}")
    padded_m = _ceil_div(chunk.total_tokens, quantum) * quantum
    return _ceil_div(padded_m, tile_m), _ceil_div(n_len, tile_n)


def lookup_linear_tasktable(
    store: ProfileStore,
    op: LinearOp,
    shape: tuple[int, int, int],
    core_num: int,
    grid: tuple[int, int],
) -> GridTable:
    """Per-core grid-tile order for a smoothed shape.

    Falls back to row-major order when the shape was never profiled.
    """
    m, n, k = shape
    try:
        entry = store.get(op.value, m, n, k)
        desc = entry.order
    except MissingProfile:
        desc = ROW_MAJOR
    return deal_round_robin(grid_order(desc, *grid), core_num)


def deal_round_robin(order: np.ndarray, core_num: int) -> GridTable:
    """Deal grid cells to cores in turn: cell c of ``order``, an int
    [2, cells] (row, col) array, goes to core c mod k."""
    order = np.asarray(order, dtype=np.int64)
    if order.ndim != 2 or order.shape[0] != 2:
        raise ValueError(f"order must be a [2, cells] (row, col) array, not {order.shape}")
    if core_num < 1:
        raise ValueError("core_num must be >= 1")
    return GridTable(order, core_num)
