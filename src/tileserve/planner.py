"""Chunk decomposition into tile units and per-core task tables.

Attention work is cut along the query dimension into fixed-size tile
blocks, crossed with heads, weighted by the attended K/V area, sorted
heaviest-first, and dealt to cores in snake order (1..k, k..1, ...).
The units form a ``TileTable`` of int64 columns, built once per stage
(the chunk's decode run is already columns; ``np.repeat`` only where an
entry spans several tiles) and then once per head. The deal is one
gather: the lexsort by area, composed with a cached permutation that
depends only on the unit and core counts. A ``TaskTable`` keeps the
result as it is, one core-major ``TileTable`` and each core's count,
and the cost model prices that table directly; ``per_core`` slices it
only for readers that want one core at a time. So a chunk is cut,
sorted, dealt and priced by a fixed number of NumPy calls.
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

import functools
import itertools
from collections.abc import Sequence
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .config import ServeConfig
from .profiles import ROW_MAJOR, MissingProfile, ProfileStore, grid_order
from .scheduler import Chunk, Stage

STAGES = tuple(Stage)  # a ``TileTable`` row's ``stage`` is an index into this
_STAGE_CODE = {stage: code for code, stage in enumerate(STAGES)}
_DECODE, _VERIFY = _STAGE_CODE[Stage.DECODE], _STAGE_CODE[Stage.VERIFY]


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
        rows = [(u.stage_id, _STAGE_CODE[u.stage], u.head, u.q_start, u.q_len, u.kv_len, u.stage_tokens) for u in units]
        cols = np.array(rows, dtype=np.int64).reshape(-1, 7).T
        reach = tile_reach(cols[1] == _VERIFY, cols[5], cols[3], cols[4], cols[6])
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


class TaskTable:
    """Attention tiles dealt to cores: ``tiles`` is one core-major
    ``TileTable`` in which core c runs the next ``counts[c]`` rows, in
    run order; every tile appears exactly once. ``TaskTable(per_core)``
    builds that table once from each core's tiles, given as ``TileUnit``s
    or as ``TileTable``s. Linear ops use a ``GridTable``."""

    __slots__ = ("tiles", "counts")

    def __init__(self, per_core: Sequence[Sequence[TileUnit] | TileTable]):
        cores = [core if isinstance(core, TileTable) else TileTable.of(core) for core in per_core]
        self.tiles = TileTable(np.concatenate([core.cols for core in cores], axis=1)) if cores else TileTable.of(())
        self.counts = tuple(len(core) for core in cores)

    @classmethod
    def dealt(cls, tiles: TileTable, counts: tuple[int, ...]) -> "TaskTable":
        """The task table of a core-major ``tiles``, ``counts[c]`` rows
        for core c."""
        table = cls.__new__(cls)
        table.tiles, table.counts = tiles, counts
        return table

    @property
    def core_num(self) -> int:
        return len(self.counts)

    @property
    def per_core(self) -> tuple[TileTable, ...]:
        """Each core's tiles, a slice of ``tiles``."""
        ends = list(itertools.accumulate(self.counts))
        return tuple(self.tiles[lo:hi] for lo, hi in zip([0, *ends], ends))

    def all_items(self) -> list[TileUnit]:
        return list(self.tiles)


@dataclass(frozen=True, eq=False)
class GridTable:
    """A linear op's task table: ``cells`` is an int64 [2, cells] array
    of (row, col) grid tiles in visit order, and cell c runs on core
    c mod ``core_num``. ``priced`` keeps the cost model's results for
    this table (see ``simulate_linear``), so pricing it again is a
    lookup, and ``covers`` the (rows, cols) grids ``gemm_virtual_pad``
    has checked it to cover once, so it checks each grid once."""

    cells: np.ndarray
    core_num: int
    priced: dict = field(default_factory=dict, repr=False)
    covers: set = field(default_factory=set, repr=False)

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

    The columns are built once per stage, the decode rows straight from
    ``decode_kv``. Every stage cuts at ``cfg.prefill_tile_size``; when
    none is longer, each stage is one tile reaching ``kv_len +
    stage_tokens``, so only a chunk with a longer entry pays for the
    ``np.repeat`` that cuts it and for ``tile_reach``. The rows are
    repeated per head last, with the head column from a cached table."""
    entries, d, size = chunk.entries, chunk.decodes, cfg.prefill_tile_size
    n = d + len(entries)
    if not n:
        raise ValueError("chunk must be nonempty")
    cols = np.zeros((8, n), dtype=np.int64)  # the TileUnit fields, then the reach
    cols[0] = np.arange(n)
    cols[1, :d] = _DECODE
    cols[4, :d] = 1
    cols[5, :d] = chunk.decode_kv
    if entries:
        rows = [(_STAGE_CODE[e.stage], e.token_num, e.kv_len) for e in entries]
        cols[[1, 4, 5], d:] = np.array(rows).T  # the stage, q_len and kv_len rows
    cols[6] = cols[4]  # a stage's tokens, its q_len until it is cut into tiles
    if entries and cols[6].max() > size:
        tiles = -(-cols[6] // size)
        cols = np.repeat(cols, tiles, axis=1)
        cols[3] = (np.arange(cols.shape[1]) - np.repeat(np.cumsum(tiles) - tiles, tiles)) * size
        cols[4] = np.minimum(size, cols[6] - cols[3])
        cols[7] = tile_reach(cols[1] == _VERIFY, cols[5], cols[3], cols[4], cols[6])
    else:
        cols[7] = cols[5] + cols[6]
    if head_num > 1:
        cols = np.repeat(cols, head_num, axis=1)
        cols[2] = _head_column(head_num, cols.shape[1] // head_num)
    return TileTable(cols)


@functools.lru_cache(maxsize=256)
def _head_column(head_num: int, tiles: int) -> np.ndarray:
    """Heads 0..head_num-1 for each of ``tiles`` query tiles in turn,
    read-only."""
    heads = np.tile(np.arange(head_num, dtype=np.int64), tiles)
    heads.flags.writeable = False
    return heads


def contiguous_assign(items: list, core_num: int) -> list[list]:
    """Baseline: consecutive runs of ceil(n/k) items per core."""
    size = _ceil_div(len(items), core_num) if items else 0
    return [list(items[i * size : (i + 1) * size]) for i in range(core_num)]


def reorder_attention(tiles: TileTable | Sequence[TileUnit], core_num: int) -> TaskTable:
    """Sort by area (heaviest first, deterministic ties) and deal in snake
    order: one gather of the columns gives the core-major table."""
    if core_num < 1:
        raise ValueError("core_num must be >= 1")
    if not isinstance(tiles, TileTable):
        tiles = TileTable.of(tiles)
    order = np.lexsort((tiles.q_start, tiles.head, tiles.stage_id, -(tiles.q_len * tiles.reach)))
    deal, counts = _snake_deal(len(order), core_num)
    return TaskTable.dealt(tiles[order[deal]], counts)


@functools.lru_cache(maxsize=256)
def _snake_deal(units: int, core_num: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """The snake deal of ``units`` sorted units to cores 1..k, k..1, ...:
    the read-only permutation that puts them core-major (each core's in
    sort order), and each core's count."""
    turn = np.arange(units) % (2 * core_num)
    core = np.minimum(turn, 2 * core_num - 1 - turn)
    deal = np.argsort(core, kind="stable")
    deal.flags.writeable = False
    return deal, tuple(np.bincount(core, minlength=core_num).tolist())


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
