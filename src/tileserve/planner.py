"""Chunk decomposition into tile units and per-core task tables.

Attention work is cut along the query dimension into fixed-size tile
blocks, crossed with heads, weighted by the attended K/V area, sorted
heaviest-first, and dealt to cores in snake order (1..k, k..1, ...).
Linear work is a 2-D grid over the padded result matrix whose visit
order comes from the offline profile store.

``TileUnit.reach`` is the one place that decides how far a tile
attends. Its sort area, its computed K/V blocks, the attention
kernel's block loop and row masks, and the cost model's unit costs
all derive from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .config import ServeConfig
from .profiles import ROW_MAJOR, MissingProfile, ProfileStore, grid_order
from .scheduler import Chunk, Stage


class UnsupportedShape(ValueError):
    """Linear op dimensions are not aligned to the hardware quantum."""


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
        """K/V length (exclusive) the tile's last row may attend: the
        history plus the stage rows up to and including that row for a
        causal tile, the history plus the whole speculative span for a
        verify tile (its tree mask narrows the span per row)."""
        if self.stage is Stage.VERIFY:
            return self.kv_len + self.stage_tokens
        return self.kv_len + self.q_start + self.q_len

    @property
    def area(self) -> int:
        """Attended score-matrix area, the sort weight."""
        return self.q_len * self.reach

    def computed_blocks(self, kv_block_size: int) -> int:
        """Whole K/V blocks up to the reach; the stage's later blocks are
        dead under the causal rule and skipped."""
        return -(-self.reach // kv_block_size)


@dataclass(frozen=True)
class TaskTable:
    """Ordered tile list per core; every tile appears exactly once."""

    per_core: tuple[tuple, ...]

    @property
    def core_num(self) -> int:
        return len(self.per_core)

    def all_items(self) -> list:
        return [item for core in self.per_core for item in core]

class LinearOp(Enum):
    QKV = "qkv"
    O_PROJ = "o_proj"
    GATE_UP = "gate_up"
    DOWN = "down"


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def attention_tile_size(stage: Stage, token_num: int, cfg: ServeConfig) -> int:
    """Prefill tiles use the configured size; decode and verify stages
    fit in a single block when their span allows."""
    if stage is Stage.PREFILL:
        return cfg.prefill_tile_size
    return min(token_num, cfg.prefill_tile_size)


def decompose_attention(chunk: Chunk, head_num: int, cfg: ServeConfig) -> list[TileUnit]:
    """Split every stage entry along the query dimension and cross with heads."""
    if not chunk.entries:
        raise ValueError("chunk must be nonempty")
    tiles: list[TileUnit] = []
    for stage_id, entry in enumerate(chunk.entries):
        tile_size = attention_tile_size(entry.stage, entry.token_num, cfg)
        n_blocks = _ceil_div(entry.token_num, tile_size)
        for b in range(n_blocks):
            q_start = b * tile_size
            q_len = min(tile_size, entry.token_num - q_start)
            for head in range(head_num):
                tiles.append(
                    TileUnit(
                        stage_id=stage_id,
                        stage=entry.stage,
                        head=head,
                        q_start=q_start,
                        q_len=q_len,
                        kv_len=entry.kv_len,
                        stage_tokens=entry.token_num,
                    )
                )
    return tiles


def snake_assign(items: list, core_num: int) -> list[list]:
    """Deal items to cores in order 1..k, k..1, repeating."""
    per_core: list[list] = [[] for _ in range(core_num)]
    forward = list(range(core_num))
    cycle = forward + forward[::-1]
    for idx, item in enumerate(items):
        per_core[cycle[idx % len(cycle)]].append(item)
    return per_core


def contiguous_assign(items: list, core_num: int) -> list[list]:
    """Baseline: consecutive runs of ceil(n/k) items per core."""
    size = _ceil_div(len(items), core_num) if items else 0
    return [list(items[i * size : (i + 1) * size]) for i in range(core_num)]


def reorder_attention(tiles: list[TileUnit], core_num: int) -> TaskTable:
    """Sort by area (heaviest first, deterministic ties) and snake-assign."""
    if core_num < 1:
        raise ValueError("core_num must be >= 1")
    ordered = sorted(tiles, key=lambda t: (-t.area, t.stage_id, t.head, t.q_start))
    return TaskTable(tuple(tuple(core) for core in snake_assign(ordered, core_num)))


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
    if not chunk.entries or chunk.total_tokens < 1:
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
) -> TaskTable:
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


def deal_round_robin(order: list[tuple[int, int]], core_num: int) -> TaskTable:
    """Deal grid cells to cores in turn: cell i goes to core i mod k."""
    per_core: list[list] = [[] for _ in range(core_num)]
    for idx, cell in enumerate(order):
        per_core[idx % core_num].append(cell)
    return TaskTable(tuple(tuple(core) for core in per_core))
