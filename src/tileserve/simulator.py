"""Deterministic cost model of a tile-based accelerator.

Each core owns a matrix (cube) unit and a vector unit; a memory mover
(MTE) streams data in and out. Attention task tables execute through
one of four disciplines: strictly sequential, the three-stage
QK/Softmax/SV pipeline, the four-stage pipeline with the split Update,
or the decode pipeline that fuses QK+Softmax onto the vector unit
while the cube runs the previous tile's SV. Pipelined disciplines are
rigid alternating rounds: each unit follows its fixed slot pattern
(built in closed form by ``_slot_table``) and a round lasts as long as
its slowest op, which reproduces the textbook alternating timeline
exactly.

Because the rounds are rigid, a core's end time has a closed form: the
running sum of its round durations (SEQ is the pattern of one op per
round). ``simulate_attention`` prices a task table that way in one pass
per chunk and builds no events: one cost matrix for every core's units,
from the ``q_len`` and ``reach`` columns of the ``TaskTable``'s
core-major ``TileTable``, read as the planner dealt it, with its per-core
counts, and one gather through a cached table of every core's round
slots. The tests hold its reference, which lays out one event per cube,
vector and MTE op and whose makespan equals the closed form bit for
bit. ``simulate_linear`` prices a linear grid tile by tile through a
shared-L2 reuse model, where a panel's first touch pays the HBM rate
and re-touches inside the working set pay the L2 rate; it builds no
events either. A grid of one row or one column whose panels all fit in
L2 at once has a closed form: nothing is evicted, each cell's own panel
misses once, and the shared panel misses only on the first cell, so
each core's end is a running sum of its cells, with no event loop and
no NumPy set-up. Every other grid takes the general path, an event
loop over the ``GridTable``'s (row, col) columns and per-row and
per-column byte counts computed once: plain int and float arithmetic
around an LRU and a core heap. When a grid's panels all fit in L2, the
loop refreshes no recency, because with nothing evicted recency decides
nothing. The tests hold the tile-by-tile reference that both paths
equal bit for bit. A table keeps its priced result, and the engine
keeps one table per linear op and chunk M, so a repeated M is priced by
a lookup. The engine still makes one ``simulate_linear`` call per op
and chunk: tracing from outside counts linear ticks from the calls it
sees, and a skipped call would undercount them. ``profile_swizzle``
prices each distinct walk of a grid once, and stores no entry for a
grid of one row or one column, whose candidates all walk the same
cells.

Costs are plain rate models (work divided by unit rate); time is
abstract ticks. Identical inputs produce byte-identical traces.
"""

from __future__ import annotations

import functools
import heapq
from collections import OrderedDict
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .config import HwConfig
from .gemm import TilePrimitive
from .planner import GridTable, TaskTable, deal_round_robin, decompose_linear
from .profiles import CANDIDATE_ORDERINGS, OrderingDescriptor, ProfileEntry, ProfileStore

BYTES = 4  # fp32 everywhere


class ScheduleViolation(ValueError):
    """Schedule preconditions (split rule, decode-only) were broken."""


class Schedule(Enum):
    SEQ = "seq"
    PIPE3 = "pipe3"
    PIPE4 = "pipe4"
    DECODE_PIPE = "decode"


@dataclass
class SimTrace:
    events: list = field(default_factory=list)  # no pricing path builds events
    makespan: float = 0.0
    busy: dict[str, float] = field(default_factory=dict)


def l2_kv_split_blocks(
    tile_size: int, kv_tokens: int, kv_block_size: int, hw: HwConfig
) -> int | None:
    """Blocks per K/V split so the intermediate buffers fit in L2.

    Splitting triggers when pipeDepth x tileSize x kvLen x coreNum
    fp32 intermediates overflow the L2 budget; otherwise None.
    """
    footprint = hw.pipe_depth * tile_size * kv_tokens * hw.core_num * BYTES
    if footprint <= hw.l2_bytes:
        return None
    per_block = hw.pipe_depth * tile_size * kv_block_size * hw.core_num * BYTES
    return max(1, hw.l2_bytes // per_block)


# ---------------------------------------------------------------------------
# Attention simulation
# ---------------------------------------------------------------------------

# Op kinds in the row order of a core's cost matrix, and the unit each runs on.
_KINDS = ("QK", "Softmax", "SV", "Update", "QKSoftmax")
_KIND_ROW = {kind: row for row, kind in enumerate(_KINDS)}
_KIND_UNIT = {"QK": "cube", "Softmax": "vector", "SV": "cube", "Update": "vector", "QKSoftmax": "vector"}
_IDLE_COST = np.zeros(1)  # appended to a cost matrix, for idle slots to read


def _op_costs(q_len, tokens, head_size: int, hw: HwConfig, kinds: tuple[str, ...] = _KINDS) -> tuple:
    """Ticks of each op of ``kinds`` of a (tile, split) unit, in that order.

    ``q_len`` and ``tokens`` are ints or equal-length int64 arrays; both
    evaluate the same expressions in the same order, so a unit costs the
    same to the last bit on either path, whichever kinds are asked for.
    """
    two_q = 2.0 * q_len
    two_q_tokens = two_q * tokens  # SV's and QKSoftmax's left operand; every discipline runs SV
    cube, vector = hw.cube_flops_per_tick, hw.vector_elems_per_tick
    rows = []
    for kind in kinds:
        if kind == "QK":
            rows.append(two_q * head_size * tokens / cube)
        elif kind == "Softmax":
            rows.append(q_len * tokens / vector)
        elif kind == "SV":
            rows.append(two_q_tokens * head_size / cube)
        elif kind == "Update":
            rows.append(q_len * (head_size + 2) / vector)
        else:
            rows.append((tokens * head_size + two_q_tokens) / vector)
    return tuple(rows)


def _kinds_read(schedule: Schedule, split: bool, fused: bool) -> tuple[str, ...]:
    """The op kinds a discipline's rounds read, in ``_KINDS`` order: the
    decode pipeline and fused SEQ run QK+Softmax as one op, and a split
    adds the Update (PIPE4 always splits, PIPE3 never does)."""
    if fused or schedule is Schedule.DECODE_PIPE:
        return ("SV", "QKSoftmax")
    return _KINDS[: 3 + split]


@functools.lru_cache(maxsize=256)
def _slot_table(
    schedule: Schedule, split: bool, fused: bool, counts: tuple[int, ...]
) -> tuple[tuple[str, ...], np.ndarray, tuple]:
    """Every core's round slots as flat indices into a chunk's raveled
    cost matrix, for cores of ``counts`` units each. The matrix has one
    row per kind of ``_kinds_read``, the discipline's ``kinds``: slot
    (kind, i) of a core whose units start at ``offset`` is
    ``kinds.index(kind) * units + offset + i - 1``. Idle slots, and
    rounds past a core's last, read ``len(kinds) * units``, where the
    caller appends a zero cost. Returns ``kinds``, the read-only [2,
    cores, rounds] (cube, vector) table and a (rounds, cores) pair per
    round count, ``cores`` a slice when all have it. Snake dealing keeps
    counts within one, so keys repeat.

    The patterns are the rigid alternating schedules, in closed form over
    round r; unit i of a core of n exists when 1 <= i <= n, and a slot
    whose unit does not exist idles:
    - SEQ runs one op per round, unit after unit, in dependency order
      (QK+Softmax fused when ``fused``, a split's Update last when
      ``split``), while the other unit idles.
    - PIPE3 runs QK 1 on the cube in round 0, then QK (r + 3) / 2 in odd
      rounds and SV r / 2 in even ones; the vector runs Softmax 1 in
      round 1 and Softmax r / 2 + 1 in even rounds. PIPE4 adds the
      split's Update (r - 1) / 2 on the vector in odd rounds from 3 on,
      and one more round for the last Update. A core runs 2n + 1 rounds,
      or 2n + 2 under PIPE4.
    - DECODE_PIPE runs SV r on the cube and QK+Softmax r + 1 on the
      vector, for n + 1 rounds.
    ``split`` and ``fused`` shape SEQ only."""
    kinds = _kinds_read(schedule, split, fused)
    row = {kind: r for r, kind in enumerate(kinds)}
    n = np.array(counts, dtype=np.intp)[:, None]
    units = int(n.sum())
    idle = len(kinds) * units
    if schedule is Schedule.SEQ:
        order = ("QKSoftmax", "SV") if fused else _KINDS[: 3 + split]
        lengths = n * len(order)
    elif schedule is Schedule.DECODE_PIPE:
        lengths = np.where(n > 0, n + 1, 0)
    else:
        lengths = np.where(n > 0, 2 * n + 1 + (schedule is Schedule.PIPE4), 0)
    lengths = lengths.ravel().tolist()
    r = np.arange(max([1, *lengths]), dtype=np.intp)
    # (kind row, 1-based unit index) of each round's cube and vector slot;
    # index 0 idles.
    if schedule is Schedule.SEQ:
        step, unit = r % len(order), r // len(order) + 1
        on_cube = np.array([_KIND_UNIT[kind] == "cube" for kind in order])[step]
        kind_rows = np.array([row[kind] for kind in order], dtype=np.intp)[step]
        cube = kind_rows, np.where(on_cube, unit, 0)
        vector = kind_rows, np.where(on_cube, 0, unit)
    elif schedule is Schedule.DECODE_PIPE:
        cube = row["SV"], r
        vector = row["QKSoftmax"], r + 1
    else:
        even, update = r % 2 == 0, schedule is Schedule.PIPE4
        cube = np.where(even & (r > 0), row["SV"], row["QK"]), np.where(r == 0, 1, np.where(even, r // 2, (r + 3) // 2))
        vector = (
            np.where(even | (r == 1), row["Softmax"], row.get("Update", 0)),
            np.where(r == 0, 0, np.where(even, r // 2 + 1, np.where(r == 1, 1, update * ((r - 1) // 2)))),
        )
    offsets = np.cumsum((0, *counts[:-1]), dtype=np.intp)[:, None]
    slots = np.stack(
        [np.where((i >= 1) & (i <= n), kind * units + offsets + i - 1, idle) for kind, i in (cube, vector)]
    )
    slots.flags.writeable = False
    groups = tuple(  # not ``np.unique``, which imports ``numpy.ma`` (about 1 MB)
        (length, slice(None) if lengths.count(length) == len(lengths) else np.flatnonzero(np.equal(lengths, length)))
        for length in sorted(set(lengths) - {0})
    )
    return kinds, slots, groups


def _check_schedule(
    tasktable: TaskTable, schedule: Schedule, kv_split_blocks: int | None, decode_fused: bool
) -> None:
    """Raise unless the schedule's preconditions hold for the table."""
    if schedule is Schedule.PIPE4 and kv_split_blocks is None:
        raise ScheduleViolation("four-stage pipeline requires K/V splitting (L2 rule)")
    if schedule in (Schedule.PIPE3, Schedule.DECODE_PIPE) and kv_split_blocks is not None:
        raise ScheduleViolation(f"{schedule.value} runs unsplit K/V only")
    if kv_split_blocks is not None and kv_split_blocks < 1:
        raise ValueError("kv_split_blocks must be >= 1")
    if schedule is Schedule.DECODE_PIPE or (schedule is Schedule.SEQ and decode_fused):
        if (tasktable.tiles.q_len != 1).any():
            raise ScheduleViolation("decode pipeline requires qTileLen == 1 everywhere")


def simulate_attention(
    tasktable: TaskTable,
    hw: HwConfig,
    schedule: Schedule,
    *,
    head_size: int,
    kv_block_size: int,
    kv_split_blocks: int | None = None,
    decode_fused: bool = False,
) -> SimTrace:
    """Price an attention task table under one pipeline discipline.

    All cores are priced in one pass: one cost matrix of the table's
    (tile, split) units (a tile's splits are ``plan_splits``' ranges),
    with a row per op kind the discipline reads, gathered through the
    cached ``_slot_table``.
    A core's end time is the running sum of its rounds' durations,
    max(cube op, vector op). MTE transfers are prefetch and write-back
    overlapped with compute (intermediates stay in L2), so they never
    stretch the makespan and are not modelled. The trace carries no
    events; ``busy`` covers the cube and vector units. The tests'
    event-by-event reference gives the same makespan to the last bit.
    """
    _check_schedule(tasktable, schedule, kv_split_blocks, decode_fused)
    tiles, counts = tasktable.tiles, tasktable.counts
    q = tiles.q_len
    blocks = tiles.computed_blocks(kv_block_size)
    if kv_split_blocks is not None:
        splits = -(-blocks // kv_split_blocks)
        ends = np.cumsum(splits)
        counts = tuple(np.diff(np.append(0, ends)[np.cumsum((0, *counts))]).tolist())
        q = np.repeat(q, splits)
        split_blocks = np.full(len(q), kv_split_blocks, dtype=np.int64)
        split_blocks[ends - 1] = blocks - (splits - 1) * kv_split_blocks
        blocks = split_blocks
    fused = decode_fused and schedule is Schedule.SEQ
    kinds, slots, groups = _slot_table(schedule, kv_split_blocks is not None, fused, counts)
    flat = np.concatenate((*_op_costs(q, blocks * kv_block_size, head_size, hw, kinds), _IDLE_COST))
    ops = flat[slots]
    # np.cumsum adds left to right like ``t += dur``, and the zeros past
    # a core's last round add nothing; np.sum adds pairwise, so a core's
    # busy ticks sum exactly its own rounds, like a sum over the core alone.
    end = np.cumsum(np.maximum(ops[0], ops[1]), axis=1)[:, -1]
    busy = np.zeros((2, len(counts)))
    for rounds, cores in groups:
        busy[:, cores] = ops[:, cores, :rounds].sum(axis=-1)
    totals = {"cube": 0.0, "vector": 0.0}
    for cube, vector in zip(*busy.tolist()):
        totals["cube"] += cube
        totals["vector"] += vector
    return SimTrace(makespan=float(end.max(initial=0.0)), busy=totals)


# ---------------------------------------------------------------------------
# Linear simulation
# ---------------------------------------------------------------------------


def simulate_linear(
    grid: tuple[int, int],
    tasktable: GridTable,
    hw: HwConfig,
    prim: TilePrimitive,
    m: int,
    n: int,
    k: int,
) -> SimTrace:
    """Price a linear tile grid under the shared-L2 reuse model.

    Every output tile loads one A row-panel and one B column-panel;
    the first touch of a panel inside the sliding working set costs
    the HBM rate, a re-touch the L2 rate. A tile's load, GEMM and store
    run back to back on its core. Cores run concurrently and share the
    working set; ties resolve by core id, so runs are deterministic.
    The trace carries no events, and ``busy`` covers the cube and vector
    units, as the attention trace does.

    A grid of one row or one column whose panels all fit in L2 at once
    is priced in closed form by ``_price_line``. Every other grid runs
    the general event loop, ``_price_loop``: per-row and per-column
    panel bytes are computed once, and the loop does plain int and float
    arithmetic around an LRU and a core heap, whose entries carry each
    core's next cell of the table. When the grid's panels all fit in
    L2, nothing is evicted and recency decides nothing, so the loop
    refreshes no recency on a hit. The table covers its grid by construction, so it is checked
    only to be for ``grid``; another grid raises ``ValueError``. The
    result is kept in ``tasktable.priced`` with the other arguments, so
    pricing the same table again returns the same trace object, which
    callers must not change. A table is priced under one or two sets of
    arguments, so that store is a short list: a repeat call passes the
    same objects, which compare equal by identity, and builds or hashes
    no key.
    """
    rows, cols = grid
    if rows < 1 or cols < 1:
        raise ValueError("grid must be nonempty")
    if tasktable.grid != grid:
        raise ValueError(f"task table is for the {tasktable.grid} grid, not {grid}")
    args = (grid, prim, m, n, k, hw)
    state = vars(hw)  # ``HwConfig`` is mutable: compare its values too
    for priced_args, priced_state, trace in tasktable.priced:
        if priced_args == args and priced_state == state:
            return trace
    trace = _price_line(tasktable, hw, prim, m, n, k) if rows == 1 or cols == 1 else None
    if trace is None:
        trace = _price_loop(tasktable, hw, prim, m, n, k)
    tasktable.priced.append((args, dict(state), trace))
    return trace


def _price_line(tasktable: GridTable, hw: HwConfig, prim: TilePrimitive, m: int, n: int, k: int) -> SimTrace | None:
    """The event loop's result for a grid of one row or one column, or
    None when its panels do not all fit in L2 at once.

    When they fit, nothing is evicted, so the loop's outcome is fixed
    before any event runs. Each cell's own panel (its column's B panel in
    one row, its row's A panel in one column) is touched once and misses.
    The shared panel misses only on cell 0, which core 0 takes at tick 0,
    the heap's first pop, and hits on every later touch. Each core's end
    is then the running sum of its cells; every cell adds the same cube
    ticks, so their sum in any order has the loop's bits.
    """
    rows, cols = tasktable.grid
    if rows == 1:
        line, tile, size, shared_valid = tasktable.cells[1], prim.tile_n, n, min(prim.tile_m, m)
    else:
        line, tile, size, shared_valid = tasktable.cells[0], prim.tile_m, m, min(prim.tile_n, n)
    cell_num = rows * cols
    tail = size - (cell_num - 1) * tile  # valid rows or columns of the last tile, whole before it
    if not 0 < tail <= tile or (size + shared_valid) * k * BYTES > hw.l2_bytes:
        return None
    hbm_rate, core_num = hw.hbm_bytes_per_tick, tasktable.core_num
    compute = 2.0 * prim.tile_m * prim.tile_n * k / hw.cube_flops_per_tick
    shared_bytes = shared_valid * k * BYTES
    shared_l2 = shared_bytes / hw.l2_hit_bytes_per_tick
    # A miss on the cell's own panel, a hit on the shared one, and the store.
    loads = [tile * k * BYTES / hbm_rate + shared_l2] * cell_num
    stores = [shared_valid * tile * BYTES / hbm_rate] * cell_num
    order = line.tolist()
    last = order.index(cell_num - 1)
    loads[last] = tail * k * BYTES / hbm_rate + shared_l2
    stores[last] = shared_valid * tail * BYTES / hbm_rate
    loads[0] = ((tail if last == 0 else tile) * k * BYTES + shared_bytes) / hbm_rate  # both miss
    makespan = cube = 0.0
    for core in range(min(core_num, cell_num)):
        t = 0.0
        for c in range(core, cell_num, core_num):
            t = t + loads[c] + compute + stores[c]
            cube += compute
        if t > makespan:
            makespan = t
    return SimTrace(makespan=makespan, busy={"cube": cube, "vector": 0.0})


def _price_loop(tasktable: GridTable, hw: HwConfig, prim: TilePrimitive, m: int, n: int, k: int) -> SimTrace:
    """The event loop of ``simulate_linear``: each step pops the core that
    is free first and prices its next cell's two panel touches, the A
    panel's then the B panel's."""
    rows, cols = tasktable.grid
    cells = tasktable.cells
    rows_of = cells[0].tolist()
    # Panels 0..rows-1 are A's row-panels, rows..rows+cols-1 B's column-panels.
    rows_valid = np.minimum(prim.tile_m, m - np.arange(rows) * prim.tile_m)
    cols_valid = np.minimum(prim.tile_n, n - np.arange(cols) * prim.tile_n)
    panel_bytes = (rows_valid * k * BYTES).tolist() + (k * cols_valid * BYTES).tolist()
    b_panels = (cells[1] + rows).tolist()
    stores = (rows_valid[cells[0]] * cols_valid[cells[1]] * BYTES / hw.hbm_bytes_per_tick).tolist()
    compute = 2.0 * prim.tile_m * prim.tile_n * k / hw.cube_flops_per_tick
    hbm_rate, l2_rate, l2_cap = hw.hbm_bytes_per_tick, hw.l2_hit_bytes_per_tick, hw.l2_bytes
    evicts = sum(panel_bytes) > l2_cap  # else recency decides nothing
    core_num, cell_num = tasktable.core_num, len(rows_of)
    # (free at, core, its next cell): core c runs cells c, c + k, c + 2k, ...
    heap = [(0.0, core, core) for core in range(min(core_num, cell_num))]
    lru: OrderedDict[int, int] = OrderedDict()
    move_to_end, popitem = lru.move_to_end, lru.popitem
    heapreplace, heappop = heapq.heapreplace, heapq.heappop
    lru_bytes = 0
    cube = makespan = 0.0
    while heap:
        t, core, c = heap[0]
        panel = rows_of[c]
        nbytes = panel_bytes[panel]
        if panel in lru:
            if evicts:
                move_to_end(panel)
            hbm_bytes, l2_bytes = 0, nbytes
        else:
            lru[panel] = nbytes
            lru_bytes += nbytes
            while lru_bytes > l2_cap and len(lru) > 1:
                lru_bytes -= popitem(False)[1]
            hbm_bytes, l2_bytes = nbytes, 0
        panel = b_panels[c]
        nbytes = panel_bytes[panel]
        if panel in lru:
            if evicts:
                move_to_end(panel)
            l2_bytes += nbytes
        else:
            lru[panel] = nbytes
            lru_bytes += nbytes
            while lru_bytes > l2_cap and len(lru) > 1:
                lru_bytes -= popitem(False)[1]
            hbm_bytes += nbytes
        load = hbm_bytes / hbm_rate + l2_bytes / l2_rate
        end = t + load + compute + stores[c]
        cube += compute
        c += core_num
        if c < cell_num:
            heapreplace(heap, (end, core, c))
        else:  # the core's last cell, and its latest end
            heappop(heap)
            if end > makespan:
                makespan = end
    return SimTrace(makespan=makespan, busy={"cube": cube, "vector": 0.0})


def profile_swizzle(
    op: str,
    shape: tuple[int, int, int],
    hw: HwConfig,
    prim: TilePrimitive,
    store: ProfileStore,
) -> None:
    """Record in ``store`` the candidate ordering with the lowest
    simulated makespan for a shape, on the grid ``decompose_linear``
    gives it. Ties keep the earliest candidate (row-major first in the
    canonical list).

    Each distinct walk is priced once: a candidate whose cells equal an
    earlier candidate's would price the same and lose the tie, so it is
    skipped. A grid of one row or one column has one walk, and nothing is
    priced or stored for it: every M that smooths to this size or below
    also has one row or one column, and the row-major fallback of
    ``lookup_linear_tasktable`` walks the same cells."""
    m, n, k = shape
    grid = decompose_linear(m, n, prim.tile_m, prim.tile_n)
    walks: list[tuple[OrderingDescriptor, GridTable]] = []
    for desc in CANDIDATE_ORDERINGS:
        table = deal_round_robin(desc, grid, hw.core_num)
        if not any(np.array_equal(table.cells, walked.cells) for _, walked in walks):
            walks.append((desc, table))
    if len(walks) == 1:
        return
    spans = [simulate_linear(grid, table, hw, prim, m, n, k).makespan for _, table in walks]
    best = walks[spans.index(min(spans))][0]
    store.put(op, m, n, k, ProfileEntry(prim.tile_m, prim.tile_n, prim.tile_k, best))
