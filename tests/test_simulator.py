"""Cost model: the attention closed form against the event-by-event
reference and against the per-core loop it replaced, its slot tables
against the round-by-round ones, linear pricing (the one-line closed
form and the event loop) against the tile-by-tile loop it replaced, and
ordering profiles against the exhaustive sweep."""

from __future__ import annotations

import dataclasses
import heapq
import math
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tileserve.attention import plan_splits
from tileserve.config import HwConfig
from tileserve.gemm import SUPPORTED_TILE_K, SUPPORTED_TILE_MN, TilePrimitive
from tileserve.planner import TaskTable, TileTable, TileUnit, deal_round_robin, decompose_linear
from tileserve.profiles import CANDIDATE_ORDERINGS, ROW_MAJOR, MissingProfile, ProfileStore, grid_order
from tileserve.scheduler import Stage
from tileserve.simulator import (
    _KIND_ROW,
    _KIND_UNIT,
    _KINDS,
    BYTES,
    Schedule,
    ScheduleViolation,
    SimTrace,
    _kinds_read,
    _price_line,
    _slot_table,
    profile_swizzle,
    simulate_attention,
    simulate_linear,
)

from attention_events import reference_rounds, trace_attention
from exhaustive_profile import exhaustive_profile_swizzle

HWS = (
    HwConfig(),
    HwConfig(cube_flops_per_tick=3000.0, vector_elems_per_tick=333.0),
)


@st.composite
def tiles(draw, decode_only: bool) -> TileUnit:
    stage = Stage.DECODE if decode_only else draw(st.sampled_from(Stage))
    if stage is Stage.PREFILL:
        stage_tokens = draw(st.integers(1, 24))
        q_start = draw(st.integers(0, stage_tokens - 1))
        q_len = draw(st.integers(1, stage_tokens - q_start))
    elif stage is Stage.DECODE:
        stage_tokens = q_len = 1
        q_start = 0
    else:  # one verify tile covers the whole speculative span
        stage_tokens = q_len = draw(st.integers(1, 8))
        q_start = 0
    kv_len = draw(st.integers(0, 40))
    return TileUnit(
        stage_id=draw(st.integers(0, 7)),
        stage=stage,
        head=draw(st.integers(0, 3)),
        q_start=q_start,
        q_len=q_len,
        kv_len=kv_len,
        stage_tokens=stage_tokens,
    )


@st.composite
def task_tables(draw, decode_only: bool) -> TaskTable:
    """Up to 16 distinct tiles dealt to 1-4 cores; a core may get none."""
    items = draw(
        st.lists(tiles(decode_only), max_size=16, unique_by=lambda t: (t.stage_id, t.head, t.q_start))
    )
    cores = draw(st.integers(1, 4))
    owners = draw(st.lists(st.integers(0, cores - 1), min_size=len(items), max_size=len(items)))
    return TaskTable(
        tuple(tuple(t for t, o in zip(items, owners) if o == core) for core in range(cores))
    )


def legal_runs(decode_only: bool, split: int) -> list[tuple[Schedule, dict]]:
    runs = [
        (Schedule.PIPE3, {}),
        (Schedule.PIPE4, {"kv_split_blocks": split}),
        (Schedule.SEQ, {}),
        (Schedule.SEQ, {"kv_split_blocks": split}),
    ]
    if decode_only:
        runs += [(Schedule.DECODE_PIPE, {}), (Schedule.SEQ, {"decode_fused": True})]
    return runs


def op_order(schedule: Schedule, kwargs: dict) -> list[str]:
    """The data-dependency order of one (tile, split) unit's ops."""
    if schedule is Schedule.DECODE_PIPE or kwargs.get("decode_fused"):
        return ["QKSoftmax", "SV"]
    if kwargs.get("kv_split_blocks") is not None:
        return ["QK", "Softmax", "SV", "Update"]
    return ["QK", "Softmax", "SV"]


def assert_timeline_is_legal(trace, order: list[str]) -> None:
    """Every unit runs each of its ops once, in dependency order, and no
    cube or vector unit runs two ops at once."""
    by_tile: dict[tuple[int, str], list] = {}
    by_unit: dict[tuple[int, str], list] = {}
    for e in trace.events:
        if e.unit == "mte":
            assert e.end <= trace.makespan
            continue
        by_tile.setdefault((e.core, e.tile), []).append(e)
        by_unit.setdefault((e.core, e.unit), []).append(e)
    for ops in by_tile.values():
        ops.sort(key=lambda e: e.start)
        assert [e.kind for e in ops] == order
        for before, after in zip(ops, ops[1:]):
            assert after.start >= before.end
    for ops in by_unit.values():
        for before, after in zip(ops, ops[1:]):
            assert after.start >= before.end


@settings(max_examples=200, deadline=None)
@given(
    table=st.booleans().flatmap(task_tables),
    split=st.integers(1, 4),
    head_size=st.sampled_from((4, 64, 128)),
    kv_block_size=st.sampled_from((1, 4, 8)),
    hw=st.sampled_from(HWS),
)
def test_closed_form_matches_event_reference(table, split, head_size, kv_block_size, hw):
    decode_only = all(t.q_len == 1 for t in table.all_items())
    # The same units as the engine passes them: one column table per core.
    columns = TaskTable(tuple(TileTable.of(core) for core in table.per_core))
    for schedule, kw in legal_runs(decode_only, split):
        kwargs = dict(head_size=head_size, kv_block_size=kv_block_size, **kw)
        fast = simulate_attention(table, hw, schedule, **kwargs)
        ref = trace_attention(table, hw, schedule, **kwargs)
        assert fast.makespan == ref.makespan, (schedule, kw)
        assert simulate_attention(columns, hw, schedule, **kwargs).makespan == ref.makespan, (schedule, kw)
        assert fast.events == []
        for unit in ("cube", "vector"):
            assert math.isclose(fast.busy[unit], ref.busy[unit], rel_tol=1e-12)
        assert_timeline_is_legal(ref, op_order(schedule, kw))


def test_pipelining_beats_sequential_on_a_busy_core():
    tile = TileUnit(0, Stage.DECODE, 0, 0, 1, 64, 1)
    table = TaskTable(((tile,) * 8,))
    kw = dict(head_size=64, kv_block_size=8)
    piped = simulate_attention(table, HwConfig(), Schedule.DECODE_PIPE, **kw).makespan
    seq = simulate_attention(table, HwConfig(), Schedule.SEQ, decode_fused=True, **kw).makespan
    assert 0 < piped < seq


def _prefill_tile(q_len: int) -> TileUnit:
    return TileUnit(0, Stage.PREFILL, 0, 0, q_len, 0, q_len)


@pytest.mark.parametrize("simulate", [simulate_attention, trace_attention])
@pytest.mark.parametrize(
    "q_len, schedule, kwargs, message",
    [
        (1, Schedule.PIPE4, {}, "requires K/V splitting"),
        (1, Schedule.PIPE3, {"kv_split_blocks": 2}, "unsplit K/V only"),
        (1, Schedule.DECODE_PIPE, {"kv_split_blocks": 2}, "unsplit K/V only"),
        (4, Schedule.DECODE_PIPE, {}, "qTileLen == 1"),
        (4, Schedule.SEQ, {"decode_fused": True}, "qTileLen == 1"),
    ],
)
def test_schedule_violations_raise(simulate, q_len, schedule, kwargs, message):
    table = TaskTable(((_prefill_tile(q_len),),))
    with pytest.raises(ScheduleViolation, match=message):
        simulate(table, HwConfig(), schedule, head_size=8, kv_block_size=4, **kwargs)


def test_round_patterns_of_two_units():
    """The slot patterns themselves, which both references read through
    ``reference_rounds`` and the closed-form slot tables must match: PIPE4
    is PIPE3 plus the split's Update on odd rounds from 3 on, and one more
    round."""
    qk, sm, sv, up, qks = (lambda i, kind=kind: (kind, i) for kind in _KINDS)
    assert reference_rounds(Schedule.SEQ, 2) == [
        (qk(1), None), (None, sm(1)), (sv(1), None), (qk(2), None), (None, sm(2)), (sv(2), None)
    ]
    assert reference_rounds(Schedule.SEQ, 2, split=True) == [
        (qk(1), None), (None, sm(1)), (sv(1), None), (None, up(1)),
        (qk(2), None), (None, sm(2)), (sv(2), None), (None, up(2)),
    ]
    assert reference_rounds(Schedule.SEQ, 2, fused=True) == [
        (None, qks(1)), (sv(1), None), (None, qks(2)), (sv(2), None)
    ]
    assert reference_rounds(Schedule.PIPE3, 2) == [
        (qk(1), None), (qk(2), sm(1)), (sv(1), sm(2)), (None, None), (sv(2), None)
    ]
    assert reference_rounds(Schedule.PIPE4, 2) == [
        (qk(1), None), (qk(2), sm(1)), (sv(1), sm(2)), (None, up(1)), (sv(2), None), (None, up(2))
    ]
    assert reference_rounds(Schedule.DECODE_PIPE, 2) == [(None, qks(1)), (sv(1), qks(2)), (sv(2), None)]


def reference_slot_table(schedule: Schedule, split: bool, fused: bool, counts: tuple[int, ...]):
    """``_slot_table`` built slot by slot from ``reference_rounds``."""
    kinds = _kinds_read(schedule, split, fused)
    row = {kind: r for r, kind in enumerate(kinds)}
    units = sum(counts)
    idle = len(kinds) * units
    patterns = [reference_rounds(schedule, n, split=split, fused=fused) if n else [] for n in counts]
    lengths = [len(p) for p in patterns]
    slots = np.full((2, len(counts), max([1, *lengths])), idle, dtype=np.intp)
    offsets = np.cumsum((0, *counts))
    for core, pattern in enumerate(patterns):
        for r, pair in enumerate(pattern):
            for unit, s in enumerate(pair):
                if s is not None:
                    slots[unit, core, r] = row[s[0]] * units + offsets[core] + s[1] - 1
    return kinds, slots, lengths


# The (schedule, split, fused) keys ``simulate_attention`` can ask for.
SLOT_KEYS = [(Schedule.SEQ, split, fused) for split in (False, True) for fused in (False, True)] + [
    (Schedule.PIPE3, False, False),
    (Schedule.PIPE4, True, False),
    (Schedule.DECODE_PIPE, False, False),
]


@settings(max_examples=200, deadline=None)
@given(key=st.sampled_from(SLOT_KEYS), counts=st.lists(st.integers(0, 40), min_size=1, max_size=6))
def test_closed_form_slot_tables_equal_the_round_by_round_ones(key, counts):
    """Every discipline, split and fused or not, on 1-6 cores of 0-40
    units: the same kinds, the same slot of every round, and round-count
    groups that cover each core with its own round count."""
    counts = tuple(counts)
    kinds, slots, groups = _slot_table(*key, counts)
    ref_kinds, ref_slots, lengths = reference_slot_table(*key, counts)
    assert kinds == ref_kinds
    assert slots.dtype == ref_slots.dtype and np.array_equal(slots, ref_slots)
    assert not slots.flags.writeable
    covered = {}
    for rounds, cores in groups:
        for core in np.arange(len(counts))[cores].tolist():
            covered[core] = rounds
    assert covered == {core: n for core, n in enumerate(lengths) if n}


# -- one-pass attention pricing against the per-core loop ----------------------


def _core_costs(tiles: TileTable, head_size, kv_block_size, kv_split_blocks, hw) -> np.ndarray:
    """[len(_KINDS), units] op costs of one core's (tile, split) units."""
    q = tiles.q_len
    blocks = tiles.computed_blocks(kv_block_size)
    if kv_split_blocks is not None:
        splits = -(-blocks // kv_split_blocks)
        q = np.repeat(q, splits)
        split_blocks = np.full(len(q), kv_split_blocks, dtype=np.int64)
        split_blocks[np.cumsum(splits) - 1] = blocks - (splits - 1) * kv_split_blocks
        blocks = split_blocks
    tokens = blocks * kv_block_size
    return np.array(
        (
            2.0 * q * head_size * tokens / hw.cube_flops_per_tick,
            q * tokens / hw.vector_elems_per_tick,
            2.0 * q * tokens * head_size / hw.cube_flops_per_tick,
            q * (head_size + 2) / hw.vector_elems_per_tick,
            (tokens * head_size + 2.0 * q * tokens) / hw.vector_elems_per_tick,
        )
    )


def per_core_attention(
    tasktable, hw, schedule, *, head_size, kv_block_size, kv_split_blocks=None, decode_fused=False
) -> SimTrace:
    """The per-core pricing loop that one-pass pricing replaced: each
    core's cost matrix, round slots, sums and running sum on their own."""
    tables = [t if isinstance(t, TileTable) else TileTable.of(t) for t in tasktable.per_core]
    kinds = op_order(schedule, {"kv_split_blocks": kv_split_blocks, "decode_fused": decode_fused})
    busy = {"cube": 0.0, "vector": 0.0}
    makespan = 0.0
    for tiles in tables:
        costs = _core_costs(tiles, head_size, kv_block_size, kv_split_blocks, hw)
        n = costs.shape[1]
        if n == 0:
            cube = vector = end = 0.0
        elif schedule is Schedule.SEQ:
            cube = float(costs[[_KIND_ROW[k] for k in kinds if _KIND_UNIT[k] == "cube"]].sum())
            vector = float(costs[[_KIND_ROW[k] for k in kinds if _KIND_UNIT[k] == "vector"]].sum())
            end = float(np.cumsum(costs[[_KIND_ROW[k] for k in kinds]].T.ravel())[-1])
        else:
            flat = np.append(costs.ravel(), 0.0)
            idle = len(_KINDS) * n
            cube_ix, vec_ix = (
                np.array([idle if s is None else _KIND_ROW[s[0]] * n + s[1] - 1 for s in unit], dtype=np.intp)
                for unit in zip(*reference_rounds(schedule, n))
            )
            cube_ops, vec_ops = flat[cube_ix], flat[vec_ix]
            cube, vector = float(cube_ops.sum()), float(vec_ops.sum())
            end = float(np.cumsum(np.maximum(cube_ops, vec_ops))[-1])
        busy["cube"] += cube
        busy["vector"] += vector
        makespan = max(makespan, end)
    return SimTrace(makespan=makespan, busy=busy)


@st.composite
def uneven_task_tables(draw, decode_only: bool) -> TaskTable:
    """1-6 cores of 0-8 tiles each, the first or last core often empty,
    each core's tiles as ``TileUnit``s or as a ``TileTable``."""
    counts = draw(st.lists(st.integers(0, 8), min_size=1, max_size=6))
    if draw(st.booleans()):
        counts[0] = 0
    if draw(st.booleans()):
        counts[-1] = 0
    cores = [draw(st.lists(tiles(decode_only), min_size=n, max_size=n)) for n in counts]
    return TaskTable(tuple(TileTable.of(c) if draw(st.booleans()) else tuple(c) for c in cores))


@settings(max_examples=300, deadline=None)
@given(
    table=st.booleans().flatmap(uneven_task_tables),
    split=st.integers(1, 4),
    head_size=st.sampled_from((4, 64, 128)),
    kv_block_size=st.sampled_from((1, 4, 8)),
    hw=st.sampled_from(HWS),
)
def test_one_pass_pricing_equals_the_per_core_loop(table, split, head_size, kv_block_size, hw):
    """Bit for bit under the pipelined disciplines. SEQ's makespan is
    bit-equal too; its busy ticks now sum each unit's ops in round order,
    not row by row, so they agree to rounding."""
    decode_only = all(t.q_len == 1 for t in table.all_items())
    for schedule, kw in legal_runs(decode_only, split):
        kwargs = dict(head_size=head_size, kv_block_size=kv_block_size, **kw)
        fast = simulate_attention(table, hw, schedule, **kwargs)
        ref = per_core_attention(table, hw, schedule, **kwargs)
        assert fast.makespan == ref.makespan, (schedule, kw)
        if schedule is not Schedule.SEQ:
            assert fast == ref, (schedule, kw)
            continue
        for unit in ("cube", "vector"):
            assert math.isclose(fast.busy[unit], ref.busy[unit], rel_tol=1e-12)


def test_slot_tables_are_cached_per_pattern_and_core_counts():
    """A cached slot table prices like a cold one. SEQ with and without
    the fused decode op, and split and unsplit K/V, never share an entry
    even at the same unit counts, and the cache is bounded."""
    tile = TileUnit(0, Stage.DECODE, 0, 0, 1, 64, 1)  # 9 blocks of 8: one unit under a split of 16
    table = TaskTable(((tile,) * 3, (tile,) * 2, ()))
    kw = dict(head_size=64, kv_block_size=8)
    runs = [
        (Schedule.DECODE_PIPE, {}),
        (Schedule.SEQ, {}),
        (Schedule.SEQ, {"decode_fused": True}),
        (Schedule.SEQ, {"kv_split_blocks": 16}),
        (Schedule.SEQ, {"kv_split_blocks": 16, "decode_fused": True}),
    ]
    _slot_table.cache_clear()
    cold = [simulate_attention(table, HwConfig(), schedule, **kw, **extra) for schedule, extra in runs]
    assert _slot_table.cache_info().misses == _slot_table.cache_info().currsize == len(runs)
    warm = [simulate_attention(table, HwConfig(), schedule, **kw, **extra) for schedule, extra in runs]
    assert warm == cold
    assert _slot_table.cache_info().hits == len(runs)
    # The split's Update and the fused op make the SEQ spans differ.
    assert len({trace.makespan for trace in cold[1:4]}) == 3
    maxsize = _slot_table.cache_info().maxsize
    assert maxsize is not None
    for n in range(maxsize + 8):
        _slot_table(Schedule.PIPE3, False, False, (n, 1))
    assert _slot_table.cache_info().currsize == maxsize


class TestPlanSplits:
    def test_no_blocks(self):
        assert plan_splits(0, None) == []
        assert plan_splits(0, 3) == []
        assert plan_splits(-2, 3) == []

    def test_split_at_or_past_the_blocks_is_one_range(self):
        assert plan_splits(5, None) == [(0, 5)]
        assert plan_splits(5, 5) == [(0, 5)]
        assert plan_splits(5, 9) == [(0, 5)]

    def test_split_one_gives_one_range_per_block(self):
        assert plan_splits(3, 1) == [(0, 1), (1, 2), (2, 3)]

    def test_last_range_takes_the_remainder(self):
        assert plan_splits(5, 2) == [(0, 2), (2, 4), (4, 5)]

    @pytest.mark.parametrize("n_blocks", [0, 4])
    @pytest.mark.parametrize("split", [0, -1])
    def test_split_below_one_raises(self, n_blocks, split):
        with pytest.raises(ValueError, match="kv_split_blocks must be >= 1"):
            plan_splits(n_blocks, split)


# -- linear pricing ------------------------------------------------------------


def reference_grid_order(desc, rows: int, cols: int) -> list[tuple[int, int]]:
    """The visit order as a list of (row, col) cells, built cell by cell."""
    if desc.kind == "row_major":
        return [(i, j) for i in range(rows) for j in range(cols)]
    if desc.kind == "col_major":
        return [(i, j) for j in range(cols) for i in range(rows)]
    return [
        (i, j)
        for g in range(0, cols, desc.width)
        for i in range(rows)
        for j in range(g, min(g + desc.width, cols))
    ]


def reference_simulate_linear(grid, order, core_num, hw, prim, m, n, k) -> dict:
    """The tile-by-tile pricing loop over tuple lists: cell c of ``order``
    goes to core c mod ``core_num``, each core pops its next tile, and a
    closure keeps the LRU working set of ("A", row) and ("B", col) panels.
    Also counts evictions."""
    queues = [order[core::core_num] for core in range(core_num)]
    heap = [(0.0, core) for core in range(core_num) if queues[core]]
    heapq.heapify(heap)
    lru = OrderedDict()
    lru_bytes = evictions = 0
    busy = {"cube": 0.0, "vector": 0.0, "mte": 0.0}
    makespan = 0.0

    def touch(panel, nbytes):
        nonlocal lru_bytes, evictions
        if panel in lru:
            lru.move_to_end(panel)
            return 0, nbytes
        lru[panel] = nbytes
        lru_bytes += nbytes
        while lru_bytes > hw.l2_bytes and len(lru) > 1:
            _, evicted = lru.popitem(last=False)
            lru_bytes -= evicted
            evictions += 1
        return nbytes, 0

    while heap:
        t, core = heapq.heappop(heap)
        i, j = queues[core].pop(0)
        rows_valid = min(prim.tile_m, m - i * prim.tile_m)
        cols_valid = min(prim.tile_n, n - j * prim.tile_n)
        hbm_a, l2_a = touch(("A", i), rows_valid * k * BYTES)
        hbm_b, l2_b = touch(("B", j), k * cols_valid * BYTES)
        load = (hbm_a + hbm_b) / hw.hbm_bytes_per_tick + (l2_a + l2_b) / hw.l2_hit_bytes_per_tick
        compute = 2.0 * prim.tile_m * prim.tile_n * k / hw.cube_flops_per_tick
        store = rows_valid * cols_valid * BYTES / hw.hbm_bytes_per_tick
        end = t + load + compute + store
        busy["mte"] += load + store
        busy["cube"] += compute
        makespan = max(makespan, end)
        if queues[core]:
            heapq.heappush(heap, (end, core))
    return {"makespan": makespan, "busy": busy, "evictions": evictions}


def assert_prices_like_the_reference(desc, grid, core_num, hw, prim, m, n, k) -> dict:
    """Columnar order, dealing and pricing equal the reference bit for bit,
    and the order visits every cell of the grid exactly once; pricing the
    table again returns the stored trace, unless an argument changed."""
    order = grid_order(desc, *grid)
    walk = list(zip(*order.tolist()))
    assert walk == reference_grid_order(desc, *grid)
    assert sorted(walk) == [(i, j) for i in range(grid[0]) for j in range(grid[1])]  # every cell once
    table = deal_round_robin(desc, grid, core_num)
    assert table.grid == grid and np.array_equal(table.cells, order)
    trace = simulate_linear(grid, table, hw, prim, m, n, k)
    ref = reference_simulate_linear(grid, reference_grid_order(desc, *grid), core_num, hw, prim, m, n, k)
    assert trace.makespan == ref["makespan"]
    assert trace.busy == {unit: ref["busy"][unit] for unit in ("cube", "vector")}
    assert simulate_linear(grid, table, hw, prim, m, n, k) is trace
    # The stored result is keyed by every argument: other rates price afresh.
    slower = dataclasses.replace(hw, hbm_bytes_per_tick=hw.hbm_bytes_per_tick / 2)
    again = simulate_linear(grid, table, slower, prim, m, n, k)
    assert again.makespan == simulate_linear(grid, deal_round_robin(desc, grid, core_num), slower, prim, m, n, k).makespan
    assert again.makespan > trace.makespan
    return ref


@settings(max_examples=200, deadline=None)
@given(
    desc=st.sampled_from(CANDIDATE_ORDERINGS),
    rows=st.integers(1, 9),
    cols=st.integers(1, 9),
    tile_m=st.sampled_from((16, 32)),
    tile_n=st.sampled_from((16, 32, 64)),
    tile_k=st.sampled_from(SUPPORTED_TILE_K),
    k_steps=st.integers(1, 3),
    m_tail=st.integers(0, 31),
    n_tail=st.integers(0, 63),
    core_num=st.integers(1, 6),
    l2_frac=st.floats(0.0, 1.5),
    rates=st.sampled_from(((1024.0, 8192.0), (1000.0, 7777.0), (3.0, 10.0))),
)
def test_linear_pricing_equals_the_reference_loop(
    desc, rows, cols, tile_m, tile_n, tile_k, k_steps, m_tail, n_tail, core_num, l2_frac, rates
):
    """Random grids, orders, core counts, M and N tails and L2 sizes, from
    one panel's bytes (every new panel evicts) to past the whole working
    set (nothing evicts)."""
    prim = TilePrimitive(tile_m=tile_m, tile_n=tile_n, tile_k=tile_k)
    m = rows * tile_m - m_tail % tile_m
    n = cols * tile_n - n_tail % tile_n
    k = k_steps * tile_k
    working_set = (m + n) * k * BYTES
    hw = HwConfig(
        core_num=core_num,
        l2_bytes=max(1, int(l2_frac * working_set)),
        hbm_bytes_per_tick=rates[0],
        l2_hit_bytes_per_tick=rates[1],
    )
    assert_prices_like_the_reference(desc, (rows, cols), core_num, hw, prim, m, n, k)


@settings(max_examples=150, deadline=None)
@given(
    desc=st.sampled_from(CANDIDATE_ORDERINGS),
    tiles=st.integers(1, 300),
    one_row=st.booleans(),
    tile_m=st.sampled_from((16, 32)),
    tile_n=st.sampled_from((16, 64, 128)),
    tile_k=st.sampled_from(SUPPORTED_TILE_K),
    k_steps=st.integers(1, 3),
    m_tail=st.integers(0, 31),
    n_tail=st.integers(0, 127),
    core_num=st.integers(1, 6),
    l2_offset=st.sampled_from((-BYTES * 64, -1, 0, 1, 1 << 20)),
    rates=st.sampled_from(((1024.0, 8192.0), (1000.0, 7777.0), (3.0, 10.0))),
)
def test_one_line_grids_price_like_the_reference_on_either_side_of_l2(
    desc, tiles, one_row, tile_m, tile_n, tile_k, k_steps, m_tail, n_tail, core_num, l2_offset, rates
):
    """Grids of one row or one column up to 300 tiles, with L2 just below
    the working set (the event loop, which evicts) or at or above it (the
    closed form, where nothing is evicted)."""
    grid = (1, tiles) if one_row else (tiles, 1)
    prim = TilePrimitive(tile_m=tile_m, tile_n=tile_n, tile_k=tile_k)
    m = grid[0] * tile_m - m_tail % tile_m
    n = grid[1] * tile_n - n_tail % tile_n
    k = k_steps * tile_k
    working_set = (m + n) * k * BYTES
    hw = HwConfig(
        core_num=core_num,
        l2_bytes=max(1, working_set + l2_offset),
        hbm_bytes_per_tick=rates[0],
        l2_hit_bytes_per_tick=rates[1],
    )
    evicts = hw.l2_bytes < working_set  # the last panel touched first overflows L2
    assert (_price_line(deal_round_robin(desc, grid, core_num), hw, prim, m, n, k) is None) == evicts
    ref = assert_prices_like_the_reference(desc, grid, core_num, hw, prim, m, n, k)
    assert (ref["evictions"] > 0) == evicts


def test_7b_qkv_grid_prices_like_the_reference_while_evicting():
    """A 7B model's QKV projection at M = 4096: a 256 x 48 tile grid whose
    4 MB L2 holds a small share of the panels, in every candidate order."""
    hw = HwConfig()
    prim = TilePrimitive(tile_m=16, tile_n=128, tile_k=128)
    m, n, k = 4096, (32 + 2 * 8) * 128, 4096
    assert hw.l2_bytes == 4 * 1024 * 1024 and (-(-m // 16), -(-n // 128)) == (256, 48)
    for desc in (ROW_MAJOR, *CANDIDATE_ORDERINGS[1:]):
        ref = assert_prices_like_the_reference(desc, (256, 48), hw.core_num, hw, prim, m, n, k)
        assert ref["evictions"] > 256 + 48  # panels leave L2 and come back


@settings(max_examples=150, deadline=None)
@given(
    m=st.integers(1, 600),
    n_quanta=st.integers(1, 32),
    k=st.sampled_from((64, 128, 256)),
    tile_m=st.sampled_from(SUPPORTED_TILE_MN),
    tile_n=st.sampled_from(SUPPORTED_TILE_MN),
    tile_k=st.sampled_from(SUPPORTED_TILE_K),
    core_num=st.integers(1, 6),
    l2_frac=st.floats(0.0, 1.5),
    rates=st.sampled_from(((1024.0, 8192.0), (3.0, 10.0))),
)
def test_profiling_stores_what_the_exhaustive_sweep_stores(
    m, n_quanta, k, tile_m, tile_n, tile_k, core_num, l2_frac, rates
):
    """On a grid of two or more rows and columns, pricing each distinct
    walk once stores the entry that pricing every candidate stores. On a
    grid of one row or one column, every candidate walks the row-major
    cells, and nothing is stored."""
    n = 16 * n_quanta
    prim = TilePrimitive(tile_m=tile_m, tile_n=tile_n, tile_k=tile_k)
    hw = HwConfig(
        core_num=core_num,
        l2_bytes=int(l2_frac * (m + n) * k * BYTES),
        hbm_bytes_per_tick=rates[0],
        l2_hit_bytes_per_tick=rates[1],
    )
    store, reference = ProfileStore(), ProfileStore()
    profile_swizzle("op", (m, n, k), hw, prim, store)
    exhaustive_profile_swizzle("op", (m, n, k), hw, prim, reference)
    grid = decompose_linear(m, n, tile_m, tile_n)
    if min(grid) >= 2:
        assert store.get("op", m, n, k) == reference.get("op", m, n, k)
    else:
        with pytest.raises(MissingProfile):
            store.get("op", m, n, k)
        row_major = grid_order(ROW_MAJOR, *grid)
        assert all(np.array_equal(grid_order(desc, *grid), row_major) for desc in CANDIDATE_ORDERINGS)
