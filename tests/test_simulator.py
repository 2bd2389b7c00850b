"""Attention cost model: the closed form against the event-by-event reference."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from tileserve.attention import plan_splits
from tileserve.config import HwConfig
from tileserve.planner import TaskTable, TileTable, TileUnit, deal_round_robin
from tileserve.scheduler import Stage
from tileserve.simulator import (
    Schedule,
    ScheduleViolation,
    simulate_attention,
    trace_attention,
)

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
            assert math.isclose(fast.utilization[unit], ref.utilization[unit], rel_tol=1e-12)
        assert len(fast.per_core_load) == len(ref.per_core_load) == table.core_num
        for a, b in zip(fast.per_core_load, ref.per_core_load):
            assert math.isclose(a, b, rel_tol=1e-12)
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


def test_deal_round_robin():
    cells = [(0, 0), (0, 1), (1, 0), (1, 1), (2, 0)]
    table = deal_round_robin(cells, 2)
    assert table.per_core == (((0, 0), (1, 0), (2, 0)), ((0, 1), (1, 1)))
    assert deal_round_robin([], 3).per_core == ((), (), ())
