"""Event-by-event reference for ``simulate_attention``.

``trace_attention`` lays out one ``StageEvent`` per cube, vector and MTE
op of an attention task table, advancing a clock op by op. The closed
form in ``tileserve.simulator`` must equal its makespan and busy ticks
bit for bit, because both add the same costs in the same order; the
tests compare the two on random tables and on the engine's own chunks.
``reference_rounds`` lists each round's (cube, vector) slots one by one,
the patterns that ``simulator._slot_table`` builds in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass

from tileserve.attention import plan_splits
from tileserve.config import HwConfig
from tileserve.planner import TaskTable, TileUnit
from tileserve.simulator import (
    _KIND_ROW,
    _KIND_UNIT,
    BYTES,
    Schedule,
    SimTrace,
    _check_schedule,
    _op_costs,
)

_Slot = tuple[str, int] | None  # (op kind, 1-based unit index) or idle


@dataclass(frozen=True)
class StageEvent:
    core: int
    unit: str  # "cube" | "vector" | "mte"
    kind: str  # QK | Softmax | SV | Update | QKSoftmax | Load | Store
    tile: str
    start: float
    end: float


@dataclass(frozen=True)
class _Unit:
    """One (tile, split) work item and its op costs in ticks."""

    ref: str
    costs: tuple[float, ...]  # in ``_KINDS`` order
    load_bytes: int
    store_bytes: int

    def cost(self, kind: str) -> float:
        return self.costs[_KIND_ROW[kind]]


def _tile_units(
    tiles: list[TileUnit],
    head_size: int,
    kv_block_size: int,
    kv_split_blocks: int | None,
    hw: HwConfig,
) -> list[_Unit]:
    units = []
    for t in tiles:
        computed = t.computed_blocks(kv_block_size)
        for s, (b0, b1) in enumerate(plan_splits(computed, kv_split_blocks)):
            tokens = (b1 - b0) * kv_block_size
            units.append(
                _Unit(
                    ref=f"{t.stage_id}.{t.head}.{t.q_start}.{s}",
                    costs=_op_costs(t.q_len, tokens, head_size, hw),
                    load_bytes=2 * tokens * head_size * BYTES,
                    store_bytes=t.q_len * head_size * BYTES if b1 == computed else 0,
                )
            )
    return units


def trace_attention(
    tasktable: TaskTable,
    hw: HwConfig,
    schedule: Schedule,
    *,
    head_size: int,
    kv_block_size: int,
    kv_split_blocks: int | None = None,
    decode_fused: bool = False,
) -> SimTrace:
    """Lay out every op of ``simulate_attention`` as a ``StageEvent``.

    The reference for the closed form: rounds and sequences advance a
    clock op by op, and MTE prefetch and write-back events are clipped
    inside the compute window, so they are recorded (``busy["mte"]``)
    but never stretch the makespan. Same arguments and checks as
    ``simulate_attention``.
    """
    _check_schedule(tasktable, schedule, kv_split_blocks, decode_fused)
    has_update = kv_split_blocks is not None
    trace = SimTrace()
    busy = {"cube": 0.0, "vector": 0.0, "mte": 0.0}
    makespan = 0.0
    for core, tiles in enumerate(tasktable.per_core):
        units = _tile_units(list(tiles), head_size, kv_block_size, kv_split_blocks, hw)
        events = (
            _run_seq(core, units, _seq_kinds(has_update, decode_fused))
            if schedule is Schedule.SEQ
            else _run_rounds(core, units, schedule)
        )
        core_end = 0.0
        for e in events:
            trace.events.append(e)
            busy[e.unit] += e.end - e.start
            core_end = max(core_end, e.end)
        trace.events.extend(_mte_events(core, units, events, hw, busy))
        makespan = max(makespan, core_end)
    trace.makespan = makespan
    trace.busy = busy
    trace.events.sort(key=lambda e: (e.core, e.unit, e.start, e.kind, e.tile))
    return trace


def _seq_kinds(has_update: bool, fused: bool) -> tuple[str, ...]:
    """Per-unit op sequence of the sequential discipline."""
    if fused:
        return ("QKSoftmax", "SV")
    return ("QK", "Softmax", "SV", "Update") if has_update else ("QK", "Softmax", "SV")


def _run_seq(core: int, units: list[_Unit], kinds: tuple[str, ...]) -> list[StageEvent]:
    events = []
    t = 0.0
    for u in units:
        for kind in kinds:
            cost = u.cost(kind)
            events.append(StageEvent(core, _KIND_UNIT[kind], kind, u.ref, t, t + cost))
            t += cost
    return events


def reference_rounds(
    schedule: Schedule, n: int, *, split: bool = False, fused: bool = False
) -> list[tuple[_Slot, _Slot]]:
    """Per-round (cube op, vector op) slots; unit indices are 1-based.

    The pipelined patterns are the rigid alternating schedules: after
    the lead-in, the cube ping-pongs QK/SV and the vector Softmax/
    Update on fixed slots, idling when its slot's op does not exist.
    SEQ runs one op per round, unit after unit, in dependency order
    (QK+Softmax fused when ``fused``, a split's Update last when
    ``split``), while the other unit idles; ``split`` and ``fused``
    shape SEQ only.
    """
    rounds: list[tuple[_Slot, _Slot]] = []

    def slot(kind: str, idx: int) -> _Slot:
        return (kind, idx) if 1 <= idx <= n else None

    if schedule in (Schedule.PIPE3, Schedule.PIPE4):
        # PIPE4 is PIPE3 plus the split's Update on odd rounds from 3 on,
        # and one more round for the last Update.
        update = schedule is Schedule.PIPE4
        for r in range(2 * n + 1 + update):
            if r == 0:
                cube = slot("QK", 1)
            elif r % 2 == 0:
                cube = slot("SV", r // 2)
            else:
                cube = slot("QK", (r + 3) // 2)
            if r == 1:
                vec = slot("Softmax", 1)
            elif r and r % 2 == 0:
                vec = slot("Softmax", r // 2 + 1)
            elif r and update:
                vec = slot("Update", (r - 1) // 2)
            else:
                vec = None
            rounds.append((cube, vec))
    elif schedule is Schedule.DECODE_PIPE:
        for r in range(n + 1):
            cube = slot("SV", r) if r >= 1 else None
            vec = slot("QKSoftmax", r + 1)
            rounds.append((cube, vec))
    else:
        kinds = ("QKSoftmax", "SV") if fused else ("QK", "Softmax", "SV", "Update")[: 3 + split]
        for i in range(1, n + 1):
            for kind in kinds:
                rounds.append(((kind, i), None) if _KIND_UNIT[kind] == "cube" else (None, (kind, i)))
    return rounds


def _run_rounds(core: int, units: list[_Unit], schedule: Schedule) -> list[StageEvent]:
    n = len(units)
    if n == 0:
        return []
    events = []
    t = 0.0
    for cube_slot, vec_slot in reference_rounds(schedule, n):
        dur = 0.0
        if cube_slot is not None:
            dur = max(dur, units[cube_slot[1] - 1].cost(cube_slot[0]))
        if vec_slot is not None:
            dur = max(dur, units[vec_slot[1] - 1].cost(vec_slot[0]))
        if dur == 0.0:
            continue
        for unit_name, slot in (("cube", cube_slot), ("vector", vec_slot)):
            if slot is not None:
                kind, idx = slot
                u = units[idx - 1]
                events.append(StageEvent(core, unit_name, kind, u.ref, t, t + u.cost(kind)))
        t += dur
    return events


def _mte_events(
    core: int, units: list[_Unit], events: list[StageEvent], hw: HwConfig, busy: dict
) -> list[StageEvent]:
    """K/V prefetch before each unit's first op and output write-back
    after its last; clipped inside the compute window (L2-resident
    intermediates keep the MTE off the critical path)."""
    first_start: dict[str, float] = {}
    last_end: dict[str, float] = {}
    for e in events:
        first_start[e.tile] = min(first_start.get(e.tile, e.start), e.start)
        last_end[e.tile] = max(last_end.get(e.tile, e.end), e.end)
    out = []
    for u in units:
        if u.ref not in first_start:
            continue
        load_ticks = u.load_bytes / hw.hbm_bytes_per_tick
        s = first_start[u.ref]
        ev = StageEvent(core, "mte", "Load", u.ref, max(0.0, s - load_ticks), s)
        out.append(ev)
        busy["mte"] += ev.end - ev.start
        if u.store_bytes:
            st = u.store_bytes / hw.hbm_bytes_per_tick
            e = last_end[u.ref]
            ev = StageEvent(core, "mte", "Store", u.ref, max(0.0, e - st), e)
            out.append(ev)
            busy["mte"] += ev.end - ev.start
    return out
