"""Attention planner: the columnar tile table decomposes, sorts and deals
exactly what a unit-by-unit reference does, and the one dealt table
matches the planner it replaced (which took every tile's reach with
``tile_reach`` and cut the deal into per-core slices), down to the
priced traces."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from tileserve.attention import skip_plan
from tileserve.config import HwConfig, ServeConfig
from tileserve.planner import STAGES, TaskTable, TileTable, TileUnit, decompose_attention, reorder_attention, tile_reach
from tileserve.scheduler import Chunk, ChunkEntry, Stage
from tileserve.simulator import Schedule, simulate_attention


@st.composite
def chunks(draw) -> tuple[Chunk, int]:
    """A chunk of a decode run, then prefill and verify entries, and its
    tile size.

    Verify spans run past the tile size, so one entry gives several
    tiles of equal area and the sort falls back to its tie-breakers.
    """
    tile_size = draw(st.sampled_from((1, 4, 8)))
    decodes = draw(st.integers(0, 10))
    decode_kv = draw(st.lists(st.integers(0, 40), min_size=decodes, max_size=decodes))
    entries = []
    start = decodes
    for _ in range(draw(st.integers(0 if decodes else 1, 10))):
        stage = draw(st.sampled_from((Stage.PREFILL, Stage.VERIFY)))
        token_num = draw(st.integers(1, 3 * tile_size + 2))
        entries.append(ChunkEntry(len(entries), stage, start, token_num, draw(st.integers(0, 40))))
        start += token_num
    chunk = Chunk(chunk_id=0, entries=entries, total_tokens=start, decode_run=list(range(decodes)), decode_kv=decode_kv)
    return chunk, tile_size


def reference_units(chunk: Chunk, heads: int, tile_size: int) -> list[TileUnit]:
    """One unit per (stage, query tile, head), in flat order: the decode
    run's one-token stages, then the entries."""
    stages = [(Stage.DECODE, 1, kv_len) for kv_len in chunk.decode_kv]
    stages += [(e.stage, e.token_num, e.kv_len) for e in chunk.entries]
    units = []
    for stage_id, (stage, token_num, kv_len) in enumerate(stages):
        size = tile_size if stage is Stage.PREFILL else min(token_num, tile_size)
        for q_start in range(0, token_num, size):
            q_len = min(size, token_num - q_start)
            for head in range(heads):
                units.append(TileUnit(stage_id, stage, head, q_start, q_len, kv_len, token_num))
    return units


def reference_reach(t: TileUnit) -> int:
    if t.stage is Stage.VERIFY:
        return t.kv_len + t.stage_tokens
    return t.kv_len + t.q_start + t.q_len


def reference_deal(units: list[TileUnit], cores: int) -> list[list[TileUnit]]:
    """Heaviest area first, ties by (stage_id, head, q_start), dealt 1..k, k..1."""
    ordered = sorted(units, key=lambda t: (-t.q_len * reference_reach(t), t.stage_id, t.head, t.q_start))
    turns = list(range(cores)) + list(reversed(range(cores)))
    per_core: list[list[TileUnit]] = [[] for _ in range(cores)]
    for i, t in enumerate(ordered):
        per_core[turns[i % len(turns)]].append(t)
    return per_core


@settings(max_examples=200, deadline=None)
@given(
    case=chunks(),
    heads=st.integers(1, 8),
    cores=st.integers(1, 5),
    kv_block_size=st.sampled_from((1, 4, 16)),
)
def test_columnar_planner_deals_what_the_object_planner_dealt(case, heads, cores, kv_block_size):
    chunk, tile_size = case
    cfg = ServeConfig(prefill_tile_size=tile_size)
    table = decompose_attention(chunk, heads, cfg)
    units = reference_units(chunk, heads, tile_size)
    assert len(table) == len(units)
    assert list(table) == units
    assert table.reach.tolist() == [reference_reach(t) for t in units]

    expected = reference_deal(units, cores)
    for dealt in (reorder_attention(table, cores), reorder_attention(units, cores)):
        assert dealt.core_num == cores
        assert [list(core) for core in dealt.per_core] == expected

    computed, skipped = skip_plan(table, kv_block_size)
    per_tile = [skip_plan(t, kv_block_size) for t in units]
    assert int(computed.sum()) == sum(c for c, _ in per_tile)
    assert int(skipped.sum()) == sum(s for _, s in per_tile)


# -- the planner the dealt table replaced --------------------------------------


def sliced_decompose(chunk: Chunk, head_num: int, size: int) -> TileTable:
    """The replaced ``decompose_attention``: per-stage columns, cut into
    tiles, the reach of every tile, then one row per head."""
    entries, d = chunk.entries, chunk.decodes
    n = d + len(entries)
    cols = np.zeros((7, n), dtype=np.int64)
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
    reach = tile_reach(cols[1] == STAGES.index(Stage.VERIFY), cols[5], cols[3], cols[4], cols[6])
    cols = np.repeat(np.vstack((cols, reach)), head_num, axis=1)
    cols[2] = np.arange(cols.shape[1]) % head_num
    return TileTable(cols)


def sliced_reorder(tiles: TileTable, core_num: int) -> list[TileTable]:
    """The replaced ``reorder_attention``: the snake deal computed per
    call, then the core-major table cut into one slice per core."""
    area = tiles.q_len * tiles.reach
    order = np.lexsort((tiles.q_start, tiles.head, tiles.stage_id, -area))
    turn = np.arange(len(order)) % (2 * core_num)
    core = np.minimum(turn, 2 * core_num - 1 - turn)
    dealt = tiles[order[np.argsort(core, kind="stable")]]
    ends = np.cumsum(np.bincount(core, minlength=core_num)).tolist()
    return [dealt[lo:hi] for lo, hi in zip([0, *ends], ends)]


@st.composite
def long_chunks(draw) -> tuple[Chunk, int]:
    """A decode run, then prefill and verify entries; prompts may span
    several tiles, so a verify stage gives tiles of equal area and every
    stage's heads tie, or fit in one tile each."""
    tile_size = draw(st.sampled_from((1, 3, 8, 32)))
    decodes = draw(st.integers(0, 12))
    decode_kv = draw(st.lists(st.integers(0, 300), min_size=decodes, max_size=decodes))
    entries = []
    start = decodes
    for _ in range(draw(st.integers(0 if decodes else 1, 6))):
        stage = draw(st.sampled_from((Stage.PREFILL, Stage.VERIFY)))
        token_num = draw(st.integers(1, 4 * tile_size + 3))
        entries.append(ChunkEntry(len(entries), stage, start, token_num, draw(st.integers(0, 300))))
        start += token_num
    chunk = Chunk(chunk_id=0, entries=entries, total_tokens=start, decode_run=list(range(decodes)), decode_kv=decode_kv)
    return chunk, tile_size


@settings(max_examples=300, deadline=None)
@given(
    case=long_chunks(),
    heads=st.integers(1, 8),
    cores=st.integers(1, 6),
    head_size=st.sampled_from((8, 64)),
    kv_block_size=st.sampled_from((1, 4, 16)),
    split=st.integers(1, 5),
)
def test_dealt_table_matches_the_sliced_planner(case, heads, cores, head_size, kv_block_size, split):
    chunk, tile_size = case
    tiles = decompose_attention(chunk, heads, ServeConfig(prefill_tile_size=tile_size))
    ref_tiles = sliced_decompose(chunk, heads, tile_size)
    assert np.array_equal(tiles.cols, ref_tiles.cols)
    dealt = reorder_attention(tiles, cores)
    ref_cores = sliced_reorder(ref_tiles, cores)
    assert np.array_equal(dealt.tiles.cols, np.concatenate([core.cols for core in ref_cores], axis=1))
    assert dealt.counts == tuple(len(core) for core in ref_cores)
    assert [list(core) for core in dealt.per_core] == [list(core) for core in ref_cores]

    # The same deal given as per-core TileUnit tuples prices bit for bit alike.
    as_units = TaskTable(tuple(tuple(core) for core in ref_cores))
    assert as_units.counts == dealt.counts and np.array_equal(as_units.tiles.cols, dealt.tiles.cols)
    runs = [(Schedule.PIPE3, {}), (Schedule.PIPE4, {"kv_split_blocks": split}), (Schedule.SEQ, {})]
    if (tiles.q_len == 1).all():
        runs += [(Schedule.DECODE_PIPE, {}), (Schedule.SEQ, {"decode_fused": True})]
    for schedule, kw in runs:
        kwargs = dict(head_size=head_size, kv_block_size=kv_block_size, **kw)
        assert simulate_attention(dealt, HwConfig(), schedule, **kwargs) == simulate_attention(
            as_units, HwConfig(), schedule, **kwargs
        ), (schedule, kw)


def test_task_table_of_no_cores_or_empty_cores():
    assert TaskTable(()).counts == () and len(TaskTable(()).tiles) == 0
    tile = TileUnit(0, Stage.DECODE, 0, 0, 1, 5, 1)
    table = TaskTable(((), (tile, tile), TileTable.of([tile]), ()))
    assert table.core_num == 4 and table.counts == (0, 2, 1, 0)
    assert [list(core) for core in table.per_core] == [[], [tile, tile], [tile], []]
    assert table.all_items() == [tile] * 3
