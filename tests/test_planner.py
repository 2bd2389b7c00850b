"""Attention planner: the columnar tile table decomposes, sorts and deals
exactly what a unit-by-unit reference does."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from tileserve.attention import skip_plan
from tileserve.config import ServeConfig
from tileserve.planner import TileUnit, decompose_attention, reorder_attention
from tileserve.scheduler import Chunk, ChunkEntry, Stage


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
    chunk = Chunk(chunk_id=0, entries=entries, total_tokens=start, decode_ids=list(range(decodes)), decode_kv=decode_kv)
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
