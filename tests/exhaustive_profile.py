"""The exhaustive ordering sweep that ``profile_swizzle`` must agree with:
every candidate of ``CANDIDATE_ORDERINGS`` priced in full, the earliest
of the lowest makespans stored, whatever the grid."""

from __future__ import annotations

from tileserve.config import HwConfig
from tileserve.gemm import TilePrimitive
from tileserve.planner import deal_round_robin, decompose_linear
from tileserve.profiles import CANDIDATE_ORDERINGS, ProfileEntry, ProfileStore
from tileserve.simulator import simulate_linear


def exhaustive_profile_swizzle(
    op: str, shape: tuple[int, int, int], hw: HwConfig, prim: TilePrimitive, store: ProfileStore
) -> None:
    m, n, k = shape
    grid = decompose_linear(m, n, prim.tile_m, prim.tile_n)
    spans = [
        simulate_linear(grid, deal_round_robin(desc, grid, hw.core_num), hw, prim, m, n, k).makespan
        for desc in CANDIDATE_ORDERINGS
    ]
    best = CANDIDATE_ORDERINGS[spans.index(min(spans))]
    store.put(op, m, n, k, ProfileEntry(prim.tile_m, prim.tile_n, prim.tile_k, best))
