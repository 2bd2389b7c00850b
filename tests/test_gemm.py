"""Virtually padded GEMM against ``@`` for any M and any task order, and
the task table's check that it covers the grid."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tileserve.gemm import SUPPORTED_TILE_K, ShapeMismatch, TilePrimitive, gemm_virtual_pad
from tileserve.planner import deal_round_robin
from tileserve.profiles import CANDIDATE_ORDERINGS, ROW_MAJOR, grid_order


@settings(max_examples=40, deadline=None)
@given(
    m=st.integers(1, 80),
    n_tiles=st.integers(1, 4),
    tile_m=st.sampled_from((16, 32, 64)),
    tile_n=st.sampled_from((16, 32, 64)),
    tile_k=st.sampled_from(SUPPORTED_TILE_K),
    k_steps=st.integers(1, 2),
    ragged_n=st.integers(0, 15),
    seed=st.integers(0, 2**16),
)
def test_any_m_any_order_matches_matmul(m, n_tiles, tile_m, tile_n, tile_k, k_steps, ragged_n, seed):
    n = max(1, n_tiles * tile_n - ragged_n)
    k = k_steps * tile_k
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(m, k)).astype(np.float32)
    b = rng.normal(size=(k, n)).astype(np.float32)
    prim = TilePrimitive(tile_m=tile_m, tile_n=tile_n, tile_k=tile_k)
    rows, cols = -(-m // tile_m), -(-n // tile_n)
    first = None
    for desc in CANDIDATE_ORDERINGS:
        for cores in range(1, 5):
            got = gemm_virtual_pad(a, b, prim, deal_round_robin(grid_order(desc, rows, cols), cores))
            if first is None:
                first = got
            assert np.array_equal(got, first), (desc, cores)
    # fp32 rounding of k products and k sums: at most k * eps * (|A| @ |B|).
    a64, b64 = a.astype(np.float64), b.astype(np.float64)
    bound = k * np.finfo(np.float32).eps * (np.abs(a64) @ np.abs(b64))
    assert (np.abs(first - a64 @ b64) <= bound).all()


def test_a_table_that_misses_repeats_or_overruns_a_tile_is_refused():
    prim = TilePrimitive(tile_m=16, tile_n=16, tile_k=64)
    a = np.ones((20, 64), dtype=np.float32)
    b = np.ones((64, 32), dtype=np.float32)  # a 2 x 2 tile grid
    full = grid_order(ROW_MAJOR, 2, 2)
    for cells, message in (
        (full[:, :3], r"does not cover the \(2, 2\) grid once"),
        (full[:, [0, 1, 2, 2]], r"does not cover the \(2, 2\) grid once"),
        (np.hstack((full, [[2], [0]])), r"tile \(2, 0\) outside grid \(2, 2\)"),
    ):
        with pytest.raises(ShapeMismatch, match=message):
            gemm_virtual_pad(a, b, prim, deal_round_robin(cells, 2))


def test_a_table_is_checked_once_per_grid_and_a_failing_one_every_time():
    """A table that covers a grid remembers it and is not checked against
    it again; one that fails is refused on its first use and on every
    later one, and a new grid is checked on its first use."""
    prim = TilePrimitive(tile_m=16, tile_n=16, tile_k=64)
    b = np.ones((64, 32), dtype=np.float32)  # two tile columns
    table = deal_round_robin(grid_order(ROW_MAJOR, 2, 2), 2)
    assert not table.covers
    gemm_virtual_pad(np.ones((20, 64), dtype=np.float32), b, prim, table)
    assert table.covers == {(2, 2)}
    gemm_virtual_pad(np.ones((32, 64), dtype=np.float32), b, prim, table)  # the same 2 x 2 grid
    assert table.covers == {(2, 2)}
    with pytest.raises(ShapeMismatch, match=r"tile \(1, 0\) outside grid \(1, 2\)"):
        gemm_virtual_pad(np.ones((16, 64), dtype=np.float32), b, prim, table)
    assert table.covers == {(2, 2)}
    short = deal_round_robin(grid_order(ROW_MAJOR, 2, 2)[:, :3], 2)
    for _ in range(2):
        with pytest.raises(ShapeMismatch, match=r"does not cover the \(2, 2\) grid once"):
            gemm_virtual_pad(np.ones((20, 64), dtype=np.float32), b, prim, short)
    assert not short.covers
