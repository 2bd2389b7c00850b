"""Virtually padded GEMM against ``@`` for any M and any task order, bit
for bit against a padded-copy reference, and the refusal of a task table
built for another grid."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tileserve.config import HwConfig
from tileserve.gemm import SUPPORTED_TILE_K, ShapeMismatch, TilePrimitive, gemm_virtual_pad
from tileserve.planner import deal_round_robin
from tileserve.profiles import CANDIDATE_ORDERINGS, ROW_MAJOR
from tileserve.simulator import simulate_linear


def padded_reference(a: np.ndarray, b: np.ndarray, prim: TilePrimitive) -> np.ndarray:
    """A copied into zero rows up to whole tiles, one matmul per K step,
    the valid rows kept. Multiplying A's own rows instead was found to
    differ in the last bits (NumPy 2.4 on OpenBLAS) at M = 1 and at many
    ragged M, so a rewrite must match this to the bit."""
    m, k = a.shape
    a_pad = np.zeros((-(-m // prim.tile_m) * prim.tile_m, k), dtype=np.float32)
    a_pad[:m] = a
    acc = a_pad[:, : prim.tile_k] @ b[: prim.tile_k]
    for k0 in range(prim.tile_k, k, prim.tile_k):
        acc += a_pad[:, k0 : k0 + prim.tile_k] @ b[k0 : k0 + prim.tile_k]
    return acc[:m]


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
            got = gemm_virtual_pad(a, b, prim, deal_round_robin(desc, (rows, cols), cores))
            if first is None:
                first = got
            assert np.array_equal(got, first), (desc, cores)
    assert np.array_equal(first, padded_reference(a, b, prim))
    # fp32 rounding of k products and k sums: at most k * eps * (|A| @ |B|).
    a64, b64 = a.astype(np.float64), b.astype(np.float64)
    bound = k * np.finfo(np.float32).eps * (np.abs(a64) @ np.abs(b64))
    assert (np.abs(first - a64 @ b64) <= bound).all()


def test_a_table_built_for_another_grid_is_refused():
    """GEMM and pricing both refuse a table whose grid is not the one they
    run, and accept it on its own grid."""
    prim = TilePrimitive(tile_m=16, tile_n=16, tile_k=64)
    hw = HwConfig()
    b = np.ones((64, 32), dtype=np.float32)  # two tile columns
    table = deal_round_robin(ROW_MAJOR, (2, 2), 2)
    gemm_virtual_pad(np.ones((20, 64), dtype=np.float32), b, prim, table)
    simulate_linear((2, 2), table, hw, prim, 20, 32, 64)
    with pytest.raises(ShapeMismatch, match=r"task table is for the \(2, 2\) grid, not \(1, 2\)"):
        gemm_virtual_pad(np.ones((16, 64), dtype=np.float32), b, prim, table)
    with pytest.raises(ValueError, match=r"task table is for the \(2, 2\) grid, not \(3, 2\)"):
        simulate_linear((3, 2), table, hw, prim, 48, 32, 64)
