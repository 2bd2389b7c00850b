"""Shared helpers: deterministic K/V content and a small cache."""

from __future__ import annotations

import functools

import numpy as np
import pytest

from tileserve.kv_cache import RadixKvCache


@functools.lru_cache(maxsize=None)
def kv_for_token(token: int, position: int, kv_heads: int, head_size: int) -> tuple[np.ndarray, np.ndarray]:
    """K/V rows that are a pure function of (token, position).

    Mirrors a deterministic model: identical prefixes produce
    identical cached values, so prefix reuse is observationally
    equivalent to recomputation. Memoised, so the rows are read-only.
    """
    rng = np.random.default_rng((token + 1) * 100003 + position)
    k = rng.normal(size=(kv_heads, head_size)).astype(np.float32)
    v = rng.normal(size=(kv_heads, head_size)).astype(np.float32)
    k.flags.writeable = False
    v.flags.writeable = False
    return k, v


def kv_rows(tokens: list[int], start_pos: int, kv_heads: int, head_size: int) -> tuple[np.ndarray, np.ndarray]:
    if not tokens:
        empty = np.zeros((0, kv_heads, head_size), dtype=np.float32)
        return empty, empty.copy()
    ks, vs = [], []
    for i, tok in enumerate(tokens):
        k, v = kv_for_token(tok, start_pos + i, kv_heads, head_size)
        ks.append(k)
        vs.append(v)
    return np.stack(ks), np.stack(vs)


@pytest.fixture
def small_cache() -> RadixKvCache:
    return RadixKvCache(block_size=2, pool_blocks=32, cache_cap_blocks=16, kv_heads=1, head_size=4)
