"""Self-tests of the benchmark's helpers.

Run from the root of the repository:

    PYTHONPATH=src python -m pytest -q bench
"""

from __future__ import annotations

import time

import numpy as np
import pytest

import stats
import workloads
from layers import ENGINE_NAMES, Tracer
from replay import Probe
from tileserve import cli
from tileserve import engine as engine_mod
from tileserve.kv_cache import RadixKvCache
from tileserve.trace import write_trace


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert stats.percentile(values, 50) == 50
    assert stats.percentile(values, 90) == 90
    assert stats.percentile(values, 100) == 100
    assert stats.percentile([7.0], 99) == 7.0
    with pytest.raises(ValueError):
        stats.percentile([], 50)


@pytest.mark.parametrize(
    "n, q",
    [
        (128, 90),  # TTFT and E2E of one 128-request part
        (4 * 512, 90),  # prefix_churn: four parts of 512 requests
        (1100, 99),  # TBT p99; every workload pools more than 15000 gaps
        (276, 95),  # engine steps of decode_sim
    ],
)
def test_reported_tails_leave_ten_samples_beyond(n, q):
    assert stats.samples_beyond(n, q) >= stats.MIN_TAIL
    values = list(range(n))
    assert sum(v > stats.tail_percentile(values, q) for v in values) >= stats.MIN_TAIL


def test_thin_tail_is_refused():
    with pytest.raises(ValueError):
        stats.tail_percentile(list(range(128)), 99)


def _rows(count: int, gap: float) -> list:
    return [
        (f"r{i:03d}", i * 10, 4, [i * 10 + 100.0 + gap * j for j in range(4)])
        for i in range(count)
    ]


def test_modelled_metrics_from_arrival():
    metrics = stats.modelled_metrics([_rows(400, 5.0)])
    assert metrics["ttft_p50_ticks"] == 100.0
    assert metrics["tbt_p50_ticks"] == 5.0
    assert metrics["e2e_p90_ticks"] == 115.0
    span = 399 * 10 + 115.0
    assert metrics["model_tokens_per_mtick"] == pytest.approx(1600 / span * 1e6)


def test_incomplete_request_is_left_out():
    rows = _rows(200, 5.0)
    rows[0] = (rows[0][0], rows[0][1], 5, rows[0][3])  # wanted 5, got 4
    assert len(stats.completed(rows)) == 199


@pytest.mark.parametrize("parts", [[[("r0", 0, 4, [])]], [_rows(200, 5.0)[:5], [("r9", 0, 4, [])]]])
def test_too_few_completions_raise_value_error(parts):
    # The bench turns a ValueError into a failed check, not a traceback.
    with pytest.raises(ValueError):
        stats.modelled_metrics(parts)


def test_digest_tracks_every_tick():
    rows = _rows(3, 5.0)
    chunks = [{"chunk_id": 0, "tokens": 3, "stages": "P", "ticks": 10.0}]
    digest = stats.model_digest(rows, chunks)
    assert digest == stats.model_digest(_rows(3, 5.0), [dict(chunks[0])])
    moved = _rows(3, 5.0)
    moved[2][3][-1] += 1e-9
    assert stats.model_digest(moved, chunks) != digest
    assert stats.model_digest(rows, [dict(chunks[0], ticks=10.5)]) != digest


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_fixed_seed_gives_byte_identical_inputs(name, tmp_path):
    first, cfg_a = workloads.write_inputs(name, 3, tmp_path / "a")
    second, cfg_b = workloads.write_inputs(name, 3, tmp_path / "b")
    other, _ = workloads.write_inputs(name, 4, tmp_path / "c")
    assert [p.read_bytes() for p in first] == [p.read_bytes() for p in second]
    assert cfg_a.read_bytes() == cfg_b.read_bytes()
    assert [p.read_bytes() for p in first] != [p.read_bytes() for p in other]
    assert len(first) == workloads.WORKLOADS[name].parts


def test_mixed_numeric_shape():
    rows = workloads.gen_requests("mixed_numeric", 0)
    assert len(rows) == 128
    assert sum(r["spec"] is not None for r in rows) == 64
    assert all(r["spec"] in (None, {"width": 2, "depth": 3}) for r in rows)
    prompt_mean = np.mean([len(r["prompt"]) for r in rows])
    assert 170 < prompt_mean < 200
    gaps = np.diff([r["arrival"] for r in rows])
    assert (gaps >= 0).all() and 7000 < gaps.mean() < 9000
    # Lengths reach past the 0.98 quantile; gaps stop at the top bin's midpoint.
    assert max(len(r["prompt"]) for r in rows) > workloads.lognormal_ppf(prompt_mean)(0.98)
    top_gap = workloads.exponential_ppf(workloads.MIXED_MEAN_GAP)(1 - 0.5 / workloads.STRATA_BLOCK)
    assert gaps.max() <= top_gap + 1  # arrivals are rounded down to whole ticks


def test_prefix_churn_prompts_share_eight_prefixes():
    rows = workloads.gen_requests("prefix_churn", 0)
    heads = {tuple(r["prompt"][: workloads.CHURN_PREFIX_LEN]) for r in rows}
    assert len(rows) == 512 and len(heads) == workloads.CHURN_PREFIXES
    assert all(len(r["prompt"]) > workloads.CHURN_PREFIX_LEN for r in rows)
    # Exactly one pair of prefixes starts with the same token.
    assert len({head[0] for head in heads}) == workloads.CHURN_PREFIXES - 1


def test_stratified_values_cover_every_stratum_in_every_block():
    ppf = workloads.exponential_ppf(10.0)
    count, block = 127, workloads.STRATA_BLOCK
    a = workloads.stratified(np.random.default_rng(1), ppf, count)
    b = workloads.stratified(np.random.default_rng(2), ppf, count)
    assert len(a) == count and a != b
    # The same values for every seed, reaching the 1 - 0.5/count quantile.
    assert sorted(a) == pytest.approx(sorted(b))
    assert max(a) == pytest.approx(ppf(1 - 0.5 / count))
    # Each block of ``block`` values takes one from each stratum.
    ranks = {v: i for i, v in enumerate(sorted(a))}
    per_stratum = -(-count // block)
    for start in range(0, count - block + 1, block):
        strata = sorted(ranks[v] // per_stratum for v in a[start : start + block])
        assert strata == list(range(block))


def test_tracer_counts_self_time_and_restores(tmp_path):
    originals = {name: engine_mod.__dict__[name] for name in ENGINE_NAMES}
    commit = RadixKvCache.__dict__["commit_tokens"]
    try_cache = RadixKvCache.__dict__["_try_cache_block"]
    rows = workloads.gen_requests("prefix_churn", 0)[:24]
    for row in rows:
        row["output_len"] = 2
    trace = tmp_path / "t.jsonl"
    write_trace(rows, trace)
    config = tmp_path / "t.cfg"
    config.write_text("kv.block_size = 4\nkv.cache_cap_blocks = 256\nsched.budget = 512\n")
    with Tracer() as tracer, Probe() as probe:
        t0 = time.perf_counter()
        cli.run_trace(str(trace), str(config), "simulate")
        wall = time.perf_counter() - t0
    assert {name: engine_mod.__dict__[name] for name in ENGINE_NAMES} == originals
    assert RadixKvCache.__dict__["commit_tokens"] is commit
    assert tracer.calls["kv_cache.evict"] > 0
    assert RadixKvCache.__dict__["_try_cache_block"] is try_cache
    assert tracer.calls["simulator.simulate_attention"] == len(probe.engine.chunk_log)
    # Prefixes 1 and 5 start with the same token, so caching prefix 5 stops.
    assert tracer.collision_stops > 0
    # Self times exclude nested calls (evict runs inside commit_tokens), so
    # they add up to no more than the replay.
    assert all(v >= 0 for v in tracer.self_s.values())
    assert 0 < sum(tracer.self_s.values()) <= wall
