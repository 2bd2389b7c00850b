"""Engine: numeric outputs and verify rows against the dense oracle,
cache hygiene after a run in either mode, simulate mode at a 7B shape
without weights or pools, one plan for the kernels and the cost model,
requests no chunk can serve, a K/V pool that runs out (and leaves no
chunk half committed), ``check`` without a model, the per-engine linear
memo, the report's times, latency percentiles, cache counts, per-op
ticks, budget fill, unit utilisation and chunk composition, and a
recorded simulate-mode run of mixed chunks."""

from __future__ import annotations

import hashlib
import json
import math
import re
from collections import Counter

import numpy as np
import pytest

from tileserve import cli
from tileserve import engine as engine_mod
from tileserve.config import HwConfig, ModelConfig, ServeConfig
from tileserve.engine import CHECK_TOL, Engine, EngineRequest, RejectedRequest
from tileserve.kv_cache import PoolExhausted
from tileserve.oracle import ToyModel, dense_forward, dense_tree_forward
from tileserve.planner import STAGES, GridTable, TileTable
from tileserve.scheduler import Stage
from tileserve.simulator import simulate_linear
from tileserve.trace import gen_trace, write_trace

from attention_events import trace_attention

# Speculative requests whose output_len often cuts an accepted path short.
TRACE = gen_trace("sharegpt_like", 4, 12, spec=(2, 3), mean_prompt=24, mean_output=8)
# The same with plain requests among them, so chunks carry decode runs.
MIXED_TRACE = TRACE + [
    {**row, "id": f"plain{row['id']}"} for row in gen_trace("sharegpt_like", 5, 6, mean_prompt=24, mean_output=12)
]

CONFIGS = {
    "default": ServeConfig,
    # An 8 KB L2 makes most of TRACE's chunks split K/V and run PIPE4.
    "small_l2": lambda: ServeConfig(hw=HwConfig(l2_bytes=8192)),
}


@pytest.fixture(params=list(CONFIGS))
def cfg(request) -> ServeConfig:
    return CONFIGS[request.param]()


def run_engine(cfg: ServeConfig, numeric: bool, check: bool = False, trace: list[dict] = TRACE) -> Engine:
    """Serve ``trace`` with the seeded toy model (numeric) or without a model (simulate)."""
    engine = Engine(cfg, ToyModel.seeded(cfg.model, seed=0) if numeric else None, check=check)
    for row in trace:
        spec = row["spec"]
        engine.submit(
            EngineRequest(
                req_id=row["id"],
                prompt=row["prompt"],
                output_len=row["output_len"],
                arrival=row["arrival"],
                spec=(spec["width"], spec["depth"]) if spec else None,
            )
        )
    engine.run()
    return engine


def test_numeric_check_passes_and_outputs_are_dense_argmax(cfg):
    engine = run_engine(cfg, numeric=True, check=True, trace=MIXED_TRACE)
    assert len(engine.runtimes) == len(MIXED_TRACE)
    for rid, rt in engine.runtimes.items():
        prompt = rt.request.prompt
        assert len(rt.outputs) == rt.request.output_len, rid
        ref = dense_forward(engine.model, prompt + rt.outputs[:-1])
        want = [int(np.argmax(ref[len(prompt) - 1 + i])) for i in range(len(rt.outputs))]
        assert rt.outputs == want, rid
        # Every kept logits row predicts a token the sequence holds.
        assert max(rt.logits_rows) < len(prompt) + len(rt.outputs) - 1, rid


def test_verify_rows_match_dense_tree_forward(cfg, monkeypatch):
    """Every row of every verify entry, rejected branches included, matches
    the dense forward over the sequence's committed context and the tree."""
    verified = []  # (req_id, kv_len, tree, logits rows) per verify entry

    def forward_chunk(engine, chunk, *args):
        logits, spec_kv = real_forward_chunk(engine, chunk, *args)
        for e in chunk.entries:
            if e.stage is Stage.VERIFY:
                verified.append((e.req_id, e.kv_len, e.spec_tree, logits[e.start_pos : e.start_pos + e.token_num]))
        return logits, spec_kv

    real_forward_chunk = Engine._forward_chunk
    monkeypatch.setattr(Engine, "_forward_chunk", forward_chunk)
    engine = run_engine(cfg, numeric=True)
    assert any(tree.spec_len > 1 for _, _, tree, _ in verified)
    for rid, kv_len, tree, rows in verified:
        rt = engine.runtimes[rid]
        done = kv_len - len(rt.request.prompt)  # outputs whose K/V is committed
        assert tree.tokens[0] == rt.outputs[done], rid  # the root is the last pick
        ref = dense_tree_forward(engine.model, rt.request.prompt + rt.outputs[:done], tree.tokens, tree.parents)
        err = float(np.max(np.abs(rows - ref)))
        assert err <= CHECK_TOL, (rid, kv_len, err)


@pytest.mark.parametrize("numeric", [True, False], ids=["numeric", "simulate"])
def test_every_sequence_is_released(cfg, numeric):
    engine = run_engine(cfg, numeric=numeric)
    assert all(rt.done and not rt.table.blocks for rt in engine.runtimes.values())
    assert engine.cache.pool_partition()["referenced"] == set()
    assert not engine.cache._seqs
    if not numeric:
        # Simulate mode holds no model and its pools no rows.
        assert engine.model is None
        assert engine.cache.keys.nbytes == engine.cache.values.nbytes == 0


@pytest.mark.parametrize("numeric", [True, False], ids=["numeric", "simulate"])
def test_linear_memo_holds_each_op_and_m_once_and_changes_no_result(cfg, numeric, monkeypatch):
    """Each linear op's grid and task table are built once per chunk M,
    and a run that rebuilds them before every chunk logs and reports the
    same bytes. A 24-token budget makes most chunks repeat an M."""
    cfg.budget = 24
    engine = run_engine(cfg, numeric)
    ms = {c["tokens"] for c in engine.chunk_log}
    assert 2 * len(ms) < len(engine.chunk_log)
    assert set(engine._linear_plans) == ms
    assert sum(len(plans) for plans in engine._linear_plans.values()) <= 4 * len(ms)
    real_execute_chunk = Engine._execute_chunk

    def execute_chunk(engine, chunk):
        engine._linear_plans.clear()
        real_execute_chunk(engine, chunk)

    monkeypatch.setattr(Engine, "_execute_chunk", execute_chunk)
    fresh = run_engine(cfg, numeric)
    assert json.dumps(fresh.chunk_log) == json.dumps(engine.chunk_log)
    assert json.dumps(fresh.report()) == json.dumps(engine.report())


def test_report_op_ticks_split_the_chunk_ticks_and_budget_fill_is_their_mean_fill(cfg, monkeypatch):
    """``op_ticks`` holds each op's priced makespans over every layer, and
    its five values sum to the chunk log's ticks; ``budget_fill`` is the
    mean of chunk tokens over the budget."""
    attention = []
    real_simulate_attention = engine_mod.simulate_attention

    def simulate_attention(*args, **kwargs):
        trace = real_simulate_attention(*args, **kwargs)
        attention.append(trace.makespan)
        return trace

    monkeypatch.setattr(engine_mod, "simulate_attention", simulate_attention)
    engine = run_engine(cfg, numeric=False)
    report = engine.report()
    op_ticks = report["op_ticks"]
    assert list(op_ticks) == ["attention", "qkv", "o_proj", "gate_up", "down"]
    assert math.isclose(op_ticks["attention"], math.fsum(attention) * cfg.model.num_layers, rel_tol=1e-12)
    assert all(ticks > 0 for ticks in op_ticks.values())
    assert math.isclose(sum(op_ticks.values()), sum(c["ticks"] for c in engine.chunk_log), rel_tol=1e-12)
    fill = report["chunks"]["budget_fill"]
    assert math.isclose(fill, sum(c["tokens"] / cfg.budget for c in engine.chunk_log) / len(engine.chunk_log))
    assert 0 < fill <= 1


def test_report_utilization_is_the_tick_weighted_busy_share(cfg, monkeypatch):
    """``report()["utilization"]`` is each unit's busy ticks over the core
    ticks of every priced attention and linear span, recomputed here with
    the event reference and unmemoised linear tables."""
    priced = []
    real_simulate_chunk = Engine._simulate_chunk

    def simulate_chunk(engine, chunk, plan):
        priced.append((chunk.total_tokens, plan))
        return real_simulate_chunk(engine, chunk, plan)

    monkeypatch.setattr(Engine, "_simulate_chunk", simulate_chunk)
    engine = run_engine(cfg, numeric=False)
    hw = cfg.hw
    busy = {"cube": 0.0, "vector": 0.0}
    span = 0.0
    for m, plan in priced:
        traces = [
            trace_attention(
                plan.tasktable,
                hw,
                plan.schedule,
                head_size=cfg.model.head_size,
                kv_block_size=cfg.kv_block_size,
                kv_split_blocks=plan.split,
            )
        ]
        for op, (grid, table) in plan.linears.items():
            n, k, prim = engine._linear_ops[op]
            traces.append(simulate_linear(grid, GridTable(table.cells, table.core_num), hw, prim, m, n, k))
        for trace in traces:
            span += trace.makespan
            for unit in busy:
                busy[unit] += trace.busy.get(unit, 0.0)
    utilization = engine.report()["utilization"]
    assert set(utilization) == set(busy)
    for unit, value in utilization.items():
        assert 0.0 < value <= 1.0
        assert value == pytest.approx(busy[unit] / (hw.core_num * span), rel=1e-9)
    assert "utilization" not in engine.chunk_log[0]


def test_simulate_mode_serves_a_7b_shape_without_weights_or_pools():
    """Simulate mode reads only the ModelConfig, so a 7B-shaped model with
    the default ServeConfig builds no weights and no pool bytes."""
    shape = ModelConfig(
        vocab_size=32000,
        hidden_size=4096,
        num_layers=32,
        num_heads=32,
        num_kv_heads=8,
        head_size=128,
        intermediate_size=11008,
    )
    trace = gen_trace("sharegpt_like", 5, 4, vocab_size=shape.vocab_size, spec=(2, 3), mean_prompt=24, mean_output=8)
    engine = run_engine(ServeConfig(model=shape), numeric=False, trace=trace)
    assert all(len(rt.outputs) == rt.request.output_len for rt in engine.runtimes.values())
    assert all(rt.done and not rt.table.blocks for rt in engine.runtimes.values())
    assert engine.model is None
    assert engine.cache.keys.nbytes == engine.cache.values.nbytes == 0


def test_check_needs_a_model(tmp_path, capsys):
    with pytest.raises(ValueError, match="check needs a model"):
        Engine(ServeConfig(), check=True)
    trace = tmp_path / "t.jsonl"
    write_trace(gen_trace("sharegpt_like", 1, 2), trace)
    assert cli.main(["run", "--trace", str(trace), "--mode", "simulate", "--check"]) == 2
    assert capsys.readouterr().err == "error: --check needs --mode numeric\n"


def test_kernels_run_the_split_the_cost_model_prices(monkeypatch):
    """Every attention call of a chunk, the decode run's and each query
    tile's, runs the K/V split that the chunk's pricing charges, so what
    runs is what is priced."""
    ran: list[int | None] = []
    priced: list[tuple[int, int | None]] = []

    def run_tile(tiles, q, keys, values, kv, scale, kv_split_blocks=None):
        ran.append(kv_split_blocks)
        return real_run_tile(tiles, q, keys, values, kv, scale, kv_split_blocks)

    def simulate_attention(*args, **kwargs):
        priced.append((len(ran), kwargs["kv_split_blocks"]))
        return real_simulate_attention(*args, **kwargs)

    real_run_tile = engine_mod.run_tile
    real_simulate_attention = engine_mod.simulate_attention
    monkeypatch.setattr(engine_mod, "run_tile", run_tile)
    monkeypatch.setattr(engine_mod, "simulate_attention", simulate_attention)
    run_engine(CONFIGS["small_l2"](), numeric=True, trace=MIXED_TRACE)
    start = 0
    for end, split in priced:
        assert ran[start:end] and set(ran[start:end]) == {split}
        start = end
    assert any(split is not None for _, split in priced)


def test_one_kernel_call_per_query_tile_and_layer(monkeypatch):
    """In every layer, numeric mode runs a chunk's decode run in one
    attention call, and each prefill or verify query tile in a call of
    its own; one call covers every head of its tiles. The serving loop
    reads the tile columns and builds no ``TileUnit``."""
    per_chunk: list[list[int]] = []  # [calls per layer, kernel calls] per chunk

    def decompose_attention(*args, **kwargs):
        tiles = real_decompose_attention(*args, **kwargs)
        decode = tiles.stage == STAGES.index(Stage.DECODE)
        others = set(zip(tiles.stage_id[~decode].tolist(), tiles.q_start[~decode].tolist()))
        per_chunk.append([int(decode.any()) + len(others), 0])
        return tiles

    def units(table):
        raise AssertionError("the serving loop built TileUnits from a TileTable")

    def run_tile(tiles, *args, **kwargs):
        per_chunk[-1][1] += 1
        # A batch is the decode run: stages 0..d-1, one row each.
        assert len(tiles) == 1 or ((tiles.q_len == 1).all() and (tiles.stage_id == np.arange(len(tiles))).all())
        return real_run_tile(tiles, *args, **kwargs)

    real_decompose_attention = engine_mod.decompose_attention
    real_run_tile = engine_mod.run_tile
    monkeypatch.setattr(engine_mod, "decompose_attention", decompose_attention)
    monkeypatch.setattr(engine_mod, "run_tile", run_tile)
    monkeypatch.setattr(TileTable, "__iter__", units)
    engine = run_engine(ServeConfig(), numeric=True, trace=MIXED_TRACE)
    layers = engine.cfg.model.num_layers
    assert len(per_chunk) == len(engine.chunk_log)
    assert all(calls == layers * per_layer for per_layer, calls in per_chunk)
    assert any(c["stages"].count("D") > 1 for c in engine.chunk_log)  # a batched run was exercised


def test_report_times_from_arrival_and_plot_rows_at_the_first_token():
    """TTFT runs from each request's arrival and qps from the first
    arrival, so neither counts the idle ticks before a late first arrival."""
    cfg = ServeConfig()
    engine = Engine(cfg)
    arrivals = {"early": 5000, "late": 90000}
    for rid, arrival in arrivals.items():
        engine.submit(EngineRequest(req_id=rid, prompt=[1, 2, 3], output_len=3, arrival=arrival))
    report = engine.run()
    for rid, arrival in arrivals.items():
        first = engine.runtimes[rid].token_ticks[0]
        assert first > arrival
        assert report["requests"][rid]["ttft"] == first - arrival
    end = report["makespan_ticks"]
    assert report["qps"] == 2 / ((end - arrivals["early"]) / 1e6)
    stamps = {metric: ts for ts, metric, _ in cli._plot_rows(report, arrivals)}
    for rid in arrivals:
        first = engine.runtimes[rid].token_ticks[0]
        assert stamps[f"ttft.{rid}"] == stamps[f"tbt.{rid}"] == first
    assert stamps["qps"] == stamps["skip_ratio"] == end


def nearest_rank(values: list[float], pct: int) -> float:
    ranked = sorted(values)
    return ranked[math.ceil(pct * len(ranked) / 100) - 1]


def test_report_gives_e2e_and_latency_percentiles_from_arrival():
    """E2E runs from arrival to the last token; the latency block holds the
    nearest-rank p50 and p99 of the requests that have a value, so a
    one-token request counts in TTFT and E2E but not in TBT."""
    one_token = [
        {"id": rid, "arrival": 7, "prompt": [5, 6, 7], "output_len": 1, "spec": {"width": 1, "depth": 1}}
        for rid in ("one", "two")
    ]
    engine = run_engine(ServeConfig(), numeric=False, trace=TRACE + one_token)
    report = engine.report()
    ttft, tbt, e2e = [], [], []
    for rid, rt in engine.runtimes.items():
        row = report["requests"][rid]
        assert row["e2e"] == rt.token_ticks[-1] - rt.request.arrival
        ttft.append(row["ttft"])
        e2e.append(row["e2e"])
        if len(rt.token_ticks) > 1:
            tbt.append(row["tbt"])
    assert len(tbt) == len(ttft) - 2
    assert report["latency"] == {
        name: {"p50": nearest_rank(values, 50), "p99": nearest_rank(values, 99)}
        for name, values in (("ttft", ttft), ("tbt", tbt), ("e2e", e2e))
    }


def test_report_counts_cache_hits_evictions_and_copies():
    """Three requests, one after another, under a 4-block cache cap.

    ``b`` keeps 6 tokens of ``a``'s cached prefix: one whole block and
    the head of the next, which it copies before appending (one
    copy-on-write). ``c`` shares nothing and caches 3 blocks, so the 2
    unreferenced leaves that ``a`` and ``b`` left behind are evicted.
    """
    cfg = ServeConfig(kv_block_size=4, kv_cache_cap_blocks=4)
    prefix = list(range(1, 11))
    trace = [
        {"id": "a", "arrival": 0, "prompt": prefix, "output_len": 2, "spec": None},
        {"id": "b", "arrival": 10**8, "prompt": prefix[:6] + [50, 51, 52], "output_len": 2, "spec": None},
        {"id": "c", "arrival": 2 * 10**8, "prompt": list(range(100, 113)), "output_len": 2, "spec": None},
    ]
    engine = Engine(cfg)
    for row in trace:
        engine.submit(EngineRequest(row["id"], row["prompt"], row["output_len"], row["arrival"]))
    report = engine.run()
    assert all(r["done"] for r in report["requests"].values())
    assert report["cache"] == {"hit_tokens": 6, "evicted_blocks": 2, "cow_copies": 1}


def test_composition_counts_the_stages_of_each_chunk():
    engine = run_engine(ServeConfig(), numeric=False)
    expanded: Counter = Counter()
    for key, count in engine.report()["chunks"]["composition"].items():
        parts = re.findall(r"([DPV])([1-9][0-9]*)", key)
        assert parts == sorted(parts) and "".join(s + n for s, n in parts) == key
        expanded["".join(s * int(n) for s, n in parts)] += count
    assert expanded == Counter(c["stages"] for c in engine.chunk_log)


def test_submit_rejects_a_tree_larger_than_the_budget():
    cfg = ServeConfig(budget=16)
    engine = Engine(cfg)
    engine.submit(EngineRequest(req_id="fits", prompt=[1, 2], output_len=4, spec=(2, 4)))
    with pytest.raises(RejectedRequest, match=r"'deep'.* 31 tokens.* budget of 16"):
        engine.submit(EngineRequest(req_id="deep", prompt=[1, 2], output_len=4, spec=(2, 5)))
    with pytest.raises(RejectedRequest, match=r"'chain'.* at least 17 tokens.* budget of 16"):
        engine.submit(EngineRequest(req_id="chain", prompt=[1, 2], output_len=4, spec=(1, 17)))
    assert [r.req_id for r in engine.pending] == ["fits"]


def test_cli_exits_2_on_a_tree_larger_than_the_budget(tmp_path, capsys):
    trace = tmp_path / "t.jsonl"
    write_trace(gen_trace("sharegpt_like", 1, 4, spec=(2, 5)), trace)
    config = tmp_path / "t.cfg"
    config.write_text("sched.budget = 16\n")
    code = cli.main(["run", "--trace", str(trace), "--config", str(config), "--mode", "simulate"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: request ") and "31 tokens" in err and "budget of 16" in err


def test_a_chunk_that_runs_out_of_blocks_changes_no_table(monkeypatch):
    """A six-block pool of 4-token blocks that caches nothing: ``a`` and
    ``b`` fill two blocks each, so the chunk that holds their decodes and
    ``c``'s 9-token prompt needs 1 + 1 + 3 blocks of the 2 free. It must
    fail before any commit: the decodes, which fit, keep no rows either."""
    cfg = ServeConfig(kv_block_size=4, kv_pool_blocks=6, kv_cache_cap_blocks=0)
    engine = Engine(cfg)
    engine.submit(EngineRequest("a", list(range(8)), 4))
    engine.submit(EngineRequest("b", list(range(10, 18)), 4))
    engine.submit(EngineRequest("c", list(range(20, 29)), 4, arrival=1))
    before = []
    real_execute_chunk = Engine._execute_chunk

    def state():
        cache = engine.cache
        tables = {rid: (list(rt.table.blocks), rt.table.total_tokens) for rid, rt in engine.runtimes.items()}
        return tables, list(cache._free), list(cache.ref_count)

    def execute_chunk(engine, chunk):
        before.append(state())
        real_execute_chunk(engine, chunk)

    monkeypatch.setattr(Engine, "_execute_chunk", execute_chunk)
    with pytest.raises(PoolExhausted) as err:
        engine.run()
    assert str(err.value) == "chunk 1: sequence 'c' needs 3 K/V blocks for 9 tokens, 0 free of 6 after eviction"
    assert len(before) == 2 and len(before[1][1]) == 2  # chunk 1 began with two free blocks
    assert state() == before[1]


def test_cli_exits_4_when_the_pool_runs_out(tmp_path, capsys):
    """Each prompt fills the two-block pool alone, so both pass ``submit``,
    but the chunk that prefills them together needs four blocks."""
    trace = tmp_path / "t.jsonl"
    prompts = {"a": list(range(8)), "b": list(range(10, 18))}
    write_trace([{"id": rid, "arrival": 0, "prompt": p, "output_len": 2} for rid, p in prompts.items()], trace)
    config = tmp_path / "t.cfg"
    config.write_text("kv.block_size = 4\nkv.pool_blocks = 2\nkv.cache_cap_blocks = 2\n")
    code = cli.main(["run", "--trace", str(trace), "--config", str(config), "--mode", "simulate"])
    assert code == 4
    err = capsys.readouterr().err
    assert err == "error: chunk 0: sequence 'b' needs 2 K/V blocks for 8 tokens, 0 free of 2 after eviction\n"


def test_cli_exits_2_on_a_prompt_larger_than_the_pool(tmp_path, capsys):
    trace = tmp_path / "t.jsonl"
    write_trace([{"id": "big", "arrival": 0, "prompt": list(range(20)), "output_len": 2}], trace)
    config = tmp_path / "t.cfg"
    config.write_text("kv.block_size = 4\nkv.pool_blocks = 2\nkv.cache_cap_blocks = 2\n")
    code = cli.main(["run", "--trace", str(trace), "--config", str(config), "--mode", "simulate"])
    assert code == 2
    err = capsys.readouterr().err
    assert err == "error: request 'big': its prompt of 20 tokens needs 5 K/V blocks, more than the pool of 2\n"


def mixed_simulate_trace() -> list[dict]:
    """Plain and speculative requests in turn, whose prompts split at a
    64-token budget, and four long plain decodes: most chunks hold a run
    of decodes, then verify entries and prefill slices."""
    rows = gen_trace("sharegpt_like", 7, 16, spec=(2, 3), mean_prompt=48, mean_output=16)
    rows = [{**row, "spec": row["spec"] if i % 2 else None} for i, row in enumerate(rows)]
    longs = gen_trace("sharegpt_like", 8, 4, mean_prompt=24, mean_output=40)
    return rows + [{**row, "id": f"long{row['id']}"} for row in longs]


def test_simulate_mode_repeats_a_recorded_run_of_mixed_chunks():
    """Simulate mode draws each decode's token, each verify path and bonus
    token and each prompt's first token from one seeded stream, in entry
    order. A recorded run pins the result: the outputs, the chunk log and
    the report, as the SHA-256 of their JSON, so moving any draw shows."""
    engine = Engine(ServeConfig(budget=64), seed=5)
    for row in mixed_simulate_trace():
        spec = row["spec"] and (row["spec"]["width"], row["spec"]["depth"])
        engine.submit(EngineRequest(row["id"], row["prompt"], row["output_len"], row["arrival"], spec))
    report = engine.run()
    composition = report["chunks"]["composition"]
    assert sum(n for key, n in composition.items() if "D" in key and "V" in key) == 24
    assert sum(c["stages"].count("P") for c in engine.chunk_log) == 38  # slices of 20 prompts
    assert report["makespan_ticks"] == 50263.5
    assert engine.runtimes["longr00002"].outputs == [5, 127, 55, 14, 71, 15, 99, 41, 102, 40, 86, 45, 5, 21]
    # The per-op ticks and the budget fill were added to the report after
    # this run was recorded; without them it hashes as recorded.
    assert report.pop("op_ticks") == {
        "attention": 5813.0,
        "qkv": 11794.5,
        "o_proj": 6007.0,
        "gate_up": 14854.5,
        "down": 11794.5,
    }
    assert report["chunks"].pop("budget_fill") == 1348 / (58 * 64)
    outputs = {str(rid): rt.outputs for rid, rt in sorted(engine.runtimes.items(), key=lambda kv: str(kv[0]))}
    blob = json.dumps([outputs, engine.chunk_log, report], sort_keys=True)
    assert hashlib.sha256(blob.encode()).hexdigest() == "e5d4421692d4b2e21b5a68c83872c9d17573161ccc79c50cf68720234ebc9dac"
