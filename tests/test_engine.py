"""Engine: numeric outputs and verify rows against the dense oracle,
cache hygiene after a run in either mode, ragged and root-only draft
trees in a checked run and in simulate mode's path draw, root-only
drafts that run as decodes and move no tick, simulate mode
at a 7B shape without weights or pools, one plan for the kernels and
the cost model, requests no chunk can serve, a K/V pool that runs out
(and leaves no chunk half committed), ``check`` without a model, the
per-engine linear memo, the report's times, latency percentiles, cache
counts, per-op ticks, budget fill, unit utilisation, spec counts,
chunk composition and queue depths, and a recorded simulate-mode run of
mixed chunks."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tileserve import cli
from tileserve import engine as engine_mod
from tileserve import simulator as simulator_mod
from tileserve.config import HwConfig, ModelConfig, ServeConfig
from tileserve.engine import CHECK_TOL, Engine, EngineRequest, RejectedRequest
from tileserve.kv_cache import PoolExhausted
from tileserve.oracle import ToyModel, dense_forward, dense_tree_forward
from tileserve.planner import STAGES, LinearOp, TileTable
from tileserve.scheduler import ChunkEntry, RequestState, Stage, TokenScheduler
from tileserve.simulator import simulate_linear
from tileserve.spec_decode import SpecTree, full_tree
from tileserve.trace import gen_trace, write_trace

from attention_events import trace_attention
from exhaustive_profile import exhaustive_profile_swizzle

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


def run_engine(
    cfg: ServeConfig, numeric: bool, check: bool = False, trace: list[dict] = TRACE, profile_linear: bool = False
) -> Engine:
    """Serve ``trace`` with the seeded toy model (numeric) or without a model (simulate)."""
    model = ToyModel.seeded(cfg.model, seed=0) if numeric else None
    engine = Engine(cfg, model, check=check, profile_linear=profile_linear)
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


# A checked MIXED_TRACE run's ticks in each config, recorded when every
# speculative step verified its tree, root-only trees included.
ROUTED_TICKS = {
    "default": {
        "makespan_ticks": 23082.5,
        "op_ticks": {"attention": 2506.0, "qkv": 5643.5, "o_proj": 2881.0, "gate_up": 6408.5, "down": 5643.5},
        "latency": {
            "ttft": {"p50": 6596.0, "p99": 6617.0},
            "tbt": {"p50": 859.75, "p99": 2129.25},
            "e2e": {"p50": 10995.0, "p99": 23078.5},
        },
    },
    "small_l2": {
        "makespan_ticks": 24377.640625,
        "op_ticks": {"attention": 2506.140625, "qkv": 5923.5, "o_proj": 3021.0, "gate_up": 7003.5, "down": 5923.5},
        "latency": {
            "ttft": {"p50": 7891.140625, "p99": 7912.140625},
            "tbt": {"p50": 859.75, "p99": 2453.03515625},
            "e2e": {"p50": 12290.140625, "p99": 24373.640625},
        },
    },
}


@pytest.mark.parametrize("name", list(CONFIGS))
def test_root_only_drafts_run_as_decodes_and_move_no_tick(name):
    """A root-only draft is one row over the committed K/V, as a decode
    is, so running it in the decode run instead of as a verify entry
    prices the same tiles: a checked run delivers the dense argmax, and
    its makespan, per-op ticks and latencies equal those recorded when
    every speculative step was a verify (65 verifies then, 4 now)."""
    engine = run_engine(CONFIGS[name](), numeric=True, check=True, trace=MIXED_TRACE)
    report = engine.report()
    for rt in engine.runtimes.values():
        ref = dense_forward(engine.model, rt.request.prompt + rt.outputs[:-1])
        first = len(rt.request.prompt) - 1
        assert rt.outputs == [int(np.argmax(ref[first + i])) for i in range(rt.request.output_len)]
    assert {key: report[key] for key in ROUTED_TICKS[name]} == ROUTED_TICKS[name]
    assert report["spec"] == {"verifies": 4, "rows": 12, "delivered": 8, "decoded": 61}


def test_verify_rows_match_dense_tree_forward(cfg, monkeypatch):
    """Every row of every verify entry, rejected branches included, matches
    the dense forward over the sequence's committed context and the tree."""
    verified = []  # (req_id, kv_len, tree, logits rows) per verify entry

    def forward_chunk(engine, chunk, *args):
        logits = real_forward_chunk(engine, chunk, *args)
        for e in chunk.entries:
            if e.stage is Stage.VERIFY:
                verified.append((e.req.request.req_id, e.kv_len, e.spec_tree, logits[e.start_pos : e.start_pos + e.token_num]))
        return logits

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


def test_a_checked_run_of_ragged_and_root_only_trees_delivers_the_dense_argmax(cfg, monkeypatch):
    """Drafts hold only the nodes a 2-token lookup match backs, so a run
    verifies ragged trees and runs the steps whose draft is the root alone
    as decodes. ``check`` compares
    every kept row with the dense forward; every output is the dense
    argmax, and every table is released with no block left referenced."""
    sizes = Counter()

    def propose(engine, rs):
        tree = real_propose(engine, rs)
        sizes[tree.spec_len] += 1
        return tree

    real_propose = Engine._propose
    monkeypatch.setattr(Engine, "_propose", propose)
    engine = run_engine(cfg, numeric=True, check=True, trace=MIXED_TRACE)
    assert sizes[1] and any(1 < size < 7 for size in sizes)  # trees of (2, 3) have at most 7 nodes
    spec = engine.report()["spec"]
    assert spec["rows"] < 7 * spec["verifies"]
    for rt in engine.runtimes.values():
        prompt = rt.request.prompt
        assert len(rt.outputs) == rt.request.output_len
        ref = dense_forward(engine.model, prompt + rt.outputs[:-1])
        assert rt.outputs == [int(np.argmax(ref[len(prompt) - 1 + i])) for i in range(len(rt.outputs))]
        assert not rt.table.blocks
    assert engine.cache.pool_partition()["referenced"] == set()
    assert not engine.cache._seqs


def pruned_tree(width: int, depth: int, kept: list[int]) -> SpecTree:
    """``full_tree``'s shape with each node keeping only its first
    ``kept[node]`` children (all of them once ``kept`` runs out), nodes
    numbered breadth first."""
    tokens, parents, frontier = [0], [None], [0]
    for _ in range(depth - 1):
        next_frontier = []
        for p in frontier:
            for _ in range(kept[p] if p < len(kept) else width):
                next_frontier.append(len(tokens))
                tokens.append(0)
                parents.append(p)
        frontier = next_frontier
    return SpecTree(tuple(tokens), tuple(parents))


def simulated_path(seed: int, tree: SpecTree, width: int, depth: int) -> list[int]:
    """The path ``_accept_verify`` keeps for ``tree`` in simulate mode, as
    the first draws of an engine seeded with ``seed`` pick it."""
    engine = Engine(ServeConfig(), seed=seed)
    kept = []

    class Cache:
        def keep_path(self, table, kv_len, path):
            kept.append(path)

    engine.cache = Cache()
    rs = RequestState(EngineRequest("r", [1, 2], 99, 0, (width, depth)), table=None, outputs=[5])
    engine._accept_verify(ChunkEntry(rs, Stage.VERIFY, 0, tree.spec_len, 2, tree), None)
    return kept[0]


def drawn_branches(seed: int, width: int, depth: int) -> list[int]:
    """The branch per level that a simulate-mode verify draws after its depth."""
    rng = np.random.default_rng(seed)
    return rng.integers(width, size=int(rng.integers(depth))).tolist()


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    width=st.integers(1, 3),
    depth=st.integers(1, 4),
    kept=st.lists(st.integers(0, 3), max_size=40),
)
def test_simulate_mode_draws_a_path_through_the_tree_it_has(seed, width, depth, kept):
    """Simulate mode draws the path's depth, then one branch in
    ``range(width)`` per level, whatever the tree. On the full shape every
    drawn branch exists, so the path is the one it always took; a drawn
    branch that the ragged tree lacks ends the path; the root alone keeps
    ``[0]``. No draw falls off the tree."""
    branches = drawn_branches(seed, width, depth)
    full = full_tree(0, width, depth, lambda p, b: 0)
    want = [0]
    for branch in branches:  # the walk of full-shape trees, which raises if a branch is missing
        want.append(full.children(want[-1])[branch])
    assert simulated_path(seed, full, width, depth) == want
    assert simulated_path(seed, SpecTree((0,), (None,)), width, depth) == [0]
    tree = pruned_tree(width, depth, [min(k, width) for k in kept])
    path = simulated_path(seed, tree, width, depth)
    taken = [tree.children(parent).index(child) for parent, child in zip(path, path[1:])]
    assert taken == branches[: len(taken)]
    assert len(taken) == len(branches) or branches[len(taken)] >= len(tree.children(path[-1]))


@pytest.mark.parametrize("numeric", [True, False], ids=["numeric", "simulate"])
def test_linear_memo_holds_each_op_and_m_once_and_changes_no_result(cfg, numeric, monkeypatch):
    """Each linear op's grid and task table are built once per chunk M,
    and a run that rebuilds them before every chunk logs and reports the
    same bytes. A 12-token budget makes most chunks repeat an M."""
    cfg.budget = 12
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


WIDE = ModelConfig(hidden_size=256, num_heads=16, num_kv_heads=4, intermediate_size=512)
PROFILED_CONFIGS = {
    # Only gate-up has two tile columns; QKV, O-proj and down have one.
    "default": lambda: ServeConfig(budget=128),
    # Every op has two or more tile columns.
    "wide": lambda: ServeConfig(budget=128, model=WIDE),
    # A 256 KB L2 makes col-major win some of the wide shapes.
    "wide_small_l2": lambda: ServeConfig(budget=128, model=WIDE, hw=HwConfig(l2_bytes=256 * 1024)),
}


@pytest.mark.parametrize("name", list(PROFILED_CONFIGS))
def test_profiling_serves_what_the_exhaustive_sweep_serves(name, monkeypatch):
    """An engine that prices each distinct walk once logs, reports and
    serves the same bytes and task tables as one that prices every
    candidate of every profiled shape, chunks of one tile row included."""
    engine = run_engine(PROFILED_CONFIGS[name](), numeric=False, trace=MIXED_TRACE, profile_linear=True)
    monkeypatch.setattr(engine_mod, "profile_swizzle", exhaustive_profile_swizzle)
    reference = run_engine(PROFILED_CONFIGS[name](), numeric=False, trace=MIXED_TRACE, profile_linear=True)
    assert min(engine._linear_plans) <= 16  # a chunk whose grids have one row
    assert json.dumps(engine.chunk_log) == json.dumps(reference.chunk_log)
    assert json.dumps(engine.report()) == json.dumps(reference.report())
    assert engine._linear_plans.keys() == reference._linear_plans.keys()
    for m, plans in engine._linear_plans.items():
        for op, table in plans.items():
            assert np.array_equal(table.cells, reference._linear_plans[m][op].cells), (m, op)


def test_default_profiling_prices_gate_up_by_two_walks(monkeypatch):
    """At the default shape every walk of QKV, O-proj and down is the same
    one column, and gate-up's grid at M = 16 is one row; so profiling
    prices gate-up's row-major and col-major walks at M = 32 .. 4096 and
    nothing else."""
    priced = Counter()
    real_simulate_linear = simulator_mod.simulate_linear

    def simulate_linear(grid, table, hw, prim, m, n, k):
        priced[m, n] += 1
        return real_simulate_linear(grid, table, hw, prim, m, n, k)

    monkeypatch.setattr(simulator_mod, "simulate_linear", simulate_linear)
    Engine(ServeConfig(), profile_linear=True)
    gate_up_n = 2 * ModelConfig().intermediate_size
    assert priced == {(m, gate_up_n): 2 for m in (32, 64, 128, 256, 512, 1024, 2048, 4096)}


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


@pytest.mark.parametrize("numeric", [True, False], ids=["numeric", "simulate"])
def test_report_spec_counts_the_verifies_their_rows_and_what_they_delivered(numeric, monkeypatch):
    """``report()["spec"]`` counts the verify entries the chunks ran, the
    tree rows they held and the tokens they delivered, and the speculative
    steps that ran in the decode run because their draft was the root
    alone. Each such decode delivers one token, so the verifies and those
    decodes together deliver every output of a speculative request but
    the first, which its last prompt slice picks."""
    verify_rows = []
    decoded = []
    real_execute_chunk = Engine._execute_chunk

    def execute_chunk(engine, chunk):
        verify_rows.extend(e.token_num for e in chunk.entries if e.stage is Stage.VERIFY)
        decoded.extend(rs for rs in chunk.decode_run if rs.request.spec)
        real_execute_chunk(engine, chunk)

    monkeypatch.setattr(Engine, "_execute_chunk", execute_chunk)
    engine = run_engine(ServeConfig(), numeric=numeric, trace=MIXED_TRACE)
    delivered = sum(len(rt.outputs) - 1 for rt in engine.runtimes.values() if rt.request.spec)
    assert sum(c["stages"].count("V") for c in engine.chunk_log) == len(verify_rows)
    spec = engine.report()["spec"]
    assert spec == {
        "verifies": len(verify_rows),
        "rows": sum(verify_rows),
        "delivered": delivered - len(decoded),
        "decoded": len(decoded),
    }
    assert spec["decoded"] > 0 and all(rows > 1 for rows in verify_rows)
    if numeric:
        assert spec["verifies"] > 0 and spec["delivered"] > spec["verifies"]


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
        for op, table in plan.linears.items():
            n, k, prim = engine._linear_ops[op]
            traces.append(simulate_linear(table.grid, dataclasses.replace(table, priced=[]), hw, prim, m, n, k))
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


@pytest.mark.parametrize("numeric", [True, False], ids=["numeric", "simulate"])
def test_queue_log_holds_each_chunks_queue_depths_and_the_report_their_mean_and_max(numeric, monkeypatch):
    """``Engine.queue_log`` has one row per ``chunk_log`` row: the prefill,
    decode and verify queue lengths the scheduler built the chunk from,
    and the requests not yet arrived. ``report()["chunks"]["queue_depth"]``
    gives each column's mean and max over the chunks."""
    seen = []  # (queue lengths, pending arrivals) before each chunk built
    real_schedule_next = TokenScheduler.schedule_next

    def schedule_next(sched):
        depths = (len(sched._prefill), len(sched._decode), len(sched._verify), len(engine.pending))
        chunk = real_schedule_next(sched)
        if chunk is not None:
            seen.append(depths)
        return chunk

    monkeypatch.setattr(TokenScheduler, "schedule_next", schedule_next)
    cfg = ServeConfig(budget=32)
    engine = Engine(cfg, ToyModel.seeded(cfg.model, seed=0) if numeric else None)
    for row in MIXED_TRACE:
        spec = row["spec"] and (row["spec"]["width"], row["spec"]["depth"])
        engine.submit(EngineRequest(row["id"], row["prompt"], row["output_len"], row["arrival"], spec))
    report = engine.run()
    assert engine.queue_log == seen and len(seen) == len(engine.chunk_log)
    columns = dict(zip(engine_mod.QUEUES, zip(*seen)))
    assert report["chunks"]["queue_depth"] == {
        q: {"mean": sum(col) / len(col), "max": max(col)} for q, col in columns.items()
    }
    assert max(columns["prefill"]) > 1 and max(columns["decode"]) > 1 and max(columns["pending"]) > 0
    if numeric:
        assert max(columns["verify"]) > 0


def test_submit_rejects_a_tree_larger_than_the_budget():
    cfg = ServeConfig(budget=16)
    engine = Engine(cfg)
    engine.submit(EngineRequest(req_id="fits", prompt=[1, 2], output_len=4, spec=(2, 4)))
    with pytest.raises(RejectedRequest, match=r"'deep'.* 31 tokens.* budget of 16"):
        engine.submit(EngineRequest(req_id="deep", prompt=[1, 2], output_len=4, spec=(2, 5)))
    with pytest.raises(RejectedRequest, match=r"'chain'.* at least 17 tokens.* budget of 16"):
        engine.submit(EngineRequest(req_id="chain", prompt=[1, 2], output_len=4, spec=(1, 17)))
    assert [r.req_id for r in engine.pending] == ["fits"]


@pytest.mark.parametrize(
    "spec, count",
    [
        ((1000, 2000), "at least 1001001"),  # the whole tree's size has more than 4,300 digits
        ((10**12, 4000), "at least 1000000000001"),
        ((2, 13), "8191"),  # only the last level passes the budget: the whole tree
        ((1, 5000), "at least 5000"),
    ],
)
def test_a_tree_is_counted_only_until_it_passes_the_budget(capsys, tmp_path, spec, count):
    """However wide or deep, a tree costs ``submit`` a few levels of
    counting: it stops at the first level past the default budget of
    4,096 and says "at least" when levels remain. The CLI exits 2 naming
    the request."""
    engine = Engine(ServeConfig())
    request = EngineRequest(req_id="wide", prompt=[1, 2], output_len=4, spec=spec)
    with pytest.raises(RejectedRequest, match=f"'wide'.* has {count} tokens, more than the chunk budget of 4096$"):
        engine.submit(request)
    trace = tmp_path / "t.jsonl"
    trace.write_text(json.dumps({"id": "r0", "arrival": 0, "prompt": [1], "output_len": 2, "spec": dict(zip(("width", "depth"), spec))}) + "\n")
    assert cli.main(["run", "--trace", str(trace), "--mode", "simulate"]) == 2
    assert capsys.readouterr().err.startswith(f"error: request 'r0': its speculative tree (width {spec[0]}, depth {spec[1]}) has {count} tokens")


def test_submit_rejects_an_id_already_submitted():
    """A repeated id is refused at ``submit``, naming it, whether the first
    request is still pending or already served; the first is kept."""
    engine = Engine(ServeConfig())
    engine.submit(EngineRequest(req_id="a", prompt=[1, 2], output_len=2))
    with pytest.raises(RejectedRequest, match="'a': its id was already submitted"):
        engine.submit(EngineRequest(req_id="a", prompt=[3], output_len=1, arrival=5))
    assert [(r.req_id, r.prompt) for r in engine.pending] == [("a", [1, 2])]
    engine.run()
    with pytest.raises(RejectedRequest, match="'a': its id was already submitted"):
        engine.submit(EngineRequest(req_id="a", prompt=[3], output_len=1))
    assert not engine.pending and len(engine.runtimes["a"].outputs) == 2


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
    """Each request fills the two-block pool alone (7 prompt tokens and one
    decode), so both pass ``submit``, but the chunk that prefills them
    together needs four blocks."""
    trace = tmp_path / "t.jsonl"
    prompts = {"a": list(range(7)), "b": list(range(10, 17))}
    write_trace([{"id": rid, "arrival": 0, "prompt": p, "output_len": 2} for rid, p in prompts.items()], trace)
    config = tmp_path / "t.cfg"
    config.write_text("kv.block_size = 4\nkv.pool_blocks = 2\nkv.cache_cap_blocks = 2\n")
    code = cli.main(["run", "--trace", str(trace), "--config", str(config), "--mode", "simulate"])
    assert code == 4
    err = capsys.readouterr().err
    assert err == "error: chunk 0: sequence 'b' needs 2 K/V blocks for 7 tokens, 0 free of 2 after eviction\n"


@pytest.mark.parametrize("mode", ["numeric", "simulate"])
def test_one_kv_head_serves_in_both_modes(tmp_path, mode):
    """With one K/V head the QKV weight is 96 columns wide, which no
    128-column tile fits; its GEMM runs on 64-column tiles, and numeric
    mode passes the oracle check."""
    n, _, prim = engine_mod._linear_ops(ModelConfig(num_kv_heads=1))[LinearOp.QKV]
    assert (n, prim.tile_n) == (96, 64)
    trace = tmp_path / "t.jsonl"
    write_trace(MIXED_TRACE, trace)
    config = tmp_path / "t.cfg"
    config.write_text("model.num_kv_heads = 1\n")
    check = ["--check"] if mode == "numeric" else []
    report = tmp_path / "report.json"
    args = ["run", "--trace", str(trace), "--config", str(config), "--mode", mode, "--report", str(report)]
    assert cli.main(args + check) == 0
    assert json.loads(report.read_text())["completed"] == len(MIXED_TRACE)


def test_cli_exits_2_on_a_prompt_larger_than_the_pool(tmp_path, capsys):
    trace = tmp_path / "t.jsonl"
    write_trace([{"id": "big", "arrival": 0, "prompt": list(range(20)), "output_len": 2}], trace)
    config = tmp_path / "t.cfg"
    config.write_text("kv.block_size = 4\nkv.pool_blocks = 2\nkv.cache_cap_blocks = 2\n")
    code = cli.main(["run", "--trace", str(trace), "--config", str(config), "--mode", "simulate"])
    assert code == 2
    err = capsys.readouterr().err
    assert err == "error: request 'big': its K/V grows to 21 tokens, which need 6 blocks, more than the pool of 2\n"


def test_cli_exits_2_when_the_outputs_would_not_fit_in_the_pool(tmp_path, capsys):
    """The 8-token prompt fits the two-block pool, but its K/V grows to 13
    tokens by the last decode, which no run could hold."""
    trace = tmp_path / "t.jsonl"
    write_trace([{"id": "big", "arrival": 0, "prompt": list(range(8)), "output_len": 6}], trace)
    config = tmp_path / "t.cfg"
    config.write_text("kv.block_size = 4\nkv.pool_blocks = 2\nkv.cache_cap_blocks = 0\n")
    code = cli.main(["run", "--trace", str(trace), "--config", str(config), "--mode", "simulate"])
    assert code == 2
    err = capsys.readouterr().err
    assert err == "error: request 'big': its K/V grows to 13 tokens, which need 4 blocks, more than the pool of 2\n"


@pytest.mark.parametrize("numeric", [False, True], ids=["simulate", "numeric"])
@pytest.mark.parametrize(
    "prompt_len, output_len, spec",
    [(8, 5, None), (6, 5, (2, 2)), (12, 1, (2, 2))],
    ids=["plain", "speculative", "speculative-one-output"],
)
def test_a_request_at_the_pool_bound_serves_and_one_token_more_is_rejected(numeric, prompt_len, output_len, spec):
    """Three 4-token blocks hold 12 tokens: a plain request's prompt and
    every output but the last (8 + 5 - 1), or a speculative one's plus the
    two tokens its last width-2 depth-2 tree adds past the root (6 + 5 - 1
    + 2). A speculative request with one output never verifies, so its
    12-token prompt fits. Alone in the pool, each serves to the end; with
    one more prompt token, ``submit`` rejects it. The plain request fills
    the pool."""
    cfg = ServeConfig(kv_block_size=4, kv_pool_blocks=3, kv_cache_cap_blocks=3)
    engine = Engine(cfg, ToyModel.seeded(cfg.model, seed=0) if numeric else None, check=numeric)
    with pytest.raises(RejectedRequest, match=r"'over': its K/V grows to 13 tokens, which need 4 blocks"):
        engine.submit(EngineRequest("over", list(range(prompt_len + 1)), output_len, spec=spec))
    engine.submit(EngineRequest("fits", list(range(prompt_len)), output_len, spec=spec))
    least_free = []
    append_run = engine.cache.append_run

    def append_run_counted(tables, tokens):
        append_run(tables, tokens)
        least_free.append(engine.cache.free_block_count())

    engine.cache.append_run = append_run_counted
    report = engine.run()
    assert report["requests"]["fits"]["done"] and len(engine.runtimes["fits"].outputs) == output_len
    if spec is None:
        assert min(least_free) == 0


@pytest.mark.parametrize("spec", [None, (2, 2)], ids=["plain", "speculative"])
def test_a_request_past_the_models_positions_is_refused_in_numeric_mode(spec):
    """A 12-position model serves a request whose K/V reaches 12 tokens
    (a speculative one's last width-2 depth-2 tree adds 2 past the root)
    and refuses one that reaches 13; simulate mode has no position limit."""
    cfg = ServeConfig()
    model = ToyModel.seeded(cfg.model, seed=0, max_positions=12)
    prompt_len = 8 if spec is None else 6
    for numeric in (True, False):
        engine = Engine(cfg, model if numeric else None, check=numeric)
        over = EngineRequest("over", list(range(prompt_len + 1)), 5, spec=spec)
        if numeric:
            with pytest.raises(RejectedRequest, match=r"'over': .* 13 tokens, past the model's 12 positions"):
                engine.submit(over)
        else:
            engine.submit(over)
        engine.submit(EngineRequest("fits", list(range(prompt_len)), 5, spec=spec))
        assert engine.run()["requests"]["fits"]["done"]


def test_cli_sizes_the_positions_to_the_trace_and_refuses_a_prompt_past_the_model(tmp_path, capsys, monkeypatch):
    """``run_trace`` builds the positional table for the longest request,
    a prompt of 40 and 6 outputs here (45 positions); a 4,100-token
    prompt passes the model's 4,096 positions and exits 2 with the
    request named, where it once raised an ``IndexError``."""
    sizes = []
    seeded = ToyModel.seeded

    def seeded_recorded(cfg, seed=0, max_positions=4096):
        sizes.append(max_positions)
        return seeded(cfg, seed=seed, max_positions=max_positions)

    monkeypatch.setattr(ToyModel, "seeded", seeded_recorded)
    trace = tmp_path / "t.jsonl"
    rows = [{"id": "short", "arrival": 0, "prompt": [1] * 8, "output_len": 3},
            {"id": "long", "arrival": 2, "prompt": [2] * 40, "output_len": 6}]
    write_trace(rows, trace)
    report = str(tmp_path / "r.json")
    assert cli.main(["run", "--trace", str(trace), "--mode", "numeric", "--check", "--report", report]) == 0
    assert sizes == [45]
    write_trace([{"id": "long", "arrival": 0, "prompt": [1] * 4100, "output_len": 2}], trace)
    assert cli.main(["run", "--trace", str(trace), "--mode", "numeric"]) == 2
    err = capsys.readouterr().err
    assert err == "error: request 'long': its K/V grows to 4101 tokens, past the model's 4096 positions\n"
    assert sizes == [45, 4096]


def mixed_simulate_trace() -> list[dict]:
    """Plain and speculative requests in turn, whose prompts split at a
    64-token budget, and four long plain decodes: most chunks hold a run
    of decodes, speculative steps with a root-only draft among them, then
    prefill slices."""
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
    assert sum(n for key, n in composition.items() if "D" in key and "V" in key) == 2
    assert sum(c["stages"].count("P") for c in engine.chunk_log) == 36  # slices of 20 prompts
    assert report["makespan_ticks"] == 50324.5
    assert engine.runtimes["longr00002"].outputs == [52, 19, 30, 114, 86, 23, 113, 55, 89, 37, 47, 86, 81, 91]
    # The per-op ticks, the budget fill, the spec counts and the queue
    # depths were added to the report after this run was first recorded;
    # they are pinned here, and the rest hashes.
    assert report.pop("op_ticks") == {
        "attention": 5966.5,
        "qkv": 11811.0,
        "o_proj": 6018.0,
        "gate_up": 14718.0,
        "down": 11811.0,
    }
    assert report["chunks"].pop("budget_fill") == 1227 / (58 * 64)
    # Seeded draws seldom repeat a 2-token run, so most drafts are the root
    # alone and run as decodes; two trees had nodes past the root.
    assert report.pop("spec") == {"verifies": 2, "rows": 6, "delivered": 2, "decoded": 111}
    assert report["chunks"].pop("queue_depth") == {
        "prefill": {"mean": 178 / 58, "max": 18},
        "decode": {"mean": 313 / 58, "max": 15},
        "verify": {"mean": 2 / 58, "max": 1},
        "pending": {"mean": 18 / 58, "max": 18},
    }
    outputs = {str(rid): rt.outputs for rid, rt in sorted(engine.runtimes.items(), key=lambda kv: str(kv[0]))}
    blob = json.dumps([outputs, engine.chunk_log, report], sort_keys=True)
    assert hashlib.sha256(blob.encode()).hexdigest() == "7837261fc0cede06e074ca7797b709605125315d0a077903fddc2deb70e41d9a"
