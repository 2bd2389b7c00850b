"""The benchmark's tracer contract, checked on a small replay.

``bench/layers.py`` wraps the names the engine imports and the cache,
scheduler, proposer and profile methods, then re-prices every captured
attention and linear task table for its ablations. A planner or engine
change that breaks either breaks the benchmark's per-layer run, so this
test replays a short trace through that path in both modes, and checks
that the tracer counts the engine's drafts and accepted paths. It also pins
that the engine's linear memo hides no ``simulate_linear`` call, which
public cache and scheduler methods the tracer leaves unwrapped, and what
``bench/replay.py`` and ``bench/stats.py`` read from a replay's engine.
"""

from __future__ import annotations

import importlib
import math
import time
from pathlib import Path

import pytest

from tileserve import engine as engine_mod
from tileserve.config import ServeConfig
from tileserve.engine import Engine, EngineRequest
from tileserve.kv_cache import RadixKvCache
from tileserve.oracle import ToyModel
from tileserve.planner import LinearOp
from tileserve.scheduler import TokenScheduler
from tileserve.trace import gen_trace, write_trace

BENCH = Path(__file__).resolve().parents[1] / "bench"

# Speculative requests, and long plain decodes that make enough chunks for
# the tracer's p95 step time to leave ten samples beyond it.
TRACE = gen_trace("sharegpt_like", 3, 8, spec=(2, 2), mean_prompt=48, mean_output=16) + [
    {**row, "id": f"long{row['id']}"} for row in gen_trace("sharegpt_like", 4, 3, mean_prompt=24, mean_output=240)
]


def patched_attributes(layers) -> dict[tuple[object, str], object]:
    """Every attribute ``layers.Tracer`` replaces, with its current value."""
    owners = [(engine_mod, name) for name in layers.ENGINE_NAMES]
    owners += [(cls, name) for cls, (_, names) in layers.METHODS.items() for name in names]
    owners.append((RadixKvCache, "_try_cache_block"))
    return {(owner, name): owner.__dict__[name] for owner, name in owners}


@pytest.mark.parametrize("numeric", [False, True], ids=["simulate", "numeric"])
def test_tracer_metrics_and_ablations_on_a_small_replay(numeric, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    layers = importlib.import_module("layers")
    cfg = ServeConfig()
    chunks = []
    real_execute_chunk = Engine._execute_chunk

    def execute_chunk(engine, chunk):
        chunks.append(chunk)
        real_execute_chunk(engine, chunk)

    monkeypatch.setattr(Engine, "_execute_chunk", execute_chunk)
    engine = Engine(cfg, ToyModel.seeded(cfg.model, seed=0) if numeric else None)
    for row in TRACE:
        spec = row["spec"] and (row["spec"]["width"], row["spec"]["depth"])
        engine.submit(EngineRequest(row["id"], row["prompt"], row["output_len"], row["arrival"], spec))
    originals = patched_attributes(layers)
    with layers.Tracer() as tracer:
        t0 = time.perf_counter()
        engine.run()
        wall = time.perf_counter() - t0
    assert patched_attributes(layers) == originals

    metrics = tracer.metrics(engine, wall)
    ablations = layers.ablations(tracer, engine)
    assert all(math.isfinite(v) for v in {**metrics, **ablations}.values())
    units = sum(
        cfg.model.num_heads * (chunk.decodes + sum(-(-e.token_num // cfg.prefill_tile_size) for e in chunk.entries))
        for chunk in chunks
    )
    assert metrics["planner.tiles"] == units
    assert metrics["engine.chunks"] == len(chunks) == len(tracer.attention_calls)
    # The engine memoises each linear op's table per M, yet every chunk still
    # makes its four simulate_linear calls, in op order, and its logged ticks
    # are the layers times what the tracer saw: model.*_ticks and the linear
    # ablations count exactly what was priced.
    assert len(tracer.linear_calls) == 4 * len(chunks)
    dims = layers.linear_op_dims(cfg.model)
    for i, logged in enumerate(engine.chunk_log):
        span = tracer.attention_calls[i][2]
        calls = tracer.linear_calls[4 * i : 4 * i + 4]
        assert [dims[args[5], args[6]] for args, _ in calls] == list(LinearOp)
        for _, linear_span in calls:
            span += linear_span
        assert span * cfg.model.num_layers == logged["ticks"]


def test_the_tracer_sees_every_proposal_and_every_accepted_path(monkeypatch):
    """The bench's spec metrics come from the proposer the engine calls:
    ``spec_decode.accept_len_mean`` averages the paths ``verify_accept``
    returns and the layer's time includes ``SeededProposer.propose``. A
    numeric replay of speculative requests under the tracer counts one
    ``propose`` call per tree the engine drafts and one accepted length per
    path it keeps, in order."""
    monkeypatch.syspath_prepend(str(BENCH))
    layers = importlib.import_module("layers")
    cfg = ServeConfig()
    engine = Engine(cfg, ToyModel.seeded(cfg.model, seed=0))
    for row in TRACE:
        spec = row["spec"] and (row["spec"]["width"], row["spec"]["depth"])
        engine.submit(EngineRequest(row["id"], row["prompt"], row["output_len"], row["arrival"], spec))
    drafted = []
    real_propose = Engine._propose

    def propose(engine, rs):
        drafted.append(rs.request.req_id)
        return real_propose(engine, rs)

    monkeypatch.setattr(Engine, "_propose", propose)
    kept = []
    keep_path = engine.cache.keep_path

    def keep_path_counted(table, kv_len, path):
        kept.append(len(path))
        return keep_path(table, kv_len, path)

    engine.cache.keep_path = keep_path_counted
    with layers.Tracer() as tracer:
        t0 = time.perf_counter()
        engine.run()
        wall = time.perf_counter() - t0
    assert drafted and tracer.calls["spec_decode.propose"] == len(drafted)
    assert kept and tracer.accept_lens == kept
    assert tracer.metrics(engine, wall)["spec_decode.accept_len_mean"] == sum(kept) / len(kept)


def test_the_tracer_counts_the_hits_and_evictions_the_cache_counts(monkeypatch):
    """The bench's ``kv_cache.evicted_blocks`` and ``kv_cache.hit_token_frac``
    come from wrappers around ``RadixKvCache.evict`` and
    ``start_sequence``, which cannot follow the tree's insides. A replay
    of shared-prefix requests under a cache cap below two prefixes evicts
    as it caches; the evicted blocks and hit tokens the tracer counts must
    equal the cache's own counts in the report."""
    monkeypatch.syspath_prepend(str(BENCH))
    layers = importlib.import_module("layers")
    workloads = importlib.import_module("workloads")
    engine = Engine(ServeConfig(budget=512, kv_block_size=4, kv_cache_cap_blocks=128))
    for row in workloads.gen_requests("prefix_churn", 0)[:24]:
        engine.submit(EngineRequest(row["id"], row["prompt"], 2, row["arrival"]))
    with layers.Tracer() as tracer:
        report = engine.run()
    cache = report["cache"]
    assert cache["evicted_blocks"] > 0 and cache["hit_tokens"] > 0
    assert tracer.evicted_blocks == cache["evicted_blocks"]
    assert tracer.hit_tokens == cache["hit_tokens"]


# Public methods that ``layers.METHODS`` does not wrap, so their self time
# counts toward the caller's layer. The engine calls ``append_run`` and, in
# numeric mode, ``kv_slots`` once per chunk, and ``keep_path`` per verify
# entry; ``keep_path``'s own truncation and commit are wrapped, so the
# tracer still counts each commit. The rest are reservations, set-up and
# accessors, such as the queue depths the engine reads before each chunk.
UNWRAPPED = {
    RadixKvCache: {
        "append_run",
        "cached_block_count",
        "free_block_count",
        "from_config",
        "keep_path",
        "kv_slots",
        "pool_partition",
        "reachable_block_ids",
        "reserve_blocks",
    },
    TokenScheduler: {"queue_depths"},
}


def test_every_public_cache_and_scheduler_method_is_wrapped_or_listed(monkeypatch):
    """A new public method of the cache or the scheduler is either traced
    (added to ``METHODS`` in ``bench/layers.py``) or listed above, so its
    time is not counted toward the engine unnoticed."""
    monkeypatch.syspath_prepend(str(BENCH))
    layers = importlib.import_module("layers")
    for cls, unwrapped in UNWRAPPED.items():
        public = {name for name in vars(cls) if not name.startswith("_")}
        assert public - set(layers.METHODS[cls][1]) == unwrapped, cls.__name__


@pytest.mark.parametrize("workload", ["prefix_churn", "mixed_numeric"], ids=["simulate", "numeric"])
def test_the_bench_reads_each_request_record_of_a_replay(workload, tmp_path, monkeypatch):
    """``bench/replay.py`` and ``bench/stats.py`` read each request through
    ``engine.runtimes``: its request's prompt, arrival and output length,
    its outputs and token ticks, and in numeric mode its kept logits rows.
    A replay of a small trace through the bench's own runner, with its
    request rows, model digest and output gate, breaks here when a record
    stops giving them."""
    monkeypatch.syspath_prepend(str(BENCH))
    replay_mod = importlib.import_module("replay")
    stats = importlib.import_module("stats")
    trace = tmp_path / "t.jsonl"
    write_trace(TRACE, trace)
    config = tmp_path / "t.cfg"
    config.write_text("")
    runner = replay_mod.Runner(workload, [trace], config)
    replay = runner.replay(0)
    engine = replay.engine
    assert replay.error is None and replay.failed == 0
    gate = runner.gate(replay)
    assert gate.problems == []
    rows = stats.request_rows(engine)
    assert rows == replay.rows
    assert [row[:3] for row in rows] == sorted((r["id"], r["arrival"], r["output_len"]) for r in TRACE)
    for rid, _, output_len, ticks in rows:
        assert ticks == engine.runtimes[rid].token_ticks and len(ticks) == output_len
    assert replay.digest == stats.model_digest(rows, engine.chunk_log)
    assert replay.tokens == sum(len(r["prompt"]) + r["output_len"] for r in TRACE)
    if workload == "mixed_numeric":
        assert gate.check_s > 0 and all(rs.logits_rows for rs in engine.runtimes.values())
