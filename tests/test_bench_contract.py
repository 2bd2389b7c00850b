"""The benchmark's tracer contract, checked on a small replay.

``bench/layers.py`` wraps the names the engine imports and the cache,
scheduler, proposer and profile methods, then re-prices every captured
attention and linear task table for its ablations. A planner or engine
change that breaks either breaks the benchmark's per-layer run, so this
test replays a short trace through that path in both modes. It also pins
that the engine's linear memo hides no ``simulate_linear`` call, and which
public cache and scheduler methods the tracer leaves unwrapped.
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
from tileserve.trace import gen_trace

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


# Public methods that ``layers.METHODS`` does not wrap, so their self time
# counts toward the caller's layer. The engine calls ``append_run`` and, in
# numeric mode, ``kv_slots`` once per chunk, and ``write_kv`` per accepted
# verify path and layer; the rest are reservations, set-up and accessors.
UNWRAPPED = {
    RadixKvCache: {
        "append_run",
        "cached_block_count",
        "free_block_count",
        "from_config",
        "kv_slots",
        "pool_partition",
        "reachable_block_ids",
        "reserve_blocks",
        "write_kv",
    },
    TokenScheduler: set(),
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
