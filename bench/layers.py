"""Per-layer tracing from outside the program.

The engine calls the other layers through names it imports into
``tileserve.engine`` and through methods of ``RadixKvCache``,
``TokenScheduler``, ``SeededProposer`` and ``ProfileStore``. ``Tracer``
replaces those attributes with timing wrappers for the length of a
``with`` block and puts the originals back afterwards. Each wrapper
records self time (its duration minus the wrapped calls nested inside
it), a call count, and whatever its observer pulls from the arguments
and the return value. Layers are the modules of ``tileserve``.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

from tileserve import engine as engine_mod
from tileserve.kv_cache import RadixKvCache
from tileserve.planner import (
    LinearOp,
    TaskTable,
    contiguous_assign,
    lookup_linear_tasktable,
    reorder_attention,
)
from tileserve.profiles import ProfileStore
from tileserve.scheduler import TokenScheduler
from tileserve.simulator import Schedule, simulate_attention, simulate_linear
from tileserve.spec_decode import SeededProposer

from stats import percentile, tail_percentile

LAYERS = (
    "engine",
    "scheduler",
    "kv_cache",
    "planner",
    "attention",
    "gemm",
    "simulator",
    "spec_decode",
    "profiles",
    "oracle",
)

# Functions the engine calls by the name it imported them under.
ENGINE_NAMES = {
    "run_tile": "attention",
    "skip_plan": "attention",
    "gemm_virtual_pad": "gemm",
    "fused_sv_write": "gemm",
    "smooth_shape": "gemm",
    "decompose_attention": "planner",
    "decompose_linear": "planner",
    "lookup_linear_tasktable": "planner",
    "reorder_attention": "planner",
    "l2_kv_split_blocks": "simulator",
    "simulate_attention": "simulator",
    "simulate_linear": "simulator",
    "profile_swizzle": "profiles",
    "tree_mask": "spec_decode",
    "verify_accept": "spec_decode",
    "rms_norm": "oracle",
    "silu": "oracle",
}

# Public methods, by class.
METHODS = {
    RadixKvCache: (
        "kv_cache",
        (
            "match_prefix",
            "start_sequence",
            "commit_tokens",
            "truncate_tokens",
            "release_sequence",
            "release_blocks",
            "evict",
            "kv_view",
        ),
    ),
    TokenScheduler: ("scheduler", ("add_request", "schedule_next", "complete_chunk")),
    SeededProposer: ("spec_decode", ("propose",)),
    ProfileStore: ("profiles", ("put", "get", "profiled_ms")),
    engine_mod.Engine: ("engine", ("run",)),
}


def linear_op_dims(model_cfg) -> dict[tuple[int, int], LinearOp]:
    """(N, K) of each linear op of the model, as the engine prices them."""
    return {
        (model_cfg.qkv_out, model_cfg.hidden_size): LinearOp.QKV,
        (model_cfg.hidden_size, model_cfg.num_heads * model_cfg.head_size): LinearOp.O_PROJ,
        (2 * model_cfg.intermediate_size, model_cfg.hidden_size): LinearOp.GATE_UP,
        (model_cfg.hidden_size, model_cfg.intermediate_size): LinearOp.DOWN,
    }


class Tracer:
    """Self time, calls and observations per wrapped function.

    Use as a context manager around one replay. ``self_s`` and
    ``calls`` are keyed ``"<layer>.<function>"``.
    """

    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self._stack: list[float] = []
        self._saved: list[tuple[object, str, object]] = []
        self.schedule_times: list[float] = []
        self.prompt_tokens = 0
        self.hit_tokens = 0
        self.evicted_blocks = 0
        self.tiles = 0
        self.collision_stops = 0
        self.sim_events = 0
        self.attention_calls: list[tuple[tuple, dict, float]] = []
        self.linear_calls: list[tuple[tuple, float]] = []
        self.cube_busy = 0.0
        self.vector_busy = 0.0
        self.core_span = 0.0
        self.accept_lens: list[int] = []

    # -- patching -------------------------------------------------------

    def __enter__(self) -> "Tracer":
        observers = {
            "scheduler.schedule_next": self._on_schedule,
            "kv_cache.start_sequence": self._on_start_sequence,
            "kv_cache.evict": self._on_evict,
            "planner.decompose_attention": self._on_tiles,
            "simulator.simulate_attention": self._on_attention,
            "simulator.simulate_linear": self._on_linear,
            "spec_decode.verify_accept": self._on_accept,
        }
        for name, layer in ENGINE_NAMES.items():
            self._patch(engine_mod, name, layer, observers.get(f"{layer}.{name}"))
        for cls, (layer, names) in METHODS.items():
            for name in names:
                self._patch(cls, name, layer, observers.get(f"{layer}.{name}"))
        self._watch_collisions()
        return self

    def __exit__(self, *exc) -> None:
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()

    def _patch(self, owner, name: str, layer: str, observe) -> None:
        original = owner.__dict__[name]
        key = f"{layer}.{name}"
        stack = self._stack
        self_s = self.self_s
        calls = self.calls

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self_s[key] += dt - stack.pop()
                calls[key] += 1
                if stack:
                    stack[-1] += dt
            if observe is not None:
                observe(args, kwargs, result)
            return result

        self._saved.append((owner, name, original))
        setattr(owner, name, wrapper)

    def _watch_collisions(self) -> None:
        """Count the sequences whose caching stops at a first-token collision.

        The radix tree keys each child by the first token of its block, so
        a block that starts like a cached sibling but differs later is not
        cached, and nor is anything after it in that sequence. The count
        surfaces that defect; it reads the cache's private per-sequence
        state and is not timed.
        """
        original = RadixKvCache.__dict__["_try_cache_block"]

        def wrapper(cache, table, st, bid):
            was_caching, cursor = st.caching_ok, st.cursor
            original(cache, table, st, bid)
            if was_caching and not st.caching_ok and cursor.alive:
                start = (len(table.blocks) - 1) * cache.block_size
                key = tuple(st.tokens[start : start + cache.block_size])
                child = cursor.children.get(key[0])
                if child is not None and child.token_key != key:
                    self.collision_stops += 1

        self._saved.append((RadixKvCache, "_try_cache_block", original))
        RadixKvCache._try_cache_block = wrapper

    # -- observers ------------------------------------------------------

    def _on_schedule(self, args, kwargs, chunk) -> None:
        self.schedule_times.append(time.perf_counter())

    def _on_start_sequence(self, args, kwargs, table) -> None:
        self.prompt_tokens += len(args[2])
        self.hit_tokens += table.total_tokens

    def _on_evict(self, args, kwargs, freed) -> None:
        self.evicted_blocks += freed

    def _on_tiles(self, args, kwargs, tiles) -> None:
        self.tiles += len(tiles)

    def _on_attention(self, args, kwargs, trace) -> None:
        self.attention_calls.append((args, kwargs, trace.makespan))
        self._on_sim_trace(trace, args[0].core_num)

    def _on_linear(self, args, kwargs, trace) -> None:
        self.linear_calls.append((args, trace.makespan))
        self._on_sim_trace(trace, args[1].core_num)

    def _on_sim_trace(self, trace, cores: int) -> None:
        self.sim_events += len(trace.events)
        self.cube_busy += trace.busy.get("cube", 0.0)
        self.vector_busy += trace.busy.get("vector", 0.0)
        self.core_span += trace.makespan * cores

    def _on_accept(self, args, kwargs, path) -> None:
        self.accept_lens.append(len(path))

    # -- results --------------------------------------------------------

    def layer_self_s(self, layer: str) -> float:
        prefix = layer + "."
        return sum((v for k, v in self.self_s.items() if k.startswith(prefix)), 0.0)

    def metrics(self, engine, wall_s: float) -> dict[str, float]:
        """Per-layer metrics of one traced replay of ``engine`` that took
        ``wall_s`` seconds."""
        num_layers = engine.cfg.model.num_layers
        steps = [(b - a) * 1e3 for a, b in zip(self.schedule_times, self.schedule_times[1:])]
        op_ticks = {op: 0.0 for op in LinearOp}
        dims = linear_op_dims(engine.cfg.model)
        for args, span in self.linear_calls:
            op_ticks[dims[args[5], args[6]]] += span
        chunks = engine.chunk_log
        total_skip = engine.skip_computed + engine.skip_skipped
        out = {
            "engine.chunks": len(chunks),
            "engine.step_ms_p50": percentile(steps, 50),
            "engine.step_ms_p95": tail_percentile(steps, 95),
            "scheduler.budget_fill": sum(c["tokens"] for c in chunks) / (len(chunks) * engine.cfg.budget),
            "scheduler.mixed_chunk_frac": sum(len(set(c["stages"])) > 1 for c in chunks) / len(chunks),
            "kv_cache.evict_s": self.self_s["kv_cache.evict"],
            "kv_cache.evict_calls": self.calls["kv_cache.evict"],
            "kv_cache.evicted_blocks": self.evicted_blocks,
            "kv_cache.commit_calls": self.calls["kv_cache.commit_tokens"],
            "kv_cache.hit_token_frac": self.hit_tokens / self.prompt_tokens,
            "kv_cache.collision_stops": self.collision_stops,
            "planner.tiles": self.tiles,
            "attention.run_tile_s": self.self_s["attention.run_tile"],
            "attention.run_tile_calls": self.calls["attention.run_tile"],
            "attention.skip_ratio": engine.skip_skipped / total_skip if total_skip else 0.0,
            "gemm.calls": self.calls["gemm.gemm_virtual_pad"],
            "simulator.attention_s": self.self_s["simulator.simulate_attention"],
            "simulator.linear_s": self.self_s["simulator.simulate_linear"],
            "simulator.events": self.sim_events,
            "model.attn_ticks": num_layers * sum(span for *_, span in self.attention_calls),
            "model.qkv_ticks": num_layers * op_ticks[LinearOp.QKV],
            "model.o_proj_ticks": num_layers * op_ticks[LinearOp.O_PROJ],
            "model.gate_up_ticks": num_layers * op_ticks[LinearOp.GATE_UP],
            "model.down_ticks": num_layers * op_ticks[LinearOp.DOWN],
            "model.cube_util": self.cube_busy / self.core_span,
            "model.vector_util": self.vector_busy / self.core_span,
            "spec_decode.accept_len_mean": (
                sum(self.accept_lens) / len(self.accept_lens) if self.accept_lens else 0.0
            ),
            "profiles.profile_s": self.self_s["profiles.profile_swizzle"],
        }
        for layer in LAYERS:
            self_s = self.layer_self_s(layer)
            out[f"{layer}.self_s"] = self_s
            out[f"{layer}.self_frac"] = self_s / wall_s
        return out


def ablations(tracer: Tracer, engine) -> dict[str, float]:
    """The paper's ablations, re-priced on every captured task table.

    Each ``<a>_vs_<b>_ticks`` is the modelled ticks of what the engine ran
    (a) over the same work under the baseline (b); ``<b>_ticks`` is the
    baseline's total, over all transformer layers.
    """
    hw = engine.cfg.hw
    num_layers = engine.cfg.model.num_layers
    dims = linear_op_dims(engine.cfg.model)
    attn = contiguous = seq = 0.0
    for args, kwargs, span in tracer.attention_calls:
        table, hw_arg, schedule = args
        ordered = reorder_attention(list(table.all_items()), 1).per_core[0]
        dealt = TaskTable(tuple(tuple(c) for c in contiguous_assign(list(ordered), table.core_num)))
        attn += span
        contiguous += simulate_attention(dealt, hw_arg, schedule, **kwargs).makespan
        seq += simulate_attention(
            table, hw_arg, Schedule.SEQ, decode_fused=schedule is Schedule.DECODE_PIPE, **kwargs
        ).makespan
    linear = row_major = raw_m = 0.0
    empty = ProfileStore()
    for args, span in tracer.linear_calls:
        grid, _, hw_arg, prim, m, n, k = args
        linear += span
        # An empty store falls back to row-major order; the engine's store
        # looked up with the raw M finds an order only where M was profiled.
        row_major_table = lookup_linear_tasktable(empty, dims[n, k], (m, n, k), hw.core_num, grid)
        raw_m_table = lookup_linear_tasktable(engine.store, dims[n, k], (m, n, k), hw.core_num, grid)
        row_major += simulate_linear(grid, row_major_table, hw_arg, prim, m, n, k).makespan
        raw_m += simulate_linear(grid, raw_m_table, hw_arg, prim, m, n, k).makespan
    return {
        "ablation.snake_vs_contiguous_ticks": attn / contiguous,
        "ablation.contiguous_ticks": num_layers * contiguous,
        "ablation.pipe_vs_seq_ticks": attn / seq,
        "ablation.seq_ticks": num_layers * seq,
        "ablation.profiled_vs_rowmajor_ticks": linear / row_major,
        "ablation.rowmajor_ticks": num_layers * row_major,
        "ablation.smoothed_vs_raw_m_ticks": linear / raw_m,
        "ablation.raw_m_ticks": num_layers * raw_m,
    }
