"""Serving loop: chunks from the scheduler run through the planner,
the tiled kernels, and the paged K/V cache.

Each chunk is planned once. ``_plan_chunk`` builds a ``_ChunkPlan``:
the chunk's (query tile x head) units as one ``TileTable`` and dealt
to cores in snake order, the pipeline schedule and K/V split the L2
rule picks from the table's columns, each verify entry's tree mask,
and each linear op's tile grid and profiled task table at the smoothed
M; those depend only on (op, M), so the engine builds each once and
its table keeps its priced result. The numeric kernels run that plan
in every layer: the decode run in one batched attention call, as
PagedAttention runs every decode sequence in one launch, and each
prefill or verify query tile in a call of its own, each call covering
every head. What those calls read besides the layer's K/V, and the pool
rows of the chunk's new K/V, are built once per chunk, before the layer
loop, so a layer does only arithmetic. The cost model prices the (query
tile x head) units of the same plan with the same split, so what runs
is what is priced.

One radix cache serves every transformer layer: each sequence has one
block table, and each chunk reserves every stage's tokens once, after
the cache has made room for all of them (``RadixKvCache.reserve_blocks``,
skipped when the free blocks cover every token of the chunk), so a chunk
that does not fit changes no table. The chunk is priced before its
tokens are picked, so each output is recorded with its tick where it is
picked. A chunk's decodes are one run at its head, carried as columns
(``Chunk.decode_ids`` and ``Chunk.decode_kv``) with no entry object per
decode, and handled in one pass each for tokens, the cache append
(``RadixKvCache.append_run``), the attention tiles and their kernel
call, picks (one seeded draw call in simulate mode) and retirement;
prefill and verify entries take the per-entry path. Numeric and
simulate mode share that flow and the prefill/decode/verify
bookkeeping; only the token source differs. Given a model (numeric
mode), the engine runs it in fp32, writes each layer's K/V into the
reserved rows with one scatter per pool (``RadixKvCache.kv_slots``),
picks tokens by argmax and, with ``check``, verifies kept rows against
a dense recompute. Without one (simulate mode) it reads only the
``ModelConfig``, holds no weights or pool rows, draws seeded tokens and
cannot ``check``. Both modes price the work in model ticks.
"""

from __future__ import annotations

import bisect
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .attention import TileKv, run_tile, skip_plan
from .config import ModelConfig, ServeConfig
from .gemm import TilePrimitive, gemm_virtual_pad, fused_sv_write, smooth_shape
from .kv_cache import BlockTable, PoolExhausted, RadixKvCache
from .oracle import ToyModel, dense_forward, rms_norm, silu
from .planner import (
    GridTable,
    LinearOp,
    TaskTable,
    TileTable,
    decompose_attention,
    decompose_linear,
    lookup_linear_tasktable,
    reorder_attention,
)
from .profiles import ProfileStore
from .scheduler import Chunk, Request, Stage, StageResult, TokenScheduler
from .simulator import Schedule, l2_kv_split_blocks, profile_swizzle, simulate_attention, simulate_linear
from .spec_decode import SeededProposer, SpecTree, tree_mask, verify_accept

CHECK_TOL = 1e-3  # max abs error of a logits row against the dense fp64 forward


class OracleCheckFailure(AssertionError):
    """A computed logits row diverged from the dense recompute."""


class RejectedRequest(ValueError):
    """A submitted request that no chunk could ever serve."""


@dataclass
class EngineRequest:
    req_id: object
    prompt: list[int]
    output_len: int
    arrival: int = 0
    spec: tuple[int, int] | None = None  # (width, depth)


@dataclass
class _Runtime:
    request: EngineRequest
    table: BlockTable
    last_token: int | None = None
    outputs: list[int] = field(default_factory=list)
    logits_rows: dict[int, np.ndarray] = field(default_factory=dict)
    token_ticks: list[float] = field(default_factory=list)
    done: bool = False


@dataclass(frozen=True)
class _ChunkPlan:
    """One chunk's tiling, built once and read by the kernels of every
    layer and by the cost model.

    ``tiles`` holds the (query tile x head) units; the attention kernel
    runs its head-0 units for every head, the decode run's in one call
    and each other query tile's in a call of its own, and ``tasktable``
    deals them all to cores for the cost model. ``split`` is the K/V split in
    blocks (None when unsplit) that ``schedule`` runs with. ``masks``
    holds the tree mask of each verify entry, by stage id (its place in
    the chunk's flat order, after the decode run).
    ``linears`` holds each op's tile grid and task table, shared with
    every chunk of the same M (see ``Engine._plan_linears``).
    """

    tiles: TileTable
    tasktable: TaskTable
    schedule: Schedule
    split: int | None
    masks: dict[int, np.ndarray]
    linears: dict[LinearOp, tuple[tuple[int, int], GridTable]]


def _linear_ops(mcfg: ModelConfig) -> dict[LinearOp, tuple[int, int, TilePrimitive]]:
    """(N, K) of each linear op's weight and the GEMM tile it runs on:
    16 rows, up to 128 columns, and K steps of 128 where K allows."""
    dims = {
        LinearOp.QKV: (mcfg.qkv_out, mcfg.hidden_size),
        LinearOp.O_PROJ: (mcfg.hidden_size, mcfg.num_heads * mcfg.head_size),
        LinearOp.GATE_UP: (2 * mcfg.intermediate_size, mcfg.hidden_size),
        LinearOp.DOWN: (mcfg.hidden_size, mcfg.intermediate_size),
    }
    return {
        op: (n, k, TilePrimitive(tile_m=16, tile_n=min(128, n), tile_k=128 if k % 128 == 0 else 64))
        for op, (n, k) in dims.items()
    }


class Engine:
    def __init__(
        self,
        cfg: ServeConfig,
        model: ToyModel | None = None,
        *,
        check: bool = False,
        seed: int = 0,
        profile_linear: bool = False,
    ):
        cfg.validate()
        if check and model is None:
            raise ValueError("check needs a model: it compares the model's rows with a dense recompute")
        self.cfg = cfg
        self.model = model
        self.check = check
        self.rng = np.random.default_rng(seed)
        self.sched = TokenScheduler(cfg.budget, cfg.reserve)
        self.cache = RadixKvCache.from_config(cfg, cfg.model.num_layers if model is not None else 0)
        self.store = ProfileStore()
        self._linear_ops = _linear_ops(cfg.model)
        self._linear_plans: dict[int, dict[LinearOp, tuple[tuple[int, int], GridTable]]] = {}  # by chunk M
        self._weights32 = self._cast_weights(model) if model is not None else None
        self.runtimes: dict[object, _Runtime] = {}
        self.pending: list[EngineRequest] = []
        self.ticks = 0.0
        self.chunk_log: list[dict] = []
        self.skip_computed = 0
        self.skip_skipped = 0
        self._unit_busy = {"cube": 0.0, "vector": 0.0}  # ticks of one layer, over every priced chunk
        self._priced_span = 0.0  # their makespans, summed
        self._op_span = dict.fromkeys(("attention", *(op.value for op in LinearOp)), 0.0)  # one layer's, by op
        if profile_linear:
            self._profile_linears()

    # ------------------------------------------------------------------

    def submit(self, req: EngineRequest) -> None:
        if len(req.prompt) < 1:
            raise RejectedRequest(f"request {req.req_id!r}: prompt must be nonempty")
        blocks = -(-len(req.prompt) // self.cfg.kv_block_size)
        if blocks > self.cfg.kv_pool_blocks:
            raise RejectedRequest(
                f"request {req.req_id!r}: its prompt of {len(req.prompt)} tokens needs {blocks} K/V blocks, "
                f"more than the pool of {self.cfg.kv_pool_blocks}"
            )
        if req.spec is not None:
            width, depth = req.spec
            budget = self.sched.budget
            # A verify tree runs whole in one chunk. full_tree has width**level
            # nodes on each of its depth levels, so a tree deeper than the
            # budget cannot fit, whatever its width.
            size = depth if depth > budget else sum(width**level for level in range(depth))
            if size > budget:
                at_least = "at least " if depth > budget else ""
                raise RejectedRequest(
                    f"request {req.req_id!r}: its speculative tree (width {width}, depth {depth}) "
                    f"has {at_least}{size} tokens, more than the chunk budget of {budget}"
                )
        bisect.insort(self.pending, req, key=lambda r: (r.arrival, str(r.req_id)))

    def run(self) -> dict:
        while True:
            self._admit_arrived()
            chunk = self.sched.schedule_next()
            if chunk is None:
                if self.pending:
                    self.ticks = max(self.ticks, float(self.pending[0].arrival))
                    continue
                break
            self._execute_chunk(chunk)
        if self.check:
            self._run_checks()
        return self.report()

    # ------------------------------------------------------------------

    def _admit_arrived(self) -> None:
        while self.pending and self.pending[0].arrival <= self.ticks:
            req = self.pending.pop(0)
            table = self.cache.start_sequence(req.req_id, req.prompt, max_match=len(req.prompt) - 1)
            matched = table.total_tokens
            self.runtimes[req.req_id] = _Runtime(request=req, table=table)
            self.sched.add_request(
                Request(
                    req_id=req.req_id,
                    prompt_tokens=req.prompt[matched:],
                    output_len=req.output_len,
                    arrival=req.arrival,
                    kv_len=matched,
                    spec=req.spec,
                )
            )

    def _plan_chunk(self, chunk: Chunk) -> _ChunkPlan:
        hw = self.cfg.hw
        tiles = decompose_attention(chunk, self.cfg.model.num_heads, self.cfg)
        if (tiles.q_len == 1).all():
            schedule, split = Schedule.DECODE_PIPE, None
        else:
            max_q = int(tiles.q_len.max())
            max_kv = int((tiles.kv_len + tiles.stage_tokens).max())
            split = l2_kv_split_blocks(max_q, max_kv, self.cfg.kv_block_size, hw)
            schedule = Schedule.PIPE3 if split is None else Schedule.PIPE4
        return _ChunkPlan(
            tiles=tiles,
            tasktable=reorder_attention(tiles, hw.core_num),
            schedule=schedule,
            split=split,
            masks={
                ei: tree_mask(e.spec_tree)
                for ei, e in enumerate(chunk.entries, chunk.decodes)
                if e.stage is Stage.VERIFY
            },
            linears=self._plan_linears(chunk),
        )

    def _plan_linears(self, chunk: Chunk) -> dict[LinearOp, tuple[tuple[int, int], GridTable]]:
        """Each linear op's tile grid and task table at the chunk's M,
        built once per M. The profile store is frozen after ``__init__``,
        so (op, M) decides both; each table also keeps its priced result
        (``GridTable.priced``), so a repeated M is not priced again."""
        m = chunk.total_tokens
        linears = self._linear_plans.get(m)
        if linears is None:
            linears = {}
            for op, (n, k, prim) in self._linear_ops.items():
                grid = decompose_linear(chunk, n, prim.tile_m, prim.tile_n, self.cfg.quantum)
                sizes = self.store.profiled_ms(op.value, n, k) or self.cfg.quantum
                smoothed = smooth_shape(m, self.cfg.budget, sizes)
                linears[op] = grid, lookup_linear_tasktable(self.store, op, (smoothed, n, k), self.cfg.hw.core_num, grid)
            self._linear_plans[m] = linears
        return linears

    def _execute_chunk(self, chunk: Chunk) -> None:
        plan = self._plan_chunk(chunk)
        computed, skipped = skip_plan(plan.tiles, self.cfg.kv_block_size)
        self.skip_computed += int(computed.sum())
        self.skip_skipped += int(skipped.sum())
        d = chunk.decodes
        runtimes = self.runtimes
        run = [runtimes[req_id] for req_id in chunk.decode_ids]
        rts = [runtimes[entry.req_id] for entry in chunk.entries]
        tokens, positions = self._chunk_tokens_positions(chunk, run, rts)
        if chunk.total_tokens > self.cache.free_block_count():
            commits = [(rt.table, 1) for rt in run]
            commits += [(rt.table, entry.token_num) for entry, rt in zip(chunk.entries, rts)]
            try:
                self.cache.reserve_blocks(commits)
            except PoolExhausted as exc:
                raise PoolExhausted(f"chunk {chunk.chunk_id}: {exc}") from None
        self.cache.append_run([rt.table for rt in run], tokens[:d])
        for entry, rt in zip(chunk.entries, rts):
            self.cache.commit_tokens(
                rt.table,
                tokens[entry.start_pos : entry.start_pos + entry.token_num],
                cacheable=entry.stage is not Stage.VERIFY,
            )
        logits, spec_kv = None, {}
        if self.model is not None:
            tables = [rt.table for rt in run] + [rt.table for rt in rts]
            logits, spec_kv = self._forward_chunk(chunk, plan, tokens, positions, tables)
        span = self._simulate_chunk(chunk, plan)
        self.ticks += span
        results = self._apply_logits(chunk, run, rts, logits, spec_kv)
        stages = Counter(entry.stage.value for entry in chunk.entries)
        self.chunk_log.append(
            {
                "chunk_id": chunk.chunk_id,
                "tokens": chunk.total_tokens,
                "stages": "D" * d + "P" * stages["P"] + "V" * stages["V"],
                "ticks": span,
            }
        )
        for req_id in self.sched.complete_chunk(chunk, results):
            rt = self.runtimes[req_id]
            rt.done = True
            self.cache.release_sequence(rt.table)

    # ------------------------------------------------------------------
    # Numeric forward
    # ------------------------------------------------------------------

    def _cast_weights(self, model: ToyModel) -> dict:
        w32 = {
            "embed": model.embed.astype(np.float32),
            "pos": model.pos.astype(np.float32),
            "final_norm": model.final_norm.astype(np.float32),
            "lm_head": model.lm_head.astype(np.float32),
            "layers": [],
        }
        for layer in model.layers:
            w32["layers"].append({k: v.astype(np.float32) for k, v in layer.items()})
        return w32

    def _chunk_tokens_positions(
        self, chunk: Chunk, run: list[_Runtime], rts: list[_Runtime]
    ) -> tuple[list[int], list[int]]:
        """The chunk's tokens and their sequence positions in flat order;
        ``run`` holds the decode run's runtimes and ``rts`` the entries'."""
        tokens = [rt.last_token for rt in run]
        positions = list(chunk.decode_kv)
        for entry, rt in zip(chunk.entries, rts):
            if entry.stage is Stage.PREFILL:
                tokens.extend(rt.request.prompt[entry.kv_len : entry.kv_len + entry.token_num])
                positions.extend(range(entry.kv_len, entry.kv_len + entry.token_num))
            else:
                tree = entry.spec_tree
                tokens.extend(tree.tokens)
                positions.extend(entry.kv_len + tree.depth(i) for i in range(tree.spec_len))
        return tokens, positions

    def _forward_chunk(
        self, chunk: Chunk, plan: _ChunkPlan, tokens: list[int], positions: list[int], tables: list[BlockTable]
    ) -> tuple[np.ndarray, dict[int, list[tuple[np.ndarray, np.ndarray]]]]:
        """Run the toy model over the chunk's committed tokens, writing
        each layer's K/V. ``tables`` holds each stage's block table, by
        stage id. Returns the logits and, per verify entry by stage id,
        every layer's K/V of its tree tokens.

        What the kernels read besides the layer's rows is fixed for the
        chunk and built before the layer loop: the attention calls with
        their ``TileKv`` inputs, and the pool rows of the chunk's new K/V
        (``RadixKvCache.kv_slots``), which each layer fills with one
        scatter per pool."""
        cfg = self.cfg.model
        heads, kv_heads, head_size = cfg.num_heads, cfg.num_kv_heads, cfg.head_size
        w = self._weights32
        n = len(tokens)
        x = w["embed"][np.asarray(tokens)] + w["pos"][np.asarray(positions)]
        scale = 1.0 / np.sqrt(head_size)
        calls = self._attention_calls(chunk, plan, tables)
        d = chunk.decodes
        spans = [(table, kv_len, 1) for table, kv_len in zip(tables, chunk.decode_kv)]
        spans += [(table, e.kv_len, e.token_num) for table, e in zip(tables[d:], chunk.entries)]
        slots = self.cache.kv_slots(spans)
        keys, values = self.cache.keys, self.cache.values
        key_rows = keys.reshape(len(keys), -1, kv_heads, head_size)
        value_rows = values.reshape(len(values), -1, kv_heads, head_size)
        verify = {
            ei: slice(e.start_pos, e.start_pos + e.token_num)
            for ei, e in enumerate(chunk.entries, d)
            if e.stage is Stage.VERIFY
        }
        spec_kv: dict[int, list[tuple[np.ndarray, np.ndarray]]] = {ei: [] for ei in verify}

        for li, layer in enumerate(w["layers"]):
            hidden = rms_norm(x, layer["norm1"])
            qkv = self._linear(plan, hidden, layer["wqkv"], LinearOp.QKV).reshape(n, heads + 2 * kv_heads, head_size)
            q = qkv[:, :heads]
            k_rows = qkv[:, heads : heads + kv_heads]
            v_rows = qkv[:, heads + kv_heads :]
            key_rows[li][slots] = k_rows
            value_rows[li][slots] = v_rows
            for ei, rows in verify.items():
                spec_kv[ei].append((k_rows[rows], v_rows[rows]))
            out = np.zeros((n, heads, head_size), dtype=np.float32)
            # The calls write disjoint rows of ``out``, so their order changes no bits.
            for tiles, row, rows, kv in calls:
                o = run_tile(tiles, q[row : row + rows], keys[li], values[li], kv, scale, plan.split)
                fused_sv_write(out, row, o)
            attn = out.reshape(n, heads * head_size)
            x = x + self._linear(plan, attn, layer["wo"], LinearOp.O_PROJ)
            hidden = rms_norm(x, layer["norm2"])
            gu = self._linear(plan, hidden, layer["wgu"], LinearOp.GATE_UP)
            gate, up = np.split(gu, 2, axis=1)
            x = x + self._linear(plan, silu(gate) * up, layer["wdown"], LinearOp.DOWN)

        logits = rms_norm(x, w["final_norm"]) @ w["lm_head"]
        return logits, spec_kv

    def _attention_calls(
        self, chunk: Chunk, plan: _ChunkPlan, tables: list[BlockTable]
    ) -> list[tuple[TileTable, int, int, TileKv]]:
        """The chunk's attention calls, the same in every layer, each as
        (tiles, first chunk row, rows, ``TileKv``): the decode run's tiles
        as one batch, then each prefill or verify query tile alone."""
        bs = self.cfg.kv_block_size
        qtiles = plan.tiles[plan.tiles.head == 0]  # one per (stage, query tile), in stage order
        d = chunk.decodes
        calls = []
        if d:
            calls.append((qtiles[:d], 0, d, TileKv.of(qtiles[:d], tables[:d], bs)))
        entries = chunk.entries
        for i, (sid, q_start, q_len) in enumerate(qtiles.cols[[0, 3, 4], d:].T.tolist(), d):
            tile = qtiles[i : i + 1]
            kv = TileKv.of(tile, [tables[sid]], bs, plan.masks.get(sid))
            calls.append((tile, entries[sid - d].start_pos + q_start, q_len, kv))
        return calls

    def _linear(self, plan: _ChunkPlan, a: np.ndarray, b: np.ndarray, op: LinearOp) -> np.ndarray:
        return gemm_virtual_pad(a, b, self._linear_ops[op][2], plan.linears[op][1])

    def _apply_logits(
        self,
        chunk: Chunk,
        run: list[_Runtime],
        rts: list[_Runtime],
        logits: np.ndarray | None,
        spec_kv: dict[int, list[tuple[np.ndarray, np.ndarray]]],
    ) -> dict[object, StageResult]:
        """Pick each stage's tokens and record them as outputs at the
        current tick; return the stage result of each entry that picks a
        token. ``run`` holds the decode run's runtimes and ``rts`` the
        entries'. ``logits`` is None in simulate mode, where seeded draws
        stand in for the argmax and no rows are kept; the decode run
        draws first, in one call, which gives the same stream as one
        draw per decode."""
        d = chunk.decodes
        if logits is None:
            picks = self.rng.integers(self.cfg.model.vocab_size, size=d).tolist() if d else []
        else:
            picks = logits[:d].argmax(axis=1).tolist()
            for i, (kv_len, rt) in enumerate(zip(chunk.decode_kv, run)):
                rt.logits_rows[kv_len] = logits[i].copy()
        ticks = self.ticks
        for rt, token in zip(run, picks):
            rt.last_token = token
            rt.outputs.append(token)
            rt.token_ticks.append(ticks)
        results: dict[object, StageResult] = {}
        for ei, (entry, rt) in enumerate(zip(chunk.entries, rts), d):
            req = rt.request
            if entry.stage is Stage.VERIFY:
                results[req.req_id] = self._accept_verify(entry, rt, logits, spec_kv.get(ei, []))
                continue
            if logits is not None:
                for i in range(entry.token_num):
                    rt.logits_rows[entry.kv_len + i] = logits[entry.start_pos + i].copy()
            if entry.kv_len + entry.token_num < len(req.prompt):
                continue  # a prompt slice that is not the last one
            next_token = self._next_token(logits, entry.start_pos + entry.token_num - 1)
            rt.last_token = next_token
            results[req.req_id] = StageResult(
                next_token=next_token,
                next_tree=self._propose(rt, next_token) if req.spec else None,
            )
            rt.outputs.append(next_token)
            rt.token_ticks.append(self.ticks)
        return results

    def _next_token(self, logits: np.ndarray | None, row: int) -> int:
        """The target's pick after chunk row ``row``: the argmax in numeric
        mode, a seeded draw in simulate mode."""
        if logits is None:
            return int(self.rng.integers(self.cfg.model.vocab_size))
        return int(np.argmax(logits[row]))

    def _accept_verify(self, entry, rt: _Runtime, logits, layer_kv) -> StageResult:
        tree: SpecTree = entry.spec_tree
        if logits is None:
            path = list(range(int(self.rng.integers(1, tree.spec_len + 1))))
        else:
            target_next = logits[entry.start_pos : entry.start_pos + tree.spec_len].argmax(axis=1).tolist()
            path = verify_accept(tree, target_next, rt.last_token)
            assert path, "engine roots trees at the previous target pick, so the root accepts"
        bonus = self._next_token(logits, entry.start_pos + path[-1])
        # Roll the speculative tokens back to the accepted path.
        self.cache.truncate_tokens(rt.table, entry.kv_len)
        self.cache.commit_tokens(rt.table, [tree.tokens[j] for j in path], cacheable=True)
        for li, (new_k, new_v) in enumerate(layer_kv):
            self.cache.write_kv(rt.table, li, entry.kv_len, new_k[path], new_v[path])
        new_list = [tree.tokens[j] for j in path[1:]] + [bonus]
        remaining = rt.request.output_len - len(rt.outputs)
        delivered = new_list[: max(0, remaining)]
        if logits is not None:
            # Keep only the rows that picked a delivered token.
            for j, node in enumerate(path[: len(delivered)]):
                rt.logits_rows[entry.kv_len + j] = logits[entry.start_pos + node].copy()
        rt.last_token = bonus
        continuing = len(rt.outputs) + len(delivered) < rt.request.output_len
        result = StageResult(
            committed=len(path),
            new_tokens=len(delivered),
            next_tree=self._propose(rt, bonus) if continuing else None,
        )
        rt.outputs.extend(delivered)
        rt.token_ticks.extend([self.ticks] * len(delivered))
        return result

    def _propose(self, rt: _Runtime, root_token: int) -> SpecTree:
        width, depth = rt.request.spec
        proposer = SeededProposer(width, depth, self.cfg.model.vocab_size, seed=17)
        context = rt.request.prompt + rt.outputs
        return proposer.propose(context, root_token)

    # ------------------------------------------------------------------
    # Timing, metrics, checks
    # ------------------------------------------------------------------

    def _simulate_chunk(self, chunk: Chunk, plan: _ChunkPlan) -> float:
        """Modelled ticks of the chunk over every layer: one layer's
        attention span plus its four linear spans, in op order. Each
        linear op is priced by a ``simulate_linear`` call even when its
        memoised table returns a stored result, because tracing counts
        linear ticks from the calls it sees."""
        hw = self.cfg.hw
        traces = {
            "attention": simulate_attention(
                plan.tasktable,
                hw,
                plan.schedule,
                head_size=self.cfg.model.head_size,
                kv_block_size=self.cfg.kv_block_size,
                kv_split_blocks=plan.split,
            )
        }
        m = chunk.total_tokens
        for op, (grid, table) in plan.linears.items():
            n, k, prim = self._linear_ops[op]
            traces[op.value] = simulate_linear(grid, table, hw, prim, m, n, k)
        span = cube = vector = 0.0
        op_span = self._op_span
        for name, trace in traces.items():
            span += trace.makespan
            op_span[name] += trace.makespan
            cube += trace.busy["cube"]
            vector += trace.busy["vector"]
        self._priced_span += span
        self._unit_busy["cube"] += cube
        self._unit_busy["vector"] += vector
        return span * self.cfg.model.num_layers

    def _profile_linears(self) -> None:
        sizes = []
        m = self.cfg.quantum
        while m < self.cfg.budget:
            sizes.append(m)
            m *= 2
        sizes.append(self.cfg.budget)
        for op, (n, k, prim) in self._linear_ops.items():
            for sm in sizes:
                profile_swizzle(op.value, (sm, n, k), self.cfg.hw, prim, store=self.store)

    def _run_checks(self) -> None:
        for rt in self.runtimes.values():
            seq = rt.request.prompt + rt.outputs
            if len(seq) < 2:
                continue
            ref = dense_forward(self.model, seq[:-1])
            for pos, row in sorted(rt.logits_rows.items()):
                err = float(np.max(np.abs(row - ref[pos])))
                if err > CHECK_TOL:
                    raise OracleCheckFailure(
                        f"request {rt.request.req_id!r} position {pos}: max abs err {err:.2e}"
                    )

    def report(self) -> dict:
        """Per-request TTFT and E2E (from arrival to the first and last
        token; -1.0 when no token came) and mean TBT, with their p50 and
        p99 over the requests that have one (TBT needs two tokens); qps
        from the first arrival, chunk counts by stage mix (e.g. ``D27P5``:
        27 decode, 5 prefill entries) and budget fill (the mean of chunk
        tokens over the budget), skipped K/V blocks, cache counts, the
        modelled ticks of each op (attention and the four linear ops)
        over every layer, and the cube and vector units' utilisation over
        every priced attention and linear span, weighted by its ticks."""
        requests = {}
        for rid, rt in sorted(self.runtimes.items(), key=lambda kv: str(kv[0])):
            ticks = rt.token_ticks
            requests[str(rid)] = {
                "ttft": ticks[0] - rt.request.arrival if ticks else -1.0,
                "tbt": (ticks[-1] - ticks[0]) / (len(ticks) - 1) if len(ticks) > 1 else 0.0,
                "e2e": ticks[-1] - rt.request.arrival if ticks else -1.0,
                "generated": len(rt.outputs),
                "done": rt.done,
            }
        composition = Counter(
            "".join(f"{stage}{n}" for stage, n in sorted(Counter(c["stages"]).items()))
            for c in self.chunk_log
        )
        completed = sum(1 for r in requests.values() if r["done"])
        first_arrival = min((rt.request.arrival for rt in self.runtimes.values()), default=0)
        span = self.ticks - first_arrival
        total_blocks = self.skip_computed + self.skip_skipped
        chunks = len(self.chunk_log)
        filled = sum(c["tokens"] for c in self.chunk_log)
        layers = self.cfg.model.num_layers
        return {
            "requests": requests,
            "completed": completed,
            "makespan_ticks": self.ticks,
            "qps": completed / (span / 1e6) if span > 0 else 0.0,
            "chunks": {
                "count": chunks,
                "composition": dict(sorted(composition.items())),
                "budget_fill": filled / (chunks * self.cfg.budget) if chunks else 0.0,
            },
            "skip": {
                "computed_blocks": self.skip_computed,
                "skipped_blocks": self.skip_skipped,
                "skip_ratio": (self.skip_skipped / total_blocks) if total_blocks else 0.0,
            },
            "latency": {
                "ttft": _p50_p99([r["ttft"] for r in requests.values() if r["generated"]]),
                "tbt": _p50_p99([r["tbt"] for r in requests.values() if r["generated"] > 1]),
                "e2e": _p50_p99([r["e2e"] for r in requests.values() if r["generated"]]),
            },
            "cache": dict(self.cache.stats),
            "op_ticks": {op: span * layers for op, span in self._op_span.items()},
            "utilization": {
                unit: busy / (self.cfg.hw.core_num * self._priced_span) if self._priced_span > 0 else 0.0
                for unit, busy in self._unit_busy.items()
            },
        }


def _p50_p99(values: list[float]) -> dict[str, float]:
    """Nearest-rank p50 and p99 of ``values``; -1.0 when empty."""
    ranked = sorted(values)
    return {f"p{p}": ranked[-(-p * len(ranked) // 100) - 1] if ranked else -1.0 for p in (50, 99)}
