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

Each admitted request is one ``scheduler.RequestState``: the record the
scheduler queues, the chunk hands to the engine, and ``runtimes`` maps
its id to. Its progress is its block table's token count, which the
cache writes; the engine writes each pick, its tick and a speculative
request's next tree onto it, and the scheduler only reads it. One radix cache
serves every transformer layer: each sequence has one block table, and
each chunk reserves every stage's tokens once, after the cache has made
room for all of them (``RadixKvCache.reserve_blocks``, skipped when the
free blocks cover every token of the chunk), so a chunk that does not
fit changes no table. The chunk is priced before its tokens are picked,
so each output is recorded with its tick where it is picked. A chunk's
decodes are one run at its head, carried as columns
(``Chunk.decode_run`` and ``Chunk.decode_kv``) with no entry object per
decode, and handled in one pass each for tokens, the cache append
(``RadixKvCache.append_run``), the attention tiles and their kernel
call, picks (one seeded draw call in simulate mode) and retirement;
prefill and verify entries take the per-entry path. Numeric and
simulate mode share that flow and the prefill/decode/verify
bookkeeping; only the token source differs. Given a model (numeric
mode), the engine runs it in fp32, writes each layer's K/V into the
reserved rows with one scatter per pool (``RadixKvCache.kv_slots`` and
the cache's row views), picks tokens by argmax and, with ``check``,
verifies kept rows against a dense recompute. A verify entry's tree K/V
stays in the cache: ``RadixKvCache.keep_path`` rolls it back to the
accepted path. Without one (simulate mode) it reads only the
``ModelConfig``, holds no weights or pool rows, draws seeded tokens and
cannot ``check``; its seeded draws pick a verify's accepted depth and
then one branch per level, and a drawn branch the tree lacks ends the
path, so in both modes the kept path is a chain from the root. A
speculative request's next tree is drafted once the tokens a chunk
delivered are on its record, after its last prompt slice, a verify or
a decode, by prompt lookup over its prompt and outputs
(``SeededProposer``): a ragged tree within the request's (width, depth)
that holds only the nodes a match of two or more tokens backs, so no
verify row goes to a guess. The record keeps the tree only when it has
nodes past the root; a root-only tree is one row over the committed
K/V, so the request's next step runs in the decode run (counted as
``decoded`` in the report's ``spec``), whose append caches its token as
``keep_path`` would have. Both modes price the work in model ticks.
"""

from __future__ import annotations

import bisect
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .attention import TileKv, run_tile, skip_plan
from .config import QUANTUM, ModelConfig, ServeConfig
from .gemm import SUPPORTED_TILE_MN, TilePrimitive, gemm_virtual_pad, fused_sv_write, smooth_shape
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
from .scheduler import Chunk, ChunkEntry, EngineRequest, RequestState, Stage, TokenScheduler
from .simulator import Schedule, l2_kv_split_blocks, profile_swizzle, simulate_attention, simulate_linear
from .spec_decode import SeededProposer, SpecTree, tree_mask, verify_accept

CHECK_TOL = 1e-3  # max abs error of a logits row against the dense fp64 forward
QUEUES = ("prefill", "decode", "verify", "pending")  # the columns of Engine.queue_log


class OracleCheckFailure(AssertionError):
    """A computed logits row diverged from the dense recompute."""


class RejectedRequest(ValueError):
    """A submitted request that no chunk could ever serve."""


def _tree_tokens(spec: tuple[int, int], budget: int) -> tuple[int, bool]:
    """Tokens of the largest tree a (width, depth) request drafts, counted
    only until they pass the budget, and whether the count is the whole
    tree. A verify tree runs whole in one chunk, and a drafted tree is at
    most full_tree's shape: width**level nodes on each of its depth levels,
    so a tree wider than 1 passes the budget within log2(budget) + 1 levels."""
    width, depth = spec
    if depth > budget or width == 1:
        return depth, depth <= budget
    tokens = level = 0
    while level < depth and tokens <= budget:
        tokens += width**level
        level += 1
    return tokens, level == depth


def most_kv_tokens(req: EngineRequest, budget: int) -> int:
    """The most tokens the request's table ever holds, and so the most
    positions it runs through: every token but the last output has K/V,
    and a speculative request's last verify adds its tree past the root."""
    tokens = len(req.prompt) + req.output_len - 1
    if req.spec is not None and req.output_len > 1:  # a verify runs only while outputs remain
        tokens += _tree_tokens(req.spec, budget)[0] - 1
    return tokens


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
    ``linears`` holds each op's task table, which carries its tile
    grid, shared with every chunk of the same M (see
    ``Engine._plan_linears``).
    """

    tiles: TileTable
    tasktable: TaskTable
    schedule: Schedule
    split: int | None
    masks: dict[int, np.ndarray]
    linears: dict[LinearOp, GridTable]


def _linear_ops(mcfg: ModelConfig) -> dict[LinearOp, tuple[int, int, TilePrimitive]]:
    """(N, K) of each linear op's weight and the GEMM tile it runs on:
    16 rows, the widest supported column count up to min(128, N), and K
    steps of 128 where K allows."""
    dims = {
        LinearOp.QKV: (mcfg.qkv_out, mcfg.hidden_size),
        LinearOp.O_PROJ: (mcfg.hidden_size, mcfg.num_heads * mcfg.head_size),
        LinearOp.GATE_UP: (2 * mcfg.intermediate_size, mcfg.hidden_size),
        LinearOp.DOWN: (mcfg.hidden_size, mcfg.intermediate_size),
    }
    ops = {}
    for op, (n, k) in dims.items():
        tile_n = max(t for t in SUPPORTED_TILE_MN if t <= min(128, n))
        ops[op] = n, k, TilePrimitive(tile_m=16, tile_n=tile_n, tile_k=128 if k % 128 == 0 else 64)
    return ops


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
        self._linear_plans: dict[int, dict[LinearOp, GridTable]] = {}  # by chunk M
        self._weights32 = self._cast_weights(model) if model is not None else None
        self.runtimes: dict[object, RequestState] = {}
        self.pending: list[EngineRequest] = []
        self._submitted: set = set()  # every accepted request id
        self.ticks = 0.0
        self.chunk_log: list[dict] = []
        self.skip_computed = 0
        self.skip_skipped = 0
        self._unit_busy = {"cube": 0.0, "vector": 0.0}  # ticks of one layer, over every priced chunk
        self._priced_span = 0.0  # their makespans, summed
        self._op_span = dict.fromkeys(("attention", *(op.value for op in LinearOp)), 0.0)  # one layer's, by op
        # Verify entries, their tree rows and the tokens they delivered, and
        # speculative steps that ran as decodes.
        self._spec = dict.fromkeys(("verifies", "rows", "delivered", "decoded"), 0)
        self._speculative = False  # whether any submitted request speculates
        self.queue_log: list[tuple[int, ...]] = []  # QUEUES' depths before each chunk in chunk_log
        if profile_linear:
            self._profile_linears()

    # ------------------------------------------------------------------

    def submit(self, req: EngineRequest) -> None:
        if req.req_id in self._submitted:
            raise RejectedRequest(f"request {req.req_id!r}: its id was already submitted")
        if len(req.prompt) < 1:
            raise RejectedRequest(f"request {req.req_id!r}: prompt must be nonempty")
        budget = self.sched.budget
        if req.spec is not None:
            width, depth = req.spec
            size, whole = _tree_tokens(req.spec, budget)
            if size > budget:
                raise RejectedRequest(
                    f"request {req.req_id!r}: its speculative tree (width {width}, depth {depth}) "
                    f"has {'' if whole else 'at least '}{size} tokens, more than the chunk budget of {budget}"
                )
        # A table that cannot fit in the pool alone could never be served,
        # nor one that runs past the numeric model's positions.
        tokens = most_kv_tokens(req, budget)
        blocks = -(-tokens // self.cfg.kv_block_size)
        if blocks > self.cfg.kv_pool_blocks:
            raise RejectedRequest(
                f"request {req.req_id!r}: its K/V grows to {tokens} tokens, which need {blocks} blocks, "
                f"more than the pool of {self.cfg.kv_pool_blocks}"
            )
        if self.model is not None and tokens > len(self.model.pos):
            raise RejectedRequest(
                f"request {req.req_id!r}: its K/V grows to {tokens} tokens, "
                f"past the model's {len(self.model.pos)} positions"
            )
        self._submitted.add(req.req_id)
        self._speculative = self._speculative or req.spec is not None
        bisect.insort(self.pending, req, key=lambda r: (r.arrival, str(r.req_id)))

    def run(self) -> dict:
        while True:
            self._admit_arrived()
            depths = (*self.sched.queue_depths(), len(self.pending))
            chunk = self.sched.schedule_next()
            if chunk is None:
                if self.pending:
                    self.ticks = max(self.ticks, float(self.pending[0].arrival))
                    continue
                break
            self._execute_chunk(chunk)
            self.queue_log.append(depths)
        if self.check:
            self._run_checks()
        return self.report()

    # ------------------------------------------------------------------

    def _admit_arrived(self) -> None:
        while self.pending and self.pending[0].arrival <= self.ticks:
            req = self.pending.pop(0)
            table = self.cache.start_sequence(req.req_id, req.prompt, max_match=len(req.prompt) - 1)
            self.runtimes[req.req_id] = rs = RequestState(req, table)
            self.sched.add_request(rs)

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

    def _plan_linears(self, chunk: Chunk) -> dict[LinearOp, GridTable]:
        """Each linear op's task table at the chunk's M, built once per M
        on ``decompose_linear``'s grid, in the order profiled for M
        smoothed up to a profiled size (row-major when none is). The
        profile store is frozen after ``__init__``, so (op, M) decides
        the table; it also keeps its priced result (``GridTable.priced``),
        so a repeated M is not priced again."""
        m = chunk.total_tokens
        linears = self._linear_plans.get(m)
        if linears is None:
            linears = {}
            for op, (n, k, prim) in self._linear_ops.items():
                grid = decompose_linear(m, n, prim.tile_m, prim.tile_n)
                smoothed = smooth_shape(m, self.cfg.budget, self.store.profiled_ms(op.value, n, k))
                linears[op] = lookup_linear_tasktable(self.store, op, (smoothed, n, k), self.cfg.hw.core_num, grid)
            self._linear_plans[m] = linears
        return linears

    def _execute_chunk(self, chunk: Chunk) -> None:
        plan = self._plan_chunk(chunk)
        computed, skipped = skip_plan(plan.tiles, self.cfg.kv_block_size)
        self.skip_computed += int(computed.sum())
        self.skip_skipped += int(skipped.sum())
        d = chunk.decodes
        tables = [rs.table for rs in chunk.decode_run] + [entry.req.table for entry in chunk.entries]
        tokens, positions = self._chunk_tokens_positions(chunk)
        if chunk.total_tokens > self.cache.free_block_count():
            commits = [(table, 1) for table in tables[:d]]
            commits += [(table, entry.token_num) for table, entry in zip(tables[d:], chunk.entries)]
            try:
                self.cache.reserve_blocks(commits)
            except PoolExhausted as exc:
                raise PoolExhausted(f"chunk {chunk.chunk_id}: {exc}") from None
        self.cache.append_run(tables[:d], tokens[:d])
        for table, entry in zip(tables[d:], chunk.entries):
            self.cache.commit_tokens(
                table,
                tokens[entry.start_pos : entry.start_pos + entry.token_num],
                cacheable=entry.stage is not Stage.VERIFY,
            )
        logits = None
        if self.model is not None:
            logits = self._forward_chunk(chunk, plan, tokens, positions, tables)
        span = self._simulate_chunk(chunk, plan)
        self.ticks += span
        self._apply_logits(chunk, logits)
        stages = Counter(entry.stage.value for entry in chunk.entries)
        self.chunk_log.append(
            {
                "chunk_id": chunk.chunk_id,
                "tokens": chunk.total_tokens,
                "stages": "D" * d + "P" * stages["P"] + "V" * stages["V"],
                "ticks": span,
            }
        )
        for rs in self.sched.complete_chunk(chunk):
            self.cache.release_sequence(rs.table)

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

    def _chunk_tokens_positions(self, chunk: Chunk) -> tuple[list[int], list[int]]:
        """The chunk's tokens and their sequence positions in flat order:
        a decode feeds its last pick, a prefill slice its prompt tokens and
        a verify entry its tree."""
        tokens = [rs.outputs[-1] for rs in chunk.decode_run]
        positions = list(chunk.decode_kv)
        for entry in chunk.entries:
            if entry.stage is Stage.PREFILL:
                tokens.extend(entry.req.request.prompt[entry.kv_len : entry.kv_len + entry.token_num])
                positions.extend(range(entry.kv_len, entry.kv_len + entry.token_num))
            else:
                tree = entry.spec_tree
                tokens.extend(tree.tokens)
                positions.extend(entry.kv_len + tree.depth(i) for i in range(tree.spec_len))
        return tokens, positions

    def _forward_chunk(
        self, chunk: Chunk, plan: _ChunkPlan, tokens: list[int], positions: list[int], tables: list[BlockTable]
    ) -> np.ndarray:
        """Run the toy model over the chunk's committed tokens, writing
        each layer's K/V into the cache, and return the logits. ``tables``
        holds each stage's block table, by stage id.

        What the kernels read besides the layer's rows is fixed for the
        chunk and built before the layer loop: the attention calls with
        their ``TileKv`` inputs, and the pool rows of the chunk's new K/V
        (``RadixKvCache.kv_slots``), which each layer fills with one
        scatter per pool through the cache's row views."""
        cfg = self.cfg.model
        heads, kv_heads, head_size = cfg.num_heads, cfg.num_kv_heads, cfg.head_size
        half = cfg.intermediate_size  # gate's columns, then up's
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
        key_rows, value_rows = self.cache.key_rows, self.cache.value_rows

        for li, layer in enumerate(w["layers"]):
            hidden = rms_norm(x, layer["norm1"])
            qkv = self._linear(plan, hidden, layer["wqkv"], LinearOp.QKV).reshape(n, heads + 2 * kv_heads, head_size)
            q = qkv[:, :heads]
            k_rows = qkv[:, heads : heads + kv_heads]
            v_rows = qkv[:, heads + kv_heads :]
            key_rows[li][slots] = k_rows
            value_rows[li][slots] = v_rows
            out = np.zeros((n, heads, head_size), dtype=np.float32)
            # The calls write disjoint rows of ``out``, so their order changes no bits.
            for tiles, row, rows, kv in calls:
                o = run_tile(tiles, q[row : row + rows], keys[li], values[li], kv, scale, plan.split)
                fused_sv_write(out, row, o)
            attn = out.reshape(n, heads * head_size)
            x = x + self._linear(plan, attn, layer["wo"], LinearOp.O_PROJ)
            hidden = rms_norm(x, layer["norm2"])
            gu = self._linear(plan, hidden, layer["wgu"], LinearOp.GATE_UP)
            gate, up = gu[:, :half], gu[:, half:]
            x = x + self._linear(plan, silu(gate) * up, layer["wdown"], LinearOp.DOWN)

        return rms_norm(x, w["final_norm"]) @ w["lm_head"]

    def _attention_calls(
        self, chunk: Chunk, plan: _ChunkPlan, tables: list[BlockTable]
    ) -> list[tuple[TileTable, int, int, TileKv]]:
        """The chunk's attention calls, the same in every layer, each as
        (tiles, first chunk row, rows, ``TileKv``): the decode run's tiles
        as one batch, then each prefill or verify query tile alone. One
        rule, ``TileKv.of``, builds the input of a batch and a lone tile."""
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
        return gemm_virtual_pad(a, b, self._linear_ops[op][2], plan.linears[op])

    def _apply_logits(self, chunk: Chunk, logits: np.ndarray | None) -> None:
        """Pick each stage's tokens and record them on its request at the
        current tick, then draft a continuing speculative request's next
        step (``_draft``). ``logits`` is None in simulate mode, where
        seeded draws stand in for the argmax and no rows are kept; the
        decode run draws first, in one call, which gives the same stream
        as one draw per decode. Without a speculative request the decode
        run does nothing more per decode."""
        d = chunk.decodes
        run = chunk.decode_run
        if logits is None:
            picks = self.rng.integers(self.cfg.model.vocab_size, size=d).tolist() if d else []
        else:
            picks = logits[:d].argmax(axis=1).tolist()
            for i, (kv_len, rs) in enumerate(zip(chunk.decode_kv, run)):
                rs.logits_rows[kv_len] = logits[i].copy()
        ticks = self.ticks
        for rs, token in zip(run, picks):
            rs.outputs.append(token)
            rs.token_ticks.append(ticks)
        if self._speculative:
            for rs in run:
                if rs.request.spec:
                    self._spec["decoded"] += 1
                    if not rs.done:
                        self._draft(rs)
        for entry in chunk.entries:
            if entry.stage is Stage.VERIFY:
                self._accept_verify(entry, logits)
                continue
            rs = entry.req
            if logits is not None:
                for i in range(entry.token_num):
                    rs.logits_rows[entry.kv_len + i] = logits[entry.start_pos + i].copy()
            if entry.kv_len + entry.token_num < len(rs.request.prompt):
                continue  # a prompt slice that is not the last one
            rs.outputs.append(self._next_token(logits, entry.start_pos + entry.token_num - 1))
            rs.token_ticks.append(ticks)
            if rs.request.spec and not rs.done:
                self._draft(rs)

    def _next_token(self, logits: np.ndarray | None, row: int) -> int:
        """The target's pick after chunk row ``row``: the argmax in numeric
        mode, a seeded draw in simulate mode."""
        if logits is None:
            return int(self.rng.integers(self.cfg.model.vocab_size))
        return int(np.argmax(logits[row]))

    def _accept_verify(self, entry: ChunkEntry, logits: np.ndarray | None) -> None:
        """Keep the accepted root path of a verify entry's tree in the
        cache and deliver its tokens and the bonus pick. In simulate mode
        seeded draws pick the path: its depth, then one branch in
        ``range(width)`` per level, so it is a chain from the root as in
        numeric mode. A drafted tree is ragged, so a drawn branch that has
        no child ends the path early; on a full-shape tree every drawn
        branch exists."""
        rs, tree = entry.req, entry.spec_tree
        if logits is None:
            width, depth = rs.request.spec
            path = [0]
            for branch in self.rng.integers(width, size=int(self.rng.integers(depth))).tolist():
                children = tree.children(path[-1])
                if branch >= len(children):
                    break
                path.append(children[branch])
        else:
            target_next = logits[entry.start_pos : entry.start_pos + tree.spec_len].argmax(axis=1).tolist()
            path = verify_accept(tree, target_next, rs.outputs[-1])
            assert path, "engine roots trees at the previous target pick, so the root accepts"
        bonus = self._next_token(logits, entry.start_pos + path[-1])
        self.cache.keep_path(rs.table, entry.kv_len, path)
        new_list = [tree.tokens[j] for j in path[1:]] + [bonus]
        delivered = new_list[: rs.request.output_len - len(rs.outputs)]
        if logits is not None:
            # Keep only the rows that picked a delivered token.
            for j, node in enumerate(path[: len(delivered)]):
                rs.logits_rows[entry.kv_len + j] = logits[entry.start_pos + node].copy()
        rs.outputs.extend(delivered)
        rs.token_ticks.extend([self.ticks] * len(delivered))
        spec = self._spec
        spec["verifies"] += 1
        spec["rows"] += tree.spec_len
        spec["delivered"] += len(delivered)
        if not rs.done:
            self._draft(rs)

    def _draft(self, rs: RequestState) -> None:
        """Draft the next step of ``rs``: it keeps the drafted tree, to be
        verified, only when the tree has nodes past the root. A root-only
        tree is one row over the committed K/V, which is a decode, so
        ``spec_tree`` is None and the request joins the decode run."""
        tree = self._propose(rs)
        rs.spec_tree = tree if tree.spec_len > 1 else None

    def _propose(self, rs: RequestState) -> SpecTree:
        """The next tree of ``rs``, rooted at its newest pick and drafted
        from its prompt and the outputs before that pick."""
        width, depth = rs.request.spec
        return SeededProposer(width, depth).propose(rs.request.prompt + rs.outputs[:-1], rs.outputs[-1])

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
        for op, table in plan.linears.items():
            n, k, prim = self._linear_ops[op]
            traces[op.value] = simulate_linear(table.grid, table, hw, prim, m, n, k)
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
        m = QUANTUM
        while m < self.cfg.budget:
            sizes.append(m)
            m *= 2
        sizes.append(self.cfg.budget)
        for op, (n, k, prim) in self._linear_ops.items():
            for sm in sizes:
                profile_swizzle(op.value, (sm, n, k), self.cfg.hw, prim, store=self.store)

    def _run_checks(self) -> None:
        for rs in self.runtimes.values():
            seq = rs.request.prompt + rs.outputs
            if len(seq) < 2:
                continue
            ref = dense_forward(self.model, seq[:-1])
            for pos, row in sorted(rs.logits_rows.items()):
                err = float(np.max(np.abs(row - ref[pos])))
                if err > CHECK_TOL:
                    raise OracleCheckFailure(
                        f"request {rs.request.req_id!r} position {pos}: max abs err {err:.2e}"
                    )

    def report(self) -> dict:
        """Per-request TTFT and E2E (from arrival to the first and last
        token; -1.0 when no token came) and mean TBT, with their p50 and
        p99 over the requests that have one (TBT needs two tokens); qps
        from the first arrival, chunk counts by stage mix (e.g. ``D27P5``:
        27 decode, 5 prefill entries), budget fill (the mean of chunk
        tokens over the budget) and the mean and max over chunks of each
        queue's depth before the chunk was scheduled (``queue_log``: the
        prefill, decode and verify queues, and the requests not yet
        arrived), skipped K/V blocks, cache counts, the
        modelled ticks of each op (attention and the four linear ops)
        over every layer, the cube and vector units' utilisation over
        every priced attention and linear span, weighted by its ticks, and
        the verify entries run, their tree rows and the tokens they
        delivered (accepted drafts and bonus picks), and the speculative
        steps that ran as decodes because their draft was the root
        alone."""
        requests = {}
        for rid, rs in sorted(self.runtimes.items(), key=lambda kv: str(kv[0])):
            ticks = rs.token_ticks
            requests[str(rid)] = {
                "ttft": ticks[0] - rs.request.arrival if ticks else -1.0,
                "tbt": (ticks[-1] - ticks[0]) / (len(ticks) - 1) if len(ticks) > 1 else 0.0,
                "e2e": ticks[-1] - rs.request.arrival if ticks else -1.0,
                "generated": len(rs.outputs),
                "done": rs.done,
            }
        composition = Counter(
            "".join(f"{stage}{n}" for stage, n in sorted(Counter(c["stages"]).items()))
            for c in self.chunk_log
        )
        completed = sum(1 for r in requests.values() if r["done"])
        first_arrival = min((rs.request.arrival for rs in self.runtimes.values()), default=0)
        span = self.ticks - first_arrival
        total_blocks = self.skip_computed + self.skip_skipped
        chunks = len(self.chunk_log)
        filled = sum(c["tokens"] for c in self.chunk_log)
        layers = self.cfg.model.num_layers
        depths = list(zip(*self.queue_log)) or [()] * len(QUEUES)  # one column per queue
        return {
            "requests": requests,
            "completed": completed,
            "makespan_ticks": self.ticks,
            "qps": completed / (span / 1e6) if span > 0 else 0.0,
            "chunks": {
                "count": chunks,
                "composition": dict(sorted(composition.items())),
                "budget_fill": filled / (chunks * self.cfg.budget) if chunks else 0.0,
                "queue_depth": {
                    q: {"mean": sum(col) / len(col) if col else 0.0, "max": max(col, default=0)}
                    for q, col in zip(QUEUES, depths)
                },
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
            "spec": dict(self._spec),
            "utilization": {
                unit: busy / (self.cfg.hw.core_num * self._priced_span) if self._priced_span > 0 else 0.0
                for unit, busy in self._unit_busy.items()
            },
        }


def _p50_p99(values: list[float]) -> dict[str, float]:
    """Nearest-rank p50 and p99 of ``values``; -1.0 when empty."""
    ranked = sorted(values)
    return {f"p{p}": ranked[-(-p * len(ranked) // 100) - 1] if ranked else -1.0 for p in (50, 99)}
