"""Token-budget chunk scheduler over prefill/decode/verify queues.

Each scheduling step drains decode and verify tokens first (FIFO,
decode before verify, verify requests admitted whole), then fills the
remaining budget with prefill tokens in arrival order, splitting a
prompt whose remainder does not fit. While decode or verify tokens are
queued, a slice of the budget is held back for them, so prefill-only
chunks appear only when those queues are empty.

A continuing request is routed by its draft, not by whether it
speculates: a request whose record holds a tree to verify goes to the
verify queue, and every other one to the decode queue. The engine keeps
a tree only when it has nodes past the root, since a root-only tree is
one row over the committed K/V, which is a decode; so a speculative
request with nothing to verify joins the batched decode run, as vLLM
runs a sequence with a zero-length proposal, and the verify queue only
holds trees with something to verify.

A request is one ``RequestState`` from admission to retirement, as vLLM
keeps one ``Sequence`` per request; its progress is its block table's
``total_tokens``, which the cache commits. The scheduler writes nothing
on a record, so a chunk that fails leaves every record as it was; the
engine fills in the picks and the next tree that ``complete_chunk``
reads, so a chunk's outcome needs no message of its own.

Decodes form one run at the head of each chunk, carried as two columns,
``Chunk.decode_run`` and ``Chunk.decode_kv``, with no entry object per
decode. ``complete_chunk`` checks that the whole run is in flight and
then retires or requeues it in one pass.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

import numpy as np

from .kv_cache import BlockTable
from .spec_decode import SpecTree


class UnknownRequest(KeyError):
    """A chunk completion referenced a request that is not in flight."""


class Stage(Enum):
    PREFILL = "P"
    DECODE = "D"
    VERIFY = "V"


@dataclass
class EngineRequest:
    """A request as submitted."""

    req_id: object
    prompt: list[int]
    output_len: int
    arrival: int = 0
    spec: tuple[int, int] | None = None  # (width, depth)


@dataclass(eq=False)
class RequestState:
    """One admitted request: what was submitted, its block table, and what
    it has picked.

    Its progress is the table's ``total_tokens``, the record's only token
    count: during prefill it is the next prompt position, and after it
    every output but the last has K/V. ``spec_tree`` is the tree the next
    verify entry checks, which has nodes past its root; it is None when
    the next step is a prefill slice or a decode, a speculative request's
    included when its draft was the root alone. ``outputs`` holds the
    picked tokens, ``token_ticks`` the tick each was picked at, and
    ``logits_rows`` (numeric mode) each kept logits row by position.
    Records compare by identity, so the scheduler keeps the ones in
    flight in a set.
    """

    request: EngineRequest
    table: BlockTable
    spec_tree: SpecTree | None = None
    outputs: list[int] = field(default_factory=list)
    token_ticks: list[float] = field(default_factory=list)
    logits_rows: dict[int, np.ndarray] = field(default_factory=dict)

    @property
    def done(self) -> bool:
        """Every output is picked; the chunk that picks the last retires it."""
        return len(self.outputs) >= self.request.output_len


class ChunkEntry(NamedTuple):
    """One prefill or verify stage inside a chunk; ``start_pos`` is the
    offset into the chunk's flat token tensor, and ``spec_tree`` the tree
    a verify entry checks (the record's moves on to the next one)."""

    req: RequestState
    stage: Stage
    start_pos: int
    token_num: int
    kv_len: int
    spec_tree: SpecTree | None = None


@dataclass
class Chunk:
    """A chunk's work in flat-token order: first its decode run, one
    token per request, as columns (``decode_run[i]``'s token sits at
    flat position ``i`` and attends ``decode_kv[i]`` committed tokens),
    then its prefill and verify ``entries``, which start at ``decodes``."""

    chunk_id: int
    entries: list[ChunkEntry]
    total_tokens: int
    decode_run: list[RequestState] = field(default_factory=list)
    decode_kv: list[int] = field(default_factory=list)

    @property
    def decodes(self) -> int:
        return len(self.decode_run)


class TokenScheduler:
    """Single-threaded scheduler; callers alternate schedule/complete, so a
    request has at most one entry in flight."""

    def __init__(self, budget: int, reserve: int | None = None):
        if budget < 1:
            raise ValueError("budget must be >= 1")
        self.budget = budget
        self.reserve = budget // 4 if reserve is None else reserve
        if not 0 <= self.reserve < budget:
            raise ValueError("reserve must satisfy 0 <= reserve < budget")
        self._prefill: deque[RequestState] = deque()
        self._decode: deque[RequestState] = deque()
        self._verify: deque[RequestState] = deque()
        self._in_flight: set[RequestState] = set()  # requests with an entry in the open chunk
        self._next_chunk_id = 0

    # ------------------------------------------------------------------

    def add_request(self, req: RequestState) -> None:
        if req.table.total_tokens >= len(req.request.prompt):
            raise ValueError(
                f"request {req.request.req_id!r} needs at least one uncached prompt token;"
                f" {req.table.total_tokens} of its {len(req.request.prompt)} prompt tokens are cached"
            )
        self._prefill.append(req)

    def queue_depths(self) -> tuple[int, int, int]:
        """The requests waiting in the prefill, decode and verify queues."""
        return len(self._prefill), len(self._decode), len(self._verify)

    # ------------------------------------------------------------------

    def schedule_next(self) -> Chunk | None:
        """Build the next fixed-budget chunk, or None if queues are empty."""
        queue = self._decode
        run = [queue.popleft() for _ in range(min(len(queue), self.budget))]
        decode_kv = [req.table.total_tokens for req in run]
        self._in_flight.update(run)
        entries: list[ChunkEntry] = []
        used = len(run)

        while self._verify:
            spec_len = self._verify[0].spec_tree.spec_len
            if used + spec_len > self.budget:
                break  # verify trees are atomic; FIFO head blocks
            req = self._verify.popleft()
            entries.append(ChunkEntry(req, Stage.VERIFY, used, spec_len, req.table.total_tokens, req.spec_tree))
            used += spec_len
            self._in_flight.add(req)

        # With D/V admitted, hold `reserve` slots back from prefill so the
        # next rounds' decode tokens are not starved; prefill alone may use
        # the full budget.
        room = self.budget if used == 0 else self.budget - max(used, self.reserve)
        while self._prefill and room > 0:
            req = self._prefill[0]
            pos = req.table.total_tokens
            take = min(len(req.request.prompt) - pos, room)
            entries.append(ChunkEntry(req, Stage.PREFILL, used, take, pos))
            used += take
            room -= take
            self._in_flight.add(req)
            if pos + take == len(req.request.prompt):
                self._prefill.popleft()
            else:
                break  # split: remainder stays at the queue head

        if not used:
            return None
        chunk = Chunk(self._next_chunk_id, entries, used, run, decode_kv)
        self._next_chunk_id += 1
        return chunk

    def complete_chunk(self, chunk: Chunk) -> list[RequestState]:
        """Apply a finished chunk whose tokens are committed and whose picks
        (and each continuing speculative request's next tree, if it has
        one) are on its records: a continuing request with a tree goes to
        the verify queue and any other to the decode queue. Returns the
        requests this chunk retired, in flat-token order.

        Raises:
            UnknownRequest: naming the first request of the decode run
                that is not in flight (or repeats in the run); nothing
                has changed.
        """
        run = chunk.decode_run
        in_run = set(run)
        if len(in_run) < len(run) or not in_run <= self._in_flight:
            raise UnknownRequest(
                next(r.request.req_id for i, r in enumerate(run) if r not in self._in_flight or r in run[:i])
            )
        self._in_flight -= in_run
        stepped = list(run)  # requests whose step ended in this chunk, in flat-token order
        for entry in chunk.entries:
            req = entry.req
            if req not in self._in_flight:
                raise UnknownRequest(req.request.req_id)
            self._in_flight.remove(req)
            if req.table.total_tokens < len(req.request.prompt):
                continue  # split continuation is already queued
            stepped.append(req)
        retired = []
        decode, verify = self._decode, self._verify
        for req in stepped:
            if req.done:
                retired.append(req)
            elif req.spec_tree is None:
                decode.append(req)
            else:
                verify.append(req)
        return retired
