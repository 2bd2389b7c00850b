"""Token-budget chunk scheduler over prefill/decode/verify queues.

Each scheduling step drains decode and verify tokens first (FIFO,
decode before verify, verify requests admitted whole), then fills the
remaining budget with prefill tokens in arrival order, splitting a
prompt whose remainder does not fit. While decode or verify tokens are
queued, a slice of the budget is held back for them, so prefill-only
chunks appear only when those queues are empty.

Decodes therefore form one run at the head of each chunk, carried as
two columns, ``Chunk.decode_ids`` and ``Chunk.decode_kv``, with no
object per decode. ``complete_chunk`` checks that the whole run is in
flight and then retires or requeues it in one pass: a decode always
delivers exactly one token, so it needs no ``StageResult``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

from .spec_decode import SpecTree


class UnknownRequest(KeyError):
    """A chunk completion referenced a request that is not in flight."""


class Stage(Enum):
    PREFILL = "P"
    DECODE = "D"
    VERIFY = "V"


@dataclass
class Request:
    """One serving request as the scheduler sees it.

    ``prompt_tokens`` holds only the uncached suffix; ``kv_len`` starts
    at the matched-prefix length and then tracks how many of this
    request's tokens have K/V committed.
    """

    req_id: object
    prompt_tokens: list[int]
    output_len: int
    kv_len: int = 0
    spec: tuple[int, int] | None = None  # (width, depth) or None
    spec_tree: SpecTree | None = None
    # progress
    scheduled: int = 0  # prompt tokens handed out so far
    generated: int = 0

    def remaining_prompt(self) -> int:
        return len(self.prompt_tokens) - self.scheduled


class ChunkEntry(NamedTuple):
    """One prefill or verify stage inside a chunk; ``start_pos`` is the
    offset into the chunk's flat token tensor."""

    req_id: object
    stage: Stage
    start_pos: int
    token_num: int
    kv_len: int
    spec_tree: SpecTree | None = None


@dataclass
class Chunk:
    """A chunk's work in flat-token order: first its decode run, one
    token per request, as columns (``decode_ids[i]``'s token sits at
    flat position ``i`` and attends ``decode_kv[i]`` committed tokens),
    then its prefill and verify ``entries``, which start at ``decodes``."""

    chunk_id: int
    entries: list[ChunkEntry]
    total_tokens: int
    decode_ids: list = field(default_factory=list)
    decode_kv: list[int] = field(default_factory=list)

    @property
    def decodes(self) -> int:
        return len(self.decode_ids)


@dataclass
class StageResult:
    """Per-request outcome the driver reports back after running a chunk."""

    next_token: int | None = None  # prefill-final
    committed: int = 0  # verify: tokens whose K/V was kept
    new_tokens: int = 0  # verify: tokens added to the output this round
    next_tree: SpecTree | None = None  # verify continuation (and prefill->verify)


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
        self._prefill: deque[Request] = deque()
        self._decode: deque[Request] = deque()
        self._verify: deque[Request] = deque()
        self._requests: dict[object, Request] = {}
        self._in_flight: set[object] = set()  # requests with an entry in the open chunk
        self._retired: set[object] = set()  # ids, for the duplicate check
        self._next_chunk_id = 0

    # ------------------------------------------------------------------

    def add_request(self, req: Request) -> None:
        if req.req_id in self._requests or req.req_id in self._retired:
            raise ValueError(f"duplicate request id {req.req_id!r}")
        if not req.prompt_tokens:
            raise ValueError("request needs at least one uncached prompt token")
        self._requests[req.req_id] = req
        self._prefill.append(req)

    # ------------------------------------------------------------------

    def schedule_next(self) -> Chunk | None:
        """Build the next fixed-budget chunk, or None if queues are empty."""
        queue = self._decode
        run = [queue.popleft() for _ in range(min(len(queue), self.budget))]
        decode_ids = [req.req_id for req in run]
        decode_kv = [req.kv_len for req in run]
        for req in run:
            req.kv_len += 1
        self._in_flight.update(decode_ids)
        entries: list[ChunkEntry] = []
        used = len(run)

        while self._verify:
            spec_len = self._verify[0].spec_tree.spec_len
            if used + spec_len > self.budget:
                break  # verify trees are atomic; FIFO head blocks
            req = self._verify.popleft()
            entries.append(
                ChunkEntry(req.req_id, Stage.VERIFY, used, spec_len, req.kv_len, req.spec_tree)
            )
            used += spec_len
            self._in_flight.add(req.req_id)

        dv = used
        if self._prefill:
            # With D/V admitted, hold `reserve` slots back from prefill so the
            # next rounds' decode tokens are not starved; prefill alone may
            # use the full budget.
            cap = self.budget if dv == 0 else self.budget - max(dv, self.reserve)
            room = max(0, cap - (used - dv))
            while self._prefill and room > 0:
                req = self._prefill[0]
                take = min(req.remaining_prompt(), room)
                if take == 0:
                    break
                entries.append(ChunkEntry(req.req_id, Stage.PREFILL, used, take, req.kv_len))
                req.kv_len += take
                req.scheduled += take
                used += take
                room -= take
                self._in_flight.add(req.req_id)
                if req.remaining_prompt() == 0:
                    self._prefill.popleft()
                else:
                    break  # split: remainder stays at the queue head

        if not used:
            return None
        chunk = Chunk(self._next_chunk_id, entries, used, decode_ids, decode_kv)
        self._next_chunk_id += 1
        return chunk

    def complete_chunk(self, chunk: Chunk, results: dict[object, StageResult]) -> list[object]:
        """Apply a finished chunk: advance, re-enqueue, or retire requests.

        ``results`` holds the outcome of each verify entry and each last
        prompt slice; the decode run needs none. Returns the ids of the
        requests this chunk retired, in flat-token order.

        Raises:
            UnknownRequest: naming the first request of the decode run
                that is not in flight (or repeats in the run); nothing
                has changed.
        """
        ids = chunk.decode_ids
        run = set(ids)
        if len(run) < len(ids) or not run <= self._in_flight:
            raise UnknownRequest(next(r for i, r in enumerate(ids) if r not in self._in_flight or r in ids[:i]))
        self._in_flight -= run
        retired = []
        requests, queue = self._requests, self._decode
        for req_id in ids:
            req = requests[req_id]
            req.generated += 1
            if req.generated >= req.output_len:
                retired.append(req_id)
            else:
                queue.append(req)
        for req_id in retired:
            del requests[req_id]
        self._retired.update(retired)
        for entry in chunk.entries:
            req = self._land(entry.req_id)
            result = results.get(entry.req_id, StageResult())

            if entry.stage is Stage.PREFILL:
                final = entry.kv_len + entry.token_num == req.kv_len and req.remaining_prompt() == 0
                if not final:
                    continue  # split continuation is already queued
                if result.next_token is None:
                    raise ValueError(f"prefill completion for {req.req_id!r} needs next_token")
                req.generated = 1
            else:  # VERIFY
                req.kv_len += result.committed
                req.generated += result.new_tokens
            if req.generated >= req.output_len:
                self._retire(req)
                retired.append(req.req_id)
            elif req.spec is None:
                self._decode.append(req)
            elif result.next_tree is None:
                raise ValueError(f"speculative request {req.req_id!r} needs next_tree to continue")
            else:
                req.spec_tree = result.next_tree
                self._verify.append(req)
        return retired

    # ------------------------------------------------------------------

    def _land(self, req_id) -> Request:
        """Take ``req_id``'s entry of the open chunk off the books."""
        if req_id not in self._in_flight:
            raise UnknownRequest(req_id)
        self._in_flight.remove(req_id)
        return self._requests[req_id]

    def _retire(self, req: Request) -> None:
        del self._requests[req.req_id]
        self._retired.add(req.req_id)
