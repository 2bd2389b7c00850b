"""TokenScheduler, driven directly: chunks stay within the budget and pack
their entries back to back, every prompt token is scheduled exactly once,
and every request retires, with random lengths, budgets, reserves, late
arrivals and speculative trees; a speculative request whose record holds
no tree runs as a decode; a decode run that names a request not in
flight changes nothing. As the engine does, each test hands a chunk's
outcome back on the records: its cache commits the chunk's tokens to
each record's table, whose count is the record's progress, and the
engine puts the picked tokens and the next tree, if the draft has one,
on the record. ``scheduler.py`` itself assigns only to attributes of
``self``."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from tileserve.kv_cache import BlockTable
from tileserve.scheduler import Chunk, EngineRequest, RequestState, Stage, TokenScheduler, UnknownRequest
from tileserve.spec_decode import full_tree


def record(rid, prompt: int, output_len: int, cached: int = 0, spec=None) -> RequestState:
    """A request of ``prompt`` tokens whose first ``cached`` are cached."""
    return RequestState(EngineRequest(rid, [7] * prompt, output_len, spec=spec), BlockTable(rid, total_tokens=cached))


def ids(records) -> list:
    return [r.request.req_id for r in records]


def tree_size(width: int, depth: int) -> int:
    return sum(width**level for level in range(depth))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_chunks_cover_every_prompt_token_once_and_every_request_retires(data):
    budget = data.draw(st.integers(1, 24), label="budget")
    reserve = data.draw(st.integers(0, budget - 1), label="reserve")
    sched = TokenScheduler(budget, reserve)
    spec = st.tuples(st.integers(1, 3), st.integers(1, 4)).filter(lambda wd: tree_size(*wd) <= budget)
    n = data.draw(st.integers(1, 8), label="requests")
    # Per request: matched prefix, prompt length, output length, spec, and
    # the step before which it is added.
    reqs = [
        (
            data.draw(st.integers(0, 20)),
            data.draw(st.integers(1, 40)),
            data.draw(st.integers(1, 10)),
            data.draw(st.none() | spec),
            data.draw(st.integers(0, 6)),
        )
        for _ in range(n)
    ]
    next_pos = {rid: matched for rid, (matched, *_) in enumerate(reqs)}  # next prompt position due
    records = {rid: record(rid, m + p, o, m, wd) for rid, (m, p, o, wd, _) in enumerate(reqs)}
    generated = dict.fromkeys(range(n), 0)
    added: set[int] = set()
    retired: set[int] = set()

    def draft(rid: int):
        """The next tree of a speculative request, or None when its draft
        is the root alone, as the engine records it."""
        if reqs[rid][3] is None or not data.draw(st.booleans(), label="drafted"):
            return None
        return full_tree(0, *reqs[rid][3], lambda parent, branch: branch)

    step = 0
    # Every chunk advances some request by at least one token, and every
    # empty schedule before the last adds a request.
    for _ in range(sum(p + o for _, p, o, _, _ in reqs) + n + 1):
        for rid, (matched, prompt, output_len, wd, join) in enumerate(reqs):
            if rid not in added and join <= step:
                added.add(rid)
                sched.add_request(records[rid])
        chunk = sched.schedule_next()
        if chunk is None:
            assert added <= retired, "no chunk while a request is in flight"
            if len(added) == n:
                break
            step = min(reqs[rid][4] for rid in range(n) if rid not in added)
            continue
        step += 1

        assert chunk.total_tokens <= budget
        assert chunk.total_tokens == chunk.decodes + sum(e.token_num for e in chunk.entries)
        assert len(chunk.decode_kv) == chunk.decodes
        for rid, kv_len in zip(ids(chunk.decode_run), chunk.decode_kv):
            matched, prompt, *_ = reqs[rid]
            assert next_pos[rid] == matched + prompt, "decode before the prompt is done"
            assert kv_len == matched + prompt + generated[rid] - 1  # every token but the last picked
            assert records[rid].spec_tree is None, "a tree to verify in the decode run"
            generated[rid] += 1
            records[rid].table.total_tokens += 1  # the cache appends the decode's token
            records[rid].outputs.append(1)
            records[rid].spec_tree = draft(rid)
        pos = chunk.decodes
        for e in chunk.entries:
            assert e.start_pos == pos
            pos += e.token_num
            rid = e.req.request.req_id
            matched, prompt, output_len, wd, _ = reqs[rid]
            if e.stage is Stage.PREFILL:
                assert e.kv_len == next_pos[rid]
                next_pos[rid] += e.token_num
                e.req.table.total_tokens += e.token_num  # the cache commits the slice
                if next_pos[rid] == matched + prompt:
                    generated[rid] = 1
                    e.req.outputs.append(1)
                    e.req.spec_tree = draft(rid)
                continue
            assert next_pos[rid] == matched + prompt, "verify before the prompt is done"
            assert e.stage is Stage.VERIFY and e.spec_tree is e.req.spec_tree
            assert e.token_num == e.spec_tree.spec_len
            assert e.kv_len == matched + prompt + generated[rid] - 1  # the root is the last pick
            accepted = data.draw(st.integers(1, wd[1]), label="accepted")
            e.req.table.total_tokens = e.kv_len + accepted  # the cache keeps the accepted path
            new = min(accepted, output_len - generated[rid])
            generated[rid] += new
            e.req.outputs.extend([1] * new)
            e.req.spec_tree = draft(rid)
        retired.update(ids(sched.complete_chunk(chunk)))
        for rid in [*ids(chunk.decode_run), *(e.req.request.req_id for e in chunk.entries)]:
            assert (rid in retired) == (generated[rid] >= reqs[rid][2])
    else:
        raise AssertionError("the scheduler did not drain its queues")

    assert retired == set(range(n))
    assert all(next_pos[rid] == matched + prompt for rid, (matched, prompt, *_) in enumerate(reqs))


def test_a_decode_run_with_an_id_not_in_flight_changes_nothing():
    """``complete_chunk`` checks the whole decode run before it retires or
    requeues any of it, and names the first id that is not in flight."""
    sched = TokenScheduler(budget=8)
    records = {rid: record(rid, 2, 3) for rid in "abc"}
    for req in records.values():
        sched.add_request(req)
    first = sched.schedule_next()  # the three prompts
    assert first.decodes == 0
    for req in records.values():
        req.table.total_tokens = 2  # the cache commits each prompt
        req.outputs.append(1)
    sched.complete_chunk(first)
    run = sched.schedule_next()
    assert ids(run.decode_run) == ["a", "b", "c"] and not run.entries

    def state():
        queues = [ids(q) for q in (sched._prefill, sched._decode, sched._verify)]
        return queues, set(sched._in_flight), {rid: (req.table.total_tokens, len(req.outputs)) for rid, req in records.items()}

    before = state()
    for bad_ids, named in ((["a", "ghost", "b", "c", "spook"], "ghost"), (["a", "b", "a", "c"], "a")):
        bad_run = [records[rid] if rid in records else record(rid, 2, 3) for rid in bad_ids]
        bad = Chunk(run.chunk_id, [], len(bad_ids), decode_run=bad_run, decode_kv=[2] * len(bad_ids))
        with pytest.raises(UnknownRequest) as err:
            sched.complete_chunk(bad)
        assert err.value.args == (named,)
        assert state() == before
    for req in run.decode_run:
        req.outputs.append(1)
    assert sched.complete_chunk(run) == []
    assert ids(sched._decode) == ["a", "b", "c"] and not sched._in_flight


def test_a_refused_request_leaves_its_id_free():
    """A request with no uncached prompt token is refused before it is
    registered, so its id can be added again."""
    sched = TokenScheduler(budget=8)
    with pytest.raises(ValueError, match="at least one uncached prompt token"):
        sched.add_request(record("a", 1, 1, cached=1))
    with pytest.raises(ValueError, match=r"^request 'a' needs .*; 3 of its 3 prompt tokens are cached$"):
        sched.add_request(record("a", 3, 1, cached=3))
    sched.add_request(record("a", 1, 1))
    chunk = sched.schedule_next()
    assert ids(e.req for e in chunk.entries) == ["a"]


def foreign_writes(source: str) -> list[str]:
    """``line: target`` of each assignment, augmented and annotated ones
    included, to an attribute of anything but ``self``, directly or
    through a subscript (``req.x = ...``, ``req.x += 1``, ``req.x[i] = ...``)."""
    writes = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            continue
        for target in targets:
            for part in ast.walk(target):
                if not isinstance(part, (ast.Attribute, ast.Subscript)) or not isinstance(part.ctx, ast.Store):
                    continue
                root, attributes = part, 0
                while isinstance(root, (ast.Attribute, ast.Subscript)):
                    attributes += isinstance(root, ast.Attribute)
                    root = root.value
                if attributes and not (isinstance(root, ast.Name) and root.id == "self"):
                    writes.append(f"{part.lineno}: {ast.unparse(part)}")
    return writes


def test_the_scheduler_writes_nothing_on_a_record():
    """Every attribute ``scheduler.py`` assigns is its own: a record's
    progress is its table's count, which the cache commits, and its picks
    and next tree are the engine's, so a chunk that fails leaves every
    record as it was."""
    assert foreign_writes("req.kv_len += 1\nreq.rows[3] = 0\na, req.tree = 1, None\nq[0] = 1\nself.n: int = 0\n") == [
        "1: req.kv_len",
        "2: req.rows[3]",
        "3: req.tree",
    ]
    source = (Path(__file__).resolve().parents[1] / "src" / "tileserve" / "scheduler.py").read_text()
    assert foreign_writes(source) == []
