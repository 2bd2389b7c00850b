"""Speculative trees: ``verify_accept`` against a brute-force search
over every root path of random trees; ``SeededProposer``'s prompt-lookup
drafts against a brute-force lookup and the seeded hash it falls back
to; and a checked numeric run whose drafts get accepted."""

from __future__ import annotations

import hashlib

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from tileserve import engine as engine_mod
from tileserve.config import ServeConfig
from tileserve.engine import Engine, EngineRequest
from tileserve.oracle import ToyModel, dense_forward
from tileserve.spec_decode import SeededProposer, SpecTree, full_tree, verify_accept


@st.composite
def verify_cases(draw):
    """A random tree over a small vocabulary (so siblings often share a
    token), the target's pick at every node, and its pick before the tree."""
    n = draw(st.integers(1, 12))
    parents = [None] + [draw(st.integers(0, i - 1)) for i in range(1, n)]
    token = st.integers(0, draw(st.integers(0, 2)))
    tokens = draw(st.lists(token, min_size=n, max_size=n))
    target_next = draw(st.lists(token, min_size=n, max_size=n))
    return SpecTree(tuple(tokens), tuple(parents)), target_next, draw(token)


def brute_force_accept(tree: SpecTree, target_next: list[int], context_next: int) -> list[int]:
    """The longest root path whose every node is accepted: its token is the
    target's pick at its parent (before the tree, for the root), and no
    lower-index sibling holds the same token."""

    def accepted(j: int) -> bool:
        parent = tree.parents[j]
        want = context_next if parent is None else target_next[parent]
        twins = [i for i in range(j) if tree.parents[i] == parent and tree.tokens[i] == tree.tokens[j]]
        return tree.tokens[j] == want and not twins

    best: list[int] = []
    for leaf in range(tree.spec_len):
        path: list[int] = []
        node: int | None = leaf
        while node is not None:
            path.append(node)
            node = tree.parents[node]
        path.reverse()
        if len(path) > len(best) and all(accepted(j) for j in path):
            best = path
    return best


@settings(max_examples=500, deadline=None)
@given(verify_cases())
def test_verify_accept_is_the_longest_accepted_root_path(case):
    tree, target_next, context_next = case
    assert verify_accept(tree, target_next, context_next) == brute_force_accept(tree, target_next, context_next)


def hashed_tree(seed: int, context: list[int], root: int, width: int, depth: int, vocab: int) -> SpecTree:
    """The tree every node of which takes its token from the seeded hash
    of the context: what the proposer gives where no lookup matches."""
    digest = hashlib.blake2b(np.asarray([seed, *context], dtype=np.int64).tobytes(), digest_size=8).digest()
    base = int.from_bytes(digest, "little")
    return full_tree(root, width, depth, lambda p, b: (base ^ (p * 2654435761) ^ (b * 40503)) % vocab)


def brute_force_lookup(seq: list[int], width: int) -> list[int]:
    """The tokens that followed each earlier occurrence of the last 3, then
    2, then 1 tokens of ``seq``, latest occurrence first, without repeats,
    at most ``width`` of them."""
    found: list[int] = []
    for n in (3, 2, 1):
        for end in range(len(seq) - 2, n - 2, -1):  # an occurrence ending before the last token
            if seq[end - n + 1 : end + 1] == seq[-n:] and seq[end + 1] not in found:
                found.append(seq[end + 1])
    return found[:width]


def path_tokens(tree: SpecTree, node: int) -> list[int]:
    path = []
    while node is not None:
        path.append(tree.tokens[node])
        node = tree.parents[node]
    return path[::-1]


PROPOSALS = dict(
    context=st.lists(st.integers(0, 5), max_size=40),  # six token ids, so n-grams repeat
    root=st.integers(0, 5),
    width=st.integers(1, 3),
    depth=st.integers(1, 4),
)


@settings(max_examples=300, deadline=None)
@given(**PROPOSALS)
def test_a_proposal_has_full_tree_shape_and_depends_only_on_its_inputs(context, root, width, depth):
    proposer = SeededProposer(width, depth, vocab_size=6, seed=17)
    tree = proposer.propose(context, root)
    shape = full_tree(root, width, depth, lambda p, b: 0)
    assert tree.parents == shape.parents and tree.spec_len == shape.spec_len
    assert tree.tokens[0] == root and all(0 <= t < 6 for t in tree.tokens)
    assert SeededProposer(width, depth, vocab_size=6, seed=17).propose(list(context), root) == tree


@settings(max_examples=300, deadline=None)
@given(**PROPOSALS)
def test_each_node_takes_lookup_matches_first_and_hashed_tokens_after(context, root, width, depth):
    """Node by node: its first children are the brute-force lookup over the
    context, the root and its path; its other children are the hashed
    tree's tokens at the same places."""
    tree = SeededProposer(width, depth, vocab_size=6, seed=17).propose(context, root)
    hashed = hashed_tree(17, context, root, width, depth, 6)
    for node in range(tree.spec_len):
        children = tree.children(node)
        if not children:
            continue
        found = brute_force_lookup(context + path_tokens(tree, node), width)
        assert [tree.tokens[j] for j in children] == found + [hashed.tokens[j] for j in children[len(found) :]]


def test_the_root_first_child_follows_the_latest_match_of_the_last_three_tokens():
    # (1, 2, 3) ends at indices 3 and 8 of context + root; 4 follows the later one.
    context = [5, 1, 2, 3, 9, 7, 1, 2, 3, 4, 8, 1, 2]
    tree = SeededProposer(2, 2, vocab_size=16).propose(context, 3)
    assert tree.tokens[1:] == (4, 9)


def test_a_three_token_match_ranks_ahead_of_a_later_two_token_match():
    # (1, 2, 3) is followed by 6; the later (2, 3) alone by 7.
    context = [1, 2, 3, 6, 0, 2, 3, 7, 1, 2]
    tree = SeededProposer(2, 2, vocab_size=16).propose(context, 3)
    assert tree.tokens[1:] == (6, 7)


@settings(max_examples=100, deadline=None)
@given(
    context=st.lists(st.integers(0, 999), max_size=30, unique=True),
    root=st.integers(1000, 1999),
    width=st.integers(1, 3),
    depth=st.integers(1, 4),
)
def test_a_context_with_no_match_gives_exactly_the_hashed_tree(context, root, width, depth):
    """No token repeats along any path, so no node finds a match."""
    vocab = 1 << 30
    hashed = hashed_tree(17, context, root, width, depth, vocab)
    assume(all(t >= 2000 for t in hashed.tokens[1:]))  # no drafted token is in the context or the root
    assume(all(len(set(path_tokens(hashed, j))) == hashed.depth(j) + 1 for j in range(hashed.spec_len)))
    assert SeededProposer(width, depth, vocab, seed=17).propose(context, root) == hashed


def test_a_checked_run_on_repeating_prompts_accepts_three_node_paths(monkeypatch):
    """Prompts that repeat a short pattern, and outputs that fall into
    cycles of their own, give the lookup matches that the toy model's
    argmax takes: some trees of depth 3 are accepted whole. ``check``
    compares every kept row with the dense forward, and every output is
    the dense argmax."""
    cfg = ServeConfig()
    model = ToyModel.seeded(cfg.model, seed=0)
    paths = []

    def verify_accept_watched(*args):
        path = verify_accept(*args)
        paths.append(path)
        return path

    monkeypatch.setattr(engine_mod, "verify_accept", verify_accept_watched)
    engine = Engine(cfg, model, check=True)
    rng = np.random.default_rng(0)
    for i in range(4):
        pattern = rng.integers(0, cfg.model.vocab_size, size=3 + i).tolist()
        engine.submit(EngineRequest(f"r{i}", pattern * 6, 24, 0, (2, 3)))
    engine.run()
    assert max(len(path) for path in paths) == 3
    for rs in engine.runtimes.values():
        prompt = rs.request.prompt
        assert len(rs.outputs) == rs.request.output_len
        ref = dense_forward(model, prompt + rs.outputs[:-1])
        assert rs.outputs == [int(np.argmax(ref[len(prompt) - 1 + i])) for i in range(len(rs.outputs))]
