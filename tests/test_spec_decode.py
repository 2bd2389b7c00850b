"""Speculative trees: ``verify_accept`` against a brute-force search
over every root path of random trees; ``SeededProposer``'s ragged
prompt-lookup drafts against a brute-force lookup; and a checked numeric
run whose drafts get accepted."""

from __future__ import annotations

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from tileserve import engine as engine_mod
from tileserve.config import ServeConfig
from tileserve.engine import Engine, EngineRequest
from tileserve.oracle import ToyModel, dense_forward
from tileserve.spec_decode import SeededProposer, SpecTree, verify_accept


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


def brute_force_lookup(seq: list[int]) -> list[tuple[int, int]]:
    """(token, match length) for each token that followed an earlier
    occurrence of the last 3, then 2, then 1 tokens of ``seq``, latest
    occurrence first, each token once, at its longest match."""
    found: list[tuple[int, int]] = []
    for n in (3, 2, 1):
        for end in range(len(seq) - 2, n - 2, -1):  # an occurrence ending before the last token
            token = seq[end + 1]
            if seq[end - n + 1 : end + 1] == seq[-n:] and all(t != token for t, _ in found):
                found.append((token, n))
    return found


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
def test_each_node_drafts_exactly_its_two_token_lookup_matches(context, root, width, depth):
    """Node by node, breadth first: the children of a node above the last
    level are the brute-force lookup's tokens over the context, the root
    and the node's path whose match is 2 or more tokens long, in order;
    a node on the last level has none, so no tree is deeper than
    ``depth``."""
    tree = SeededProposer(width, depth).propose(context, root)
    assert tree.tokens[0] == root
    assert max(tree.depth(j) for j in range(tree.spec_len)) < depth
    for node in range(tree.spec_len):
        children = [tree.tokens[j] for j in tree.children(node)]
        if tree.depth(node) == depth - 1:
            assert children == []
        else:
            found = brute_force_lookup(context + path_tokens(tree, node))
            assert children == [token for token, n in found if n >= 2][:width]
    # Breadth first: each level's nodes follow the level above.
    assert [tree.depth(j) for j in range(tree.spec_len)] == sorted(tree.depth(j) for j in range(tree.spec_len))


@settings(max_examples=200, deadline=None)
@given(**PROPOSALS, other=st.lists(st.integers(0, 5), max_size=40))
def test_a_proposal_depends_only_on_its_inputs(context, root, width, depth, other):
    """Equal inputs give equal trees, whatever was proposed in between, and
    proposing leaves the context as it was."""
    proposer = SeededProposer(width, depth)
    kept = list(context)
    tree = proposer.propose(context, root)
    proposer.propose(other, root)
    assert context == kept
    assert proposer.propose(list(context), root) == tree
    assert SeededProposer(width, depth).propose(kept, root) == tree


def test_the_root_first_child_follows_the_latest_match_of_the_last_three_tokens():
    # (1, 2, 3) ends at indices 3 and 8 of context + root; 4 follows the later one.
    context = [5, 1, 2, 3, 9, 7, 1, 2, 3, 4, 8, 1, 2]
    tree = SeededProposer(2, 2).propose(context, 3)
    assert tree.tokens[1:] == (4, 9)


def test_a_three_token_match_ranks_ahead_of_a_later_two_token_match():
    # (1, 2, 3) is followed by 6; the later (2, 3) alone by 7.
    context = [1, 2, 3, 6, 0, 2, 3, 7, 1, 2]
    tree = SeededProposer(2, 2).propose(context, 3)
    assert tree.tokens[1:] == (6, 7)


def test_a_one_token_match_drafts_nothing():
    # 3 follows the earlier 1, but (4, 1) occurs only at the end.
    assert SeededProposer(2, 3).propose([1, 3, 4], 1) == SpecTree((1,), (None,))


@settings(max_examples=200, deadline=None)
@given(
    context=st.lists(st.integers(0, 9), max_size=30),
    root=st.integers(0, 9),
    width=st.integers(1, 3),
    depth=st.integers(1, 4),
)
def test_a_context_with_no_two_token_match_gives_a_root_only_tree(context, root, width, depth):
    """Without an earlier occurrence of the last two tokens of context +
    root, the root has no children, whatever 1-token matches there are."""
    seq = context + [root]
    assume(all(seq[i - 1 : i + 1] != seq[-2:] for i in range(1, len(seq) - 1)))
    assert SeededProposer(width, depth).propose(context, root) == SpecTree((root,), (None,))


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
