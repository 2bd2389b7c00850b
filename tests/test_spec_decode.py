"""Speculative verification: ``verify_accept`` against a brute-force
search over every root path of random trees."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from tileserve.spec_decode import SpecTree, verify_accept


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
