"""Speculative token trees: drafting, ancestor masks, verification.

A tree is a flat list of (token, parent) pairs in topological order
(parents precede children); a linear chain is the sequence-speculation
special case. Drafts come from prompt lookup, as in LLMA (arXiv
2304.04487) and REST (arXiv 2311.08252): a node's children are the
tokens that followed earlier occurrences of its last few tokens in the
request's own prompt and outputs, so no draft model runs. Only matches
of ``MIN_NGRAM`` or more tokens draft a child, so the tree is ragged:
it grows where lookup backs it and stops where it does not, as dynamic
draft trees do (Sequoia, arXiv 2402.12374; EAGLE-2, arXiv 2406.16858),
and each node it leaves out is a verify row the chunk budget keeps.
Verification is greedy argmax acceptance: a child stays accepted only
while its token equals the target model's next-token choice at its
parent's position, so the delivered tokens are the target's whatever
the draft.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

MAX_NGRAM = 3  # lookups match the last 3, then fewer, tokens
MIN_NGRAM = 2  # the shortest match that drafts a child


@dataclass(frozen=True)
class SpecTree:
    """Immutable speculative token tree.

    ``parents[0]`` is None (the root); every other ``parents[i] < i``.
    """

    tokens: tuple[int, ...]
    parents: tuple[int | None, ...]

    def __post_init__(self):
        if len(self.tokens) != len(self.parents):
            raise ValueError("tokens and parents must have equal length")
        if not self.tokens:
            raise ValueError("tree must have at least one node")
        if self.parents[0] is not None:
            raise ValueError("node 0 must be the root")
        for i, p in enumerate(self.parents[1:], start=1):
            if p is None or not 0 <= p < i:
                raise ValueError(f"node {i}: parent must precede it in topo order")

    @property
    def spec_len(self) -> int:
        return len(self.tokens)

    def depth(self, i: int) -> int:
        d = 0
        while self.parents[i] is not None:
            i = self.parents[i]
            d += 1
        return d

    def children(self, i: int) -> list[int]:
        return [j for j, p in enumerate(self.parents) if p == i]

def full_tree(root_token: int, width: int, depth: int, child_token) -> SpecTree:
    """Full width-ary tree with ``depth`` levels (level 0 is the root).

    ``child_token(parent_index, branch)`` supplies each child's token id.
    """
    if width < 1 or depth < 1:
        raise ValueError("width and depth must be >= 1")
    tokens = [root_token]
    parents: list[int | None] = [None]
    frontier = [0]
    for _ in range(depth - 1):
        next_frontier = []
        for p in frontier:
            for b in range(width):
                tokens.append(int(child_token(p, b)))
                parents.append(p)
                next_frontier.append(len(tokens) - 1)
        frontier = next_frontier
    return SpecTree(tuple(tokens), tuple(parents))


def tree_mask(tree: SpecTree) -> np.ndarray:
    """Boolean [n, n] mask: row i may attend node j iff j is an
    ancestor of i or j == i. Lower-triangular under topo order."""
    n = tree.spec_len
    mask = np.zeros((n, n), dtype=bool)
    for i in range(n):
        mask[i, i] = True
        p = tree.parents[i]
        if p is not None:
            mask[i] |= mask[p]
    return mask


def verify_accept(tree: SpecTree, target_next: list[int], context_next: int) -> list[int]:
    """Longest accepted root path under greedy argmax acceptance.

    ``target_next[i]`` is the target model's next-token choice at node
    i's position; ``context_next`` is its choice at the position just
    before the tree. The root is accepted iff its token equals
    ``context_next``; a child is accepted iff its token equals
    ``target_next`` of its accepted parent. Ties between equal-token
    siblings go to the lowest node index. Returns the accepted node
    indices in path order (empty if the root is rejected).
    """
    if len(target_next) != tree.spec_len:
        raise ValueError("target_next must supply one token per node")
    path: list[int] = []
    if tree.tokens[0] != context_next:
        return path
    cur = 0
    path.append(0)
    while True:
        want = target_next[cur]
        nxt = None
        for j in tree.children(cur):
            if tree.tokens[j] == want:
                nxt = j
                break
        if nxt is None:
            return path
        path.append(nxt)
        cur = nxt


def _lookup_candidates(seq: list[int], width: int) -> list[int]:
    """Up to ``width`` distinct tokens that followed earlier occurrences
    of the last ``MAX_NGRAM``, then fewer down to ``MIN_NGRAM``, tokens of
    ``seq``: longer matches first, and among equal lengths the most
    recent first."""
    last = len(seq) - 1
    head = MIN_NGRAM - 1  # a match's tokens before the last one
    if last <= head:
        return []
    token, before = seq[last], seq[last - head : last]
    hits = []
    i = head - 1
    try:
        while True:
            i = seq.index(token, i + 1, last)
            if seq[i - head : i] == before:
                hits.append(i)
    except ValueError:
        pass
    followers: tuple[list[int], ...] = tuple([] for _ in range(MAX_NGRAM - head))  # by match length, longest first
    for i in reversed(hits):
        n = MIN_NGRAM
        while n < MAX_NGRAM and i >= n and seq[i - n] == seq[last - n]:
            n += 1
        followers[MAX_NGRAM - n].append(seq[i + 1])
    found: list[int] = []
    for t in chain(*followers):
        if t not in found:
            found.append(t)
            if len(found) == width:
                break
    return found


class SeededProposer:
    """Deterministic ragged drafts by prompt lookup.

    Nodes are drafted breadth first. A node's children are
    ``_lookup_candidates`` over the context, the root and the node's
    path, so each extends a match of at least ``MIN_NGRAM`` tokens; a
    node with none is a leaf, and so is every node ``depth - 1`` levels
    below the root. The tree thus fits inside ``full_tree``'s
    (width, depth) shape, and a context with no such match gives the
    root alone. It holds no state between calls.
    """

    def __init__(self, width: int, depth: int):
        self.width = width
        self.depth = depth

    def propose(self, context_tokens: list[int], root_token: int) -> SpecTree:
        """The tree rooted at ``root_token``, drafted from
        ``context_tokens``, the tokens before it."""
        tokens = [root_token]
        parents: list[int | None] = [None]
        seqs = [[*context_tokens, root_token]]  # the context and each node's path, by node index
        frontier = [0]
        for _ in range(self.depth - 1):
            next_frontier = []
            for p in frontier:
                for token in _lookup_candidates(seqs[p], self.width):
                    next_frontier.append(len(tokens))
                    tokens.append(token)
                    parents.append(p)
                    seqs.append(seqs[p] + [token])
            frontier = next_frontier
        return SpecTree(tuple(tokens), tuple(parents))
