"""Speculative token trees: construction, ancestor masks, verification.

A tree is a flat list of (token, parent) pairs in topological order
(parents precede children); a linear chain is the sequence-speculation
special case. Verification is greedy argmax acceptance: a child stays
accepted only while its token equals the target model's next-token
choice at its parent's position.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np


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

    def children(self, i: int | None) -> list[int]:
        if i is None:
            return [0]
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


class SeededProposer:
    """Deterministic draft stand-in: tokens from a hash of the context.

    Real drafts come from a small model; for traces and simulation a
    seeded function of (seed, context, node) is enough to exercise the
    verify path end to end.
    """

    def __init__(self, width: int, depth: int, vocab_size: int, seed: int = 0):
        self.width = width
        self.depth = depth
        self.vocab_size = vocab_size
        self.seed = seed

    def propose(self, context_tokens: list[int], root_token: int) -> SpecTree:
        ctx = hashlib.blake2b(
            np.asarray([self.seed] + list(context_tokens), dtype=np.int64).tobytes(),
            digest_size=8,
        ).digest()
        base = int.from_bytes(ctx, "little")

        def child_token(parent: int, branch: int) -> int:
            return (base ^ (parent * 2654435761) ^ (branch * 40503)) % self.vocab_size

        return full_tree(root_token, self.width, self.depth, child_token)
