"""A reference radix tree with one node per cached block.

``PerBlockKvCache`` is ``RadixKvCache`` with a tree that is not
path-compressed: every cached block is a node keyed by its token
tuple, a match looks up one child per block, and eviction removes
unreferenced leaf nodes, oldest ``last_used`` first, then lowest block
id. Only the tree methods are replaced; commits, reservations, copies on
write and K/V rows are the cache's own. Two rules apply here as they do
in the cache: a block is cached only at its own depth below the
sequence's cursor, and caching stops when a cap eviction takes the
cursor's block. The differential test in ``test_kv_cache.py`` runs the
same operations through both and expects the same blocks, ref counts,
free lists and stats.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from tileserve.kv_cache import BlockTable, PrefixMatch, RadixKvCache, _SeqState


@dataclass(eq=False)
class BlockNode:
    token_key: tuple[int, ...]
    block_id: int
    parent: "BlockNode | None"
    children: dict[tuple[int, ...], "BlockNode"] = field(default_factory=dict)
    last_used: int = 0
    alive: bool = True


class PerBlockKvCache(RadixKvCache):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._root = BlockNode(token_key=(), block_id=-1, parent=None)
        self._lru = []

    def match_prefix(self, tokens: list[int]) -> PrefixMatch:
        self._clock += 1
        bs = self.block_size
        node = self._root
        matched = 0
        blocks: list[int] = []
        nodes: list[BlockNode] = []
        n = len(tokens)
        while matched < n:
            child = None
            if n - matched >= bs:
                child = node.children.get(tuple(tokens[matched : matched + bs]))
            take = bs
            if child is None:
                take = 0
                limit = min(bs, n - matched)
                for sibling in node.children.values():
                    k = 0
                    while k < limit and sibling.token_key[k] == tokens[matched + k]:
                        k += 1
                    if k > take:
                        child, take = sibling, k
                if child is None:
                    break
            child.last_used = self._clock
            self.ref_count[child.block_id] += 1
            blocks.append(child.block_id)
            nodes.append(child)
            matched += take
            if take < bs:
                break
            node = child
        return PrefixMatch(matched, blocks, nodes)

    def start_sequence(self, seq_id, prompt_tokens: list[int], max_match: int | None = None):
        if seq_id in self._seqs:
            raise ValueError(f"sequence {seq_id!r} already registered")
        m = self.match_prefix(prompt_tokens)
        use = m.matched_len if max_match is None else min(m.matched_len, max_match)
        self.stats["hit_tokens"] += use
        keep_blocks = -(-use // self.block_size)
        self._release_blocks(m.blocks[keep_blocks:])
        full = use // self.block_size
        cursor = m.nodes[full - 1] if full else self._root
        self._seqs[seq_id] = _SeqState(tokens=list(prompt_tokens[:use]), cursor=cursor)
        return BlockTable(seq_id=seq_id, blocks=m.blocks[:keep_blocks], total_tokens=use)

    def truncate_tokens(self, table, keep_total: int) -> None:
        st = self._seqs[table.seq_id]
        if keep_total < 0 or keep_total > table.total_tokens:
            raise ValueError(
                f"sequence {table.seq_id!r}: keep_total {keep_total} out of range;"
                f" it has {table.total_tokens} committed tokens"
            )
        cached = self.cursor_depth(st.cursor) * self.block_size
        if keep_total < cached:
            raise ValueError(
                f"sequence {table.seq_id!r}: cannot truncate to keep_total {keep_total}"
                f" inside its tree-cached prefix of {cached} tokens"
            )
        keep_blocks = -(-keep_total // self.block_size)
        self._release_blocks(table.blocks[keep_blocks:])
        del table.blocks[keep_blocks:]
        table.total_tokens = keep_total
        del st.tokens[keep_total:]

    def evict(self, needed: int) -> int:
        if needed < 1:
            raise ValueError("needed must be >= 1")
        freed = 0
        while freed < needed and self._lru:
            last_used, bid, _, node = heapq.heappop(self._lru)
            if not (node.alive and not node.children and self.ref_count[bid] == 0 and node.last_used == last_used):
                continue
            node.alive = False
            del node.parent.children[node.token_key]
            del self._node_of[bid]
            self._free.append(bid)
            freed += 1
            parent = node.parent
            if parent is not self._root and not parent.children and self.ref_count[parent.block_id] == 0:
                self._push_evictable(parent)
        self.stats["evicted_blocks"] += freed
        return freed

    def reachable_block_ids(self) -> set[int]:
        out: set[int] = set()
        stack = list(self._root.children.values())
        while stack:
            node = stack.pop()
            out.add(node.block_id)
            stack.extend(node.children.values())
        return out

    def _release_blocks(self, bids) -> None:
        for bid in bids:
            self.ref_count[bid] -= 1
            assert self.ref_count[bid] >= 0, "ref count underflow"
            if self.ref_count[bid] == 0:
                node = self._node_of.get(bid)
                if node is None:
                    self._free.append(bid)
                elif not node.children:
                    self._push_evictable(node)

    def _push_evictable(self, node: BlockNode) -> None:
        # The id breaks ties between a stale and a live entry of one block.
        heapq.heappush(self._lru, (node.last_used, node.block_id, id(node), node))
        if len(self._lru) > 2 * len(self._node_of) + 64:
            self._lru = [
                (n.last_used, n.block_id, id(n), n)
                for n in self._node_of.values()
                if not n.children and self.ref_count[n.block_id] == 0
            ]
            heapq.heapify(self._lru)

    def _try_cache_block(self, table, st, bid: int) -> None:
        if not st.caching_ok:
            return
        if not st.cursor.alive:
            st.caching_ok = False
            return
        if self.cursor_depth(st.cursor) != len(table.blocks) - 1:
            return
        start = (len(table.blocks) - 1) * self.block_size
        key = tuple(st.tokens[start : start + self.block_size])
        child = st.cursor.children.get(key)
        if child is not None:
            st.cursor = child
            return
        if self.cache_cap_blocks == 0:
            st.caching_ok = False
            return
        if len(self._node_of) >= self.cache_cap_blocks and (self.evict(1) == 0 or not st.cursor.alive):
            st.caching_ok = False
            return
        self._clock += 1
        node = BlockNode(token_key=key, block_id=bid, parent=st.cursor, last_used=self._clock)
        st.cursor.children[key] = node
        self._node_of[bid] = node
        st.cursor = node

    def block_tree(self) -> dict:
        """Each block's content keys its (block, recency, children)."""

        def tree(node):
            return {key: (child.block_id, child.last_used, tree(child)) for key, child in node.children.items()}

        return tree(self._root)

    def cursor_path(self, seq) -> tuple[int, list[int] | None]:
        """The cursor's depth and block path, None for a dead cursor's."""
        path, node = [], seq.cursor
        while node is not self._root:
            path.insert(0, node.block_id)
            node = node.parent
        return len(path), path if seq.cursor.alive else None

    def cursor_depth(self, node: BlockNode) -> int:
        depth = 0
        while node is not self._root:
            depth += 1
            node = node.parent
        return depth
