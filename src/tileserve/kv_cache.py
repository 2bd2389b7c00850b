"""Block-paged K/V storage with radix-tree prefix reuse.

Keys and values live in fixed-size blocks drawn from a bounded pool.
One block id names the same rows in every transformer layer: the pools
are ``keys``/``values`` of shape ``[num_layers, pool_blocks, block_size,
kv_heads, head_size]``, so one radix tree, one set of ref counts and one
:class:`BlockTable` per sequence serve all layers, as the shared block
tables of PagedAttention do.

Appending is split in two. :meth:`RadixKvCache.commit_tokens` reserves:
it records the tokens, allocates their blocks (all or nothing), copies
every layer's rows on copy-on-write and caches full blocks in the tree,
but writes no K/V. :meth:`RadixKvCache.write_kv` then fills one layer's
rows of the reserved tokens, or :meth:`RadixKvCache.kv_slots` gives
their pool rows for one scatter per layer. The pools hold only the
layers a caller writes; the engine's simulate mode asks for none and
never writes.
:meth:`RadixKvCache.append_run` reserves one token for each of a run of
sequences (a chunk's decodes) in one call, with the outcome of one
one-token commit per sequence.

Ownership follows from the ref counts alone: a sequence appends in
place into its last block exactly when it is the block's only holder
and the block is not a tree node (``_owns_last_block``); otherwise the
commit copies the block first. :meth:`RadixKvCache.reserve_blocks`
applies the same block-need rule to a batch of commits (a chunk's),
making room for all of them with one eviction before the first, or
raising before any table changes.

A radix tree over token-id sequences indexes completed blocks so that
later requests can reuse matching prefixes token-wise; a mismatch
inside a block still reuses the matching head of that block. When the
pool or the cache-capacity cap runs out, least-recently-used
unreferenced leaf blocks are evicted from the tree.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from .config import ServeConfig


class PoolExhausted(RuntimeError):
    """No free block is available even after eviction."""


@dataclass
class RadixNode:
    """One cached block in the prefix tree.

    ``token_key`` holds the block's full ``block_size`` token ids, and
    children are keyed by that tuple: siblings may share any head, even
    all but their last token, and are told apart by their whole content.
    """

    token_key: tuple[int, ...]
    block_id: int
    parent: "RadixNode | None"
    children: dict[tuple[int, ...], "RadixNode"] = field(default_factory=dict)
    last_used: int = 0
    alive: bool = True

    def is_leaf(self) -> bool:
        return not self.children


@dataclass
class BlockTable:
    """Ordered block list backing one sequence's K/V history.

    ``total_tokens`` counts the tokens this sequence considers valid;
    the last block may be only partially used from the sequence's
    point of view even when the underlying block is physically full
    (partial prefix match).
    """

    seq_id: object
    blocks: list[int] = field(default_factory=list)
    total_tokens: int = 0

    def last_block_tokens(self, block_size: int) -> int:
        if not self.blocks:
            return 0
        return self.total_tokens - (len(self.blocks) - 1) * block_size


@dataclass
class PrefixMatch:
    """Result of a prefix lookup: matched length and pinned blocks."""

    matched_len: int
    blocks: list[int]
    nodes: list[RadixNode] = field(default_factory=list, repr=False)


@dataclass
class KvView:
    """One sequence's K/V in one layer: the layer's pool arrays plus the
    block list. The attention kernel reads block tables and pools
    directly (``attention.TileKv``), so nothing in the package builds
    one; :meth:`RadixKvCache.kv_view` stays because the benchmark's
    tracer wraps it by name."""

    keys: np.ndarray  # [pool_blocks, block_size, kv_heads, head_size]
    values: np.ndarray
    block_ids: tuple[int, ...]
    total_tokens: int
    block_size: int


@dataclass
class _SeqState:
    tokens: list[int]
    cursor: RadixNode
    caching_ok: bool = True


class RadixKvCache:
    """Radix-tree managed, block-paged K/V cache.

    Single writer; prefix matches return immutable snapshots that are
    safe to hand to workers. Block bookkeeping is shared by all
    ``num_layers`` layers; only the K/V rows are per layer.
    """

    def __init__(
        self,
        block_size: int,
        pool_blocks: int,
        cache_cap_blocks: int,
        kv_heads: int,
        head_size: int,
        num_layers: int = 1,
    ):
        self.block_size = block_size
        self.pool_blocks = pool_blocks
        self.cache_cap_blocks = cache_cap_blocks
        # np.zeros, not zeros_like: pages stay unmapped until a block is written.
        shape = (num_layers, pool_blocks, block_size, kv_heads, head_size)
        self.keys = np.zeros(shape, dtype=np.float32)
        self.values = np.zeros(shape, dtype=np.float32)
        self.ref_count = [0] * pool_blocks
        self._free: list[int] = list(range(pool_blocks - 1, -1, -1))
        self._root = RadixNode(token_key=(), block_id=-1, parent=None)
        self._node_of: dict[int, RadixNode] = {}  # block id -> tree node
        self._seqs: dict[object, _SeqState] = {}
        self._clock = 0
        # Evictable leaves as (last_used, block_id, node), deleted lazily:
        # an entry goes stale when its node dies, gains a child, is
        # referenced or is touched, and evict skips stale entries.
        self._lru: list[tuple[int, int, RadixNode]] = []
        # Prefix tokens kept by start_sequence, blocks evicted, copy-on-write copies.
        self.stats = {"hit_tokens": 0, "evicted_blocks": 0, "cow_copies": 0}

    @classmethod
    def from_config(cls, cfg: ServeConfig, num_layers: int) -> "RadixKvCache":
        return cls(
            block_size=cfg.kv_block_size,
            pool_blocks=cfg.kv_pool_blocks,
            cache_cap_blocks=cfg.kv_cache_cap_blocks,
            kv_heads=cfg.model.num_kv_heads,
            head_size=cfg.model.head_size,
            num_layers=num_layers,
        )

    # ------------------------------------------------------------------
    # Prefix matching
    # ------------------------------------------------------------------

    def match_prefix(self, tokens: list[int]) -> PrefixMatch:
        """Longest cached prefix of ``tokens``.

        Follows the child keyed by each next full block of ``tokens``.
        Where no child holds that block, or fewer than ``block_size``
        tokens remain, it takes the sibling with the longest matching
        head (the first in insertion order on a tie), counts that head
        and stops there. Blocks in the returned match have their ref
        counts incremented (the caller owns a reference until
        :meth:`release_blocks` / sequence release) and the touched path
        is bumped to most-recently-used.
        """
        self._clock += 1
        bs = self.block_size
        node = self._root
        matched = 0
        blocks: list[int] = []
        nodes: list[RadixNode] = []
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
                    key = sibling.token_key
                    k = 0
                    while k < limit and key[k] == tokens[matched + k]:
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

    def start_sequence(self, seq_id, prompt_tokens: list[int], max_match: int | None = None) -> BlockTable:
        """Register a sequence, reusing the longest cached prefix.

        ``max_match`` caps how much of the match is kept (callers that
        must recompute at least one token pass ``len(prompt) - 1``).
        """
        if seq_id in self._seqs:
            raise ValueError(f"sequence {seq_id!r} already registered")
        m = self.match_prefix(prompt_tokens)
        use = m.matched_len if max_match is None else min(m.matched_len, max_match)
        self.stats["hit_tokens"] += use
        keep_blocks = -(-use // self.block_size) if use > 0 else 0
        self._release_blocks(m.blocks[keep_blocks:])
        full_nodes = use // self.block_size
        cursor = m.nodes[full_nodes - 1] if full_nodes > 0 else self._root
        table = BlockTable(seq_id=seq_id, blocks=m.blocks[:keep_blocks], total_tokens=use)
        self._seqs[seq_id] = _SeqState(tokens=list(prompt_tokens[:use]), cursor=cursor)
        return table

    # ------------------------------------------------------------------
    # Reserving and writing K/V
    # ------------------------------------------------------------------

    def commit_tokens(self, table: BlockTable, new_tokens: list[int], cacheable: bool = True) -> BlockTable:
        """Reserve K/V rows for ``new_tokens`` at the end of the sequence.

        Records the tokens and gives them blocks, but writes no K/V:
        fill the reserved rows with :meth:`write_kv`, per layer. The
        tokens fill the last block's room first, in place when the
        sequence owns that block and after copying every layer's rows
        (copy-on-write) when it does not, so other referents never
        observe the later writes; the rest go to fresh blocks. Blocks
        that become full are inserted into the radix tree unless
        ``cacheable`` is False (used for speculative tokens that may be
        rolled back).

        Every block the commit needs is made room for, as by
        :meth:`reserve_blocks`, before anything changes, so a commit is
        all or nothing.

        Raises:
            PoolExhausted: too few free blocks even after LRU eviction;
                the table and the sequence are left unchanged.
        """
        n = len(new_tokens)
        if n == 0:
            return table
        room, owned, need = self._fill_plan(table, n)
        if need > len(self._free):
            self.reserve_blocks([(table, n)])
        st = self._seqs[table.seq_id]
        st.tokens.extend(new_tokens)
        table.total_tokens += n
        bs = self.block_size
        if room:
            bid = table.blocks[-1]
            if not owned:
                bid = self._cow_last_block(table, bid, bs - room)
            if n >= room and cacheable:
                self._try_cache_block(table, st, bid)
        end = room  # new tokens up to the end of the last block
        while end < n:
            bid = self._free.pop()
            self.ref_count[bid] = 1
            table.blocks.append(bid)
            end += bs
            if end <= n and cacheable:
                self._try_cache_block(table, st, bid)
        return table

    def reserve_blocks(self, commits: list[tuple[BlockTable, int]]) -> None:
        """Make room for a batch of commits, each a (table, token count),
        before the first of them, with one :meth:`evict` call for any
        shortfall, so that the batch commits all or nothing (a block
        cached in the tree cannot be rolled back). No commit takes more
        blocks than it has tokens, so enough free blocks for every token
        end the check early.

        Raises:
            PoolExhausted: naming the first commit that does not fit in
                what eviction left; no table has changed.
        """
        free = len(self._free)
        if free >= sum(n for _, n in commits):
            return
        needs = [self._fill_plan(table, n)[2] for table, n in commits]
        if sum(needs) > free:
            self.evict(sum(needs) - free)
            free = len(self._free)
        for (table, n), need in zip(commits, needs):
            if need > free:
                raise PoolExhausted(
                    f"sequence {table.seq_id!r} needs {need} K/V blocks for {n} tokens, "
                    f"{free} free of {self.pool_blocks} after eviction"
                )
            free -= need

    def append_run(self, tables: list[BlockTable], tokens: list[int]) -> None:
        """Reserve a K/V row for ``tokens[i]`` at the end of ``tables[i]``,
        for each i in order, as ``commit_tokens(tables[i], [tokens[i]])``
        would. A sequence that owns a last block with room appends in
        place, caching the block when the token fills it; the rest go
        through :meth:`commit_tokens`. Make room first
        (:meth:`reserve_blocks`): a run that runs short raises
        ``PoolExhausted`` with the earlier tables appended."""
        bs = self.block_size
        seqs = self._seqs
        owns = self._owns_last_block
        for table, token in zip(tables, tokens):
            blocks = table.blocks
            room = len(blocks) * bs - table.total_tokens
            if room and owns(table):
                st = seqs[table.seq_id]
                st.tokens.append(token)
                table.total_tokens += 1
                if room == 1:
                    self._try_cache_block(table, st, blocks[-1])
            else:
                self.commit_tokens(table, [token])

    def write_kv(self, table: BlockTable, layer: int, start: int, k: np.ndarray, v: np.ndarray) -> None:
        """Write layer ``layer``'s K/V rows for sequence positions
        ``start .. start + len(k) - 1``.

        Write only rows that the latest :meth:`commit_tokens` or
        :meth:`append_run` reserved: no other sequence has read their
        blocks yet. Rewriting a shared prefix would change it under its
        other readers.

        Raises:
            ValueError: ``k`` and ``v`` differ in length, or the rows reach
                outside the sequence's committed tokens.
        """
        if v.shape[0] != k.shape[0]:
            raise ValueError("k and v must have the same number of rows")
        slots = self.kv_slots([(table, start, k.shape[0])])
        rows = self.keys.shape[3:]
        self.keys[layer].reshape(-1, *rows)[slots] = k
        self.values[layer].reshape(-1, *rows)[slots] = v

    def kv_slots(self, spans) -> np.ndarray:
        """The pool rows of sequence positions ``start .. start + n - 1``
        for each (table, start, n) of ``spans``, in order, as int64 indices
        into a layer's pool viewed as ``[pool_blocks * block_size,
        kv_heads, head_size]`` (block id times the block size, plus the
        offset). One block id names the same rows in every layer, so a
        chunk computes its slots once and writes every layer's new K/V
        with one scatter each, under :meth:`write_kv`'s rule.

        Raises:
            ValueError: a span reaches outside its sequence's committed
                tokens.
        """
        bs = self.block_size
        slots: list[int] = []
        for table, start, n in spans:
            if start < 0 or start + n > table.total_tokens:
                raise ValueError(
                    f"sequence {table.seq_id!r}: rows {start}..{start + n - 1} are outside "
                    f"its {table.total_tokens} committed tokens"
                )
            pos, end = start, start + n
            while pos < end:
                index, off = divmod(pos, bs)
                take = min(bs - off, end - pos)
                base = table.blocks[index] * bs + off
                slots.extend(range(base, base + take))
                pos += take
        return np.array(slots, dtype=np.int64)

    def truncate_tokens(self, table: BlockTable, keep_total: int) -> None:
        """Drop the sequence's trailing tokens (speculative rollback):
        release the blocks past ``keep_total``; the last kept block
        merely shrinks from this sequence's point of view.
        """
        st = self._seqs[table.seq_id]
        if keep_total < 0 or keep_total > table.total_tokens:
            raise ValueError("keep_total out of range")
        cursor_cover = self._cursor_depth_tokens(st.cursor)
        if keep_total < cursor_cover:
            raise ValueError("cannot truncate into tree-cached prefix of this sequence")
        keep_blocks = -(-keep_total // self.block_size)
        self._release_blocks(table.blocks[keep_blocks:])
        del table.blocks[keep_blocks:]
        table.total_tokens = keep_total
        del st.tokens[keep_total:]

    def release_sequence(self, table: BlockTable) -> None:
        """Drop the sequence's references; uncached blocks return to the pool."""
        self._release_blocks(table.blocks)
        table.blocks.clear()
        table.total_tokens = 0
        del self._seqs[table.seq_id]

    def release_blocks(self, match: PrefixMatch) -> None:
        """Release blocks pinned by a raw :meth:`match_prefix` call."""
        self._release_blocks(match.blocks)
        match.blocks = []

    # ------------------------------------------------------------------
    # Eviction
    # ------------------------------------------------------------------

    def evict(self, needed: int) -> int:
        """Free up to ``needed`` blocks from unreferenced LRU leaves.

        Only leaf nodes whose blocks carry no sequence references are
        removed, oldest ``last_used`` first; a parent that becomes an
        unreferenced leaf joins the candidates in the same pass.
        Returns the number of blocks actually freed (may be short).
        """
        if needed < 1:
            raise ValueError("needed must be >= 1")
        freed = 0
        while freed < needed and self._lru:
            entry = heapq.heappop(self._lru)
            if not self._evictable(entry):
                continue
            node = entry[2]
            self._remove_node(node)
            freed += 1
            parent = node.parent
            if parent is not self._root and parent.is_leaf() and self.ref_count[parent.block_id] == 0:
                self._push_evictable(parent)
        self.stats["evicted_blocks"] += freed
        return freed

    # ------------------------------------------------------------------
    # Views and accounting
    # ------------------------------------------------------------------

    def kv_view(self, table: BlockTable, layer: int) -> KvView:
        """The sequence's K/V rows in layer ``layer``."""
        return KvView(
            keys=self.keys[layer],
            values=self.values[layer],
            block_ids=tuple(table.blocks),
            total_tokens=table.total_tokens,
            block_size=self.block_size,
        )

    def cached_block_count(self) -> int:
        return len(self._node_of)

    def free_block_count(self) -> int:
        return len(self._free)

    def pool_partition(self) -> dict[str, set[int]]:
        """Disjoint partition of the pool: free / cached / referenced-only."""
        free = set(self._free)
        cached = set(self._node_of)
        referenced = {
            bid for bid in range(self.pool_blocks) if self.ref_count[bid] > 0 and bid not in cached
        }
        return {"free": free, "cached": cached, "referenced": referenced}

    def reachable_block_ids(self) -> set[int]:
        out: set[int] = set()
        stack = list(self._root.children.values())
        while stack:
            node = stack.pop()
            out.add(node.block_id)
            stack.extend(node.children.values())
        return out

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _release_blocks(self, bids) -> None:
        """Drop one reference to each block of ``bids``, in order: a block
        left unreferenced returns to the free list, or becomes evictable
        when it is a tree leaf."""
        ref_count, node_of, free = self.ref_count, self._node_of, self._free
        for bid in bids:
            ref_count[bid] -= 1
            assert ref_count[bid] >= 0, "ref count underflow"
            if ref_count[bid] == 0:
                node = node_of.get(bid)
                if node is None:
                    free.append(bid)
                elif node.is_leaf():
                    self._push_evictable(node)

    def _evictable(self, entry: tuple[int, int, RadixNode]) -> bool:
        last_used, bid, node = entry
        return node.alive and node.is_leaf() and self.ref_count[bid] == 0 and node.last_used == last_used

    def _push_evictable(self, node: RadixNode) -> None:
        heapq.heappush(self._lru, (node.last_used, node.block_id, node))
        if len(self._lru) > 2 * len(self._node_of) + 64:
            # Mostly stale entries: rebuild from the evictable leaves.
            self._lru = [
                (n.last_used, n.block_id, n)
                for n in self._node_of.values()
                if n.is_leaf() and self.ref_count[n.block_id] == 0
            ]
            heapq.heapify(self._lru)

    def _fill_plan(self, table: BlockTable, n: int) -> tuple[int, bool, int]:
        """The block-need rule of committing ``n`` tokens to ``table``:
        the room left in its last block, whether the sequence owns that
        block (``_owns_last_block``), and the blocks the commit takes from
        the pool, a copy-on-write of a last block with room that it does
        not own included."""
        bs = self.block_size
        room = len(table.blocks) * bs - table.total_tokens
        owned = room > 0 and self._owns_last_block(table)
        return room, owned, (room > 0 and not owned) + -(-(n - room) // bs)

    def _owns_last_block(self, table: BlockTable) -> bool:
        """The ownership rule: the sequence alone holds its last block
        and the block is not a tree node, so it may append in place."""
        bid = table.blocks[-1]
        return self.ref_count[bid] == 1 and bid not in self._node_of

    def _cow_last_block(self, table: BlockTable, old_bid: int, view: int) -> int:
        new_bid = self._free.pop()
        self.stats["cow_copies"] += 1
        self.keys[:, new_bid, :view] = self.keys[:, old_bid, :view]
        self.values[:, new_bid, :view] = self.values[:, old_bid, :view]
        self.ref_count[new_bid] = 1
        table.blocks[-1] = new_bid
        self._release_blocks((old_bid,))
        return new_bid

    def _try_cache_block(self, table: BlockTable, st: _SeqState, bid: int) -> None:
        if not st.caching_ok:
            return
        if not st.cursor.alive:
            st.caching_ok = False
            return
        start = (len(table.blocks) - 1) * self.block_size
        key = tuple(st.tokens[start : start + self.block_size])
        child = st.cursor.children.get(key)
        if child is not None:
            # Equivalent block already cached; chain under it but keep
            # this sequence's own copy (no aliasing of committed data).
            st.cursor = child
            return
        if self.cache_cap_blocks == 0:
            st.caching_ok = False
            return
        if len(self._node_of) >= self.cache_cap_blocks and self.evict(1) == 0:
            st.caching_ok = False
            return
        self._clock += 1
        node = RadixNode(token_key=key, block_id=bid, parent=st.cursor, last_used=self._clock)
        st.cursor.children[key] = node
        self._node_of[bid] = node
        st.cursor = node

    def _remove_node(self, node: RadixNode) -> None:
        node.alive = False
        assert node.parent is not None
        del node.parent.children[node.token_key]
        del self._node_of[node.block_id]
        self._free.append(node.block_id)

    def _cursor_depth_tokens(self, node: RadixNode) -> int:
        depth = 0
        while node is not self._root:
            depth += len(node.token_key)
            node = node.parent
        return depth
