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
but writes no K/V. :meth:`RadixKvCache.kv_slots` then gives the reserved
tokens' pool rows, and the caller fills every layer with one scatter per
pool through ``key_rows``/``value_rows``, the pools viewed as
``[num_layers, pool_blocks * block_size, kv_heads, head_size]``. The
pools hold only the layers a caller writes; the engine's simulate mode
asks for none and never writes.
:meth:`RadixKvCache.append_run` reserves one token for each of a run of
sequences (a chunk's decodes) in one call, with the outcome of one
one-token commit per sequence. :meth:`RadixKvCache.keep_path` rolls a
verified speculative tree back to its accepted path, K/V rows included.

Ownership follows from the ref counts alone: a sequence appends in
place into its last block exactly when it is the block's only holder
and the block is not a tree node (``_owns_last_block``); otherwise the
commit copies the block first. :meth:`RadixKvCache.reserve_blocks`
applies the same block-need rule to a batch of commits (a chunk's),
making room for all of them with one eviction before the first, or
raising before any table changes.

A radix tree over token-id sequences indexes completed blocks so that
later requests can reuse matching prefixes token-wise; a mismatch
inside a block still reuses the matching head of that block. The tree
is path-compressed, as in SGLang's RadixAttention: each node holds a
run of blocks, so a match compares one edge slice per node and goes
block by block only inside the edge where it ends. Blocks keep their
own ref counts and ``last_used`` stamps, so the tree caches, matches
and evicts exactly the blocks a tree of one node per block would. When
the pool or the cache-capacity cap runs out, the least-recently-used
unreferenced blocks without a cached child (the tails of childless
edges) are evicted.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from .config import ServeConfig


class PoolExhausted(RuntimeError):
    """No free block is available even after eviction."""


@dataclass(eq=False)
class RadixNode:
    """A run of cached blocks in the prefix tree: one edge.

    ``tokens`` holds the run's token ids, ``block_size`` per block;
    ``block_ids``, ``last_used`` and ``stamps`` hold one entry per block,
    where a block's stamp is the clock at which it was cached, which no
    other block shares. ``start`` counts the blocks above the run.
    Children are keyed by their first block's token tuple: siblings may
    share any head, even all but their last token, and are told apart by
    their whole first block. Every block of a run but the last has one
    child block, the next in the run. An edge splits where a branch
    starts inside it (its head moves to a new parent node), grows in
    place while it has no children, and loses its tail block on
    eviction; it dies (``alive`` False) with its last block.
    """

    tokens: list[int]
    block_ids: list[int]
    last_used: list[int]
    stamps: list[int]
    parent: "RadixNode | None"
    start: int = 0
    children: dict[tuple[int, ...], "RadixNode"] = field(default_factory=dict)
    alive: bool = True


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
    nodes: list[RadixNode] = field(default_factory=list, repr=False)  # the edges it entered, root first


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
    """A sequence's tokens and its cursor, the last block of its path
    through the tree: the ``depth``-th block (0 for the root), held by
    ``cursor`` or, after edge splits, by a node above it, with stamp
    ``stamp``. The cursor is alive while that block is still at that
    depth with that stamp. ``caching_ok`` False stops caching the
    sequence's later blocks."""

    tokens: list[int]
    cursor: RadixNode
    depth: int = 0
    stamp: int = 0
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
        # Slot-indexed views of the pools, the rows ``kv_slots`` names. The
        # shape is explicit: with no layers, -1 could not be inferred.
        rows = (num_layers, pool_blocks * block_size, kv_heads, head_size)
        self.key_rows = self.keys.reshape(rows)
        self.value_rows = self.values.reshape(rows)
        self.ref_count = [0] * pool_blocks
        self._free: list[int] = list(range(pool_blocks - 1, -1, -1))
        self._root = RadixNode([], [], [], [], parent=None)
        self._node_of: dict[int, RadixNode] = {}  # block id -> the node holding it
        self._seqs: dict[object, _SeqState] = {}
        self._clock = 0
        # Evictable blocks as (last_used, block_id), deleted lazily: an
        # entry goes stale when its block leaves the tree, gains a child,
        # is referenced or is touched, and evict skips stale entries.
        self._lru: list[tuple[int, int]] = []
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

        Follows the child whose first block is the next full block of
        ``tokens`` and compares its whole run with one slice; where the
        run differs, it goes block by block to the block that differs and
        counts the matching head of that block. Where no child starts
        with the next full block, or fewer than ``block_size`` tokens
        remain, it takes the child whose first block has the longest
        matching head (the first in insertion order on a tie), counts
        that head and stops there. Blocks in the returned match have
        their ref counts incremented (the caller owns a reference until
        :meth:`release_blocks` / sequence release) and are bumped to
        most-recently-used.
        """
        self._clock += 1
        clock, bs, ref_count = self._clock, self.block_size, self.ref_count
        node = self._root
        matched = 0
        blocks: list[int] = []
        nodes: list[RadixNode] = []
        n = len(tokens)
        while matched < n:
            child = node.children.get(tuple(tokens[matched : matched + bs])) if n - matched >= bs else None
            full = take = 0  # blocks matched whole, then the matching head of the next one
            if child is None:
                limit = min(bs, n - matched)
                for sibling in node.children.values():
                    k = _head_len(sibling.tokens, 0, tokens, matched, limit)
                    if k > take:
                        child, take = sibling, k
                if child is None:
                    break
            else:
                run = child.tokens
                full = len(child.block_ids)
                if tokens[matched : matched + len(run)] != run:
                    full = 1
                    while tokens[matched + full * bs : matched + (full + 1) * bs] == run[full * bs : (full + 1) * bs]:
                        full += 1
                    pos = matched + full * bs
                    take = _head_len(run, full * bs, tokens, pos, min(bs, n - pos))
            pinned = child.block_ids[: full + (take > 0)]
            for bid in pinned:
                ref_count[bid] += 1
            child.last_used[: len(pinned)] = [clock] * len(pinned)
            blocks.extend(pinned)
            nodes.append(child)
            matched += full * bs + take
            if full < len(child.block_ids):
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
        keep_blocks = -(-use // self.block_size)
        self._release_blocks(m.blocks[keep_blocks:])
        table = BlockTable(seq_id=seq_id, blocks=m.blocks[:keep_blocks], total_tokens=use)
        st = self._seqs[seq_id] = _SeqState(tokens=list(prompt_tokens[:use]), cursor=self._root)
        st.depth = use // self.block_size
        if st.depth:
            node = next(node for node in reversed(m.nodes) if node.start < st.depth)
            st.cursor, st.stamp = node, node.stamps[st.depth - 1 - node.start]
        return table

    # ------------------------------------------------------------------
    # Reserving and writing K/V
    # ------------------------------------------------------------------

    def commit_tokens(self, table: BlockTable, new_tokens: list[int], cacheable: bool = True) -> BlockTable:
        """Reserve K/V rows for ``new_tokens`` at the end of the sequence.

        Records the tokens and gives them blocks, but writes no K/V:
        fill the reserved rows through :meth:`kv_slots`. The
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

    def kv_slots(self, spans) -> np.ndarray:
        """The pool rows of sequence positions ``start .. start + n - 1``
        for each (table, start, n) of ``spans``, in order, as int64 indices
        into the second axis of ``key_rows`` and ``value_rows`` (block id
        times the block size, plus the offset). One block id names the
        same rows in every layer, so a chunk computes its slots once and
        writes every layer's new K/V with one scatter per pool.

        Write only rows that the latest :meth:`commit_tokens` or
        :meth:`append_run` reserved: no other sequence has read their
        blocks yet. Rewriting a shared prefix would change it under its
        other readers.

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

    def keep_path(self, table: BlockTable, start: int, path: list[int]) -> None:
        """Roll the speculative tokens from ``start`` on back to the
        accepted ``path``: positions ``start + path[j]`` move to ``start +
        j``, K/V rows included, and the rest are dropped.

        Every layer's rows of the path are read first, with one gather per
        pool. The sequence is then truncated to ``start``, the path's
        tokens are committed as cacheable, and the rows are scattered to
        their new slots. The commit may take back the blocks the
        truncation freed, so a new slot can be the old slot of a later row
        of the path, which a row-by-row copy would overwrite before
        reading it.
        """
        old = self.kv_slots([(table, start + j, 1) for j in path])
        keys, values = self.key_rows[:, old], self.value_rows[:, old]
        tokens = self._seqs[table.seq_id].tokens
        kept = [tokens[start + j] for j in path]
        self.truncate_tokens(table, start)
        self.commit_tokens(table, kept, cacheable=True)
        new = self.kv_slots([(table, start, len(path))])
        self.key_rows[:, new] = keys
        self.value_rows[:, new] = values

    def truncate_tokens(self, table: BlockTable, keep_total: int) -> None:
        """Drop the sequence's trailing tokens (speculative rollback):
        release the blocks past ``keep_total``; the last kept block
        merely shrinks from this sequence's point of view.
        """
        st = self._seqs[table.seq_id]
        if keep_total < 0 or keep_total > table.total_tokens:
            raise ValueError(
                f"sequence {table.seq_id!r}: keep_total {keep_total} out of range;"
                f" it has {table.total_tokens} committed tokens"
            )
        cached = st.depth * self.block_size
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

        Only blocks without a cached child (the tail of a childless
        edge) whose blocks carry no sequence references are removed,
        oldest ``last_used`` first, then lowest block id; the block above
        one that goes joins the candidates in the same pass when it is
        left without a child and unreferenced. Returns the number of
        blocks actually freed (may be short).
        """
        if needed < 1:
            raise ValueError("needed must be >= 1")
        node_of, ref_count, bs = self._node_of, self.ref_count, self.block_size
        freed = 0
        while freed < needed and self._lru:
            last_used, bid = heapq.heappop(self._lru)
            node = node_of.get(bid)
            if node is None or node.children or node.block_ids[-1] != bid or node.last_used[-1] != last_used:
                continue  # stale: gone, below a child, or touched since
            if ref_count[bid]:
                continue
            del node_of[bid]
            self._free.append(bid)
            freed += 1
            node.block_ids.pop()
            node.last_used.pop()
            node.stamps.pop()
            if node.block_ids:
                del node.tokens[-bs:]
            else:
                node.alive = False
                del node.parent.children[tuple(node.tokens)]
                node = node.parent
            if node is not self._root and not node.children and ref_count[node.block_ids[-1]] == 0:
                self._push_evictable(node)
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
            out.update(node.block_ids)
            stack.extend(node.children.values())
        return out

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _release_blocks(self, bids) -> None:
        """Drop one reference to each block of ``bids``, in order: a block
        left unreferenced returns to the free list, or becomes evictable
        when it is a cached block without a cached child."""
        ref_count, node_of, free = self.ref_count, self._node_of, self._free
        for bid in bids:
            count = ref_count[bid] = ref_count[bid] - 1
            if count <= 0:
                assert count == 0, "ref count underflow"
                node = node_of.get(bid)
                if node is None:
                    free.append(bid)
                elif not node.children and node.block_ids[-1] == bid:
                    self._push_evictable(node)

    def _push_evictable(self, node: RadixNode) -> None:
        heapq.heappush(self._lru, (node.last_used[-1], node.block_ids[-1]))
        if len(self._lru) > 2 * len(self._node_of) + 64:
            # Mostly stale entries: rebuild from the evictable blocks.
            self._lru = [
                (n.last_used[-1], bid)
                for bid, n in self._node_of.items()
                if bid == n.block_ids[-1] and not n.children and self.ref_count[bid] == 0
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
        """Cache the sequence's last block, just filled, below its cursor:
        chain the cursor on when the tree holds the same content there
        (keeping this sequence's own copy: no aliasing of committed data),
        else add the block, growing the cursor's edge in place when the
        cursor ends an edge without children, splitting the edge when the
        cursor is inside it. A block not at the cursor's next depth is
        not cached; a dead cursor stops caching."""
        if not st.caching_ok:
            return
        node = self._cursor_node(st)
        if node is None:
            st.caching_ok = False
            return
        depth = st.depth
        if depth != len(table.blocks) - 1:
            return
        bs = self.block_size
        key = st.tokens[depth * bs : (depth + 1) * bs]
        i = depth - node.start  # the next block's place in the cursor's edge
        if i < len(node.block_ids):
            if node.tokens[i * bs : (i + 1) * bs] == key:
                st.depth, st.stamp = depth + 1, node.stamps[i]
                return
        elif node.children:
            child = node.children.get(tuple(key))
            if child is not None:
                st.cursor, st.depth, st.stamp = child, depth + 1, child.stamps[0]
                return
        if self.cache_cap_blocks == 0:
            st.caching_ok = False
            return
        # Eviction pops tail blocks, and may pop the cursor's own when
        # another sequence cached it; then there is nothing to attach to.
        if len(self._node_of) >= self.cache_cap_blocks and (self.evict(1) == 0 or len(node.block_ids) < i):
            st.caching_ok = False
            return
        self._clock += 1
        if i < len(node.block_ids):
            node = self._split(node, i)
        if node is self._root or node.children:
            new = RadixNode([], [], [], [], parent=node, start=depth)
            node.children[tuple(key)] = new
            node = new
        node.tokens.extend(key)
        node.block_ids.append(bid)
        node.last_used.append(self._clock)
        node.stamps.append(self._clock)
        self._node_of[bid] = node
        st.cursor, st.depth, st.stamp = node, depth + 1, self._clock

    def _cursor_node(self, st: _SeqState) -> RadixNode | None:
        """The node holding the cursor's block, or None once that block
        has left the tree. A split moves the block into a node above
        ``st.cursor``, so the walk goes up; it moves ``st.cursor`` there."""
        node, index = st.cursor, st.depth - 1
        if index < 0:
            return node
        while node.start > index:
            node = node.parent
        i = index - node.start
        if i < len(node.stamps) and node.stamps[i] == st.stamp:
            st.cursor = node
            return node
        return None

    def _split(self, node: RadixNode, i: int) -> RadixNode:
        """Move the first ``i`` blocks of ``node`` into a new node that
        takes its place below its parent (same key, same place among the
        siblings) and has ``node`` as its one child; return the new node.
        ``node`` keeps its tail, so its eviction entries stay valid."""
        bs, cut = self.block_size, i * self.block_size
        head = RadixNode(
            node.tokens[:cut], node.block_ids[:i], node.last_used[:i], node.stamps[:i], node.parent, node.start
        )
        node.parent.children[tuple(node.tokens[:bs])] = head
        del node.tokens[:cut], node.block_ids[:i], node.last_used[:i], node.stamps[:i]
        node.parent, node.start = head, node.start + i
        head.children[tuple(node.tokens[:bs])] = node
        for bid in head.block_ids:
            self._node_of[bid] = head
        return head


def _head_len(a: list[int], i: int, b: list[int], j: int, limit: int) -> int:
    """How many of the first ``limit`` tokens of ``a[i:]`` and ``b[j:]`` agree."""
    k = 0
    while k < limit and a[i + k] == b[j + k]:
        k += 1
    return k
