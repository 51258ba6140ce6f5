//! Out-of-core B+tree over a [`BlockFile`], cross-validated against the
//! in-memory [`BPlusTree`].
//!
//! A [`PagedTree`] is materialized from a pristine `BPlusTree` so that
//! **node ids, simulated addresses and mutation behaviour are identical**
//! to the simulator's: ids are assigned in the same order, the arena is
//! replayed allocation-for-allocation (so `NodeInfo.addr`/`bytes` match
//! byte-for-byte, which keeps descriptor and tuner decisions aligned),
//! and both trees run the *same* split / merge / borrow / bound-refresh
//! code — [`metal_index::nodestore`], generic over a [`NodeStore`]. This
//! file holds no tree arithmetic: it is the paged `NodeStore`, the flush
//! that ends a mutation, the read path and the directory. What the
//! backend-equivalence suite and the native fuzz arm guard here is
//! storage — frames, flush, hot map, stage, tombstones, free list.
//!
//! Node contents live in block-file extents; the only per-node state held
//! in memory is a small placement record (`NodeMeta`). A *hot map*
//! mirrors the IX-cache's admissions with deserialized nodes so a cache
//! hit resolves its node pointer without touching the page layer — the
//! "software fast path" the native backend measures. Nodes merged away
//! have their extents returned to the free list; their emptied contents
//! survive as in-memory tombstones so a racing cached pointer resolves
//! exactly as it does in the simulator (which keeps dead nodes in its
//! node vector).
//!
//! A mutation works on a **frame set**: each node it touches is decoded
//! once, on first touch, into a frame; `get_mut` marks the frame dirty;
//! when the operation ends every dirty frame is encoded and written
//! exactly once (a dead one becomes a tombstone instead) and the set is
//! dropped. Frames exist only inside `insert_key` / `delete_key` — the
//! read path never consults them — and an operation that fails before
//! its flush has written nothing to the block file.

use super::blockfile::{BlockFile, BlockFileError, Result};
use super::codec::PagedNode;
use metal_index::bpnode::Reader;
use metal_index::bptree::{BPlusTree, MutationReport, TreeShape};
use metal_index::nodestore::{self, NodeStore};
use metal_index::walk::Descend;
use metal_index::{Arena, NodeId, NodeInfo, WalkIndex};
use metal_sim::types::{Addr, Key};
use std::collections::HashMap;

/// Capacity of the prefetch stage (decoded nodes scouts read ahead of
/// demand). Bounds scout memory; overflowing prefetches are dropped,
/// never evicting — the stage is a hint layer, not a cache with a
/// policy of its own.
const STAGE_CAP: usize = 4096;

/// Issues a best-effort CPU prefetch hint for the cache line at `p`
/// (no-op on architectures without a stable intrinsic). Used for nodes
/// already decoded in memory, where the remaining latency to hide is
/// the cache miss on the node's key array.
#[inline]
fn prefetch_hint<T>(p: *const T) {
    #[cfg(target_arch = "x86_64")]
    unsafe {
        use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch::<_MM_HINT_T0>(p as *const i8);
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}

/// Directory-blob version tag.
const DIR_VERSION: u32 = 1;

/// `NodeMeta::page` of a node with no extent: a tombstone, or a node
/// allocated by the mutation in flight and not flushed yet.
const NO_PAGE: u64 = u64::MAX;

/// In-memory placement record of one node (its arena slot is its id).
#[derive(Debug, Clone, Copy)]
struct NodeMeta {
    /// Head page of the node's extent ([`NO_PAGE`] when `dead`).
    page: u64,
    /// True once the node was merged away: its extent is freed and its
    /// emptied contents live in the tombstone map.
    dead: bool,
}

/// One node of the mutation in flight, decoded.
#[derive(Debug)]
struct Frame {
    id: NodeId,
    node: PagedNode,
    /// Handed out through `get_mut` (or freshly allocated): written at
    /// flush.
    dirty: bool,
}

/// Page-layer access counters for one tree.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TreeIoStats {
    /// Node reads served from the hot map (no page touched).
    pub hot_hits: u64,
    /// Node reads that deserialized from the page layer.
    pub cold_reads: u64,
    /// Node reads served from the prefetch stage (an MLP scout already
    /// paid the page read; the demand read found the node decoded).
    pub staged_hits: u64,
    /// Nodes read ahead of demand into the prefetch stage by
    /// [`PagedTree::prefetch_node`].
    pub prefetched: u64,
    /// Node writes (serialize + page write): one per node a mutation's
    /// flush wrote, a new node's first extent included.
    pub node_writes: u64,
    /// Wall nanoseconds spent loading pages from the block file (demand
    /// cold reads and scout prefetches both count) — the native
    /// analogue of the simulator's DRAM-stall cycles.
    pub page_read_ns: u64,
    /// Wall nanoseconds spent deserializing loaded pages into nodes.
    pub decode_ns: u64,
}

/// Nanoseconds elapsed since `t0`, saturating. One clock read — cheap
/// enough for per-phase scopes, so timers wrap whole page loads and
/// decodes, never inner loops.
pub(crate) fn ns_since(t0: std::time::Instant) -> u64 {
    t0.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64
}

/// A B+tree whose nodes live in page-aligned block-file extents.
///
/// # Example
///
/// Materialize an in-memory tree and walk it out of core — the paged
/// walk visits the same node ids the simulator's walk would:
///
/// ```
/// use metal_index::bptree::BPlusTree;
/// use metal_index::walk::Descend;
/// use metal_sim::types::Addr;
///
/// let keys: Vec<u64> = (0..500).map(|k| k * 2).collect();
/// let tree = BPlusTree::bulk_load(&keys, 8, Addr::new(0x1000), 64);
/// let mut paged = metal_core::native::materialize_tree(&tree).unwrap();
///
/// let (path, leaf) = paged.path_from(paged.root(), 42).unwrap();
/// assert!(matches!(leaf, Descend::Leaf { found: true, .. }));
/// assert_eq!(path.len(), paged.depth() as usize, "root-to-leaf path");
/// assert!(paged.file_stats().pages_read > 0, "the walk came off pages");
///
/// // Mutations restructure the paged tree exactly like the in-memory
/// // original (the report carries splits/merges and stale spans).
/// let report = paged.insert_key(43).unwrap();
/// assert!(report.applied);
/// ```
#[derive(Debug)]
pub struct PagedTree {
    file: BlockFile,
    meta: Vec<NodeMeta>,
    /// Replica of the simulator's bump allocator: same allocations in
    /// the same order, so simulated addresses and byte sizes match.
    arena: Arena,
    shape: TreeShape,
    /// First node id allocated past the value heap (persisted so the
    /// arena replay stays exact across reopen).
    mut_boundary: Option<NodeId>,
    /// Deserialized nodes mirroring current IX-cache residents.
    hot: HashMap<NodeId, PagedNode>,
    /// Nodes MLP scouts read ahead of demand ([`STAGE_CAP`]-bounded).
    /// Cleared wholesale when a mutation flushes — the cheap, obviously
    /// correct staleness guard (see `native::backend` module docs).
    stage: HashMap<NodeId, PagedNode>,
    /// Emptied contents of merged-away nodes (extent freed).
    tombstones: HashMap<NodeId, PagedNode>,
    /// The mutation in flight's nodes, in first-touch order (the order
    /// the flush writes them in); empty between operations.
    frames: Vec<Frame>,
    io: TreeIoStats,
}

/// A node a walk fetched, with the decoded contents still in hand.
pub type FetchedNode = (NodeId, NodeInfo, PagedNode);

impl PagedTree {
    /// Materializes `tree` into `file`, node by node in id order. The
    /// tree must be the pristine (pre-mutation) experiment index — the
    /// same starting point the simulator clones before replaying writes.
    pub fn materialize(tree: &BPlusTree, mut file: BlockFile) -> Result<Self> {
        let shape = tree.shape();
        let mut arena = Arena::new(shape.arena_base);
        let mut meta = Vec::with_capacity(tree.node_count());
        let mut tombstones = HashMap::new();
        let mut mut_boundary = None;
        for id in 0..tree.node_count() as NodeId {
            let info = tree.node(id);
            if shape.mut_ready && mut_boundary.is_none() && info.addr.get() >= shape.value_heap_end
            {
                arena.skip_to(Addr::new(shape.value_heap_end));
                mut_boundary = Some(id);
            }
            let slot = arena.alloc(info.bytes);
            debug_assert_eq!(
                (slot, arena.addr(slot)),
                (id as usize, info.addr),
                "arena replay diverged at node {id}"
            );
            let node = tree.export_node(id);
            let dead = node.dead;
            let page = if dead {
                tombstones.insert(id, node);
                NO_PAGE
            } else {
                file.store(&node.encode())?
            };
            meta.push(NodeMeta { page, dead });
        }
        Ok(PagedTree {
            file,
            meta,
            arena,
            shape,
            mut_boundary,
            hot: HashMap::new(),
            stage: HashMap::new(),
            tombstones,
            frames: Vec::new(),
            io: TreeIoStats::default(),
        })
    }

    /// Writes the tree directory (scalars, per-node placements,
    /// tombstones) into the file and records it in the superblock, so
    /// [`PagedTree::reopen`] can rebuild this tree. The previous
    /// directory's extent is freed only once the superblock names the
    /// new one: a failed write leaves the old directory in force.
    pub fn persist(&mut self) -> Result<()> {
        let sh = &self.shape;
        let mut blob = Vec::new();
        blob.extend_from_slice(&DIR_VERSION.to_le_bytes());
        blob.extend_from_slice(&sh.root.to_le_bytes());
        blob.push(sh.depth);
        blob.push(sh.mut_ready as u8);
        blob.extend_from_slice(&(sh.leaf_cap as u64).to_le_bytes());
        blob.extend_from_slice(&(sh.fanout as u64).to_le_bytes());
        blob.extend_from_slice(&sh.n_keys.to_le_bytes());
        blob.extend_from_slice(&sh.next_rank.to_le_bytes());
        blob.extend_from_slice(&sh.arena_base.get().to_le_bytes());
        blob.extend_from_slice(&sh.data_base.get().to_le_bytes());
        blob.extend_from_slice(&sh.record_bytes.to_le_bytes());
        blob.extend_from_slice(&sh.value_heap_end.to_le_bytes());
        blob.extend_from_slice(&self.mut_boundary.unwrap_or(NodeId::MAX).to_le_bytes());
        blob.extend_from_slice(&(self.meta.len() as u32).to_le_bytes());
        for (id, m) in self.meta.iter().enumerate() {
            blob.extend_from_slice(&m.page.to_le_bytes());
            blob.extend_from_slice(&self.arena.bytes(id).to_le_bytes());
            blob.push(m.dead as u8);
        }
        blob.extend_from_slice(&(self.tombstones.len() as u32).to_le_bytes());
        let mut ids: Vec<&NodeId> = self.tombstones.keys().collect();
        ids.sort();
        for id in ids {
            let enc = self.tombstones[id].encode();
            blob.extend_from_slice(&id.to_le_bytes());
            blob.extend_from_slice(&(enc.len() as u32).to_le_bytes());
            blob.extend_from_slice(&enc);
        }
        let old = self.file.root()?;
        let page = self.file.store(&blob)?;
        self.file.set_root(page)?;
        match old {
            Some(old) => self.file.free_extent(old),
            None => Ok(()),
        }
    }

    /// Rebuilds a persisted tree from `file` (see [`PagedTree::persist`]).
    /// The directory is cross-checked before it is trusted: a root out of
    /// range, or dead flags and tombstones that disagree, fail the open.
    pub fn reopen(mut file: BlockFile) -> Result<Self> {
        let page = file.root()?.ok_or_else(|| {
            BlockFileError::new(format!(
                "{}: no tree directory recorded (file was never persisted)",
                file.path().display()
            ))
        })?;
        let blob = file.load(page)?;
        let bad = |what: String| {
            BlockFileError::new(format!(
                "{}: malformed tree directory: {what}",
                file.path().display()
            ))
        };
        // Scalars are read in blob order (struct literals evaluate their
        // fields as written).
        let mut r = Reader::new(&blob);
        if r.u32().map_err(bad)? != DIR_VERSION {
            return Err(bad("unknown directory version".into()));
        }
        let root = r.u32().map_err(bad)?;
        let depth = r.u8().map_err(bad)?;
        let mut_ready = r.u8().map_err(bad)? != 0;
        let shape = TreeShape {
            root,
            depth,
            mut_ready,
            leaf_cap: r.u64().map_err(bad)? as usize,
            fanout: r.u64().map_err(bad)? as usize,
            n_keys: r.u64().map_err(bad)?,
            next_rank: r.u64().map_err(bad)?,
            arena_base: Addr::new(r.u64().map_err(bad)?),
            data_base: Addr::new(r.u64().map_err(bad)?),
            record_bytes: r.u64().map_err(bad)?,
            value_heap_end: r.u64().map_err(bad)?,
        };
        let boundary = r.u32().map_err(bad)?;
        let mut_boundary = (boundary != NodeId::MAX).then_some(boundary);
        let n_nodes = r.u32().map_err(bad)?;
        if root >= n_nodes {
            return Err(bad(format!("root {root} out of range ({n_nodes} nodes)")));
        }
        let mut arena = Arena::new(shape.arena_base);
        // Each record is 17 bytes: a count the blob cannot hold must not
        // size an allocation.
        let mut meta = Vec::with_capacity((n_nodes as usize).min(blob.len() / 17));
        for id in 0..n_nodes {
            let page = r.u64().map_err(bad)?;
            let bytes = r.u64().map_err(bad)?;
            let dead = r.u8().map_err(bad)? != 0;
            if mut_boundary == Some(id) {
                arena.skip_to(Addr::new(shape.value_heap_end));
            }
            arena.alloc(bytes);
            meta.push(NodeMeta { page, dead });
        }
        let n_tomb = r.u32().map_err(bad)? as usize;
        let mut tombstones = HashMap::new();
        for _ in 0..n_tomb {
            let id = r.u32().map_err(bad)?;
            let len = r.u32().map_err(bad)? as usize;
            let node = PagedNode::decode(r.take(len).map_err(bad)?)
                .map_err(|e| bad(format!("tombstone of node {id}: {e}")))?;
            if !meta.get(id as usize).is_some_and(|m| m.dead) {
                return Err(bad(format!("tombstone for node {id}, which is not dead")));
            }
            if tombstones.insert(id, node).is_some() {
                return Err(bad(format!("two tombstones for node {id}")));
            }
        }
        let n_dead = meta.iter().filter(|m| m.dead).count();
        if n_dead != tombstones.len() {
            return Err(bad(format!(
                "{n_dead} dead nodes but {} tombstones",
                tombstones.len()
            )));
        }
        Ok(PagedTree {
            file,
            meta,
            arena,
            shape,
            mut_boundary,
            hot: HashMap::new(),
            stage: HashMap::new(),
            tombstones,
            frames: Vec::new(),
            io: TreeIoStats::default(),
        })
    }

    /// Root node id.
    pub fn root(&self) -> NodeId {
        self.shape.root
    }

    /// Number of levels.
    pub fn depth(&self) -> u8 {
        self.shape.depth
    }

    /// Number of keys indexed.
    pub fn len(&self) -> u64 {
        self.shape.n_keys
    }

    /// Whether the tree indexes no keys.
    pub fn is_empty(&self) -> bool {
        self.shape.n_keys == 0
    }

    /// Total nodes ever created (dead ones included; ids are positional).
    pub fn node_count(&self) -> usize {
        self.meta.len()
    }

    /// Page-layer access counters.
    pub fn io_stats(&self) -> TreeIoStats {
        self.io
    }

    /// Block-file I/O counters.
    pub fn file_stats(&self) -> super::blockfile::BlockStats {
        self.file.stats()
    }

    /// Modeled byte size of node `id` (from the arena replica; no page
    /// read).
    pub fn node_bytes(&self, id: NodeId) -> u64 {
        self.arena.bytes(id as usize)
    }

    /// Modeled DRAM blocks the tree's nodes occupy (matches the
    /// simulator's `index_blocks` accounting).
    pub fn total_blocks(&self) -> u64 {
        self.arena.total_blocks()
    }

    /// Pages in the backing block file.
    pub fn page_count(&self) -> u64 {
        self.file.page_count()
    }

    /// Pages currently on the free list.
    pub fn free_pages(&self) -> u64 {
        self.file.free_pages()
    }

    /// Consumes the tree, returning its block file (e.g. to persist and
    /// reopen it).
    pub fn into_file(self) -> BlockFile {
        self.file
    }

    /// Reads node `id`: from the hot map when the IX-cache keeps it
    /// resident, from the prefetch stage when an MLP scout read it
    /// ahead of demand, from its tombstone when merged away, else
    /// deserialized from the page layer.
    pub fn read_node(&mut self, id: NodeId) -> Result<PagedNode> {
        if let Some(n) = self.hot.get(&id) {
            self.io.hot_hits += 1;
            return Ok(n.clone());
        }
        if let Some(n) = self.stage.get(&id) {
            self.io.staged_hits += 1;
            return Ok(n.clone());
        }
        let m = self.meta.get(id as usize).copied().ok_or_else(|| {
            BlockFileError::new(format!(
                "node {id} out of range (tree has {})",
                self.meta.len()
            ))
        })?;
        if m.dead {
            self.io.hot_hits += 1;
            return self.tombstones.get(&id).cloned().ok_or_else(|| {
                BlockFileError::new(format!(
                    "{}: node {id} is dead but has no tombstone",
                    self.file.path().display()
                ))
            });
        }
        let t0 = std::time::Instant::now();
        let payload = self.file.load(m.page)?;
        self.io.page_read_ns += ns_since(t0);
        let t0 = std::time::Instant::now();
        let node = PagedNode::decode(&payload).map_err(|e| {
            BlockFileError::new(format!(
                "{}: node {id} (page {}): {e}",
                self.file.path().display(),
                m.page
            ))
        })?;
        self.io.decode_ns += ns_since(t0);
        self.io.cold_reads += 1;
        Ok(node)
    }

    /// [`NodeInfo`] for a node already in hand (placement from the arena
    /// replica, the rest from the node itself).
    pub fn info_of(&self, id: NodeId, node: &PagedNode) -> NodeInfo {
        node.info(&self.arena, id)
    }

    /// Searches `node` for `key` exactly as `BPlusTree::descend` does.
    pub fn descend_in(&self, node: &PagedNode, key: Key) -> Descend {
        node.descend(key, &self.shape)
    }

    /// The root-to-leaf node path for `key` starting at `from`, with the
    /// terminal leaf outcome — the paged mirror of the design model's
    /// `path_from`.
    pub fn path_from(
        &mut self,
        from: NodeId,
        key: Key,
    ) -> Result<(Vec<(NodeId, NodeInfo)>, Descend)> {
        self.path_with(from, key, |id, info, _| (id, info))
    }

    /// [`PagedTree::path_from`] that also hands back each node's decoded
    /// contents, for a caller about to [`PagedTree::admit_hot_node`]
    /// them.
    pub fn path_nodes_from(
        &mut self,
        from: NodeId,
        key: Key,
    ) -> Result<(Vec<FetchedNode>, Descend)> {
        self.path_with(from, key, |id, info, node| (id, info, node))
    }

    #[inline]
    fn path_with<T>(
        &mut self,
        from: NodeId,
        key: Key,
        keep: impl Fn(NodeId, NodeInfo, PagedNode) -> T,
    ) -> Result<(Vec<T>, Descend)> {
        let mut path = Vec::with_capacity(self.shape.depth as usize);
        let mut id = from;
        loop {
            let node = self.read_node(id)?;
            let info = self.info_of(id, &node);
            let step = self.descend_in(&node, key);
            path.push(keep(id, info, node));
            match step {
                Descend::Child(c) => id = c,
                leaf @ Descend::Leaf { .. } => return Ok((path, leaf)),
            }
        }
    }

    /// The extra leaves a range scan visits after landing on `first`.
    pub fn scan_chain(&mut self, first: NodeId, hops: u32) -> Result<Vec<(NodeId, NodeInfo)>> {
        self.chain_with(first, hops, |id, info, _| (id, info))
    }

    /// [`PagedTree::scan_chain`] that also hands back each leaf's
    /// decoded contents (see [`PagedTree::path_nodes_from`]).
    pub fn scan_chain_nodes(&mut self, first: NodeId, hops: u32) -> Result<Vec<FetchedNode>> {
        self.chain_with(first, hops, |id, info, node| (id, info, node))
    }

    #[inline]
    fn chain_with<T>(
        &mut self,
        first: NodeId,
        hops: u32,
        keep: impl Fn(NodeId, NodeInfo, PagedNode) -> T,
    ) -> Result<Vec<T>> {
        let mut out = Vec::with_capacity(hops as usize);
        let mut cur = first;
        for _ in 0..hops {
            let node = self.read_node(cur)?;
            match node.next_leaf() {
                Some(n) => {
                    let nn = self.read_node(n)?;
                    out.push(keep(n, self.info_of(n, &nn), nn));
                    cur = n;
                }
                None => break,
            }
        }
        Ok(out)
    }

    /// Mirrors the IX-cache's resident set into the hot map: `id` is now
    /// cached, so keep its deserialized node on the fast path.
    pub fn admit_hot(&mut self, id: NodeId) -> Result<()> {
        if !self.hot.contains_key(&id) {
            let n = self.read_node(id)?;
            self.hot.insert(id, n);
        }
        Ok(())
    }

    /// [`PagedTree::admit_hot`] for a caller that still holds the `node`
    /// a [`PagedTree::read_node`] of `id` returned, with no write to the
    /// tree since: saves reading and decoding the page a second time.
    pub fn admit_hot_node(&mut self, id: NodeId, node: PagedNode) {
        self.hot.entry(id).or_insert(node);
    }

    /// Drops hot nodes the IX-cache no longer references.
    pub fn retain_hot(&mut self, keep: impl Fn(NodeId) -> bool) {
        self.hot.retain(|&id, _| keep(id));
    }

    /// Number of nodes currently on the hot fast path.
    pub fn hot_len(&self) -> usize {
        self.hot.len()
    }

    /// Reads node `id` ahead of demand on behalf of an MLP scout.
    ///
    /// Already-decoded nodes (hot map, stage, tombstones) get a CPU
    /// prefetch hint on their in-memory contents; everything else is
    /// read through [`BlockFile::prefetch`], decoded once, and staged
    /// so the demand read that follows is page-free. The stage is
    /// capacity-bounded (`STAGE_CAP`, 4096 nodes); overflowing prefetches are
    /// dropped silently. Prefetching is a pure performance hint: it
    /// never changes what any later [`PagedTree::read_node`] returns.
    ///
    /// # Example
    ///
    /// ```
    /// use metal_index::bptree::BPlusTree;
    /// use metal_sim::types::Addr;
    ///
    /// let keys: Vec<u64> = (0..200).map(|k| k * 2).collect();
    /// let tree = BPlusTree::bulk_load(&keys, 8, Addr::new(0), 16);
    /// let mut paged = metal_core::native::materialize_tree(&tree).unwrap();
    /// paged.prefetch_node(paged.root()).unwrap();
    /// let before = paged.io_stats();
    /// let _ = paged.read_node(paged.root()).unwrap();
    /// let after = paged.io_stats();
    /// assert_eq!(after.staged_hits, before.staged_hits + 1);
    /// assert_eq!(after.cold_reads, before.cold_reads, "no demand page read");
    /// ```
    pub fn prefetch_node(&mut self, id: NodeId) -> Result<()> {
        if let Some(n) = self.hot.get(&id) {
            prefetch_hint(n as *const PagedNode);
            return Ok(());
        }
        if let Some(n) = self.stage.get(&id) {
            prefetch_hint(n as *const PagedNode);
            return Ok(());
        }
        if let Some(n) = self.tombstones.get(&id) {
            prefetch_hint(n as *const PagedNode);
            return Ok(());
        }
        if self.stage.len() >= STAGE_CAP {
            return Ok(());
        }
        let m = self.meta.get(id as usize).copied().ok_or_else(|| {
            BlockFileError::new(format!(
                "prefetch of node {id} out of range (tree has {})",
                self.meta.len()
            ))
        })?;
        let t0 = std::time::Instant::now();
        let payload = self.file.prefetch(m.page)?;
        self.io.page_read_ns += ns_since(t0);
        let t0 = std::time::Instant::now();
        let node = PagedNode::decode(&payload).map_err(|e| {
            BlockFileError::new(format!(
                "{}: prefetched node {id} (page {}): {e}",
                self.file.path().display(),
                m.page
            ))
        })?;
        self.io.decode_ns += ns_since(t0);
        self.io.prefetched += 1;
        self.stage.insert(id, node);
        Ok(())
    }

    /// Contents of node `id` if resident on a zero-I/O path (hot map,
    /// prefetch stage or tombstone), else `None`. Scouts descend
    /// through this so their speculative walk touches no page and
    /// bumps no demand counter.
    pub fn peek_node(&self, id: NodeId) -> Option<&PagedNode> {
        self.hot
            .get(&id)
            .or_else(|| self.stage.get(&id))
            .or_else(|| self.tombstones.get(&id))
    }

    /// Drops every staged prefetch (mutations do this implicitly; the
    /// backend also calls it when a shard's scout window resets).
    pub fn clear_stage(&mut self) {
        self.stage.clear();
    }

    /// Number of nodes currently staged by prefetches.
    pub fn staged_len(&self) -> usize {
        self.stage.len()
    }

    /// Inserts `key`, splitting overflowing nodes up the walk path:
    /// [`nodestore::insert_key`] over this tree's frame set, then one
    /// flush. The [`MutationReport`] equals the in-memory tree's.
    ///
    /// On `Err` nothing of the failed operation has reached the block
    /// file unless the flush itself failed; the in-memory directory may
    /// have advanced (key count, slots of nodes the operation allocated),
    /// so drop the tree and [`PagedTree::reopen`] the file to continue.
    pub fn insert_key(&mut self, key: Key) -> Result<MutationReport> {
        let report = nodestore::insert_key(self, key);
        self.finish(report)
    }

    /// Deletes `key`, rebalancing or merging underflowing nodes up the
    /// walk path ([`nodestore::delete_key`]; see
    /// [`PagedTree::insert_key`] for the failure contract).
    pub fn delete_key(&mut self, key: Key) -> Result<MutationReport> {
        let report = nodestore::delete_key(self, key);
        self.finish(report)
    }

    /// Flushes the frames of a mutation that succeeded, drops those of
    /// one that failed.
    fn finish(&mut self, report: Result<MutationReport>) -> Result<MutationReport> {
        if report.is_ok() {
            self.flush()?;
        }
        self.frames.clear();
        report
    }

    /// Ends a mutation: every dirty frame is written once, in first-touch
    /// order — a node that outgrew its extent relocates, a new node gets
    /// its first extent, a dead one gives its extent back and becomes a
    /// tombstone — and resident hot copies are replaced. Any write
    /// invalidates the prefetch stage wholesale: staged nodes were
    /// decoded pre-mutation and must never shadow the page layer's
    /// current contents. (The hot map is updated in place instead — it
    /// mirrors cache residency, not a hint.)
    fn flush(&mut self) -> Result<()> {
        if self.frames.iter().any(|f| f.dirty) {
            self.stage.clear();
        }
        for Frame { id, node, dirty } in self.frames.drain(..) {
            if !dirty {
                continue;
            }
            let m = &mut self.meta[id as usize];
            if node.dead {
                self.file.free_extent(m.page)?;
                *m = NodeMeta {
                    page: NO_PAGE,
                    dead: true,
                };
                self.hot.remove(&id);
                self.tombstones.insert(id, node);
                continue;
            }
            let bytes = node.encode();
            m.page = match m.page {
                NO_PAGE => self.file.store(&bytes)?,
                page => self.file.update(page, &bytes)?,
            };
            self.io.node_writes += 1;
            if let Some(hot) = self.hot.get_mut(&id) {
                *hot = node;
            }
        }
        Ok(())
    }

    /// Index into `frames` of node `id`, decoding it through the read
    /// path on first touch.
    fn frame(&mut self, id: NodeId) -> Result<usize> {
        if let Some(at) = self.frames.iter().position(|f| f.id == id) {
            return Ok(at);
        }
        let node = self.read_node(id)?;
        self.frames.push(Frame {
            id,
            node,
            dirty: false,
        });
        Ok(self.frames.len() - 1)
    }
}

/// The paged store: a node is decoded into the mutation's frame set on
/// first touch and written back, once, when the mutation ends.
impl NodeStore for PagedTree {
    type Error = BlockFileError;

    fn shape(&mut self) -> &mut TreeShape {
        &mut self.shape
    }

    fn get(&mut self, id: NodeId) -> Result<&PagedNode> {
        let at = self.frame(id)?;
        Ok(&self.frames[at].node)
    }

    fn get_mut(&mut self, id: NodeId) -> Result<&mut PagedNode> {
        let at = self.frame(id)?;
        let frame = &mut self.frames[at];
        frame.dirty = true;
        Ok(&mut frame.node)
    }

    fn alloc(&mut self, node: PagedNode) -> Result<NodeId> {
        let id = self.meta.len() as NodeId;
        if self.shape.skip_value_heap(&mut self.arena) {
            self.mut_boundary = Some(id);
        }
        let slot = self.arena.alloc(node.model_bytes());
        debug_assert_eq!(slot, id as usize, "slot == id invariant");
        self.meta.push(NodeMeta {
            page: NO_PAGE,
            dead: false,
        });
        self.frames.push(Frame {
            id,
            node,
            dirty: true,
        });
        Ok(id)
    }

    fn node_write(&self, id: NodeId) -> (Addr, u64) {
        (self.arena.addr(id as usize), self.arena.bytes(id as usize))
    }
}

/// Materializes every B+tree index of an experiment into temp block
/// files (the common entry point for the native backend).
pub fn materialize_tree(tree: &BPlusTree) -> Result<PagedTree> {
    PagedTree::materialize(tree, BlockFile::temp()?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use metal_index::WalkIndex;
    use metal_sim::rng::SplitRng;

    fn keys(n: u64, stride: u64) -> Vec<Key> {
        (0..n).map(|i| i * stride).collect()
    }

    fn walk_found(pt: &mut PagedTree, key: Key) -> bool {
        let (_, leaf) = pt.path_from(pt.root(), key).unwrap();
        matches!(leaf, Descend::Leaf { found: true, .. })
    }

    /// Runs the same op storm against the in-memory tree and the paged
    /// tree, asserting identical mutation reports and identical node
    /// views after every op.
    fn storm(seed: u64, ops: usize) {
        let mut rng = SplitRng::stream(seed, 0x9a6e_d1f3);
        let n = 40 + rng.gen_range(0u64..200);
        let stride = 2;
        let ks = keys(n, stride);
        let max_keys = [4usize, 8, 16][rng.gen_range(0usize..3)];
        let mut sim = BPlusTree::bulk_load(&ks, max_keys, Addr::new(0x4000_0000), 16);
        let mut paged = materialize_tree(&sim).unwrap();
        let span = n * stride;
        for op in 0..ops {
            let key = rng.gen_range(0..span + stride);
            match rng.gen_range(0u64..3) {
                0 => {
                    let sim_report = sim.insert_key(key);
                    let paged_report = paged.insert_key(key).unwrap();
                    assert_eq!(sim_report, paged_report, "insert {key} diverged at op {op}");
                }
                1 => {
                    let sim_report = sim.delete_key(key);
                    let paged_report = paged.delete_key(key).unwrap();
                    assert_eq!(sim_report, paged_report, "delete {key} diverged at op {op}");
                }
                _ => {
                    let probe = rng.gen_range(0..span + stride);
                    assert_eq!(
                        sim.contains(probe),
                        walk_found(&mut paged, probe),
                        "lookup {probe} diverged at op {op}"
                    );
                }
            }
        }
        // Full structural equivalence at the end: every node id — dead
        // ones too, as tombstones — holds the same node at the same
        // placement, and every key resolves identically.
        assert_eq!(sim.node_count(), paged.node_count());
        assert_eq!(WalkIndex::depth(&sim), paged.depth());
        for id in 0..sim.node_count() as NodeId {
            let node = paged.read_node(id).unwrap();
            assert_eq!(node, sim.export_node(id), "node {id} diverged");
            let info = paged.info_of(id, &node);
            assert_eq!(WalkIndex::node(&sim, id), info, "node {id} info diverged");
        }
        for k in 0..span + stride {
            assert_eq!(sim.contains(k), walk_found(&mut paged, k), "final key {k}");
        }
    }

    #[test]
    fn materialized_tree_matches_simulator_nodes() {
        let ks = keys(500, 3);
        let sim = BPlusTree::bulk_load(&ks, 8, Addr::new(0x1000), 64);
        let mut paged = materialize_tree(&sim).unwrap();
        assert_eq!(paged.root(), WalkIndex::root(&sim));
        assert_eq!(paged.depth(), WalkIndex::depth(&sim));
        for id in 0..sim.node_count() as NodeId {
            let node = paged.read_node(id).unwrap();
            assert_eq!(
                paged.info_of(id, &node),
                WalkIndex::node(&sim, id),
                "node {id}"
            );
        }
        for &k in &ks {
            assert!(walk_found(&mut paged, k));
            assert!(!walk_found(&mut paged, k + 1));
        }
    }

    #[test]
    fn mutation_storms_match_simulator() {
        for seed in 0..6 {
            storm(seed, 140);
        }
    }

    #[test]
    fn delete_heavy_storm_exercises_merges_and_free_list() {
        let ks = keys(300, 2);
        let mut sim = BPlusTree::bulk_load(&ks, 4, Addr::new(0), 16);
        let mut paged = materialize_tree(&sim).unwrap();
        let mut merges = 0;
        for &k in &ks {
            let a = sim.delete_key(k);
            let b = paged.delete_key(k).unwrap();
            assert_eq!(a, b, "delete {k}");
            merges += a.merges;
        }
        assert!(merges > 0, "storm must exercise merges");
        assert!(
            paged.file_stats().frees > 0,
            "merged-away nodes return extents to the free list"
        );
        for &k in &ks {
            assert!(!walk_found(&mut paged, k));
        }
    }

    #[test]
    fn reopen_and_rewalk_equals_in_memory_walk() {
        let ks = keys(400, 5);
        let mut sim = BPlusTree::bulk_load(&ks, 8, Addr::new(0x2000), 32);
        let path = scratch_file("reopen");
        {
            let file = BlockFile::create(&path).unwrap();
            let mut paged = PagedTree::materialize(&sim, file).unwrap();
            // Mutate both sides before persisting.
            for k in [3u64, 11, 2000, 2001, 777] {
                assert_eq!(sim.insert_key(k), paged.insert_key(k).unwrap());
            }
            for k in [0u64, 5, 10, 15] {
                assert_eq!(sim.delete_key(k), paged.delete_key(k).unwrap());
            }
            paged.persist().unwrap();
        }
        let mut paged = PagedTree::reopen(BlockFile::open(&path).unwrap()).unwrap();
        assert_eq!(paged.depth(), WalkIndex::depth(&sim));
        assert_eq!(paged.len(), sim.len());
        for id in 0..sim.node_count() as NodeId {
            if sim.export_node(id).dead {
                continue;
            }
            let node = paged.read_node(id).unwrap();
            assert_eq!(
                paged.info_of(id, &node),
                WalkIndex::node(&sim, id),
                "node {id} after reopen"
            );
        }
        for k in 0..2100 {
            assert_eq!(sim.contains(k), walk_found(&mut paged, k), "key {k}");
        }
        // And mutation continues identically after reopen.
        for k in [4u64, 6, 2050] {
            assert_eq!(sim.insert_key(k), paged.insert_key(k).unwrap(), "post {k}");
        }
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn prefetch_stages_cold_nodes_and_mutations_clear_the_stage() {
        let ks = keys(300, 2);
        let sim = BPlusTree::bulk_load(&ks, 8, Addr::new(0), 16);
        let mut paged = materialize_tree(&sim).unwrap();
        let root = paged.root();

        // Cold prefetch: pays the page read once, stages the node.
        paged.prefetch_node(root).unwrap();
        assert_eq!(paged.staged_len(), 1);
        assert_eq!(paged.io_stats().prefetched, 1);
        assert!(
            paged.peek_node(root).is_some(),
            "scout can descend through it"
        );

        // The demand read is then page-free and counted as a staged hit.
        let fs_before = paged.file_stats();
        let _ = paged.read_node(root).unwrap();
        assert_eq!(paged.io_stats().staged_hits, 1);
        assert_eq!(paged.io_stats().cold_reads, 0);
        assert_eq!(paged.file_stats().pages_read, fs_before.pages_read);

        // Re-prefetching a staged (or hot) node is free: hint only.
        paged.prefetch_node(root).unwrap();
        assert_eq!(paged.io_stats().prefetched, 1);

        // Any applied mutation drops the whole stage — staleness guard.
        assert!(paged.insert_key(1).unwrap().applied);
        assert_eq!(paged.staged_len(), 0, "mutation cleared the stage");
        assert!(paged.peek_node(root).is_none());

        // And a prefetch after the mutation sees the new contents.
        paged.prefetch_node(root).unwrap();
        let n = paged.read_node(root).unwrap();
        assert_eq!(paged.info_of(root, &n).lo, 0);
    }

    #[test]
    fn prefetch_never_changes_what_read_node_returns() {
        let ks = keys(400, 3);
        let sim = BPlusTree::bulk_load(&ks, 4, Addr::new(0x2000), 16);
        let mut plain = materialize_tree(&sim).unwrap();
        let mut scouted = materialize_tree(&sim).unwrap();
        for id in 0..scouted.node_count() as NodeId {
            scouted.prefetch_node(id).unwrap();
        }
        for id in 0..plain.node_count() as NodeId {
            let a = plain.read_node(id).unwrap();
            let b = scouted.read_node(id).unwrap();
            assert_eq!(a.encode(), b.encode(), "node {id} diverged");
        }
    }

    #[test]
    fn hot_map_serves_admitted_nodes_without_page_reads() {
        let ks = keys(200, 1);
        let sim = BPlusTree::bulk_load(&ks, 8, Addr::new(0), 16);
        let mut paged = materialize_tree(&sim).unwrap();
        let root = paged.root();
        paged.admit_hot(root).unwrap();
        let before = paged.io_stats();
        let _ = paged.read_node(root).unwrap();
        let after = paged.io_stats();
        assert_eq!(after.hot_hits, before.hot_hits + 1);
        assert_eq!(after.cold_reads, before.cold_reads);
        paged.retain_hot(|_| false);
        assert_eq!(paged.hot_len(), 0);
        let _ = paged.read_node(root).unwrap();
        assert_eq!(paged.io_stats().cold_reads, after.cold_reads + 1);
    }

    #[test]
    fn nodes_in_hand_enter_the_hot_map_without_a_second_read() {
        let ks = keys(400, 3);
        let sim = BPlusTree::bulk_load(&ks, 4, Addr::new(0), 16);
        let mut paged = materialize_tree(&sim).unwrap();
        let (root, key) = (paged.root(), ks[137]);
        let (plain, leaf) = paged.path_from(root, key).unwrap();
        let (fetched, same_leaf) = paged.path_nodes_from(root, key).unwrap();
        assert_eq!(leaf, same_leaf);
        let walked = paged.io_stats().cold_reads;
        assert_eq!(walked, 2 * plain.len() as u64, "nothing was hot yet");
        for ((id, info, node), &(plain_id, plain_info)) in fetched.into_iter().zip(&plain) {
            assert_eq!((id, info), (plain_id, plain_info));
            assert_eq!(node.encode(), paged.read_node(id).unwrap().encode());
            paged.admit_hot_node(id, node);
        }
        let admitted = paged.io_stats();
        assert_eq!(admitted.cold_reads, walked + plain.len() as u64);
        assert_eq!(paged.hot_len(), plain.len());
        // The same walk again is served from the hot map alone.
        assert_eq!(paged.path_from(root, key).unwrap(), (plain, leaf));
        let again = paged.io_stats();
        assert_eq!(again.cold_reads, admitted.cold_reads);
        assert_eq!(again.hot_hits, admitted.hot_hits + paged.hot_len() as u64);
        // A chained leaf comes back the same way.
        let first = paged.path_from(root, ks[0]).unwrap().0.last().unwrap().0;
        let chain = paged.scan_chain(first, 3).unwrap();
        let with_nodes = paged.scan_chain_nodes(first, 3).unwrap();
        assert_eq!(chain.len(), 3);
        for ((id, info, node), &(plain_id, plain_info)) in with_nodes.into_iter().zip(&chain) {
            assert_eq!((id, info), (plain_id, plain_info));
            assert_eq!(node.encode(), paged.read_node(id).unwrap().encode());
        }
    }

    /// `read_node` calls so far: each one bumps exactly one of these.
    fn reads(pt: &PagedTree) -> u64 {
        let io = pt.io_stats();
        io.hot_hits + io.staged_hits + io.cold_reads
    }

    #[test]
    fn a_plain_mutation_reads_each_node_it_needs_once() {
        let ks = keys(6000, 4);
        for sim in [
            BPlusTree::bulk_load_with_depth(&ks, 10, Addr::new(0x1000), 16),
            BPlusTree::bulk_load_geometry(&ks[..2000], 4, 3, Addr::new(0), 16),
        ] {
            let mut paged = materialize_tree(&sim).unwrap();
            let budget = 3 * u64::from(paged.depth());
            let (mut plain_deletes, mut plain_inserts) = (0, 0);
            for &k in ks.iter().step_by(97).take(20) {
                // Bulk-loaded leaves are full: the delete makes the room
                // that keeps the insert after it from splitting.
                let before = reads(&paged);
                let rep = paged.delete_key(k).unwrap();
                if rep.applied && rep.merges + rep.rebalances == 0 {
                    plain_deletes += 1;
                    let n = reads(&paged) - before;
                    assert!(n <= budget, "delete {k}: {n} reads, budget {budget}");
                }
                let before = reads(&paged);
                let rep = paged.insert_key(k + 1).unwrap();
                if rep.applied && rep.splits == 0 {
                    plain_inserts += 1;
                    let n = reads(&paged) - before;
                    assert!(n <= budget, "insert {}: {n} reads, budget {budget}", k + 1);
                }
            }
            assert!(plain_deletes > 0 && plain_inserts > 0, "nothing measured");
        }
    }

    #[test]
    fn a_mutation_writes_each_node_it_changed_once() {
        let ks = keys(6000, 4);
        let mut sim = BPlusTree::bulk_load_with_depth(&ks, 10, Addr::new(0x1000), 16);
        let mut paged = materialize_tree(&sim).unwrap();
        let shape = sim.shape();
        let heap = shape.data_base.get()..shape.value_heap_end;
        let mut rng = SplitRng::stream(11, 0x51ab);
        let (mut restructured, mut total) = (0u64, 0u64);
        for op in 0..2000 {
            let key = rng.gen_range(0u64..6000 * 4 + 8);
            let insert = rng.gen_range(0u64..2) == 0;
            let mut path = Vec::new();
            sim.walk(key, |id, info| path.push((id, *info)));
            let before = paged.io_stats().node_writes;
            let rep = if insert {
                let rep = sim.insert_key(key);
                assert_eq!(rep, paged.insert_key(key).unwrap(), "op {op}");
                rep
            } else {
                let rep = sim.delete_key(key);
                assert_eq!(rep, paged.delete_key(key).unwrap(), "op {op}");
                rep
            };
            let wrote = paged.io_stats().node_writes - before;
            // What may be written: the nodes the report names, plus path
            // nodes whose bounds moved (a pure bound change is unreported).
            let mut allowed: std::collections::BTreeSet<Addr> = rep
                .writes
                .iter()
                .map(|&(addr, _)| addr)
                .filter(|a| !heap.contains(&a.get()))
                .collect();
            for (id, was) in path {
                let now = sim.node(id);
                if (now.lo, now.hi) != (was.lo, was.hi) {
                    allowed.insert(now.addr);
                }
            }
            assert!(
                wrote <= allowed.len() as u64,
                "op {op} (key {key}, insert {insert}): {wrote} node writes for {} changed nodes",
                allowed.len()
            );
            assert_eq!(wrote == 0, !rep.applied, "op {op}: a no-op writes nothing");
            restructured += u64::from(rep.splits + rep.merges + rep.rebalances);
            total += wrote;
        }
        assert!(
            restructured > 200,
            "storm must restructure ({restructured})"
        );
        assert!(total > 2000, "storm must write ({total})");
    }

    #[test]
    fn a_noop_mutation_leaves_stage_and_file_alone() {
        let sim = BPlusTree::bulk_load(&keys(300, 2), 8, Addr::new(0), 16);
        let mut paged = materialize_tree(&sim).unwrap();
        paged.prefetch_node(paged.root()).unwrap();
        let written = paged.file_stats().pages_written;
        assert!(!paged.insert_key(4).unwrap().applied);
        assert!(!paged.delete_key(5).unwrap().applied);
        assert_eq!(paged.file_stats().pages_written, written);
        assert_eq!(paged.io_stats().node_writes, 0);
        assert_eq!(paged.staged_len(), 1, "a no-op must not clear the stage");
    }

    #[test]
    fn a_mutation_that_fails_on_a_read_leaves_the_file_untouched() {
        let ks = keys(2000, 2);
        let sim = BPlusTree::bulk_load(&ks, 4, Addr::new(0), 16);
        let mut paged = materialize_tree(&sim).unwrap();
        // Corrupt one page of the path to key 1001: its interior node
        // two levels below the root.
        let (path, _) = paged.path_from(paged.root(), 1001).unwrap();
        let (victim, _) = path[2];
        let page = paged.meta[victim as usize].page;
        {
            use std::os::unix::fs::FileExt;
            let raw = std::fs::OpenOptions::new()
                .write(true)
                .open(paged.file.path())
                .unwrap();
            raw.write_all_at(&[0xff; 8], page * super::super::blockfile::PAGE_BYTES + 40)
                .unwrap();
        }
        let written = paged.file_stats().pages_written;
        for result in [paged.insert_key(1001), paged.delete_key(1000)] {
            let err = result.expect_err("the path crosses a corrupted page");
            assert!(
                err.context.contains(&format!("page {page}")) && err.context.contains("checksum"),
                "{err}"
            );
        }
        assert_eq!(paged.file_stats().pages_written, written);
        assert_eq!(paged.len(), sim.len());
        // Keys whose path avoids the page still mutate.
        assert!(paged.insert_key(1).unwrap().applied);
    }

    /// A named block file in a directory of its own (two handles on one
    /// file: the tree under test, and a reopen beside it).
    fn scratch_file(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("metal-pt-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("tree.blk")
    }

    #[test]
    fn persist_never_overwrites_the_directory_the_superblock_names() {
        let path = scratch_file("persist");
        let mut sim = BPlusTree::bulk_load(&keys(400, 3), 8, Addr::new(0), 16);
        let mut paged = PagedTree::materialize(&sim, BlockFile::create(&path).unwrap()).unwrap();
        let mut named = None;
        for round in 0..4u64 {
            for k in 0..40 {
                let key = round * 1000 + k * 7 + 1;
                assert_eq!(sim.insert_key(key), paged.insert_key(key).unwrap());
                assert_eq!(sim.delete_key(k * 9), paged.delete_key(k * 9).unwrap());
            }
            paged.persist().unwrap();
            let now = paged.file.root().unwrap();
            assert!(
                now.is_some() && now != named,
                "round {round}: {named:?} reused"
            );
            named = now;
            let mut again = PagedTree::reopen(BlockFile::open(&path).unwrap()).unwrap();
            assert_eq!(again.len(), sim.len());
            for id in 0..sim.node_count() as NodeId {
                assert_eq!(again.read_node(id).unwrap(), sim.export_node(id));
            }
        }
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn reopen_rejects_a_directory_whose_halves_disagree() {
        let path = scratch_file("forged");
        let mut sim = BPlusTree::bulk_load(&keys(300, 2), 4, Addr::new(0), 16);
        let mut paged = PagedTree::materialize(&sim, BlockFile::create(&path).unwrap()).unwrap();
        for k in keys(120, 2) {
            assert_eq!(sim.delete_key(k), paged.delete_key(k).unwrap());
        }
        assert!(paged.tombstones.len() >= 2, "storm must merge nodes away");
        paged.persist().unwrap();
        let dir_page = paged.file.root().unwrap().unwrap();
        let good = paged.file.load(dir_page).unwrap();
        // Offsets into the blob: 82 bytes of scalars, then 17 bytes per
        // node (page, bytes, dead flag), then the tombstone list.
        let n_nodes = paged.node_count();
        let dead_flag = |id: NodeId| 82 + id as usize * 17 + 16;
        let tomb_list = 82 + n_nodes * 17;
        let first_dead = *paged.tombstones.keys().min().unwrap();
        let live = paged.root();
        let forge = |edit: &dyn Fn(&mut Vec<u8>)| {
            let mut blob = good.clone();
            edit(&mut blob);
            let mut file = BlockFile::open(&path).unwrap();
            let page = file.store(&blob).unwrap();
            file.set_root(page).unwrap();
            let err = PagedTree::reopen(file).expect_err("forged directory must not open");
            assert!(err.context.contains("malformed tree directory"), "{err}");
            err.context
        };
        // A dead flag with no tombstone behind it.
        assert!(forge(&|b| b[dead_flag(live)] = 1).contains("dead nodes but"));
        // A tombstone whose node is flagged live.
        assert!(forge(&|b| b[dead_flag(first_dead)] = 0).contains("not dead"));
        // A tombstone id out of range, the same tombstone twice (the
        // second entry renamed to the first's id), a root out of range.
        let first = tomb_list + 4;
        assert!(
            forge(&|b| b[first..first + 4].copy_from_slice(&u32::MAX.to_le_bytes()))
                .contains("not dead")
        );
        let len = u32::from_le_bytes(good[first + 4..first + 8].try_into().unwrap()) as usize;
        let second = first + 8 + len;
        assert!(forge(&|b| b.copy_within(first..first + 4, second)).contains("two tombstones"));
        assert!(
            forge(&|b| b[4..8].copy_from_slice(&(n_nodes as u32).to_le_bytes()))
                .contains("out of range")
        );
        // The untouched directory still opens.
        let mut file = BlockFile::open(&path).unwrap();
        let page = file.store(&good).unwrap();
        file.set_root(page).unwrap();
        let mut again = PagedTree::reopen(file).unwrap();
        assert_eq!(
            again.read_node(first_dead).unwrap(),
            sim.export_node(first_dead)
        );
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }
}
