//! Out-of-core B+tree over a [`BlockFile`], cross-validated against the
//! in-memory [`BPlusTree`].
//!
//! A [`PagedTree`] is materialized from a pristine `BPlusTree` so that
//! **node ids, simulated addresses and mutation behaviour are identical**
//! to the simulator's: ids are assigned in the same order, the arena is
//! replayed allocation-for-allocation (so `NodeInfo.addr`/`bytes` match
//! byte-for-byte, which keeps descriptor and tuner decisions aligned),
//! and every structural-mutation routine below is a line-for-line port
//! of the `BPlusTree` original onto read-node/store-node paged access.
//! The backend-equivalence suite and the native fuzz arm exist to keep
//! that claim honest.
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

use super::blockfile::{BlockFile, BlockFileError, Result};
use super::codec::{PagedKind, PagedNode};
use metal_index::bptree::{BPlusTree, MutationReport, StaleSpan};
use metal_index::walk::Descend;
use metal_index::{Arena, NodeId, NodeInfo};
use metal_sim::obs::MutKind;
use metal_sim::types::{Addr, Key};
use std::collections::HashMap;

/// Per-node byte-size model, mirrored from `metal-index::bptree`.
const NODE_HEADER_BYTES: u64 = 16;

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

/// In-memory placement record of one node.
#[derive(Debug, Clone, Copy)]
struct NodeMeta {
    /// Head page of the node's extent (meaningless when `dead`).
    page: u64,
    /// Arena slot (== node id; kept explicit for clarity).
    slot: usize,
    /// True once the node was merged away: its extent is freed and its
    /// emptied contents live in the tombstone map.
    dead: bool,
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
    /// Node writes (serialize + page write).
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
    root: NodeId,
    depth: u8,
    leaf_cap: usize,
    fanout: usize,
    n_keys: u64,
    next_rank: u64,
    data_base: Addr,
    record_bytes: u64,
    value_heap_end: u64,
    mut_ready: bool,
    /// First node id allocated past the value heap (persisted so the
    /// arena replay stays exact across reopen).
    mut_boundary: Option<NodeId>,
    /// Deserialized nodes mirroring current IX-cache residents.
    hot: HashMap<NodeId, PagedNode>,
    /// Nodes MLP scouts read ahead of demand ([`STAGE_CAP`]-bounded).
    /// Cleared wholesale on any applied mutation — the cheap, obviously
    /// correct staleness guard (see `native::backend` module docs).
    stage: HashMap<NodeId, PagedNode>,
    /// Emptied contents of merged-away nodes (extent freed).
    tombstones: HashMap<NodeId, PagedNode>,
    io: TreeIoStats,
}

/// A node a walk fetched, with the decoded contents still in hand.
pub type FetchedNode = (NodeId, NodeInfo, PagedNode);

/// Records `[lo, hi]` as stale at `level` and every level below it
/// (mirrors the `metal-index` original, which is private).
fn push_stale(report: &mut MutationReport, level: u8, lo: Key, hi: Key, op: MutKind) {
    for l in (0..=level).rev() {
        report.stale.push(StaleSpan {
            level: l,
            lo,
            hi,
            op,
        });
    }
}

impl PagedTree {
    /// Materializes `tree` into `file`, node by node in id order. The
    /// tree must be the pristine (pre-mutation) experiment index — the
    /// same starting point the simulator clones before replaying writes.
    pub fn materialize(tree: &BPlusTree, mut file: BlockFile) -> Result<Self> {
        let shape = tree.shape();
        let mut arena = Arena::new(shape.arena_base);
        let mut meta = Vec::with_capacity(metal_index::WalkIndex::node_count(tree));
        let mut tombstones = HashMap::new();
        let mut mut_boundary = None;
        let mut replica_ready = false;
        for id in 0..metal_index::WalkIndex::node_count(tree) as NodeId {
            let e = tree.export_node(id);
            if shape.mut_ready && !replica_ready && e.addr.get() >= shape.value_heap_end {
                arena.skip_to(Addr::new(shape.value_heap_end));
                replica_ready = true;
                mut_boundary = Some(id);
            }
            let slot = arena.alloc(e.bytes);
            debug_assert_eq!(
                arena.addr(slot),
                e.addr,
                "arena replay diverged at node {id}"
            );
            let node = PagedNode::from_export(&e);
            let (page, dead) = if e.dead {
                tombstones.insert(id, node);
                (u64::MAX, true)
            } else {
                (file.store(&node.encode())?, false)
            };
            meta.push(NodeMeta { page, slot, dead });
        }
        Ok(PagedTree {
            file,
            meta,
            arena,
            root: shape.root,
            depth: shape.depth,
            leaf_cap: shape.leaf_cap,
            fanout: shape.fanout,
            n_keys: shape.n_keys,
            next_rank: shape.next_rank,
            data_base: shape.data_base,
            record_bytes: shape.record_bytes,
            value_heap_end: shape.value_heap_end,
            mut_ready: shape.mut_ready,
            mut_boundary,
            hot: HashMap::new(),
            stage: HashMap::new(),
            tombstones,
            io: TreeIoStats::default(),
        })
    }

    /// Writes the tree directory (scalars, per-node placements,
    /// tombstones) into the file and records it in the superblock, so
    /// [`PagedTree::reopen`] can rebuild this tree.
    pub fn persist(&mut self) -> Result<()> {
        let mut blob = Vec::new();
        blob.extend_from_slice(&DIR_VERSION.to_le_bytes());
        blob.extend_from_slice(&self.root.to_le_bytes());
        blob.push(self.depth);
        blob.push(self.mut_ready as u8);
        blob.extend_from_slice(&(self.leaf_cap as u64).to_le_bytes());
        blob.extend_from_slice(&(self.fanout as u64).to_le_bytes());
        blob.extend_from_slice(&self.n_keys.to_le_bytes());
        blob.extend_from_slice(&self.next_rank.to_le_bytes());
        blob.extend_from_slice(&self.arena.base().get().to_le_bytes());
        blob.extend_from_slice(&self.data_base.get().to_le_bytes());
        blob.extend_from_slice(&self.record_bytes.to_le_bytes());
        blob.extend_from_slice(&self.value_heap_end.to_le_bytes());
        blob.extend_from_slice(&self.mut_boundary.unwrap_or(NodeId::MAX).to_le_bytes());
        blob.extend_from_slice(&(self.meta.len() as u32).to_le_bytes());
        for (id, m) in self.meta.iter().enumerate() {
            blob.extend_from_slice(&m.page.to_le_bytes());
            blob.extend_from_slice(&self.arena.bytes(m.slot).to_le_bytes());
            blob.push(m.dead as u8);
            let _ = id;
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
        if let Some(old) = self.file.root()? {
            self.file.free_extent(old)?;
        }
        let page = self.file.store(&blob)?;
        self.file.set_root(page)
    }

    /// Rebuilds a persisted tree from `file` (see [`PagedTree::persist`]).
    pub fn reopen(mut file: BlockFile) -> Result<Self> {
        let page = file.root()?.ok_or_else(|| {
            BlockFileError::new(format!(
                "{}: no tree directory recorded (file was never persisted)",
                file.path().display()
            ))
        })?;
        let blob = file.load(page)?;
        let bad = |what: &str| {
            BlockFileError::new(format!(
                "{}: malformed tree directory: {what}",
                file.path().display()
            ))
        };
        let mut r = DirReader {
            bytes: &blob,
            pos: 0,
        };
        if r.u32().map_err(|e| bad(&e))? != DIR_VERSION {
            return Err(bad("unknown directory version"));
        }
        let root = r.u32().map_err(|e| bad(&e))?;
        let depth = r.u8().map_err(|e| bad(&e))?;
        let mut_ready = r.u8().map_err(|e| bad(&e))? != 0;
        let leaf_cap = r.u64().map_err(|e| bad(&e))? as usize;
        let fanout = r.u64().map_err(|e| bad(&e))? as usize;
        let n_keys = r.u64().map_err(|e| bad(&e))?;
        let next_rank = r.u64().map_err(|e| bad(&e))?;
        let arena_base = r.u64().map_err(|e| bad(&e))?;
        let data_base = r.u64().map_err(|e| bad(&e))?;
        let record_bytes = r.u64().map_err(|e| bad(&e))?;
        let value_heap_end = r.u64().map_err(|e| bad(&e))?;
        let boundary = r.u32().map_err(|e| bad(&e))?;
        let mut_boundary = (boundary != NodeId::MAX).then_some(boundary);
        let n_nodes = r.u32().map_err(|e| bad(&e))? as usize;
        let mut arena = Arena::new(Addr::new(arena_base));
        let mut meta = Vec::with_capacity(n_nodes);
        for id in 0..n_nodes {
            let page = r.u64().map_err(|e| bad(&e))?;
            let bytes = r.u64().map_err(|e| bad(&e))?;
            let dead = r.u8().map_err(|e| bad(&e))? != 0;
            if mut_boundary == Some(id as NodeId) {
                arena.skip_to(Addr::new(value_heap_end));
            }
            let slot = arena.alloc(bytes);
            meta.push(NodeMeta { page, slot, dead });
        }
        let n_tomb = r.u32().map_err(|e| bad(&e))? as usize;
        let mut tombstones = HashMap::with_capacity(n_tomb);
        for _ in 0..n_tomb {
            let id = r.u32().map_err(|e| bad(&e))?;
            let len = r.u32().map_err(|e| bad(&e))? as usize;
            let enc = r.take(len).map_err(|e| bad(&e))?;
            let node = PagedNode::decode(enc).map_err(|e| bad(&e))?;
            tombstones.insert(id, node);
        }
        Ok(PagedTree {
            file,
            meta,
            arena,
            root,
            depth,
            leaf_cap,
            fanout,
            n_keys,
            next_rank,
            data_base: Addr::new(data_base),
            record_bytes,
            value_heap_end,
            mut_ready,
            mut_boundary,
            hot: HashMap::new(),
            stage: HashMap::new(),
            tombstones,
            io: TreeIoStats::default(),
        })
    }

    /// Root node id.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Number of levels.
    pub fn depth(&self) -> u8 {
        self.depth
    }

    /// Number of keys indexed.
    pub fn len(&self) -> u64 {
        self.n_keys
    }

    /// Whether the tree indexes no keys.
    pub fn is_empty(&self) -> bool {
        self.n_keys == 0
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
        self.arena.bytes(self.meta[id as usize].slot)
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
            return Ok(self.tombstones[&id].clone());
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

    /// Writes node `id` back to its extent (relocating when it outgrew
    /// it) and refreshes the hot copy if one is resident.
    fn store_node(&mut self, id: NodeId, node: &PagedNode) -> Result<()> {
        let m = self.meta[id as usize];
        debug_assert!(!m.dead, "dead nodes are tombstones, not extents");
        let page = self.file.update(m.page, &node.encode())?;
        self.meta[id as usize].page = page;
        if let Some(h) = self.hot.get_mut(&id) {
            *h = node.clone();
        }
        // Any write invalidates the prefetch stage wholesale: staged
        // nodes were decoded pre-mutation and must never shadow the
        // page layer's current contents. (The hot map above is updated
        // in place instead — it mirrors cache residency, not a hint.)
        self.stage.clear();
        self.io.node_writes += 1;
        Ok(())
    }

    /// Allocates a fresh node (arena slot + extent) and returns its id.
    fn push_node(&mut self, node: PagedNode, bytes: u64) -> Result<NodeId> {
        let slot = self.arena.alloc(bytes);
        let id = self.meta.len() as NodeId;
        debug_assert_eq!(slot, id as usize, "slot == id invariant");
        let page = self.file.store(&node.encode())?;
        self.meta.push(NodeMeta {
            page,
            slot,
            dead: false,
        });
        Ok(id)
    }

    /// Kills a merged-away node: frees its extent and keeps the emptied
    /// contents as a tombstone (the simulator keeps dead nodes in its
    /// node vec; a stale cached pointer must resolve identically here).
    fn kill_node(&mut self, id: NodeId, emptied: PagedNode) -> Result<()> {
        let m = self.meta[id as usize];
        self.file.free_extent(m.page)?;
        self.meta[id as usize].dead = true;
        self.hot.remove(&id);
        self.stage.clear();
        self.tombstones.insert(id, emptied);
        Ok(())
    }

    /// [`NodeInfo`] for a node already in hand (placement from the arena
    /// replica, the rest from the node itself).
    pub fn info_of(&self, id: NodeId, node: &PagedNode) -> NodeInfo {
        let m = &self.meta[id as usize];
        NodeInfo {
            addr: self.arena.addr(m.slot),
            bytes: self.arena.bytes(m.slot),
            level: node.level,
            lo: node.lo,
            hi: node.hi,
            keys: node.key_count(),
        }
    }

    /// Simulated `(addr, bytes)` of node `id` (the DRAM write-back pair
    /// the mutation report records).
    fn node_write(&self, id: NodeId) -> (Addr, u64) {
        let slot = self.meta[id as usize].slot;
        (self.arena.addr(slot), self.arena.bytes(slot))
    }

    /// Searches `node` for `key` exactly as `BPlusTree::descend` does.
    pub fn descend_in(&self, node: &PagedNode, key: Key) -> Descend {
        match &node.kind {
            PagedKind::Interior { seps, children } => {
                let idx = seps.partition_point(|&s| s <= key);
                Descend::Child(children[idx])
            }
            PagedKind::Leaf { keys, ranks, .. } => match keys.binary_search(&key) {
                Ok(pos) => Descend::Leaf {
                    found: true,
                    value_addr: Addr::new(self.data_base.get() + ranks[pos] * self.record_bytes),
                    value_bytes: self.record_bytes,
                },
                Err(_) => Descend::Leaf {
                    found: false,
                    value_addr: self.data_base,
                    value_bytes: 0,
                },
            },
        }
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
        let mut path = Vec::with_capacity(self.depth as usize);
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
            let next = match &node.kind {
                PagedKind::Leaf { next, .. } => *next,
                PagedKind::Interior { .. } => None,
            };
            match next {
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

    fn ensure_mut_region(&mut self) {
        if !self.mut_ready {
            self.arena.skip_to(Addr::new(self.value_heap_end));
            self.mut_ready = true;
            self.mut_boundary = Some(self.meta.len() as NodeId);
        }
    }

    fn path_to_leaf(&mut self, key: Key) -> Result<Vec<NodeId>> {
        let mut path = vec![self.root];
        loop {
            let id = *path.last().expect("path starts at the root");
            let node = self.read_node(id)?;
            match &node.kind {
                PagedKind::Interior { seps, children } => {
                    let idx = seps.partition_point(|&s| s <= key);
                    path.push(children[idx]);
                }
                PagedKind::Leaf { .. } => return Ok(path),
            }
        }
    }

    /// Recomputes `[lo, hi]` from current contents (port of the
    /// `BPlusTree` original).
    fn refresh_bounds(&mut self, id: NodeId) -> Result<()> {
        let mut node = self.read_node(id)?;
        let (lo, hi) = match &node.kind {
            PagedKind::Leaf { keys, .. } => match (keys.first(), keys.last()) {
                (Some(&lo), Some(&hi)) => (lo, hi),
                _ => (node.lo, node.lo),
            },
            PagedKind::Interior { children, .. } => {
                let first = children[0];
                let last = *children.last().expect("interior keeps a child");
                (self.read_node(first)?.lo, self.read_node(last)?.hi)
            }
        };
        if (node.lo, node.hi) != (lo, hi) {
            node.lo = lo;
            node.hi = hi;
            self.store_node(id, &node)?;
        }
        Ok(())
    }

    /// Rebuilds an interior node's separators from its children's low
    /// bounds (no-op for leaves).
    fn rebuild_seps(&mut self, id: NodeId) -> Result<()> {
        let mut node = self.read_node(id)?;
        let children = match &node.kind {
            PagedKind::Interior { children, .. } => children.clone(),
            PagedKind::Leaf { .. } => return Ok(()),
        };
        let mut seps = Vec::with_capacity(children.len().saturating_sub(1));
        for &c in &children[1..] {
            seps.push(self.read_node(c)?.lo);
        }
        if let PagedKind::Interior { seps: s, .. } = &mut node.kind {
            *s = seps;
        }
        self.store_node(id, &node)
    }

    /// Splits overflowing node `id` in half, returning the new right
    /// sibling (allocated past the value heap). Line-for-line port of
    /// `BPlusTree::split_node`.
    fn split_node(&mut self, id: NodeId) -> Result<NodeId> {
        self.ensure_mut_region();
        let mut node = self.read_node(id)?;
        let level = node.level;
        let rid = self.meta.len() as NodeId;
        enum Half {
            Leaf {
                keys: Vec<Key>,
                ranks: Vec<u64>,
                next: Option<NodeId>,
            },
            Interior {
                children: Vec<NodeId>,
            },
        }
        let half = match &mut node.kind {
            PagedKind::Leaf { keys, ranks, next } => {
                let at = keys.len() / 2;
                let h = Half::Leaf {
                    keys: keys.split_off(at),
                    ranks: ranks.split_off(at),
                    next: *next,
                };
                *next = Some(rid);
                h
            }
            PagedKind::Interior { children, .. } => {
                let at = children.len() / 2;
                Half::Interior {
                    children: children.split_off(at),
                }
            }
        };
        self.store_node(id, &node)?;
        let created = match half {
            Half::Leaf { keys, ranks, next } => {
                let bytes = NODE_HEADER_BYTES + keys.len() as u64 * 16;
                let (lo, hi) = (keys[0], *keys.last().expect("split halves are non-empty"));
                let sib = PagedNode {
                    level,
                    lo,
                    hi,
                    dead: false,
                    kind: PagedKind::Leaf { keys, ranks, next },
                };
                self.push_node(sib, bytes)?
            }
            Half::Interior { children } => {
                let mut seps = Vec::with_capacity(children.len().saturating_sub(1));
                for &c in &children[1..] {
                    seps.push(self.read_node(c)?.lo);
                }
                let bytes = NODE_HEADER_BYTES + seps.len() as u64 * 8 + children.len() as u64 * 8;
                let lo = self.read_node(children[0])?.lo;
                let hi = self.read_node(*children.last().expect("non-empty"))?.hi;
                let sib = PagedNode {
                    level,
                    lo,
                    hi,
                    dead: false,
                    kind: PagedKind::Interior { seps, children },
                };
                self.push_node(sib, bytes)?
            }
        };
        debug_assert_eq!(created, rid);
        self.rebuild_seps(id)?;
        self.refresh_bounds(id)?;
        Ok(rid)
    }

    /// Whether folding `r` into `l` stays within node capacity.
    fn can_merge(&mut self, l: NodeId, r: NodeId) -> Result<bool> {
        let ln = self.read_node(l)?;
        let rn = self.read_node(r)?;
        Ok(match (&ln.kind, &rn.kind) {
            (PagedKind::Leaf { keys: a, .. }, PagedKind::Leaf { keys: b, .. }) => {
                a.len() + b.len() <= self.leaf_cap
            }
            (PagedKind::Interior { children: a, .. }, PagedKind::Interior { children: b, .. }) => {
                a.len() + b.len() <= self.fanout
            }
            _ => false,
        })
    }

    /// Inserts `key`, splitting overflowing nodes up the walk path.
    /// Port of `BPlusTree::insert_key` — must produce an identical
    /// [`MutationReport`].
    pub fn insert_key(&mut self, key: Key) -> Result<MutationReport> {
        let mut report = MutationReport::default();
        let path = self.path_to_leaf(key)?;
        let leaf = *path.last().expect("path ends at a leaf");
        {
            let mut node = self.read_node(leaf)?;
            let PagedKind::Leaf { keys, ranks, .. } = &mut node.kind else {
                unreachable!("path ends at a leaf");
            };
            let Err(pos) = keys.binary_search(&key) else {
                return Ok(report);
            };
            keys.insert(pos, key);
            ranks.insert(pos, self.next_rank);
            self.store_node(leaf, &node)?;
        }
        report.applied = true;
        report.writes.push(self.node_write(leaf));
        // The new record itself (append-only value heap).
        report.writes.push((
            Addr::new(self.data_base.get() + self.next_rank * self.record_bytes),
            self.record_bytes.max(1),
        ));
        self.next_rank += 1;
        self.n_keys += 1;

        // Ascend the path: split overflowing nodes, refresh bounds.
        for pos in (0..path.len()).rev() {
            let id = path[pos];
            let node = self.read_node(id)?;
            let over = match &node.kind {
                PagedKind::Leaf { keys, .. } => keys.len() > self.leaf_cap,
                PagedKind::Interior { children, .. } => children.len() > self.fanout,
            };
            if !over {
                self.refresh_bounds(id)?;
                continue;
            }
            let (old_lo, old_hi, level) = (node.lo, node.hi, node.level);
            let sib = self.split_node(id)?;
            report.splits += 1;
            push_stale(&mut report, level, old_lo, old_hi, MutKind::Split);
            report.writes.push(self.node_write(id));
            report.writes.push(self.node_write(sib));
            let sib_lo = self.read_node(sib)?.lo;
            if pos == 0 {
                // The root itself split: grow a new root above it.
                let bytes = NODE_HEADER_BYTES + 8 + 2 * 8;
                let lo = self.read_node(id)?.lo;
                let hi = self.read_node(sib)?.hi;
                let rid = self.push_node(
                    PagedNode {
                        level: level + 1,
                        lo,
                        hi,
                        dead: false,
                        kind: PagedKind::Interior {
                            seps: vec![sib_lo],
                            children: vec![id, sib],
                        },
                    },
                    bytes,
                )?;
                self.root = rid;
                self.depth += 1;
                report.writes.push(self.node_write(rid));
            } else {
                let parent = path[pos - 1];
                let mut p = self.read_node(parent)?;
                let PagedKind::Interior { seps, children } = &mut p.kind else {
                    unreachable!("parents are interior");
                };
                let cpos = children
                    .iter()
                    .position(|&c| c == id)
                    .expect("parent lists its child");
                children.insert(cpos + 1, sib);
                seps.insert(cpos, sib_lo);
                self.store_node(parent, &p)?;
                report.writes.push(self.node_write(parent));
            }
        }
        Ok(report)
    }

    /// Deletes `key`, rebalancing or merging underflowing nodes up the
    /// walk path. Port of `BPlusTree::delete_key`.
    pub fn delete_key(&mut self, key: Key) -> Result<MutationReport> {
        let mut report = MutationReport::default();
        let path = self.path_to_leaf(key)?;
        let leaf = *path.last().expect("path ends at a leaf");
        {
            let mut node = self.read_node(leaf)?;
            let PagedKind::Leaf { keys, ranks, .. } = &mut node.kind else {
                unreachable!("path ends at a leaf");
            };
            let Ok(pos) = keys.binary_search(&key) else {
                return Ok(report);
            };
            keys.remove(pos);
            ranks.remove(pos);
            self.store_node(leaf, &node)?;
        }
        self.n_keys -= 1;
        report.applied = true;
        report.writes.push(self.node_write(leaf));

        let min_leaf = (self.leaf_cap / 2).max(1);
        let min_children = (self.fanout / 2).max(2);
        // Ascend the path (root exempt): fix underflow, refresh bounds.
        for pos in (1..path.len()).rev() {
            let id = path[pos];
            let node = self.read_node(id)?;
            let under = match &node.kind {
                PagedKind::Leaf { keys, .. } => keys.len() < min_leaf,
                PagedKind::Interior { children, .. } => children.len() < min_children,
            };
            if !under {
                self.refresh_bounds(id)?;
                continue;
            }
            self.rebalance_or_merge(path[pos - 1], id, &mut report)?;
        }
        self.refresh_bounds(path[0])?;
        Ok(report)
    }

    /// Fixes underflowing `id` (port of the `BPlusTree` original; the
    /// borrow/merge preference order must match exactly).
    fn rebalance_or_merge(
        &mut self,
        parent: NodeId,
        id: NodeId,
        report: &mut MutationReport,
    ) -> Result<()> {
        let (cpos, left, right) = {
            let p = self.read_node(parent)?;
            let PagedKind::Interior { children, .. } = &p.kind else {
                unreachable!("parents are interior");
            };
            let cpos = children
                .iter()
                .position(|&c| c == id)
                .expect("parent lists its child");
            (
                cpos,
                (cpos > 0).then(|| children[cpos - 1]),
                children.get(cpos + 1).copied(),
            )
        };
        let level = self.read_node(id)?.level;
        let left_surplus = match left {
            Some(l) => self.has_surplus(l)?,
            None => false,
        };
        let right_surplus = match right {
            Some(r) => self.has_surplus(r)?,
            None => false,
        };
        if let Some(l) = left.filter(|_| left_surplus) {
            let (lo, hi) = (self.read_node(l)?.lo, self.read_node(id)?.hi);
            self.borrow_from_left(parent, cpos, l, id)?;
            report.rebalances += 1;
            push_stale(report, level, lo, hi, MutKind::Rebalance);
            report.writes.push(self.node_write(l));
            report.writes.push(self.node_write(id));
            report.writes.push(self.node_write(parent));
        } else if let Some(r) = right.filter(|_| right_surplus) {
            let (lo, hi) = (self.read_node(id)?.lo, self.read_node(r)?.hi);
            self.borrow_from_right(parent, cpos, id, r)?;
            report.rebalances += 1;
            push_stale(report, level, lo, hi, MutKind::Rebalance);
            report.writes.push(self.node_write(id));
            report.writes.push(self.node_write(r));
            report.writes.push(self.node_write(parent));
        } else if let Some(l) = left {
            if self.can_merge(l, id)? {
                let (lo, hi) = (self.read_node(l)?.lo, self.read_node(id)?.hi);
                self.merge_into_left(parent, cpos - 1, l, id)?;
                report.merges += 1;
                push_stale(report, level, lo, hi, MutKind::Merge);
                report.writes.push(self.node_write(l));
                report.writes.push(self.node_write(parent));
            } else if let Some(r) = right {
                if self.can_merge(id, r)? {
                    let (lo, hi) = (self.read_node(id)?.lo, self.read_node(r)?.hi);
                    self.merge_into_left(parent, cpos, id, r)?;
                    report.merges += 1;
                    push_stale(report, level, lo, hi, MutKind::Merge);
                    report.writes.push(self.node_write(id));
                    report.writes.push(self.node_write(parent));
                }
            }
        } else if let Some(r) = right {
            if self.can_merge(id, r)? {
                let (lo, hi) = (self.read_node(id)?.lo, self.read_node(r)?.hi);
                self.merge_into_left(parent, cpos, id, r)?;
                report.merges += 1;
                push_stale(report, level, lo, hi, MutKind::Merge);
                report.writes.push(self.node_write(id));
                report.writes.push(self.node_write(parent));
            }
        }
        Ok(())
    }

    /// Whether a node holds more than the underflow minimum.
    fn has_surplus(&mut self, n: NodeId) -> Result<bool> {
        let node = self.read_node(n)?;
        Ok(match &node.kind {
            PagedKind::Leaf { keys, .. } => keys.len() > (self.leaf_cap / 2).max(1),
            PagedKind::Interior { children, .. } => children.len() > (self.fanout / 2).max(2),
        })
    }

    /// Moves the last key/child of `l` to the front of `id`.
    fn borrow_from_left(
        &mut self,
        parent: NodeId,
        cpos: usize,
        l: NodeId,
        id: NodeId,
    ) -> Result<()> {
        enum Moved {
            Key(Key, u64),
            Child(NodeId),
        }
        let mut ln = self.read_node(l)?;
        let moved = match &mut ln.kind {
            PagedKind::Leaf { keys, ranks, .. } => Moved::Key(
                keys.pop().expect("surplus leaf has keys"),
                ranks.pop().expect("ranks track keys"),
            ),
            PagedKind::Interior { seps, children } => {
                seps.pop();
                Moved::Child(children.pop().expect("surplus interior has children"))
            }
        };
        self.store_node(l, &ln)?;
        let mut idn = self.read_node(id)?;
        match moved {
            Moved::Key(k, r) => {
                if let PagedKind::Leaf { keys, ranks, .. } = &mut idn.kind {
                    keys.insert(0, k);
                    ranks.insert(0, r);
                }
            }
            Moved::Child(c) => {
                if let PagedKind::Interior { children, .. } = &mut idn.kind {
                    children.insert(0, c);
                }
            }
        }
        self.store_node(id, &idn)?;
        self.rebuild_seps(id)?;
        self.refresh_bounds(l)?;
        self.refresh_bounds(id)?;
        let new_lo = self.read_node(id)?.lo;
        let mut p = self.read_node(parent)?;
        if let PagedKind::Interior { seps, .. } = &mut p.kind {
            seps[cpos - 1] = new_lo;
        }
        self.store_node(parent, &p)
    }

    /// Moves the first key/child of `r` to the end of `id`.
    fn borrow_from_right(
        &mut self,
        parent: NodeId,
        cpos: usize,
        id: NodeId,
        r: NodeId,
    ) -> Result<()> {
        enum Moved {
            Key(Key, u64),
            Child(NodeId),
        }
        let mut rn = self.read_node(r)?;
        let moved = match &mut rn.kind {
            PagedKind::Leaf { keys, ranks, .. } => Moved::Key(keys.remove(0), ranks.remove(0)),
            PagedKind::Interior { seps, children } => {
                if !seps.is_empty() {
                    seps.remove(0);
                }
                Moved::Child(children.remove(0))
            }
        };
        self.store_node(r, &rn)?;
        let mut idn = self.read_node(id)?;
        match moved {
            Moved::Key(k, rk) => {
                if let PagedKind::Leaf { keys, ranks, .. } = &mut idn.kind {
                    keys.push(k);
                    ranks.push(rk);
                }
            }
            Moved::Child(c) => {
                if let PagedKind::Interior { children, .. } = &mut idn.kind {
                    children.push(c);
                }
            }
        }
        self.store_node(id, &idn)?;
        self.rebuild_seps(id)?;
        self.rebuild_seps(r)?;
        self.refresh_bounds(id)?;
        self.refresh_bounds(r)?;
        let new_lo = self.read_node(r)?.lo;
        let mut p = self.read_node(parent)?;
        if let PagedKind::Interior { seps, .. } = &mut p.kind {
            seps[cpos] = new_lo;
        }
        self.store_node(parent, &p)
    }

    /// Folds `r` into its left sibling `l`, tombstoning `r` and freeing
    /// its extent.
    fn merge_into_left(
        &mut self,
        parent: NodeId,
        sep_idx: usize,
        l: NodeId,
        r: NodeId,
    ) -> Result<()> {
        enum Contents {
            Leaf(Vec<Key>, Vec<u64>, Option<NodeId>),
            Interior(Vec<NodeId>),
        }
        let mut rn = self.read_node(r)?;
        let contents = match &mut rn.kind {
            PagedKind::Leaf { keys, ranks, next } => {
                Contents::Leaf(std::mem::take(keys), std::mem::take(ranks), next.take())
            }
            PagedKind::Interior { seps, children } => {
                seps.clear();
                Contents::Interior(std::mem::take(children))
            }
        };
        rn.dead = true;
        self.kill_node(r, rn)?;
        let mut ln = self.read_node(l)?;
        match contents {
            Contents::Leaf(k, rk, nxt) => {
                if let PagedKind::Leaf { keys, ranks, next } = &mut ln.kind {
                    keys.extend(k);
                    ranks.extend(rk);
                    *next = nxt;
                }
            }
            Contents::Interior(cs) => {
                if let PagedKind::Interior { children, .. } = &mut ln.kind {
                    children.extend(cs);
                }
            }
        }
        self.store_node(l, &ln)?;
        self.rebuild_seps(l)?;
        self.refresh_bounds(l)?;
        let mut p = self.read_node(parent)?;
        if let PagedKind::Interior { seps, children } = &mut p.kind {
            seps.remove(sep_idx);
            children.remove(sep_idx + 1);
        }
        self.store_node(parent, &p)
    }
}

/// Byte-slice reader for the directory blob.
struct DirReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> DirReader<'a> {
    fn take(&mut self, n: usize) -> std::result::Result<&'a [u8], String> {
        if self.pos + n > self.bytes.len() {
            return Err(format!("truncated at offset {}", self.pos));
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> std::result::Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> std::result::Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> std::result::Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
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
        // Full structural equivalence at the end: every node id yields
        // the same NodeInfo, and every key resolves identically.
        assert_eq!(sim.node_count(), paged.node_count());
        assert_eq!(WalkIndex::depth(&sim), paged.depth());
        for id in 0..sim.node_count() as NodeId {
            let e = sim.export_node(id);
            if e.dead {
                continue;
            }
            let node = paged.read_node(id).unwrap();
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
        let dir = std::env::temp_dir().join(format!("metal-pt-reopen-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tree.blk");
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
        std::fs::remove_file(&path).unwrap();
        let _ = std::fs::remove_dir(&dir);
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
}
