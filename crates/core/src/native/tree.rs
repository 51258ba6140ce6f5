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
//! Node contents live in block-file extents; per node, memory holds a
//! small placement record (`NodeMeta`) and one slot of a dense table of
//! decoded copies. A copy is either **hot** — it mirrors an IX-cache
//! admission, so a cache hit resolves its node pointer without touching
//! the page layer (the "software fast path" the native backend measures)
//! — or **staged**: an MLP scout read it ahead of demand. Reads borrow
//! a held copy ([`PagedTree::with_node`]) instead of cloning it; only a
//! cold read decodes, into a node the caller then owns. Nodes merged
//! away have their extents returned to the free list; their emptied
//! contents survive as in-memory tombstones so a racing cached pointer
//! resolves exactly as it does in the simulator (which keeps dead nodes
//! in its node vector).
//!
//! A mutation works on a **frame set**: each node it touches is decoded
//! once, on first touch, into a frame; `get_mut` marks the frame dirty;
//! when the operation ends every dirty frame is encoded and written
//! exactly once (a dead one becomes a tombstone instead), the held copy
//! of each written node is replaced, and the set is dropped. Frames
//! exist only inside `insert_key` / `delete_key` — the read path never
//! consults them — and an operation that fails before its flush has
//! written nothing to the block file.

use super::blockfile::{BlockFile, BlockFileError, Result};
use super::codec::PagedNode;
use metal_index::bpnode::Reader;
use metal_index::bptree::{BPlusTree, MutationReport, TreeShape};
use metal_index::nodestore::{self, NodeStore};
use metal_index::walk::Descend;
use metal_index::{Arena, NodeId, NodeInfo, WalkIndex};
use metal_sim::types::{Addr, Key};
use std::collections::HashMap;
use std::time::Instant;

/// Capacity of the prefetch stage, in decoded nodes scouts read ahead
/// of demand. A prefetch into a full stage evicts by clock: the hand
/// sweeps the ring, clearing the reference bit a staged hit set, and
/// replaces the first node nobody read since the hand last passed it.
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

/// Which decoded copy of a node the tree holds in memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Residency {
    /// None: a read goes to the page layer (or, for a dead node, to its
    /// tombstone).
    Cold,
    /// Mirrors an IX-cache resident; dropped by `retain_hot`.
    Hot,
    /// Read ahead of demand by a scout; in the clock ring at `slot`.
    Staged,
}

/// In-memory placement record of one node (its arena slot is its id).
#[derive(Debug, Clone, Copy)]
struct NodeMeta {
    /// Head page of the node's extent ([`NO_PAGE`] when `dead`).
    page: u64,
    /// True once the node was merged away: its extent is freed and its
    /// emptied contents live in the tombstone map. A dead node is never
    /// held.
    dead: bool,
    /// Which copy `PagedTree::copies` holds for the node.
    residency: Residency,
    /// Clock reference bit of a staged node: set by a staged hit,
    /// cleared when the hand passes.
    referenced: bool,
    /// Position in the stage ring while `Staged`.
    slot: u32,
}

impl NodeMeta {
    fn new(page: u64, dead: bool) -> Self {
        NodeMeta {
            page,
            dead,
            residency: Residency::Cold,
            referenced: false,
            slot: 0,
        }
    }
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

/// Page-layer access counters for one tree. Every node read — owned
/// ([`PagedTree::read_node`]) or borrowed ([`PagedTree::with_node`]) —
/// bumps exactly one of `hot_hits`, `staged_hits` and `cold_reads`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TreeIoStats {
    /// Node reads served from a hot copy, or from a dead node's
    /// tombstone (no page touched either way).
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
pub(crate) fn ns_since(t0: Instant) -> u64 {
    ns_between(t0, Instant::now())
}

fn ns_between(t0: Instant, t1: Instant) -> u64 {
    t1.duration_since(t0).as_nanos().min(u128::from(u64::MAX)) as u64
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
    /// Decoded copies indexed by node id, hot or staged as
    /// `NodeMeta::residency` says; `None` for a cold node. Boxed, so an
    /// empty slot costs one word. A flush replaces the copy of every
    /// node it writes and drops the copy of a node that died, so a copy
    /// always equals its page.
    copies: Vec<Option<Box<PagedNode>>>,
    /// Clock ring of the staged node ids (at most [`STAGE_CAP`]).
    stage: Vec<NodeId>,
    /// Clock hand: the ring slot a full stage examines next.
    hand: usize,
    /// Page buffer every load reads into, reused across loads.
    page_buf: Vec<u8>,
    /// Emptied contents of merged-away nodes (extent freed).
    tombstones: HashMap<NodeId, PagedNode>,
    /// The mutation in flight's nodes, in first-touch order (the order
    /// the flush writes them in); empty between operations.
    frames: Vec<Frame>,
    io: TreeIoStats,
}

/// A node a walk fetched: its id, its info and — when the read was
/// cold — the decoded contents, now the caller's. A node read from a
/// held copy comes back without contents; the copy stays where it is.
pub type FetchedNode = (NodeId, NodeInfo, Option<PagedNode>);

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
            meta.push(NodeMeta::new(page, dead));
        }
        Ok(Self::assemble(
            file,
            meta,
            arena,
            shape,
            mut_boundary,
            tombstones,
        ))
    }

    /// A tree with nothing held in memory yet.
    fn assemble(
        file: BlockFile,
        meta: Vec<NodeMeta>,
        arena: Arena,
        shape: TreeShape,
        mut_boundary: Option<NodeId>,
        tombstones: HashMap<NodeId, PagedNode>,
    ) -> Self {
        PagedTree {
            file,
            copies: vec![None; meta.len()],
            meta,
            arena,
            shape,
            mut_boundary,
            stage: Vec::new(),
            hand: 0,
            page_buf: Vec::new(),
            tombstones,
            frames: Vec::new(),
            io: TreeIoStats::default(),
        }
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
            meta.push(NodeMeta::new(page, dead));
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
        Ok(Self::assemble(
            file,
            meta,
            arena,
            shape,
            mut_boundary,
            tombstones,
        ))
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

    /// Reads node `id` into a node the caller owns: a clone of its hot
    /// copy when the IX-cache keeps it resident, of its staged copy when
    /// an MLP scout read it ahead of demand, of its tombstone when
    /// merged away, else the node decoded from the page layer (moved
    /// out, not cloned). [`PagedTree::with_node`] reads without the
    /// clone.
    pub fn read_node(&mut self, id: NodeId) -> Result<PagedNode> {
        match self.read(id)? {
            Some(node) => Ok(node),
            None => self.resident(id).cloned(),
        }
    }

    /// Reads node `id` and hands `visit` a borrow of it with the tree's
    /// arena and shape (what [`Node::info`](PagedNode::info) and
    /// [`Node::descend`](PagedNode::descend) need). Counts exactly as
    /// [`PagedTree::read_node`] does; copies nothing.
    pub fn with_node<R>(
        &mut self,
        id: NodeId,
        visit: impl FnOnce(&PagedNode, &Arena, &TreeShape) -> R,
    ) -> Result<R> {
        Ok(self.visit(id, visit)?.0)
    }

    /// [`PagedTree::with_node`] that also returns the node a cold read
    /// decoded (`None` when an in-memory copy served the read).
    fn visit<R>(
        &mut self,
        id: NodeId,
        visit: impl FnOnce(&PagedNode, &Arena, &TreeShape) -> R,
    ) -> Result<(R, Option<PagedNode>)> {
        let cold = self.read(id)?;
        let node = match &cold {
            Some(node) => node,
            None => self.resident(id)?,
        };
        Ok((visit(node, &self.arena, &self.shape), cold))
    }

    /// Counts one read of node `id` and decodes it from its page when no
    /// in-memory copy can serve it; `None` means [`PagedTree::resident`]
    /// has it (a hot or staged copy, or a tombstone). A staged hit sets
    /// the node's clock reference bit.
    fn read(&mut self, id: NodeId) -> Result<Option<PagedNode>> {
        let m = self.meta_of(id)?;
        match m.residency {
            Residency::Hot => self.io.hot_hits += 1,
            Residency::Staged => {
                self.io.staged_hits += 1;
                self.meta[id as usize].referenced = true;
            }
            Residency::Cold if m.dead => self.io.hot_hits += 1,
            Residency::Cold => {
                let node = self.load_node(id, m.page, false)?;
                self.io.cold_reads += 1;
                return Ok(Some(node));
            }
        }
        Ok(None)
    }

    /// The in-memory contents of node `id`: its held copy, else its
    /// tombstone.
    fn resident(&self, id: NodeId) -> Result<&PagedNode> {
        if let Some(node) = self.copies.get(id as usize).and_then(|c| c.as_deref()) {
            return Ok(node);
        }
        self.tombstones.get(&id).ok_or_else(|| {
            BlockFileError::new(format!(
                "{}: node {id} is dead but has no tombstone",
                self.file.path().display()
            ))
        })
    }

    fn meta_of(&self, id: NodeId) -> Result<NodeMeta> {
        self.meta.get(id as usize).copied().ok_or_else(|| {
            BlockFileError::new(format!(
                "node {id} out of range (tree has {})",
                self.meta.len()
            ))
        })
    }

    /// Loads node `id`'s extent at `page` into the reused page buffer
    /// (one `pread` unless the node outgrows the first KiB) and decodes
    /// it. `ahead` marks a scout's prefetch. Three clock reads time the
    /// load and the decode.
    fn load_node(&mut self, id: NodeId, page: u64, ahead: bool) -> Result<PagedNode> {
        let t0 = Instant::now();
        let payload = if ahead {
            self.file.prefetch(page, &mut self.page_buf)?
        } else {
            self.file.load_into(page, &mut self.page_buf)?
        };
        let t1 = Instant::now();
        let node = PagedNode::decode(payload).map_err(|e| {
            BlockFileError::new(format!(
                "{}: {}node {id} (page {page}): {e}",
                self.file.path().display(),
                if ahead { "prefetched " } else { "" }
            ))
        })?;
        self.io.page_read_ns += ns_between(t0, t1);
        self.io.decode_ns += ns_since(t1);
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

    /// [`PagedTree::path_from`] that also hands back the contents of
    /// each node a cold read decoded, for a caller about to
    /// [`PagedTree::admit_hot_node`] them.
    pub fn path_nodes_from(
        &mut self,
        from: NodeId,
        key: Key,
    ) -> Result<(Vec<FetchedNode>, Descend)> {
        self.path_with(from, key, |id, info, node| (id, info, node))
    }

    #[inline]
    pub(crate) fn path_with<T>(
        &mut self,
        from: NodeId,
        key: Key,
        keep: impl Fn(NodeId, NodeInfo, Option<PagedNode>) -> T,
    ) -> Result<(Vec<T>, Descend)> {
        let mut path = Vec::with_capacity(self.shape.depth as usize);
        let mut id = from;
        loop {
            let ((info, step), cold) = self.visit(id, |node, arena, shape| {
                (node.info(arena, id), node.descend(key, shape))
            })?;
            path.push(keep(id, info, cold));
            match step {
                Descend::Child(c) => id = c,
                leaf @ Descend::Leaf { .. } => return Ok((path, leaf)),
            }
        }
    }

    /// The extra leaves a range scan visits after landing on `first`.
    /// Reads `first` once for its right link, then each chained leaf
    /// once: `hops + 1` node reads for a full chain.
    pub fn scan_chain(&mut self, first: NodeId, hops: u32) -> Result<Vec<(NodeId, NodeInfo)>> {
        self.chain_with(first, hops, |id, info, _| (id, info))
    }

    /// [`PagedTree::scan_chain`] that also hands back the contents of
    /// each leaf a cold read decoded (see [`PagedTree::path_nodes_from`]).
    pub fn scan_chain_nodes(&mut self, first: NodeId, hops: u32) -> Result<Vec<FetchedNode>> {
        self.chain_with(first, hops, |id, info, node| (id, info, node))
    }

    #[inline]
    pub(crate) fn chain_with<T>(
        &mut self,
        first: NodeId,
        hops: u32,
        keep: impl Fn(NodeId, NodeInfo, Option<PagedNode>) -> T,
    ) -> Result<Vec<T>> {
        let mut out = Vec::with_capacity(hops as usize);
        if hops == 0 {
            return Ok(out);
        }
        let mut next = self.with_node(first, |node, _, _| node.next_leaf())?;
        for _ in 0..hops {
            let Some(id) = next else { break };
            let ((info, after), cold) = self.visit(id, |node, arena, _| {
                (node.info(arena, id), node.next_leaf())
            })?;
            out.push(keep(id, info, cold));
            next = after;
        }
        Ok(out)
    }

    /// Mirrors the IX-cache's resident set into the hot copies: `id` is
    /// now cached, so keep its decoded node on the fast path. A staged
    /// node is retagged hot; a cold one is read (and counted) first. A
    /// dead node is never held — its tombstone already serves reads.
    pub fn admit_hot(&mut self, id: NodeId) -> Result<()> {
        let m = self.meta_of(id)?;
        match m.residency {
            Residency::Hot => {}
            Residency::Staged => {
                self.unstage(id);
                self.meta[id as usize].residency = Residency::Hot;
            }
            Residency::Cold if m.dead => {}
            Residency::Cold => {
                let node = self.load_node(id, m.page, false)?;
                self.io.cold_reads += 1;
                self.hold_hot(id, node);
            }
        }
        Ok(())
    }

    /// [`PagedTree::admit_hot`] for a caller that fetched `id` through
    /// [`PagedTree::path_nodes_from`] or [`PagedTree::scan_chain_nodes`]
    /// with no write to the tree since: the `node` a cold read handed
    /// back becomes the hot copy, so the page is not read a second time.
    pub fn admit_hot_node(&mut self, id: NodeId, node: Option<PagedNode>) -> Result<()> {
        let m = self.meta_of(id)?;
        match node {
            Some(node) if m.residency == Residency::Cold && !m.dead => {
                self.hold_hot(id, node);
                Ok(())
            }
            _ => self.admit_hot(id),
        }
    }

    fn hold_hot(&mut self, id: NodeId, node: PagedNode) {
        self.copies[id as usize] = Some(Box::new(node));
        self.meta[id as usize].residency = Residency::Hot;
    }

    /// Drops hot copies the IX-cache no longer references.
    pub fn retain_hot(&mut self, keep: impl Fn(NodeId) -> bool) {
        for (id, m) in self.meta.iter_mut().enumerate() {
            if m.residency == Residency::Hot && !keep(id as NodeId) {
                m.residency = Residency::Cold;
                self.copies[id] = None;
            }
        }
    }

    /// Number of nodes currently on the hot fast path.
    pub fn hot_len(&self) -> usize {
        self.meta
            .iter()
            .filter(|m| m.residency == Residency::Hot)
            .count()
    }

    /// Reads node `id` ahead of demand on behalf of an MLP scout.
    ///
    /// Already-decoded nodes (hot, staged, tombstones) get a CPU
    /// prefetch hint on their in-memory contents; everything else is
    /// read through [`BlockFile::prefetch`], decoded once, and staged
    /// so the demand read that follows is page-free. The stage holds
    /// at most `STAGE_CAP` (4096) nodes; a prefetch into a full stage
    /// evicts the clock's victim. Prefetching is a pure performance
    /// hint: it never changes what any later [`PagedTree::read_node`]
    /// returns.
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
        let m = self.meta_of(id)?;
        if m.residency != Residency::Cold || m.dead {
            if let Some(node) = self.peek_node(id) {
                prefetch_hint(node as *const PagedNode);
            }
            return Ok(());
        }
        let node = self.load_node(id, m.page, true)?;
        self.io.prefetched += 1;
        self.stage_node(id, node);
        Ok(())
    }

    /// Puts the cold node `id` on the stage, evicting the clock's victim
    /// when the stage is full (its box is reused for the newcomer).
    fn stage_node(&mut self, id: NodeId, node: PagedNode) {
        let slot = if self.stage.len() < STAGE_CAP {
            self.copies[id as usize] = Some(Box::new(node));
            self.stage.push(id);
            self.stage.len() - 1
        } else {
            let slot = loop {
                let at = self.hand;
                self.hand = (at + 1) % self.stage.len();
                let victim = &mut self.meta[self.stage[at] as usize];
                if victim.referenced {
                    victim.referenced = false;
                } else {
                    victim.residency = Residency::Cold;
                    break at;
                }
            };
            let copy = match self.copies[self.stage[slot] as usize].take() {
                Some(mut copy) => {
                    *copy = node;
                    copy
                }
                None => Box::new(node),
            };
            self.copies[id as usize] = Some(copy);
            self.stage[slot] = id;
            slot
        };
        let m = &mut self.meta[id as usize];
        m.residency = Residency::Staged;
        m.referenced = false;
        m.slot = slot as u32;
    }

    /// Takes the staged node `id` out of the clock ring (its copy stays
    /// in the table; the caller retags or drops it).
    fn unstage(&mut self, id: NodeId) {
        let slot = self.meta[id as usize].slot as usize;
        self.stage.swap_remove(slot);
        if let Some(&moved) = self.stage.get(slot) {
            self.meta[moved as usize].slot = slot as u32;
        }
    }

    /// Drops whatever copy of node `id` is held.
    fn drop_copy(&mut self, id: NodeId) {
        if self.meta[id as usize].residency == Residency::Staged {
            self.unstage(id);
        }
        self.meta[id as usize].residency = Residency::Cold;
        self.copies[id as usize] = None;
    }

    /// Contents of node `id` if resident on a zero-I/O path (hot,
    /// staged or tombstone), else `None`. Scouts descend through this
    /// so their speculative walk touches no page, bumps no demand
    /// counter and sets no reference bit.
    pub fn peek_node(&self, id: NodeId) -> Option<&PagedNode> {
        self.copies
            .get(id as usize)
            .and_then(|c| c.as_deref())
            .or_else(|| self.tombstones.get(&id))
    }

    /// Drops every staged prefetch.
    pub fn clear_stage(&mut self) {
        for id in self.stage.drain(..) {
            self.meta[id as usize].residency = Residency::Cold;
            self.copies[id as usize] = None;
        }
        self.hand = 0;
    }

    /// Number of nodes currently staged by prefetches.
    pub fn staged_len(&self) -> usize {
        self.stage.len()
    }

    /// Checks every held copy against the page layer: a hot or staged
    /// copy encodes to exactly the payload of its node's current extent
    /// (the codec round-trips, so this is node equality), no dead node
    /// is held, and the clock ring and the residency tags agree. The
    /// check's page loads count in [`PagedTree::file_stats`], not as
    /// node reads.
    pub fn check_copies(&mut self) -> std::result::Result<(), String> {
        let mut staged = 0;
        for id in 0..self.meta.len() {
            let m = self.meta[id];
            let Some(copy) = self.copies[id].as_deref() else {
                if m.residency != Residency::Cold {
                    return Err(format!("node {id}: {:?} but no copy held", m.residency));
                }
                continue;
            };
            match m.residency {
                Residency::Cold => return Err(format!("node {id}: a copy is held untagged")),
                Residency::Hot => {}
                Residency::Staged => {
                    staged += 1;
                    if self.stage.get(m.slot as usize) != Some(&(id as NodeId)) {
                        return Err(format!("node {id}: not in stage slot {}", m.slot));
                    }
                }
            }
            if m.dead {
                return Err(format!("node {id}: dead but held ({:?})", m.residency));
            }
            let page = self
                .file
                .load_into(m.page, &mut self.page_buf)
                .map_err(|e| format!("node {id}: {e}"))?;
            if page != copy.encode() {
                return Err(format!(
                    "node {id}: {:?} copy differs from page {}",
                    m.residency, m.page
                ));
            }
        }
        if staged != self.stage.len() {
            return Err(format!(
                "{staged} staged nodes but {} ring slots",
                self.stage.len()
            ));
        }
        Ok(())
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
    /// tombstone. Invalidation is per node: the held copy (hot or
    /// staged) of each node written is replaced by what was written, a
    /// dead node's copy is dropped before it becomes a tombstone, and
    /// every other copy stays — nothing else changed under it. New
    /// nodes are never held, so no copy ever shadows the page layer.
    fn flush(&mut self) -> Result<()> {
        let mut frames = std::mem::take(&mut self.frames);
        let written = frames.drain(..).try_for_each(|f| self.write_frame(f));
        self.frames = frames;
        written
    }

    fn write_frame(&mut self, Frame { id, node, dirty }: Frame) -> Result<()> {
        if !dirty {
            return Ok(());
        }
        let page = self.meta[id as usize].page;
        if node.dead {
            self.file.free_extent(page)?;
            self.drop_copy(id);
            self.meta[id as usize] = NodeMeta::new(NO_PAGE, true);
            self.tombstones.insert(id, node);
            return Ok(());
        }
        let bytes = node.encode();
        self.meta[id as usize].page = match page {
            NO_PAGE => self.file.store(&bytes)?,
            page => self.file.update(page, &bytes)?,
        };
        self.io.node_writes += 1;
        if let Some(copy) = self.copies[id as usize].as_deref_mut() {
            *copy = node;
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
        self.meta.push(NodeMeta::new(NO_PAGE, false));
        self.copies.push(None);
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
    fn prefetch_stages_cold_nodes_and_writes_keep_every_copy_coherent() {
        // Depth 6: three keys per leaf, two children per interior node.
        let ks = keys(96, 4);
        let sim = BPlusTree::bulk_load_geometry(&ks, 3, 2, Addr::new(0), 16);
        let mut paged = materialize_tree(&sim).unwrap();
        assert!(paged.depth() >= 6);
        let root = paged.root();

        // Cold prefetch: pays the page read once, stages the node; the
        // demand read is then page-free and counted as a staged hit.
        paged.prefetch_node(root).unwrap();
        assert_eq!((paged.staged_len(), paged.io_stats().prefetched), (1, 1));
        assert!(paged.peek_node(root).is_some(), "scouts descend through it");
        let pages_read = paged.file_stats().pages_read;
        let _ = paged.read_node(root).unwrap();
        assert_eq!(paged.io_stats().staged_hits, 1);
        assert_eq!(paged.io_stats().cold_reads, 0);
        assert_eq!(paged.file_stats().pages_read, pages_read);
        // Re-prefetching a held node is free: hint only.
        paged.prefetch_node(root).unwrap();
        assert_eq!(paged.io_stats().prefetched, 1);

        // Stage every node, then make part of the tree hot.
        for id in 0..paged.node_count() as NodeId {
            paged.prefetch_node(id).unwrap();
        }
        for &k in ks.iter().step_by(10) {
            let (path, _) = paged.path_from(root, k).unwrap();
            for (id, _) in path {
                paged.admit_hot(id).unwrap();
            }
        }
        assert!(paged.hot_len() > 0 && paged.staged_len() > 0);
        assert_eq!(paged.check_copies(), Ok(()));

        let mut rng = SplitRng::stream(23, 0x57a6e);
        let (mut applied, mut noops) = (0, 0);
        for op in 0..2000 {
            let before = (paged.stage.clone(), paged.hot_len(), paged.tombstones.len());
            let key = rng.gen_range(0u64..96 * 4 + 8);
            let rep = if rng.gen_range(0u64..2) == 0 {
                paged.insert_key(key).unwrap()
            } else {
                paged.delete_key(key).unwrap()
            };
            if rep.applied {
                if applied == 0 {
                    // Only the copies of nodes that died may go.
                    let died = paged.tombstones.len() - before.2;
                    assert!(
                        paged.staged_len() + died >= before.0.len(),
                        "the first write emptied the stage: {} of {} staged",
                        paged.staged_len(),
                        before.0.len()
                    );
                }
                applied += 1;
            } else {
                noops += 1;
                assert_eq!(paged.stage, before.0, "op {op}: a no-op touched the stage");
                assert_eq!(
                    paged.hot_len(),
                    before.1,
                    "op {op}: a no-op touched the hot copies"
                );
            }
            if let Err(e) = paged.check_copies() {
                panic!("op {op} (key {key}): {e}");
            }
            // Keep both kinds of copy in play as the tree changes.
            if op % 25 == 0 {
                let k = rng.gen_range(0u64..96 * 4);
                let (path, _) = paged.path_from(paged.root(), k).unwrap();
                for (i, (id, _)) in path.into_iter().enumerate() {
                    if i % 2 == 0 {
                        paged.admit_hot(id).unwrap();
                    } else {
                        paged.prefetch_node(id).unwrap();
                    }
                }
            }
        }
        assert!(
            applied > 500 && noops > 100,
            "{applied} applied, {noops} no-ops"
        );
        assert!(
            paged.staged_len() > 0,
            "writes never empty the stage wholesale"
        );
    }

    #[test]
    fn a_full_stage_evicts_by_clock() {
        let sim = BPlusTree::bulk_load(&keys(36_000, 2), 4, Addr::new(0), 16);
        let mut paged = materialize_tree(&sim).unwrap();
        let ids: Vec<NodeId> = (0..paged.node_count() as NodeId).collect();
        assert!(ids.len() > 2 * STAGE_CAP, "{} nodes", ids.len());
        let (first, rest) = ids.split_at(STAGE_CAP);
        for &id in first {
            paged.prefetch_node(id).unwrap();
        }
        assert_eq!(paged.staged_len(), STAGE_CAP);
        let staged =
            |pt: &PagedTree, id: NodeId| pt.meta[id as usize].residency == Residency::Staged;

        // A hit between sweeps buys one full sweep.
        let kept = first[STAGE_CAP / 2];
        let _ = paged.read_node(kept).unwrap();
        for &id in &rest[..STAGE_CAP - 1] {
            paged.prefetch_node(id).unwrap();
        }
        assert_eq!(
            paged.staged_len(),
            STAGE_CAP,
            "a full stage evicts, never drops"
        );
        assert!(
            staged(&paged, kept),
            "the referenced node survived the sweep"
        );
        assert!(
            first.iter().all(|&id| id == kept || !staged(&paged, id)),
            "every unreferenced node of the first fill was evicted"
        );
        // Without another hit it does not survive the next one.
        for &id in first
            .iter()
            .filter(|&&id| id != kept)
            .chain(&rest[STAGE_CAP - 1..STAGE_CAP])
        {
            paged.prefetch_node(id).unwrap();
        }
        assert_eq!(paged.staged_len(), STAGE_CAP);
        assert!(!staged(&paged, kept), "an unreferenced node is evicted");
        assert_eq!(paged.io_stats().prefetched, 3 * STAGE_CAP as u64 - 1);
        assert_eq!(paged.check_copies(), Ok(()));

        paged.clear_stage();
        assert_eq!(paged.staged_len(), 0);
        assert!(ids.iter().all(|&id| paged.peek_node(id).is_none()));
        assert_eq!(paged.check_copies(), Ok(()));
    }

    #[test]
    fn a_scan_chain_reads_each_leaf_once() {
        let sim = BPlusTree::bulk_load(&keys(400, 2), 4, Addr::new(0), 16);
        let mut paged = materialize_tree(&sim).unwrap();
        let first = paged
            .path_from(paged.root(), 0)
            .unwrap()
            .0
            .last()
            .unwrap()
            .0;
        for hops in [1u32, 5, 12] {
            let before = reads(&paged);
            let chain = paged.scan_chain(first, hops).unwrap();
            assert_eq!(chain.len(), hops as usize);
            assert_eq!(reads(&paged) - before, u64::from(hops) + 1, "{hops} hops");
        }
        // Mixed residency: the count is the same, and only cold leaves
        // come back with their contents.
        let chain = paged.scan_chain(first, 12).unwrap();
        paged.admit_hot(chain[2].0).unwrap();
        paged.prefetch_node(chain[5].0).unwrap();
        let (io, before) = (paged.io_stats(), reads(&paged));
        let fetched = paged.scan_chain_nodes(first, 12).unwrap();
        assert_eq!(reads(&paged) - before, 13);
        let now = paged.io_stats();
        assert_eq!(
            (now.hot_hits - io.hot_hits, now.staged_hits - io.staged_hits),
            (1, 1)
        );
        for (i, (_, _, node)) in fetched.iter().enumerate() {
            assert_eq!(node.is_none(), i == 2 || i == 5, "leaf {i}");
        }
        // Borrowed and owned reads each count once.
        let before = reads(&paged);
        paged.with_node(first, |_, _, _| ()).unwrap();
        let _ = paged.read_node(first).unwrap();
        assert_eq!(reads(&paged) - before, 2);
        // A chain that ends early stops reading.
        let last = paged
            .path_from(paged.root(), 798)
            .unwrap()
            .0
            .last()
            .unwrap()
            .0;
        let before = reads(&paged);
        assert!(paged.scan_chain(last, 4).unwrap().is_empty());
        assert_eq!(reads(&paged) - before, 1);
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
            let node = node.expect("a cold read hands its node back");
            assert_eq!(node.encode(), paged.read_node(id).unwrap().encode());
            paged.admit_hot_node(id, Some(node)).unwrap();
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
            let node = node.expect("chained leaves are cold");
            assert_eq!(node.encode(), paged.read_node(id).unwrap().encode());
        }
        // A held node comes back without contents: the copy stays put.
        let (fetched, _) = paged.path_nodes_from(root, key).unwrap();
        assert!(fetched.iter().all(|(_, _, node)| node.is_none()));
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
