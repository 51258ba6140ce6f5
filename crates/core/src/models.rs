//! Per-design walk models: how each cache organization executes a walk.
//!
//! One [`DesignModel`] exists per compared organization (paper §5):
//!
//! - **Stream** — the streaming DSA baseline: no index reuse, every node
//!   access goes to DRAM.
//! - **Address** — set-associative LRU address cache; walks always
//!   traverse root-to-leaf, a hit merely replaces one DRAM access.
//! - **FA-OPT** — fully-associative address cache with Belady replacement,
//!   computed offline from the recorded block trace (§5.1).
//! - **X-Cache** — exact-key leaf cache: hits short-circuit the entire
//!   walk (data on the fast path), misses walk root-to-leaf uncached and
//!   insert the leaf.
//! - **METAL-IX** — the IX-cache alone with the hardwired greedy-insert /
//!   utility-evict policy.
//! - **METAL** — IX-cache + pattern descriptors (+ optional per-batch
//!   parameter tuning).
//!
//! A model *plans* each walk when a lane picks it up: it resolves the
//! cache interactions immediately (every interleaving the engine could
//! produce is a legal serialization) and emits the resulting sequence of
//! timed [`WalkStep`]s — DRAM refills, SRAM hits, node searches, compute —
//! which the `metal-sim` engine then executes with full lane-level
//! memory parallelism and DRAM contention. The streaming and METAL
//! designs plan through the cache-decision kernel (`crate::decide`),
//! the same code the native executor runs.

use crate::decide::{self, id_info, CostSink, MetalState, NodeSource, Obs};
use crate::descriptor::Descriptor;
use crate::ixcache::{IxCache, IxConfig};
use crate::metrics::WindowedWorkingSet;
use crate::request::{OpKind, WalkRequest};
use crate::tuner::Tuner;
use metal_index::arena::NodeId;
use metal_index::bptree::{BPlusTree, MutationReport};
use metal_index::walk::{Descend, NodeInfo, WalkIndex};
use metal_sim::caches::{AddressCache, KeyCache, OptCache};
use metal_sim::engine::{WalkProgram, WalkStep};
use metal_sim::obs::SharedSink;
use metal_sim::stats::RunStats;
use metal_sim::types::{blocks_spanned, Addr, BlockAddr, Cycles, Key};
use metal_sim::SimConfig;
use std::collections::VecDeque;
use std::convert::Infallible;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The indexes and request stream of one experiment.
///
/// Indexes are `Sync` so the sharded runner can walk disjoint request
/// chunks against the same (read-only) structures from worker threads.
#[derive(Clone)]
pub struct Experiment<'a> {
    /// The indexes walks run against (JOIN and R-tree use two).
    pub indexes: Vec<&'a (dyn WalkIndex + Sync)>,
    /// The request stream, in issue order.
    pub requests: &'a [WalkRequest],
}

impl<'a> Experiment<'a> {
    /// Convenience constructor over one index.
    pub fn single(index: &'a (dyn WalkIndex + Sync), requests: &'a [WalkRequest]) -> Self {
        Experiment {
            indexes: vec![index],
            requests,
        }
    }

    /// The same experiment restricted to a contiguous request chunk
    /// (one logical shard of the run).
    pub fn slice(&self, range: std::ops::Range<usize>) -> Experiment<'a> {
        Experiment {
            indexes: self.indexes.clone(),
            requests: &self.requests[range],
        }
    }

    /// Combined footprint of all indexes in 64 B blocks.
    pub fn total_index_blocks(&self) -> u64 {
        self.indexes.iter().map(|i| i.total_blocks()).sum()
    }

    /// Deepest index in the experiment.
    pub fn max_depth(&self) -> u8 {
        self.indexes.iter().map(|i| i.depth()).max().unwrap_or(1)
    }
}

/// Which cache organization to run (paper §5's comparison set).
#[derive(Debug, Clone)]
pub enum DesignSpec {
    /// Streaming DSA: no cache at all.
    Stream,
    /// Set-associative LRU address cache.
    Address {
        /// Total line count (64 B lines).
        entries: usize,
        /// Associativity.
        ways: usize,
    },
    /// Fully-associative address cache with Belady/OPT replacement.
    FaOpt {
        /// Total line count.
        entries: usize,
    },
    /// X-Cache: exact-key leaf cache.
    XCache {
        /// Total line count.
        entries: usize,
        /// Associativity.
        ways: usize,
    },
    /// IX-cache with the hardwired greedy/utility policy (no patterns).
    MetalIx {
        /// IX-cache geometry.
        ix: IxConfig,
    },
    /// Full METAL: IX-cache + one descriptor per index (+ tuning).
    Metal {
        /// IX-cache geometry.
        ix: IxConfig,
        /// One descriptor per experiment index.
        descriptors: Vec<Descriptor>,
        /// Enable per-batch dynamic parameter tuning.
        tune: bool,
        /// Walks per tuning batch.
        batch_walks: u64,
    },
    /// METAL with per-tile *private* IX-caches instead of one shared
    /// cache: the total capacity is split evenly across the lanes, and a
    /// lane only probes its own slice. The paper's supplemental result
    /// (Table 3) finds the shared organization better because probes are
    /// sparse (one every 70–180 cycles per tile) while sharing multiplies
    /// reach.
    MetalPrivate {
        /// *Total* IX-cache geometry (split across lanes).
        ix: IxConfig,
        /// One descriptor per experiment index.
        descriptors: Vec<Descriptor>,
    },
}

impl DesignSpec {
    /// Human-readable label used in harness output.
    pub fn label(&self) -> &'static str {
        match self {
            DesignSpec::Stream => "stream",
            DesignSpec::Address { .. } => "address",
            DesignSpec::FaOpt { .. } => "fa-opt",
            DesignSpec::XCache { .. } => "x-cache",
            DesignSpec::MetalIx { .. } => "metal-ix",
            DesignSpec::Metal { .. } => "metal",
            DesignSpec::MetalPrivate { .. } => "metal-private",
        }
    }
}

enum CacheState {
    Stream,
    Address(AddressCache),
    FaOpt {
        /// Per-request per-access OPT hit decisions.
        hits: Vec<Vec<bool>>,
    },
    XCache(KeyCache),
    Metal(MetalState),
}

/// The walk model: owns the cache under test, all statistics, and the
/// per-lane step queues the engine drains.
pub struct DesignModel<'a> {
    exp: &'a Experiment<'a>,
    cfg: SimConfig,
    state: CacheState,
    /// Mutable clones of the experiment's B+trees, populated only when
    /// the request stream (or shard prefix) contains write ops. Walks
    /// against index `i` use `own_trees[i]` when present so inserts and
    /// deletes restructure a model-private tree; read-only runs leave
    /// this empty and walk the shared indexes untouched.
    own_trees: Vec<Option<BPlusTree>>,
    /// Per-lane planned steps.
    lanes: Vec<VecDeque<WalkStep>>,
    cursor: usize,
    /// Statistics being accumulated (merged into the final report).
    pub stats: RunStats,
    ws: WindowedWorkingSet,
    /// Optional telemetry sink; observe-only (see `metal_sim::obs`).
    sink: Option<SharedSink>,
    /// Latest simulated cycle seen from the engine; model-side events are
    /// stamped with it (plan-time ≈ the lane's last wake time).
    now: u64,
    /// Optional cross-thread walk counter for heartbeat reporting.
    progress: Option<Arc<AtomicU64>>,
    /// METAL's tile-local scratchpad (§3: "a local scratchpad for staging
    /// the leaf data objects and capturing immediate reuse of fields
    /// within the object"); METAL designs only.
    scratch: Option<AddressCache>,
}

/// Unwraps the result of a simulator walk, which cannot fail.
fn ok<T>(r: Result<T, Infallible>) -> T {
    match r {
        Ok(v) => v,
        Err(e) => match e {},
    }
}

/// The simulator's node source: one index as walks traverse it — the
/// model-private mutable clone when the run has writes, else the
/// experiment's shared read-only index.
enum SimNodes<'b> {
    Own(&'b mut BPlusTree),
    Shared(&'b dyn WalkIndex),
}

impl<'b> SimNodes<'b> {
    fn new(own: &'b mut [Option<BPlusTree>], exp: &'b Experiment<'b>, idx: usize) -> Self {
        match own.get_mut(idx).and_then(Option::as_mut) {
            Some(tree) => SimNodes::Own(tree),
            None => SimNodes::Shared(exp.indexes[idx]),
        }
    }

    fn index(&self) -> &dyn WalkIndex {
        match self {
            SimNodes::Own(tree) => &**tree,
            SimNodes::Shared(index) => *index,
        }
    }
}

impl NodeSource for SimNodes<'_> {
    type Held = ();
    type Error = Infallible;

    fn root(&self) -> NodeId {
        self.index().root()
    }

    fn depth(&self) -> u8 {
        self.index().depth()
    }

    fn node_bytes(&self, id: NodeId) -> u64 {
        self.index().node(id).bytes
    }

    fn access(&self, id: NodeId, _info: &NodeInfo, key: Key) -> (Addr, u64) {
        self.index().access_for(id, key)
    }

    fn descend(&mut self, id: NodeId, key: Key) -> Result<Descend, Infallible> {
        Ok(self.index().descend(id, key))
    }

    fn path_from<T>(
        &mut self,
        from: NodeId,
        key: Key,
        keep: impl Fn(NodeId, NodeInfo, ()) -> T,
    ) -> Result<(Vec<T>, Descend), Infallible> {
        let index = self.index();
        let mut path = Vec::with_capacity(index.depth() as usize);
        let mut id = from;
        loop {
            path.push(keep(id, index.node(id), ()));
            match index.descend(id, key) {
                Descend::Child(c) => id = c,
                leaf @ Descend::Leaf { .. } => return Ok((path, leaf)),
            }
        }
    }

    fn scan_chain<T>(
        &mut self,
        first: NodeId,
        hops: u32,
        keep: impl Fn(NodeId, NodeInfo, ()) -> T,
    ) -> Result<Vec<T>, Infallible> {
        let index = self.index();
        let mut out = Vec::with_capacity(hops as usize);
        let mut cur = first;
        for _ in 0..hops {
            let Some(n) = index.next_leaf(cur) else { break };
            out.push(keep(n, index.node(n), ()));
            cur = n;
        }
        Ok(out)
    }

    fn mutate(&mut self, req: &WalkRequest) -> Result<Option<MutationReport>, Infallible> {
        Ok(match self {
            SimNodes::Own(tree) => Some(DesignModel::apply_write_op(tree, req)),
            SimNodes::Shared(_) => None,
        })
    }
}

/// The simulator's cost sink: plans a walk's timed steps and charges its
/// energy and working-set touches.
struct SimCost<'m> {
    steps: &'m mut VecDeque<WalkStep>,
    stats: &'m mut RunStats,
    ws: &'m mut WindowedWorkingSet,
    cfg: &'m SimConfig,
    /// The model's scratchpad (METAL designs); `None` streams records
    /// from DRAM.
    scratch: Option<&'m mut AddressCache>,
}

/// Where a unified-cache design's block probes are answered.
enum Unified<'c> {
    /// The set-associative LRU address cache, probed online.
    Lru(&'c mut AddressCache),
    /// FA-OPT's offline Belady decisions for this request, in trace order.
    Opt(std::vec::IntoIter<bool>),
}

impl SimCost<'_> {
    /// One node search by the walker FSM.
    fn search(&mut self) {
        self.steps.push_back(WalkStep::Busy {
            cycles: self.cfg.node_search_latency,
        });
        self.stats.walker_energy_fj = self
            .stats
            .walker_energy_fj
            .saturating_add(self.cfg.energy.walker_fj);
    }

    fn charge(&mut self, fj: u64) {
        self.stats.cache_energy_fj = self.stats.cache_energy_fj.saturating_add(fj);
    }

    /// Fetches every node of `nodes` from DRAM, each searched for `key`
    /// (else for its own low key).
    fn fetch_all(&mut self, src: &SimNodes<'_>, nodes: &[(NodeId, NodeInfo)], key: Option<Key>) {
        for (id, info) in nodes {
            let (addr, bytes) = src.access(*id, info, key.unwrap_or(info.lo));
            self.fetched(addr, bytes);
        }
    }

    /// `ops` of post-walk compute on the tile.
    fn compute(&mut self, ops: u64) {
        if ops > 0 {
            let cycles = ops.div_ceil(self.cfg.tile_ops_per_cycle);
            self.steps.push_back(WalkStep::Busy {
                cycles: Cycles::new(cycles),
            });
            self.stats.compute_ops += ops;
            self.stats.compute_energy_fj = self
                .stats
                .compute_energy_fj
                .saturating_add(ops.saturating_mul(self.cfg.energy.op_fj));
        }
    }

    /// A walk through a unified (MAD/Widx-style) cache: root to leaf and
    /// along the scan chain with every node's blocks probed, then the
    /// record. Data objects allocate in the unified cache too and compete
    /// with index blocks; METAL's headline is decoupling index-metadata
    /// reuse from data reuse, so only these designs do this.
    fn unified_walk(
        &mut self,
        src: &mut SimNodes<'_>,
        mut cache: Unified<'_>,
        req: &WalkRequest,
    ) -> Descend {
        let (path, leaf) = ok(src.path_from(src.root(), req.key, id_info));
        let chain = ok(src.scan_chain(path[path.len() - 1].0, req.scan_leaves, id_info));
        for (n, (id, info)) in path.iter().chain(&chain).enumerate() {
            // FA-OPT probes the blocks its offline trace recorded.
            let key = match (&cache, n < path.len()) {
                (Unified::Opt(_), _) => req.key.max(info.lo),
                (Unified::Lru(_), true) => req.key,
                (Unified::Lru(_), false) => info.lo,
            };
            let (addr, bytes) = src.access(*id, info, key);
            self.unified_node(&mut cache, addr, bytes);
        }
        if matches!(leaf, Descend::Leaf { found: true, .. }) {
            self.stats.found_walks += 1;
        }
        if let Some((addr, bytes)) = decide::record(&leaf) {
            self.steps.push_back(WalkStep::Sram {
                cycles: self.cfg.hierarchy_hit_latency,
            });
            if !self.unified_probe(&mut cache, addr.block()) {
                self.stats.misses += 1;
                self.stats.inserts += 1;
                self.steps.push_back(WalkStep::Dram { addr, bytes });
            }
        }
        leaf
    }

    /// One unified-cache probe of `block`.
    fn unified_probe(&mut self, cache: &mut Unified<'_>, block: BlockAddr) -> bool {
        self.stats.probes += 1;
        self.charge(self.cfg.energy.addr_access_fj);
        match cache {
            Unified::Lru(c) => c.access(block),
            Unified::Opt(decisions) => decisions.next().unwrap_or(false),
        }
    }

    /// Unified-cache node access: a multi-block node probes the cache per
    /// spanned block; missing blocks are fetched individually (they
    /// pipeline across DRAM banks).
    fn unified_node(&mut self, cache: &mut Unified<'_>, addr: Addr, bytes: u64) {
        // MAD/Widx walk through the general cache hierarchy: every block
        // touch pays the hierarchy traversal, hit or miss.
        let lat = self.cfg.hierarchy_hit_latency;
        let n_blocks = blocks_spanned(addr, bytes).max(1);
        let mut any_miss = false;
        // Consecutive missing blocks coalesce into one burst (the miss
        // handler fetches the gap with a single DRAM transaction train).
        let mut run_start: Option<u64> = None;
        let mut run_len = 0u64;
        for i in 0..=n_blocks {
            let block = Addr::new(addr.get() + i * 64);
            let missing = i < n_blocks && {
                if self.unified_probe(cache, block.block()) {
                    self.steps.push_back(WalkStep::Sram { cycles: lat });
                    false
                } else {
                    any_miss = true;
                    self.stats.misses += 1;
                    self.stats.inserts += 1;
                    self.ws.touch(block.block());
                    true
                }
            };
            if missing {
                if run_start.is_none() {
                    run_start = Some(block.get());
                    self.steps.push_back(WalkStep::Sram { cycles: lat });
                }
                run_len += 1;
            } else if let Some(start) = run_start.take() {
                self.steps.push_back(WalkStep::Dram {
                    addr: Addr::new(start),
                    bytes: run_len * 64,
                });
                run_len = 0;
            }
        }
        if any_miss {
            self.stats.dram_node_reads += 1;
        }
        self.search();
    }

    /// An X-Cache walk: an exact-key hit short-circuits the entire walk
    /// (data on the fast path); a miss walks root to leaf uncached and
    /// inserts the leaf. Returns the leaf the walk resolved, which a hit
    /// has none of (a write then takes the one a root walk reaches, with
    /// no modeled step).
    fn xcache_walk(
        &mut self,
        src: &mut SimNodes<'_>,
        c: &mut KeyCache,
        req: &WalkRequest,
    ) -> Option<Descend> {
        let addr_fj = self.cfg.energy.addr_access_fj;
        let probe = c.probe(req.key);
        self.stats.probes += 1;
        self.charge(addr_fj);
        if let Some(leaf_token) = probe {
            // Only found keys are ever inserted, so a hit is a find.
            self.steps.push_back(WalkStep::Sram {
                cycles: self.cfg.addr_hit_latency(),
            });
            self.stats.found_walks += 1;
            self.stats.levels_skipped += src.depth() as u64;
            // Range scans continue from the cached leaf.
            let chain = ok(src.scan_chain(leaf_token as NodeId, req.scan_leaves, id_info));
            self.fetch_all(src, &chain, None);
            return req
                .op
                .is_write()
                .then(|| ok(src.path_from(src.root(), req.key, id_info)).1);
        }
        self.steps.push_back(WalkStep::Sram {
            cycles: self.cfg.tag_latency,
        });
        let (path, leaf) = ok(src.path_from(src.root(), req.key, id_info));
        self.fetch_all(src, &path, Some(req.key));
        let leaf_id = path[path.len() - 1].0;
        if matches!(leaf, Descend::Leaf { found: true, .. }) {
            c.insert(req.key, leaf_id as u64);
            self.stats.inserts += 1;
            self.charge(addr_fj);
        }
        self.stats.misses += 1;
        let chain = ok(src.scan_chain(leaf_id, req.scan_leaves, id_info));
        self.fetch_all(src, &chain, None);
        decide::resolve(self, &leaf);
        Some(leaf)
    }
}

impl CostSink for SimCost<'_> {
    fn stats(&mut self) -> &mut RunStats {
        self.stats
    }

    fn probed(&mut self, hit: bool, scan: bool) {
        self.stats.cache_energy_fj = self
            .stats
            .cache_energy_fj
            .saturating_add(self.cfg.energy.ix_access_fj);
        if !scan {
            let cycles = if hit {
                self.cfg.ix_hit_latency()
            } else {
                self.cfg.tag_latency + self.cfg.range_match_latency
            };
            self.steps.push_back(WalkStep::Sram { cycles });
        }
    }

    fn leaf_hit(&mut self) {
        self.steps.push_back(WalkStep::Sram {
            cycles: self.cfg.ix_hit_latency(),
        });
        self.search();
    }

    fn fetched(&mut self, addr: Addr, bytes: u64) {
        self.steps.push_back(WalkStep::Dram { addr, bytes });
        self.search();
        self.stats.dram_node_reads += 1;
        self.ws
            .touch_span(addr.block(), blocks_spanned(addr, bytes));
    }

    fn admitted(&mut self) {
        self.stats.cache_energy_fj = self
            .stats
            .cache_energy_fj
            .saturating_add(self.cfg.energy.ix_access_fj);
    }

    fn value(&mut self, addr: Addr, bytes: u64) {
        if let Some(scratch) = self.scratch.as_deref_mut() {
            self.stats.walker_energy_fj = self
                .stats
                .walker_energy_fj
                .saturating_add(self.cfg.energy.addr_access_fj);
            if scratch.access(addr.block()) {
                self.steps.push_back(WalkStep::Sram {
                    cycles: self.cfg.sram_latency,
                });
                return;
            }
        }
        self.steps.push_back(WalkStep::Dram { addr, bytes });
    }

    fn written(&mut self, addr: Addr, bytes: u64) {
        self.steps.push_back(WalkStep::Dram { addr, bytes });
        self.ws
            .touch_span(addr.block(), blocks_spanned(addr, bytes));
    }
}

impl<'a> DesignModel<'a> {
    /// Builds the model for `spec`, including the offline OPT pass for
    /// [`DesignSpec::FaOpt`]. `ws_window` is the working-set window in
    /// walks.
    pub fn new(spec: &DesignSpec, exp: &'a Experiment<'a>, cfg: SimConfig, ws_window: u64) -> Self {
        Self::new_with_prefix(spec, exp, cfg, ws_window, &[])
    }

    /// Like [`DesignModel::new`], but first replays the write ops of
    /// `prefix` against the model-private trees (no steps, no statistics).
    /// The sharded runner passes the requests preceding a shard's chunk so
    /// every shard walks the same tree state a serial run would reach —
    /// caches still start cold (sharding semantics), only the *structure*
    /// is caught up.
    pub fn new_with_prefix(
        spec: &DesignSpec,
        exp: &'a Experiment<'a>,
        cfg: SimConfig,
        ws_window: u64,
        prefix: &[WalkRequest],
    ) -> Self {
        let any_write = prefix
            .iter()
            .chain(exp.requests.iter())
            .any(|r| r.op.is_write());
        let mut own_trees: Vec<Option<BPlusTree>> = if any_write {
            exp.indexes.iter().map(|i| i.as_bptree().cloned()).collect()
        } else {
            Vec::new()
        };
        for req in prefix {
            Self::replay_write(&mut own_trees, req);
        }
        let state = match (MetalState::new(spec, exp, cfg.lanes), spec) {
            (Some(metal), _) => CacheState::Metal(metal),
            (None, DesignSpec::Address { entries, ways }) => {
                CacheState::Address(AddressCache::new(*entries, *ways))
            }
            (None, DesignSpec::FaOpt { entries }) => CacheState::FaOpt {
                hits: Self::precompute_opt(exp, *entries, &own_trees),
            },
            (None, DesignSpec::XCache { entries, ways }) => {
                CacheState::XCache(KeyCache::new(*entries, *ways))
            }
            (None, _) => CacheState::Stream,
        };
        let scratch = matches!(state, CacheState::Metal(_))
            .then(|| AddressCache::new(cfg.data_scratch_entries, 16));
        let total_blocks = exp.total_index_blocks();
        DesignModel {
            exp,
            cfg,
            state,
            own_trees,
            // One planned-step queue per engine walk *slot*
            // (`lanes × mlp_width`); the engine indexes these by slot.
            lanes: vec![VecDeque::new(); cfg.walk_slots()],
            cursor: 0,
            stats: RunStats::new(),
            ws: WindowedWorkingSet::new(total_blocks, ws_window),
            sink: None,
            now: 0,
            progress: None,
            scratch,
        }
    }

    /// Attaches (or detaches) a telemetry sink. Enables eviction/fill
    /// recording on the IX-caches so `Fill`/`Evict` events can be
    /// emitted; everything stays observe-only.
    pub fn set_sink(&mut self, sink: Option<SharedSink>) {
        if let CacheState::Metal(metal) = &mut self.state {
            metal.set_recording(sink.is_some());
        }
        self.sink = sink;
    }

    /// Attaches a shared walk counter incremented as each walk is planned
    /// (heartbeat/progress reporting across worker threads).
    pub fn set_progress(&mut self, progress: Option<Arc<AtomicU64>>) {
        self.progress = progress;
    }

    fn metal(&self) -> Option<&MetalState> {
        match &self.state {
            CacheState::Metal(metal) => Some(metal),
            _ => None,
        }
    }

    /// The (first) IX-cache, if this design has one.
    pub fn ix_cache(&self) -> Option<&IxCache> {
        self.metal().and_then(|m| m.caches.first())
    }

    /// Aggregate IX-cache occupancy per level across all cache slices
    /// (one slice when shared, one per lane when private).
    pub fn occupancy_by_level(&self, max_level: u8) -> Option<Vec<usize>> {
        self.metal().map(|m| m.occupancy_by_level(max_level))
    }

    /// The tuners, if tuning is enabled (for Fig. 22 band histories).
    pub fn tuners(&self) -> Option<&[Tuner]> {
        self.metal().and_then(|m| m.tuners.as_deref())
    }

    /// The descriptors in their final (possibly tuned) state.
    pub fn descriptors(&self) -> Option<&[Descriptor]> {
        self.metal().map(|m| &m.descriptors[..])
    }

    /// Finalizes windowed statistics into `stats` (call after the run).
    /// The index footprint reflects any mutations (split nodes allocate
    /// new blocks in the model-private trees).
    pub fn finalize(&mut self) {
        self.stats.index_blocks = (0..self.exp.indexes.len())
            .map(|i| Self::effective_index(&self.own_trees, self.exp, i).total_blocks())
            .sum();
        self.ws.finalize();
        self.stats.ws_touched_sum = self.ws.touched_sum();
        self.stats.ws_windows = self.ws.windows() as u64;
    }

    /// Deepest index as currently walked (mutations can grow a tree past
    /// the experiment's bulk-loaded depth via root splits).
    pub fn max_depth(&self) -> u8 {
        (0..self.exp.indexes.len())
            .map(|i| Self::effective_index(&self.own_trees, self.exp, i).depth())
            .max()
            .unwrap_or(1)
    }

    // ---- walk planning -------------------------------------------------

    /// The index walks against slot `idx` actually traverse: the
    /// model-private mutable clone when the run has writes, else the
    /// experiment's shared read-only index.
    fn effective_index<'b, 'e>(
        own: &'b [Option<BPlusTree>],
        exp: &'b Experiment<'e>,
        idx: usize,
    ) -> &'b dyn WalkIndex {
        match own.get(idx).and_then(|t| t.as_ref()) {
            Some(t) => t,
            None => exp.indexes[idx],
        }
    }

    /// Applies one write op to the model-private trees with no modeled
    /// cost (prefix catch-up, the offline OPT pass and the native
    /// executor's prefix all replay this way). `None` when the index has
    /// no private B+tree.
    pub(crate) fn replay_write(
        own: &mut [Option<BPlusTree>],
        req: &WalkRequest,
    ) -> Option<MutationReport> {
        let tree = own.get_mut(req.index as usize)?.as_mut()?;
        Some(Self::apply_write_op(tree, req))
    }

    /// Applies one write op to `tree`; an update or select changes no node.
    fn apply_write_op(tree: &mut BPlusTree, req: &WalkRequest) -> MutationReport {
        match req.op {
            OpKind::Insert => tree.insert_key(req.key),
            OpKind::Delete => tree.delete_key(req.key),
            OpKind::Select | OpKind::Update => MutationReport::default(),
        }
    }

    /// Plans the complete step sequence of one request: the walk through
    /// the design's caches, then — for write ops — the mutation, its
    /// write-back traffic and the coherence invalidations it forces.
    fn plan(&mut self, req: &WalkRequest, slot: usize) -> VecDeque<WalkStep> {
        let mut steps = VecDeque::new();
        let mut own = std::mem::take(&mut self.own_trees);
        let mut src = SimNodes::new(&mut own, self.exp, req.index as usize);
        let mut cost = SimCost {
            steps: &mut steps,
            stats: &mut self.stats,
            ws: &mut self.ws,
            cfg: &self.cfg,
            scratch: self.scratch.as_mut(),
        };
        let obs = Obs {
            sink: &self.sink,
            at: self.now,
        };
        // The leaf the walk resolved (`None`: an X-Cache hit resolves none).
        let leaf = match &mut self.state {
            CacheState::Stream => Some(ok(decide::stream_walk(&mut src, &mut cost, req))),
            CacheState::Metal(metal) => {
                // Cache affinity is per *physical* lane, so the MLP window
                // of one lane shares that lane's private slice.
                let lane = self.cfg.lane_of_slot(slot);
                Some(ok(metal.walk(&mut src, &mut cost, obs, req, lane)))
            }
            CacheState::Address(c) => Some(cost.unified_walk(&mut src, Unified::Lru(c), req)),
            CacheState::FaOpt { hits } => {
                let decisions = std::mem::take(&mut hits[self.cursor]).into_iter();
                Some(cost.unified_walk(&mut src, Unified::Opt(decisions), req))
            }
            CacheState::XCache(c) => cost.xcache_walk(&mut src, c, req),
        };
        cost.compute(req.compute_ops);

        if req.op.is_write() {
            let metal = match &mut self.state {
                CacheState::Metal(metal) => Some(metal),
                _ => None,
            };
            let leaf = leaf.expect("a write's walk resolves its leaf");
            let report = ok(decide::write(metal, &mut src, &mut cost, obs, req, leaf));
            // X-Cache tags exact keys, so only leaf-level stale spans
            // concern it — plus the deleted key's own line, which would
            // stale-hit as "found" even when no node restructured.
            if let (Some(report), CacheState::XCache(c)) = (report, &mut self.state) {
                for span in report.stale.iter().filter(|s| s.level == 0) {
                    cost.stats.entries_invalidated += c.invalidate_range(span.lo, span.hi);
                }
                if req.op == OpKind::Delete {
                    cost.stats.entries_invalidated += c.invalidate_range(req.key, req.key);
                }
            }
        }
        self.own_trees = own;
        self.ws.walk_done();
        steps.push_back(WalkStep::Done);
        steps
    }

    /// Offline OPT pass: record every request's block trace (walk + scan)
    /// and run Belady over the concatenation. `own_seed` is the
    /// model-private tree state at the start of the stream (post shard
    /// prefix); the pass replays each write op so later requests trace
    /// their post-mutation paths — exactly what the online run walks.
    /// Write-backs bypass the cache (write-through, no allocate), so they
    /// add no trace entries.
    fn precompute_opt(
        exp: &Experiment<'_>,
        entries: usize,
        own_seed: &[Option<BPlusTree>],
    ) -> Vec<Vec<bool>> {
        let mut own: Vec<Option<BPlusTree>> = own_seed.to_vec();
        let mut trace = Vec::new();
        let mut lens = Vec::with_capacity(exp.requests.len());
        for req in exp.requests {
            let mut src = SimNodes::new(&mut own, exp, req.index as usize);
            let (path, leaf) = ok(src.path_from(src.root(), req.key, id_info));
            let chain = ok(src.scan_chain(path[path.len() - 1].0, req.scan_leaves, id_info));
            let mut n = 0;
            for (id, info) in path.iter().chain(&chain) {
                let (a, b) = src.access(*id, info, req.key.max(info.lo));
                for i in 0..blocks_spanned(a, b).max(1) {
                    trace.push(Addr::new(a.get() + i * 64).block());
                    n += 1;
                }
            }
            if let Some((addr, _)) = decide::record(&leaf) {
                trace.push(addr.block());
                n += 1;
            }
            lens.push(n);
            Self::replay_write(&mut own, req);
        }
        let result = OptCache::new(entries).simulate(&trace);
        let mut out = Vec::with_capacity(lens.len());
        let mut off = 0;
        for n in lens {
            out.push(result.hits[off..off + n].to_vec());
            off += n;
        }
        out
    }
}

impl WalkProgram for DesignModel<'_> {
    fn begin_walk(&mut self, lane: usize) -> bool {
        if self.cursor >= self.exp.requests.len() {
            return false;
        }
        let req = self.exp.requests[self.cursor];
        let steps = self.plan(&req, lane);
        self.lanes[lane] = steps;
        self.cursor += 1;
        self.stats.walks += 1;
        if let Some(p) = &self.progress {
            p.fetch_add(1, Ordering::Relaxed);
        }
        true
    }

    fn step(&mut self, lane: usize, now: Cycles) -> WalkStep {
        // Track simulated time for stamping model-side events; plans
        // happen when a lane finishes, so this is the plan-time clock.
        self.now = self.now.max(now.get());
        self.lanes[lane].pop_front().unwrap_or(WalkStep::Done)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metal_index::bptree::BPlusTree;
    use metal_sim::types::Addr;

    fn tree() -> BPlusTree {
        let keys: Vec<Key> = (0..2000).collect();
        BPlusTree::bulk_load(&keys, 4, Addr::new(0), 16)
    }

    fn reqs(keys: &[Key]) -> Vec<WalkRequest> {
        keys.iter().map(|&k| WalkRequest::lookup(k)).collect()
    }

    fn drain(model: &mut DesignModel<'_>) {
        // Execute all walks serially, ignoring timing.
        let mut lane_active = model.begin_walk(0);
        while lane_active {
            loop {
                if model.step(0, Cycles::ZERO) == WalkStep::Done {
                    break;
                }
            }
            lane_active = model.begin_walk(0);
        }
        model.finalize();
    }

    #[test]
    fn stream_touches_full_depth_every_walk() {
        let t = tree();
        let requests = reqs(&[100, 100, 100, 100]);
        let exp = Experiment::single(&t, &requests);
        let mut m = DesignModel::new(&DesignSpec::Stream, &exp, SimConfig::default(), 1000);
        drain(&mut m);
        assert_eq!(m.stats.walks, 4);
        assert_eq!(
            m.stats.dram_node_reads,
            4 * t.depth() as u64,
            "streaming re-fetches every level on every walk"
        );
        assert_eq!(m.stats.probes, 0, "no cache, no probes");
    }

    #[test]
    fn address_cache_hits_on_repeat_walks() {
        let t = tree();
        let requests = reqs(&[100; 10]);
        let exp = Experiment::single(&t, &requests);
        let mut m = DesignModel::new(
            &DesignSpec::Address {
                entries: 1024,
                ways: 16,
            },
            &exp,
            SimConfig::default(),
            1000,
        );
        drain(&mut m);
        // First walk misses the whole path plus the data block; the other
        // 9 hit everything (the unified cache holds data blocks too, and
        // multi-block nodes probe once per spanned block).
        assert_eq!(m.stats.dram_node_reads, t.depth() as u64);
        assert!(m.stats.misses > t.depth() as u64);
        assert_eq!(
            m.stats.probes % 10,
            0,
            "all ten identical walks probe the same block count"
        );
        assert_eq!(
            m.stats.misses,
            m.stats.probes / 10,
            "only the first of ten identical walks misses"
        );
    }

    #[test]
    fn xcache_hit_short_circuits_everything() {
        let t = tree();
        let requests = reqs(&[100, 100, 100]);
        let exp = Experiment::single(&t, &requests);
        let mut m = DesignModel::new(
            &DesignSpec::XCache {
                entries: 64,
                ways: 16,
            },
            &exp,
            SimConfig::default(),
            1000,
        );
        drain(&mut m);
        // Walk 1 misses (full depth from DRAM), walks 2–3 hit with zero
        // DRAM node reads.
        assert_eq!(m.stats.misses, 1);
        assert_eq!(m.stats.dram_node_reads, t.depth() as u64);
        assert_eq!(m.stats.levels_skipped, 2 * t.depth() as u64);
    }

    #[test]
    fn metal_ix_short_circuits_after_first_walk() {
        let t = tree();
        let requests = reqs(&[100, 100, 100]);
        let exp = Experiment::single(&t, &requests);
        let mut m = DesignModel::new(
            &DesignSpec::MetalIx {
                ix: IxConfig::kb64(),
            },
            &exp,
            SimConfig::default(),
            1000,
        );
        drain(&mut m);
        assert_eq!(m.stats.misses, 1, "first probe cold-misses");
        // Greedy insert caches the leaf; later walks fully short-circuit.
        assert_eq!(m.stats.dram_node_reads, t.depth() as u64);
        assert!(m.stats.levels_skipped > 0);
    }

    #[test]
    fn metal_ix_range_hit_from_sibling_key() {
        let t = tree();
        // Walk key 100 cold, then key 101 (same leaf, different key).
        let requests = reqs(&[100, 101]);
        let exp = Experiment::single(&t, &requests);
        let mut m = DesignModel::new(
            &DesignSpec::MetalIx {
                ix: IxConfig::kb64(),
            },
            &exp,
            SimConfig::default(),
            1000,
        );
        drain(&mut m);
        // Key 101 is covered by the cached leaf's range: no new DRAM reads.
        assert_eq!(m.stats.misses, 1);
        assert_eq!(m.stats.dram_node_reads, t.depth() as u64);
    }

    #[test]
    fn metal_level_descriptor_bypasses_leaves() {
        let t = tree();
        let requests = reqs(&(0..200).map(|i| i * 10).collect::<Vec<_>>());
        let exp = Experiment::single(&t, &requests);
        let depth = t.depth();
        let mut m = DesignModel::new(
            &DesignSpec::Metal {
                ix: IxConfig::kb64(),
                descriptors: vec![Descriptor::Level(crate::descriptor::LevelDescriptor::band(
                    depth - 3,
                    depth - 2,
                ))],
                tune: false,
                batch_walks: 1_000_000,
            },
            &exp,
            SimConfig::default(),
            1000,
        );
        drain(&mut m);
        assert!(m.stats.bypasses > 0, "leaves are bypassed");
        assert!(m.stats.inserts > 0, "band levels are inserted");
        let hist = m.ix_cache().expect("has ix").occupancy_by_level(depth);
        assert_eq!(hist[0], 0, "no leaves cached under a mid-level band");
    }

    #[test]
    fn fa_opt_beats_nothing_but_still_walks_root_to_leaf() {
        let t = tree();
        let requests = reqs(&[100, 200, 100, 200, 100, 200]);
        let exp = Experiment::single(&t, &requests);
        let mut m = DesignModel::new(
            &DesignSpec::FaOpt { entries: 1024 },
            &exp,
            SimConfig::default(),
            1000,
        );
        drain(&mut m);
        // OPT caches everything after cold misses on the two paths
        // (per-block probes + 1 per walk for the data block).
        assert_eq!(
            m.stats.probes % 6,
            0,
            "six walks over two identical paths probe uniformly"
        );
        assert!(m.stats.misses <= 2 * (m.stats.probes / 6));
        assert!(m.stats.misses >= t.depth() as u64);
    }

    #[test]
    fn working_set_fraction_lower_for_metal_than_stream() {
        let t = tree();
        // Clustered re-walks over a few keys.
        let keys: Vec<Key> = (0..400).map(|i| (i % 20) * 7).collect();
        let requests = reqs(&keys);
        let exp = Experiment::single(&t, &requests);

        let mut stream = DesignModel::new(&DesignSpec::Stream, &exp, SimConfig::default(), 100);
        drain(&mut stream);
        let mut metal = DesignModel::new(
            &DesignSpec::MetalIx {
                ix: IxConfig::kb64(),
            },
            &exp,
            SimConfig::default(),
            100,
        );
        drain(&mut metal);
        assert!(
            metal.stats.working_set_fraction() < stream.stats.working_set_fraction(),
            "metal {} < stream {}",
            metal.stats.working_set_fraction(),
            stream.stats.working_set_fraction()
        );
    }

    #[test]
    fn scan_requests_traverse_leaf_chain() {
        let t = tree();
        let requests = vec![WalkRequest::lookup(0).with_scan(5)];
        let exp = Experiment::single(&t, &requests);
        let mut m = DesignModel::new(&DesignSpec::Stream, &exp, SimConfig::default(), 1000);
        drain(&mut m);
        assert_eq!(
            m.stats.dram_node_reads,
            t.depth() as u64 + 5,
            "walk plus five leaf hops"
        );
    }

    #[test]
    fn private_caches_split_capacity_and_lose_sharing() {
        let t = tree();
        // Identical keys from every lane: a shared cache warms once; the
        // private slices each warm separately.
        let requests = reqs(&[100; 64]);
        let exp = Experiment::single(&t, &requests);
        let cfg = SimConfig {
            lanes: 8,
            ..SimConfig::default()
        };
        let mut shared = DesignModel::new(
            &DesignSpec::MetalIx {
                ix: IxConfig::kb64(),
            },
            &exp,
            cfg,
            1000,
        );
        let mut private = DesignModel::new(
            &DesignSpec::MetalPrivate {
                ix: IxConfig::kb64(),
                descriptors: vec![crate::descriptor::Descriptor::All],
            },
            &exp,
            cfg,
            1000,
        );
        // Drive lanes round-robin as the engine would.
        for m in [&mut shared, &mut private] {
            let mut lane = 0;
            while m.begin_walk(lane % 8) {
                loop {
                    if let WalkStep::Done = m.step(lane % 8, Cycles::ZERO) {
                        break;
                    }
                }
                lane += 1;
            }
            m.finalize();
        }
        assert_eq!(shared.stats.misses, 1, "shared cache cold-misses once");
        assert_eq!(
            private.stats.misses, 8,
            "each private slice cold-misses separately"
        );
    }

    #[test]
    fn metal_probe_stays_coherent_across_leaf_splits() {
        // Even keys only, so odd inserts are genuine insertions. Warm the
        // IX-cache on a leaf, split that leaf with inserts, then select
        // every key across the old span: a stale cached tag would
        // short-circuit into the pre-split leaf and miss the keys that
        // moved to the new right sibling.
        let keys: Vec<Key> = (0..1000).map(|i| i * 2).collect();
        let t = BPlusTree::bulk_load(&keys, 4, Addr::new(0), 16);
        let mut requests = reqs(&[100, 100]);
        for k in [101, 103, 105, 107, 109] {
            requests.push(WalkRequest::lookup(k).with_op(OpKind::Insert));
        }
        let post: Vec<Key> = (100..110).collect();
        requests.extend(reqs(&post));
        let exp = Experiment::single(&t, &requests);
        let mut m = DesignModel::new(
            &DesignSpec::MetalIx {
                ix: IxConfig::kb64(),
            },
            &exp,
            SimConfig::default(),
            1000,
        );
        drain(&mut m);
        assert_eq!(m.stats.write_walks, 5);
        assert!(m.stats.node_splits >= 1, "five inserts must split a leaf");
        assert!(
            m.stats.entries_invalidated >= 1,
            "the warmed leaf tag must die with the split"
        );
        // 2 warm selects + 10 post-split selects all find their key (the
        // insert walks probe before the key exists, so they don't count).
        assert_eq!(m.stats.found_walks, 12, "no select may stale-route");
    }

    #[test]
    fn xcache_delete_invalidates_exact_key() {
        let keys: Vec<Key> = (0..1000).map(|i| i * 2).collect();
        let t = BPlusTree::bulk_load(&keys, 4, Addr::new(0), 16);
        let requests = vec![
            WalkRequest::lookup(100), // miss, walk, found, cache leaf
            WalkRequest::lookup(100), // exact-key hit, found
            WalkRequest::lookup(100).with_op(OpKind::Delete), // hit, then delete
            WalkRequest::lookup(100), // MUST NOT claim found from a stale line
        ];
        let exp = Experiment::single(&t, &requests);
        let mut m = DesignModel::new(
            &DesignSpec::XCache {
                entries: 64,
                ways: 16,
            },
            &exp,
            SimConfig::default(),
            1000,
        );
        drain(&mut m);
        assert_eq!(m.stats.write_walks, 1);
        assert!(
            m.stats.entries_invalidated >= 1,
            "the deleted key's line dies"
        );
        // Walks 1–3 observe the key present; walk 4 walks from the root
        // (its line was invalidated) and correctly finds nothing.
        assert_eq!(m.stats.found_walks, 3);
        assert_eq!(m.stats.misses, 2, "cold miss + post-delete miss");
    }

    #[test]
    fn update_writes_back_without_structural_change() {
        let t = tree();
        let requests = vec![
            WalkRequest::lookup(100).with_op(OpKind::Update),
            WalkRequest::lookup(100),
        ];
        let exp = Experiment::single(&t, &requests);
        let mut m = DesignModel::new(&DesignSpec::Stream, &exp, SimConfig::default(), 1000);
        drain(&mut m);
        assert_eq!(m.stats.write_walks, 1);
        assert_eq!(m.stats.node_splits, 0);
        assert_eq!(m.stats.node_merges, 0);
        assert_eq!(m.stats.entries_invalidated, 0);
        assert_eq!(m.stats.found_walks, 2);
    }

    #[test]
    fn read_only_runs_never_clone_trees() {
        let t = tree();
        let requests = reqs(&[1, 2, 3]);
        let exp = Experiment::single(&t, &requests);
        let m = DesignModel::new(&DesignSpec::Stream, &exp, SimConfig::default(), 1000);
        assert!(
            m.own_trees.is_empty(),
            "no write ops → no private tree clones, walks hit the shared index"
        );
    }

    #[test]
    fn compute_ops_accumulated() {
        let t = tree();
        let requests = vec![WalkRequest::lookup(3).with_compute(100)];
        let exp = Experiment::single(&t, &requests);
        let mut m = DesignModel::new(&DesignSpec::Stream, &exp, SimConfig::default(), 1000);
        drain(&mut m);
        assert_eq!(m.stats.compute_ops, 100);
        assert!(m.stats.compute_energy_fj > 0);
    }
}
