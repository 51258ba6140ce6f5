//! The native execution backend: runs walks for real instead of
//! simulating them.
//!
//! [`run_native_design`] accepts the same `(DesignSpec, Experiment,
//! RunConfig)` triple as [`crate::runner::run_design`] and returns the
//! same [`RunReport`], but every walk *executes*: nodes are materialized
//! B+tree pages in block files ([`super::tree::PagedTree`]), the
//! [`IxCache`](crate::ixcache::IxCache) is a real software fast path (a
//! probe hit resolves its node from the tree's decoded hot copy without
//! touching the page layer), and mutations restructure the paged tree on
//! disk. The cache decisions are not this module's: every walk runs the
//! simulator's own kernel (`crate::decide`) over the paged tree, which
//! is a `NodeSource`, with a cost sink that buffers `DramFetch`es and
//! times phases. Both backends therefore make **identical** cache
//! decisions and agree exactly on every semantic outcome: `found_walks`,
//! `write_walks`, `node_splits`, `node_merges`, probes/misses/inserts/
//! bypasses, per-level hit counts, `levels_skipped`, invalidation counts
//! and the cache-side event sequence. `crates/verify/tests/
//! backend_equivalence.rs` and the `ix_fuzz --backend native` arm guard
//! what is left to differ: the storage layers, this adapter and timing.
//!
//! Only designs whose cache semantics are lane-independent are
//! executable natively: `Stream`, `MetalIx` and `Metal`. (All three use
//! one shared cache, and the simulator resolves every cache interaction
//! at plan time in cursor order — so a sequential native executor
//! observes the exact same interleaving. `MetalPrivate` splits state by
//! lane and the address-block designs model block-grain hardware the
//! native walk has no analogue for.)
//!
//! The same [`Event`] stream is reused: one native walk emits its
//! cache-side events, then `WalkStart`, its `DramFetch`s, `WalkEnd` —
//! the exact grammar a single-lane simulator trace has — so traces,
//! `analyze`, the epoch time-series and the flight recorder work
//! unchanged. Timestamps are a deterministic per-walk logical clock
//! (measured wall time is reported out-of-band in [`NativeMetrics`],
//! never inside the event stream, keeping traces reproducible).
//!
//! # Memory-level parallelism: the architect/scout pipeline
//!
//! With `RunConfig::mlp_width = N > 1` the shard loop keeps a window of
//! `N` walks in flight, split into one **architect** and up to `N − 1`
//! **scouts**. The architect is the oldest walk; it executes the exact
//! serial path above — probes, admissions, mutations, events — and is
//! the *only* walk with semantically visible effects. Scouts are
//! speculative descents for the walks behind it: each scout picks its
//! start node with the side-effect-free [`IxCache::peek`](crate::ixcache::IxCache::peek),
//! then advances one tree level per yield in round-robin with its sibling
//! scouts (the software pipeline), issuing a prefetch at every level —
//! a staged page read for cold nodes, a `core::arch` prefetch hint for
//! nodes already decoded in memory. A walk whose peek hits a leaf gets
//! no scout: it resolves at a hot node. Prefetched nodes land in the
//! tree's stage, a clock-managed ring of 4 096 decoded nodes (a staged
//! hit sets the node's reference bit; a prefetch into a full stage
//! evicts the first unreferenced node the hand reaches), where the
//! architect's demand reads borrow them page-free.
//!
//! Correctness is preserved by construction, not by luck: scouts never
//! probe, admit, evict or mutate, so the cache-decision sequence stays
//! a pure function of walk order at every width and sim/native
//! equivalence survives (`RunStats` is bit-identical across widths;
//! only measured I/O attribution in [`NativeMetrics`] shifts between
//! demand and prefetch counters). A write invalidates per node, never
//! the whole stage: the paged tree's flush replaces the held copy (hot
//! or staged) of every node it writes and drops the copy of a node that
//! died, so a staged node always equals its page and survives writes
//! that did not touch it. After an applied mutation the shard loop
//! re-opens its scout window, because the walks ahead may now route
//! through nodes the mutation created.

use super::blockfile::{BlockFileError, Result};
use super::codec::PagedNode;
use super::tree::{materialize_tree, ns_since, PagedTree};
use crate::decide::{self, CostSink, MetalState, NodeSource, Obs, Phase};
use crate::models::{DesignModel, DesignSpec, Experiment};
use crate::request::{OpKind, WalkRequest};
use crate::runner::{shard_bounds, RunConfig, RunReport, ShardCtx};
use metal_index::bptree::{BPlusTree, MutationReport};
use metal_index::walk::{Descend, NodeInfo};
use metal_index::NodeId;
use metal_sim::obs::{emit_to, Event, SharedSink};
use metal_sim::stats::RunStats;
use metal_sim::types::{Addr, Key};
use std::collections::HashSet;
use std::sync::atomic::Ordering;
use std::time::Instant;

/// Walks between hot-copy garbage collections (drops decoded nodes the
/// IX-cache no longer references; observe-only bookkeeping).
const HOT_GC_WALKS: u64 = 1024;

/// Measured (not modeled) execution counters of one native run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NativeMetrics {
    /// Wall-clock nanoseconds spent executing walks (materialization
    /// excluded).
    pub wall_ns: u64,
    /// Walks executed (denominator for walks/sec).
    pub walks: u64,
    /// Pages read from the block files (out-of-core "page faults").
    pub page_reads: u64,
    /// Pages written to the block files.
    pub page_writes: u64,
    /// Node reads served by the hot map (IX-cache software fast path).
    pub hot_hits: u64,
    /// Node reads that went to the page layer and deserialized.
    pub cold_reads: u64,
    /// Node reads served by the MLP prefetch stage (a scout already
    /// paid the page read; zero at `mlp_width = 1`).
    pub staged_hits: u64,
    /// Nodes scouts read ahead of demand (zero at `mlp_width = 1`).
    pub prefetched: u64,
    /// Node store-backs (serialize + page write).
    pub node_writes: u64,
    /// Total pages across all tree files at the end of the run.
    pub pages: u64,
    /// Free-list pages at the end of the run (extents returned by
    /// merges/relocations).
    pub free_pages: u64,
    /// Wall nanoseconds in block-file page loads (demand cold reads and
    /// scout prefetches) — the measured analogue of the simulator's
    /// DRAM-stall cycles.
    pub page_read_ns: u64,
    /// Wall nanoseconds deserializing loaded pages into nodes.
    pub decode_ns: u64,
    /// Wall nanoseconds probing the IX-cache (zero for `stream`).
    pub ix_probe_ns: u64,
    /// Wall nanoseconds descending and scanning tree nodes. Phase
    /// timers are independent gauges, not a partition of `wall_ns`:
    /// node-scan time includes the page reads its walks triggered.
    pub node_scan_ns: u64,
    /// Wall nanoseconds applying write ops and their invalidations.
    pub mutation_ns: u64,
    /// Wall nanoseconds driving the MLP scout window (zero at width 1).
    pub staging_ns: u64,
}

impl NativeMetrics {
    /// Measured walk throughput.
    pub fn walks_per_sec(&self) -> f64 {
        if self.wall_ns == 0 {
            return 0.0;
        }
        self.walks as f64 * 1e9 / self.wall_ns as f64
    }

    /// Measured fraction of wall time spent loading pages — the number
    /// the analyze report sets beside the simulator's modeled
    /// DRAM-stall fraction.
    pub fn page_io_fraction(&self) -> f64 {
        if self.wall_ns == 0 {
            return 0.0;
        }
        self.page_read_ns as f64 / self.wall_ns as f64
    }

    /// Accumulates another shard's metrics.
    pub fn merge(&mut self, other: &NativeMetrics) {
        self.wall_ns += other.wall_ns;
        self.walks += other.walks;
        self.page_reads += other.page_reads;
        self.page_writes += other.page_writes;
        self.hot_hits += other.hot_hits;
        self.cold_reads += other.cold_reads;
        self.staged_hits += other.staged_hits;
        self.prefetched += other.prefetched;
        self.node_writes += other.node_writes;
        self.pages += other.pages;
        self.free_pages += other.free_pages;
        self.page_read_ns += other.page_read_ns;
        self.decode_ns += other.decode_ns;
        self.ix_probe_ns += other.ix_probe_ns;
        self.node_scan_ns += other.node_scan_ns;
        self.mutation_ns += other.mutation_ns;
        self.staging_ns += other.staging_ns;
    }
}

/// Whether `spec` can run on the native backend (see module docs).
pub fn supports_native(spec: &DesignSpec) -> bool {
    matches!(
        spec,
        DesignSpec::Stream | DesignSpec::MetalIx { .. } | DesignSpec::Metal { .. }
    )
}

/// Scoped-phase wall-time accumulators of one native shard (rolled
/// into [`NativeMetrics`]; page-read and decode time accrue inside
/// [`PagedTree`]'s own counters). Observe-only: reading the clock never
/// changes an outcome.
#[derive(Debug, Clone, Copy, Default)]
struct PhaseNs {
    ix_probe_ns: u64,
    node_scan_ns: u64,
    mutation_ns: u64,
}

/// One shard's native execution state.
struct NativeRun {
    trees: Vec<PagedTree>,
    /// The IX-cache state (`None` for `stream`).
    metal: Option<MetalState>,
    stats: RunStats,
    sink: Option<SharedSink>,
    /// Deterministic logical clock: one tick per walk; every event of a
    /// walk is stamped with its tick.
    clock: u64,
    walk_seq: u64,
    /// DRAM fetches of the walk in flight, emitted after `WalkStart` in
    /// engine order.
    pending_dram: Vec<(u64, u64)>,
    /// Scoped phase timers (measured, never modeled).
    phase: PhaseNs,
}

fn io<T>(r: Result<T>) -> T {
    r.unwrap_or_else(|e| panic!("native backend storage failure: {e}"))
}

/// The paged tree as the kernel's node source: each fetched node travels
/// with its decoded contents, so an admitted one enters the hot map
/// without a second page read.
impl NodeSource for PagedTree {
    type Held = Option<PagedNode>;
    type Error = BlockFileError;

    fn root(&self) -> NodeId {
        PagedTree::root(self)
    }

    fn depth(&self) -> u8 {
        PagedTree::depth(self)
    }

    fn node_bytes(&self, id: NodeId) -> u64 {
        PagedTree::node_bytes(self, id)
    }

    fn access(&self, _id: NodeId, info: &NodeInfo, _key: Key) -> (Addr, u64) {
        (info.addr, info.bytes)
    }

    /// A probe hit's node resolves through its hot copy — the software
    /// fast path the native backend measures.
    fn descend(&mut self, id: NodeId, key: Key) -> Result<Descend> {
        self.with_node(id, |node, _, shape| node.descend(key, shape))
    }

    fn path_from<T>(
        &mut self,
        from: NodeId,
        key: Key,
        keep: impl Fn(NodeId, NodeInfo, Option<PagedNode>) -> T,
    ) -> Result<(Vec<T>, Descend)> {
        self.path_with(from, key, keep)
    }

    fn scan_chain<T>(
        &mut self,
        first: NodeId,
        hops: u32,
        keep: impl Fn(NodeId, NodeInfo, Option<PagedNode>) -> T,
    ) -> Result<Vec<T>> {
        self.chain_with(first, hops, keep)
    }

    fn touch(&mut self, id: NodeId) -> Result<()> {
        self.with_node(id, |_, _, _| ())
    }

    /// The cache now holds a live pointer to `id`, so its decoded
    /// contents become the tree's hot copy.
    fn admitted(&mut self, id: NodeId, held: Option<PagedNode>) -> Result<()> {
        self.admit_hot_node(id, held)
    }

    fn mutate(&mut self, req: &WalkRequest) -> Result<Option<MutationReport>> {
        Ok(Some(match req.op {
            OpKind::Insert => self.insert_key(req.key)?,
            OpKind::Delete => self.delete_key(req.key)?,
            OpKind::Select | OpKind::Update => MutationReport::default(),
        }))
    }
}

/// The native cost sink: counts node fetches, buffers every fetch as a
/// `DramFetch` for the walk's trace (only when observed) and times the
/// probe and node-scan phases.
struct NativeCost<'r> {
    stats: &'r mut RunStats,
    pending: Option<&'r mut Vec<(u64, u64)>>,
    phase: &'r mut PhaseNs,
}

impl NativeCost<'_> {
    fn record(&mut self, addr: Addr, bytes: u64) {
        if let Some(p) = self.pending.as_deref_mut() {
            p.push((addr.get(), bytes));
        }
    }
}

impl CostSink for NativeCost<'_> {
    fn stats(&mut self) -> &mut RunStats {
        self.stats
    }

    fn timed<R>(&mut self, phase: Phase, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let r = f();
        *match phase {
            Phase::IxProbe => &mut self.phase.ix_probe_ns,
            Phase::NodeScan => &mut self.phase.node_scan_ns,
        } += ns_since(t0);
        r
    }

    fn fetched(&mut self, addr: Addr, bytes: u64) {
        self.stats.dram_node_reads += 1;
        self.record(addr, bytes);
    }

    /// The record read itself (the simulator stages it through a tile
    /// scratchpad; semantically it is one value fetch).
    fn value(&mut self, addr: Addr, bytes: u64) {
        self.record(addr, bytes);
    }

    fn written(&mut self, addr: Addr, bytes: u64) {
        self.record(addr, bytes);
    }
}

/// One speculative prefetch descent in the MLP window (see the module
/// docs): its walk will soon run for real; until then this scout
/// pushes that walk's nodes toward memory one level per yield.
struct Scout {
    /// Tree (experiment index) the scout descends.
    index: usize,
    /// Key the future walk looks up.
    key: Key,
    /// Node to prefetch at the next yield.
    cur: NodeId,
    /// Remaining level budget (depth-bounded; guards cyclic corruption
    /// so a broken link can never wedge the pipeline).
    hops: u8,
}

impl NativeRun {
    fn emit(&self, ev: Event) {
        emit_to(&self.sink, self.clock, &ev);
    }

    /// Opens a scout for `req`: start node from a side-effect-free
    /// cache peek (the same short-circuit the real probe will take on a
    /// hit), else the root. No scout when the peek hits a leaf: the walk
    /// will resolve at a hot node, so there is nothing to fetch. Never
    /// touches statistics or cache state.
    fn open_scout(&self, req: &WalkRequest) -> Option<Scout> {
        let idx = req.index as usize;
        let tree = self.trees.get(idx)?;
        let start = match self
            .metal
            .as_ref()
            .and_then(|m| m.caches[0].peek(req.index, req.key))
        {
            Some(hit) if hit.level == 0 => return None,
            Some(hit) => hit.node,
            None => tree.root(),
        };
        Some(Scout {
            index: idx,
            key: req.key,
            cur: start,
            hops: tree.depth().saturating_add(2),
        })
    }

    /// Advances one scout by one tree level: prefetch its current node,
    /// peek the staged/hot contents, step to the child. Returns whether
    /// the scout still has levels to descend; it dies quietly on a leaf,
    /// an exhausted budget, a failed prefetch or a stage overflow — a
    /// scout's failure is a lost prefetch, never an error.
    fn advance_scout(&mut self, s: &mut Scout) -> bool {
        if s.hops == 0 {
            return false;
        }
        s.hops -= 1;
        let tree = &mut self.trees[s.index];
        if tree.prefetch_node(s.cur).is_err() {
            return false;
        }
        let Some(node) = tree.peek_node(s.cur) else {
            return false;
        };
        match tree.descend_in(node, s.key) {
            Descend::Child(c) => {
                s.cur = c;
                true
            }
            Descend::Leaf { .. } => false,
        }
    }

    /// Executes one walk request end to end through the decision kernel,
    /// mirroring the simulator's event grammar: cache events,
    /// `WalkStart`, `DramFetch`s, `WalkEnd`. Returns whether the walk
    /// applied a structural mutation (the MLP scout window resets on it).
    fn run_walk(&mut self, req: &WalkRequest) -> Result<bool> {
        self.clock += 1;
        let walk = self.walk_seq;
        self.walk_seq += 1;
        self.stats.walks += 1;
        self.stats.compute_ops += req.compute_ops;
        self.pending_dram.clear();
        let observing = self.sink.is_some();
        let obs = Obs {
            sink: &self.sink,
            at: self.clock,
        };
        let tree = &mut self.trees[req.index as usize];
        let mut cost = NativeCost {
            stats: &mut self.stats,
            pending: observing.then_some(&mut self.pending_dram),
            phase: &mut self.phase,
        };
        let leaf = match &mut self.metal {
            Some(m) => m.walk(tree, &mut cost, obs, req, 0)?,
            None => decide::stream_walk(tree, &mut cost, req)?,
        };
        let mut mutated = false;
        if req.op.is_write() {
            let t0 = Instant::now();
            let report = decide::write(self.metal.as_mut(), tree, &mut cost, obs, req, leaf)?;
            cost.phase.mutation_ns += ns_since(t0);
            mutated = report.is_some();
        }
        if observing {
            self.emit(Event::WalkStart { walk, lane: 0 });
            for &(addr, bytes) in &self.pending_dram {
                self.emit(Event::DramFetch {
                    lane: 0,
                    addr,
                    bytes,
                    done: self.clock,
                });
            }
            self.emit(Event::WalkEnd {
                walk,
                lane: 0,
                latency: 1,
            });
        }
        Ok(mutated)
    }

    /// Drops hot nodes the IX-cache no longer references (periodic,
    /// observe-only — affects measured page I/O, never outcomes).
    fn gc_hot(&mut self) {
        let Some(m) = &self.metal else { return };
        let mut keep: Vec<HashSet<NodeId>> = vec![HashSet::new(); self.trees.len()];
        for e in m.caches.iter().flat_map(|c| c.snapshot()) {
            keep[e.index as usize].extend(e.segs.iter().map(|&(_, n)| n));
        }
        for (tree, keep) in self.trees.iter_mut().zip(&keep) {
            tree.retain_hot(|id| keep.contains(&id));
        }
    }
}

/// Runs one shard of the request stream natively (fresh trees with the
/// shard's prefix writes replayed, fresh cache/tuner state — the same
/// cold-start semantics as the simulator's sharded runner).
fn run_native_shard(
    spec: &DesignSpec,
    exp: &Experiment<'_>,
    cfg: &RunConfig,
    shard: u64,
    prefix: &[WalkRequest],
) -> RunReport {
    // Start from the pristine experiment trees and replay the prefix
    // writes (cost-free) with the simulator's own replay.
    let mut start: Vec<Option<BPlusTree>> = exp
        .indexes
        .iter()
        .map(|i| {
            let tree = i.as_bptree().unwrap_or_else(|| {
                panic!(
                    "the native backend executes B+tree indexes only (design {})",
                    spec.label()
                )
            });
            Some(tree.clone())
        })
        .collect();
    for req in prefix {
        DesignModel::replay_write(&mut start, req);
    }

    let trees: Vec<PagedTree> = start
        .iter()
        .flatten()
        .map(|t| io(materialize_tree(t)))
        .collect();
    let sink = cfg.obs.sink_factory.as_ref().and_then(|make| {
        make(&ShardCtx {
            design: spec.label().to_string(),
            shard,
        })
    });
    let mut metal = MetalState::new(spec, exp, cfg.sim.lanes);
    if let Some(m) = &mut metal {
        m.set_recording(sink.is_some());
    }
    let mut run = NativeRun {
        trees,
        metal,
        stats: RunStats::new(),
        sink,
        clock: 0,
        walk_seq: 0,
        pending_dram: Vec::new(),
        phase: PhaseNs::default(),
    };

    let width = cfg.mlp_width();
    // High-water mark of the scout window: request positions below it
    // were already scouted (and need no second pass while no mutation
    // intervenes).
    let mut scouted = 0usize;
    let mut staging_ns = 0u64;
    let mut slots: Vec<Scout> = Vec::with_capacity(width);
    let t0 = Instant::now();
    for (n, req) in exp.requests.iter().enumerate() {
        if width > 1 {
            // Fill the window with scouts for walks n+1 ..= n+width-1,
            // then software-pipeline them: round-robin, one tree level
            // per yield, until every scout has finished its descent.
            // The architect (walk n) then runs the serial path below
            // and finds its nodes staged.
            let ts = Instant::now();
            let window_end = (n + width).min(exp.requests.len());
            slots.extend(
                (scouted.max(n + 1)..window_end).filter_map(|p| run.open_scout(&exp.requests[p])),
            );
            scouted = scouted.max(window_end);
            while !slots.is_empty() {
                slots.retain_mut(|s| run.advance_scout(s));
            }
            staging_ns += ns_since(ts);
        }
        let mutated = io(run.run_walk(req));
        if mutated {
            // The flush kept every staged copy coherent, but the walks
            // scouted ahead may now route through nodes the mutation
            // created, which no scout staged. Re-open the window from
            // post-mutation state next iteration.
            scouted = 0;
        }
        if let Some(p) = &cfg.obs.progress {
            p.fetch_add(1, Ordering::Relaxed);
        }
        if (n as u64 + 1).is_multiple_of(HOT_GC_WALKS) {
            run.gc_hot();
        }
    }
    let wall_ns = t0.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
    if let Some(s) = &run.sink {
        s.borrow_mut().flush();
    }

    for c in run.metal.iter().flat_map(|m| &m.caches) {
        debug_assert_eq!(c.check_invariants(), Ok(()));
    }
    run.stats.index_blocks = run.trees.iter().map(|t| t.total_blocks()).sum();
    let max_depth = run.trees.iter().map(|t| t.depth()).max().unwrap_or(1);
    let occupancy_by_level = run
        .metal
        .as_ref()
        .map(|m| m.occupancy_by_level(max_depth))
        .unwrap_or_default();
    let band_history = run
        .metal
        .as_ref()
        .and_then(|m| m.tuners.as_ref())
        .map(|ts| ts.iter().map(|t| t.history().to_vec()).collect())
        .unwrap_or_default();

    let mut native = NativeMetrics {
        wall_ns,
        walks: run.stats.walks,
        ix_probe_ns: run.phase.ix_probe_ns,
        node_scan_ns: run.phase.node_scan_ns,
        mutation_ns: run.phase.mutation_ns,
        staging_ns,
        ..NativeMetrics::default()
    };
    for t in &run.trees {
        let fs = t.file_stats();
        let ts = t.io_stats();
        native.page_reads += fs.pages_read;
        native.page_writes += fs.pages_written;
        native.hot_hits += ts.hot_hits;
        native.cold_reads += ts.cold_reads;
        native.staged_hits += ts.staged_hits;
        native.prefetched += ts.prefetched;
        native.node_writes += ts.node_writes;
        native.pages += t.page_count();
        native.free_pages += t.free_pages();
        native.page_read_ns += ts.page_read_ns;
        native.decode_ns += ts.decode_ns;
    }
    for t in &mut run.trees {
        debug_assert_eq!(
            t.check_copies(),
            Ok(()),
            "a held copy drifted from its page"
        );
    }

    RunReport {
        design: spec.label().to_string(),
        stats: run.stats,
        occupancy_by_level,
        band_history,
        native: Some(native),
    }
}

/// Runs one design natively over the experiment, sharding the request
/// stream with the same grain/prefix semantics as the simulator's
/// [`crate::runner::run_design`] — so `run(shards=1) == run(shards=k)`
/// holds trivially (shards execute sequentially here; each is already a
/// pure function of its chunk + prefix).
///
/// # Example: the MLP walk scheduler
///
/// `RunConfig::with_mlp_width(n)` turns on the architect/scout pipeline
/// (see the module docs). Semantic outcomes are bit-identical at every
/// width — scouts only prefetch — so the two runs below must agree on
/// all of [`RunStats`] while the pipelined one attributes node reads to
/// the prefetch stage:
///
/// ```
/// use metal_core::ixcache::IxConfig;
/// use metal_core::models::{DesignSpec, Experiment};
/// use metal_core::native::run_native_design;
/// use metal_core::request::WalkRequest;
/// use metal_core::runner::RunConfig;
/// use metal_index::bptree::BPlusTree;
/// use metal_sim::types::Addr;
///
/// let keys: Vec<u64> = (0..2000).map(|k| k * 2).collect();
/// let tree = BPlusTree::bulk_load(&keys, 8, Addr::new(0), 16);
/// let requests: Vec<WalkRequest> =
///     (0..300u64).map(|i| WalkRequest::lookup((i * 13) % 4000)).collect();
/// let exp = Experiment::single(&tree, &requests);
/// let spec = DesignSpec::MetalIx { ix: IxConfig::kb64() };
///
/// let serial = run_native_design(&spec, &exp, &RunConfig::default());
/// let piped = run_native_design(&spec, &exp, &RunConfig::default().with_mlp_width(4));
/// assert_eq!(serial.stats, piped.stats, "width never changes semantics");
/// let m = piped.native.unwrap();
/// assert!(m.prefetched > 0, "scouts ran");
/// assert!(m.staged_hits > 0, "the architect found staged nodes");
/// ```
pub fn run_native_design(spec: &DesignSpec, exp: &Experiment<'_>, cfg: &RunConfig) -> RunReport {
    assert!(
        supports_native(spec),
        "design '{}' is not supported by the native backend",
        spec.label()
    );
    let bounds = shard_bounds(exp.requests.len(), cfg.shard_walks);
    let mut reports = Vec::with_capacity(bounds.len());
    for (i, range) in bounds.iter().enumerate() {
        let shard_exp = exp.slice(range.clone());
        let prefix = &exp.requests[..range.start];
        reports.push(run_native_shard(spec, &shard_exp, cfg, i as u64, prefix));
    }
    crate::runner::merge_reports(reports)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::descriptor::{Descriptor, NodeDescriptor};
    use crate::ixcache::IxConfig;
    use crate::runner::run_design;
    use metal_sim::types::{Addr, Key};

    fn tree() -> BPlusTree {
        let keys: Vec<Key> = (0..4000).map(|k| k * 2).collect();
        BPlusTree::bulk_load(&keys, 4, Addr::new(0), 16)
    }

    fn crud_requests(n: usize) -> Vec<WalkRequest> {
        (0..n)
            .map(|i| {
                let key = ((i * 37) % 4000) as Key * 2;
                match i % 10 {
                    0 => WalkRequest::lookup(key + 1).with_op(OpKind::Insert),
                    1 => WalkRequest::lookup(key).with_op(OpKind::Delete),
                    2 => WalkRequest::lookup(key).with_op(OpKind::Update),
                    3 => WalkRequest::lookup(key).with_scan(3),
                    _ => WalkRequest::lookup(key).with_compute(8),
                }
            })
            .collect()
    }

    fn semantic_outcomes(r: &RunReport) -> (u64, u64, u64, u64, u64, u64, u64, u64, Vec<u64>) {
        (
            r.stats.found_walks,
            r.stats.write_walks,
            r.stats.node_splits,
            r.stats.node_merges,
            r.stats.probes,
            r.stats.misses,
            r.stats.inserts,
            r.stats.entries_invalidated,
            r.stats.hit_levels.clone(),
        )
    }

    #[test]
    fn native_matches_sim_on_crud_mix() {
        let t = tree();
        let requests = crud_requests(800);
        let exp = Experiment::single(&t, &requests);
        let cfg = RunConfig::default();
        for spec in [
            DesignSpec::Stream,
            DesignSpec::MetalIx {
                ix: IxConfig::kb64(),
            },
            DesignSpec::Metal {
                ix: IxConfig::kb64(),
                descriptors: vec![Descriptor::Node(NodeDescriptor::leaves())],
                tune: true,
                batch_walks: 100,
            },
        ] {
            let sim = run_design(&spec, &exp, &cfg);
            let native = run_native_design(&spec, &exp, &cfg);
            assert_eq!(
                semantic_outcomes(&sim),
                semantic_outcomes(&native),
                "backend divergence under design '{}'",
                spec.label()
            );
            assert_eq!(sim.stats.dram_node_reads, native.stats.dram_node_reads);
            assert_eq!(sim.stats.levels_skipped, native.stats.levels_skipped);
            assert_eq!(sim.stats.bypasses, native.stats.bypasses);
            assert_eq!(sim.stats.index_blocks, native.stats.index_blocks);
            assert_eq!(sim.occupancy_by_level, native.occupancy_by_level);
            assert_eq!(sim.band_history, native.band_history);
            let m = native.native.expect("native metrics attached");
            assert_eq!(m.walks, 800);
            assert!(m.page_reads > 0, "walks actually touch the page layer");
        }
    }

    #[test]
    fn native_sharding_replays_prefix_writes() {
        let t = tree();
        let requests = crud_requests(600);
        let exp = Experiment::single(&t, &requests);
        let spec = DesignSpec::MetalIx {
            ix: IxConfig::kb64(),
        };
        let whole = run_native_design(&spec, &exp, &RunConfig::default());
        let sharded = run_native_design(&spec, &exp, &RunConfig::default().with_shard_walks(150));
        // Sharded runs start each chunk cold (different outcomes from the
        // unsharded run) but must match the *simulator* sharded the same
        // way — the true invariant.
        let sim_sharded = run_design(&spec, &exp, &RunConfig::default().with_shard_walks(150));
        assert_eq!(semantic_outcomes(&sharded), semantic_outcomes(&sim_sharded));
        assert_eq!(whole.stats.walks, sharded.stats.walks);
    }

    #[test]
    fn hot_map_serves_probe_hits() {
        let t = tree();
        // Heavy reuse of one key: after the cold walk, probes hit and the
        // node pointer resolves from the hot map.
        let requests: Vec<WalkRequest> = (0..200).map(|_| WalkRequest::lookup(100)).collect();
        let exp = Experiment::single(&t, &requests);
        let spec = DesignSpec::MetalIx {
            ix: IxConfig::kb64(),
        };
        let r = run_native_design(&spec, &exp, &RunConfig::default());
        let m = r.native.expect("metrics");
        assert!(
            m.hot_hits > m.cold_reads,
            "reuse must ride the hot fast path: {} hot vs {} cold",
            m.hot_hits,
            m.cold_reads
        );
        assert!(m.walks_per_sec() > 0.0);
    }

    #[test]
    fn mlp_widths_agree_on_every_semantic_outcome() {
        let t = tree();
        let requests = crud_requests(800);
        let exp = Experiment::single(&t, &requests);
        for spec in [
            DesignSpec::Stream,
            DesignSpec::MetalIx {
                ix: IxConfig::kb64(),
            },
            DesignSpec::Metal {
                ix: IxConfig::kb64(),
                descriptors: vec![Descriptor::Node(NodeDescriptor::leaves())],
                tune: true,
                batch_walks: 100,
            },
        ] {
            let serial = run_native_design(&spec, &exp, &RunConfig::default());
            for width in [4usize, 8] {
                let cfg = RunConfig::default().with_mlp_width(width);
                let piped = run_native_design(&spec, &exp, &cfg);
                assert_eq!(
                    serial.stats,
                    piped.stats,
                    "width {width} changed '{}' semantics",
                    spec.label()
                );
                assert_eq!(serial.occupancy_by_level, piped.occupancy_by_level);
                assert_eq!(serial.band_history, piped.band_history);
                // And the simulator at the same width agrees too.
                let sim = run_design(&spec, &exp, &cfg);
                assert_eq!(sim.stats.probes, piped.stats.probes);
                assert_eq!(sim.stats.found_walks, piped.stats.found_walks);
                assert_eq!(sim.stats.node_splits, piped.stats.node_splits);
                assert_eq!(sim.stats.node_merges, piped.stats.node_merges);
            }
        }
    }

    #[test]
    fn width_one_runs_no_scouts_and_matches_serial_io_exactly() {
        let t = tree();
        let requests = crud_requests(400);
        let exp = Experiment::single(&t, &requests);
        let spec = DesignSpec::MetalIx {
            ix: IxConfig::kb64(),
        };
        let a = run_native_design(&spec, &exp, &RunConfig::default());
        let b = run_native_design(&spec, &exp, &RunConfig::default().with_mlp_width(1));
        let (ma, mb) = (a.native.unwrap(), b.native.unwrap());
        // Everything but measured time is byte-identical at width 1 — no
        // scout ever runs, so even measured I/O attribution matches.
        let strip = |m: NativeMetrics| NativeMetrics {
            wall_ns: 0,
            page_read_ns: 0,
            decode_ns: 0,
            ix_probe_ns: 0,
            node_scan_ns: 0,
            mutation_ns: 0,
            staging_ns: 0,
            ..m
        };
        assert_eq!(strip(ma), strip(mb));
        assert_eq!(ma.prefetched, 0);
        assert_eq!(ma.staged_hits, 0);
        assert_eq!(ma.staging_ns, 0, "no scout window at width 1");
        assert!(ma.node_scan_ns > 0, "walks accrued scan time");
        assert!(ma.ix_probe_ns > 0, "probes accrued probe time");
    }

    #[test]
    fn scouts_prefetch_ahead_and_reset_on_mutations() {
        let t = tree();
        // Read-heavy mix with occasional inserts: scouts must both do
        // useful staging and survive the mutation resets.
        let requests: Vec<WalkRequest> = (0..600)
            .map(|i| {
                let key = ((i * 61) % 4000) as Key * 2;
                if i % 97 == 0 {
                    WalkRequest::lookup(key + 1).with_op(OpKind::Insert)
                } else {
                    WalkRequest::lookup(key)
                }
            })
            .collect();
        let exp = Experiment::single(&t, &requests);
        let spec = DesignSpec::Stream;
        let r = run_native_design(&spec, &exp, &RunConfig::default().with_mlp_width(8));
        let m = r.native.unwrap();
        assert!(m.prefetched > 0, "scouts staged cold nodes");
        assert!(
            m.staged_hits > 0,
            "architect walks consumed staged nodes: {m:?}"
        );
        let serial = run_native_design(&spec, &exp, &RunConfig::default());
        assert_eq!(serial.stats, r.stats, "mutation resets kept semantics");
    }

    #[test]
    #[should_panic(expected = "not supported by the native backend")]
    fn unsupported_design_panics_with_context() {
        let t = tree();
        let requests = vec![WalkRequest::lookup(0)];
        let exp = Experiment::single(&t, &requests);
        run_native_design(
            &DesignSpec::Address {
                entries: 64,
                ways: 16,
            },
            &exp,
            &RunConfig::default(),
        );
    }
}
