//! Experiment runner: executes one request stream under each cache design
//! and produces comparable reports.
//!
//! This is the software analogue of the paper's evaluation harness: the
//! same walks run through Stream / Address / FA-OPT / X-Cache / METAL-IX /
//! METAL with identical DRAM and tile models, so every difference in the
//! report is attributable to the cache organization and policy.
//!
//! ## Sharded execution (opt-in)
//!
//! With the default [`RunConfig::shard_walks`] grain (`u64::MAX`) every
//! request stream runs as one chunk on one engine — exactly the serial
//! single-engine methodology, whatever the worker count. Setting a
//! finite grain opts into *logical sharding*: the stream is partitioned
//! into contiguous chunks of `shard_walks` requests, each simulated by
//! its own engine + walk model (its own caches, DRAM and statistics —
//! the hardware analogue is one independent accelerator partition per
//! shard), then merged with [`RunStats::merge`]. Sharding is a
//! *modelling choice*, not an implementation detail: each chunk starts
//! with cold caches and tuner state, so a finite grain simulates a
//! partitioned accelerator and changes results.
//!
//! What never changes results is the worker count
//! [`RunConfig::shards`]: the chunk partition is a pure function of the
//! experiment and `shard_walks` — **never** of the thread count — so
//! `run(shards = 1) == run(shards = k)` bit-identically for every merged
//! statistic; threads only change wall-clock time.

use crate::descriptor::Descriptor;
use crate::ixcache::IxConfig;
use crate::models::{DesignModel, DesignSpec, Experiment};
use metal_sim::engine::Engine;
use metal_sim::obs::SharedSink;
use metal_sim::stats::RunStats;
use metal_sim::SimConfig;
use std::fmt;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Identifies one (design, logical shard) simulation for the sink
/// factory: which design label is running and which contiguous chunk of
/// the request stream it covers (`shard` is 0 for unsharded runs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardCtx {
    /// The design label ("stream", "metal", …) being simulated.
    pub design: String,
    /// Logical shard index within the design's request stream.
    pub shard: u64,
}

/// Builds an event sink for one (design, shard) simulation, or `None` to
/// leave that simulation unobserved. The factory itself crosses worker
/// threads (`Send + Sync`); the sinks it returns live on the simulating
/// thread, so they may be cheap `Rc`-shared single-thread objects that
/// forward to shared state (a file writer, a metrics registry) internally.
pub type SinkFactory = Arc<dyn Fn(&ShardCtx) -> Option<SharedSink> + Send + Sync>;

/// Observability hooks on a run. Default (`None` everywhere) is the
/// unobserved fast path: no sink is constructed and no event code runs.
#[derive(Clone, Default)]
pub struct ObsConfig {
    /// Per-(design, shard) event-sink factory.
    pub sink_factory: Option<SinkFactory>,
    /// Shared walk counter, incremented once per walk issued. Lets a
    /// harness thread report progress without touching simulation state.
    pub progress: Option<Arc<AtomicU64>>,
    /// Shared gauge of cumulative exposed DRAM-stall cycles, fed by the
    /// engine's per-walk cycle accounting (heartbeat stall fraction).
    pub stall_cycles: Option<Arc<AtomicU64>>,
    /// Shared gauge of cumulative attributed walk cycles (the stall
    /// gauge's denominator). Both gauges are observe-only.
    pub total_cycles: Option<Arc<AtomicU64>>,
}

impl fmt::Debug for ObsConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ObsConfig")
            .field("sink_factory", &self.sink_factory.as_ref().map(|_| "…"))
            .field("progress", &self.progress)
            .field("stall_cycles", &self.stall_cycles)
            .field("total_cycles", &self.total_cycles)
            .finish()
    }
}

/// Which execution backend runs the walks.
///
/// Both backends share the request streams, design specs, event grammar
/// and [`RunReport`] shape, and must agree exactly on semantic outcomes
/// (found walks, write/split/merge counts, cache hit levels under
/// identical cache decisions) — `crates/verify/tests/backend_equivalence.rs`
/// enforces that. They differ in what the numbers *mean*: the simulator
/// models cycles/energy on a synthetic machine; the native backend
/// executes real paged B+tree nodes and measures wall-clock and page
/// I/O ([`RunReport::native`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// Cycle-level simulation ([`metal_sim::engine::Engine`]).
    #[default]
    Sim,
    /// Native execution over paged storage
    /// ([`crate::native::run_native_design`]). Supports the lane-shared
    /// designs only (`stream`, `metal-ix`, `metal`).
    Native,
}

/// Runner configuration.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Simulator parameters (DRAM, latencies, lanes, energy).
    pub sim: SimConfig,
    /// Walks per working-set measurement window (Fig. 16).
    pub ws_window: u64,
    /// Worker threads simulating shards (and designs) concurrently.
    /// `0` means "use all available parallelism"; `1` runs serially.
    /// Never affects results, only wall-clock time.
    pub shards: usize,
    /// Walks per logical shard. The request stream is cut into contiguous
    /// chunks of this size; each chunk runs on its own engine and the
    /// chunk statistics are merged. Determines *results* (each chunk has
    /// cold caches), so it is fixed independently of `shards`.
    pub shard_walks: u64,
    /// Observability hooks (event sinks, progress counter). Observe-only:
    /// never changes simulated results, only what gets recorded.
    pub obs: ObsConfig,
    /// Execution backend: simulate the walks or execute them natively.
    pub backend: Backend,
}

/// Default logical-shard grain: effectively unbounded, so every stream
/// runs as a single chunk and default results are identical to the
/// serial single-engine methodology. Sharding — simulating a partitioned
/// accelerator — is opt-in via [`RunConfig::with_shard_walks`].
pub const DEFAULT_SHARD_WALKS: u64 = u64::MAX;

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            sim: SimConfig::default(),
            ws_window: 1024,
            shards: 0,
            shard_walks: DEFAULT_SHARD_WALKS,
            obs: ObsConfig::default(),
            backend: Backend::Sim,
        }
    }
}

impl RunConfig {
    /// Overrides the lane (tile) count.
    pub fn with_lanes(mut self, lanes: usize) -> Self {
        self.sim = self.sim.with_lanes(lanes);
        self
    }

    /// Sets the memory-level-parallelism window (walks in flight per
    /// lane, the `--mlp-width` flag). Width 1 — the default — is the
    /// serial walker and leaves every result byte-identical. Wider
    /// windows overlap DRAM refills per lane in the simulator and
    /// software-pipeline prefetching walks in the native backend;
    /// semantic outcomes stay bit-identical to width 1 in both, because
    /// the cache-decision sequence remains a function of walk order
    /// alone (only modeled timing and measured wall clock change).
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0.
    pub fn with_mlp_width(mut self, width: usize) -> Self {
        self.sim = self.sim.with_mlp_width(width);
        self
    }

    /// The configured MLP window ([`RunConfig::with_mlp_width`]).
    pub fn mlp_width(&self) -> usize {
        self.sim.mlp_width.max(1)
    }

    /// Overrides the worker-thread count (`0` = all available cores).
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Overrides the logical-shard grain (walks per shard), opting into
    /// partitioned-accelerator semantics: every chunk starts cold, so a
    /// finite grain changes simulated results, not just wall-clock time.
    ///
    /// # Panics
    ///
    /// Panics if `shard_walks` is 0.
    pub fn with_shard_walks(mut self, shard_walks: u64) -> Self {
        assert!(shard_walks > 0, "shards must contain at least one walk");
        self.shard_walks = shard_walks;
        self
    }

    /// Attaches observability hooks (event-sink factory and/or progress
    /// counter). Observe-only: simulated results are unchanged.
    pub fn with_obs(mut self, obs: ObsConfig) -> Self {
        self.obs = obs;
        self
    }

    /// Selects the execution backend (default: [`Backend::Sim`]).
    pub fn with_backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// The number of worker threads to actually spawn.
    pub fn worker_threads(&self) -> usize {
        if self.shards == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            self.shards
        }
    }
}

/// The logical shard partition: contiguous chunks of at most
/// `shard_walks` requests. Pure function of (stream length, grain) so the
/// partition — and therefore every merged statistic — is independent of
/// how many worker threads execute it.
pub(crate) fn shard_bounds(n_requests: usize, shard_walks: u64) -> Vec<Range<usize>> {
    let grain = shard_walks.max(1).min(usize::MAX as u64) as usize;
    let mut out = Vec::with_capacity(n_requests.div_ceil(grain).max(1));
    let mut lo = 0;
    while lo < n_requests {
        let hi = lo.saturating_add(grain).min(n_requests);
        out.push(lo..hi);
        lo = hi;
    }
    if out.is_empty() {
        out.push(0..0);
    }
    out
}

/// The outcome of running one design over one experiment.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// The design's label ("stream", "address", …).
    pub design: String,
    /// Merged statistics (timing, energy, hit rates, working set).
    pub stats: RunStats,
    /// Final IX-cache occupancy per index level (Fig. 21); empty for
    /// designs without an IX-cache.
    pub occupancy_by_level: Vec<usize>,
    /// Tuned band history per index (Fig. 22); empty unless tuning ran.
    pub band_history: Vec<Vec<(u8, u8)>>,
    /// Measured execution counters (wall time, page I/O, hot-map hits);
    /// `None` for simulated runs.
    pub native: Option<crate::native::NativeMetrics>,
}

impl RunReport {
    /// Speedup of this run relative to `baseline` (ratio of exec times).
    pub fn speedup_vs(&self, baseline: &RunReport) -> f64 {
        let own = self.stats.exec_cycles.get().max(1) as f64;
        baseline.stats.exec_cycles.get() as f64 / own
    }

    /// DRAM energy relative to `baseline` (lower is better).
    pub fn dram_energy_vs(&self, baseline: &RunReport) -> f64 {
        let base = baseline.stats.dram_energy_fj.max(1) as f64;
        self.stats.dram_energy_fj as f64 / base
    }
}

/// Runs one design over one logical shard on one engine (the original
/// serial path). `shard` only labels events; it never affects results.
/// `prefix` holds the requests preceding this chunk in the full stream:
/// their write ops are replayed against the model-private trees (cost
/// free) so the chunk walks the tree state a serial run would reach.
fn run_design_shard(
    spec: &DesignSpec,
    exp: &Experiment<'_>,
    cfg: &RunConfig,
    shard: u64,
    prefix: &[crate::request::WalkRequest],
) -> RunReport {
    let mut model = DesignModel::new_with_prefix(spec, exp, cfg.sim, cfg.ws_window, prefix);
    let mut engine = Engine::new(cfg.sim);
    let sink = cfg.obs.sink_factory.as_ref().and_then(|make| {
        make(&ShardCtx {
            design: spec.label().to_string(),
            shard,
        })
    });
    if let Some(s) = &sink {
        engine.set_sink(Some(s.clone()));
        model.set_sink(Some(s.clone()));
    }
    model.set_progress(cfg.obs.progress.clone());
    engine.set_cycle_gauges(cfg.obs.stall_cycles.clone(), cfg.obs.total_cycles.clone());
    let engine_report = engine.run(&mut model);
    model.finalize();
    if let Some(s) = &sink {
        s.borrow_mut().flush();
    }

    let mut stats = model.stats.clone();
    stats.exec_cycles = engine_report.exec_cycles;
    stats.walk_latency = engine_report.walk_latency;
    stats.breakdown = engine_report.breakdown;
    stats.dram_energy_fj = engine.dram().energy_fj();
    stats.dram_bytes = engine.dram().bytes();
    stats.working_set = engine.dram().working_set().clone();
    stats.distinct_blocks = stats.working_set.distinct_blocks();

    let max_depth = model.max_depth();
    let occupancy_by_level = model.occupancy_by_level(max_depth).unwrap_or_default();
    let band_history = model
        .tuners()
        .map(|ts| ts.iter().map(|t| t.history().to_vec()).collect())
        .unwrap_or_default();

    RunReport {
        design: spec.label().to_string(),
        stats,
        occupancy_by_level,
        band_history,
        native: None,
    }
}

/// Merges per-shard reports (in shard order) into one run report.
///
/// Statistics merge through [`RunStats::merge`]; occupancy histograms sum
/// elementwise; band histories concatenate per index in shard order.
pub(crate) fn merge_reports(mut reports: Vec<RunReport>) -> RunReport {
    let mut merged = reports.remove(0);
    for r in reports {
        merged.stats.merge(&r.stats);
        match (&mut merged.native, &r.native) {
            (Some(m), Some(n)) => m.merge(n),
            (slot @ None, Some(n)) => *slot = Some(*n),
            _ => {}
        }
        if merged.occupancy_by_level.len() < r.occupancy_by_level.len() {
            merged
                .occupancy_by_level
                .resize(r.occupancy_by_level.len(), 0);
        }
        for (l, n) in r.occupancy_by_level.iter().enumerate() {
            merged.occupancy_by_level[l] += n;
        }
        if merged.band_history.len() < r.band_history.len() {
            merged.band_history.resize(r.band_history.len(), Vec::new());
        }
        for (i, h) in r.band_history.into_iter().enumerate() {
            merged.band_history[i].extend(h);
        }
    }
    merged
}

/// Runs one design over the experiment, sharding the request stream
/// across worker threads when it exceeds one shard grain (see the module
/// docs for the determinism contract).
pub fn run_design(spec: &DesignSpec, exp: &Experiment<'_>, cfg: &RunConfig) -> RunReport {
    if cfg.backend == Backend::Native {
        return crate::native::backend::run_native_design(spec, exp, cfg);
    }
    let bounds = shard_bounds(exp.requests.len(), cfg.shard_walks);
    if bounds.len() <= 1 {
        return run_design_shard(spec, exp, cfg, 0, &[]);
    }

    let reports = worker_pool(&bounds, cfg.worker_threads(), |i, range| {
        // Writes earlier in the stream must be visible to this chunk's
        // walks even though its caches start cold.
        let prefix = &exp.requests[..range.start];
        run_design_shard(spec, &exp.slice(range.clone()), cfg, i as u64, prefix)
    });
    merge_reports(reports)
}

/// Runs `job(i, &items[i])` for every item on up to `workers` scoped
/// threads pulling indices from one shared cursor, and returns the
/// results in item order — so the output never depends on which worker
/// ran which item.
fn worker_pool<T: Sync, R: Send>(
    items: &[T],
    workers: usize,
    job: impl Fn(usize, &T) -> R + Sync,
) -> Vec<R> {
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..workers.min(items.len()).max(1) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                let result = job(i, item);
                *slots[i].lock().expect("worker slot poisoned") = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("worker slot poisoned")
                .expect("every item produced a result")
        })
        .collect()
}

/// The standard comparison set the paper's figures iterate over.
///
/// `cache_bytes` sizes every design's cache identically (64 kB default in
/// the paper); `descriptors` configures METAL's per-index patterns;
/// `batch_walks` sets the tuning batch.
pub fn standard_designs(
    cache_bytes: usize,
    descriptors: Vec<Descriptor>,
    batch_walks: u64,
) -> Vec<DesignSpec> {
    let entries = (cache_bytes / 64).max(16);
    let ix = IxConfig::with_capacity_bytes(cache_bytes);
    vec![
        DesignSpec::Stream,
        DesignSpec::Address { entries, ways: 16 },
        DesignSpec::FaOpt { entries },
        DesignSpec::XCache { entries, ways: 16 },
        DesignSpec::MetalIx { ix },
        DesignSpec::Metal {
            ix,
            descriptors: descriptors.clone(),
            tune: false,
            batch_walks,
        },
        DesignSpec::Metal {
            ix,
            descriptors,
            tune: true,
            batch_walks,
        },
    ]
}

/// Runs the full standard comparison, returning one report per design
/// (the tuned METAL run is labelled `metal+tune`).
///
/// The designs are independent (each owns its caches, DRAM model and
/// statistics), so they fan out across worker threads; reports come back
/// in design order and each design's run is itself deterministic, so the
/// output is identical to the serial sweep.
pub fn run_comparison(
    exp: &Experiment<'_>,
    cfg: &RunConfig,
    cache_bytes: usize,
    descriptors: Vec<Descriptor>,
    batch_walks: u64,
) -> Vec<RunReport> {
    let designs = standard_designs(cache_bytes, descriptors, batch_walks);
    let mut reports = run_designs_parallel(&designs, exp, cfg);

    let mut metal_seen = false;
    for (spec, report) in designs.iter().zip(reports.iter_mut()) {
        if matches!(spec, DesignSpec::Metal { tune: true, .. }) && metal_seen {
            report.design = "metal+tune".to_string();
        }
        if matches!(spec, DesignSpec::Metal { tune: false, .. }) {
            metal_seen = true;
        }
    }
    reports
}

/// Runs several designs over the same experiment concurrently, returning
/// reports in design order. `cfg.shards` caps the worker count; results
/// are identical to running each design serially.
pub fn run_designs_parallel(
    designs: &[DesignSpec],
    exp: &Experiment<'_>,
    cfg: &RunConfig,
) -> Vec<RunReport> {
    let workers = cfg.worker_threads().min(designs.len()).max(1);
    if workers == 1 {
        return designs.iter().map(|d| run_design(d, exp, cfg)).collect();
    }
    // Each design may shard its own request stream in turn; run it
    // serially within its worker to bound the thread count.
    let inner = RunConfig {
        shards: 1,
        ..cfg.clone()
    };
    worker_pool(designs, workers, |_, spec| run_design(spec, exp, &inner))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::descriptor::NodeDescriptor;
    use crate::request::WalkRequest;
    use metal_index::bptree::BPlusTree;
    use metal_sim::types::{Addr, Key};

    fn tree() -> BPlusTree {
        let keys: Vec<Key> = (0..5000).collect();
        BPlusTree::bulk_load(&keys, 4, Addr::new(0), 16)
    }

    fn zipfish_requests(n: usize) -> Vec<WalkRequest> {
        // Deterministic skewed stream: 70% of walks over 5% of keys.
        (0..n)
            .map(|i| {
                let key = if i % 10 < 7 {
                    ((i * 37) % 250) as Key
                } else {
                    ((i * 1009) % 5000) as Key
                };
                WalkRequest::lookup(key).with_compute(8)
            })
            .collect()
    }

    #[test]
    fn stream_is_the_slowest_design() {
        let t = tree();
        let requests = zipfish_requests(2000);
        let exp = Experiment::single(&t, &requests);
        let cfg = RunConfig::default();
        let stream = run_design(&DesignSpec::Stream, &exp, &cfg);
        let metal = run_design(
            &DesignSpec::MetalIx {
                ix: IxConfig::kb64(),
            },
            &exp,
            &cfg,
        );
        assert!(
            metal.speedup_vs(&stream) > 1.2,
            "METAL-IX should beat streaming, got {:.2}x",
            metal.speedup_vs(&stream)
        );
    }

    #[test]
    fn metal_beats_address_cache_on_skewed_walks() {
        // The paper's regime: index far larger than the cache (50 k keys →
        // ~16 k nodes vs 1024 cache entries), bursty short-term key reuse
        // (SpMM-style), and 64 B records so data fetches pollute the
        // unified address cache without spatial sharing.
        let keys: Vec<Key> = (0..50_000).collect();
        let t = BPlusTree::bulk_load(&keys, 4, Addr::new(0), 64);
        let requests: Vec<WalkRequest> = (0..6000)
            .map(|i| {
                // Bursts of 64 walks to the same key (one per row of an
                // SpMM row-block); the column key drifts between bursts.
                let burst = i / 64;
                let key = ((burst * 4093) % 50_000) as Key;
                WalkRequest::lookup(key).with_compute(8).with_life(64)
            })
            .collect();
        let exp = Experiment::single(&t, &requests);
        let cfg = RunConfig::default();
        let addr = run_design(
            &DesignSpec::Address {
                entries: 1024,
                ways: 16,
            },
            &exp,
            &cfg,
        );
        let metal = run_design(
            &DesignSpec::Metal {
                ix: IxConfig::kb64(),
                descriptors: vec![Descriptor::Node(NodeDescriptor::leaves())],
                tune: false,
                batch_walks: 1000,
            },
            &exp,
            &cfg,
        );
        assert!(
            metal.speedup_vs(&addr) > 1.0,
            "METAL should beat the address cache, got {:.2}x",
            metal.speedup_vs(&addr)
        );
        assert!(
            metal.stats.cache_energy_fj < addr.stats.cache_energy_fj,
            "one probe per walk must beat a probe per level: {} vs {}",
            metal.stats.cache_energy_fj,
            addr.stats.cache_energy_fj
        );
        assert!(
            metal.stats.probes < addr.stats.probes / 4,
            "probe-count reduction is the §5.7 claim"
        );
    }

    #[test]
    fn run_comparison_produces_all_designs() {
        let t = tree();
        let requests = zipfish_requests(500);
        let exp = Experiment::single(&t, &requests);
        let reports = run_comparison(
            &exp,
            &RunConfig::default(),
            64 * 1024,
            vec![Descriptor::Node(NodeDescriptor::leaves())],
            250,
        );
        let labels: Vec<&str> = reports.iter().map(|r| r.design.as_str()).collect();
        assert_eq!(
            labels,
            vec![
                "stream",
                "address",
                "fa-opt",
                "x-cache",
                "metal-ix",
                "metal",
                "metal+tune"
            ]
        );
        for r in &reports {
            assert_eq!(r.stats.walks, 500, "{} completed all walks", r.design);
            assert!(r.stats.exec_cycles.get() > 0);
        }
    }

    #[test]
    fn tuned_metal_reports_band_history() {
        let t = tree();
        let requests = zipfish_requests(1000);
        let exp = Experiment::single(&t, &requests);
        let report = run_design(
            &DesignSpec::Metal {
                ix: IxConfig::kb64(),
                descriptors: vec![Descriptor::Level(crate::descriptor::LevelDescriptor::band(
                    2, 4,
                ))],
                tune: true,
                batch_walks: 100,
            },
            &exp,
            &RunConfig::default(),
        );
        assert_eq!(report.band_history.len(), 1, "one index, one history");
        assert_eq!(report.band_history[0].len(), 10, "1000 walks / 100 batch");
    }

    #[test]
    fn private_slices_run_and_lose_to_shared() {
        // All lanes walk the same hot region: a shared cache warms once
        // and serves everyone; private slices each warm separately and
        // have 1/lanes the reach (the paper's supplemental conclusion).
        let t = tree();
        let requests = zipfish_requests(3000);
        let exp = Experiment::single(&t, &requests);
        let cfg = RunConfig::default().with_lanes(16);
        let shared = run_design(
            &DesignSpec::Metal {
                ix: IxConfig::kb64(),
                descriptors: vec![Descriptor::All],
                tune: false,
                batch_walks: 1000,
            },
            &exp,
            &cfg,
        );
        let private = run_design(
            &DesignSpec::MetalPrivate {
                ix: IxConfig::kb64(),
                descriptors: vec![Descriptor::All],
            },
            &exp,
            &cfg,
        );
        assert_eq!(private.design, "metal-private");
        assert_eq!(private.stats.walks, 3000);
        assert!(
            shared.stats.exec_cycles <= private.stats.exec_cycles,
            "shared {} should not lose to private {}",
            shared.stats.exec_cycles,
            private.stats.exec_cycles
        );
    }

    #[test]
    fn shard_bounds_are_contiguous_and_complete() {
        let bounds = shard_bounds(10_000, 4096);
        assert_eq!(bounds, vec![0..4096, 4096..8192, 8192..10_000]);
        assert_eq!(shard_bounds(0, 4096), vec![0..0]);
        assert_eq!(shard_bounds(4096, 4096), vec![0..4096]);
        assert_eq!(shard_bounds(10_000, u64::MAX), vec![0..10_000]);
    }

    #[test]
    fn default_grain_matches_single_engine() {
        // The high-order contract: with the default (unbounded) grain the
        // runner is the pre-sharding serial engine — one chunk, one
        // engine — regardless of worker count, so published figures keep
        // the single-accelerator methodology unless sharding is opted
        // into explicitly.
        let t = tree();
        let requests = zipfish_requests(20_000); // well past any finite grain
        let exp = Experiment::single(&t, &requests);
        let cfg = RunConfig::default().with_shards(4);
        let spec = DesignSpec::MetalIx {
            ix: IxConfig::kb64(),
        };
        let default_run = run_design(&spec, &exp, &cfg);
        let serial = run_design_shard(&spec, &exp, &cfg, 0, &[]);
        assert_eq!(default_run.stats, serial.stats);
        assert_eq!(default_run.occupancy_by_level, serial.occupancy_by_level);
    }

    #[test]
    fn sharded_run_is_worker_count_invariant() {
        let t = tree();
        let requests = zipfish_requests(2000);
        let exp = Experiment::single(&t, &requests);
        // Grain 500 → four logical shards regardless of worker count.
        let base = RunConfig::default().with_shard_walks(500);
        let spec = DesignSpec::Metal {
            ix: IxConfig::kb64(),
            descriptors: vec![Descriptor::Node(NodeDescriptor::leaves())],
            tune: true,
            batch_walks: 100,
        };
        let serial = run_design(&spec, &exp, &base.clone().with_shards(1));
        let parallel = run_design(&spec, &exp, &base.with_shards(4));
        assert_eq!(serial.stats, parallel.stats);
        assert_eq!(serial.occupancy_by_level, parallel.occupancy_by_level);
        assert_eq!(serial.band_history, parallel.band_history);
        assert_eq!(serial.stats.walks, 2000);
    }

    #[test]
    fn sharded_run_with_writes_is_worker_count_invariant() {
        // CRUD mix over an even-keyed tree: inserts are genuine (odd
        // keys), deletes hit resident keys, and every shard must replay
        // its prefix writes to walk the same tree state a serial run
        // sees — regardless of how many workers execute the shards.
        use crate::request::OpKind;
        let keys: Vec<Key> = (0..5000).map(|k| k * 2).collect();
        let t = BPlusTree::bulk_load(&keys, 4, Addr::new(0), 16);
        let requests: Vec<WalkRequest> = (0..2000)
            .map(|i| {
                let key = ((i * 37) % 5000) as Key * 2;
                match i % 10 {
                    0 => WalkRequest::lookup(key + 1).with_op(OpKind::Insert),
                    1 => WalkRequest::lookup(key).with_op(OpKind::Delete),
                    2 => WalkRequest::lookup(key).with_op(OpKind::Update),
                    _ => WalkRequest::lookup(key),
                }
            })
            .collect();
        let exp = Experiment::single(&t, &requests);
        let base = RunConfig::default().with_shard_walks(500);
        let spec = DesignSpec::MetalIx {
            ix: IxConfig::kb64(),
        };
        let serial = run_design(&spec, &exp, &base.clone().with_shards(1));
        let parallel = run_design(&spec, &exp, &base.with_shards(4));
        assert_eq!(serial.stats, parallel.stats);
        assert_eq!(serial.occupancy_by_level, parallel.occupancy_by_level);
        assert_eq!(serial.stats.write_walks, 600);
        assert!(serial.stats.node_splits > 0, "inserts split leaves");
    }

    #[test]
    fn comparison_fanout_matches_serial_sweep() {
        let t = tree();
        let requests = zipfish_requests(800);
        let exp = Experiment::single(&t, &requests);
        let cfg = RunConfig::default();
        let descriptors = vec![Descriptor::Node(NodeDescriptor::leaves())];
        let parallel = run_comparison(
            &exp,
            &cfg.clone().with_shards(4),
            64 * 1024,
            descriptors.clone(),
            200,
        );
        let serial = run_comparison(&exp, &cfg.with_shards(1), 64 * 1024, descriptors, 200);
        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.design, p.design);
            assert_eq!(
                s.stats, p.stats,
                "{} differs across worker counts",
                s.design
            );
        }
    }

    #[test]
    fn reports_are_deterministic() {
        let t = tree();
        let requests = zipfish_requests(600);
        let exp = Experiment::single(&t, &requests);
        let cfg = RunConfig::default();
        let run = || {
            let r = run_design(
                &DesignSpec::MetalIx {
                    ix: IxConfig::kb64(),
                },
                &exp,
                &cfg,
            );
            (
                r.stats.exec_cycles,
                r.stats.misses,
                r.stats.dram_energy_fj,
                r.stats.levels_skipped,
            )
        };
        assert_eq!(run(), run());
    }
}
