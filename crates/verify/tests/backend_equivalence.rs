//! Backend equivalence: the simulator and the native executor must agree
//! exactly on every semantic outcome.
//!
//! The simulator *models* timing and energy, but its cache decisions and
//! walk results are real semantics: which walks find their key, which
//! writes split or merge nodes, which probes hit at which level. The
//! native backend executes the same request streams against materialized
//! paged B+tree nodes, so every one of those outcomes is recomputed by
//! entirely different machinery (page I/O + deserialized nodes instead
//! of modeled node vectors). This test pins the two together through
//! [`diff_reports`], the one definition of sim ≡ native (the fuzz
//! swarm's too):
//!
//! - `where` (read-mostly analytics), `uniform_std_v1` at 30% writes
//!   (CRUD: splits, merges, invalidation) and `drift_hotspot_v1`
//!   (drifting hotspot + scan storms) run at ci scale through both
//!   backends under every native-capable design, and must agree;
//! - worker count (`shards` 1 vs 4) must not change a single outcome,
//!   and a finite shard grain must shard both backends identically;
//! - MLP widths 4 and 8 must leave every outcome as at width 1;
//! - on the CRUD mix, the cache-side event sequences of `metal-ix` and
//!   `metal` must be identical event for event, at widths 1 and 8.
//!
//! The rows these runs produce are pinned once, as
//! `tests/goldens/fig_native_ci.csv`, by the golden figure test that
//! runs the real `fig fig_native` binary.
//!
//! Both backends run one cache-decision kernel (`metal_core::decide`),
//! so what this file guards is the rest: the two storage layers, the two
//! adapters around the kernel, and timing.

use metal_core::models::{DesignSpec, Experiment};
use metal_core::runner::{run_design, Backend, ObsConfig, RunConfig, RunReport, ShardCtx};
use metal_core::IxConfig;
use metal_sim::obs::{shared, Event, EventSink};
use metal_verify::native::diff_reports;
use metal_workloads::crud::uniform_std_v1;
use metal_workloads::drift::drift_hotspot_v1;
use metal_workloads::{BuiltWorkload, Scale, Workload};
use std::sync::{Arc, Mutex};

const CACHE_BYTES: usize = 64 * 1024;

/// The native-capable design roster, mirroring `figure_designs`' subset
/// (`fig_native` prints these same rows in this same order).
fn native_designs(built: &BuiltWorkload) -> Vec<(&'static str, DesignSpec)> {
    let ix = IxConfig::with_capacity_bytes(CACHE_BYTES);
    vec![
        ("stream", DesignSpec::Stream),
        ("metal-ix", DesignSpec::MetalIx { ix }),
        (
            "metal",
            DesignSpec::Metal {
                ix,
                descriptors: built.descriptors.clone(),
                tune: true,
                batch_walks: built.batch_walks,
            },
        ),
    ]
}

fn workloads() -> Vec<BuiltWorkload> {
    let scale = Scale::ci();
    vec![
        Workload::Where.build(scale),
        uniform_std_v1(scale, 30),
        drift_hotspot_v1(scale),
    ]
}

/// Panics with the first outcome on which `sim` and `native` differ.
fn assert_agree(label: &str, sim: &RunReport, native: &RunReport) {
    if let Err(d) = diff_reports(label, sim, native) {
        panic!("backend divergence: {}", d.what);
    }
}

#[test]
fn backends_agree() {
    for built in workloads() {
        let exp = built.experiment();
        for (name, spec) in native_designs(&built) {
            let label = format!("{}/{name}", built.name);
            let cfg = RunConfig::default().with_lanes(built.tiles);
            let native_cfg = cfg.clone().with_backend(Backend::Native);
            let sim = run_design(&spec, &exp, &cfg);
            let native = run_design(&spec, &exp, &native_cfg);
            assert_agree(&label, &sim, &native);
            assert!(
                sim.native.is_none(),
                "measured metrics belong to native reports only"
            );

            // Worker count never changes results, through either backend.
            let sim4 = run_design(&spec, &exp, &cfg.with_shards(4));
            let native4 = run_design(&spec, &exp, &native_cfg.with_shards(4));
            assert_agree(&format!("{label} (native shards=4)"), &sim, &native4);
            assert_agree(&format!("{label} (shards=4)"), &sim4, &native4);
        }
    }
}

#[test]
fn mlp_widths_are_semantically_invisible_through_both_backends() {
    // The MLP window (one architect + N−1 prefetching scouts natively;
    // per-lane overlapping DRAM windows in the simulator) is a pure
    // performance mechanism: at widths 1, 4 and 8 every semantic
    // outcome — found/write walks, splits, merges, probe accounting,
    // occupancy, tuner trajectories — must be bit-identical to the
    // serial width-1 run, and the two backends must still agree with
    // each other at every width.
    let built = uniform_std_v1(Scale::ci(), 30);
    let exp = built.experiment();
    for (name, spec) in native_designs(&built) {
        let base_cfg = RunConfig::default().with_lanes(built.tiles);
        let serial_sim = run_design(&spec, &exp, &base_cfg);
        for width in [4usize, 8] {
            let cfg = base_cfg.clone().with_mlp_width(width);
            let sim = run_design(&spec, &exp, &cfg);
            let native = run_design(&spec, &exp, &cfg.with_backend(Backend::Native));
            // Native at this width agrees with the serial simulator, and
            // the simulator at this width with native: neither backend's
            // semantics moved.
            assert_agree(
                &format!("{name} width {width} vs width 1"),
                &serial_sim,
                &native,
            );
            assert_agree(&format!("{name} width {width}"), &sim, &native);
        }
    }
}

#[test]
fn sharded_streams_shard_identically_through_both_backends() {
    // A finite shard grain changes results (cold caches per chunk, prefix
    // writes replayed) — but it must change them *identically* for both
    // backends, or the partitioned-accelerator model and the native
    // executor would drift apart under the one config where tree state
    // is rebuilt mid-stream.
    let built = uniform_std_v1(Scale::ci(), 30);
    let exp = built.experiment();
    for (name, spec) in native_designs(&built) {
        let cfg = RunConfig::default()
            .with_lanes(built.tiles)
            .with_shard_walks(1000);
        let sim = run_design(&spec, &exp, &cfg);
        let native = run_design(&spec, &exp, &cfg.clone().with_backend(Backend::Native));
        assert_agree(&format!("{name} (shard grain 1000)"), &sim, &native);
    }
}

/// Collects a run's cache-side events (probes, admissions, fills,
/// coalesces, evictions, splits, invalidations, tuner decisions) with
/// their timestamps stripped; the walk, fetch and breakdown events each
/// backend times its own way are dropped.
struct CacheEvents(Arc<Mutex<Vec<Event>>>);

impl EventSink for CacheEvents {
    fn emit(&mut self, _at: u64, ev: &Event) {
        if !matches!(
            ev,
            Event::WalkStart { .. }
                | Event::WalkEnd { .. }
                | Event::WalkBreakdown { .. }
                | Event::DramFetch { .. }
        ) {
            self.0.lock().unwrap().push(*ev);
        }
    }
}

/// The cache-side event sequence of one run (a single logical shard, so
/// the sequence is totally ordered).
fn cache_events(spec: &DesignSpec, exp: &Experiment<'_>, cfg: RunConfig) -> Vec<Event> {
    let events = Arc::new(Mutex::new(Vec::new()));
    let sink_events = events.clone();
    let cfg = cfg.with_obs(ObsConfig {
        sink_factory: Some(Arc::new(move |_: &ShardCtx| {
            Some(shared(CacheEvents(sink_events.clone())))
        })),
        ..ObsConfig::default()
    });
    run_design(spec, exp, &cfg);
    let out = events.lock().unwrap().clone();
    out
}

#[test]
fn backends_emit_identical_cache_event_sequences() {
    // Equal counters would also pass an adapter that reorders emission;
    // this compares the decisions themselves, in order.
    let built = uniform_std_v1(Scale::ci(), 30);
    let exp = built.experiment();
    for (name, spec) in native_designs(&built) {
        if name == "stream" {
            continue;
        }
        for width in [1usize, 8] {
            let cfg = RunConfig::default()
                .with_lanes(built.tiles)
                .with_mlp_width(width);
            let sim = cache_events(&spec, &exp, cfg.clone());
            let native = cache_events(&spec, &exp, cfg.with_backend(Backend::Native));
            assert!(
                sim.iter().any(|e| matches!(e, Event::Evict { .. }))
                    && sim.iter().any(|e| matches!(e, Event::Invalidate { .. })),
                "{name}: the CRUD mix must exercise eviction and invalidation"
            );
            if let Some(i) = (0..sim.len().max(native.len())).find(|&i| sim.get(i) != native.get(i))
            {
                panic!(
                    "{name} at width {width}: cache event {i} of {}/{} differs\n  sim:    {:?}\n  native: {:?}",
                    sim.len(),
                    native.len(),
                    sim.get(i),
                    native.get(i)
                );
            }
        }
    }
}
