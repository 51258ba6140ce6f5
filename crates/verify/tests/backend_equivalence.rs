//! Backend equivalence: the simulator and the native executor must agree
//! exactly on every semantic outcome.
//!
//! The simulator *models* timing and energy, but its cache decisions and
//! walk results are real semantics: which walks find their key, which
//! writes split or merge nodes, which probes hit at which level. The
//! native backend executes the same request streams against materialized
//! paged B+tree nodes, so every one of those outcomes is recomputed by
//! entirely different machinery (page I/O + deserialized nodes instead
//! of modeled node vectors). This test pins the two together:
//!
//! - `where` (read-mostly analytics), `uniform_std_v1` at 30% writes
//!   (CRUD: splits, merges, invalidation) and `drift_hotspot_v1`
//!   (drifting hotspot + scan storms) run at ci scale through both
//!   backends under every native-capable design;
//! - `(found_walks, write_walks, node_splits, node_merges)`, the probe
//!   counters and the per-level IX hit counts must be identical;
//! - the combined rows are pinned byte-for-byte as
//!   `tests/goldens/fig_native_ci.csv` (the same bytes the `fig_native`
//!   binary prints — `ci.sh` diffs the binary's output against the same
//!   golden, which keeps this file's row formatting honest);
//! - worker count (`shards` 1 vs 4) must not change a single row, and a
//!   finite shard grain must shard both backends identically;
//! - on the CRUD mix, the cache-side event sequences of `metal-ix` and
//!   `metal` must be identical event for event, at widths 1 and 8.
//!
//! Both backends run one cache-decision kernel (`metal_core::decide`),
//! so what this file guards is the rest: the two storage layers, the two
//! adapters around the kernel, and timing.
//!
//! Regenerate after an intentional model change with:
//!
//! ```text
//! METAL_UPDATE_GOLDENS=1 cargo test -p metal-verify --test backend_equivalence
//! ```

use metal_core::models::{DesignSpec, Experiment};
use metal_core::runner::{run_design, Backend, ObsConfig, RunConfig, RunReport, ShardCtx};
use metal_core::IxConfig;
use metal_sim::obs::{shared, Event, EventSink};
use metal_workloads::crud::uniform_std_v1;
use metal_workloads::drift::drift_hotspot_v1;
use metal_workloads::{BuiltWorkload, Scale, Workload};
use std::path::PathBuf;
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

/// One golden CSV row — must format exactly like `fig_native`'s rows.
fn outcome_row(workload: &str, design: &str, backend: &str, r: &RunReport) -> String {
    let hit_levels = if r.stats.hit_levels.is_empty() {
        "-".to_string()
    } else {
        r.stats
            .hit_levels
            .iter()
            .map(|n| n.to_string())
            .collect::<Vec<_>>()
            .join(":")
    };
    format!(
        "{workload},{design},{backend},{},{},{},{},{},{},{},{},{},{},{hit_levels}",
        r.stats.walks,
        r.stats.found_walks,
        r.stats.write_walks,
        r.stats.node_splits,
        r.stats.node_merges,
        r.stats.probes,
        r.stats.misses,
        r.stats.inserts,
        r.stats.bypasses,
        r.stats.entries_invalidated,
    )
}

const HEADER: &str = "workload,design,backend,walks,found,write,splits,merges,\
                      probes,misses,inserts,bypasses,invalidated,hit_levels";

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("tests/goldens/fig_native_ci.csv")
}

fn check_golden(produced: &str) {
    let path = golden_path();
    if std::env::var("METAL_UPDATE_GOLDENS").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, produced).unwrap();
        eprintln!("updated {}", path.display());
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "{}: {e}\n(run with METAL_UPDATE_GOLDENS=1 to create)",
            path.display()
        )
    });
    if produced != want {
        let diff: Vec<String> = produced
            .lines()
            .zip(want.lines())
            .filter(|(a, b)| a != b)
            .map(|(a, b)| format!("  got:  {a}\n  want: {b}"))
            .collect();
        panic!(
            "fig_native_ci.csv diverged from its golden ({} differing rows):\n{}\n\
             If intentional, regenerate with METAL_UPDATE_GOLDENS=1 \
             cargo test -p metal-verify --test backend_equivalence",
            diff.len(),
            diff.join("\n")
        );
    }
}

/// The semantic outcomes both backends must agree on, as a comparable
/// tuple (everything except modeled timing/energy/working-set numbers,
/// which only the simulator produces).
#[allow(clippy::type_complexity)]
fn semantics(r: &RunReport) -> (u64, u64, u64, u64, u64, u64, u64, u64, u64, u64, Vec<u64>) {
    (
        r.stats.found_walks,
        r.stats.write_walks,
        r.stats.node_splits,
        r.stats.node_merges,
        r.stats.probes,
        r.stats.misses,
        r.stats.inserts,
        r.stats.bypasses,
        r.stats.levels_skipped,
        r.stats.entries_invalidated,
        r.stats.hit_levels.clone(),
    )
}

#[test]
fn backends_agree_and_golden_is_pinned() {
    let mut rows = vec![HEADER.replace(' ', "")];
    for built in workloads() {
        let exp = built.experiment();
        for (name, spec) in native_designs(&built) {
            let cfg = RunConfig::default().with_lanes(built.tiles);
            let sim = run_design(&spec, &exp, &cfg);
            let native = run_design(&spec, &exp, &cfg.clone().with_backend(Backend::Native));
            assert_eq!(
                semantics(&sim),
                semantics(&native),
                "{}/{name}: backend divergence",
                built.name
            );
            assert_eq!(
                sim.stats.dram_node_reads, native.stats.dram_node_reads,
                "{}/{name}: node-fetch counts differ",
                built.name
            );
            assert_eq!(
                sim.occupancy_by_level, native.occupancy_by_level,
                "{}/{name}: final cache occupancy differs",
                built.name
            );
            assert_eq!(
                sim.band_history, native.band_history,
                "{}/{name}: tuner trajectories differ",
                built.name
            );
            assert!(
                native.native.is_some() && sim.native.is_none(),
                "measured metrics belong to native reports only"
            );

            // Worker count never changes results, through either backend.
            for backend in [Backend::Sim, Backend::Native] {
                let four = run_design(
                    &spec,
                    &exp,
                    &cfg.clone().with_backend(backend).with_shards(4),
                );
                let base = if backend == Backend::Sim {
                    &sim
                } else {
                    &native
                };
                assert_eq!(
                    semantics(base),
                    semantics(&four),
                    "{}/{name}: shards=4 changed {backend:?} results",
                    built.name
                );
            }

            rows.push(outcome_row(built.name, name, "sim", &sim));
            rows.push(outcome_row(built.name, name, "native", &native));
        }
    }
    check_golden(&(rows.join("\n") + "\n"));
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
        let serial_native =
            run_design(&spec, &exp, &base_cfg.clone().with_backend(Backend::Native));
        for width in [4usize, 8] {
            let cfg = base_cfg.clone().with_mlp_width(width);
            let sim = run_design(&spec, &exp, &cfg);
            let native = run_design(&spec, &exp, &cfg.clone().with_backend(Backend::Native));
            assert_eq!(
                semantics(&serial_sim),
                semantics(&sim),
                "{name}: width {width} changed simulator semantics"
            );
            assert_eq!(
                semantics(&serial_native),
                semantics(&native),
                "{name}: width {width} changed native semantics"
            );
            assert_eq!(
                sim.stats.dram_node_reads, native.stats.dram_node_reads,
                "{name}: width {width} node-fetch counts differ"
            );
            assert_eq!(
                sim.occupancy_by_level, native.occupancy_by_level,
                "{name}: width {width} final cache occupancy differs"
            );
            assert_eq!(
                sim.band_history, native.band_history,
                "{name}: width {width} tuner trajectories differ"
            );
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
        assert_eq!(
            semantics(&sim),
            semantics(&native),
            "{name}: sharded backend divergence"
        );
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
