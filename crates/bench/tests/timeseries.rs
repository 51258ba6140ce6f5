//! Integration gates for the epoch-windowed telemetry plane.
//!
//! Two properties the telemetry design promises, checked end to end
//! through the real runner (not synthetic event streams):
//!
//! 1. **Worker invariance** — the rendered series is byte-identical
//!    whether a run uses 1 worker thread or 4. Epoch boundaries are a
//!    pure function of each stream and window merging is commutative,
//!    so thread scheduling must never leak into the series.
//! 2. **Conservation** — every per-window counter summed over all
//!    windows equals the whole-run aggregate, enforced both directly
//!    (walk/probe sums) and through `validate_analysis` on the full
//!    `ANALYSIS.json` document.
//!
//! Both properties are checked on a Table 2 workload (WHERE, the
//! fig15 representative) and on the non-stationary `drift_hotspot_v1`
//! telemetry workload, whose phase changes make window boundaries and
//! the merge path actually carry signal.

use metal_bench::run_built;
use metal_core::runner::{ObsConfig, RunConfig};
use metal_obs::{analysis_document, scan_analysis, validate_analysis, WatchdogConfig};
use metal_obs::{AnalysisRegistry, TraceAnalysis};
use metal_sim::epoch::EpochSpec;
use metal_sim::obs::shared;
use metal_workloads::drift::drift_hotspot_v1;
use metal_workloads::{BuiltWorkload, Scale, Workload};
use std::sync::Arc;

/// The harness default cache size (`HarnessArgs::cache_bytes`).
const CACHE_BYTES: usize = 64 * 1024;

/// Runs `built` under all figure designs with a windowed analysis
/// registry attached, returning the merged aggregate.
fn analyze(built: &BuiltWorkload, workers: usize, epoch: EpochSpec) -> TraceAnalysis {
    let registry = AnalysisRegistry::windowed((CACHE_BYTES / 64).max(1), Some(epoch));
    let reg = Arc::clone(&registry);
    let obs = ObsConfig {
        sink_factory: Some(Arc::new(move |ctx| Some(shared(reg.sink(&ctx.design))))),
        progress: None,
        stall_cycles: None,
        total_cycles: None,
    };
    let cfg = RunConfig::default().with_shards(workers).with_obs(obs);
    run_built(built, CACHE_BYTES, cfg);
    registry.snapshot()
}

fn check_workload(built: &BuiltWorkload) {
    let epoch = EpochSpec::Walks(128);
    let serial = analyze(built, 1, epoch);
    let threaded = analyze(built, 4, epoch);

    // Worker invariance, at the byte level the ci gate relies on.
    let s1 = serial
        .series_json()
        .expect("windowed run must emit a series");
    let s4 = threaded
        .series_json()
        .expect("windowed run must emit a series");
    assert_eq!(
        s1.render(),
        s4.render(),
        "{}: series differs between 1 and 4 worker threads",
        built.name
    );

    // Conservation, checked directly against the aggregates...
    for (design, d) in &serial.designs {
        let series = d
            .series
            .as_ref()
            .unwrap_or_else(|| panic!("{design}: missing series"));
        assert!(
            series.windows.len() > 1,
            "{design}: epoch walks:128 must slice the run into several windows, got {}",
            series.windows.len()
        );
        let walks: u64 = series.windows.values().map(|w| w.walks()).sum();
        let probes: u64 = series.windows.values().map(|w| w.probes()).sum();
        assert_eq!(
            walks,
            d.counts.walks(),
            "{design}: window walk sum != whole-run walks"
        );
        assert_eq!(
            probes,
            d.counts.probes(),
            "{design}: window probe sum != whole-run probes"
        );

        // The cycle-accounting plane rides the same windows: per-window
        // component cycles must sum to the breakdown section's totals,
        // which themselves conserve against the walk latencies and the
        // busiest-lane horizon.
        let b = d
            .breakdown
            .as_ref()
            .unwrap_or_else(|| panic!("{design}: traced sim run must attribute cycles"));
        let mut windowed = [0u64; 5];
        for w in series.windows.values() {
            for (sum, part) in windowed.iter_mut().zip(w.cycles) {
                *sum += part;
            }
        }
        assert_eq!(
            windowed, b.cycles,
            "{design}: windowed cycle columns != breakdown totals"
        );
        assert_eq!(
            b.cycles_total(),
            b.latency_total,
            "{design}: components must sum to the total walk latency"
        );
        assert_eq!(
            b.lane_cycles_max, b.horizon,
            "{design}: busiest-lane cycles must reconcile with the exec horizon"
        );
    }

    // ...and through the full document validator (`analyze --validate`).
    let alerts = scan_analysis(&serial, &WatchdogConfig::default());
    let doc = analysis_document(&serial, &alerts);
    validate_analysis(&doc).unwrap_or_else(|e| {
        panic!(
            "{}: windowed ANALYSIS.json fails validation: {e}",
            built.name
        )
    });
}

#[test]
fn where_series_is_worker_invariant_and_conserving() {
    check_workload(&Workload::Where.build(Scale::ci()));
}

#[test]
fn drift_hotspot_series_is_worker_invariant_and_conserving() {
    check_workload(&drift_hotspot_v1(Scale::ci()));
}
