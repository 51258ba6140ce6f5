//! Observability regression tests: telemetry must never perturb the
//! simulation, and aggregated event streams must be worker-count
//! invariant just like the statistics they describe.

use metal::core::models::DesignSpec;
use metal::core::runner::{run_design, ObsConfig, RunConfig, ShardCtx};
use metal::core::IxConfig;
use metal::obs::MetricsRegistry;
use metal::sim::obs::{shared, NullSink};
use metal::workloads::{Scale, Workload};
use std::sync::Arc;

/// A config whose every shard reports into `registry`.
fn observed_config(base: RunConfig, registry: &Arc<MetricsRegistry>) -> RunConfig {
    let registry = registry.clone();
    base.with_obs(ObsConfig {
        sink_factory: Some(Arc::new(move |_ctx: &ShardCtx| {
            Some(shared(registry.sink()))
        })),
        progress: None,
        stall_cycles: None,
        total_cycles: None,
    })
}

#[test]
fn event_counts_and_histograms_are_shard_invariant() {
    let built = Workload::SpMM.build(Scale::ci());
    let exp = built.experiment();
    let spec = DesignSpec::Metal {
        ix: IxConfig::kb64(),
        descriptors: built.descriptors.clone(),
        tune: true,
        batch_walks: built.batch_walks,
    };
    let base = RunConfig::default()
        .with_lanes(built.tiles)
        .with_shard_walks(256);

    let serial_reg = MetricsRegistry::new();
    let serial = run_design(
        &spec,
        &exp,
        &observed_config(base.clone().with_shards(1), &serial_reg),
    );
    let parallel_reg = MetricsRegistry::new();
    let parallel = run_design(
        &spec,
        &exp,
        &observed_config(base.with_shards(4), &parallel_reg),
    );

    // The merged event streams agree counter for counter (shard flush
    // order is scheduling-dependent; the merge keeps the tuner decisions
    // in canonical order regardless)…
    let s = serial_reg.snapshot();
    let p = parallel_reg.snapshot();
    assert_eq!(
        s.events_by_kind, p.events_by_kind,
        "event counts differ between 1 and 4 workers"
    );
    assert_eq!(s, p, "aggregated event metrics differ across worker counts");
    assert!(s.probes() > 0, "the run must actually produce probe events");

    // …and the latency histogram agrees bucket for bucket, so the
    // percentile estimates are bit-identical too.
    assert_eq!(
        serial.stats.walk_latency.buckets(),
        parallel.stats.walk_latency.buckets(),
        "latency histogram buckets differ across worker counts"
    );
    assert_eq!(
        serial.stats.walk_latency.p50(),
        parallel.stats.walk_latency.p50()
    );
    assert_eq!(
        serial.stats.walk_latency.p99(),
        parallel.stats.walk_latency.p99()
    );

    // The trace's non-scan hit counts reconstruct RunStats::hit_levels.
    let traced: Vec<u64> = (0..serial.stats.hit_levels.len() as u8)
        .map(|l| s.hits_by_level.get(&l).copied().unwrap_or(0))
        .collect();
    assert_eq!(
        traced, serial.stats.hit_levels,
        "trace-derived per-level hits must match the statistics"
    );
}

#[test]
fn null_sink_run_is_bit_identical_to_unobserved_run() {
    let built = Workload::Where.build(Scale::ci());
    let exp = built.experiment();
    let spec = DesignSpec::Metal {
        ix: IxConfig::kb64(),
        descriptors: built.descriptors.clone(),
        tune: true,
        batch_walks: built.batch_walks,
    };
    let base = RunConfig::default().with_lanes(built.tiles);

    let bare = run_design(&spec, &exp, &base);
    let nulled = run_design(
        &spec,
        &exp,
        &base.clone().with_obs(ObsConfig {
            sink_factory: Some(Arc::new(|_ctx: &ShardCtx| Some(shared(NullSink)))),
            progress: None,
            stall_cycles: None,
            total_cycles: None,
        }),
    );
    assert_eq!(
        bare.stats, nulled.stats,
        "a NullSink must not perturb any statistic"
    );
    assert_eq!(bare.occupancy_by_level, nulled.occupancy_by_level);
    assert_eq!(bare.band_history, nulled.band_history);
}

#[test]
fn counting_sink_run_is_bit_identical_to_unobserved_run() {
    // Even an *enabled* sink must be observation-only: same stats, with
    // telemetry on the side.
    let built = Workload::Scan.build(Scale::ci());
    let exp = built.experiment();
    let spec = DesignSpec::MetalIx {
        ix: IxConfig::kb64(),
    };
    let base = RunConfig::default().with_lanes(built.tiles);

    let bare = run_design(&spec, &exp, &base);
    let registry = MetricsRegistry::new();
    let observed = run_design(&spec, &exp, &observed_config(base.clone(), &registry));
    assert_eq!(
        bare.stats, observed.stats,
        "an observing sink must not perturb any statistic"
    );
    let snap = registry.snapshot();
    assert_eq!(
        snap.walks(),
        bare.stats.walks,
        "one walk_end event per simulated walk"
    );
}
