//! Forensics regression tests: the cache-forensics analytics (entry
//! ledger, reuse/taxonomy profiles, regret meter) must reduce the event
//! stream identically regardless of worker count, and the in-process
//! `--analyze-out` path must agree bit for bit with an offline replay of
//! the same run's `--trace-out` JSONL — the two code paths CI users mix
//! freely. The miss-taxonomy classification itself is pinned to a
//! golden, since it is a pure function of the deterministic block
//! stream.

use metal::core::models::DesignSpec;
use metal::core::runner::{run_design, ObsConfig, RunConfig, ShardCtx};
use metal::core::IxConfig;
use metal::obs::{
    replay, validate_analysis, AnalysisRegistry, Json, JsonlReader, JsonlSink, JsonlWriter,
};
use metal::sim::obs::{shared, EventSink, MultiSink};
use metal::workloads::{Scale, Workload};
use std::path::PathBuf;
use std::sync::Arc;

/// The harness default taxonomy budget: 64 KiB of cache in 64 B blocks.
const BUDGET_BLOCKS: usize = 64 * 1024 / 64;

fn spmm_ci() -> metal::workloads::BuiltWorkload {
    Workload::SpMM.build(Scale::ci())
}

fn metal_spec(built: &metal::workloads::BuiltWorkload) -> DesignSpec {
    DesignSpec::Metal {
        ix: IxConfig::kb64(),
        descriptors: built.descriptors.clone(),
        tune: true,
        batch_walks: built.batch_walks,
    }
}

fn base_cfg(built: &metal::workloads::BuiltWorkload) -> RunConfig {
    RunConfig::default()
        .with_lanes(built.tiles)
        .with_shard_walks(256)
}

/// A config whose every shard feeds an analysis sink in `registry`.
fn analyzed_config(base: RunConfig, registry: &Arc<AnalysisRegistry>) -> RunConfig {
    let registry = registry.clone();
    base.with_obs(ObsConfig {
        sink_factory: Some(Arc::new(move |ctx: &ShardCtx| {
            Some(shared(registry.sink(&ctx.design)))
        })),
        progress: None,
        stall_cycles: None,
        total_cycles: None,
    })
}

#[test]
fn analysis_is_worker_count_invariant() {
    let built = spmm_ci();
    let (exp, spec, base) = (built.experiment(), metal_spec(&built), base_cfg(&built));

    let serial_reg = AnalysisRegistry::new(BUDGET_BLOCKS);
    run_design(
        &spec,
        &exp,
        &analyzed_config(base.clone().with_shards(1), &serial_reg),
    );
    let parallel_reg = AnalysisRegistry::new(BUDGET_BLOCKS);
    run_design(
        &spec,
        &exp,
        &analyzed_config(base.with_shards(4), &parallel_reg),
    );

    // Per-stream reduction + associative merge ⇒ the rendered document
    // is bit-identical across worker counts (to_json canonicalizes the
    // only scheduling-dependent order, the tuner timeline).
    let serial = serial_reg.snapshot().to_json().render();
    let parallel = parallel_reg.snapshot().to_json().render();
    assert_eq!(
        serial, parallel,
        "merged forensic analysis differs between 1 and 4 workers"
    );

    let doc = Json::parse(&serial).expect("analysis renders valid JSON");
    validate_analysis(&doc).expect("analysis must self-validate");
    let d = &serial_reg.snapshot().designs["metal"];
    assert!(d.ledger.filled > 0, "run must actually fill entries");
    assert!(
        d.regret.evictions > 0,
        "a 64 KiB cache under SpMM ci must evict"
    );
}

#[test]
fn offline_replay_matches_in_process_analysis() {
    let built = spmm_ci();
    let (exp, spec, base) = (built.experiment(), metal_spec(&built), base_cfg(&built));

    // One run, observed twice: the in-process AnalysisSink path and a
    // JSONL trace of the same events.
    let trace = std::env::temp_dir().join(format!(
        "metal-forensics-replay-{}.jsonl",
        std::process::id()
    ));
    let registry = AnalysisRegistry::new(BUDGET_BLOCKS);
    {
        let writer = JsonlWriter::create(&trace).expect("create temp trace");
        let reg = registry.clone();
        let cfg = base.with_shards(4).with_obs(ObsConfig {
            sink_factory: Some(Arc::new(move |ctx: &ShardCtx| {
                let sinks: Vec<Box<dyn EventSink>> = vec![
                    Box::new(JsonlSink::new(
                        writer.clone(),
                        "fig",
                        &ctx.design,
                        ctx.shard,
                    )),
                    Box::new(reg.sink(&ctx.design)),
                ];
                Some(shared(MultiSink::new(sinks)))
            })),
            progress: None,
            stall_cycles: None,
            total_cycles: None,
        });
        run_design(&spec, &exp, &cfg);
    }

    // Offline replay: the same demux-and-fold the `analyze` binary runs.
    let reader = JsonlReader::open(&trace).expect("open temp trace");
    let offline = replay(reader, BUDGET_BLOCKS, None).expect("trace replays");
    let _ = std::fs::remove_file(&trace);
    assert!(
        offline.metrics.len() > 1,
        "trace must demux into multiple logical-shard streams, got {}",
        offline.metrics.len()
    );
    let offline = offline.analysis;

    assert_eq!(
        registry.snapshot().to_json().render(),
        offline.to_json().render(),
        "offline JSONL replay diverged from the in-process analysis"
    );
}

// -- miss-taxonomy golden ---------------------------------------------------

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/goldens")
        .join(name)
}

fn check_golden(name: &str, produced: &str) {
    let path = golden_path(name);
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
    assert_eq!(
        produced, want,
        "{name} diverged from its golden; if intentional, regenerate with\n\
         METAL_UPDATE_GOLDENS=1 cargo test --test forensics"
    );
}

#[test]
fn taxonomy_golden_spmm_ci() {
    // The compulsory/capacity/conflict split is a pure function of the
    // deterministic DRAM block stream, so it is pinned byte-for-byte.
    // Any diff is a behavioral change to the memory system or the
    // classifier and must be intentional.
    let built = spmm_ci();
    let (exp, base) = (built.experiment(), base_cfg(&built));
    let designs = [
        ("stream", DesignSpec::Stream),
        (
            "metal-ix",
            DesignSpec::MetalIx {
                ix: IxConfig::kb64(),
            },
        ),
        ("metal", metal_spec(&built)),
    ];
    let mut out = String::from("design,compulsory,capacity,conflict\n");
    for (name, spec) in designs {
        let registry = AnalysisRegistry::new(BUDGET_BLOCKS);
        run_design(&spec, &exp, &analyzed_config(base.clone(), &registry));
        let snap = registry.snapshot();
        let t = &snap.designs[&snap.designs.keys().next().unwrap().clone()].taxonomy;
        out += &format!("{name},{},{},{}\n", t.compulsory, t.capacity, t.conflict);
    }
    check_golden("forensics_taxonomy_ci.csv", &out);
}
