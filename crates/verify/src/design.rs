//! Design-model accounting checks: the event trace must reconstruct the
//! statistics, and observation must never perturb them.
//!
//! Each case builds a small B+tree experiment, runs one [`DesignSpec`]
//! bare and once more with a [`MetricsRegistry`] sink attached, then
//! cross-checks the two: identical statistics (telemetry is
//! observe-only), one `walk_end` event per walk, traced per-level hit
//! counts equal to `RunStats::hit_levels` for the IX designs, and zero
//! `ix_probe` events from designs that have no IX-cache. Cross-design
//! invariants (found walks, writes, splits and merges must not depend
//! on the cache organization) ride along on the same experiment.

use crate::check::{fail, Divergence};
use crate::native::{gen_crud_reqs, CaseReq, STRIDE};
use metal_core::models::{DesignSpec, Experiment};
use metal_core::request::WalkRequest;
use metal_core::runner::{run_design, ObsConfig, RunConfig, RunReport, ShardCtx};
use metal_core::IxConfig;
use metal_index::BPlusTree;
use metal_obs::MetricsRegistry;
use metal_sim::obs::shared;
use metal_sim::rng::SplitRng;
use metal_sim::types::Addr;
use std::sync::Arc;

/// A config whose shards all report into `registry`.
fn observed(base: RunConfig, registry: &Arc<MetricsRegistry>) -> RunConfig {
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

/// Runs the accounting cross-check for one design over one experiment,
/// returning the bare run's report.
pub fn check_design(
    spec: &DesignSpec,
    exp: &Experiment<'_>,
    cfg: &RunConfig,
) -> Result<RunReport, Divergence> {
    let bare = run_design(spec, exp, cfg);
    let registry = MetricsRegistry::new();
    let traced = run_design(spec, exp, &observed(cfg.clone(), &registry));
    let label = spec.label();

    if bare.stats != traced.stats {
        return fail(
            0,
            format!("{label}: attaching a sink changed the statistics"),
        );
    }
    let st = &bare.stats;
    let snap = registry.snapshot();
    let ev = |kind: &str| snap.kind(kind);

    if ev("walk_end") != st.walks {
        return fail(
            0,
            format!(
                "{label}: {} walk_end events for {} walks",
                ev("walk_end"),
                st.walks
            ),
        );
    }
    if ev("walk_start") != st.walks {
        return fail(
            0,
            format!(
                "{label}: {} walk_start events for {} walks",
                ev("walk_start"),
                st.walks
            ),
        );
    }
    if st.misses > st.probes {
        return fail(
            0,
            format!("{label}: misses {} > probes {}", st.misses, st.probes),
        );
    }

    let is_ix = matches!(
        spec,
        DesignSpec::MetalIx { .. } | DesignSpec::Metal { .. } | DesignSpec::MetalPrivate { .. }
    );
    if is_ix {
        // The trace's non-scan hits must reconstruct the hit histogram.
        let traced_hits: Vec<u64> = (0..st.hit_levels.len() as u8)
            .map(|l| snap.hits_by_level.get(&l).copied().unwrap_or(0))
            .collect();
        if traced_hits != st.hit_levels {
            return fail(
                0,
                format!(
                    "{label}: traced hits {traced_hits:?} != stats.hit_levels {:?}",
                    st.hit_levels
                ),
            );
        }
        let histo: u64 = st.hit_levels.iter().sum();
        if histo > st.probes.saturating_sub(st.misses) {
            return fail(
                0,
                format!(
                    "{label}: hit histogram total {histo} exceeds probe hits {}",
                    st.probes - st.misses
                ),
            );
        }
    } else if ev("ix_probe") != 0 {
        return fail(
            0,
            format!(
                "{label}: emitted {} ix_probe events without an IX-cache",
                ev("ix_probe")
            ),
        );
    }
    Ok(bare)
}

/// One generated design case: a bulk-loaded tree's keys and fanout,
/// the request stream and the IX-cache geometry.
#[derive(Debug)]
pub(crate) struct DesignCase {
    keys: Vec<u64>,
    max_keys: usize,
    requests: Vec<WalkRequest>,
    entries: usize,
    key_block_bits: u32,
}

/// Draws one design case. The read-only swarm spaces keys by a random
/// stride and mixes hot, drifting, present and uniform lookups; the
/// `mutate` swarm holds even keys only and draws the native swarm's
/// CRUD mix ([`gen_crud_reqs`]), so every fresh insert forces leaf
/// splits as the run proceeds.
pub(crate) fn gen_design_case(seed: u64, mutate: bool) -> DesignCase {
    let mut rng = SplitRng::stream(seed, if mutate { 0xc40d_de51 } else { 0xde5170 });
    let n_keys = rng.gen_range(40..400u64) as usize;
    let stride = if mutate {
        STRIDE
    } else {
        rng.gen_range(1..9u64)
    };
    let keys: Vec<u64> = (0..n_keys as u64).map(|i| i * stride).collect();
    let max_keys = *crate::scenario::pick(&mut rng, &[4, 8, 16]);
    let requests = if mutate {
        let reqs = gen_crud_reqs(&mut rng, n_keys);
        reqs.iter().map(CaseReq::walk).collect()
    } else {
        gen_read_requests(&mut rng, &keys, stride)
    };
    DesignCase {
        keys,
        max_keys,
        requests,
        entries: *crate::scenario::pick(&mut rng, &[16, 64, 256]),
        key_block_bits: rng.gen_range(2..8u64) as u32,
    }
}

/// The read-only swarm's request stream over `keys` (spaced `stride`).
fn gen_read_requests(rng: &mut SplitRng, keys: &[u64], stride: u64) -> Vec<WalkRequest> {
    let n_reqs = rng.gen_range(30..200u64) as usize;
    let span = keys.len() as u64 * stride;
    let mut requests = Vec::with_capacity(n_reqs);
    let mut hot = 0u64;
    for _ in 0..n_reqs {
        let key = match rng.gen_range(0..5u64) {
            // Hot key: exercises pinning and reuse.
            0 => hot,
            // Sequential drift: exercises range reuse.
            1 => {
                hot = (hot + stride) % span.max(1);
                hot
            }
            // Present key.
            2 => keys[rng.gen_range(0..keys.len())],
            // Uniform (possibly absent) key.
            _ => rng.gen_range(0..span.max(1) + stride),
        };
        let mut req = WalkRequest::lookup(key);
        if rng.gen_range(0..4u64) == 0 {
            req = req.with_scan(rng.gen_range(1..4u64) as u32);
        }
        requests.push(req);
    }
    requests
}

/// Generates one small experiment and checks the full design roster on
/// it. Results and tree evolution must be design-independent: every
/// model replays the same writes on its private tree, so found counts
/// and structural mutation counters have to agree with the cache-less
/// Stream ground truth — a stale short-circuit in any cached design
/// changes them.
pub fn check_designs_case(seed: u64, mutate: bool) -> Result<(), Divergence> {
    let case = gen_design_case(seed, mutate);
    let tree = BPlusTree::bulk_load(&case.keys, case.max_keys, Addr(0x4000_0000), 16);
    let exp = Experiment::single(&tree, &case.requests);
    let (entries, ways) = (case.entries, 16.min(case.entries));
    let ix = IxConfig {
        entries,
        ways,
        key_block_bits: case.key_block_bits,
        wide_fraction: 0.5,
    };
    let specs = [
        DesignSpec::Stream,
        DesignSpec::Address { entries, ways },
        DesignSpec::FaOpt { entries },
        DesignSpec::XCache { entries, ways },
        DesignSpec::MetalIx { ix },
    ];
    let cfg = RunConfig::default().with_lanes(4);

    let mut outcomes = Vec::new();
    for spec in &specs {
        let st = check_design(spec, &exp, &cfg)?.stats;
        outcomes.push((
            spec.label(),
            [
                st.found_walks,
                st.write_walks,
                st.node_splits,
                st.node_merges,
            ],
        ));
    }
    if outcomes.iter().any(|o| o.1 != outcomes[0].1) {
        return fail(
            0,
            format!(
                "run diverges across designs (label, [found, writes, splits, merges]): \
                 {outcomes:?} (a stale cached short-circuit changes results)"
            ),
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn design_cases_pass() {
        for seed in 0..6 {
            if let Err(d) = check_designs_case(seed, false) {
                panic!("seed {seed}: {d}");
            }
        }
    }

    #[test]
    fn design_crud_cases_pass() {
        for seed in 0..6 {
            if let Err(d) = check_designs_case(seed, true) {
                panic!("seed {seed}: {d}");
            }
        }
    }

    #[test]
    fn fence_abandonment_regression() {
        // Swarm-found divergence (metal-ix one found_walk short of the
        // other designs): boundary deletes shrank a leaf's bounds, a
        // later level-1 rebalance rebuilt the separators from those
        // bounds and re-routed the abandoned margin, and the stale
        // span was emitted at level 1 only — so a level-0 tag spanning
        // the old boundary kept serving a stale short-circuit. Fixed by
        // staling structural ops at every level 0..=L.
        if let Err(d) = check_designs_case(9117530005772300191, true) {
            panic!("{d}");
        }
    }
}
