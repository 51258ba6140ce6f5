//! Design-model accounting checks: the event trace must reconstruct the
//! statistics, and observation must never perturb them.
//!
//! Each case builds a small B+tree experiment, runs one [`DesignSpec`]
//! bare and once more with a [`MetricsRegistry`] sink attached, then
//! cross-checks the two: identical statistics (telemetry is
//! observe-only), one `walk_end` event per walk, traced per-level hit
//! counts equal to `RunStats::hit_levels` for the IX designs, and zero
//! `ix_probe` events from designs that have no IX-cache. Cross-design
//! invariants (`found_walks` must not depend on the cache organization)
//! ride along on the same experiment.

use crate::check::Divergence;
use metal_core::models::{DesignSpec, Experiment};
use metal_core::request::{OpKind, WalkRequest};
use metal_core::runner::{run_design, ObsConfig, RunConfig, ShardCtx};
use metal_core::IxConfig;
use metal_index::BPlusTree;
use metal_obs::MetricsRegistry;
use metal_sim::obs::shared;
use metal_sim::rng::SplitRng;
use metal_sim::types::Addr;
use std::sync::Arc;

fn fail(op: usize, what: impl Into<String>) -> Result<(), Divergence> {
    Err(Divergence {
        op,
        what: what.into(),
    })
}

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

/// Runs the accounting cross-check for one design over one experiment.
pub fn check_design(
    spec: &DesignSpec,
    exp: &Experiment<'_>,
    cfg: &RunConfig,
) -> Result<(), Divergence> {
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
    Ok(())
}

/// Generates one small experiment and checks the full design roster on
/// it, including the cross-design `found_walks` invariant.
pub fn check_designs_case(seed: u64) -> Result<(), Divergence> {
    let mut rng = SplitRng::stream(seed, 0xde5170);
    let n_keys = rng.gen_range(40..400u64) as usize;
    let stride = rng.gen_range(1..9u64);
    let keys: Vec<u64> = (0..n_keys as u64).map(|i| i * stride).collect();
    let max_keys = *crate::scenario::pick(&mut rng, &[4, 8, 16]);
    let tree = BPlusTree::bulk_load(&keys, max_keys, Addr(0x4000_0000), 16);

    let n_reqs = rng.gen_range(30..200u64) as usize;
    let span = n_keys as u64 * stride;
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
    let exp = Experiment::single(&tree, &requests);

    let entries = *crate::scenario::pick(&mut rng, &[16, 64, 256]);
    let ix = IxConfig {
        entries,
        ways: 16.min(entries),
        key_block_bits: rng.gen_range(2..8u64) as u32,
        wide_fraction: 0.5,
    };
    let specs = [
        DesignSpec::Stream,
        DesignSpec::Address {
            entries,
            ways: 16.min(entries),
        },
        DesignSpec::FaOpt { entries },
        DesignSpec::XCache {
            entries,
            ways: 16.min(entries),
        },
        DesignSpec::MetalIx { ix },
    ];
    let cfg = RunConfig::default().with_lanes(4);

    let mut found = Vec::new();
    for spec in &specs {
        check_design(spec, &exp, &cfg)?;
        found.push(run_design(spec, &exp, &cfg).stats.found_walks);
    }
    if found.iter().any(|&f| f != found[0]) {
        return fail(
            0,
            format!(
                "found_walks differs across designs: {found:?} (cache must not change results)"
            ),
        );
    }
    Ok(())
}

/// The mutating variant of [`check_designs_case`]: the request stream
/// interleaves INSERT/UPDATE/DELETE walks with lookups and scans, so a
/// stale short-circuit in any cached design changes its `found_walks`
/// (or structural counters) relative to the cache-less Stream ground
/// truth. The tree holds even keys only, so `present + 1` is always a
/// genuinely fresh insert that forces leaf splits as the run proceeds.
pub fn check_designs_case_crud(seed: u64) -> Result<(), Divergence> {
    let mut rng = SplitRng::stream(seed, 0xc40d_de51);
    let n_keys = rng.gen_range(40..400u64) as usize;
    let stride = 2u64;
    let keys: Vec<u64> = (0..n_keys as u64).map(|i| i * stride).collect();
    let max_keys = *crate::scenario::pick(&mut rng, &[4, 8, 16]);
    let tree = BPlusTree::bulk_load(&keys, max_keys, Addr(0x4000_0000), 16);

    let n_reqs = rng.gen_range(30..200u64) as usize;
    let span = n_keys as u64 * stride;
    let mut requests = Vec::with_capacity(n_reqs);
    for _ in 0..n_reqs {
        let present = keys[rng.gen_range(0..keys.len())];
        let req = match rng.gen_range(0..10u64) {
            0 | 1 => WalkRequest::lookup(present + 1).with_op(OpKind::Insert),
            2 => WalkRequest::lookup(present).with_op(OpKind::Delete),
            3 => WalkRequest::lookup(present).with_op(OpKind::Update),
            _ => {
                let key = rng.gen_range(0..span.max(1) + stride);
                let mut r = WalkRequest::lookup(key);
                if rng.gen_range(0..4u64) == 0 {
                    r = r.with_scan(rng.gen_range(1..4u64) as u32);
                }
                r
            }
        };
        requests.push(req);
    }
    let exp = Experiment::single(&tree, &requests);

    let entries = *crate::scenario::pick(&mut rng, &[16, 64, 256]);
    let ix = IxConfig {
        entries,
        ways: 16.min(entries),
        key_block_bits: rng.gen_range(2..8u64) as u32,
        wide_fraction: 0.5,
    };
    let specs = [
        DesignSpec::Stream,
        DesignSpec::Address {
            entries,
            ways: 16.min(entries),
        },
        DesignSpec::FaOpt { entries },
        DesignSpec::XCache {
            entries,
            ways: 16.min(entries),
        },
        DesignSpec::MetalIx { ix },
    ];
    let cfg = RunConfig::default().with_lanes(4);

    // Results and tree evolution must be design-independent: every
    // model replays the same writes on its private tree, so found
    // counts and structural mutation counters have to agree with the
    // cache-less ground truth.
    let mut outcomes = Vec::new();
    for spec in &specs {
        check_design(spec, &exp, &cfg)?;
        let st = run_design(spec, &exp, &cfg).stats;
        outcomes.push((
            spec.label(),
            st.found_walks,
            st.write_walks,
            st.node_splits,
            st.node_merges,
        ));
    }
    if outcomes.iter().any(|o| {
        (o.1, o.2, o.3, o.4) != (outcomes[0].1, outcomes[0].2, outcomes[0].3, outcomes[0].4)
    }) {
        return fail(
            0,
            format!(
                "mutated run diverges across designs (label, found, writes, splits, merges): \
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
            if let Err(d) = check_designs_case(seed) {
                panic!("seed {seed}: {d}");
            }
        }
    }

    #[test]
    fn design_crud_cases_pass() {
        for seed in 0..6 {
            if let Err(d) = check_designs_case_crud(seed) {
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
        if let Err(d) = check_designs_case_crud(9117530005772300191) {
            panic!("{d}");
        }
    }
}
