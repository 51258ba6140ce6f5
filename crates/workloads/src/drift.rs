//! `drift_hotspot_v1` — the drifting-hotspot workload with periodic
//! scan storms.
//!
//! A B+tree over a uniform keyspace probed by a stream whose locality
//! is deliberately *non-stationary*: most lookups concentrate in a
//! narrow [`DriftingCluster`] window that jumps to a fresh position at
//! a fixed period, and at a second (longer) period the stream switches
//! into a burst of leaf scans over whatever the hotspot currently is.
//! Between the phase changes the stream is steady, so windowed
//! telemetry shows long flat plateaus punctuated by sharp edges — the
//! exact shape the epoch series, `analyze --epoch` and the
//! anomaly watchdogs (hit-rate collapse on a hotspot jump, scan storm
//! on a burst) exist to expose. Whole-run aggregates average all of it
//! away.
//!
//! The generator is a pure function of `scale.seed`, so runs are
//! deterministic and shard-count invariant like every other workload in
//! the suite. It is intentionally *not* part of [`crate::Workload`]'s
//! Table 2 roster: the figure goldens pin that roster, and this
//! workload exists for the telemetry plane, not the paper's tables.

use crate::built::BuiltWorkload;
use crate::dist::DriftingCluster;
use crate::scale::Scale;
use crate::suite::band_for_tree;
use metal_core::descriptor::Descriptor;
use metal_core::request::WalkRequest;
use metal_dsa::tile::DsaSpec;
use metal_index::bptree::BPlusTree;
use metal_sim::rng::SplitRng;
use metal_sim::types::{Addr, Key};

/// Fraction of steady-phase lookups drawn from the hotspot window (the
/// rest are uniform background over the whole keyspace).
const HOT_FRACTION: u64 = 90;

/// Builds the `drift_hotspot_v1` workload.
///
/// The hotspot covers ~1/32 of the keyspace and jumps every 1/8 of the
/// walk budget; every 1/4 of the walk budget a scan storm of 1/32 of
/// the budget replaces lookups with short leaf scans over the hotspot.
pub fn drift_hotspot_v1(scale: Scale) -> BuiltWorkload {
    let spec = DsaSpec::gorgon_analytics();
    let n_keys = scale.keys.max(256);
    let keys: Vec<Key> = (0..n_keys).collect();
    let tree = BPlusTree::bulk_load_with_depth(&keys, scale.depth, Addr::new(0), 64);

    let mut rng = SplitRng::stream(scale.seed, 0xd81f);
    let walks = scale.walks.max(64);
    let width = (n_keys / 32).max(8).min(n_keys);
    let jump_period = (walks / 8).max(16);
    let storm_period = (walks / 4).max(32);
    let storm_len = (walks / 32).max(8);
    let mut hotspot = DriftingCluster::new(n_keys, width, jump_period);

    let mut requests = Vec::with_capacity(walks as usize);
    for i in 0..walks {
        let key = hotspot.sample(&mut rng);
        let in_storm = i % storm_period < storm_len && i >= storm_period;
        let req = if in_storm {
            // Storm phase: leaf scans sweep the hotspot, flushing the
            // cache the way an analytics range query does.
            WalkRequest::lookup(key).with_scan(rng.gen_range(2..6u64) as u32)
        } else if rng.gen_range(0..100u64) < HOT_FRACTION {
            WalkRequest::lookup(key).with_compute(spec.ops_per_compute)
        } else {
            // Background: uniform over the whole keyspace.
            WalkRequest::lookup(rng.gen_range(0..n_keys)).with_compute(spec.ops_per_compute)
        };
        requests.push(req);
    }

    let band = band_for_tree(&tree, 1024);
    BuiltWorkload {
        name: "drift_hotspot_v1",
        indexes: vec![Box::new(tree)],
        requests,
        descriptors: vec![Descriptor::Level(band)],
        batch_walks: scale.batch_walks(),
        tiles: spec.tiles,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = drift_hotspot_v1(Scale::ci());
        let b = drift_hotspot_v1(Scale::ci());
        assert_eq!(a.requests, b.requests);
        assert_eq!(a.name, "drift_hotspot_v1");
        assert_eq!(a.requests.len() as u64, Scale::ci().walks.max(64));
    }

    #[test]
    fn storms_appear_periodically_and_only_then_scan_heavily() {
        let scale = Scale::ci();
        let built = drift_hotspot_v1(scale);
        let walks = scale.walks.max(64);
        let storm_period = (walks / 4).max(32);
        let storm_len = (walks / 32).max(8);
        let mut storm_scans = 0u64;
        let mut storm_total = 0u64;
        let mut steady_scans = 0u64;
        let mut steady_total = 0u64;
        for (i, r) in built.requests.iter().enumerate() {
            let i = i as u64;
            let in_storm = i % storm_period < storm_len && i >= storm_period;
            if in_storm {
                storm_total += 1;
                storm_scans += u64::from(r.scan_leaves > 0);
            } else {
                steady_total += 1;
                steady_scans += u64::from(r.scan_leaves > 0);
            }
        }
        assert!(storm_total > 0, "ci scale must include at least one storm");
        assert_eq!(storm_scans, storm_total, "storm phases are all scans");
        assert_eq!(steady_scans, 0, "steady phases never scan");
        assert!(steady_total > storm_total, "storms are the minority phase");
    }

    #[test]
    fn steady_phase_concentrates_in_the_hotspot() {
        let scale = Scale::ci();
        let built = drift_hotspot_v1(scale);
        let n_keys = scale.keys.max(256);
        let width = (n_keys / 32).max(8);
        // With 90% of steady lookups inside a width-wide window, the
        // whole-run distinct-key count stays far below uniform's.
        let distinct: std::collections::BTreeSet<Key> =
            built.requests.iter().map(|r| r.key).collect();
        assert!(
            (distinct.len() as u64) < n_keys / 2,
            "hotspot workload touched {} of {} keys",
            distinct.len(),
            n_keys
        );
        assert!(width < n_keys, "hotspot is a strict subset of the space");
    }
}
