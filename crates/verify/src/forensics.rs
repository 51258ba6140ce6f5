//! Cross-checks for the `metal-obs` forensic analytics.
//!
//! The forensics (entry ledger, reuse profile, miss taxonomy, regret
//! meter) are *derived* views over the event stream, so they get the
//! same treatment as the simulator itself: independent, obviously
//! correct re-derivations to diff against.
//!
//! - [`naive_regret`] re-derives the eviction-regret verdicts with a
//!   Belady-style forward scan (for every eviction, look into the
//!   actual future for the victim's re-reference vs the incoming
//!   entry's first hit) — `O(evictions × events)`, no windows, no
//!   incremental state. The streaming `RegretMeter` must agree exactly.
//! - [`check_taxonomy_references`] diffs the taxonomy's classification,
//!   derived from the reuse profiler's stack distances, against
//!   [`crate::refcache::RefSetLru`] (degenerate single-set
//!   configuration) access by access, and pins
//!   the Belady bound: the taxonomy's `compulsory + capacity` is the
//!   FA-LRU miss count, which [`OptCache`] (optimal by
//!   construction) can never exceed at equal capacity.

use metal_obs::reuse::{MissTaxonomy, ReuseProfiler};
use metal_obs::{LogHist, RegretSummary};
use metal_sim::caches::OptCache;
use metal_sim::obs::Event;
use metal_sim::rng::SplitRng;
use metal_sim::types::BlockAddr;

use crate::refcache::RefSetLru;

/// Belady-style reference for eviction regret: replays the recorded
/// future of each eviction instead of tracking open windows. Verdict
/// rules mirror `metal_obs::RegretMeter`: scanning forward from the
/// eviction, the first probe that hits the incoming entry vindicates it
/// (checked first, so a simultaneous re-reference is not *before* the
/// hit), the first probe landing in the victim's span regrets it, and
/// the incoming entry's own eviction — or end of stream — leaves it
/// unresolved.
pub fn naive_regret(events: &[(u64, Event)]) -> RegretSummary {
    let mut s = RegretSummary {
        evictions: 0,
        regretted: 0,
        vindicated: 0,
        unresolved: 0,
        regret_distance: LogHist::default(),
    };
    for (i, (_, ev)) in events.iter().enumerate() {
        let Event::Evict {
            index,
            lo,
            hi,
            for_entry,
            ..
        } = *ev
        else {
            continue;
        };
        s.evictions += 1;
        let mut probes = 0u64;
        let mut resolved = false;
        for (_, later) in &events[i + 1..] {
            match *later {
                Event::IxProbe {
                    index: pi,
                    key,
                    hit,
                    entry,
                    ..
                } => {
                    probes += 1;
                    if hit && entry == for_entry {
                        s.vindicated += 1;
                        resolved = true;
                        break;
                    }
                    if pi == index && (lo..=hi).contains(&key) {
                        s.regretted += 1;
                        s.regret_distance.observe(probes);
                        resolved = true;
                        break;
                    }
                }
                Event::Evict { entry, .. } if entry == for_entry => {
                    s.unresolved += 1;
                    resolved = true;
                    break;
                }
                _ => {}
            }
        }
        if !resolved {
            s.unresolved += 1;
        }
    }
    s
}

/// Differential + Belady-bound check of the miss-taxonomy references
/// for one seed. Returns the first divergence as an error string.
pub fn check_taxonomy_references(seed: u64) -> Result<(), String> {
    let entries = 64;
    let mut rng = SplitRng::stream(seed, 0x7a11);
    let mut reuse = ReuseProfiler::new();
    let mut ref_lru = RefSetLru::new(entries, entries);
    let mut taxonomy = MissTaxonomy::new(entries);
    let mut trace = Vec::new();
    for op in 0..4000u64 {
        // Skewed mix: a hot core that mostly hits plus a cold tail that
        // forces capacity evictions.
        let block = if rng.gen_range(0u64..4) == 0 {
            rng.gen_range(0u64..48)
        } else {
            rng.gen_range(0u64..1024)
        };
        let dist = reuse.observe(block);
        let got = taxonomy.classify(dist);
        let want = ref_lru.access(block);
        if got != want {
            return Err(format!(
                "seed {seed} op {op}: taxonomy reference hit {got} (reuse distance \
                 {dist:?}) but RefSetLru {want} for block {block}"
            ));
        }
        trace.push(BlockAddr::new(block));
    }
    let counts = taxonomy.counts();
    let lru_misses = counts.compulsory + counts.capacity;
    if counts.total() != 4000 {
        return Err(format!(
            "seed {seed}: taxonomy classified {} of 4000 accesses",
            counts.total()
        ));
    }
    let opt = OptCache::new(entries).simulate(&trace);
    if opt.misses > lru_misses {
        return Err(format!(
            "seed {seed}: Belady misses {} exceed FA-LRU misses {lru_misses} — \
             the taxonomy's capacity classification is broken",
            opt.misses
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use metal_core::models::DesignSpec;
    use metal_core::runner::{run_design, ObsConfig, RunConfig, ShardCtx};
    use metal_core::IxConfig;
    use metal_obs::RegretMeter;
    use metal_sim::obs::{shared, EventSink};
    use metal_workloads::{Scale, Workload};
    use std::sync::{Arc, Mutex};

    /// Collects the full `(at, event)` stream across threads.
    struct CollectSink(Arc<Mutex<Vec<(u64, Event)>>>);

    impl EventSink for CollectSink {
        fn emit(&mut self, at: u64, ev: &Event) {
            self.0.lock().unwrap().push((at, *ev));
        }
    }

    /// One seeded METAL run with a deliberately small IX-cache so the
    /// eviction machinery is exercised hard; single logical shard so the
    /// collected stream is totally ordered.
    fn seeded_event_stream() -> Vec<(u64, Event)> {
        let built = Workload::SpMM.build(Scale::ci().with_keys(6_000).with_walks(800));
        let exp = built.experiment();
        let spec = DesignSpec::Metal {
            ix: IxConfig::with_capacity_bytes(4 * 1024),
            descriptors: built.descriptors.clone(),
            tune: true,
            batch_walks: built.batch_walks,
        };
        let events: Arc<Mutex<Vec<(u64, Event)>>> = Arc::new(Mutex::new(Vec::new()));
        let sink_events = events.clone();
        let cfg = RunConfig::default()
            .with_lanes(built.tiles)
            .with_shards(1)
            .with_obs(ObsConfig {
                sink_factory: Some(Arc::new(move |_ctx: &ShardCtx| {
                    Some(shared(CollectSink(sink_events.clone())))
                })),
                progress: None,
                stall_cycles: None,
                total_cycles: None,
            });
        run_design(&spec, &exp, &cfg);
        Arc::try_unwrap(events)
            .map(|m| m.into_inner().unwrap())
            .unwrap_or_else(|arc| arc.lock().unwrap().clone())
    }

    #[test]
    fn regret_meter_matches_belady_forward_scan() {
        let events = seeded_event_stream();
        let evictions = events
            .iter()
            .filter(|(_, e)| matches!(e, Event::Evict { .. }))
            .count();
        assert!(
            evictions > 50,
            "scenario too tame ({evictions} evictions) to exercise regret"
        );
        let mut meter = RegretMeter::new();
        for (_, ev) in &events {
            match *ev {
                Event::IxProbe {
                    index,
                    key,
                    hit,
                    entry,
                    ..
                } => {
                    meter.probe(index, key, hit, entry);
                }
                Event::Evict {
                    index,
                    lo,
                    hi,
                    entry,
                    for_entry,
                    ..
                } => meter.evict(index, lo, hi, entry, for_entry),
                _ => {}
            }
        }
        let streaming = meter.finish();
        let reference = naive_regret(&events);
        assert!(streaming.is_conserved(), "verdicts must sum to evictions");
        assert_eq!(
            streaming, reference,
            "streaming regret meter diverged from the Belady forward scan"
        );
        assert!(
            streaming.regretted > 0,
            "a thrashing cache must show some regretted evictions"
        );
    }

    #[test]
    fn taxonomy_references_agree_across_seeds() {
        for seed in 0..8 {
            check_taxonomy_references(seed).unwrap();
        }
    }
}
