//! Epoch-windowed metric series: the time axis of the forensic stack.
//!
//! A [`TimeSeries`] holds one [`EventCounts`] per epoch, where the epoch
//! of every event is assigned by the deterministic
//! [`metal_sim::epoch::EpochClock`] of its own (design, shard) stream.
//! Two consequences fall out of that choice:
//!
//! - **merge safety**: windows merge by per-epoch [`EventCounts::merge`],
//!   so the merged series is independent of shard arrival order and
//!   worker count — `shards=1 == shards=k` holds *per window*, not just
//!   in total;
//! - **conservation**: every event lands in exactly one window, so each
//!   counter summed over windows equals the whole-run aggregate
//!   (`validate_analysis` enforces this when a series is present).
//!
//! A window counts its events through the same [`EventCounts::observe`]
//! as the manifest's metrics and the analyzer's whole-run counts; this
//! module only slices and renders. Regret verdicts are the one count no
//! single event determines: the analyzer adds those from its
//! [`crate::ledger::RegretMeter`].

use crate::json::Json;
use crate::metrics::EventCounts;
use metal_sim::epoch::EpochSpec;
use std::collections::BTreeMap;

/// The per-design epoch series: one [`EventCounts`] per epoch that saw
/// at least one event.
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeries {
    /// The window width every stream of this series was sliced by.
    pub spec: EpochSpec,
    /// Windows keyed by epoch number (sparse: empty epochs are absent).
    pub windows: BTreeMap<u64, EventCounts>,
}

impl TimeSeries {
    /// An empty series sliced by `spec`.
    pub fn new(spec: EpochSpec) -> TimeSeries {
        TimeSeries {
            spec,
            windows: BTreeMap::new(),
        }
    }

    /// The window for `epoch`, created empty on first touch.
    pub fn window_mut(&mut self, epoch: u64) -> &mut EventCounts {
        self.windows.entry(epoch).or_default()
    }

    /// Folds `other` into `self` per epoch; commutative and associative.
    ///
    /// # Panics
    ///
    /// Panics when the two series were sliced by different specs — their
    /// windows would not be comparable.
    pub fn merge(&mut self, other: &TimeSeries) {
        assert_eq!(
            self.spec, other.spec,
            "cannot merge series with different epoch specs"
        );
        for (epoch, w) in &other.windows {
            self.windows.entry(*epoch).or_default().merge(w);
        }
    }

    /// The series JSON object: the spec and the window array in epoch
    /// order. Equal series render equal bytes regardless of merge order.
    pub fn to_json(&self) -> Json {
        let windows = self.windows.iter().map(|(&e, w)| w.window_json(e));
        Json::obj([
            ("epoch", Json::str(self.spec.render())),
            ("windows", Json::Arr(windows.collect())),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jsonl::tests::{parse_all, render};
    use metal_sim::obs::{AdmitReason, Event, EvictReason, PackMode};

    fn events() -> Vec<Event> {
        vec![
            Event::WalkBreakdown {
                walk: 0,
                lane: 0,
                ix_probe: 2,
                compute: 8,
                queue: 5,
                stall: 60,
                hidden: 15,
                latency: 90,
            },
            Event::WalkEnd {
                walk: 0,
                lane: 0,
                latency: 90,
            },
            Event::IxProbe {
                index: 0,
                key: 10,
                hit: true,
                level: 2,
                short_circuit: 2,
                set: 1,
                scan: false,
                entry: 7,
            },
            Event::IxProbe {
                index: 0,
                key: 11,
                hit: false,
                level: 0,
                short_circuit: 0,
                set: 1,
                scan: true,
                entry: 0,
            },
            Event::Insert {
                index: 0,
                level: 2,
                set: 1,
                life: 0,
                reason: AdmitReason::LevelBand,
            },
            Event::Fill {
                index: 0,
                level: 2,
                set: 1,
                entry: 8,
                pack: PackMode::Exact,
            },
            Event::Evict {
                index: 0,
                level: 2,
                set: 1,
                reason: EvictReason::Capacity,
                entry: 7,
                lo: 0,
                hi: 63,
                for_entry: 8,
            },
            Event::DramFetch {
                lane: 0,
                addr: 640,
                bytes: 64,
                done: 50,
            },
            Event::Invalidate {
                index: 0,
                level: 2,
                set: 1,
                entry: 8,
                lo: 0,
                hi: 31,
                killed: false,
            },
        ]
    }

    #[test]
    fn event_and_json_windows_agree() {
        // The offline side reads the real writer's lines back through
        // the trace parser.
        let stamped: Vec<(u64, Event)> = events().into_iter().map(|ev| (0, ev)).collect();
        let mut live = EventCounts::default();
        let mut offline = EventCounts::default();
        for (at, ev) in &stamped {
            live.observe(*at, ev);
        }
        for line in parse_all(&render(&stamped)) {
            offline.observe(line.at, &line.ev);
        }
        assert_eq!(live, offline);
        assert_eq!(live.walks(), 1);
        assert_eq!(live.probes(), 2);
        assert_eq!(live.scan_probes, 1);
        assert_eq!(live.misses(), 1);
        assert_eq!(live.hits_by_level[&2], 1);
        assert_eq!(live.kind("fill"), 1);
        assert_eq!(live.evictions_total(), 1);
        assert_eq!(live.kind("invalidate") - live.invalidation_kills, 1);
        assert_eq!(live.latency_log2.total(), 1);
        assert_eq!(
            live.cycles_total(),
            90,
            "breakdown cycle columns partition the walk's latency"
        );
        assert_eq!(live.cycles, [2, 8, 5, 60, 15]);
        let w = live.window_json(0);
        assert_eq!(
            w.get("occupancy_delta").unwrap().as_u64(),
            Some(0),
            "one fill, one evict"
        );
        assert_eq!(w.get("invalidation_shrinks").unwrap().as_u64(), Some(1));
        assert_eq!(w.get("stall_cycles").unwrap().as_u64(), Some(60));
    }

    #[test]
    fn series_merge_is_commutative_and_associative() {
        // Three single-window series over disjoint splits of the event
        // stream; every association/order of merging must agree.
        let parts: Vec<TimeSeries> = (0..3)
            .map(|i| {
                let mut s = TimeSeries::new(EpochSpec::Walks(4));
                for (j, ev) in events().iter().enumerate() {
                    if j % 3 == i {
                        s.window_mut((j % 2) as u64).observe(0, ev);
                    }
                }
                s
            })
            .collect();
        let orders: Vec<Vec<usize>> =
            vec![vec![0, 1, 2], vec![2, 1, 0], vec![1, 0, 2], vec![2, 0, 1]];
        let merged: Vec<String> = orders
            .iter()
            .map(|order| {
                let mut acc = TimeSeries::new(EpochSpec::Walks(4));
                for &i in order {
                    acc.merge(&parts[i]);
                }
                acc.to_json().render()
            })
            .collect();
        for m in &merged[1..] {
            assert_eq!(&merged[0], m);
        }
        // Associativity: (a⋃b)⋃c == a⋃(b⋃c).
        let mut left = parts[0].clone();
        left.merge(&parts[1]);
        left.merge(&parts[2]);
        let mut bc = parts[1].clone();
        bc.merge(&parts[2]);
        let mut right = parts[0].clone();
        right.merge(&bc);
        assert_eq!(left, right);
    }

    #[test]
    #[should_panic(expected = "different epoch specs")]
    fn merging_mismatched_specs_panics() {
        let mut a = TimeSeries::new(EpochSpec::Walks(4));
        let b = TimeSeries::new(EpochSpec::Cycles(100));
        a.merge(&b);
    }

    #[test]
    fn json_is_deterministic_and_sparse() {
        let mut s = TimeSeries::new(EpochSpec::Cycles(1000));
        s.window_mut(5).events_by_kind.insert("walk_end", 3);
        s.window_mut(1).events_by_kind.insert("walk_end", 2);
        let rendered = s.to_json().render();
        assert!(rendered.contains("\"epoch\":\"cycles:1000\""));
        let i1 = rendered.find("\"epoch\":1").unwrap();
        let i5 = rendered.find("\"epoch\":5").unwrap();
        assert!(i1 < i5, "windows render in epoch order");
        assert!(!rendered.contains("\"epoch\":2"), "empty epochs absent");
    }
}
