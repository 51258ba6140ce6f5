//! Epoch-windowed metric series: the time axis of the forensic stack.
//!
//! A [`TimeSeries`] holds one [`WindowCounters`] per epoch, where the
//! epoch of every event is assigned by the deterministic
//! [`metal_sim::epoch::EpochClock`] of its own (design, shard) stream.
//! Two consequences fall out of that choice:
//!
//! - **merge safety**: windows merge by per-epoch sum, so the merged
//!   series is independent of shard arrival order and worker count —
//!   `shards=1 == shards=k` holds *per window*, not just in total;
//! - **conservation**: every event lands in exactly one window, so each
//!   counter summed over windows equals the whole-run aggregate
//!   (`validate_analysis` enforces this when a series is present).
//!
//! The event→counter mapping lives here, in one place:
//! [`WindowCounters::observe_event`] serves the in-process series and an
//! offline trace replay alike, so the two are bit-identical (the same
//! contract [`crate::analysis::StreamAnalyzer`] pins for the whole-run
//! aggregates). Regret verdicts are the one exception: they need the
//! analyzer's [`crate::ledger::RegretMeter`], so the analyzer adds those
//! two counters itself.

use crate::json::Json;
use crate::reuse::LogHist;
use metal_sim::epoch::EpochSpec;
use metal_sim::obs::Event;
use std::collections::BTreeMap;

/// All counters of one epoch window. Every field is a plain sum, so
/// merging windows is elementwise addition.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WindowCounters {
    /// Walks completed (`walk_end` events).
    pub walks: u64,
    /// IX-cache probes (all kinds).
    pub probes: u64,
    /// Probes issued by scan walks.
    pub scan_probes: u64,
    /// Scan probes that hit.
    pub scan_hits: u64,
    /// Probes that missed.
    pub misses: u64,
    /// Non-scan probe hits per index level.
    pub hits_by_level: BTreeMap<u8, u64>,
    /// Admissions per reason tag (`insert` events).
    pub inserts_by_reason: BTreeMap<String, u64>,
    /// Rejected admissions per reason tag (`bypass` events).
    pub bypasses_by_reason: BTreeMap<String, u64>,
    /// Entries created (`fill` events).
    pub fills: u64,
    /// Admissions absorbed into resident entries (`coalesce`).
    pub coalesces: u64,
    /// Evictions per reason tag.
    pub evictions_by_reason: BTreeMap<String, u64>,
    /// Range invalidations that killed an entry whole.
    pub invalidation_kills: u64,
    /// Range invalidations that only shrank an entry.
    pub invalidation_shrinks: u64,
    /// Structural index mutations (`split` events).
    pub mutations: u64,
    /// Tuner decisions.
    pub tuner_decisions: u64,
    /// DRAM fetches.
    pub dram_fetches: u64,
    /// DRAM bytes fetched.
    pub dram_bytes: u64,
    /// Net IX-cache occupancy change (fills − evictions − kills); can be
    /// negative when a window drains entries admitted earlier.
    pub occupancy_delta: i64,
    /// Regret windows resolved *regretted* by probes in this epoch.
    pub regretted: u64,
    /// Regret windows resolved *vindicated* by probes in this epoch.
    pub vindicated: u64,
    /// Cycle-accounting deltas of this epoch's completed walks
    /// (`walk_breakdown` events): SRAM probe cycles, walker compute,
    /// queueing, exposed DRAM stall, and MLP-hidden DRAM wait. Each
    /// summed over windows equals the whole-run breakdown aggregate.
    pub ix_probe_cycles: u64,
    /// Walker compute cycles of this epoch's completed walks.
    pub compute_cycles: u64,
    /// Queueing-delay cycles of this epoch's completed walks.
    pub queue_cycles: u64,
    /// Exposed DRAM-stall cycles of this epoch's completed walks.
    pub stall_cycles: u64,
    /// MLP-hidden DRAM wait cycles of this epoch's completed walks.
    pub hidden_cycles: u64,
    /// Walk-latency histogram delta (log₂ buckets) of this epoch's
    /// completed walks.
    pub latency_log2: LogHist,
}

impl WindowCounters {
    /// Folds `other` into `self`; commutative and associative.
    pub fn merge(&mut self, other: &WindowCounters) {
        self.walks += other.walks;
        self.probes += other.probes;
        self.scan_probes += other.scan_probes;
        self.scan_hits += other.scan_hits;
        self.misses += other.misses;
        for (k, n) in &other.hits_by_level {
            *self.hits_by_level.entry(*k).or_insert(0) += n;
        }
        for (k, n) in &other.inserts_by_reason {
            *self.inserts_by_reason.entry(k.clone()).or_insert(0) += n;
        }
        for (k, n) in &other.bypasses_by_reason {
            *self.bypasses_by_reason.entry(k.clone()).or_insert(0) += n;
        }
        self.fills += other.fills;
        self.coalesces += other.coalesces;
        for (k, n) in &other.evictions_by_reason {
            *self.evictions_by_reason.entry(k.clone()).or_insert(0) += n;
        }
        self.invalidation_kills += other.invalidation_kills;
        self.invalidation_shrinks += other.invalidation_shrinks;
        self.mutations += other.mutations;
        self.tuner_decisions += other.tuner_decisions;
        self.dram_fetches += other.dram_fetches;
        self.dram_bytes += other.dram_bytes;
        self.occupancy_delta += other.occupancy_delta;
        self.regretted += other.regretted;
        self.vindicated += other.vindicated;
        self.ix_probe_cycles += other.ix_probe_cycles;
        self.compute_cycles += other.compute_cycles;
        self.queue_cycles += other.queue_cycles;
        self.stall_cycles += other.stall_cycles;
        self.hidden_cycles += other.hidden_cycles;
        self.latency_log2.merge(&other.latency_log2);
    }

    /// Total probe hits (per-level non-scan hits plus scan hits).
    pub fn hits_total(&self) -> u64 {
        self.hits_by_level.values().sum::<u64>() + self.scan_hits
    }

    /// Total evictions across reasons.
    pub fn evictions_total(&self) -> u64 {
        self.evictions_by_reason.values().sum()
    }

    /// Folds one event into this window. Regret verdicts are
    /// *not* derivable from the event alone; the caller adds those from
    /// its [`crate::ledger::RegretMeter`].
    pub fn observe_event(&mut self, ev: &Event) {
        match *ev {
            Event::WalkStart { .. } => {}
            Event::WalkEnd { latency, .. } => {
                self.walks += 1;
                self.latency_log2.observe(latency);
            }
            Event::WalkBreakdown {
                ix_probe,
                compute,
                queue,
                stall,
                hidden,
                ..
            } => {
                self.ix_probe_cycles += ix_probe;
                self.compute_cycles += compute;
                self.queue_cycles += queue;
                self.stall_cycles += stall;
                self.hidden_cycles += hidden;
            }
            Event::DramFetch { bytes, .. } => {
                self.dram_fetches += 1;
                self.dram_bytes += bytes;
            }
            Event::IxProbe {
                hit, level, scan, ..
            } => {
                self.probes += 1;
                self.scan_probes += scan as u64;
                match (hit, scan) {
                    (false, _) => self.misses += 1,
                    (true, true) => self.scan_hits += 1,
                    (true, false) => *self.hits_by_level.entry(level).or_insert(0) += 1,
                }
            }
            Event::Insert { reason, .. } => {
                *self
                    .inserts_by_reason
                    .entry(reason.as_str().to_string())
                    .or_insert(0) += 1;
            }
            Event::Bypass { reason, .. } => {
                *self
                    .bypasses_by_reason
                    .entry(reason.as_str().to_string())
                    .or_insert(0) += 1;
            }
            Event::Fill { .. } => {
                self.fills += 1;
                self.occupancy_delta += 1;
            }
            Event::Coalesce { .. } => self.coalesces += 1,
            Event::Evict { reason, .. } => {
                *self
                    .evictions_by_reason
                    .entry(reason.as_str().to_string())
                    .or_insert(0) += 1;
                self.occupancy_delta -= 1;
            }
            Event::Split { .. } => self.mutations += 1,
            Event::Invalidate { killed, .. } => {
                if killed {
                    self.invalidation_kills += 1;
                    self.occupancy_delta -= 1;
                } else {
                    self.invalidation_shrinks += 1;
                }
            }
            Event::TunerDecision { .. } => self.tuner_decisions += 1,
        }
    }

    /// The window's JSON object, keyed with its epoch number.
    /// Deterministic: maps are ordered, histograms trim identically.
    pub fn to_json(&self, epoch: u64) -> Json {
        let by_level = Json::Arr(
            self.hits_by_level
                .iter()
                .map(|(&l, &n)| Json::Arr(vec![Json::UInt(l as u64), Json::UInt(n)]))
                .collect(),
        );
        let str_map = |m: &BTreeMap<String, u64>| {
            Json::Obj(m.iter().map(|(k, &n)| (k.clone(), Json::UInt(n))).collect())
        };
        // Exact for any plausible delta (occupancy is bounded by entry
        // counts, far below 2^53).
        let occupancy = if self.occupancy_delta >= 0 {
            Json::UInt(self.occupancy_delta as u64)
        } else {
            Json::Num(self.occupancy_delta as f64)
        };
        Json::Obj(vec![
            ("epoch".into(), Json::UInt(epoch)),
            ("walks".into(), Json::UInt(self.walks)),
            ("probes".into(), Json::UInt(self.probes)),
            ("scan_probes".into(), Json::UInt(self.scan_probes)),
            ("scan_hits".into(), Json::UInt(self.scan_hits)),
            ("misses".into(), Json::UInt(self.misses)),
            ("hits_by_level".into(), by_level),
            ("inserts_by_reason".into(), str_map(&self.inserts_by_reason)),
            (
                "bypasses_by_reason".into(),
                str_map(&self.bypasses_by_reason),
            ),
            ("fills".into(), Json::UInt(self.fills)),
            ("coalesces".into(), Json::UInt(self.coalesces)),
            (
                "evictions_by_reason".into(),
                str_map(&self.evictions_by_reason),
            ),
            (
                "invalidation_kills".into(),
                Json::UInt(self.invalidation_kills),
            ),
            (
                "invalidation_shrinks".into(),
                Json::UInt(self.invalidation_shrinks),
            ),
            ("mutations".into(), Json::UInt(self.mutations)),
            ("tuner_decisions".into(), Json::UInt(self.tuner_decisions)),
            ("dram_fetches".into(), Json::UInt(self.dram_fetches)),
            ("dram_bytes".into(), Json::UInt(self.dram_bytes)),
            ("occupancy_delta".into(), occupancy),
            ("regretted".into(), Json::UInt(self.regretted)),
            ("vindicated".into(), Json::UInt(self.vindicated)),
            ("ix_probe_cycles".into(), Json::UInt(self.ix_probe_cycles)),
            ("compute_cycles".into(), Json::UInt(self.compute_cycles)),
            ("queue_cycles".into(), Json::UInt(self.queue_cycles)),
            ("stall_cycles".into(), Json::UInt(self.stall_cycles)),
            ("hidden_cycles".into(), Json::UInt(self.hidden_cycles)),
            ("latency_log2".into(), self.latency_log2.to_json()),
        ])
    }
}

/// The per-design epoch series: one [`WindowCounters`] per epoch that
/// saw at least one event.
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeries {
    /// The window width every stream of this series was sliced by.
    pub spec: EpochSpec,
    /// Windows keyed by epoch number (sparse: empty epochs are absent).
    pub windows: BTreeMap<u64, WindowCounters>,
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
    pub fn window_mut(&mut self, epoch: u64) -> &mut WindowCounters {
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
        Json::Obj(vec![
            ("epoch".into(), Json::str(self.spec.render())),
            (
                "windows".into(),
                Json::Arr(self.windows.iter().map(|(&e, w)| w.to_json(e)).collect()),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jsonl::tests::{parse_all, render};
    use metal_sim::obs::{AdmitReason, EvictReason, PackMode};

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
        let mut live = WindowCounters::default();
        let mut offline = WindowCounters::default();
        for ev in events() {
            live.observe_event(&ev);
        }
        for line in parse_all(&render(&stamped)) {
            offline.observe_event(&line.ev);
        }
        assert_eq!(live, offline);
        assert_eq!(live.walks, 1);
        assert_eq!(live.probes, 2);
        assert_eq!(live.scan_probes, 1);
        assert_eq!(live.misses, 1);
        assert_eq!(live.hits_by_level[&2], 1);
        assert_eq!(live.fills, 1);
        assert_eq!(live.evictions_total(), 1);
        assert_eq!(live.invalidation_shrinks, 1);
        assert_eq!(live.occupancy_delta, 0, "one fill, one evict");
        assert_eq!(live.latency_log2.total(), 1);
        assert_eq!(
            live.ix_probe_cycles
                + live.compute_cycles
                + live.queue_cycles
                + live.stall_cycles
                + live.hidden_cycles,
            90,
            "breakdown cycle columns partition the walk's latency"
        );
        assert_eq!(live.stall_cycles, 60);
        assert_eq!(live.hidden_cycles, 15);
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
                        s.window_mut((j % 2) as u64).observe_event(ev);
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
        s.window_mut(5).walks = 3;
        s.window_mut(1).walks = 2;
        let rendered = s.to_json().render();
        assert!(rendered.contains("\"epoch\":\"cycles:1000\""));
        let i1 = rendered.find("\"epoch\":1").unwrap();
        let i5 = rendered.find("\"epoch\":5").unwrap();
        assert!(i1 < i5, "windows render in epoch order");
        assert!(!rendered.contains("\"epoch\":2"), "empty epochs absent");
    }
}
