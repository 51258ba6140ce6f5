//! The one event-count reducer, and the registry that folds it across a
//! run.
//!
//! [`EventCounts`] is every order-free count the telemetry planes read
//! off an event stream: events per kind, probes and net occupancy per
//! set, hits per level, short-circuit depths, the scan/miss split,
//! admission/bypass/eviction reasons, invalidation kills, DRAM bytes,
//! the five cycle columns, the walk-latency histogram and the tuner
//! decisions. It has one [`EventCounts::observe`] and one commutative,
//! associative [`EventCounts::merge`], and serves three uses:
//!
//! - the manifest's `metrics` block, folded here by a
//!   [`MetricsRegistry`] shared (`Arc`) across all (design, shard)
//!   simulations of a run — each simulation's [`RegistrySink`]
//!   accumulates shard-locally and folds into the registry on flush, so
//!   the hot path never takes the global lock;
//! - the whole-run counts of every [`crate::analysis::StreamAnalyzer`];
//! - every epoch window of a [`crate::timeseries::TimeSeries`].
//!
//! Each use renders its own output format ([`EventCounts::to_json`],
//! the design object of `ANALYSIS.json`, [`EventCounts::window_json`]),
//! but all three count the same way. Every count is a sum over events,
//! so merged totals are independent of shard arrival order — the
//! multi-shard determinism contract extends to them (`BTreeMap`s keep
//! iteration order deterministic too).

use crate::breakdown::COMPONENTS;
use crate::json::Json;
use crate::reuse::LogHist;
use metal_sim::obs::{Event, EventSink};
use std::collections::BTreeMap;
use std::ops::AddAssign;
use std::sync::{Arc, Mutex};

/// One tuner decision, as observed in the event stream. The field order
/// is the canonical sort order: simulated cycle first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct TunerRec {
    /// Simulated cycle of the decision.
    pub at: u64,
    /// Index whose descriptor moved.
    pub index: u8,
    /// Completed-batch number (1-based).
    pub batch: u64,
    /// Parameter name (stable `TunedParam::as_str` tag).
    pub param: &'static str,
    /// Old value.
    pub from: u64,
    /// New value.
    pub to: u64,
}

/// Every count folded from an event stream; also the shard-local
/// accumulator and the epoch window.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EventCounts {
    /// Total events per kind tag.
    pub events_by_kind: BTreeMap<&'static str, u64>,
    /// IX-cache probes per (index, set); [`metal_sim::obs::WIDE_SET`]
    /// collects the wide partition.
    pub probes_by_set: BTreeMap<(u8, u32), u64>,
    /// Net entry count per (index, set): fills minus evictions minus
    /// whole-entry invalidations, i.e. the final occupancy of each set
    /// over a complete stream.
    pub occupancy_by_set: BTreeMap<(u8, u32), i64>,
    /// Non-scan probe hits per entry level (scan probes excluded, to
    /// match `RunStats::hit_levels`).
    pub hits_by_level: BTreeMap<u8, u64>,
    /// Distribution of walk levels short-circuited per non-scan hit.
    pub short_circuit_depths: BTreeMap<u8, u64>,
    /// Probes issued by scan walks.
    pub scan_probes: u64,
    /// Scan probes that hit.
    pub scan_hits: u64,
    /// Descriptor inserts per deciding-arm tag.
    pub inserts_by_reason: BTreeMap<&'static str, u64>,
    /// Descriptor bypasses per deciding-arm tag.
    pub bypasses_by_reason: BTreeMap<&'static str, u64>,
    /// Evictions per reason tag.
    pub evictions_by_reason: BTreeMap<&'static str, u64>,
    /// Range invalidations that killed an entry whole (the rest of the
    /// `invalidate` events only shrank one).
    pub invalidation_kills: u64,
    /// DRAM bytes fetched.
    pub dram_bytes: u64,
    /// Cycle-accounting sums of the completed walks (`walk_breakdown`
    /// events), in [`COMPONENTS`] order: SRAM probe, walker compute,
    /// queueing, exposed DRAM stall and MLP-hidden DRAM wait.
    pub cycles: [u64; 5],
    /// Walk-latency histogram (log₂ buckets) of the completed walks.
    pub latency_log2: LogHist,
    /// Every tuner decision observed (kept sorted by [`Self::merge`]).
    pub tuner_decisions: Vec<TunerRec>,
    /// Regret windows resolved *regretted* by probes in this stream or
    /// window. No single event determines a verdict, so `observe` never
    /// touches this; the analyzer adds it from its
    /// [`crate::ledger::RegretMeter`].
    pub regretted: u64,
    /// Regret windows resolved *vindicated* (see [`Self::regretted`]).
    pub vindicated: u64,
}

/// Adds `n` to `map[key]`.
fn bump<K: Ord, V: AddAssign + Default>(map: &mut BTreeMap<K, V>, key: K, n: V) {
    *map.entry(key).or_default() += n;
}

/// Adds every count of `from` into `into`.
fn sum_into<K: Ord + Copy, V: AddAssign + Default + Copy>(
    into: &mut BTreeMap<K, V>,
    from: &BTreeMap<K, V>,
) {
    for (&k, &n) in from {
        bump(into, k, n);
    }
}

/// A count map as a JSON object keyed by the rendered key.
pub(crate) fn count_obj<K: ToString>(m: &BTreeMap<K, u64>) -> Json {
    Json::Obj(
        m.iter()
            .map(|(k, &n)| (k.to_string(), Json::UInt(n)))
            .collect(),
    )
}

impl EventCounts {
    /// Folds one event into the counts.
    pub fn observe(&mut self, at: u64, ev: &Event) {
        bump(&mut self.events_by_kind, ev.kind(), 1);
        match *ev {
            Event::WalkEnd { latency, .. } => self.latency_log2.observe(latency),
            Event::WalkBreakdown {
                ix_probe,
                compute,
                queue,
                stall,
                hidden,
                ..
            } => {
                let parts = [ix_probe, compute, queue, stall, hidden];
                for (sum, part) in self.cycles.iter_mut().zip(parts) {
                    *sum += part;
                }
            }
            Event::DramFetch { bytes, .. } => self.dram_bytes += bytes,
            Event::IxProbe {
                index,
                hit,
                level,
                short_circuit,
                set,
                scan,
                ..
            } => {
                bump(&mut self.probes_by_set, (index, set), 1);
                self.scan_probes += scan as u64;
                match (hit, scan) {
                    (false, _) => {}
                    (true, true) => self.scan_hits += 1,
                    (true, false) => {
                        bump(&mut self.hits_by_level, level, 1);
                        bump(&mut self.short_circuit_depths, short_circuit, 1);
                    }
                }
            }
            Event::Insert { reason, .. } => bump(&mut self.inserts_by_reason, reason.as_str(), 1),
            Event::Bypass { reason, .. } => bump(&mut self.bypasses_by_reason, reason.as_str(), 1),
            Event::Fill { index, set, .. } => bump(&mut self.occupancy_by_set, (index, set), 1),
            Event::Evict {
                index, set, reason, ..
            } => {
                bump(&mut self.occupancy_by_set, (index, set), -1);
                bump(&mut self.evictions_by_reason, reason.as_str(), 1);
            }
            // A whole-entry kill vacates its slot; a partial
            // invalidation shrinks the entry in place.
            Event::Invalidate {
                index,
                set,
                killed: true,
                ..
            } => {
                bump(&mut self.occupancy_by_set, (index, set), -1);
                self.invalidation_kills += 1;
            }
            Event::TunerDecision {
                index,
                batch,
                param,
                from,
                to,
            } => self.tuner_decisions.push(TunerRec {
                at,
                index,
                batch,
                param: param.as_str(),
                from,
                to,
            }),
            // Coalesces, splits and walk starts only bump the per-kind
            // counter: a coalesce's absorbing entry is already counted
            // in occupancy by its fill.
            Event::Invalidate { killed: false, .. }
            | Event::WalkStart { .. }
            | Event::Coalesce { .. }
            | Event::Split { .. } => {}
        }
    }

    /// Folds `other` into `self`; commutative and associative (maps and
    /// sums add, the decision lists union in canonical order).
    pub fn merge(&mut self, other: &EventCounts) {
        sum_into(&mut self.events_by_kind, &other.events_by_kind);
        sum_into(&mut self.probes_by_set, &other.probes_by_set);
        sum_into(&mut self.occupancy_by_set, &other.occupancy_by_set);
        sum_into(&mut self.hits_by_level, &other.hits_by_level);
        sum_into(&mut self.short_circuit_depths, &other.short_circuit_depths);
        sum_into(&mut self.inserts_by_reason, &other.inserts_by_reason);
        sum_into(&mut self.bypasses_by_reason, &other.bypasses_by_reason);
        sum_into(&mut self.evictions_by_reason, &other.evictions_by_reason);
        self.scan_probes += other.scan_probes;
        self.scan_hits += other.scan_hits;
        self.invalidation_kills += other.invalidation_kills;
        self.dram_bytes += other.dram_bytes;
        self.regretted += other.regretted;
        self.vindicated += other.vindicated;
        for (sum, part) in self.cycles.iter_mut().zip(other.cycles) {
            *sum += part;
        }
        self.latency_log2.merge(&other.latency_log2);
        self.tuner_decisions
            .extend_from_slice(&other.tuner_decisions);
        self.tuner_decisions.sort_unstable();
    }

    /// Events of one kind tag.
    pub fn kind(&self, kind: &str) -> u64 {
        self.events_by_kind.get(kind).copied().unwrap_or(0)
    }

    /// Completed walks (`walk_end` events).
    pub fn walks(&self) -> u64 {
        self.kind("walk_end")
    }

    /// IX-cache probes of every kind.
    pub fn probes(&self) -> u64 {
        self.kind("ix_probe")
    }

    /// Total probe hits (per-level non-scan hits plus scan hits).
    pub fn hits_total(&self) -> u64 {
        self.hits_by_level.values().sum::<u64>() + self.scan_hits
    }

    /// Probes that missed.
    pub fn misses(&self) -> u64 {
        self.probes() - self.hits_total()
    }

    /// Total evictions across reasons.
    pub fn evictions_total(&self) -> u64 {
        self.evictions_by_reason.values().sum()
    }

    /// Attributed walk cycles: the sum of the five cycle columns.
    pub fn cycles_total(&self) -> u64 {
        self.cycles.iter().sum()
    }

    /// One cycle column by its [`COMPONENTS`] name (0 for an unknown
    /// name).
    pub fn cycles_of(&self, component: &str) -> u64 {
        COMPONENTS
            .iter()
            .position(|&c| c == component)
            .map_or(0, |i| self.cycles[i])
    }

    /// The manifest's `metrics` object. `analyze --check-hits` renders
    /// a trace's counts through this too, so the two compare key by key.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("events_by_kind", count_obj(&self.events_by_kind)),
            ("hits_by_level", count_obj(&self.hits_by_level)),
            (
                "short_circuit_depths",
                count_obj(&self.short_circuit_depths),
            ),
            ("evictions_by_reason", count_obj(&self.evictions_by_reason)),
            ("inserts_by_reason", count_obj(&self.inserts_by_reason)),
            ("bypasses_by_reason", count_obj(&self.bypasses_by_reason)),
            (
                "tuner_decisions",
                Json::UInt(self.tuner_decisions.len() as u64),
            ),
        ])
    }

    /// One epoch window of a series document, keyed with its epoch
    /// number. Deterministic: maps are ordered, histograms trim
    /// identically.
    pub fn window_json(&self, epoch: u64) -> Json {
        let by_level = self
            .hits_by_level
            .iter()
            .map(|(&l, &n)| Json::Arr(vec![Json::UInt(l as u64), Json::UInt(n)]));
        // Net occupancy change (fills − evictions − kills); negative
        // when a window drains entries admitted earlier. Exact for any
        // plausible delta (occupancy is bounded by entry counts, far
        // below 2^53).
        let delta: i64 = self.occupancy_by_set.values().sum();
        let occupancy = if delta >= 0 {
            Json::UInt(delta as u64)
        } else {
            Json::Num(delta as f64)
        };
        let shrinks = self.kind("invalidate") - self.invalidation_kills;
        let cycle_keys = COMPONENTS.map(|c| format!("{c}_cycles"));
        let mut fields = vec![
            ("epoch", Json::UInt(epoch)),
            ("walks", Json::UInt(self.walks())),
            ("probes", Json::UInt(self.probes())),
            ("scan_probes", Json::UInt(self.scan_probes)),
            ("scan_hits", Json::UInt(self.scan_hits)),
            ("misses", Json::UInt(self.misses())),
            ("hits_by_level", Json::Arr(by_level.collect())),
            ("inserts_by_reason", count_obj(&self.inserts_by_reason)),
            ("bypasses_by_reason", count_obj(&self.bypasses_by_reason)),
            ("fills", Json::UInt(self.kind("fill"))),
            ("coalesces", Json::UInt(self.kind("coalesce"))),
            ("evictions_by_reason", count_obj(&self.evictions_by_reason)),
            ("invalidation_kills", Json::UInt(self.invalidation_kills)),
            ("invalidation_shrinks", Json::UInt(shrinks)),
            ("mutations", Json::UInt(self.kind("split"))),
            (
                "tuner_decisions",
                Json::UInt(self.tuner_decisions.len() as u64),
            ),
            ("dram_fetches", Json::UInt(self.kind("dram_fetch"))),
            ("dram_bytes", Json::UInt(self.dram_bytes)),
            ("occupancy_delta", occupancy),
            ("regretted", Json::UInt(self.regretted)),
            ("vindicated", Json::UInt(self.vindicated)),
        ];
        fields.extend(
            cycle_keys
                .iter()
                .map(String::as_str)
                .zip(self.cycles.map(Json::UInt)),
        );
        fields.push(("latency_log2", self.latency_log2.to_json()));
        Json::obj(fields)
    }
}

/// Process-wide metrics aggregation point.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    inner: Mutex<EventCounts>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Arc<Self> {
        Arc::new(MetricsRegistry::default())
    }

    /// A shard-local sink feeding this registry.
    pub fn sink(self: &Arc<Self>) -> RegistrySink {
        RegistrySink {
            local: EventCounts::default(),
            registry: Arc::clone(self),
        }
    }

    /// A copy of the current aggregate.
    pub fn snapshot(&self) -> EventCounts {
        self.inner.lock().expect("metrics poisoned").clone()
    }
}

/// Shard-local accumulator; folds into its registry on flush.
pub struct RegistrySink {
    local: EventCounts,
    registry: Arc<MetricsRegistry>,
}

impl EventSink for RegistrySink {
    fn emit(&mut self, at: u64, ev: &Event) {
        self.local.observe(at, ev);
    }

    fn flush(&mut self) {
        if self.local != EventCounts::default() {
            self.registry
                .inner
                .lock()
                .expect("metrics poisoned")
                .merge(&std::mem::take(&mut self.local));
        }
    }
}

impl Drop for RegistrySink {
    fn drop(&mut self) {
        self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metal_sim::obs::{AdmitReason, EvictReason, PackMode, TunedParam};

    #[test]
    fn sink_accumulates_and_folds_on_flush() {
        let reg = MetricsRegistry::new();
        let mut sink = reg.sink();
        sink.emit(
            5,
            &Event::IxProbe {
                index: 0,
                key: 10,
                hit: true,
                level: 2,
                short_circuit: 3,
                set: 4,
                scan: false,
                entry: 1,
            },
        );
        sink.emit(
            6,
            &Event::IxProbe {
                index: 0,
                key: 11,
                hit: true,
                level: 0,
                short_circuit: 0,
                set: 4,
                scan: true, // scan probes never count toward hit levels
                entry: 2,
            },
        );
        sink.emit(
            7,
            &Event::Fill {
                index: 0,
                level: 2,
                set: 4,
                entry: 3,
                pack: PackMode::Exact,
            },
        );
        sink.emit(
            8,
            &Event::Evict {
                index: 0,
                level: 1,
                set: 4,
                reason: EvictReason::Capacity,
                entry: 1,
                lo: 0,
                hi: 15,
                for_entry: 3,
            },
        );
        assert_eq!(reg.snapshot(), EventCounts::default(), "pre-flush");
        sink.flush();
        let snap = reg.snapshot();
        assert_eq!(snap.kind("ix_probe"), 2);
        assert_eq!(snap.probes_by_set[&(0, 4)], 2);
        assert_eq!(snap.hits_by_level.get(&2), Some(&1));
        assert_eq!(snap.hits_by_level.get(&0), None, "scan hit excluded");
        assert_eq!(snap.short_circuit_depths[&3], 1);
        assert_eq!(snap.occupancy_by_set[&(0, 4)], 0, "one fill, one evict");
        assert_eq!(snap.evictions_by_reason["capacity"], 1);
    }

    #[test]
    fn merge_is_order_free() {
        let ev_a = Event::Insert {
            index: 0,
            level: 1,
            set: 2,
            life: 0,
            reason: AdmitReason::LevelBand,
        };
        let ev_b = Event::Bypass {
            index: 1,
            level: 3,
            reason: AdmitReason::Composite,
        };
        let tuned = |from| Event::TunerDecision {
            index: 0,
            batch: 1,
            param: TunedParam::BandUpper,
            from,
            to: from + 1,
        };
        let mut a = EventCounts::default();
        a.observe(1, &ev_a);
        a.observe(9, &tuned(2));
        let mut b = EventCounts::default();
        b.observe(2, &ev_b);
        b.observe(4, &tuned(5));
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba, "decision lists union in canonical order too");
        assert_eq!(ab.tuner_decisions[0].at, 4);
        assert_eq!(ab.inserts_by_reason["level-band"], 1);
        assert_eq!(ab.bypasses_by_reason["composite"], 1);
    }

    #[test]
    fn tuner_decisions_are_recorded() {
        let reg = MetricsRegistry::new();
        let mut sink = reg.sink();
        sink.emit(
            9,
            &Event::TunerDecision {
                index: 0,
                batch: 2,
                param: TunedParam::BandUpper,
                from: 3,
                to: 4,
            },
        );
        drop(sink); // drop folds outstanding local state
        let snap = reg.snapshot();
        assert_eq!(snap.tuner_decisions.len(), 1);
        let d = &snap.tuner_decisions[0];
        assert_eq!(
            (d.batch, d.param, d.from, d.to, d.at),
            (2, "band-upper", 3, 4, 9)
        );
    }
}
