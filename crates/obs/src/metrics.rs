//! Counting metrics registry: order-free aggregates over the event
//! stream.
//!
//! A [`MetricsRegistry`] is shared (`Arc`) across all (design, shard)
//! simulations of a run; each simulation gets a [`RegistrySink`] that
//! accumulates into shard-local maps and folds them into the registry on
//! flush, so the hot path never takes the global lock. Every aggregate
//! is a sum over events, so the merged totals are independent of shard
//! arrival order — the multi-shard determinism contract extends to these
//! metrics (`BTreeMap`s keep iteration order deterministic too).

use crate::json::Json;
use metal_sim::obs::{Event, EventSink};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// One tuner decision, as observed in the event stream.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct TunerDecisionRecord {
    /// Completed-batch number (1-based).
    pub batch: u64,
    /// Index whose descriptor moved.
    pub index: u8,
    /// Parameter name (stable `TunedParam::as_str` tag).
    pub param: &'static str,
    /// Old value.
    pub from: u64,
    /// New value.
    pub to: u64,
    /// Simulated cycle of the decision.
    pub at: u64,
}

/// Aggregated metrics; also the shard-local accumulator.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Total events per kind tag.
    pub events_by_kind: BTreeMap<&'static str, u64>,
    /// IX-cache probes per (index, set); [`metal_sim::obs::WIDE_SET`]
    /// collects the wide partition.
    pub probes_by_set: BTreeMap<(u8, u32), u64>,
    /// Kick-start probe hits per entry level (scan probes excluded, to
    /// match `RunStats::hit_levels`).
    pub hits_by_level: BTreeMap<u8, u64>,
    /// Distribution of walk levels short-circuited per kick-start hit.
    pub short_circuit_depths: BTreeMap<u8, u64>,
    /// Evictions per reason tag.
    pub evictions_by_reason: BTreeMap<&'static str, u64>,
    /// Descriptor inserts per deciding-arm tag.
    pub inserts_by_reason: BTreeMap<&'static str, u64>,
    /// Descriptor bypasses per deciding-arm tag.
    pub bypasses_by_reason: BTreeMap<&'static str, u64>,
    /// Net entry count per (index, set): fills minus evictions, i.e. the
    /// final occupancy of each set.
    pub occupancy_by_set: BTreeMap<(u8, u32), i64>,
    /// Every tuner decision observed (order is shard arrival order;
    /// sort before comparing across runs).
    pub tuner_decisions: Vec<TunerDecisionRecord>,
}

impl MetricsSnapshot {
    /// Folds `other` into `self` (sums maps, concatenates decisions).
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (k, n) in &other.events_by_kind {
            *self.events_by_kind.entry(k).or_insert(0) += n;
        }
        for (k, n) in &other.probes_by_set {
            *self.probes_by_set.entry(*k).or_insert(0) += n;
        }
        for (k, n) in &other.hits_by_level {
            *self.hits_by_level.entry(*k).or_insert(0) += n;
        }
        for (k, n) in &other.short_circuit_depths {
            *self.short_circuit_depths.entry(*k).or_insert(0) += n;
        }
        for (k, n) in &other.evictions_by_reason {
            *self.evictions_by_reason.entry(k).or_insert(0) += n;
        }
        for (k, n) in &other.inserts_by_reason {
            *self.inserts_by_reason.entry(k).or_insert(0) += n;
        }
        for (k, n) in &other.bypasses_by_reason {
            *self.bypasses_by_reason.entry(k).or_insert(0) += n;
        }
        for (k, n) in &other.occupancy_by_set {
            *self.occupancy_by_set.entry(*k).or_insert(0) += n;
        }
        self.tuner_decisions
            .extend(other.tuner_decisions.iter().cloned());
    }

    /// Total events per kind as a JSON object (manifest embedding).
    pub fn to_json(&self) -> Json {
        let kinds = Json::Obj(
            self.events_by_kind
                .iter()
                .map(|(k, n)| (k.to_string(), Json::UInt(*n)))
                .collect(),
        );
        let by_reason = |m: &BTreeMap<&'static str, u64>| {
            Json::Obj(
                m.iter()
                    .map(|(k, n)| (k.to_string(), Json::UInt(*n)))
                    .collect(),
            )
        };
        let by_level = Json::Obj(
            self.hits_by_level
                .iter()
                .map(|(l, n)| (l.to_string(), Json::UInt(*n)))
                .collect(),
        );
        let depths = Json::Obj(
            self.short_circuit_depths
                .iter()
                .map(|(d, n)| (d.to_string(), Json::UInt(*n)))
                .collect(),
        );
        Json::Obj(vec![
            ("events_by_kind".into(), kinds),
            ("hits_by_level".into(), by_level),
            ("short_circuit_depths".into(), depths),
            (
                "evictions_by_reason".into(),
                by_reason(&self.evictions_by_reason),
            ),
            (
                "inserts_by_reason".into(),
                by_reason(&self.inserts_by_reason),
            ),
            (
                "bypasses_by_reason".into(),
                by_reason(&self.bypasses_by_reason),
            ),
            (
                "tuner_decisions".into(),
                Json::UInt(self.tuner_decisions.len() as u64),
            ),
        ])
    }

    /// Folds one event into the aggregates.
    pub fn observe(&mut self, at: u64, ev: &Event) {
        *self.events_by_kind.entry(ev.kind()).or_insert(0) += 1;
        match *ev {
            Event::IxProbe {
                index,
                hit,
                level,
                short_circuit,
                set,
                scan,
                ..
            } => {
                *self.probes_by_set.entry((index, set)).or_insert(0) += 1;
                if hit && !scan {
                    *self.hits_by_level.entry(level).or_insert(0) += 1;
                    *self.short_circuit_depths.entry(short_circuit).or_insert(0) += 1;
                }
            }
            Event::Insert { reason, .. } => {
                *self.inserts_by_reason.entry(reason.as_str()).or_insert(0) += 1;
            }
            Event::Bypass { reason, .. } => {
                *self.bypasses_by_reason.entry(reason.as_str()).or_insert(0) += 1;
            }
            Event::Fill { index, set, .. } => {
                *self.occupancy_by_set.entry((index, set)).or_insert(0) += 1;
            }
            Event::Evict {
                index, set, reason, ..
            } => {
                *self.occupancy_by_set.entry((index, set)).or_insert(0) -= 1;
                *self.evictions_by_reason.entry(reason.as_str()).or_insert(0) += 1;
            }
            Event::TunerDecision {
                index,
                batch,
                param,
                from,
                to,
            } => {
                self.tuner_decisions.push(TunerDecisionRecord {
                    batch,
                    index,
                    param: param.as_str(),
                    from,
                    to,
                    at,
                });
            }
            Event::Invalidate {
                index, set, killed, ..
            } => {
                // A whole-entry kill vacates its slot; a partial
                // invalidation shrinks the entry in place.
                if killed {
                    *self.occupancy_by_set.entry((index, set)).or_insert(0) -= 1;
                }
            }
            // Coalesces only bump the per-kind counter: the absorbing
            // entry is already counted in occupancy by its fill.
            Event::WalkStart { .. }
            | Event::WalkEnd { .. }
            | Event::WalkBreakdown { .. }
            | Event::DramFetch { .. }
            | Event::Coalesce { .. }
            | Event::Split { .. } => {}
        }
    }
}

/// Process-wide metrics aggregation point.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    inner: Mutex<MetricsSnapshot>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Arc<Self> {
        Arc::new(MetricsRegistry::default())
    }

    /// A shard-local sink feeding this registry.
    pub fn sink(self: &Arc<Self>) -> RegistrySink {
        RegistrySink {
            local: MetricsSnapshot::default(),
            registry: Arc::clone(self),
        }
    }

    /// A copy of the current aggregate.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.inner.lock().expect("metrics poisoned").clone()
    }
}

/// Shard-local accumulator; folds into its registry on flush.
pub struct RegistrySink {
    local: MetricsSnapshot,
    registry: Arc<MetricsRegistry>,
}

impl EventSink for RegistrySink {
    fn emit(&mut self, at: u64, ev: &Event) {
        self.local.observe(at, ev);
    }

    fn flush(&mut self) {
        if self.local != MetricsSnapshot::default() {
            self.registry
                .inner
                .lock()
                .expect("metrics poisoned")
                .merge(&self.local);
            self.local = MetricsSnapshot::default();
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
        assert_eq!(reg.snapshot(), MetricsSnapshot::default(), "pre-flush");
        sink.flush();
        let snap = reg.snapshot();
        assert_eq!(snap.events_by_kind["ix_probe"], 2);
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
        let mut a = MetricsSnapshot::default();
        a.observe(1, &ev_a);
        let mut b = MetricsSnapshot::default();
        b.observe(2, &ev_b);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        // Maps agree in either order; only the decision log is ordered.
        assert_eq!(ab.events_by_kind, ba.events_by_kind);
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
