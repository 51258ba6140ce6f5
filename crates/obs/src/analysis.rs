//! Trace forensics: one analyzer per (run, design, shard) event stream,
//! reduced to per-design aggregates that merge associatively.
//!
//! One [`StreamAnalyzer::observe_event`] serves two paths:
//!
//! - **in-process**: an [`AnalysisSink`] per shard feeds events straight
//!   from the simulation (wired by the bench harness's `--analyze-out`);
//! - **offline**: [`replay`] parses a JSONL trace back into typed events
//!   ([`crate::jsonl::TraceLine`]), demultiplexes them by their (run,
//!   design, shard) labels and feeds each stream the same way.
//!
//! Both reduce to the same [`DesignAnalysis`] values, so the offline
//! report of a trace agrees bit-for-bit with the in-process one of the
//! run that produced it.
//!
//! The analyzer's order-free counts (events per kind, probes and
//! occupancy per set, the tuner decisions, the epoch windows) are the
//! one [`EventCounts`] reducer the metrics registry folds too; on top
//! of it the analyzer keeps what needs stream order: the entry ledger,
//! the regret meter, the reuse profiler, the miss taxonomy and the
//! cycle-accounting rollup.
//!
//! Order matters *within* a stream (reuse distance, the regret windows)
//! but never *across* streams: [`DesignAnalysis::merge`] is a plain sum,
//! so the merged result is independent of shard arrival order and of
//! the worker-thread count — the same contract the metrics registry and
//! `LatencyStats` already pin.

use crate::breakdown::{BreakdownAgg, BreakdownState, BREAKDOWN_SCHEMA, COMPONENTS};
use crate::json::Json;
use crate::jsonl::JsonlReader;
use crate::ledger::{EntryLedger, LedgerSummary, RegretDelta, RegretMeter, RegretSummary};
use crate::metrics::{count_obj, EventCounts};
use crate::reuse::{LogHist, MissTaxonomy, ReuseProfiler, TaxonomyCounts};
use crate::timeseries::TimeSeries;
use metal_sim::epoch::{EpochClock, EpochSpec};
use metal_sim::obs::{Event, EventSink};
use metal_sim::types::BLOCK_BYTES;
use std::collections::BTreeMap;
use std::io::Read;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Schema tag stamped into `ANALYSIS.json`.
pub const ANALYSIS_SCHEMA: &str = "metal-analysis-v1";

/// Schema tag stamped into standalone `--series-out` documents.
pub const SERIES_SCHEMA: &str = "metal-series-v1";

/// Per-design forensic aggregate (merged over shards and runs).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DesignAnalysis {
    /// Whole-run event counts: events per kind, probes and occupancy
    /// per set, the tuner decisions (sorted in [`Self::to_json`]).
    pub counts: EventCounts,
    /// Entry-ledger reduction.
    pub ledger: LedgerSummary,
    /// Eviction-regret reduction.
    pub regret: RegretSummary,
    /// First-touch block accesses (infinite reuse distance).
    pub reuse_cold: u64,
    /// Finite reuse distances (log₂).
    pub reuse_hist: LogHist,
    /// Compulsory / capacity / conflict split of the block stream.
    pub taxonomy: TaxonomyCounts,
    /// Cycle-accounting rollup over `walk_breakdown` events; `None`
    /// when the stream carried none (native traces, legacy traces —
    /// the byte-stable legacy rendering).
    pub breakdown: Option<BreakdownAgg>,
    /// Epoch-windowed metric series; `None` when the run was not
    /// windowed (the default, and the byte-stable legacy rendering).
    pub series: Option<TimeSeries>,
}

impl DesignAnalysis {
    /// Folds `other` into `self`; commutative and associative.
    pub fn merge(&mut self, other: &DesignAnalysis) {
        self.counts.merge(&other.counts);
        self.ledger.merge(&other.ledger);
        self.regret.merge(&other.regret);
        self.reuse_cold += other.reuse_cold;
        self.reuse_hist.merge(&other.reuse_hist);
        self.taxonomy.merge(&other.taxonomy);
        match (&mut self.breakdown, &other.breakdown) {
            (Some(mine), Some(theirs)) => mine.merge(theirs),
            (None, Some(theirs)) => self.breakdown = Some(theirs.clone()),
            _ => {}
        }
        match (&mut self.series, &other.series) {
            (Some(mine), Some(theirs)) => mine.merge(theirs),
            (None, Some(theirs)) => self.series = Some(theirs.clone()),
            _ => {}
        }
    }

    /// The design's JSON object. Deterministic: maps are ordered and the
    /// tuner timeline is sorted, so equal aggregates render equal bytes
    /// regardless of merge order.
    pub fn to_json(&self) -> Json {
        let by_reason = {
            let mut reasons: Vec<&String> = self.ledger.entries_by_admit_reason.keys().collect();
            for r in self.ledger.hits_by_admit_reason.keys() {
                if !reasons.contains(&r) {
                    reasons.push(r);
                }
            }
            reasons.sort();
            Json::Obj(
                reasons
                    .into_iter()
                    .map(|r| {
                        let entries = *self.ledger.entries_by_admit_reason.get(r).unwrap_or(&0);
                        let hits = *self.ledger.hits_by_admit_reason.get(r).unwrap_or(&0);
                        (
                            r.clone(),
                            Json::Obj(vec![
                                ("entries".into(), Json::UInt(entries)),
                                ("hits".into(), Json::UInt(hits)),
                            ]),
                        )
                    })
                    .collect(),
            )
        };
        let by_pack = Json::Obj(
            self.ledger
                .entries_by_pack
                .iter()
                .map(|(k, n)| (k.clone(), Json::UInt(*n)))
                .collect(),
        );
        let ledger = Json::Obj(vec![
            ("filled".into(), Json::UInt(self.ledger.filled)),
            ("coalesced".into(), Json::UInt(self.ledger.coalesced)),
            ("evicted".into(), Json::UInt(self.ledger.evicted)),
            ("invalidated".into(), Json::UInt(self.ledger.invalidated)),
            ("resident".into(), Json::UInt(self.ledger.resident)),
            (
                "zero_hit_evictions".into(),
                Json::UInt(self.ledger.zero_hit_evictions),
            ),
            ("hits_total".into(), Json::UInt(self.ledger.hits_total)),
            (
                "short_circuit_saved".into(),
                Json::UInt(self.ledger.short_circuit_saved),
            ),
            (
                "hits_per_entry_log2".into(),
                self.ledger.hits_per_entry.to_json(),
            ),
            (
                "lifetime_cycles_log2".into(),
                self.ledger.lifetime_cycles.to_json(),
            ),
            ("by_admit_reason".into(), by_reason),
            ("by_pack".into(), by_pack),
        ]);
        let regret = Json::Obj(vec![
            ("evictions".into(), Json::UInt(self.regret.evictions)),
            ("regretted".into(), Json::UInt(self.regret.regretted)),
            ("vindicated".into(), Json::UInt(self.regret.vindicated)),
            ("unresolved".into(), Json::UInt(self.regret.unresolved)),
            (
                "distance_log2".into(),
                self.regret.regret_distance.to_json(),
            ),
        ]);
        let reuse = Json::Obj(vec![
            ("cold".into(), Json::UInt(self.reuse_cold)),
            ("log2".into(), self.reuse_hist.to_json()),
        ]);
        let set_rows = |rows: Vec<((u8, u32), u64)>| {
            let row = |((i, s), n): ((u8, u32), u64)| {
                Json::Arr(vec![
                    Json::UInt(i as u64),
                    Json::UInt(s as u64),
                    Json::UInt(n),
                ])
            };
            Json::Arr(rows.into_iter().map(row).collect())
        };
        let c = &self.counts;
        let probes = set_rows(c.probes_by_set.iter().map(|(&k, &n)| (k, n)).collect());
        // Occupancy is a net count and cannot go negative over a
        // complete stream; clamp defensively for truncated traces.
        let occupancy = c
            .occupancy_by_set
            .iter()
            .map(|(&k, &n)| (k, n.max(0) as u64));
        let mut decisions = c.tuner_decisions.clone();
        decisions.sort_unstable();
        let tuner = decisions.into_iter().map(|d| {
            Json::obj([
                ("at", Json::UInt(d.at)),
                ("index", Json::UInt(d.index as u64)),
                ("batch", Json::UInt(d.batch)),
                ("param", Json::str(d.param)),
                ("from", Json::UInt(d.from)),
                ("to", Json::UInt(d.to)),
            ])
        });
        let mut fields = vec![
            ("events_by_kind", count_obj(&c.events_by_kind)),
            ("ledger", ledger),
            ("reuse_distance", reuse),
            ("taxonomy", self.taxonomy.to_json()),
            ("regret", regret),
            ("probes_by_set", probes),
            ("occupancy_by_set", set_rows(occupancy.collect())),
            ("tuner_decisions", Json::Arr(tuner.collect())),
        ];
        if let Some(breakdown) = &self.breakdown {
            fields.push(("breakdown", breakdown.to_json()));
        }
        if let Some(series) = &self.series {
            fields.push(("series", series.to_json()));
        }
        Json::obj(fields)
    }
}

/// One stream's windowing state: the epoch clock and the series the
/// windows accumulate into.
#[derive(Debug)]
struct SeriesState {
    clock: EpochClock,
    series: TimeSeries,
    last_epoch: u64,
}

/// Analyzer for one (run, design, shard) event stream.
#[derive(Debug)]
pub struct StreamAnalyzer {
    ledger: EntryLedger,
    regret: RegretMeter,
    reuse: ReuseProfiler,
    taxonomy: MissTaxonomy,
    counts: EventCounts,
    breakdown: BreakdownState,
    series: Option<SeriesState>,
}

impl StreamAnalyzer {
    /// Creates an analyzer; `budget_blocks` sizes the miss-taxonomy
    /// reference cache (the design's capacity in
    /// [`BLOCK_BYTES`]-byte blocks).
    pub fn new(budget_blocks: usize) -> Self {
        StreamAnalyzer {
            ledger: EntryLedger::new(),
            regret: RegretMeter::new(),
            reuse: ReuseProfiler::new(),
            taxonomy: MissTaxonomy::new(budget_blocks),
            counts: EventCounts::default(),
            breakdown: BreakdownState::default(),
            series: None,
        }
    }

    /// Slices this stream into epoch windows (`None` leaves it
    /// unwindowed, the legacy behaviour).
    pub fn with_epoch(mut self, epoch: Option<EpochSpec>) -> Self {
        self.series = epoch.map(|spec| SeriesState {
            clock: EpochClock::new(spec),
            series: TimeSeries::new(spec),
            last_epoch: 0,
        });
        self
    }

    /// The epoch of the most recently observed event (`None` when the
    /// stream is unwindowed).
    pub fn current_epoch(&self) -> Option<u64> {
        self.series.as_ref().map(|s| s.last_epoch)
    }

    /// The stream's whole-run counts so far.
    pub fn counts(&self) -> &EventCounts {
        &self.counts
    }

    /// Feeds one event.
    pub fn observe_event(&mut self, at: u64, ev: &Event) {
        self.counts.observe(at, ev);
        let mut delta = RegretDelta::default();
        match *ev {
            Event::IxProbe {
                index,
                key,
                hit,
                short_circuit,
                entry,
                ..
            } => {
                if hit && entry != 0 {
                    self.ledger.probe_hit(entry, short_circuit as u64);
                }
                delta = self.regret.probe(index, key, hit, entry);
            }
            Event::Insert { reason, .. } => self.ledger.insert(reason.as_str()),
            Event::Fill { entry, pack, .. } => self.ledger.fill(at, entry, pack.as_str()),
            Event::Coalesce { entry, .. } => self.ledger.coalesce(entry),
            Event::Evict {
                index,
                entry,
                lo,
                hi,
                for_entry,
                ..
            } => {
                self.ledger.evict(at, entry);
                self.regret.evict(index, lo, hi, entry, for_entry);
            }
            Event::Invalidate {
                entry,
                killed: true,
                ..
            } => {
                self.ledger.invalidate(at, entry);
                self.regret.invalidate(entry);
            }
            Event::DramFetch { addr, .. } => {
                let block = addr / BLOCK_BYTES;
                self.taxonomy.classify(self.reuse.observe(block));
            }
            Event::WalkBreakdown {
                lane,
                ix_probe,
                compute,
                queue,
                stall,
                hidden,
                latency,
                ..
            } => self.breakdown.observe(
                at,
                lane as u64,
                [ix_probe, compute, queue, stall, hidden],
                latency,
            ),
            // A partial invalidation shrinks its entry in place: no
            // retirement.
            Event::Invalidate { killed: false, .. }
            | Event::WalkStart { .. }
            | Event::WalkEnd { .. }
            | Event::Bypass { .. }
            | Event::Split { .. }
            | Event::TunerDecision { .. } => {}
        }
        // The event's window gets it plus the regret verdicts its probe
        // produced (unwindowed streams skip this).
        if let Some(s) = &mut self.series {
            s.last_epoch = s.clock.observe(at, matches!(ev, Event::WalkEnd { .. }));
            let w = s.series.window_mut(s.last_epoch);
            w.observe(at, ev);
            w.regretted += delta.regretted;
            w.vindicated += delta.vindicated;
        }
    }

    /// Ends the stream and returns its reduction.
    pub fn finish(self) -> DesignAnalysis {
        let breakdown = if self.breakdown.is_empty() {
            None
        } else {
            Some(self.breakdown.finish())
        };
        DesignAnalysis {
            counts: self.counts,
            ledger: self.ledger.finish(),
            regret: self.regret.finish(),
            reuse_cold: self.reuse.cold(),
            reuse_hist: self.reuse.hist().clone(),
            taxonomy: self.taxonomy.counts().clone(),
            breakdown,
            series: self.series.map(|s| s.series),
        }
    }
}

/// The merged, per-design forensic aggregate of a whole session.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceAnalysis {
    /// Aggregates keyed by design name.
    pub designs: BTreeMap<String, DesignAnalysis>,
}

impl TraceAnalysis {
    /// Folds one finished stream into the design's aggregate.
    pub fn fold(&mut self, design: &str, stream: DesignAnalysis) {
        self.designs
            .entry(design.to_string())
            .or_default()
            .merge(&stream);
    }

    /// The full `ANALYSIS.json` document, schema-tagged.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("schema".into(), Json::str(ANALYSIS_SCHEMA)),
            (
                "designs".into(),
                Json::Obj(
                    self.designs
                        .iter()
                        .map(|(d, a)| (d.clone(), a.to_json()))
                        .collect(),
                ),
            ),
        ])
    }

    /// The standalone `--series-out` document: only the per-design epoch
    /// series, schema-tagged, so shard-invariance can be byte-diffed
    /// without the rest of the analysis. `None` when no design carries a
    /// series (the run was not windowed).
    pub fn series_json(&self) -> Option<Json> {
        let designs: Vec<(String, Json)> = self
            .designs
            .iter()
            .filter_map(|(d, a)| a.series.as_ref().map(|s| (d.clone(), s.to_json())))
            .collect();
        if designs.is_empty() {
            return None;
        }
        Some(Json::Obj(vec![
            ("schema".into(), Json::str(SERIES_SCHEMA)),
            ("designs".into(), Json::Obj(designs)),
        ]))
    }
}

/// A trace stream's labels: (run, design, shard).
pub type StreamKey = (String, String, u64);

/// An offline replay of a JSONL trace.
#[derive(Debug, Default)]
pub struct Replay {
    /// Events replayed (flight-recorder meta lines are not events).
    pub events: u64,
    /// Events a flight-recorder dump's rings dropped before the ones it
    /// kept (0 for a complete trace). A dump that dropped events holds
    /// only a suffix of each stream, which cannot satisfy the
    /// conservation identities [`validate_analysis`] checks.
    pub dropped: u64,
    /// The per-design forensic aggregate.
    pub analysis: TraceAnalysis,
    /// The event counts of each stream.
    pub metrics: BTreeMap<StreamKey, EventCounts>,
}

/// Replays a JSONL trace: splits it into its (run, design, shard)
/// streams (order matters within a stream, never across), feeds each
/// event to the same [`StreamAnalyzer::observe_event`] the in-process
/// sinks call, keeps each stream's counts and merges the analyzers by
/// design. `budget_blocks` and `epoch` configure every analyzer as
/// [`AnalysisRegistry::windowed`] does. A malformed line is an error
/// naming its line number.
pub fn replay<R: Read>(
    mut reader: JsonlReader<R>,
    budget_blocks: usize,
    epoch: Option<EpochSpec>,
) -> Result<Replay, String> {
    let mut streams: BTreeMap<StreamKey, StreamAnalyzer> = BTreeMap::new();
    let mut out = Replay::default();
    while let Some(line) = reader.next_event()? {
        streams
            .entry((line.run, line.design, line.shard))
            .or_insert_with(|| StreamAnalyzer::new(budget_blocks).with_epoch(epoch))
            .observe_event(line.at, &line.ev);
        out.events += 1;
    }
    out.dropped = reader.flight_dropped();
    for (key, analyzer) in streams {
        out.metrics.insert(key.clone(), analyzer.counts().clone());
        out.analysis.fold(&key.1, analyzer.finish());
    }
    Ok(out)
}

/// Structural and conservation checks over a rendered `ANALYSIS.json`.
/// Returns the first violation found. Used by `analyze --validate` in
/// CI so a schema or accounting regression fails loudly.
pub fn validate_analysis(v: &Json) -> Result<(), String> {
    validate_analysis_gated(v, false)
}

/// [`validate_analysis`] plus an optional alert gate: with
/// `deny_alerts`, a document whose watchdogs fired (non-empty `alerts`
/// array) is a validation failure — `analyze --validate --deny-alerts`
/// turns anomalies into a red CI.
pub fn validate_analysis_gated(v: &Json, deny_alerts: bool) -> Result<(), String> {
    let schema = v
        .get("schema")
        .and_then(Json::as_str)
        .ok_or("missing schema tag")?;
    if schema != ANALYSIS_SCHEMA {
        return Err(format!("schema {schema:?}, expected {ANALYSIS_SCHEMA:?}"));
    }
    if deny_alerts {
        let fired = v
            .get("alerts")
            .and_then(Json::as_arr)
            .map_or(0, |a| a.len());
        if fired > 0 {
            return Err(format!("{fired} watchdog alert(s) present (--deny-alerts)"));
        }
    }
    let designs = match v.get("designs") {
        Some(Json::Obj(fields)) => fields,
        _ => return Err("missing designs object".into()),
    };
    if designs.is_empty() {
        return Err("designs object is empty".into());
    }
    for (name, d) in designs {
        let ctx = |msg: &str| format!("design {name:?}: {msg}");
        let num = |path: &[&str]| -> Result<u64, String> {
            let mut cur = d;
            for k in path {
                cur = cur
                    .get(k)
                    .ok_or_else(|| ctx(&format!("missing {path:?}")))?;
            }
            cur.as_u64()
                .ok_or_else(|| ctx(&format!("{path:?} is not a count")))
        };
        let hist_total = |path: &[&str]| -> Result<u64, String> {
            let mut cur = d;
            for k in path {
                cur = cur
                    .get(k)
                    .ok_or_else(|| ctx(&format!("missing {path:?}")))?;
            }
            let arr = cur
                .as_arr()
                .ok_or_else(|| ctx(&format!("{path:?} is not an array")))?;
            arr.iter()
                .map(|n| {
                    n.as_u64()
                        .ok_or_else(|| ctx(&format!("{path:?} holds a non-count")))
                })
                .sum()
        };
        // Ledger accounting: every filled entry retires exactly once
        // (`invalidated` defaults to 0 for pre-mutation traces).
        let filled = num(&["ledger", "filled"])?;
        let evicted = num(&["ledger", "evicted"])?;
        let invalidated = num(&["ledger", "invalidated"]).unwrap_or(0);
        let resident = num(&["ledger", "resident"])?;
        if filled != evicted + invalidated + resident {
            return Err(ctx(&format!(
                "ledger leak: filled {filled} != evicted {evicted} \
                 + invalidated {invalidated} + resident {resident}"
            )));
        }
        if hist_total(&["ledger", "hits_per_entry_log2"])? != filled {
            return Err(ctx("hits_per_entry histogram does not cover every entry"));
        }
        // Regret accounting: every window reached exactly one verdict,
        // and every regret recorded one distance.
        let evictions = num(&["regret", "evictions"])?;
        let regretted = num(&["regret", "regretted"])?;
        let vindicated = num(&["regret", "vindicated"])?;
        let unresolved = num(&["regret", "unresolved"])?;
        if evictions != regretted + vindicated + unresolved {
            return Err(ctx("regret verdicts do not sum to evictions"));
        }
        if hist_total(&["regret", "distance_log2"])? != regretted {
            return Err(ctx("regret distance histogram does not match regret count"));
        }
        // Block-stream accounting: taxonomy and reuse profile both
        // classify every dram_fetch.
        let fetches = d
            .get("events_by_kind")
            .and_then(|k| k.get("dram_fetch"))
            .and_then(Json::as_u64)
            .unwrap_or(0);
        let taxonomy: u64 = num(&["taxonomy", "compulsory"])?
            + num(&["taxonomy", "capacity"])?
            + num(&["taxonomy", "conflict"])?;
        if taxonomy != fetches {
            return Err(ctx(&format!(
                "taxonomy classifies {taxonomy} of {fetches} fetches"
            )));
        }
        let cold = num(&["reuse_distance", "cold"])?;
        if cold + hist_total(&["reuse_distance", "log2"])? != fetches {
            return Err(ctx("reuse profile does not cover every fetch"));
        }
        for key in ["probes_by_set", "occupancy_by_set", "tuner_decisions"] {
            if d.get(key).and_then(Json::as_arr).is_none() {
                return Err(ctx(&format!("missing {key} array")));
            }
        }
        // Cycle-accounting conservation: the five breakdown components
        // must partition the summed walk latency, each component
        // histogram must cover every walk, and the busiest lane's
        // latency sum must reconcile with the execution horizon
        // (`exec_cycles`).
        if let Some(breakdown) = d.get("breakdown") {
            validate_breakdown(name, d, breakdown)?;
        }
        // Window-sum conservation: when the analysis carries an epoch
        // series, every counter summed over windows must equal the
        // whole-run aggregate — each event lands in exactly one window.
        if let Some(series) = d.get("series") {
            validate_series(name, d, series)?;
        }
    }
    Ok(())
}

/// Conservation checks for one design's `breakdown` section against its
/// event counts: the partition identity, histogram coverage, and the
/// per-lane/exec-horizon reconciliation.
fn validate_breakdown(name: &str, d: &Json, b: &Json) -> Result<(), String> {
    let ctx = |msg: &str| format!("design {name:?} breakdown: {msg}");
    let schema = b.get("schema").and_then(Json::as_str).unwrap_or("");
    if schema != BREAKDOWN_SCHEMA {
        return Err(ctx(&format!(
            "schema {schema:?}, expected {BREAKDOWN_SCHEMA:?}"
        )));
    }
    let num = |path: &[&str]| -> Result<u64, String> {
        let mut cur = b;
        for k in path {
            cur = cur
                .get(k)
                .ok_or_else(|| ctx(&format!("missing {path:?}")))?;
        }
        cur.as_u64()
            .ok_or_else(|| ctx(&format!("{path:?} is not a count")))
    };
    let walks = num(&["walks"])?;
    let counted = d
        .get("events_by_kind")
        .and_then(|k| k.get("walk_breakdown"))
        .and_then(Json::as_u64)
        .unwrap_or(0);
    if walks != counted {
        return Err(ctx(&format!(
            "covers {walks} walks, stream carried {counted} walk_breakdown events"
        )));
    }
    let latency_total = num(&["latency_total"])?;
    let mut component_sum = 0u64;
    for comp in COMPONENTS {
        component_sum += num(&["components", comp, "cycles"])?;
        let hist = b
            .get("components")
            .and_then(|c| c.get(comp))
            .and_then(|c| c.get("log2"))
            .and_then(Json::as_arr)
            .ok_or_else(|| ctx(&format!("component {comp:?} missing log2 histogram")))?;
        let covered: u64 = hist.iter().filter_map(Json::as_u64).sum();
        if covered != walks {
            return Err(ctx(&format!(
                "component {comp:?} histogram covers {covered} of {walks} walks"
            )));
        }
    }
    if component_sum != latency_total {
        return Err(ctx(&format!(
            "components sum to {component_sum} cycles, walk latencies total {latency_total}"
        )));
    }
    let lane_max = num(&["lane_cycles_max"])?;
    let horizon = num(&["horizon"])?;
    if lane_max != horizon {
        return Err(ctx(&format!(
            "busiest-lane cycles {lane_max} do not reconcile with exec horizon {horizon}"
        )));
    }
    Ok(())
}

/// Conservation checks for one design's `series` section against its
/// whole-run aggregates.
fn validate_series(name: &str, d: &Json, series: &Json) -> Result<(), String> {
    let ctx = |msg: &str| format!("design {name:?} series: {msg}");
    EpochSpec::parse(series.get("epoch").and_then(Json::as_str).unwrap_or(""))
        .map_err(|e| ctx(&e))?;
    let windows = series
        .get("windows")
        .and_then(Json::as_arr)
        .ok_or_else(|| ctx("missing windows array"))?;
    // Sum one scalar counter, one reason/level map, or one histogram
    // over every window.
    let sum_u = |key: &str| -> u64 {
        windows
            .iter()
            .map(|w| w.get(key).and_then(Json::as_u64).unwrap_or(0))
            .sum()
    };
    let sum_map = |key: &str| -> u64 {
        windows
            .iter()
            .map(|w| match w.get(key) {
                Some(Json::Obj(fields)) => {
                    fields.iter().filter_map(|(_, v)| v.as_u64()).sum::<u64>()
                }
                _ => 0,
            })
            .sum()
    };
    let sum_pairs = |key: &str| -> u64 {
        windows
            .iter()
            .map(|w| match w.get(key) {
                Some(Json::Arr(pairs)) => pairs
                    .iter()
                    .filter_map(|p| p.as_arr().and_then(|kv| kv.get(1)).and_then(Json::as_u64))
                    .sum::<u64>(),
                _ => 0,
            })
            .sum()
    };
    let sum_hist = |key: &str| -> u64 {
        windows
            .iter()
            .map(|w| match w.get(key) {
                Some(Json::Arr(buckets)) => buckets.iter().filter_map(Json::as_u64).sum::<u64>(),
                _ => 0,
            })
            .sum()
    };
    let kind = |k: &str| -> u64 {
        d.get("events_by_kind")
            .and_then(|m| m.get(k))
            .and_then(Json::as_u64)
            .unwrap_or(0)
    };
    let totals: [(&str, u64, u64); 11] = [
        ("walks", sum_u("walks"), kind("walk_end")),
        ("probes", sum_u("probes"), kind("ix_probe")),
        ("fills", sum_u("fills"), kind("fill")),
        ("coalesces", sum_u("coalesces"), kind("coalesce")),
        (
            "inserts_by_reason",
            sum_map("inserts_by_reason"),
            kind("insert"),
        ),
        (
            "bypasses_by_reason",
            sum_map("bypasses_by_reason"),
            kind("bypass"),
        ),
        (
            "evictions_by_reason",
            sum_map("evictions_by_reason"),
            kind("evict"),
        ),
        (
            "invalidation kills+shrinks",
            sum_u("invalidation_kills") + sum_u("invalidation_shrinks"),
            kind("invalidate"),
        ),
        ("mutations", sum_u("mutations"), kind("split")),
        (
            "tuner_decisions",
            sum_u("tuner_decisions"),
            kind("tuner_decision"),
        ),
        ("dram_fetches", sum_u("dram_fetches"), kind("dram_fetch")),
    ];
    for (what, windowed, total) in totals {
        if windowed != total {
            return Err(ctx(&format!(
                "{what} sums to {windowed} over windows, whole run counted {total}"
            )));
        }
    }
    let probes = sum_u("probes");
    let outcomes = sum_pairs("hits_by_level") + sum_u("scan_hits") + sum_u("misses");
    if outcomes != probes {
        return Err(ctx(&format!(
            "probe outcomes sum to {outcomes} of {probes} probes"
        )));
    }
    if sum_hist("latency_log2") != sum_u("walks") {
        return Err(ctx("latency histogram deltas do not cover every walk"));
    }
    let regret = |k: &str| -> u64 {
        d.get("regret")
            .and_then(|r| r.get(k))
            .and_then(Json::as_u64)
            .unwrap_or(0)
    };
    if sum_u("regretted") != regret("regretted") {
        return Err(ctx(
            "windowed regret verdicts do not sum to regret.regretted",
        ));
    }
    if sum_u("vindicated") != regret("vindicated") {
        return Err(ctx(
            "windowed vindication verdicts do not sum to regret.vindicated",
        ));
    }
    // Cycle-column conservation: each component's windowed cycles sum
    // to the breakdown section's total (both sides are 0 for streams
    // that carried no breakdown events, e.g. native traces).
    let component_total = |comp: &str| -> u64 {
        d.get("breakdown")
            .and_then(|b| b.get("components"))
            .and_then(|c| c.get(comp))
            .and_then(|c| c.get("cycles"))
            .and_then(Json::as_u64)
            .unwrap_or(0)
    };
    for comp in COMPONENTS {
        let windowed = sum_u(&format!("{comp}_cycles"));
        let total = component_total(comp);
        if windowed != total {
            return Err(ctx(&format!(
                "{comp} cycles sum to {windowed} over windows, \
                 breakdown section totals {total}"
            )));
        }
    }
    Ok(())
}

/// Process-wide forensic aggregation point (in-process path).
#[derive(Debug)]
pub struct AnalysisRegistry {
    budget_blocks: usize,
    epoch: Option<EpochSpec>,
    inner: Mutex<TraceAnalysis>,
}

impl AnalysisRegistry {
    /// Creates a registry; `budget_blocks` sizes every stream's
    /// miss-taxonomy reference.
    pub fn new(budget_blocks: usize) -> Arc<Self> {
        Self::windowed(budget_blocks, None)
    }

    /// Creates a registry whose streams are sliced into `epoch` windows
    /// (`None` behaves like [`AnalysisRegistry::new`]).
    pub fn windowed(budget_blocks: usize, epoch: Option<EpochSpec>) -> Arc<Self> {
        Arc::new(AnalysisRegistry {
            budget_blocks,
            epoch,
            inner: Mutex::new(TraceAnalysis::default()),
        })
    }

    /// A shard-local sink feeding this registry under `design`.
    pub fn sink(self: &Arc<Self>, design: &str) -> AnalysisSink {
        AnalysisSink {
            design: design.to_string(),
            analyzer: Some(StreamAnalyzer::new(self.budget_blocks).with_epoch(self.epoch)),
            registry: Arc::clone(self),
            epoch_gauge: None,
        }
    }

    /// Like [`AnalysisRegistry::sink`], but also publishes the stream's
    /// current epoch into `gauge` (`fetch_max`, so concurrent shards
    /// report the furthest epoch reached — the heartbeat reads this).
    pub fn sink_with_gauge(self: &Arc<Self>, design: &str, gauge: Arc<AtomicU64>) -> AnalysisSink {
        let mut s = self.sink(design);
        s.epoch_gauge = Some(gauge);
        s
    }

    /// A copy of the current merged aggregate.
    pub fn snapshot(&self) -> TraceAnalysis {
        self.inner.lock().expect("analysis poisoned").clone()
    }
}

/// Shard-local forensic sink; folds its finished stream into the
/// registry on flush.
pub struct AnalysisSink {
    design: String,
    analyzer: Option<StreamAnalyzer>,
    registry: Arc<AnalysisRegistry>,
    epoch_gauge: Option<Arc<AtomicU64>>,
}

impl EventSink for AnalysisSink {
    fn emit(&mut self, at: u64, ev: &Event) {
        // A flush ends the stream; a fresh analyzer would mis-handle the
        // order-sensitive profiles, so events arriving after the first
        // flush start a new (empty-prefix) stream — this only happens if
        // an engine flushes mid-shard, which none do today.
        let epoch = self.registry.epoch;
        let analyzer = self.analyzer.get_or_insert_with(|| {
            StreamAnalyzer::new(self.registry.budget_blocks).with_epoch(epoch)
        });
        analyzer.observe_event(at, ev);
        if let (Some(gauge), Some(e)) = (&self.epoch_gauge, analyzer.current_epoch()) {
            gauge.fetch_max(e, Ordering::Relaxed);
        }
    }

    fn flush(&mut self) {
        if let Some(a) = self.analyzer.take() {
            self.registry
                .inner
                .lock()
                .expect("analysis poisoned")
                .fold(&self.design, a.finish());
        }
    }
}

impl Drop for AnalysisSink {
    fn drop(&mut self) {
        self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flight::FlightRecorder;
    use crate::jsonl::tests::{parse_all, render};
    use crate::jsonl::TraceLine;
    use metal_sim::obs::{AdmitReason, EvictReason, MutKind, PackMode};

    fn sample_events() -> Vec<(u64, Event)> {
        vec![
            (
                1,
                Event::Insert {
                    index: 0,
                    level: 2,
                    set: 3,
                    life: 0,
                    reason: AdmitReason::LevelBand,
                },
            ),
            (
                1,
                Event::Fill {
                    index: 0,
                    level: 2,
                    set: 3,
                    entry: 1,
                    pack: PackMode::Exact,
                },
            ),
            (
                5,
                Event::IxProbe {
                    index: 0,
                    key: 40,
                    hit: true,
                    level: 2,
                    short_circuit: 2,
                    set: 3,
                    scan: false,
                    entry: 1,
                },
            ),
            (
                7,
                Event::DramFetch {
                    lane: 0,
                    addr: 640,
                    bytes: 64,
                    done: 100,
                },
            ),
            (
                8,
                Event::DramFetch {
                    lane: 0,
                    addr: 640,
                    bytes: 64,
                    done: 101,
                },
            ),
            (
                9,
                Event::Evict {
                    index: 0,
                    level: 2,
                    set: 3,
                    reason: EvictReason::Capacity,
                    entry: 1,
                    lo: 0,
                    hi: 63,
                    for_entry: 2,
                },
            ),
            (
                10,
                Event::Insert {
                    index: 0,
                    level: 0,
                    set: 3,
                    life: 0,
                    reason: AdmitReason::LevelBand,
                },
            ),
            (
                10,
                Event::Fill {
                    index: 0,
                    level: 0,
                    set: 3,
                    entry: 2,
                    pack: PackMode::Exact,
                },
            ),
            (
                12,
                Event::Split {
                    index: 0,
                    level: 0,
                    lo: 64,
                    hi: 127,
                    op: MutKind::Split,
                },
            ),
            (
                12,
                Event::Invalidate {
                    index: 0,
                    level: 0,
                    set: 3,
                    entry: 2,
                    lo: 64,
                    hi: 127,
                    killed: true,
                },
            ),
            // Two gapless walks on lane 0 (completions at 20 and 45),
            // so the breakdown section's lane reconciliation holds:
            // lane_cycles_max == horizon == 45.
            (
                20,
                Event::WalkBreakdown {
                    walk: 0,
                    lane: 0,
                    ix_probe: 1,
                    compute: 4,
                    queue: 0,
                    stall: 15,
                    hidden: 0,
                    latency: 20,
                },
            ),
            (
                20,
                Event::WalkEnd {
                    walk: 0,
                    lane: 0,
                    latency: 20,
                },
            ),
            (
                45,
                Event::WalkBreakdown {
                    walk: 1,
                    lane: 0,
                    ix_probe: 1,
                    compute: 2,
                    queue: 2,
                    stall: 18,
                    hidden: 2,
                    latency: 25,
                },
            ),
            (
                45,
                Event::WalkEnd {
                    walk: 1,
                    lane: 0,
                    latency: 25,
                },
            ),
        ]
    }

    /// `sample_events` as the offline path sees them: rendered by the
    /// real writer and read back through the trace parser.
    fn sample_lines() -> Vec<TraceLine> {
        parse_all(&render(&sample_events()))
    }

    #[test]
    fn event_and_json_paths_agree() {
        let mut live = StreamAnalyzer::new(16);
        for (at, ev) in sample_events() {
            live.observe_event(at, &ev);
        }
        let mut offline = StreamAnalyzer::new(16);
        for line in sample_lines() {
            offline.observe_event(line.at, &line.ev);
        }
        assert_eq!(live.finish(), offline.finish());
    }

    #[test]
    fn flight_dump_replays_like_the_in_process_registry() {
        // A single-shard recorder that dropped nothing holds the whole
        // stream, so replaying its dump must reproduce the in-process
        // analysis, and its meta line must open no stream of its own.
        let rec = FlightRecorder::new(64);
        let reg = AnalysisRegistry::new(16);
        let (mut flight, mut sink) = (rec.sink("metal", 0), reg.sink("metal"));
        for (at, ev) in sample_events() {
            flight.emit(at, &ev);
            sink.emit(at, &ev);
        }
        drop(sink);
        let dump = rec.dump_jsonl();
        let rep = replay(JsonlReader::from_reader(dump.as_bytes()), 16, None).unwrap();
        assert_eq!((rep.events, rep.dropped), (sample_events().len() as u64, 0));
        let streams: Vec<&StreamKey> = rep.metrics.keys().collect();
        assert_eq!(streams, [&("?".to_string(), "metal".to_string(), 0)]);
        assert_eq!(rep.analysis, reg.snapshot());
    }

    #[test]
    fn overflowed_flight_dump_reports_what_it_dropped() {
        // A ring smaller than the stream keeps only its tail; the replay
        // must say how much it lost, because the tail alone cannot
        // satisfy the conservation identities.
        let rec = FlightRecorder::new(3);
        let mut flight = rec.sink("metal", 0);
        for (at, ev) in sample_events() {
            flight.emit(at, &ev);
        }
        let dump = rec.dump_jsonl();
        let rep = replay(JsonlReader::from_reader(dump.as_bytes()), 16, None).unwrap();
        let total = sample_events().len() as u64;
        assert_eq!((rep.events, rep.dropped), (3, total - 3));
        // The kept tail starts mid-lane: one walk's latency cannot
        // reach the lane's horizon.
        let err =
            validate_analysis(&rep.analysis.to_json()).expect_err("a suffix is not conserved");
        assert!(err.contains("reconcile with exec horizon"), "{err}");
    }

    #[test]
    fn analysis_json_validates_and_is_conserved() {
        let mut a = StreamAnalyzer::new(16);
        for (at, ev) in sample_events() {
            a.observe_event(at, &ev);
        }
        let mut trace = TraceAnalysis::default();
        trace.fold("metal", a.finish());
        let d = &trace.designs["metal"];
        assert_eq!(d.ledger.filled, 2);
        assert_eq!(d.ledger.evicted, 1);
        assert_eq!(d.ledger.invalidated, 1, "coherence kill retires entry 2");
        assert_eq!(d.ledger.hits_total, 1);
        assert_eq!(d.ledger.short_circuit_saved, 2);
        assert_eq!(d.taxonomy.compulsory, 1);
        assert_eq!(d.taxonomy.conflict + d.taxonomy.capacity, 1);
        assert_eq!(d.reuse_cold, 1);
        assert_eq!(d.regret.evictions, 1);
        assert_eq!(
            d.regret.unresolved, 1,
            "window on entry 2 closed by its invalidation"
        );
        assert_eq!(d.counts.kind("split"), 1);
        assert_eq!(d.counts.kind("invalidate"), 1);
        let breakdown = d.breakdown.as_ref().expect("breakdown section present");
        assert_eq!(breakdown.walks, 2);
        assert_eq!(breakdown.latency_total, 45);
        assert_eq!(breakdown.cycles_total(), 45, "components partition latency");
        assert_eq!(breakdown.lane_cycles_max, 45);
        assert_eq!(breakdown.horizon, 45, "lane sum reconciles with horizon");
        validate_analysis(&trace.to_json()).expect("valid document");
    }

    #[test]
    fn validation_rejects_broken_conservation() {
        let mut a = StreamAnalyzer::new(16);
        for (at, ev) in sample_events() {
            a.observe_event(at, &ev);
        }
        let mut trace = TraceAnalysis::default();
        trace.fold("metal", a.finish());
        let rendered = trace.to_json().render();
        let forged = rendered.replace("\"filled\":2", "\"filled\":7");
        let doc = Json::parse(&forged).unwrap();
        assert!(validate_analysis(&doc).is_err(), "forged filled count");
        let forged = rendered.replace(ANALYSIS_SCHEMA, "metal-analysis-v0");
        let doc = Json::parse(&forged).unwrap();
        assert!(validate_analysis(&doc).is_err(), "wrong schema tag");
    }

    #[test]
    fn validation_rejects_inflated_stall_component() {
        let mut a = StreamAnalyzer::new(16);
        for (at, ev) in sample_events() {
            a.observe_event(at, &ev);
        }
        let mut trace = TraceAnalysis::default();
        trace.fold("metal", a.finish());
        let rendered = trace.to_json().render();
        // Inflate the stall component total (as `cli_controls` does): the
        // partition row must fail and name the components sum.
        let forged = rendered.replacen("\"stall\":{\"cycles\":33", "\"stall\":{\"cycles\":43", 1);
        assert_ne!(forged, rendered, "forge must hit the stall total");
        let err = validate_analysis(&Json::parse(&forged).unwrap())
            .expect_err("inflated stall must fail validation");
        assert!(
            err.contains("components sum to"),
            "error names the partition row: {err}"
        );
        // Break the lane reconciliation: the horizon row must fail.
        let forged = rendered.replacen("\"lane_cycles_max\":45", "\"lane_cycles_max\":44", 1);
        assert_ne!(forged, rendered, "forge must hit lane_cycles_max");
        let err = validate_analysis(&Json::parse(&forged).unwrap())
            .expect_err("broken lane reconciliation must fail validation");
        assert!(err.contains("reconcile with exec horizon"), "{err}");
    }

    #[test]
    fn windowed_paths_agree_and_series_conservation_gates() {
        let spec = EpochSpec::Cycles(5);
        let mut live = StreamAnalyzer::new(16).with_epoch(Some(spec));
        for (at, ev) in sample_events() {
            live.observe_event(at, &ev);
        }
        let mut offline = StreamAnalyzer::new(16).with_epoch(Some(spec));
        for line in sample_lines() {
            offline.observe_event(line.at, &line.ev);
        }
        let (live, offline) = (live.finish(), offline.finish());
        assert_eq!(live, offline, "windowed in-process == offline replay");
        let series = live.series.as_ref().expect("series present");
        assert_eq!(
            series.windows.len(),
            5,
            "sample occupies sparse cycle epochs {{0,1,2,4,9}}"
        );
        let mut trace = TraceAnalysis::default();
        trace.fold("metal", live);
        let doc = trace.to_json();
        validate_analysis(&doc).expect("windowed document validates");
        assert!(trace.series_json().is_some(), "series doc available");
        // Forge one window counter: window-sum conservation must catch
        // it (the whole-run aggregates are untouched).
        let rendered = doc.render();
        let forged = rendered.replacen("\"probes\":1", "\"probes\":2", 1);
        assert_ne!(forged, rendered, "forge must hit a window counter");
        let forged_doc = Json::parse(&forged).unwrap();
        assert!(
            validate_analysis(&forged_doc).is_err(),
            "forged window counter must fail validation"
        );
        // Forge one window's stall cycles: the breakdown section stays
        // untouched, so the cycle-column conservation row must catch it.
        let forged = rendered.replacen("\"stall_cycles\":15", "\"stall_cycles\":16", 1);
        assert_ne!(forged, rendered, "forge must hit a window cycle column");
        let err = validate_analysis(&Json::parse(&forged).unwrap())
            .expect_err("forged window cycle column must fail validation");
        assert!(err.contains("stall cycles sum to"), "{err}");
    }

    #[test]
    fn deny_alerts_flips_validation() {
        let mut a = StreamAnalyzer::new(16);
        for (at, ev) in sample_events() {
            a.observe_event(at, &ev);
        }
        let mut trace = TraceAnalysis::default();
        trace.fold("metal", a.finish());
        let doc = trace.to_json();
        validate_analysis_gated(&doc, true).expect("no alerts field, gate passes");
        let with_alerts = match doc {
            Json::Obj(mut fields) => {
                fields.push(("alerts".into(), Json::Arr(vec![Json::Obj(vec![])])));
                Json::Obj(fields)
            }
            _ => unreachable!(),
        };
        validate_analysis_gated(&with_alerts, false).expect("alerts tolerated by default");
        assert!(
            validate_analysis_gated(&with_alerts, true).is_err(),
            "--deny-alerts flips red"
        );
    }

    #[test]
    fn merge_is_order_free_and_sink_folds_on_flush() {
        let mut a = StreamAnalyzer::new(16);
        let mut b = StreamAnalyzer::new(16);
        for (i, (at, ev)) in sample_events().into_iter().enumerate() {
            if i % 2 == 0 {
                a.observe_event(at, &ev);
            } else {
                b.observe_event(at, &ev);
            }
        }
        let (a, b) = (a.finish(), b.finish());
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab.to_json().render(), ba.to_json().render());

        let reg = AnalysisRegistry::new(16);
        let mut sink = reg.sink("metal");
        for (at, ev) in sample_events() {
            sink.emit(at, &ev);
        }
        assert!(reg.snapshot().designs.is_empty(), "pre-flush");
        drop(sink);
        assert_eq!(reg.snapshot().designs["metal"].ledger.filled, 2);
    }
}
