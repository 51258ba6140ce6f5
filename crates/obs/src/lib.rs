//! # metal-obs — telemetry back-ends for the METAL reproduction
//!
//! The simulator emits typed [`metal_sim::obs::Event`]s through the
//! [`metal_sim::obs::EventSink`] contract; this crate provides the sinks
//! and file formats that make those events useful:
//!
//! - [`jsonl`] — a JSONL trace writer (one event per line, shard-safe),
//!   the format behind the harness's `--trace-out` flag, and its strict
//!   inverse, the one parser every offline reader goes through.
//! - [`chrome`] — a Chrome `trace_event` exporter for visual inspection
//!   in `chrome://tracing` / Perfetto (walks become per-lane slices).
//! - [`metrics`] — [`EventCounts`], the one order-free event-count
//!   reducer (per-kind counts, per-set probe and occupancy tallies,
//!   per-level hits, short-circuit depths, admission/bypass/eviction
//!   reasons, cycle columns, latency histogram, tuner decisions) with
//!   one `observe` and one `merge`; the manifest's metrics registry,
//!   the analyzer's whole-run counts and every epoch window are this
//!   type.
//! - [`manifest`] — run manifests for `--metrics-out`: configuration,
//!   seed, git revision, wall clock and the full merged statistics of
//!   every (workload, design) report.
//! - [`json`] — the minimal hand-rolled JSON model all of the above
//!   share (the container bakes in no serialization crates).
//! - [`ledger`] — per-entry cache forensics: the entry ledger (admission
//!   context, hits accrued, lifetime) and the eviction-regret meter.
//! - [`reuse`] — streaming Olken reuse-distance profiling and the
//!   compulsory/capacity/conflict miss taxonomy over the block trace.
//! - [`analysis`] — the per-stream analyzer tying the forensics
//!   together, its associative per-design merge, the `ANALYSIS.json`
//!   schema and its validator, the in-process registry sink and the
//!   offline trace replay.
//! - [`breakdown`] — cycle-accounting rollups over the per-walk
//!   `walk_breakdown` events (component totals, log₂ histograms, lane
//!   reconciliation), conserved against walk latency by the validator.
//! - [`timeseries`] — epoch-windowed counter series: one merge-safe
//!   [`EventCounts`] per window, conserved against the whole-run
//!   aggregates by the validator.
//! - [`watchdog`] — streaming anomaly detectors over the window series
//!   (hit-rate collapse, scan storms, regret spikes) emitting structured
//!   alerts.
//! - [`flight`] — a fixed-size flight-recorder ring of recent raw
//!   events per design, dumped as trace JSONL on panic, anomaly, or
//!   demand.
//! - [`report`] — a self-contained single-file HTML report (inline SVG,
//!   no scripts, no dependencies) over a merged analysis.
//!
//! Everything here is observe-only: attaching any of these sinks must
//! not change a single simulated statistic. That contract is enforced by
//! the `observability` integration tests at the workspace root.

#![warn(missing_docs)]

pub mod analysis;
pub mod breakdown;
pub mod chrome;
pub mod flight;
pub mod json;
pub mod jsonl;
pub mod ledger;
pub mod manifest;
pub mod metrics;
pub mod report;
pub mod reuse;
pub mod timeseries;
pub mod watchdog;

pub use analysis::{
    replay, validate_analysis, validate_analysis_gated, AnalysisRegistry, AnalysisSink,
    DesignAnalysis, Replay, StreamAnalyzer, StreamKey, TraceAnalysis, ANALYSIS_SCHEMA,
    SERIES_SCHEMA,
};
pub use breakdown::{BreakdownAgg, BreakdownState, BREAKDOWN_SCHEMA};
pub use chrome::{ChromeTraceSink, ChromeTraceWriter};
pub use flight::{FlightRecorder, FlightSink, DEFAULT_FLIGHT_CAPACITY};
pub use json::{Json, JsonError};
pub use jsonl::{JsonlReader, JsonlSink, JsonlWriter, TraceLine};
pub use ledger::{EntryLedger, LedgerSummary, RegretDelta, RegretMeter, RegretSummary};
pub use manifest::{stats_json, ManifestReport, RunManifest};
pub use metrics::{EventCounts, MetricsRegistry, RegistrySink, TunerRec};
pub use report::{render_html, render_html_with_measured, MeasuredRow};
pub use reuse::{LogHist, MissTaxonomy, ReuseProfiler, TaxonomyCounts};
pub use timeseries::TimeSeries;
pub use watchdog::{analysis_document, scan_analysis, Alert, AlertKind, WatchdogConfig};
