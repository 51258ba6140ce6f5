//! Anomaly watchdogs: streaming detectors over the epoch series.
//!
//! Each detector walks one design's [`TimeSeries`] in epoch order,
//! maintaining a trailing baseline of the previous
//! [`WatchdogConfig::trailing`] windows, and emits an [`Alert`] when a
//! window deviates past its threshold:
//!
//! - **hit-rate collapse** — the window's IX-cache hit rate falls below
//!   [`WatchdogConfig::hit_collapse_ratio`] × the trailing mean hit rate;
//! - **scan storm** — scan probes dominate the window
//!   ([`WatchdogConfig::scan_fraction`]) while evictions run at
//!   [`WatchdogConfig::scan_evict_ratio`] × the trailing mean (the
//!   cache-flushing signature of a range-scan burst);
//! - **regret spike** — regret verdicts in the window exceed
//!   [`WatchdogConfig::regret_spike_ratio`] × the trailing mean and the
//!   [`WatchdogConfig::min_regret`] floor.
//! - **stall collapse** — the window's DRAM-stall fraction of attributed
//!   walk cycles falls below [`WatchdogConfig::stall_collapse_ratio`] ×
//!   the trailing mean *and* under the
//!   [`WatchdogConfig::compute_bound_stall`] absolute bar while the
//!   baseline was memory-bound: the walks went compute-bound, so the
//!   cache stopped helping.
//!
//! A window only fires once its baseline is fully populated and it has
//! at least [`WatchdogConfig::min_probes`] probes, so short runs and
//! cold-start windows stay quiet. Detection is a pure function of the
//! series, which is itself worker-count invariant, so alert lists are
//! deterministic.

use crate::analysis::TraceAnalysis;
use crate::json::Json;
use crate::timeseries::TimeSeries;
use std::collections::VecDeque;

/// Watchdog thresholds (documented in DESIGN.md §8c).
#[derive(Debug, Clone)]
pub struct WatchdogConfig {
    /// Windows in the trailing baseline.
    pub trailing: usize,
    /// Minimum probes in a window before any detector may fire.
    pub min_probes: u64,
    /// Hit-rate collapse: fire when `hit_rate < ratio × baseline`.
    pub hit_collapse_ratio: f64,
    /// Scan storm: minimum scan fraction of the window's probes.
    pub scan_fraction: f64,
    /// Scan storm: evictions vs trailing mean evictions.
    pub scan_evict_ratio: f64,
    /// Regret spike: windowed regret vs trailing mean regret.
    pub regret_spike_ratio: f64,
    /// Regret spike: absolute floor of regret verdicts in the window.
    pub min_regret: u64,
    /// Stall collapse: fire when `stall_frac < ratio × baseline`.
    pub stall_collapse_ratio: f64,
    /// Stall collapse: the compute-bound bar — the window must fall
    /// under it and the baseline must have been above it.
    pub compute_bound_stall: f64,
    /// Stall collapse: minimum attributed cycles in a window before the
    /// detector may fire (the breakdown analogue of `min_probes`).
    pub min_breakdown_cycles: u64,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        WatchdogConfig {
            trailing: 4,
            min_probes: 64,
            hit_collapse_ratio: 0.5,
            scan_fraction: 0.5,
            scan_evict_ratio: 2.0,
            regret_spike_ratio: 4.0,
            min_regret: 8,
            stall_collapse_ratio: 0.5,
            compute_bound_stall: 0.25,
            min_breakdown_cycles: 1024,
        }
    }
}

/// Which detector fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum AlertKind {
    /// Window hit rate collapsed versus the trailing baseline.
    HitRateCollapse,
    /// Scan-dominated window flushing the cache.
    ScanStorm,
    /// Windowed eviction regret spiked versus the trailing baseline.
    RegretSpike,
    /// DRAM-stall fraction collapsed into compute-bound territory — the
    /// walks no longer wait on memory, so the cache stopped helping.
    StallCollapse,
}

impl AlertKind {
    /// Stable lowercase tag (JSON `kind` field).
    pub fn as_str(&self) -> &'static str {
        match self {
            AlertKind::HitRateCollapse => "hit-rate-collapse",
            AlertKind::ScanStorm => "scan-storm",
            AlertKind::RegretSpike => "regret-spike",
            AlertKind::StallCollapse => "stall-collapse",
        }
    }
}

/// One structured watchdog alert.
#[derive(Debug, Clone, PartialEq)]
pub struct Alert {
    /// Design whose series fired.
    pub design: String,
    /// Epoch window the detector fired on.
    pub epoch: u64,
    /// Which detector fired.
    pub kind: AlertKind,
    /// The observed metric (hit rate, evictions, regret count).
    pub value: f64,
    /// The trailing baseline it was compared against.
    pub baseline: f64,
    /// Human-readable one-liner for reports and stderr.
    pub detail: String,
}

impl Alert {
    /// The alert's JSON object (field order fixed).
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("design".into(), Json::str(self.design.as_str())),
            ("epoch".into(), Json::UInt(self.epoch)),
            ("kind".into(), Json::str(self.kind.as_str())),
            ("value".into(), Json::Num(self.value)),
            ("baseline".into(), Json::Num(self.baseline)),
            ("detail".into(), Json::str(self.detail.as_str())),
        ])
    }
}

/// Trailing per-window baseline samples.
struct Baseline {
    hit_rates: VecDeque<f64>,
    evictions: VecDeque<f64>,
    regrets: VecDeque<f64>,
    stall_fracs: VecDeque<f64>,
    cap: usize,
}

impl Baseline {
    fn new(cap: usize) -> Baseline {
        Baseline {
            hit_rates: VecDeque::new(),
            evictions: VecDeque::new(),
            regrets: VecDeque::new(),
            stall_fracs: VecDeque::new(),
            cap,
        }
    }

    fn full(&self) -> bool {
        self.hit_rates.len() == self.cap
    }

    fn push(&mut self, hit_rate: f64, evictions: f64, regret: f64, stall_frac: f64) {
        for (q, v) in [
            (&mut self.hit_rates, hit_rate),
            (&mut self.evictions, evictions),
            (&mut self.regrets, regret),
            (&mut self.stall_fracs, stall_frac),
        ] {
            q.push_back(v);
            if q.len() > self.cap {
                q.pop_front();
            }
        }
    }

    fn mean(q: &VecDeque<f64>) -> f64 {
        if q.is_empty() {
            0.0
        } else {
            q.iter().sum::<f64>() / q.len() as f64
        }
    }
}

/// Runs every detector over one design's series, in epoch order.
pub fn scan_series(design: &str, series: &TimeSeries, cfg: &WatchdogConfig) -> Vec<Alert> {
    let mut alerts = Vec::new();
    let mut base = Baseline::new(cfg.trailing.max(1));
    for (&epoch, w) in &series.windows {
        let hits = w.hits_total() as f64;
        let probes = w.probes() as f64;
        let hit_rate = if probes > 0.0 { hits / probes } else { 0.0 };
        let evictions = w.evictions_total() as f64;
        let regret = w.regretted as f64;
        let cycles = w.cycles_total();
        let stall_frac = if cycles > 0 {
            w.cycles_of("stall") as f64 / cycles as f64
        } else {
            0.0
        };
        if base.full() && cycles >= cfg.min_breakdown_cycles {
            let base_stall = Baseline::mean(&base.stall_fracs);
            if base_stall > cfg.compute_bound_stall
                && stall_frac < cfg.stall_collapse_ratio * base_stall
                && stall_frac < cfg.compute_bound_stall
            {
                alerts.push(Alert {
                    design: design.to_string(),
                    epoch,
                    kind: AlertKind::StallCollapse,
                    value: stall_frac,
                    baseline: base_stall,
                    detail: format!(
                        "stall fraction {stall_frac:.3} collapsed from trailing \
                         {base_stall:.3} into compute-bound territory — the cache \
                         stopped helping"
                    ),
                });
            }
        }
        if base.full() && w.probes() >= cfg.min_probes {
            let base_hit = Baseline::mean(&base.hit_rates);
            if base_hit > 0.0 && hit_rate < cfg.hit_collapse_ratio * base_hit {
                alerts.push(Alert {
                    design: design.to_string(),
                    epoch,
                    kind: AlertKind::HitRateCollapse,
                    value: hit_rate,
                    baseline: base_hit,
                    detail: format!(
                        "hit rate {hit_rate:.3} fell below {:.0}% of trailing {base_hit:.3}",
                        cfg.hit_collapse_ratio * 100.0
                    ),
                });
            }
            let scan_frac = w.scan_probes as f64 / probes;
            let base_evict = Baseline::mean(&base.evictions).max(1.0);
            if scan_frac >= cfg.scan_fraction && evictions >= cfg.scan_evict_ratio * base_evict {
                alerts.push(Alert {
                    design: design.to_string(),
                    epoch,
                    kind: AlertKind::ScanStorm,
                    value: evictions,
                    baseline: base_evict,
                    detail: format!(
                        "scans are {:.0}% of probes and {evictions:.0} evictions \
                         run {:.1}x the trailing mean",
                        scan_frac * 100.0,
                        evictions / base_evict
                    ),
                });
            }
            let base_regret = Baseline::mean(&base.regrets).max(1.0);
            if w.regretted >= cfg.min_regret && regret >= cfg.regret_spike_ratio * base_regret {
                alerts.push(Alert {
                    design: design.to_string(),
                    epoch,
                    kind: AlertKind::RegretSpike,
                    value: regret,
                    baseline: base_regret,
                    detail: format!(
                        "{regret:.0} regretted evictions run {:.1}x the trailing mean",
                        regret / base_regret
                    ),
                });
            }
        }
        base.push(hit_rate, evictions, regret, stall_frac);
    }
    alerts
}

/// Runs the watchdogs over every design carrying a series; alerts come
/// back sorted (design, epoch, kind) so equal analyses produce equal
/// alert lists.
pub fn scan_analysis(analysis: &TraceAnalysis, cfg: &WatchdogConfig) -> Vec<Alert> {
    let mut alerts = Vec::new();
    for (design, d) in &analysis.designs {
        if let Some(series) = &d.series {
            alerts.extend(scan_series(design, series, cfg));
        }
    }
    alerts.sort_by(|a, b| (&a.design, a.epoch, a.kind).cmp(&(&b.design, b.epoch, b.kind)));
    alerts
}

/// The full analysis document with the alert section appended (omitted
/// when no watchdog fired, keeping unwindowed documents byte-stable).
pub fn analysis_document(analysis: &TraceAnalysis, alerts: &[Alert]) -> Json {
    let doc = analysis.to_json();
    if alerts.is_empty() {
        return doc;
    }
    match doc {
        Json::Obj(mut fields) => {
            fields.push((
                "alerts".into(),
                Json::Arr(alerts.iter().map(Alert::to_json).collect()),
            ));
            Json::Obj(fields)
        }
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::validate_analysis_gated;
    use crate::metrics::EventCounts;
    use metal_sim::epoch::EpochSpec;

    fn steady_window(probes: u64, hits: u64) -> EventCounts {
        let mut w = EventCounts::default();
        w.events_by_kind.insert("ix_probe", probes);
        w.hits_by_level.insert(2, hits);
        w
    }

    #[test]
    fn hit_rate_collapse_fires_after_baseline_fills() {
        let mut s = TimeSeries::new(EpochSpec::Walks(100));
        for e in 0..6 {
            *s.window_mut(e) = steady_window(1000, 800);
        }
        // Epoch 6 collapses to 10% hits.
        *s.window_mut(6) = steady_window(1000, 100);
        let alerts = scan_series("metal", &s, &WatchdogConfig::default());
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].kind, AlertKind::HitRateCollapse);
        assert_eq!(alerts[0].epoch, 6);
        assert!(alerts[0].value < alerts[0].baseline);
    }

    #[test]
    fn quiet_windows_and_cold_start_stay_silent() {
        let mut s = TimeSeries::new(EpochSpec::Walks(100));
        // A collapse inside the cold-start prefix must not fire.
        *s.window_mut(0) = steady_window(1000, 900);
        *s.window_mut(1) = steady_window(1000, 50);
        // Low-activity windows below min_probes must not fire either.
        for e in 2..8 {
            *s.window_mut(e) = steady_window(10, 9);
        }
        *s.window_mut(8) = steady_window(10, 0);
        assert!(scan_series("m", &s, &WatchdogConfig::default()).is_empty());
    }

    #[test]
    fn scan_storm_and_regret_spike_fire() {
        let cfg = WatchdogConfig::default();
        let mut s = TimeSeries::new(EpochSpec::Walks(100));
        for e in 0..5 {
            let w = s.window_mut(e);
            *w = steady_window(1000, 700);
            w.evictions_by_reason.insert("capacity", 10);
            w.regretted = 2;
        }
        {
            let w = s.window_mut(5);
            *w = steady_window(1000, 700);
            w.scan_probes = 900;
            w.evictions_by_reason.insert("capacity", 100);
            w.regretted = 40;
        }
        let alerts = scan_series("metal", &s, &cfg);
        let kinds: Vec<AlertKind> = alerts.iter().map(|a| a.kind).collect();
        assert!(kinds.contains(&AlertKind::ScanStorm), "{kinds:?}");
        assert!(kinds.contains(&AlertKind::RegretSpike), "{kinds:?}");
        assert!(alerts.iter().all(|a| a.epoch == 5));
    }

    #[test]
    fn stall_collapse_fires_when_walks_go_compute_bound() {
        let mut s = TimeSeries::new(EpochSpec::Walks(100));
        // Memory-bound baseline: ~80% of attributed cycles are exposed
        // DRAM stall.
        for e in 0..6 {
            s.window_mut(e).cycles = [300, 1500, 200, 8000, 0];
        }
        // Epoch 6 goes compute-bound: 5% stall.
        s.window_mut(6).cycles = [300, 9000, 200, 500, 0];
        let alerts = scan_series("metal", &s, &WatchdogConfig::default());
        assert_eq!(alerts.len(), 1, "{alerts:?}");
        assert_eq!(alerts[0].kind, AlertKind::StallCollapse);
        assert_eq!(alerts[0].epoch, 6);
        assert!(alerts[0].value < 0.25, "window is compute-bound");
        assert!(alerts[0].baseline > 0.25, "baseline was memory-bound");
        assert!(alerts[0].detail.contains("compute-bound"));
    }

    #[test]
    fn stall_collapse_respects_floor_and_baseline_regime() {
        let cfg = WatchdogConfig::default();
        // A collapse in a tiny window (under min_breakdown_cycles) must
        // stay silent, as must one whose baseline was already
        // compute-bound.
        let mut s = TimeSeries::new(EpochSpec::Walks(100));
        for e in 0..6 {
            // Memory-bound but only 500 cycles.
            s.window_mut(e).cycles = [0, 100, 0, 400, 0];
        }
        s.window_mut(6).cycles = [0, 500, 0, 0, 0];
        assert!(scan_series("m", &s, &cfg).is_empty(), "under the floor");

        let mut s = TimeSeries::new(EpochSpec::Walks(100));
        for e in 0..7 {
            // Already compute-bound.
            s.window_mut(e).cycles = [0, 9000, 0, 1000, 0];
        }
        s.window_mut(7).cycles = [0, 10_000, 0, 0, 0];
        assert!(
            scan_series("m", &s, &cfg).is_empty(),
            "no memory-bound regime to collapse from"
        );
    }

    #[test]
    fn alert_document_gates_validation() {
        let analysis = TraceAnalysis::default();
        let alert = Alert {
            design: "metal".into(),
            epoch: 3,
            kind: AlertKind::ScanStorm,
            value: 12.0,
            baseline: 2.0,
            detail: "test".into(),
        };
        let doc = analysis_document(&analysis, &[alert]);
        let rendered = doc.render();
        assert!(rendered.contains("\"kind\":\"scan-storm\""));
        // Alerts alone are not a structural failure (designs may be
        // empty here only because the fixture is synthetic)…
        let fired = doc.get("alerts").and_then(Json::as_arr).unwrap();
        assert_eq!(fired.len(), 1);
        // …but the deny gate sees them.
        let err = validate_analysis_gated(&doc, true).unwrap_err();
        assert!(err.contains("alert"), "{err}");
    }
}
