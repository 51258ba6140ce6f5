//! Run manifests: one JSON document per harness invocation recording
//! what ran (binary, arguments, git revision, wall clock) and the full
//! merged statistics of every (workload, design) report — enough to
//! reproduce the run and to cross-check a trace against its CSV.

use crate::json::Json;
use crate::metrics::EventCounts;
use crate::watchdog::Alert;
use metal_sim::stats::{LatencyStats, RunStats};
use std::path::Path;
use std::time::{SystemTime, UNIX_EPOCH};

/// `git rev-parse HEAD` of the working directory, or `"unknown"` when
/// git is unavailable (detached environments, tarball builds).
pub fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Serializes a latency distribution, trimming trailing empty buckets.
fn latency_json(l: &LatencyStats) -> Json {
    let buckets = l.buckets();
    let last = buckets.iter().rposition(|&n| n > 0).map_or(0, |i| i + 1);
    Json::Obj(vec![
        ("count".into(), Json::UInt(l.count())),
        ("total".into(), Json::UInt(l.total())),
        ("min".into(), Json::UInt(l.min())),
        ("max".into(), Json::UInt(l.max())),
        ("mean".into(), Json::Num(l.mean())),
        ("p50".into(), Json::UInt(l.p50())),
        ("p90".into(), Json::UInt(l.p90())),
        ("p99".into(), Json::UInt(l.p99())),
        (
            "log2_buckets".into(),
            Json::Arr(buckets[..last].iter().map(|&n| Json::UInt(n)).collect()),
        ),
    ])
}

/// Serializes the full merged statistics of one run.
pub fn stats_json(s: &RunStats) -> Json {
    let mut fields = vec![
        ("walks".into(), Json::UInt(s.walks)),
        ("found_walks".into(), Json::UInt(s.found_walks)),
        ("exec_cycles".into(), Json::UInt(s.exec_cycles.get())),
        ("probes".into(), Json::UInt(s.probes)),
        ("misses".into(), Json::UInt(s.misses)),
        ("miss_rate".into(), Json::Num(s.miss_rate())),
        ("dram_node_reads".into(), Json::UInt(s.dram_node_reads)),
        ("dram_bytes".into(), Json::UInt(s.dram_bytes)),
        ("distinct_blocks".into(), Json::UInt(s.distinct_blocks)),
        ("index_blocks".into(), Json::UInt(s.index_blocks)),
        ("ws_touched_sum".into(), Json::UInt(s.ws_touched_sum)),
        ("ws_windows".into(), Json::UInt(s.ws_windows)),
        (
            "working_set_fraction".into(),
            Json::Num(s.working_set_fraction()),
        ),
        ("inserts".into(), Json::UInt(s.inserts)),
        ("bypasses".into(), Json::UInt(s.bypasses)),
        ("levels_skipped".into(), Json::UInt(s.levels_skipped)),
        (
            "hit_levels".into(),
            Json::Arr(s.hit_levels.iter().map(|&n| Json::UInt(n)).collect()),
        ),
        ("cache_energy_fj".into(), Json::UInt(s.cache_energy_fj)),
        ("dram_energy_fj".into(), Json::UInt(s.dram_energy_fj)),
        ("compute_energy_fj".into(), Json::UInt(s.compute_energy_fj)),
        ("walker_energy_fj".into(), Json::UInt(s.walker_energy_fj)),
        ("compute_ops".into(), Json::UInt(s.compute_ops)),
        ("walk_latency".into(), latency_json(&s.walk_latency)),
    ];
    // Cycle-accounting totals, present only when the run attributed
    // cycles (simulator runs; native and legacy stats stay unchanged).
    let b = &s.breakdown;
    if b.total() > 0 {
        fields.push((
            "breakdown".into(),
            Json::Obj(vec![
                ("ix_probe_cycles".into(), Json::UInt(b.ix_probe_cycles)),
                ("compute_cycles".into(), Json::UInt(b.compute_cycles)),
                ("queue_cycles".into(), Json::UInt(b.queue_cycles)),
                ("stall_cycles".into(), Json::UInt(b.stall_cycles)),
                ("hidden_cycles".into(), Json::UInt(b.hidden_cycles)),
                ("stall_fraction".into(), Json::Num(b.stall_fraction())),
            ]),
        ));
    }
    Json::Obj(fields)
}

/// One (workload, design) result inside a manifest.
#[derive(Debug, Clone)]
pub struct ManifestReport {
    /// Workload label (empty for single-workload binaries).
    pub workload: String,
    /// Design label ("stream", "metal", …).
    pub design: String,
    /// Full merged statistics.
    pub stats: RunStats,
    /// Measured native-execution metrics (walks/sec, page I/O), present
    /// only for runs executed by the native backend. Stored as the
    /// already-rendered JSON object so this crate stays independent of
    /// the executor's metric struct.
    pub native: Option<Json>,
}

/// A harness run's manifest, rendered to `--metrics-out`.
#[derive(Debug, Clone)]
pub struct RunManifest {
    /// Binary / figure name ("fig20_breakdown").
    pub run: String,
    /// Echoed configuration, in insertion order (scale, seed, …).
    pub args: Vec<(String, String)>,
    /// Git revision of the tree that ran.
    pub git_rev: String,
    /// Unix seconds when the run started.
    pub created_unix: u64,
    /// Wall-clock duration of the run in seconds.
    pub wall_clock_secs: f64,
    /// One entry per (workload, design) simulated.
    pub reports: Vec<ManifestReport>,
    /// Aggregated event metrics, when a registry observed the run.
    pub metrics: Option<EventCounts>,
    /// Watchdog alerts raised over the run's telemetry series; empty
    /// (and absent from the rendered document) when no anomaly fired.
    pub alerts: Vec<Alert>,
}

impl RunManifest {
    /// Starts a manifest for `run`, stamping revision and start time.
    pub fn new(run: &str) -> Self {
        let created_unix = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0);
        RunManifest {
            run: run.to_string(),
            args: Vec::new(),
            git_rev: git_rev(),
            created_unix,
            wall_clock_secs: 0.0,
            reports: Vec::new(),
            metrics: None,
            alerts: Vec::new(),
        }
    }

    /// Records one configuration key/value pair.
    pub fn arg(&mut self, key: &str, value: impl ToString) {
        self.args.push((key.to_string(), value.to_string()));
    }

    /// Appends one (workload, design) report.
    pub fn push_report(&mut self, workload: &str, design: &str, stats: &RunStats) {
        self.reports.push(ManifestReport {
            workload: workload.to_string(),
            design: design.to_string(),
            stats: stats.clone(),
            native: None,
        });
    }

    /// Attaches measured native-execution metrics to the most recent
    /// matching report (no-op when none matches — a manifest can only
    /// carry measurements for runs it recorded).
    pub fn attach_native(&mut self, workload: &str, design: &str, native: Json) {
        if let Some(r) = self
            .reports
            .iter_mut()
            .rev()
            .find(|r| r.workload == workload && r.design == design)
        {
            r.native = Some(native);
        }
    }

    /// Renders the manifest document.
    pub fn to_json(&self) -> Json {
        let args = Json::Obj(
            self.args
                .iter()
                .map(|(k, v)| (k.clone(), Json::str(v.as_str())))
                .collect(),
        );
        let reports = Json::Arr(
            self.reports
                .iter()
                .map(|r| {
                    let mut fields = vec![
                        ("workload".into(), Json::str(r.workload.as_str())),
                        ("design".into(), Json::str(r.design.as_str())),
                        ("stats".into(), stats_json(&r.stats)),
                    ];
                    if let Some(n) = &r.native {
                        fields.push(("native".into(), n.clone()));
                    }
                    Json::Obj(fields)
                })
                .collect(),
        );
        let mut fields = vec![
            ("schema".into(), Json::str("metal-manifest-v1")),
            ("run".into(), Json::str(self.run.as_str())),
            ("git_rev".into(), Json::str(self.git_rev.as_str())),
            ("created_unix".into(), Json::UInt(self.created_unix)),
            ("wall_clock_secs".into(), Json::Num(self.wall_clock_secs)),
            ("args".into(), args),
            ("reports".into(), reports),
        ];
        if let Some(m) = &self.metrics {
            fields.push(("metrics".into(), m.to_json()));
        }
        if !self.alerts.is_empty() {
            fields.push((
                "alerts".into(),
                Json::Arr(self.alerts.iter().map(Alert::to_json).collect()),
            ));
        }
        Json::Obj(fields)
    }

    /// Writes the manifest to `path` (single JSON document, trailing
    /// newline).
    pub fn save(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        let mut text = self.to_json().render();
        text.push('\n');
        std::fs::write(path, text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metal_sim::types::Cycles;

    #[test]
    fn manifest_round_trips_headline_stats() {
        let mut stats = RunStats {
            walks: 500,
            probes: 700,
            misses: 140,
            exec_cycles: Cycles::new(123_456),
            hit_levels: vec![10, 20, 30],
            ..Default::default()
        };
        stats.walk_latency.record(Cycles::new(100));
        stats.walk_latency.record(Cycles::new(900));

        let mut m = RunManifest::new("fig_test");
        m.arg("scale", "ci");
        m.arg("seed", 42);
        m.push_report("spmm", "metal", &stats);
        m.wall_clock_secs = 1.5;

        let doc = Json::parse(&m.to_json().render()).expect("manifest parses");
        assert_eq!(
            doc.get("schema").unwrap().as_str(),
            Some("metal-manifest-v1")
        );
        assert_eq!(doc.get("run").unwrap().as_str(), Some("fig_test"));
        assert_eq!(
            doc.get("args").unwrap().get("seed").unwrap().as_str(),
            Some("42")
        );
        let report = &doc.get("reports").unwrap().as_arr().unwrap()[0];
        assert_eq!(report.get("design").unwrap().as_str(), Some("metal"));
        let s = report.get("stats").unwrap();
        assert_eq!(s.get("walks").unwrap().as_u64(), Some(500));
        assert_eq!(s.get("exec_cycles").unwrap().as_u64(), Some(123_456));
        let levels: Vec<u64> = s
            .get("hit_levels")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|v| v.as_u64().unwrap())
            .collect();
        assert_eq!(levels, vec![10, 20, 30]);
        let lat = s.get("walk_latency").unwrap();
        assert_eq!(lat.get("count").unwrap().as_u64(), Some(2));
        assert_eq!(lat.get("min").unwrap().as_u64(), Some(100));
        assert_eq!(lat.get("max").unwrap().as_u64(), Some(900));
        assert!(lat.get("p99").unwrap().as_u64().unwrap() >= 900);
        // Trimmed buckets: bit length of 900 is 10, so 11 buckets remain.
        assert_eq!(lat.get("log2_buckets").unwrap().as_arr().unwrap().len(), 11);
    }

    #[test]
    fn git_rev_is_nonempty() {
        assert!(!git_rev().is_empty());
    }

    #[test]
    fn native_metrics_attach_to_their_report_only() {
        let stats = RunStats::default();
        let mut m = RunManifest::new("fig_native");
        m.push_report("where", "metal:sim", &stats);
        m.push_report("where", "metal:native", &stats);
        m.attach_native(
            "where",
            "metal:native",
            Json::Obj(vec![("walks_per_sec".into(), Json::Num(123456.0))]),
        );
        // A label no report carries is a no-op, not a panic.
        m.attach_native("where", "absent", Json::Obj(vec![]));

        let doc = Json::parse(&m.to_json().render()).expect("manifest parses");
        let reports = doc.get("reports").unwrap().as_arr().unwrap();
        assert!(reports[0].get("native").is_none(), "sim rows carry none");
        assert_eq!(
            reports[1]
                .get("native")
                .and_then(|n| n.get("walks_per_sec"))
                .and_then(Json::as_f64),
            Some(123456.0)
        );
    }
}
