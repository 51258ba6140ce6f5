//! `analyze` — the one offline reader of `--trace-out` JSONL event
//! traces.
//!
//! [`metal_obs::replay`] parses each line back into its typed event,
//! splits the trace into its (run, design, shard) streams — order
//! matters *within* a stream (reuse distances, regret windows), never
//! across — and feeds each to the same [`metal_obs::StreamAnalyzer`] the
//! in-process sinks use, whose counts are the one
//! [`metal_obs::EventCounts`] reducer behind the manifest's metrics too.
//! `analyze` then prints event counts by kind, the ten hottest IX-cache
//! sets, the short-circuit depths of non-scan hits, the admission /
//! bypass / eviction reason counters, the tuner timeline and, when the
//! trace carries `walk_breakdown` events, the cycle-accounting table;
//! and it writes a schema-tagged, self-validated `ANALYSIS.json`
//! (`metal-analysis-v1`) plus a self-contained HTML report (inline SVG
//! reuse/regret histograms, per-set occupancy heatmap, tuner timeline).
//!
//! With `--manifest <manifest.json>` the miss-taxonomy reference cache
//! is sized from the run's recorded `cache_bytes` argument; otherwise
//! the harness default (64 KiB) is assumed. Native-backend reports in
//! the manifest add a measured-vs-modeled table to the HTML report.
//!
//! `--check-hits` (needs `--manifest`) diffs the per-level non-scan hit
//! counts rebuilt from the trace against the manifest's `hit_levels` —
//! two independent paths through the simulator that must agree exactly
//! — and, when the manifest carries `--metrics-out` event metrics, the
//! whole `metrics` object against the trace's counts rendered by the
//! same function. It reports before anything is written, and a mismatch
//! exits 1. It is a flag because a trace may mix runs under one
//! (workload, design) label (`fig_native`'s sim and native runs).
//!
//! A flight-recorder dump (`--flight-out`) whose rings dropped events
//! holds only the tail of each stream, which cannot satisfy the
//! conservation identities: `analyze` prints the summary sections and
//! the dropped count, states that conservation is not checked, writes
//! nothing and exits 0. `--out`, `--html`, `--check-hits` and
//! `--deny-alerts` need a complete trace and exit 2 on such a dump.
//!
//! With `--epoch SPEC` (`cycles:N` / `walks:M`) every stream is also
//! sliced into deterministic telemetry windows: `analyze` prints a
//! per-epoch table per design, the document gains a window-sum conserved
//! `series` section, and the anomaly watchdogs run over it, appending an
//! `alerts` section when one fires.
//!
//! `analyze --validate <ANALYSIS.json>` instead checks an existing
//! document: schema tag, required per-design sections, and the
//! conservation invariants (ledger retirement, regret verdicts, block
//! classification, window sums). CI uses this as the schema gate.
//! `--deny-alerts` additionally turns a non-empty `alerts` section into
//! a validation failure.
//!
//! The trace is read line by line through [`metal_obs::JsonlReader`] —
//! multi-gigabyte traces replay in constant memory.
//!
//! Exit codes follow the harness-wide table in PERFORMANCE.md: 0 ok,
//! 1 validation or cross-check failure, 2 usage/I-O error or a malformed
//! trace line (named by file and line number).
//!
//! Run: `cargo run -p metal-bench --bin analyze -- trace.jsonl
//!       [--manifest manifest.json [--check-hits]] [--epoch walks:M]`

use metal_bench::{exit, fail};
use metal_obs::breakdown::COMPONENTS;
use metal_obs::watchdog::{analysis_document, scan_analysis, WatchdogConfig};
use metal_obs::{
    render_html_with_measured, replay, validate_analysis, validate_analysis_gated, EventCounts,
    Json, JsonlReader, MeasuredRow, Replay, TraceAnalysis,
};
use metal_sim::epoch::EpochSpec;
use metal_sim::obs::WIDE_SET;
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::process::ExitCode;

/// How many of the hottest IX-cache sets the summary lists.
const TOP_SETS: usize = 10;

fn help() -> ExitCode {
    println!(
        "analyze: summarize and report on a --trace-out JSONL event trace\n\
         \n\
         Usage: analyze <trace.jsonl> [--manifest <manifest.json> [--check-hits]]\n\
         \x20                         [--out <ANALYSIS.json>] [--html <report.html>]\n\
         \x20                         [--epoch <cycles:N|walks:M>] [--deny-alerts]\n\
         \x20      analyze --validate <ANALYSIS.json> [--deny-alerts]\n\
         \n\
         Replays every (run, design, shard) stream of the trace and prints\n\
         event counts by kind, the hottest IX-cache sets, the short-circuit\n\
         depth distribution, admission/eviction reason counters, the tuner\n\
         decision timeline and, when the trace has walk_breakdown events, the\n\
         cycle-accounting table. It folds the entry ledger, reuse-distance\n\
         profiler, miss taxonomy and eviction-regret meter per design and\n\
         writes a schema-tagged ANALYSIS.json (default: ANALYSIS.json next to\n\
         the trace) plus a self-contained HTML report (default: the output\n\
         path with an .html extension). --manifest sizes the taxonomy's\n\
         fully-associative reference from the run's recorded cache_bytes.\n\
         \n\
         --check-hits cross-checks the trace's per-level hit counts and\n\
         event metrics against the --manifest run manifest and exits 1 on\n\
         a mismatch, before writing anything.\n\
         \n\
         A --flight-out dump whose rings dropped events is summarized only:\n\
         conservation is not checked and nothing is written (--out, --html,\n\
         --check-hits and --deny-alerts exit 2 on it).\n\
         \n\
         --epoch slices each stream into deterministic telemetry windows:\n\
         it prints a per-epoch table per design, the document gains a\n\
         per-design 'series' section and the anomaly watchdogs (hit-rate\n\
         collapse, scan storm, regret spike) run over it, appending an\n\
         'alerts' section when one fires. --deny-alerts turns any alert into\n\
         a validation failure (exit 1).\n\
         \n\
         --validate checks an existing ANALYSIS.json instead: schema tag,\n\
         required sections, and conservation invariants (including window\n\
         sums vs whole-run aggregates); exits non-zero on the first\n\
         violation. A malformed trace line exits 2, naming file and line.\n\
         \n\
         Traces, manifests and the analysis schema are documented in\n\
         README.md's Telemetry section and DESIGN.md §8."
    );
    ExitCode::SUCCESS
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: analyze <trace.jsonl> [--manifest <m.json> [--check-hits]] [--out <a.json>]\n\
         \x20              [--html <r.html>] [--epoch <cycles:N|walks:M>] [--deny-alerts]\n\
         \x20      analyze --validate <ANALYSIS.json> [--deny-alerts]"
    );
    ExitCode::from(exit::USAGE_IO as u8)
}

/// Reads and parses a whole JSON document, exiting with context on
/// failure.
fn read_json(path: &PathBuf, what: &str) -> Json {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| fail(format_args!("cannot read {what} {}: {e}", path.display())));
    Json::parse(&text)
        .unwrap_or_else(|e| fail(format_args!("bad JSON in {what} {}: {e}", path.display())))
}

/// Extracts one measured-vs-modeled row per native-backend report in
/// the manifest. The modeled cycle count comes from the paired `:sim`
/// report when the run recorded one under the `fig_native` naming
/// convention (`<design>:sim` / `<design>:native`); other native runs
/// show their measured side alone.
fn measured_rows(manifest: &Json) -> Vec<MeasuredRow> {
    let Some(reports) = manifest.get("reports").and_then(Json::as_arr) else {
        return Vec::new();
    };
    let label = |r: &Json, k: &str| {
        r.get(k)
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_string()
    };
    let mut rows = Vec::new();
    for r in reports {
        let Some(n) = r.get("native") else { continue };
        let stats = |k: &str| {
            r.get("stats")
                .and_then(|s| s.get(k))
                .and_then(Json::as_u64)
                .unwrap_or(0)
        };
        let native = |k: &str| n.get(k).and_then(Json::as_u64).unwrap_or(0);
        let (workload, design) = (label(r, "workload"), label(r, "design"));
        let sim_stats = design.strip_suffix(":native").and_then(|base| {
            let sim = format!("{base}:sim");
            reports
                .iter()
                .find(|s| label(s, "workload") == workload && label(s, "design") == sim)
                .and_then(|s| s.get("stats"))
        });
        let modeled_cycles = sim_stats
            .and_then(|s| s.get("exec_cycles"))
            .and_then(Json::as_u64);
        // The paired sim run's predicted exposed-stall fraction, when
        // its stats carried a cycle breakdown; the measured side is the
        // native run's page-I/O share of wall time.
        let modeled_stall_fraction = sim_stats
            .and_then(|s| s.get("breakdown"))
            .and_then(|b| b.get("stall_fraction"))
            .and_then(Json::as_f64);
        rows.push(MeasuredRow {
            walks: stats("walks"),
            modeled_cycles,
            modeled_node_fetches: stats("dram_node_reads"),
            walks_per_sec: n.get("walks_per_sec").and_then(Json::as_f64).unwrap_or(0.0),
            page_reads: native("page_reads"),
            page_writes: native("page_writes"),
            hot_hits: native("hot_hits"),
            cold_reads: native("cold_reads"),
            modeled_stall_fraction,
            measured_page_io_fraction: n
                .get("page_io_fraction")
                .and_then(Json::as_f64)
                .unwrap_or(0.0),
            workload,
            design,
        });
    }
    rows
}

/// The summary sections over every stream (`total`): counts by kind,
/// hottest sets, short-circuit depths, reason counters and the tuner
/// timeline.
fn print_summary(rep: &Replay, total: &EventCounts) {
    println!();
    println!("## events by kind");
    for (kind, n) in &total.events_by_kind {
        println!("{kind:>16}  {n}");
    }

    println!();
    println!("## top {TOP_SETS} hottest sets by probe count (index, set)");
    let mut sets: Vec<_> = total.probes_by_set.iter().collect();
    sets.sort_by(|a, b| b.1.cmp(a.1).then(a.0.cmp(b.0)));
    for (&(index, set), n) in sets.into_iter().take(TOP_SETS) {
        let label = if set == WIDE_SET {
            "wide".to_string()
        } else {
            set.to_string()
        };
        println!("index {index} set {label:>6}  {n}");
    }

    println!();
    println!("## short-circuit depth distribution (non-scan hits)");
    for (depth, n) in &total.short_circuit_depths {
        println!("skip {depth:>2} levels  {n}");
    }

    println!();
    println!("## admission / eviction reasons");
    for (reason, n) in &total.inserts_by_reason {
        println!("insert {reason:>14}  {n}");
    }
    for (reason, n) in &total.bypasses_by_reason {
        println!("bypass {reason:>14}  {n}");
    }
    for (reason, n) in &total.evictions_by_reason {
        println!("evict  {reason:>14}  {n}");
    }

    let mut tuner: Vec<(u64, String)> = Vec::new();
    for ((run, design, shard), m) in &rep.metrics {
        for d in &m.tuner_decisions {
            tuner.push((
                d.at,
                format!(
                    "at={} run={run} design={design} shard={shard} index={} batch={} {}: {} -> {}",
                    d.at, d.index, d.batch, d.param, d.from, d.to
                ),
            ));
        }
    }
    tuner.sort();
    println!();
    println!("## tuner decision timeline ({} decisions)", tuner.len());
    for (_, line) in &tuner {
        println!("{line}");
    }
}

/// The per-design cycle-accounting table, when any stream carried
/// `walk_breakdown` events.
fn print_breakdown(analysis: &TraceAnalysis) {
    if analysis.designs.values().all(|d| d.breakdown.is_none()) {
        return;
    }
    for (design, d) in &analysis.designs {
        println!();
        let Some(b) = &d.breakdown else {
            println!("## breakdown {design}: trace carries no walk_breakdown events");
            continue;
        };
        println!(
            "## breakdown {design} ({} walks, {} cycles attributed)",
            b.walks, b.latency_total
        );
        println!("{:>10} {:>14} {:>7}", "component", "cycles", "share");
        let total = b.cycles_total().max(1);
        for (name, &cycles) in COMPONENTS.iter().zip(b.cycles.iter()) {
            println!(
                "{name:>10} {cycles:>14} {:>6.1}%",
                100.0 * cycles as f64 / total as f64
            );
        }
        println!("{:>10} {:>14} {:>6.1}%", "total", b.cycles_total(), 100.0);
    }
}

/// The per-epoch table of every windowed design (`--epoch`).
fn print_epochs(analysis: &TraceAnalysis) {
    for (design, d) in &analysis.designs {
        let Some(series) = &d.series else { continue };
        println!();
        println!(
            "## timeline {design} (epoch width {}, {} windows)",
            series.spec.render(),
            series.windows.len()
        );
        println!(
            "{:>8} {:>9} {:>9} {:>7} {:>9} {:>9} {:>9} {:>9} {:>7} {:>7} {:>7}",
            "epoch",
            "walks",
            "probes",
            "hit%",
            "misses",
            "fills",
            "evicts",
            "regret",
            "stall%",
            "comp%",
            "queue%"
        );
        for (epoch, w) in &series.windows {
            let pct = |part: u64, whole: u64| {
                if whole == 0 {
                    "-".to_string()
                } else {
                    format!("{:.1}", 100.0 * part as f64 / whole as f64)
                }
            };
            // Shares of the window's attributed cycles — the same
            // columns the series JSON and breakdown section conserve.
            let share = |comp: &str| pct(w.cycles_of(comp), w.cycles_total());
            println!(
                "{epoch:>8} {:>9} {:>9} {:>7} {:>9} {:>9} {:>9} {:>9} {:>7} {:>7} {:>7}",
                w.walks(),
                w.probes(),
                pct(w.hits_total(), w.probes()),
                w.misses(),
                w.kind("fill"),
                w.evictions_total(),
                w.regretted,
                share("stall"),
                share("compute"),
                share("queue"),
            );
        }
    }
}

/// Cross-checks the trace's per-level non-scan hit counts against the
/// manifest's `hit_levels`, per (workload, design) report. Returns the
/// number of mismatches.
fn check_hits(rep: &Replay, manifest: &Json) -> u64 {
    let Some(reports) = manifest.get("reports").and_then(Json::as_arr) else {
        eprintln!("check-hits: manifest has no reports array");
        return 1;
    };
    let mut by_run: BTreeMap<(&str, &str), BTreeMap<u8, u64>> = BTreeMap::new();
    for ((run, design, _), m) in &rep.metrics {
        let levels = by_run.entry((run, design)).or_default();
        for (&level, &n) in &m.hits_by_level {
            *levels.entry(level).or_insert(0) += n;
        }
    }
    let (mut mismatches, none) = (0, BTreeMap::new());
    for report in reports {
        let label = |k: &str| report.get(k).and_then(Json::as_str).unwrap_or("?");
        let (workload, design) = (label("workload"), label("design"));
        let levels: Vec<u64> = report
            .get("stats")
            .and_then(|s| s.get("hit_levels"))
            .and_then(Json::as_arr)
            .map(|a| a.iter().filter_map(Json::as_u64).collect())
            .unwrap_or_default();
        let traced = by_run.get(&(workload, design)).unwrap_or(&none);
        let depth = levels
            .len()
            .max(traced.keys().next_back().map_or(0, |&l| l as usize + 1));
        for level in 0..depth {
            let want = levels.get(level).copied().unwrap_or(0);
            let got = traced.get(&(level as u8)).copied().unwrap_or(0);
            if want != got {
                mismatches += 1;
                println!(
                    "MISMATCH {workload}/{design} level {level}: manifest {want}, trace {got}"
                );
            }
        }
    }
    if mismatches == 0 {
        println!(
            "check-hits: per-level hit counts match for all {} reports",
            reports.len()
        );
    }
    mismatches
}

/// A `metrics` object flattened to `key/sub` (or bare `key`) → rendered
/// value.
fn flat_metrics(metrics: &Json) -> BTreeMap<String, String> {
    let mut out = BTreeMap::new();
    let Json::Obj(fields) = metrics else {
        return out;
    };
    for (key, v) in fields {
        match v {
            Json::Obj(subs) => out.extend(
                subs.iter()
                    .map(|(sub, n)| (format!("{key}/{sub}"), n.render())),
            ),
            n => {
                out.insert(key.clone(), n.render());
            }
        }
    }
    out
}

/// Cross-checks the trace's event counts (`total`), rendered by the
/// function that writes the manifest's `metrics` object, against that
/// object, key by key (an absent count is 0). Returns the number of
/// mismatches; skips (returning 0) when the manifest has no metrics.
fn check_metrics(total: &EventCounts, manifest: &Json) -> u64 {
    let Some(metrics) = manifest.get("metrics") else {
        println!("check-reasons: manifest has no metrics block (run with --metrics-out); skipped");
        return 0;
    };
    let (want, traced) = (flat_metrics(metrics), flat_metrics(&total.to_json()));
    let keys: BTreeSet<&String> = want.keys().chain(traced.keys()).collect();
    let zero = "0".to_string();
    let mut mismatches = 0;
    for key in keys {
        let (w, t) = (
            want.get(key).unwrap_or(&zero),
            traced.get(key).unwrap_or(&zero),
        );
        if w != t {
            mismatches += 1;
            println!("MISMATCH {key}: manifest {w}, trace {t}");
        }
    }
    if mismatches == 0 {
        println!("check-reasons: admission/bypass/eviction reason counters match the manifest");
    }
    mismatches
}

fn validate_mode(path: &PathBuf, deny_alerts: bool) -> ExitCode {
    let doc = read_json(path, "analysis");
    match validate_analysis_gated(&doc, deny_alerts) {
        Ok(()) => {
            println!(
                "analyze: {} is a valid, conserved metal-analysis document",
                path.display()
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("analyze: INVALID {}: {e}", path.display());
            ExitCode::from(exit::VALIDATION as u8)
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        return help();
    }
    let mut trace_path: Option<PathBuf> = None;
    let mut manifest_path: Option<PathBuf> = None;
    let mut out_path: Option<PathBuf> = None;
    let mut html_path: Option<PathBuf> = None;
    let mut validate_path: Option<PathBuf> = None;
    let mut epoch: Option<EpochSpec> = None;
    let (mut deny_alerts, mut check) = (false, false);
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut path_arg = |flag: &str| match it.next() {
            Some(p) => PathBuf::from(p),
            None => fail(format_args!("{flag} needs a path argument")),
        };
        match arg.as_str() {
            "--manifest" => manifest_path = Some(path_arg("--manifest")),
            "--out" => out_path = Some(path_arg("--out")),
            "--html" => html_path = Some(path_arg("--html")),
            "--validate" => validate_path = Some(path_arg("--validate")),
            "--epoch" => {
                let v = it
                    .next()
                    .unwrap_or_else(|| fail("--epoch needs a spec argument"));
                epoch = Some(
                    EpochSpec::parse(v).unwrap_or_else(|e| fail(format_args!("--epoch {v}: {e}"))),
                );
            }
            "--deny-alerts" => deny_alerts = true,
            "--check-hits" => check = true,
            p if trace_path.is_none() && !p.starts_with('-') => trace_path = Some(PathBuf::from(p)),
            _ => return usage(),
        }
    }

    if let Some(p) = validate_path {
        if trace_path.is_some() {
            return usage();
        }
        return validate_mode(&p, deny_alerts);
    }
    let Some(trace_path) = trace_path else {
        return usage();
    };
    if check && manifest_path.is_none() {
        return usage();
    }

    // The taxonomy's fully-associative reference is sized to the design
    // budget in 64 B blocks; the manifest records the run's actual
    // --cache-kb, the harness default applies otherwise. Native-backend
    // reports in the manifest additionally feed the measured-vs-modeled
    // table of the HTML report.
    let mut manifest: Option<Json> = None;
    let budget_blocks = match &manifest_path {
        Some(p) => {
            let manifest = manifest.insert(read_json(p, "manifest"));
            let field = manifest.get("args").and_then(|a| a.get("cache_bytes"));
            // Manifest args are recorded as strings; accept a plain
            // number too for hand-built manifests.
            field
                .and_then(Json::as_u64)
                .or_else(|| field.and_then(Json::as_str).and_then(|s| s.parse().ok()))
                .unwrap_or_else(|| {
                    fail(format_args!(
                        "manifest {} records no cache_bytes argument",
                        p.display()
                    ))
                }) as usize
                / 64
        }
        None => 64 * 1024 / 64,
    }
    .max(1);
    let measured = manifest.as_ref().map_or(Vec::new(), measured_rows);

    let reader = JsonlReader::open(&trace_path)
        .unwrap_or_else(|e| fail(format_args!("cannot open {}: {e}", trace_path.display())));
    let rep = replay(reader, budget_blocks, epoch)
        .unwrap_or_else(|e| fail(format_args!("{}: {e}", trace_path.display())));
    if rep.events == 0 {
        fail(format_args!(
            "{}: no trace events found",
            trace_path.display()
        ));
    }
    let partial = rep.dropped > 0;
    if partial && (out_path.is_some() || html_path.is_some() || check || deny_alerts) {
        fail(format_args!(
            "{}: a flight dump whose rings dropped {} earlier events holds only \
             stream suffixes; --out, --html, --check-hits and --deny-alerts need \
             a complete trace",
            trace_path.display(),
            rep.dropped
        ));
    }
    let analysis = &rep.analysis;
    println!(
        "analyze: {} events in {} streams across {} designs",
        rep.events,
        rep.metrics.len(),
        analysis.designs.len()
    );
    let mut total = EventCounts::default();
    for m in rep.metrics.values() {
        total.merge(m);
    }
    print_summary(&rep, &total);
    print_breakdown(analysis);
    print_epochs(analysis);
    if partial {
        println!();
        println!(
            "analyze: flight dump dropped {} earlier events; a stream suffix cannot \
             satisfy the conservation identities, so conservation is not checked \
             and no ANALYSIS.json or HTML report is written",
            rep.dropped
        );
        return ExitCode::SUCCESS;
    }
    if check {
        let manifest = manifest
            .as_ref()
            .expect("usage() rejects --check-hits alone");
        println!();
        if check_hits(&rep, manifest) + check_metrics(&total, manifest) > 0 {
            return ExitCode::from(exit::VALIDATION as u8);
        }
    }

    // Watchdogs only see windows, so without --epoch this is a no-op.
    let alerts = scan_analysis(analysis, &WatchdogConfig::default());
    for a in &alerts {
        eprintln!(
            "analyze: ALERT [{}] {} at epoch {}: {}",
            a.design,
            a.kind.as_str(),
            a.epoch,
            a.detail
        );
    }
    let doc = analysis_document(analysis, &alerts);
    if let Err(e) = validate_analysis(&doc) {
        fail(format_args!("analysis failed self-validation: {e}"));
    }
    let out_path = out_path.unwrap_or_else(|| trace_path.with_file_name("ANALYSIS.json"));
    std::fs::write(&out_path, doc.render() + "\n")
        .unwrap_or_else(|e| fail(format_args!("cannot write {}: {e}", out_path.display())));
    let html_path = html_path.unwrap_or_else(|| out_path.with_extension("html"));
    let title = format!(
        "METAL forensics — {}",
        trace_path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| trace_path.display().to_string())
    );
    std::fs::write(
        &html_path,
        render_html_with_measured(analysis, &title, &measured),
    )
    .unwrap_or_else(|e| fail(format_args!("cannot write {}: {e}", html_path.display())));

    println!();
    for (design, d) in &analysis.designs {
        println!(
            "  {design}: taxonomy compulsory={} capacity={} conflict={}, \
             regret {}/{} evictions, {} zero-hit evictions",
            d.taxonomy.compulsory,
            d.taxonomy.capacity,
            d.taxonomy.conflict,
            d.regret.regretted,
            d.regret.evictions,
            d.ledger.zero_hit_evictions
        );
    }
    println!("analyze: wrote {}", out_path.display());
    println!("analyze: wrote {}", html_path.display());
    if deny_alerts && !alerts.is_empty() {
        eprintln!(
            "analyze: {} watchdog alert(s) and --deny-alerts is set",
            alerts.len()
        );
        return ExitCode::from(exit::VALIDATION as u8);
    }
    ExitCode::SUCCESS
}
