//! # metal-bench — the harness that regenerates the paper's figures
//!
//! [`figures::FIGURES`] registers one entry per table or figure of the
//! paper's evaluation (see DESIGN.md's experiment index), and the `fig`
//! binary runs one of them by name: `fig NAME [flags]`. This library
//! holds the registry and what its entries share: the flags
//! ([`HarnessArgs`]), the observability [`Session`], the workload ×
//! design sweep and CSV output.
//!
//! Output convention: every figure prints a CSV with a header row to
//! stdout, prefixed by `#`-comment lines describing the experiment and
//! the paper's expectation, so the harness output is both human-checkable
//! and machine-parsable.

pub mod figures;
pub mod micro;

use metal_core::models::DesignSpec;
use metal_core::native::NativeMetrics;
use metal_core::runner::{self, Backend, ObsConfig, RunConfig, RunReport, DEFAULT_SHARD_WALKS};
use metal_core::IxConfig;
use metal_obs::manifest::RunManifest;
use metal_obs::watchdog::{analysis_document, scan_analysis, WatchdogConfig};
use metal_obs::Json;
use metal_obs::{
    render_html, validate_analysis, AnalysisRegistry, ChromeTraceSink, ChromeTraceWriter,
    FlightRecorder, JsonlSink, JsonlWriter, MetricsRegistry, DEFAULT_FLIGHT_CAPACITY,
};
use metal_sim::epoch::EpochSpec;
use metal_sim::obs::{shared, EventSink, MultiSink};
use metal_sim::stats::RunStats;
use metal_workloads::{BuiltWorkload, Scale, Workload};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// Process exit codes shared by the harness binaries (`fig`,
/// `analyze`). The full table is documented in
/// PERFORMANCE.md.
pub mod exit {
    /// Success.
    pub const OK: i32 = 0;
    /// A validation gate failed (conservation, `--check-hits`,
    /// `--deny-alerts`, forged-input detection).
    pub const VALIDATION: i32 = 1;
    /// Usage or I/O error: bad flags, unreadable/unwritable paths,
    /// malformed trace lines ([`crate::fail`] exits with this).
    pub const USAGE_IO: i32 = 2;
}

/// Prints a contextful error and exits with [`exit::USAGE_IO`]. The
/// harness uses this for user-facing I/O and parse failures (bad
/// paths, unreadable input) where a panic's backtrace would bury the
/// actual problem; internal invariant violations still panic.
pub fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(exit::USAGE_IO);
}

/// The flags of `fig NAME [flags]`: the ones every figure shares, plus
/// `fig_native`'s `--store DIR` / `--load DIR`.
#[derive(Debug, Clone)]
pub struct HarnessArgs {
    /// Dataset/run scale.
    pub scale: Scale,
    /// Cache capacity in bytes for every design (paper default: 64 kB).
    pub cache_bytes: usize,
    /// Simulation worker threads (`0` = all available cores). Seeds from
    /// the `METAL_SHARDS` environment variable; `--shards N` overrides.
    /// Never changes results, only wall-clock time.
    pub shards: usize,
    /// Logical-shard grain (`--shard-walks N`). The default (unbounded)
    /// keeps the serial single-engine methodology; a finite grain opts
    /// into partitioned-accelerator semantics and *changes results* (see
    /// `metal_core::runner`'s module docs).
    pub shard_walks: u64,
    /// `--trace-out PATH`: write a JSONL event trace to PATH and a
    /// Chrome `trace_event` export next to it (`PATH` with a
    /// `.chrome.json` extension). Observe-only; CSV output is unchanged.
    pub trace_out: Option<PathBuf>,
    /// `--metrics-out PATH`: write a run-manifest JSON (configuration,
    /// seed, git revision, wall clock, full per-design statistics and
    /// aggregated event metrics) to PATH.
    pub metrics_out: Option<PathBuf>,
    /// `--analyze-out PATH`: run the in-process forensic analyzers
    /// (entry ledger, reuse-distance profile, miss taxonomy, eviction
    /// regret) and write a schema-tagged `ANALYSIS.json` to PATH plus a
    /// self-contained HTML report next to it (PATH with an `.html`
    /// extension). Observe-only; CSV output is unchanged.
    pub analyze_out: Option<PathBuf>,
    /// `--verify`: after each workload, re-run a subsample of it through
    /// `metal-verify`'s reference accounting cross-check (observe-only;
    /// diagnostics go to stderr and the CSV on stdout is unchanged).
    /// Aborts the binary on any divergence.
    pub verify: bool,
    /// `--epoch SPEC`: slice telemetry into deterministic windows
    /// (`cycles:N` / `walks:M` / bare integer = walks) for the analysis
    /// series, watchdogs and heartbeat. Observe-only.
    pub epoch: Option<EpochSpec>,
    /// `--series-out PATH`: write the per-epoch window series as a
    /// standalone schema-tagged JSON document (requires `--epoch`).
    pub series_out: Option<PathBuf>,
    /// `--flight-out PATH`: keep a fixed-size flight-recorder ring of
    /// recent raw events per design and dump it (trace JSONL) to PATH on
    /// panic, on a watchdog alert, or at session end.
    pub flight_out: Option<PathBuf>,
    /// `--backend sim|native`: execution backend. `sim` (default) models
    /// the walks on the cycle-level simulator; `native` executes them
    /// against paged B+tree storage and measures wall-clock/page I/O.
    /// Both agree exactly on semantic outcomes; the native backend
    /// supports the lane-shared designs (`stream`, `metal-ix`, `metal`).
    pub backend: Backend,
    /// `--mlp-width N`: memory-level-parallelism window — how many walks
    /// each worker keeps in flight (default 1 = serial). The simulator
    /// overlaps that many DRAM waits per lane; the native backend runs
    /// the same window as a software-pipelined prefetch scheduler.
    /// Semantic outcomes are width-invariant; only timing (sim) and
    /// measured throughput / I/O attribution (native) change.
    pub mlp_width: usize,
    /// `--store DIR`: `fig_native` persists its trees under DIR.
    pub store: Option<PathBuf>,
    /// `--load DIR`: `fig_native` reopens the trees stored under DIR.
    pub load: Option<PathBuf>,
}

/// The `METAL_SHARDS` worker-count override, `0` (= all cores) when the
/// variable is unset or unparsable.
pub fn env_shards() -> usize {
    std::env::var("METAL_SHARDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

impl Default for HarnessArgs {
    fn default() -> Self {
        HarnessArgs {
            scale: Scale::bench(),
            cache_bytes: 64 * 1024,
            shards: env_shards(),
            shard_walks: DEFAULT_SHARD_WALKS,
            trace_out: None,
            metrics_out: None,
            analyze_out: None,
            verify: false,
            epoch: None,
            series_out: None,
            flight_out: None,
            backend: Backend::Sim,
            mlp_width: 1,
            store: None,
            load: None,
        }
    }
}

impl HarnessArgs {
    /// Parses the flags after `fig NAME`:
    ///
    /// - `--scale ci|bench|paper`
    /// - `--keys N`, `--walks N`, `--depth N` (at most 255), `--seed N`
    /// - `--cache-kb N`
    /// - `--shards N` (worker threads; 0 = all cores; also settable via
    ///   `METAL_SHARDS`)
    /// - `--shard-walks N` (logical-shard grain; opt-in, changes the
    ///   simulated machine model; 0 = unbounded default)
    /// - `--trace-out PATH` (JSONL event trace + Chrome export)
    /// - `--metrics-out PATH` (run-manifest JSON)
    /// - `--analyze-out PATH` (forensic `ANALYSIS.json` + HTML report)
    /// - `--verify` (subsampled reference cross-check per workload)
    /// - `--epoch SPEC`, `--series-out PATH` (needs `--epoch`),
    ///   `--flight-out PATH`
    /// - `--backend sim|native`, `--mlp-width N` (at least 1)
    /// - `--store DIR`, `--load DIR` (`fig_native` only; `fig` rejects
    ///   them for any other figure)
    ///
    /// Any other flag, a missing or malformed value, or an out-of-range
    /// number is an error naming the flag.
    pub fn parse_from(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut out = HarnessArgs::default();
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--scale" => {
                    out.scale = match next_str(&mut it, "--scale")?.as_str() {
                        "ci" => Scale::ci(),
                        "bench" => Scale::bench(),
                        "paper" => Scale::paper(),
                        other => return Err(format!("unknown scale '{other}' (ci|bench|paper)")),
                    };
                }
                "--keys" => out.scale.keys = next_u64(&mut it, "--keys")?,
                "--walks" => out.scale.walks = next_u64(&mut it, "--walks")?,
                "--depth" => {
                    let depth = next_u64(&mut it, "--depth")?;
                    out.scale.depth = u8::try_from(depth)
                        .map_err(|_| format!("--depth {depth} is out of range (0-255)"))?;
                }
                "--seed" => out.scale.seed = next_u64(&mut it, "--seed")?,
                "--cache-kb" => {
                    let kb = next_u64(&mut it, "--cache-kb")?;
                    out.cache_bytes = usize::try_from(kb)
                        .ok()
                        .and_then(|kb| kb.checked_mul(1024))
                        .ok_or_else(|| format!("--cache-kb {kb} overflows a byte count"))?;
                }
                "--shards" => out.shards = next_usize(&mut it, "--shards")?,
                "--shard-walks" => {
                    out.shard_walks = match next_u64(&mut it, "--shard-walks")? {
                        0 => DEFAULT_SHARD_WALKS,
                        n => n,
                    }
                }
                "--trace-out" => out.trace_out = Some(next_str(&mut it, "--trace-out")?.into()),
                "--metrics-out" => {
                    out.metrics_out = Some(next_str(&mut it, "--metrics-out")?.into())
                }
                "--analyze-out" => {
                    out.analyze_out = Some(next_str(&mut it, "--analyze-out")?.into())
                }
                "--verify" => out.verify = true,
                "--epoch" => {
                    let v = next_str(&mut it, "--epoch")?;
                    out.epoch =
                        Some(EpochSpec::parse(&v).map_err(|e| format!("--epoch {v}: {e}"))?);
                }
                "--series-out" => out.series_out = Some(next_str(&mut it, "--series-out")?.into()),
                "--flight-out" => out.flight_out = Some(next_str(&mut it, "--flight-out")?.into()),
                "--backend" => {
                    out.backend = match next_str(&mut it, "--backend")?.as_str() {
                        "sim" => Backend::Sim,
                        "native" => Backend::Native,
                        other => return Err(format!("unknown backend '{other}' (sim|native)")),
                    };
                }
                "--mlp-width" => {
                    out.mlp_width = match next_usize(&mut it, "--mlp-width")? {
                        0 => return Err("--mlp-width must be at least 1".into()),
                        w => w,
                    }
                }
                "--store" => out.store = Some(next_str(&mut it, "--store")?.into()),
                "--load" => out.load = Some(next_str(&mut it, "--load")?.into()),
                flag => return Err(format!("unknown flag '{flag}' (see fig --help)")),
            }
        }
        if out.series_out.is_some() && out.epoch.is_none() {
            return Err(
                "--series-out requires --epoch (the series is windowed by definition)".into(),
            );
        }
        Ok(out)
    }

    /// The execution half of these arguments as a [`RunConfig`] (worker
    /// threads + shard grain). Lanes are workload-specific, so
    /// [`run_built`]/[`run_design`] fill them in per workload.
    pub fn run_config(&self) -> RunConfig {
        RunConfig::default()
            .with_shards(self.shards)
            .with_shard_walks(self.shard_walks.max(1))
            .with_backend(self.backend)
            .with_mlp_width(self.mlp_width.max(1))
    }
}

fn next_str(it: &mut impl Iterator<Item = String>, flag: &str) -> Result<String, String> {
    it.next().ok_or_else(|| format!("{flag} needs an argument"))
}

fn next_u64(it: &mut impl Iterator<Item = String>, flag: &str) -> Result<u64, String> {
    let v = next_str(it, flag)?;
    v.parse()
        .map_err(|_| format!("{flag} needs a numeric argument, got '{v}'"))
}

fn next_usize(it: &mut impl Iterator<Item = String>, flag: &str) -> Result<usize, String> {
    let v = next_u64(it, flag)?;
    usize::try_from(v).map_err(|_| format!("{flag} {v} is out of range"))
}

/// Heartbeat period from `METAL_HEARTBEAT_SECS` (default 5; 0 disables).
fn heartbeat_period() -> Option<Duration> {
    let secs = std::env::var("METAL_HEARTBEAT_SECS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(5);
    (secs > 0).then(|| Duration::from_secs(secs))
}

/// Background stderr progress reporter; exits when its `Session` drops
/// the channel sender.
struct Heartbeat {
    stop: Option<mpsc::Sender<()>>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Heartbeat {
    fn spawn(
        run: String,
        scope: Arc<Mutex<String>>,
        progress: Arc<AtomicU64>,
        epoch_gauge: Option<Arc<AtomicU64>>,
        stall_cycles: Arc<AtomicU64>,
        total_cycles: Arc<AtomicU64>,
        period: Duration,
    ) -> Self {
        let (tx, rx) = mpsc::channel::<()>();
        let handle = std::thread::spawn(move || {
            let started = Instant::now();
            let mut last_walks = 0u64;
            let mut last_stall = 0u64;
            let mut last_total = 0u64;
            let mut last_beat = Instant::now();
            while let Err(mpsc::RecvTimeoutError::Timeout) = rx.recv_timeout(period) {
                // Long sessions run many scoped batches back to back;
                // without the active scope the heartbeat can't say
                // *which* workload/design the session is stuck in.
                let scope = scope.lock().map(|s| s.clone()).unwrap_or_default();
                let at = if scope.is_empty() {
                    run.clone()
                } else {
                    format!("{run}:{scope}")
                };
                let walks = progress.load(Ordering::Relaxed);
                let dt = last_beat.elapsed().as_secs_f64().max(1e-9);
                let rate = (walks.saturating_sub(last_walks)) as f64 / dt;
                last_walks = walks;
                last_beat = Instant::now();
                // Same observe-only gauge discipline as the walk
                // counter: the engines add exposed-stall and attributed
                // cycles as walks retire, the beat reports the delta's
                // stall share since the previous beat.
                let stall_now = stall_cycles.load(Ordering::Relaxed);
                let total_now = total_cycles.load(Ordering::Relaxed);
                let d_total = total_now.saturating_sub(last_total);
                let stall = if d_total > 0 {
                    let d_stall = stall_now.saturating_sub(last_stall);
                    format!(
                        ", {:.1}% DRAM stall since last beat",
                        100.0 * d_stall as f64 / d_total as f64
                    )
                } else {
                    String::new()
                };
                last_stall = stall_now;
                last_total = total_now;
                let epoch = epoch_gauge
                    .as_ref()
                    .map(|g| format!(", epoch {}", g.load(Ordering::Relaxed)))
                    .unwrap_or_default();
                eprintln!(
                    "# [{at}] heartbeat: {walks} walks simulated, \
                     {rate:.0} walks/s since last beat{stall}, {:.0}s elapsed{epoch}",
                    started.elapsed().as_secs_f64()
                );
            }
        });
        Heartbeat {
            stop: Some(tx),
            handle: Some(handle),
        }
    }
}

impl Drop for Heartbeat {
    fn drop(&mut self) {
        drop(self.stop.take()); // disconnects the channel → thread exits
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// Per-figure observability session: owns the trace writers, metrics
/// registry, run manifest and heartbeat configured by [`HarnessArgs`],
/// and hands out [`RunConfig`]s wired to them.
///
/// Usage pattern (the `fig` binary opens and finishes the session, the
/// figure in between runs and records):
///
/// ```ignore
/// let mut session = Session::new("fig20_breakdown", &args);
/// let report = run_design(&built, &spec, session.config("spmm/ix"));
/// session.record("spmm/ix", &report.design, &report.stats);
/// session.finish();
/// ```
///
/// With neither `--trace-out` nor `--metrics-out` the sink factory is
/// absent and simulations run exactly as without a session (only the
/// progress counter is attached, which no statistic reads).
pub struct Session {
    run: String,
    args: HarnessArgs,
    manifest: RunManifest,
    started: Instant,
    jsonl: Option<Arc<JsonlWriter>>,
    chrome: Option<Arc<ChromeTraceWriter>>,
    chrome_path: Option<PathBuf>,
    registry: Option<Arc<MetricsRegistry>>,
    analysis: Option<Arc<AnalysisRegistry>>,
    flight: Option<Arc<FlightRecorder>>,
    progress: Arc<AtomicU64>,
    /// Highest epoch any analyzer has entered (heartbeat's gauge).
    epoch_gauge: Arc<AtomicU64>,
    /// Cumulative exposed DRAM-stall cycles across the session's runs
    /// (heartbeat's stall-fraction numerator; observe-only).
    stall_cycles: Arc<AtomicU64>,
    /// Cumulative attributed walk cycles (the fraction's denominator).
    total_cycles: Arc<AtomicU64>,
    /// The most recent [`Session::config`] scope, shown by the heartbeat.
    hb_scope: Arc<Mutex<String>>,
    _heartbeat: Option<Heartbeat>,
}

impl Session {
    /// Opens a session for figure `run`, creating the output files named
    /// by `args` up front (so path errors surface before simulating).
    pub fn new(run: &str, args: &HarnessArgs) -> Session {
        let mut manifest = RunManifest::new(run);
        manifest.arg("scale_keys", args.scale.keys);
        manifest.arg("scale_walks", args.scale.walks);
        manifest.arg("scale_depth", args.scale.depth);
        manifest.arg("seed", args.scale.seed);
        manifest.arg("cache_bytes", args.cache_bytes);
        manifest.arg("shards", args.shards);
        manifest.arg("shard_walks", args.shard_walks);
        if let Some(epoch) = args.epoch {
            manifest.arg("epoch", epoch.render());
        }
        if args.backend == Backend::Native {
            manifest.arg("backend", "native");
        }
        if args.mlp_width > 1 {
            manifest.arg("mlp_width", args.mlp_width);
        }

        let jsonl = args.trace_out.as_ref().map(|p| {
            JsonlWriter::create(p)
                .unwrap_or_else(|e| fail(format_args!("--trace-out {}: {e}", p.display())))
        });
        let chrome_path = args
            .trace_out
            .as_ref()
            .map(|p| p.with_extension("chrome.json"));
        let chrome = chrome_path.as_ref().map(|_| ChromeTraceWriter::new());
        let registry = args.metrics_out.as_ref().map(|_| MetricsRegistry::new());
        let analysis = (args.analyze_out.is_some() || args.series_out.is_some())
            .then(|| AnalysisRegistry::windowed((args.cache_bytes / 64).max(1), args.epoch));
        let flight = args
            .flight_out
            .as_ref()
            .map(|_| FlightRecorder::new(DEFAULT_FLIGHT_CAPACITY));
        if let (Some(rec), Some(path)) = (&flight, &args.flight_out) {
            // Panic-path dump: chain onto the existing hook so the
            // default backtrace still prints, then flush the ring.
            let rec = Arc::clone(rec);
            let path = path.clone();
            let prev = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                prev(info);
                match rec.dump_to(&path) {
                    Ok(()) => eprintln!("# panic: dumped flight recorder to {}", path.display()),
                    Err(e) => eprintln!("# panic: flight dump {}: {e}", path.display()),
                }
            }));
        }

        let progress = Arc::new(AtomicU64::new(0));
        let epoch_gauge = Arc::new(AtomicU64::new(0));
        let stall_cycles = Arc::new(AtomicU64::new(0));
        let total_cycles = Arc::new(AtomicU64::new(0));
        let hb_scope = Arc::new(Mutex::new(String::new()));
        let heartbeat = heartbeat_period().map(|period| {
            Heartbeat::spawn(
                run.to_string(),
                hb_scope.clone(),
                progress.clone(),
                args.epoch.map(|_| epoch_gauge.clone()),
                stall_cycles.clone(),
                total_cycles.clone(),
                period,
            )
        });

        Session {
            run: run.to_string(),
            args: args.clone(),
            manifest,
            started: Instant::now(),
            jsonl,
            chrome,
            chrome_path,
            registry,
            analysis,
            flight,
            progress,
            epoch_gauge,
            stall_cycles,
            total_cycles,
            hb_scope,
            _heartbeat: heartbeat,
        }
    }

    /// The scope label the heartbeat currently reports (the argument of
    /// the most recent [`Session::config`] call).
    pub fn active_scope(&self) -> String {
        self.hb_scope.lock().map(|s| s.clone()).unwrap_or_default()
    }

    /// A [`RunConfig`] for one simulation batch, wired to this session's
    /// sinks. `scope` labels the batch in traces and manifests (use
    /// `"workload"` or `"workload/variant"`); pass the same scope to
    /// [`Session::record`] so `analyze --check-hits` can match trace
    /// events to manifest reports.
    pub fn config(&self, scope: &str) -> RunConfig {
        if let Ok(mut s) = self.hb_scope.lock() {
            *s = scope.to_string();
        }
        let mut obs = ObsConfig {
            sink_factory: None,
            progress: Some(self.progress.clone()),
            stall_cycles: Some(self.stall_cycles.clone()),
            total_cycles: Some(self.total_cycles.clone()),
        };
        if self.jsonl.is_some()
            || self.registry.is_some()
            || self.analysis.is_some()
            || self.flight.is_some()
        {
            let jsonl = self.jsonl.clone();
            let chrome = self.chrome.clone();
            let registry = self.registry.clone();
            let analysis = self.analysis.clone();
            let flight = self.flight.clone();
            let epoch_gauge = self.epoch_gauge.clone();
            let scope = scope.to_string();
            obs.sink_factory = Some(Arc::new(move |ctx| {
                let mut sinks: Vec<Box<dyn EventSink>> = Vec::new();
                if let Some(w) = &jsonl {
                    sinks.push(Box::new(JsonlSink::new(
                        w.clone(),
                        &scope,
                        &ctx.design,
                        ctx.shard,
                    )));
                }
                if let Some(c) = &chrome {
                    sinks.push(Box::new(ChromeTraceSink::new(
                        c.clone(),
                        &ctx.design,
                        ctx.shard,
                    )));
                }
                if let Some(r) = &registry {
                    sinks.push(Box::new(r.sink()));
                }
                if let Some(a) = &analysis {
                    sinks.push(Box::new(
                        a.sink_with_gauge(&ctx.design, epoch_gauge.clone()),
                    ));
                }
                if let Some(f) = &flight {
                    sinks.push(Box::new(f.sink(&ctx.design, ctx.shard)));
                }
                (!sinks.is_empty()).then(|| shared(MultiSink::new(sinks)))
            }));
        }
        self.args.run_config().with_obs(obs)
    }

    /// Adds one simulated (scope, design) result to the manifest.
    pub fn record(&mut self, scope: &str, design: &str, stats: &RunStats) {
        self.manifest.push_report(scope, design, stats);
    }

    /// Adds one (scope, design) result *with* its measured native
    /// metrics when the report carries them (native-backend runs), so
    /// `analyze` can render measured walks/sec and page-I/O behaviour
    /// side by side with the modeled numbers. Identical to
    /// [`Session::record`] for simulator reports.
    pub fn record_report(&mut self, scope: &str, design: &str, report: &RunReport) {
        self.record(scope, design, &report.stats);
        if let Some(m) = &report.native {
            self.manifest
                .attach_native(scope, design, native_metrics_json(m));
        }
    }
}

/// Serializes measured native-execution metrics as the manifest's
/// `reports[].native` object (`analyze` consumes this schema for the
/// measured-vs-modeled report table).
pub fn native_metrics_json(m: &NativeMetrics) -> Json {
    Json::Obj(vec![
        ("wall_ns".into(), Json::UInt(m.wall_ns)),
        ("walks".into(), Json::UInt(m.walks)),
        ("walks_per_sec".into(), Json::Num(m.walks_per_sec())),
        ("page_reads".into(), Json::UInt(m.page_reads)),
        ("page_writes".into(), Json::UInt(m.page_writes)),
        ("hot_hits".into(), Json::UInt(m.hot_hits)),
        ("cold_reads".into(), Json::UInt(m.cold_reads)),
        ("node_writes".into(), Json::UInt(m.node_writes)),
        ("pages".into(), Json::UInt(m.pages)),
        ("free_pages".into(), Json::UInt(m.free_pages)),
        // Scoped phase timers — independent gauges, not a partition of
        // wall_ns; `page_io_fraction` is the measured analogue of the
        // simulator's modeled DRAM-stall fraction.
        ("page_read_ns".into(), Json::UInt(m.page_read_ns)),
        ("decode_ns".into(), Json::UInt(m.decode_ns)),
        ("ix_probe_ns".into(), Json::UInt(m.ix_probe_ns)),
        ("node_scan_ns".into(), Json::UInt(m.node_scan_ns)),
        ("mutation_ns".into(), Json::UInt(m.mutation_ns)),
        ("staging_ns".into(), Json::UInt(m.staging_ns)),
        ("page_io_fraction".into(), Json::Num(m.page_io_fraction())),
    ])
}

impl Session {
    /// Closes the session: stops the heartbeat, stamps the wall clock,
    /// runs the watchdogs over the window series and writes the Chrome
    /// export, manifest, analysis, series and flight dump (each when
    /// requested).
    pub fn finish(mut self) {
        self.manifest.wall_clock_secs = self.started.elapsed().as_secs_f64();
        self.manifest.metrics = self.registry.as_ref().map(|r| r.snapshot());
        let analysis = self.analysis.as_ref().map(|reg| reg.snapshot());
        // Watchdogs run over whatever series the analyzers windowed;
        // without --epoch there are no windows and no alerts.
        let alerts = analysis
            .as_ref()
            .map(|a| scan_analysis(a, &WatchdogConfig::default()))
            .unwrap_or_default();
        for a in &alerts {
            eprintln!(
                "# ALERT [{}] {} at epoch {}: {}",
                a.design,
                a.kind.as_str(),
                a.epoch,
                a.detail
            );
        }
        self.manifest.alerts = alerts.clone();
        if let (Some(chrome), Some(path)) = (&self.chrome, &self.chrome_path) {
            if let Err(e) = chrome.save(path) {
                eprintln!("# warning: chrome trace {}: {e}", path.display());
            } else {
                eprintln!("# wrote chrome trace: {}", path.display());
            }
        }
        if let Some(p) = &self.args.trace_out {
            eprintln!("# wrote event trace: {}", p.display());
        }
        if let Some(p) = &self.args.metrics_out {
            if let Err(e) = self.manifest.save(p) {
                eprintln!("# warning: manifest {}: {e}", p.display());
            } else {
                eprintln!("# wrote run manifest: {}", p.display());
            }
        }
        if let (Some(p), Some(analysis)) = (&self.args.series_out, &analysis) {
            match analysis.series_json() {
                Some(doc) => {
                    if let Err(e) = std::fs::write(p, doc.render() + "\n") {
                        fail(format_args!("--series-out {}: {e}", p.display()));
                    }
                    eprintln!("# wrote telemetry series: {}", p.display());
                }
                None => eprintln!(
                    "# warning: --series-out {}: no windows recorded (nothing simulated?)",
                    p.display()
                ),
            }
        }
        if let (Some(p), Some(analysis)) = (&self.args.analyze_out, &analysis) {
            let doc = analysis_document(analysis, &alerts);
            // The validator runs on our own output so an accounting bug
            // (including window-sum conservation) fails the producing
            // run, not just a later CI check. Alerts are data here; only
            // `analyze --deny-alerts` turns them into failures.
            if let Err(e) = validate_analysis(&doc) {
                fail(format_args!("--analyze-out self-validation: {e}"));
            }
            if let Err(e) = std::fs::write(p, doc.render() + "\n") {
                fail(format_args!("--analyze-out {}: {e}", p.display()));
            }
            eprintln!("# wrote forensic analysis: {}", p.display());
            let html_path = p.with_extension("html");
            let html = render_html(analysis, &format!("METAL forensics — {}", self.run));
            if let Err(e) = std::fs::write(&html_path, html) {
                fail(format_args!("--analyze-out {}: {e}", html_path.display()));
            }
            eprintln!("# wrote forensic report: {}", html_path.display());
        }
        if let (Some(p), Some(rec)) = (&self.args.flight_out, &self.flight) {
            // Session end is the on-demand dump; an alert above makes
            // the same dump the anomaly post-mortem.
            if let Err(e) = rec.dump_to(p) {
                fail(format_args!("--flight-out {}: {e}", p.display()));
            }
            let why = if alerts.is_empty() {
                "session end"
            } else {
                "watchdog alert"
            };
            eprintln!("# wrote flight recorder ({why}): {}", p.display());
        }
    }
}

/// The set of designs most figures compare, sized to `cache_bytes` and
/// configured with the workload's Table 2 descriptors.
pub fn figure_designs(built: &BuiltWorkload, cache_bytes: usize) -> Vec<(String, DesignSpec)> {
    let entries = (cache_bytes / 64).max(16);
    let ix = IxConfig::with_capacity_bytes(cache_bytes);
    vec![
        ("stream".into(), DesignSpec::Stream),
        ("address".into(), DesignSpec::Address { entries, ways: 16 }),
        ("fa-opt".into(), DesignSpec::FaOpt { entries }),
        ("x-cache".into(), DesignSpec::XCache { entries, ways: 16 }),
        ("metal-ix".into(), DesignSpec::MetalIx { ix }),
        (
            "metal".into(),
            DesignSpec::Metal {
                ix,
                descriptors: built.descriptors.clone(),
                tune: true,
                batch_walks: built.batch_walks,
            },
        ),
    ]
}

/// Runs a built workload under all figure designs. `cfg` carries the
/// execution knobs (worker threads, shard grain — see
/// [`HarnessArgs::run_config`]); its lane count is overridden by the
/// workload's tile count.
pub fn run_built(
    built: &BuiltWorkload,
    cache_bytes: usize,
    cfg: RunConfig,
) -> Vec<(String, RunReport)> {
    let exp = built.experiment();
    let cfg = cfg.with_lanes(built.tiles);
    let (names, specs): (Vec<String>, Vec<DesignSpec>) =
        figure_designs(built, cache_bytes).into_iter().unzip();
    let reports = runner::run_designs_parallel(&specs, &exp, &cfg);
    names.into_iter().zip(reports).collect()
}

/// Runs a built workload under one design, on the workload's tile
/// count as in [`run_built`].
pub fn run_design(built: &BuiltWorkload, spec: &DesignSpec, cfg: RunConfig) -> RunReport {
    runner::run_design(spec, &built.experiment(), &cfg.with_lanes(built.tiles))
}

/// The `--verify` cross-check for one workload: rebuilds it at a
/// subsampled scale (bounded keys/walks, same seed and structure) and
/// runs every figure design through `metal-verify`'s reference
/// accounting model — observation must not perturb statistics, the
/// event trace must reconstruct them, and non-IX designs must emit no
/// IX events. Observe-only: nothing is written to stdout, so figure
/// CSVs are byte-identical with and without `--verify`.
///
/// Aborts (panics) on the first divergence: a figure produced from a
/// diverging simulator is worthless, so there is nothing sensible to
/// continue with.
pub fn verify_workload(workload: Workload, scale: Scale, cache_bytes: usize, cfg: &RunConfig) {
    let sub = scale
        .with_keys(scale.keys.min(8_000))
        .with_walks(scale.walks.min(1_000));
    let built = workload.build(sub);
    let exp = built.experiment();
    let cfg = cfg.clone().with_lanes(built.tiles);
    for (name, spec) in figure_designs(&built, cache_bytes) {
        if let Err(d) = metal_verify::design::check_design(&spec, &exp, &cfg) {
            panic!(
                "--verify: {}/{name} diverged from the reference accounting model: {d}",
                workload.name()
            );
        }
    }
    eprintln!(
        "# verify: {} cross-checked against the reference model (all designs, {} walks)",
        workload.name(),
        sub.walks
    );
}

/// Prints a CSV row, comma-separated, no trailing comma.
pub fn csv_row<S: AsRef<str>>(cells: impl IntoIterator<Item = S>) {
    let row: Vec<String> = cells.into_iter().map(|s| s.as_ref().to_string()).collect();
    println!("{}", row.join(","));
}

fn by_design<'a>(reports: &'a [(String, RunReport)], name: &str) -> &'a RunReport {
    reports
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, r)| r)
        .unwrap_or_else(|| panic!("design '{name}' missing from figure reports"))
}

/// Formats a float to three significant decimals for CSV cells.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<HarnessArgs, String> {
        HarnessArgs::parse_from(s.split_whitespace().map(|s| s.to_string()))
    }

    fn args(s: &str) -> HarnessArgs {
        parse(s).expect("valid flags")
    }

    fn rejected(s: &str, why: &str) {
        let err = parse(s).expect_err(s);
        assert!(err.contains(why), "{s}: error '{err}' does not say '{why}'");
    }

    #[test]
    fn defaults() {
        let a = args("");
        assert_eq!(a.scale, Scale::bench());
        assert_eq!(a.cache_bytes, 64 * 1024);
    }

    #[test]
    fn scale_presets() {
        assert_eq!(args("--scale ci").scale, Scale::ci());
        assert_eq!(args("--scale paper").scale, Scale::paper());
    }

    #[test]
    fn numeric_overrides() {
        let a = args("--scale ci --keys 1000 --walks 500 --depth 6 --seed 3 --cache-kb 32");
        assert_eq!(a.scale.keys, 1000);
        assert_eq!(a.scale.walks, 500);
        assert_eq!(a.scale.depth, 6);
        assert_eq!(a.scale.seed, 3);
        assert_eq!(a.cache_bytes, 32 * 1024);
    }

    #[test]
    fn unknown_flag_rejected() {
        rejected("--frobnicate 7 --keys 10", "unknown flag '--frobnicate'");
        rejected("--scal ci", "unknown flag '--scal'");
        rejected("--store", "--store needs an argument");
        assert_eq!(args("--store a --store b").store, Some("b".into()));
        assert_eq!(args("").load, None);
    }

    #[test]
    fn malformed_numbers_rejected() {
        rejected("--keys x", "--keys needs a numeric argument, got 'x'");
        rejected("--keys", "--keys needs an argument");
        rejected("--depth 300", "--depth 300 is out of range");
        rejected("--cache-kb 18446744073709551615", "overflows");
        assert_eq!(args("--depth 255").scale.depth, 255);
    }

    #[test]
    fn bad_scale_rejected() {
        rejected("--scale huge", "unknown scale");
    }

    #[test]
    fn shard_flags_parse() {
        let a = args("--shards 4 --shard-walks 512");
        assert_eq!(a.shards, 4);
        assert_eq!(a.shard_walks, 512);
        let cfg = a.run_config();
        assert_eq!(cfg.shards, 4);
        assert_eq!(cfg.shard_walks, 512);
        // 0 and absence both mean the unbounded (single-engine) default.
        assert_eq!(args("--shard-walks 0").shard_walks, DEFAULT_SHARD_WALKS);
        assert_eq!(args("").shard_walks, DEFAULT_SHARD_WALKS);
    }

    #[test]
    fn backend_flag_parses() {
        assert_eq!(args("").backend, Backend::Sim);
        assert_eq!(args("--backend sim").backend, Backend::Sim);
        assert_eq!(args("--backend native").backend, Backend::Native);
        assert_eq!(
            args("--backend native").run_config().backend,
            Backend::Native
        );
    }

    #[test]
    fn bad_backend_rejected() {
        rejected("--backend hardware", "unknown backend");
    }

    #[test]
    fn mlp_width_flag_parses() {
        assert_eq!(args("").mlp_width, 1);
        let a = args("--mlp-width 8");
        assert_eq!(a.mlp_width, 8);
        assert_eq!(a.run_config().mlp_width(), 8);
        assert_eq!(args("").run_config().mlp_width(), 1);
    }

    #[test]
    fn zero_mlp_width_rejected() {
        rejected("--mlp-width 0", "--mlp-width must be at least 1");
    }

    #[test]
    fn analyze_out_flag_parses() {
        let a = args("--analyze-out out/ANALYSIS.json");
        assert_eq!(a.analyze_out, Some(PathBuf::from("out/ANALYSIS.json")));
        assert_eq!(args("").analyze_out, None);
    }

    #[test]
    fn epoch_flags_parse() {
        let a =
            args("--epoch walks:512 --series-out out/SERIES.json --flight-out out/flight.jsonl");
        assert_eq!(a.epoch, Some(EpochSpec::Walks(512)));
        assert_eq!(a.series_out, Some(PathBuf::from("out/SERIES.json")));
        assert_eq!(a.flight_out, Some(PathBuf::from("out/flight.jsonl")));
        assert_eq!(
            args("--epoch cycles:9000").epoch,
            Some(EpochSpec::Cycles(9000))
        );
        assert_eq!(args("").epoch, None);
    }

    #[test]
    fn series_without_epoch_rejected() {
        rejected(
            "--series-out out/SERIES.json",
            "--series-out requires --epoch",
        );
    }

    #[test]
    fn heartbeat_scope_tracks_config_calls() {
        let session = Session::new("test_run", &args(""));
        assert_eq!(session.active_scope(), "");
        let _ = session.config("spmm/ix");
        assert_eq!(session.active_scope(), "spmm/ix");
        let _ = session.config("join/walk");
        assert_eq!(session.active_scope(), "join/walk");
    }

    #[test]
    fn run_one_smoke() {
        let built = Workload::Where.build(Scale::ci().with_keys(2000).with_walks(300));
        let r = run_design(&built, &DesignSpec::Stream, RunConfig::default());
        assert_eq!(r.stats.walks, 300);
    }
}
