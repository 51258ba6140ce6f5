//! The untraced end-to-end pass: every cell of `spec::Cell::all()` timed
//! from outside, closed loop, one thread (two for the sweep), with the
//! correctness checks that make the numbers worth reading.

use crate::spec::{self, Cell, MetricDef, WorkloadSpec, NATIVE_DESIGNS};
use crate::stats::{summarize, Summary};
use metal_bench::figure_designs;
use metal_core::models::{DesignSpec, Experiment};
use metal_core::native::materialize_tree;
use metal_core::request::OpKind;
use metal_core::runner::{run_design, run_designs_parallel, Backend, RunConfig, RunReport};
use metal_index::bptree::BPlusTree;
use metal_index::walk::WalkIndex;
use metal_obs::Json;
use metal_sim::stats::RunStats;
use metal_workloads::BuiltWorkload;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// Samples of `setup_s` per run (each `setups_per_sample` set-ups).
const SETUP_SAMPLES: usize = 5;

/// What one benchmark process hands back to `main` for printing.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Every failed check, in the order found.
    pub errors: Vec<String>,
    pub metrics: Vec<(MetricDef, Summary)>,
    /// Unstructured extras for the detail line (pass count, self times…).
    pub extra: Vec<(String, Json)>,
}

impl Outcome {
    pub fn fail(&mut self, walks: u64, msg: String) {
        eprintln!("FAIL: {msg}");
        self.failed += walks;
        self.errors.push(msg);
    }

    /// Files `values` under catalogue entry `name`.
    pub fn put(&mut self, defs: &[MetricDef], name: &str, s: Summary) {
        let def = defs
            .iter()
            .find(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the catalogue"));
        self.metrics.push((def.clone(), s));
    }
}

/// A built workload plus the designs and run configuration every cell
/// shares.
pub struct Bench {
    pub built: BuiltWorkload,
    designs: Vec<(String, DesignSpec)>,
    cfg: RunConfig,
}

/// One cell executed `calls` times back to back.
pub struct CellRun {
    /// Wall time around all calls, measured here.
    pub elapsed_s: f64,
    /// Executor stopwatch summed over the calls (native cells only).
    pub wall_ns: u64,
    /// Reports of the last call (six for the sweep, else one).
    pub reports: Vec<RunReport>,
}

impl Bench {
    pub fn new(built: BuiltWorkload) -> Bench {
        let designs = figure_designs(&built, spec::CACHE_BYTES);
        let cfg = RunConfig::default().with_shards(1).with_lanes(built.tiles);
        Bench {
            built,
            designs,
            cfg,
        }
    }

    pub fn walks(&self) -> u64 {
        self.built.requests.len() as u64
    }

    pub fn exp(&self) -> Experiment<'_> {
        self.built.experiment()
    }

    pub fn design(&self, name: &str) -> &DesignSpec {
        &self
            .designs
            .iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("figure_designs has no '{name}'"))
            .1
    }

    /// The serial simulator configuration (one worker thread).
    pub fn sim_cfg(&self) -> RunConfig {
        self.cfg.clone()
    }

    pub fn native_cfg(&self, width: usize) -> RunConfig {
        self.cfg
            .clone()
            .with_backend(Backend::Native)
            .with_mlp_width(width)
    }

    /// The first B+tree of the workload (all four have exactly one).
    pub fn tree(&self) -> &BPlusTree {
        self.built.indexes[0]
            .as_bptree()
            .expect("benchmark workloads are B+tree workloads")
    }

    /// Walks one call of `cell` issues.
    pub fn cell_walks(&self, cell: Cell) -> u64 {
        match cell {
            Cell::Sweep6 => self.walks() * self.designs.len() as u64,
            _ => self.walks(),
        }
    }

    /// Runs `cell` `calls` times; a panic inside the code under test
    /// comes back as `Err` so the cell's walks can be counted failed.
    pub fn run_cell(&self, cell: Cell, calls: usize) -> Result<CellRun, String> {
        let exp = self.exp();
        let body = || {
            let mut wall_ns = 0u64;
            let mut reports = Vec::new();
            let t = Instant::now();
            for _ in 0..calls {
                reports = match cell {
                    Cell::Sim(d) => vec![run_design(self.design(d), &exp, &self.cfg)],
                    Cell::Native(d, width) => {
                        let r = run_design(self.design(d), &exp, &self.native_cfg(width));
                        wall_ns += r.native.expect("native runs report metrics").wall_ns;
                        vec![r]
                    }
                    Cell::Sweep6 => {
                        let specs: Vec<DesignSpec> =
                            self.designs.iter().map(|(_, s)| s.clone()).collect();
                        run_designs_parallel(&specs, &exp, &self.cfg.clone().with_shards(2))
                    }
                };
            }
            CellRun {
                elapsed_s: t.elapsed().as_secs_f64(),
                wall_ns,
                reports,
            }
        };
        catch_unwind(AssertUnwindSafe(body)).map_err(|p| {
            let msg = p
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| p.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic".to_string());
            format!("{} panicked: {msg}", cell.metric())
        })
    }
}

/// A thread that spins on the vCPU the single-threaded cells leave idle.
///
/// On the reference container a vCPU that has idled shares a host core
/// with its sibling for seconds after it wakes, and the 2-thread sweep
/// then runs at the speed of one thread (0.64 s against 0.37 s on
/// `where`); which of the two a run saw depended on what the host had
/// done before it. Kept awake, the second vCPU is there when the sweep
/// wants it. The spinner parks while the sweep runs, so no more than two
/// threads are ever runnable, and it is not started on a single CPU.
pub struct KeepWarm {
    /// Both flags publish nothing but themselves, hence `Relaxed`.
    parked: Arc<AtomicBool>,
    stop: Arc<AtomicBool>,
    spinner: Option<JoinHandle<()>>,
}

impl KeepWarm {
    pub fn start() -> KeepWarm {
        let parked = Arc::new(AtomicBool::new(false));
        let stop = Arc::new(AtomicBool::new(false));
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        let spinner = (cpus >= 2).then(|| {
            let (parked, stop) = (parked.clone(), stop.clone());
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    if parked.load(Ordering::Relaxed) {
                        std::thread::park();
                    } else {
                        (0..1024).for_each(|_| std::hint::spin_loop());
                    }
                }
            })
        });
        KeepWarm {
            parked,
            stop,
            spinner,
        }
    }

    /// Runs `f` with the spinner parked.
    pub fn parked<T>(&self, f: impl FnOnce() -> T) -> T {
        self.parked.store(true, Ordering::Relaxed);
        let out = f();
        self.parked.store(false, Ordering::Relaxed);
        if let Some(spinner) = &self.spinner {
            spinner.thread().unpark();
        }
        out
    }
}

impl Drop for KeepWarm {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(spinner) = self.spinner.take() {
            spinner.thread().unpark();
            // The spinner cannot panic; nothing to report from a drop.
            let _ = spinner.join();
        }
    }
}

/// `build` + one `materialize_tree` per index, `k` times back to back;
/// returns seconds per set-up and the last built workload.
fn setup_once(spec: &WorkloadSpec, seed: u64, smoke: bool, k: usize) -> (f64, BuiltWorkload) {
    let scale = spec.scale(seed, smoke);
    let t = Instant::now();
    let mut last = None;
    for _ in 0..k {
        let built = (spec.build)(scale);
        for index in &built.indexes {
            let tree = index.as_bptree().expect("B+tree workload");
            drop(materialize_tree(tree).expect("materialize into the temp dir"));
        }
        last = Some(built);
    }
    (
        t.elapsed().as_secs_f64() / k as f64,
        last.expect("k is at least 1"),
    )
}

/// The `fig_native` outcome columns: what sim and native must agree on.
fn outcome_columns(s: &RunStats) -> ([u64; 10], &[u64]) {
    (
        [
            s.walks,
            s.found_walks,
            s.write_walks,
            s.node_splits,
            s.node_merges,
            s.probes,
            s.misses,
            s.inserts,
            s.bypasses,
            s.entries_invalidated,
        ],
        &s.hit_levels,
    )
}

/// `found_walks` by replaying the request stream against the in-memory
/// trees, writes applied in order.
pub fn replay_found(built: &BuiltWorkload) -> u64 {
    let mut trees: Vec<Option<BPlusTree>> = built
        .indexes
        .iter()
        .map(|i| i.as_bptree().cloned())
        .collect();
    let mut found = 0;
    for req in &built.requests {
        let Some(Some(tree)) = trees.get_mut(req.index as usize) else {
            continue;
        };
        if tree.contains(req.key) {
            found += 1;
        }
        match req.op {
            OpKind::Insert => {
                tree.insert_key(req.key);
            }
            OpKind::Delete => {
                tree.delete_key(req.key);
            }
            OpKind::Select | OpKind::Update => {}
        }
    }
    found
}

/// `VmHWM` of this process so far, in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs the end-to-end benchmark of one workload: set-up samples, one
/// discarded warm-up pass, then timed passes until `seconds` have
/// elapsed (never fewer than `min_passes`).
pub fn run(spec: WorkloadSpec, seed: u64, seconds: f64, smoke: bool) -> Outcome {
    let defs = spec::end_to_end();
    let mut out = Outcome::default();
    let warm = KeepWarm::start();

    let (samples, k, min_passes) = if smoke {
        (spec::SMOKE_PASSES, 1, spec::SMOKE_PASSES)
    } else {
        (SETUP_SAMPLES, spec.setups_per_sample, spec::MIN_PASSES)
    };
    let mut setup = Vec::with_capacity(samples);
    let mut built = None;
    for _ in 0..samples {
        let (s, b) = setup_once(&spec, seed, smoke, k);
        setup.push(s);
        built = Some(b);
    }
    let bench = Bench::new(built.expect("at least one set-up sample"));
    out.put(&defs, "setup_s", summarize(&setup));

    // First RunStats seen per cell; every later pass must reproduce it.
    let mut reference: BTreeMap<String, Vec<RunStats>> = BTreeMap::new();
    let mut timed: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let cells = Cell::all();
    // Pass 0 is the warm-up: one call per cell, checked like the others,
    // never timed, and outside the `seconds` budget.
    let mut started = Instant::now();
    let mut pass = 0usize;
    let mut serial_peak_mib = 0.0;
    loop {
        let mut order: Vec<(Cell, usize)> = cells.iter().copied().zip(spec.calls).collect();
        order.rotate_left(pass % cells.len());
        for (cell, calls) in order {
            // The warm-up pass runs in base order, sweep last: this is
            // the peak of set-up plus the ten single-threaded cells.
            if pass == 0 && cell == Cell::Sweep6 {
                serial_peak_mib = peak_rss_mib();
            }
            let calls = if pass == 0 { 1 } else { calls };
            let walks = bench.cell_walks(cell) * calls as u64;
            out.attempted += walks;
            let run = if cell == Cell::Sweep6 {
                warm.parked(|| bench.run_cell(cell, calls))
            } else {
                bench.run_cell(cell, calls)
            };
            let run = match run {
                Ok(run) => run,
                Err(msg) => {
                    out.fail(walks, msg);
                    continue;
                }
            };
            let name = cell.metric();
            if matches!(cell, Cell::Native(..)) && run.wall_ns as f64 > run.elapsed_s * 1e9 {
                out.fail(
                    walks,
                    format!("{name}: executor wall_ns exceeds the time measured around it"),
                );
                continue;
            }
            match reference.get(&name) {
                None => {
                    let stats = run.reports.into_iter().map(|r| r.stats).collect();
                    reference.insert(name.clone(), stats);
                }
                Some(first) if !first.iter().eq(run.reports.iter().map(|r| &r.stats)) => {
                    out.fail(walks, format!("{name}: RunStats differ between passes"));
                    continue;
                }
                Some(_) => {}
            }
            if pass > 0 {
                let value = match cell {
                    Cell::Sim(_) => walks as f64 / run.elapsed_s,
                    Cell::Native(..) => walks as f64 * 1e9 / run.wall_ns as f64,
                    Cell::Sweep6 => run.elapsed_s / calls as f64,
                };
                timed.entry(name).or_default().push(value);
            }
        }
        if pass == 0 {
            check_outcomes(&bench, &reference, &mut out);
            started = Instant::now();
        }
        pass += 1;
        if pass > min_passes && started.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    out.extra
        .push(("passes".into(), Json::UInt(pass as u64 - 1)));

    let raw = timed
        .iter()
        .map(|(name, values)| {
            let values = values.iter().map(|v| Json::Num(*v)).collect();
            (name.clone(), Json::Arr(values))
        })
        .collect();
    out.extra.push(("samples".into(), Json::Obj(raw)));
    for cell in &cells {
        let name = cell.metric();
        match timed.get(&name) {
            Some(values) => out.put(&defs, &name, summarize(values)),
            // Failed on every pass: already counted; report a zero so
            // the line still carries every metric.
            None => out.put(&defs, &name, Summary::exact(0.0)),
        }
    }
    let cycles = |d: &'static str| {
        reference
            .get(&Cell::Sim(d).metric())
            .map_or(0, |s| s[0].exec_cycles.get())
    };
    let speedup = cycles("stream") as f64 / cycles("metal").max(1) as f64;
    out.put(&defs, "model_speedup.metal", Summary::exact(speedup));
    out.put(&defs, "peak_rss_mb", Summary::exact(serial_peak_mib));
    out.extra
        .push(("peak_rss_mb_at_exit".into(), Json::Num(peak_rss_mib())));
    out
}

/// Cross-cell checks on the warm-up pass's statistics: sim ≡ native per
/// design, width 8 ≡ width 1, sweep ≡ serial, `stream` ≡ replay.
fn check_outcomes(bench: &Bench, reference: &BTreeMap<String, Vec<RunStats>>, out: &mut Outcome) {
    let walks = bench.walks();
    let get = |cell: Cell| reference.get(&cell.metric()).map(|s| &s[0]);
    for d in NATIVE_DESIGNS {
        let (Some(sim), Some(w1), Some(w8)) = (
            get(Cell::Sim(d)),
            get(Cell::Native(d, 1)),
            get(Cell::Native(d, spec::MLP_WIDTH)),
        ) else {
            continue; // a cell panicked; already counted
        };
        if outcome_columns(sim) != outcome_columns(w1) {
            out.fail(
                walks,
                format!(
                    "{d}: sim and native disagree on the outcome columns: {:?} vs {:?}",
                    outcome_columns(sim),
                    outcome_columns(w1)
                ),
            );
        }
        if w1 != w8 {
            out.fail(walks, format!("{d}: native width 8 RunStats != width 1"));
        }
    }
    if let Some(sweep) = reference.get(&Cell::Sweep6.metric()) {
        for (i, (name, _)) in bench.designs.iter().enumerate() {
            let Some(serial) = spec::SIM_DESIGNS
                .iter()
                .find(|d| *d == name)
                .and_then(|d| get(Cell::Sim(d)))
            else {
                continue;
            };
            if sweep.get(i) != Some(serial) {
                out.fail(walks, format!("{name}: 2-thread sweep != serial run"));
            }
        }
    }
    if let Some(stream) = get(Cell::Sim("stream")) {
        let replayed = replay_found(&bench.built);
        if stream.found_walks != replayed {
            out.fail(
                walks,
                format!(
                    "stream found_walks {} != replay against the in-memory tree {replayed}",
                    stream.found_walks
                ),
            );
        }
    }
}
