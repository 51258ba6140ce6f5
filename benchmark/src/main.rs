//! The repository benchmark (see README.md beside this package).
//!
//! One process measures one workload: `--trace 0` the 14 end-to-end
//! metrics with tracing off, `--trace 1` the per-layer metrics plus the
//! traced layer walk. Without `--workload` the binary runs every
//! workload both ways in child processes and prints the merged result.

mod agree;
mod e2e;
mod layers;
mod spec;
mod stats;
mod suite;
mod trace;

use e2e::Outcome;
use metal_obs::Json;
use std::path::PathBuf;

const USAGE: &str = "\
metal-benchmark: end-to-end and per-layer benchmark of both backends

  metal-benchmark [--seed N] [--seconds S] [--smoke] [--out FILE]
      every workload, untraced then traced, one child process each;
      prints every metric and writes the merged result (default
      benchmark/out/results.json); non-zero exit on any failed check
  metal-benchmark --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
      one workload in this process; the last stdout line is the result
  metal-benchmark --agree A.json B.json
      compare two merged results under the benchmark's own bounds
  metal-benchmark --contract
      print BENCHMARK.json as rendered from the metric catalogue

workloads: where, where_fit, scan, crud30
--smoke: same code, every size / 20, two passes (seconds per run, not minutes)";

/// Exit codes: 0 ok, 1 a correctness / separation / agreement check
/// failed, 2 usage or I/O.
const EXIT_CHECK: i32 = 1;
const EXIT_USAGE: i32 = 2;

fn usage(msg: &str) -> ! {
    eprintln!("metal-benchmark: {msg}\n\n{USAGE}");
    std::process::exit(EXIT_USAGE)
}

/// `benchmark/out`, where traces, merged results and this process's
/// block files go (nothing is written outside the checkout).
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    seed: u64,
    /// `--seconds`; unset means `RUN_SECONDS`, or none beyond the two
    /// passes under `--smoke`.
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    out: Option<PathBuf>,
    agree: Option<(PathBuf, PathBuf)>,
    contract: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        seed: 7,
        ..Args::default()
    };
    let mut it = std::env::args().skip(1);
    let value = |it: &mut dyn Iterator<Item = String>, flag: &str| {
        it.next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "--workload" => args.workload = Some(value(&mut it, "--workload")),
            "--seed" => {
                args.seed = value(&mut it, "--seed")
                    .parse()
                    .unwrap_or_else(|_| usage("--seed takes a non-negative integer"))
            }
            "--seconds" => {
                let s = value(&mut it, "--seconds")
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .unwrap_or_else(|| usage("--seconds takes a non-negative number"));
                args.seconds = Some(s)
            }
            "--trace" => {
                args.trace = match value(&mut it, "--trace").as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            "--smoke" => args.smoke = true,
            "--out" => args.out = Some(PathBuf::from(value(&mut it, "--out"))),
            "--agree" => {
                let a = PathBuf::from(value(&mut it, "--agree"));
                let b = PathBuf::from(value(&mut it, "--agree"));
                args.agree = Some((a, b));
            }
            "--contract" => args.contract = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => usage(&format!("unknown argument '{other}'")),
        }
    }
    args
}

/// Prints one run's metrics by name with unit, then the detail line the
/// suite parses, then the contract's result line (last).
fn emit(workload: &str, trace: bool, out: &Outcome) {
    for (def, s) in &out.metrics {
        println!(
            "{:<56} {:>16.6} {:<8} (q1 {:.6} q3 {:.6} n {})",
            def.name, s.median, def.unit, s.q1, s.q3, s.n
        );
    }
    let detail_metrics = out
        .metrics
        .iter()
        .map(|(def, s)| {
            let mut fields = s.to_json_fields();
            fields.push(("unit".into(), Json::str(def.unit)));
            fields.push(("better".into(), Json::str(def.better.as_str())));
            fields.push(("kind".into(), Json::str(def.kind.as_str())));
            if let Some(b) = def.bound {
                fields.push(("bound".into(), Json::Num(b)));
            }
            (def.name.clone(), Json::Obj(fields))
        })
        .collect();
    let mut detail = vec![
        ("workload".to_string(), Json::str(workload)),
        ("trace".to_string(), Json::Bool(trace)),
        ("attempted".to_string(), Json::UInt(out.attempted)),
        ("failed".to_string(), Json::UInt(out.failed)),
        (
            "errors".to_string(),
            Json::Arr(out.errors.iter().map(Json::str).collect()),
        ),
        ("metrics".to_string(), Json::Obj(detail_metrics)),
    ];
    detail.extend(out.extra.iter().cloned());
    println!("#detail {}", Json::Obj(detail).render());

    let metrics = out
        .metrics
        .iter()
        .map(|(def, s)| {
            (
                def.name.clone(),
                Json::Obj(vec![
                    ("value".into(), Json::Num(s.median)),
                    ("unit".into(), Json::str(def.unit)),
                ]),
            )
        })
        .collect();
    let line = Json::Obj(vec![
        ("correct".into(), Json::Bool(out.errors.is_empty())),
        ("attempted".into(), Json::UInt(out.attempted.max(1))),
        ("failed".into(), Json::UInt(out.failed)),
        ("metrics".into(), Json::Obj(metrics)),
    ]);
    println!("{}", line.render());
}

fn main() {
    let args = parse_args();
    if args.contract {
        println!("{}", spec::pretty(&spec::contract()));
        return;
    }
    if let Some((a, b)) = &args.agree {
        std::process::exit(agree::run(a, b));
    }
    let seconds = args.seconds.unwrap_or(if args.smoke {
        0.0
    } else {
        spec::RUN_SECONDS as f64
    });
    let Some(name) = &args.workload else {
        std::process::exit(suite::run(args.seed, seconds, args.smoke, args.out));
    };
    let Some(workload) = spec::workload(name) else {
        usage(&format!("unknown workload '{name}'"));
    };

    // The crates under test put block files under `temp_dir()`; point it
    // into the checkout (before any thread exists) so nothing is written
    // outside, and remove it on the way out.
    let tmp = out_dir().join(format!("tmp-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("metal-benchmark: cannot create {}: {e}", tmp.display());
        std::process::exit(EXIT_USAGE);
    }
    std::env::set_var("TMPDIR", &tmp);

    let out = if args.trace {
        layers::run(workload, args.seed, seconds, args.smoke)
    } else {
        e2e::run(workload, args.seed, seconds, args.smoke)
    };
    let _ = std::fs::remove_dir_all(&tmp);
    emit(workload.name, args.trace, &out);
    if !out.errors.is_empty() {
        std::process::exit(EXIT_CHECK);
    }
}
