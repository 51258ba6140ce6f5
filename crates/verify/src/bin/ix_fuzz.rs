//! Seeded swarm fuzzer for the differential verification subsystem.
//!
//! Generates random cases across three families and checks each against
//! its reference oracle:
//!
//! - **ix** — IX-cache scenarios (random geometry × index shape × op
//!   mix), differentially checked against the snapshot spec oracle, the
//!   history oracle and — for ample cases — translation invariance;
//! - **baseline** — address/X-Cache traces vs independent LRU
//!   references, and FA-OPT vs the Belady sanity oracle;
//! - **design** — design-model runs whose event traces must reconstruct
//!   their statistics.
//!
//! Failing IX scenarios are shrunk to a minimal repro and written to the
//! corpus directory as JSON; `cargo test -p metal-verify` replays the
//! corpus forever after. The run is fully determined by `--seed`, so CI
//! failures reproduce locally with the same flags.
//!
//! With `--mutate` the IX arms draw from the CRUD swarm instead: op
//! sequences interleave range invalidations (node-span, partial and
//! all-level) with inserts and probes, arming the stale-hit and
//! definitely-live retention checks of the mutation-aware oracle.
//!
//! With `--backend native` the whole swarm turns into native-backend
//! differential cases: seeded CRUD request streams run through the
//! simulator (itself verified against the spec/history oracles) and the
//! native paged-node executor, with every semantic outcome diffed.
//! Failures shrink to `native-seed*.json` corpus repros.
//!
//! The native swarm sweeps the MLP window width per case (`mlp_width ∈
//! {1, 2, 4, 8}`), so pipelined scout interleavings are fuzzed by
//! default; `--mlp-width N` pins every case to one width instead.
//!
//! ```text
//! ix_fuzz [--cases N] [--seed S] [--corpus-dir DIR] [--budget-secs T]
//!         [--mutate] [--backend sim|native] [--mlp-width N]
//! ```
//!
//! An unknown flag, a missing or malformed value or a zero
//! `--mlp-width` exits 2 naming the flag; `--help` prints the usage
//! and exits 0. A run exits 1 when any case failed.

use metal_verify::check::Divergence;
use metal_verify::design::check_designs_case;
use metal_verify::native::gen_native_case;
use metal_verify::refcache::check_baselines_case;
use metal_verify::scenario::gen_scenario;
use metal_verify::shrink::{shrink, Case};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str = "usage: ix_fuzz [--cases N] [--seed S] [--corpus-dir DIR] [--budget-secs T]
               [--mutate] [--backend sim|native] [--mlp-width N]";

struct Args {
    cases: u64,
    seed: u64,
    corpus_dir: String,
    budget_secs: u64,
    mutate: bool,
    native: bool,
    mlp_width: Option<usize>,
}

/// Parses the command line; `Ok(None)` is `--help`. Any other flag, a
/// missing or malformed value, or a zero `--mlp-width` is an error
/// naming the flag.
fn parse_args(argv: impl IntoIterator<Item = String>) -> Result<Option<Args>, String> {
    let mut args = Args {
        cases: 500,
        seed: 1,
        corpus_dir: concat!(env!("CARGO_MANIFEST_DIR"), "/corpus").to_string(),
        budget_secs: 0,
        mutate: false,
        native: false,
        mlp_width: None,
    };
    let mut it = argv.into_iter();
    while let Some(flag) = it.next() {
        let mut val = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        let num = |name: &str, v: String| {
            v.parse::<u64>()
                .map_err(|_| format!("{name}: '{v}' is not a number"))
        };
        match flag.as_str() {
            "--help" => return Ok(None),
            "--cases" => args.cases = num("--cases", val("--cases")?)?,
            "--seed" => args.seed = num("--seed", val("--seed")?)?,
            "--corpus-dir" => args.corpus_dir = val("--corpus-dir")?,
            "--budget-secs" => args.budget_secs = num("--budget-secs", val("--budget-secs")?)?,
            "--mutate" => args.mutate = true,
            "--mlp-width" => match num("--mlp-width", val("--mlp-width")?)? {
                0 => return Err("--mlp-width must be at least 1".into()),
                w => args.mlp_width = Some(w as usize),
            },
            "--backend" => match val("--backend")?.as_str() {
                "sim" => args.native = false,
                "native" => args.native = true,
                other => return Err(format!("--backend: unknown backend '{other}' (sim|native)")),
            },
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(Some(args))
}

/// Runs `check`, folding a panic (e.g. debug overflow or a backend
/// storage failure) into a divergence at op `end`, so the shrinker
/// can minimize it too.
fn guarded(end: usize, check: impl FnOnce() -> Result<(), Divergence>) -> Result<(), Divergence> {
    catch_unwind(AssertUnwindSafe(check)).unwrap_or_else(|p| {
        let what = if let Some(s) = p.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = p.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".into()
        };
        Err(Divergence {
            op: end,
            what: format!("panic: {what}"),
        })
    })
}

/// Checks one case; on a divergence, shrinks it, re-checks the shrunk
/// repro and writes it to the corpus as `{KIND}-seed{seed}.json`.
/// Returns whether the case failed.
fn bank<C: Case>(case: &C, what: &str, seed: u64, corpus_dir: &str) -> bool {
    let check = |c: &C| guarded(c.items().len(), || c.check());
    let Err(d) = check(case) else {
        return false;
    };
    eprintln!("FAIL {what}: {d}");
    let small = shrink(case, |c| check(c).is_err());
    let why = check(&small).expect_err("shrunk case must still fail");
    let path = format!("{corpus_dir}/{}-seed{seed}.json", C::KIND);
    std::fs::create_dir_all(corpus_dir).expect("create corpus dir");
    std::fs::write(&path, small.to_json().render() + "\n").expect("write corpus repro");
    eprintln!(
        "  shrunk {} {items} -> {} {items} ({why}); repro written to {path}",
        case.items().len(),
        small.items().len(),
        items = C::ITEMS,
    );
    true
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(Some(args)) => args,
        Ok(None) => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("ix_fuzz: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let start = Instant::now();
    let mut failures = 0u64;
    let mut ran = 0u64;

    for i in 0..args.cases {
        if args.budget_secs > 0 && start.elapsed().as_secs() >= args.budget_secs {
            eprintln!(
                "ix_fuzz: budget of {}s exhausted after {ran} cases",
                args.budget_secs
            );
            break;
        }
        ran += 1;
        let case_seed = args
            .seed
            .wrapping_add(i.wrapping_mul(0x9e37_79b9_7f4a_7c15));

        // Native swarm: every case is a sim-vs-native differential run
        // (the backend is the subsystem under test; the sim side is
        // covered by the oracle-checked arms of the default swarm).
        if args.native {
            let mut case = gen_native_case(case_seed);
            if let Some(w) = args.mlp_width {
                case.mlp_width = w;
            }
            let what = format!("native case {i} (seed {case_seed})");
            failures += bank(&case, &what, case_seed, &args.corpus_dir) as u64;
            continue;
        }

        // Swarm mix: mostly IX scenarios (the subsystem under test),
        // with baseline and design-accounting sweeps interleaved.
        let (what, verdict) = match i % 8 {
            5 => ("baseline", guarded(0, || check_baselines_case(case_seed))),
            6 => (
                "design",
                guarded(0, || check_designs_case(case_seed, args.mutate)),
            ),
            n => {
                let ample = n % 2 == 0;
                let s = gen_scenario(case_seed, ample, args.mutate);
                let what = format!("ix case {i} (seed {case_seed}, ample {ample})");
                failures += bank(&s, &what, case_seed, &args.corpus_dir) as u64;
                continue;
            }
        };
        if let Err(d) = verdict {
            failures += 1;
            eprintln!("FAIL {what} case {i} (seed {case_seed}): {d}");
        }
    }

    println!(
        "ix_fuzz: {ran} cases, {failures} failures, {:.1}s (seed {})",
        start.elapsed().as_secs_f64(),
        args.seed
    );
    if failures > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
