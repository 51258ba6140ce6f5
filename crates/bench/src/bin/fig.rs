//! `fig` — regenerates one of the paper's figures or tables by name.
//!
//! `fig NAME [flags]` looks `NAME` up in [`metal_bench::figures::FIGURES`],
//! opens a [`Session`] under that name, runs the figure (CSV on stdout)
//! and finishes the session. `fig --help` lists the figures and the
//! shared flags (`fig NAME --help` too, once `NAME` is known). An
//! unknown figure, an unknown flag or a malformed value exits 2 naming
//! it.
//!
//! Run: `cargo run --release -p metal-bench --bin fig -- fig18_speedup --scale ci`

use metal_bench::figures::{find, FIGURES};
use metal_bench::{fail, HarnessArgs, Session};

fn main() {
    let mut argv = std::env::args().skip(1);
    let name = argv.next().unwrap_or_default();
    let is_help = |a: &str| a == "--help" || a == "-h";
    if is_help(&name) {
        print_usage();
        return;
    }
    let Some(figure) = find(&name) else {
        let names: Vec<&str> = FIGURES.iter().map(|f| f.name).collect();
        fail(format_args!(
            "unknown figure '{name}'; one of: {}",
            names.join(" ")
        ));
    };
    let rest: Vec<String> = argv.collect();
    if rest.iter().any(|a| is_help(a)) {
        print_usage();
        return;
    }
    let args = HarnessArgs::parse_from(rest).unwrap_or_else(|e| fail(format_args!("{name}: {e}")));
    if name != "fig_native" && (args.store.is_some() || args.load.is_some()) {
        fail(format_args!(
            "{name}: --store and --load are fig_native's flags"
        ));
    }
    let mut session = Session::new(figure.name, &args);
    (figure.run)(&args, &mut session);
    session.finish();
}

fn print_usage() {
    println!("usage: fig NAME [flags]\n\nFigures:");
    for f in FIGURES {
        println!("  {:<20} {}", f.name, f.about);
    }
    print!(
        r#"
Shared flags:
  --scale ci|bench|paper   workload scale preset (default: bench)
  --keys N                 override keyspace size
  --walks N                override walk count
  --depth N                override index depth (at most 255)
  --seed N                 override workload RNG seed
  --cache-kb N             IX-cache capacity in KiB (default: 64)
  --shards N               worker threads; 0 = all cores
  --shard-walks N          logical-shard grain (opt-in machine model)
  --trace-out PATH         write a JSONL event trace (+ Chrome export)
  --metrics-out PATH       write a run-manifest JSON
  --analyze-out PATH       write forensic ANALYSIS.json + HTML report
  --verify                 cross-check a subsample against metal-verify
  --epoch SPEC             window telemetry (cycles:N | walks:M | M)
  --series-out PATH        write the per-epoch series JSON (needs --epoch)
  --flight-out PATH        flight-recorder ring, dumped as trace JSONL
  --backend sim|native     execution backend (default: sim); native
                           executes paged B+tree nodes for real
  --mlp-width N            walks kept in flight per worker (default: 1
                           = serial; semantics are width-invariant)

fig_native only:
  --store DIR              persist the materialized trees under DIR
  --load DIR               reopen them and cross-check walks

Any other flag exits 2. Environment: METAL_SHARDS (worker-thread
default), METAL_HEARTBEAT_SECS (progress heartbeat; 0 disables).

DESIGN.md section 4 maps each figure to the paper; the full CLI
reference lives in README.md; how speed is measured (the repository
benchmark, benchmark/run.sh) is in PERFORMANCE.md.
"#
    );
}
