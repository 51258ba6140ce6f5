//! Drifting-hotspot telemetry figure — the time-resolved companion to
//! the Table 2 sweeps.
//!
//! Runs the `drift_hotspot_v1` workload (a hotspot that jumps across
//! the keyspace, punctuated by periodic scan storms — see
//! `metal_workloads::drift`) under every figure design and prints the
//! usual miss-rate/speedup CSV. The whole-run numbers are deliberately
//! boring: the workload exists to be run with `--epoch`/`--series-out`
//! (or replayed through `analyze --epoch`), where the hotspot
//! jumps and storms show up as per-window hit-rate cliffs and
//! scan-storm watchdog alerts that the aggregates average away.
//!
//! Run: `cargo run --release -p metal-bench --bin fig_drift_hotspot --
//!       --epoch walks:512 --series-out SERIES.json`

use metal_bench::{csv_row, f3, run_built, HarnessArgs, Session};
use metal_workloads::drift::drift_hotspot_v1;

fn main() {
    let args = HarnessArgs::parse();
    let mut session = Session::new("fig_drift_hotspot", &args);
    let built = drift_hotspot_v1(args.scale);
    println!("# drifting hotspot with periodic scan storms (telemetry workload)");
    println!("# whole-run aggregates hide the phases; see --epoch/--series-out");
    csv_row(["design", "miss_rate", "walks_per_probe_miss", "dram_bytes"]);
    let reports = run_built(&built, args.cache_bytes, session.config(built.name));
    for (name, r) in &reports {
        session.record(built.name, name, &r.stats);
        let per_miss = if r.stats.misses == 0 {
            "inf".to_string()
        } else {
            f3(r.stats.walks as f64 / r.stats.misses as f64)
        };
        csv_row([
            name.clone(),
            f3(r.stats.miss_rate()),
            per_miss,
            r.stats.dram_bytes.to_string(),
        ]);
    }
    session.finish();
}
