//! Memory-level parallelism sweep: modeled vs measured MLP speedup.
//!
//! Sweeps the MLP window width (`--mlp-width`'s axis, 1/2/4/8 walks in
//! flight per worker) over the native-capable designs (`stream`,
//! `metal-ix`, `metal`) on a read-mostly workload (`where`) and a 30%
//! CRUD mix (`uniform_std_v1`, which exercises the window-reset path on
//! mutations), through **both** backends:
//!
//! - the **simulator** overlaps each lane's DRAM waits across the
//!   window (banked-channel model) and reports the modeled cycle count
//!   and speedup per width — those deterministic numbers are the CSV on
//!   stdout, pinned as `tests/goldens/fig_mlp_ci.csv` at ci scale;
//! - the **native executor** runs the same window as a software
//!   pipeline (one architect walk + prefetching scouts, see
//!   `metal_core::native`) and reports measured walks/sec per width on
//!   stderr `#`-comments, side by side with the modeled speedup. The
//!   same measured numbers reach the run manifest (`--metrics-out`) so
//!   `analyze` renders the measured-vs-modeled table.
//!
//! Semantic outcomes are width-invariant by construction (the
//! `backend_equivalence` suite pins this); the CSV carries the
//! found/probe/miss counters so the golden also catches any width that
//! changes semantics.

use metal_bench::{csv_row, f3, fig_mlp_header, fig_mlp_row, HarnessArgs, Session, MLP_WIDTHS};
use metal_core::models::DesignSpec;
use metal_core::native::supports_native;
use metal_core::runner::{run_design, Backend, RunReport};
use metal_workloads::crud::uniform_std_v1;
use metal_workloads::{BuiltWorkload, Scale, Workload};

/// The native-capable subset of the standard figure designs (the MLP
/// engine exists in both backends only for these).
fn native_designs(built: &BuiltWorkload, cache_bytes: usize) -> Vec<(String, DesignSpec)> {
    metal_bench::figure_designs(built, cache_bytes)
        .into_iter()
        .filter(|(_, spec)| supports_native(spec))
        .collect()
}

/// The sweep's workload roster: one read-mostly stream (prefetching
/// scouts run undisturbed) and one CRUD mix (mutations reset the
/// window, the stress case).
fn workloads(scale: Scale) -> Vec<BuiltWorkload> {
    vec![Workload::Where.build(scale), uniform_std_v1(scale, 30)]
}

fn main() {
    let args = HarnessArgs::parse();
    let mut session = Session::new("fig_mlp", &args);
    println!(
        "# MLP window sweep: modeled cycles/speedup per width (semantics are width-invariant)"
    );
    println!("# measured native walks/sec per width are on stderr (CSV stays pinnable)");
    csv_row([fig_mlp_header()]);

    for built in workloads(args.scale) {
        let exp = built.experiment();
        for (name, spec) in native_designs(&built, args.cache_bytes) {
            let mut serial_sim: Option<RunReport> = None;
            let mut serial_wps = 0.0f64;
            for width in MLP_WIDTHS {
                let scope = format!("{}/{name}@w{width}", built.name);
                // As in fig_native: the two backends must not share a
                // traced run label (entry ids are only unique within
                // one trace stream), so the configs get tagged scopes
                // while the manifest pairs on the plain one.
                let cfg = session
                    .config(&format!("{scope}:sim"))
                    .with_lanes(built.tiles)
                    .with_mlp_width(width);
                let sim = run_design(&spec, &exp, &cfg);
                session.record_report(&scope, &format!("{name}@w{width}:sim"), &sim);
                let serial = serial_sim.get_or_insert_with(|| sim.clone());
                let modeled = sim.speedup_vs(serial);
                csv_row([fig_mlp_row(built.name, &name, width, serial, &sim)]);

                let ncfg = session
                    .config(&format!("{scope}:native"))
                    .with_lanes(built.tiles)
                    .with_mlp_width(width)
                    .with_backend(Backend::Native);
                let native = run_design(&spec, &exp, &ncfg);
                session.record_report(&scope, &format!("{name}@w{width}:native"), &native);
                if let Some(m) = &native.native {
                    let wps = m.walks_per_sec();
                    if width == 1 {
                        serial_wps = wps;
                    }
                    eprintln!(
                        "# measured {}/{name}@w{width}: {} walks/s \
                         ({:.3}x vs serial measured, {:.3}x modeled) | \
                         {} nodes prefetched, {} staged hits, {} page reads",
                        built.name,
                        f3(wps),
                        wps / serial_wps.max(1e-9),
                        modeled,
                        m.prefetched,
                        m.staged_hits,
                        m.page_reads
                    );
                }
            }
        }
    }
    session.finish();
}
