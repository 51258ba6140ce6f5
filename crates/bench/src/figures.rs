//! The registry of the paper's figures and tables.
//!
//! Each entry of [`FIGURES`] regenerates one table or figure of the
//! paper's evaluation (DESIGN.md §4 maps names to the paper):
//! `fig NAME [flags]` opens a [`Session`] under `NAME`, calls the entry's
//! `run` and finishes the session. Every `run` prints a CSV with a header
//! row to stdout, after `#` comment lines stating the experiment and the
//! paper's expectation.

use crate::{
    by_design, csv_row, exit, f3, fail, figure_designs, run_built, run_design, verify_workload,
    HarnessArgs, Session,
};
use metal_core::models::DesignSpec;
use metal_core::native::{supports_native, BlockFile, PagedTree};
use metal_core::runner::{self, Backend, RunReport};
use metal_core::IxConfig;
use metal_index::walk::{Descend, WalkIndex};
use metal_sim::types::Cycles;
use metal_workloads::crud::uniform_std_v1;
use metal_workloads::drift::drift_hotspot_v1;
use metal_workloads::{BuiltWorkload, Scale, Workload};
use std::path::Path;

/// One regenerable figure or table.
pub struct Figure {
    /// `fig NAME`; also the results file (`results/NAME.csv`) and the
    /// run manifest's `run` label.
    pub name: &'static str,
    /// One line for `fig --help`.
    pub about: &'static str,
    /// Prints the figure, recording every run in the session.
    pub run: fn(&HarnessArgs, &mut Session),
}

/// Every figure `fig` can regenerate, in the paper's order, then the
/// supplemental ones (DESIGN.md §4).
pub const FIGURES: &[Figure] = &[
    Figure {
        name: "table2_setup",
        about: "Table 2: workload setup at the chosen scale",
        run: table2_setup,
    },
    Figure {
        name: "fig15_miss_rate",
        about: "Fig. 15: probe miss rate per design",
        run: fig15_miss_rate,
    },
    Figure {
        name: "fig16_working_set",
        about: "Fig. 16: fraction of the index walked in DRAM",
        run: fig16_working_set,
    },
    Figure {
        name: "fig17_walk_latency",
        about: "Fig. 17: average walk latency, plus a 1 MB FA cache",
        run: fig17_walk_latency,
    },
    Figure {
        name: "fig18_speedup",
        about: "Fig. 18: speedup over the streaming DSA",
        run: fig18_speedup,
    },
    Figure {
        name: "fig19_dram_energy",
        about: "Fig. 19: DRAM energy normalized to streaming",
        run: fig19_dram_energy,
    },
    Figure {
        name: "fig20_breakdown",
        about: "Fig. 20: speedup from IX-cache, patterns, parameters",
        run: fig20_breakdown,
    },
    Figure {
        name: "fig21_occupancy",
        about: "Fig. 21: IX-cache occupancy by index level",
        run: fig21_occupancy,
    },
    Figure {
        name: "fig22_adaptivity",
        about: "Fig. 22: level band chosen by the tuner per window",
        run: fig22_adaptivity,
    },
    Figure {
        name: "fig23_scaling",
        about: "Fig. 23a: walk latency vs record count (JOIN)",
        run: fig23_scaling,
    },
    Figure {
        name: "fig23b_depth",
        about: "Fig. 23b: walk latency vs index depth (JOIN)",
        run: fig23b_depth,
    },
    Figure {
        name: "fig24_design_sweep",
        about: "Fig. 24: tiles x cache size sweep with regions",
        run: fig24_design_sweep,
    },
    Figure {
        name: "fig25_energy",
        about: "Fig. 25: cache energy and on-chip energy breakdown",
        run: fig25_energy,
    },
    Figure {
        name: "table3_summary",
        about: "Table 3: headline ratios, geometric means",
        run: table3_summary,
    },
    Figure {
        name: "abl_geometry",
        about: "Ablation: IX-cache ways x key-block bits",
        run: abl_geometry,
    },
    Figure {
        name: "abl_shared_private",
        about: "Ablation: shared vs per-tile private IX-caches",
        run: abl_shared_private,
    },
    Figure {
        name: "fig_write_sweep",
        about: "Fig. 15/18 metrics across CRUD write ratios",
        run: fig_write_sweep,
    },
    Figure {
        name: "fig_drift_hotspot",
        about: "Drifting hotspot with scan storms (telemetry)",
        run: fig_drift_hotspot,
    },
    Figure {
        name: "fig_native",
        about: "Native vs simulated outcomes, row pair per design",
        run: fig_native,
    },
    Figure {
        name: "fig_mlp",
        about: "Modeled vs measured speedup per MLP width",
        run: fig_mlp,
    },
    Figure {
        name: "fig_breakdown",
        about: "Cycle breakdown per design and MLP width",
        run: fig_breakdown,
    },
];

/// The registry entry called `name`.
pub fn find(name: &str) -> Option<&'static Figure> {
    FIGURES.iter().find(|f| f.name == name)
}

/// Runs `built` under every [`figure_designs`] entry and records each
/// report under `scope`.
fn record_all(
    built: &BuiltWorkload,
    scope: &str,
    args: &HarnessArgs,
    session: &mut Session,
) -> Vec<(String, RunReport)> {
    let reports = run_built(built, args.cache_bytes, session.config(scope));
    for (name, r) in &reports {
        session.record(scope, name, &r.stats);
    }
    reports
}

/// Runs one design over `built` and records the report under `scope`.
fn record_one(
    built: &BuiltWorkload,
    spec: &DesignSpec,
    scope: &str,
    session: &mut Session,
) -> RunReport {
    let report = run_design(built, spec, session.config(scope));
    session.record(scope, &report.design, &report.stats);
    report
}

/// METAL with the workload's Table 2 descriptors, tuned or static.
fn metal(built: &BuiltWorkload, ix: IxConfig, tune: bool) -> DesignSpec {
    DesignSpec::Metal {
        ix,
        descriptors: built.descriptors.clone(),
        tune,
        batch_walks: built.batch_walks,
    }
}

/// The B+tree workloads that exercise the native backend's whole
/// semantic surface: read-mostly analytics, a 30% CRUD mix (splits,
/// merges, invalidations; mutations reset the MLP window) and the
/// drifting hotspot with scan storms. `fig_mlp` sweeps the first two.
const NATIVE_ROSTER: [fn(Scale) -> BuiltWorkload; 3] = [
    |s| Workload::Where.build(s),
    |s| uniform_std_v1(s, 30),
    drift_hotspot_v1,
];

/// The native-capable subset of the figure designs (`stream`,
/// `metal-ix`, `metal`).
fn native_designs(built: &BuiltWorkload, cache_bytes: usize) -> Vec<(String, DesignSpec)> {
    figure_designs(built, cache_bytes)
        .into_iter()
        .filter(|(_, spec)| supports_native(spec))
        .collect()
}

/// Table 2 — Workload setup, as actually built at the chosen scale.
///
/// Prints each workload's index type, size, depth, request count and
/// pattern so the scaled-down setups can be compared against the paper's
/// table. No simulation runs; the session still captures the manifest.
fn table2_setup(args: &HarnessArgs, _: &mut Session) {
    println!("# Table 2: workload setup at the chosen scale");
    csv_row([
        "workload",
        "indexes",
        "depth",
        "index_blocks",
        "walks",
        "pattern",
        "tiles",
    ]);
    for w in Workload::all() {
        let built = w.build(args.scale);
        let exp = built.experiment();
        let pattern = format!("{:?}", built.descriptors[0])
            .split('(')
            .next()
            .unwrap_or("?")
            .to_string();
        csv_row([
            w.name().to_string(),
            built.indexes.len().to_string(),
            exp.max_depth().to_string(),
            exp.total_index_blocks().to_string(),
            built.requests.len().to_string(),
            pattern,
            built.tiles.to_string(),
        ]);
    }
}

/// Fig. 15 — Miss rate: METAL vs X-Cache vs FA-OPT.
///
/// §5.1's first metric. Paper expectation: X-Cache misses 0.6–0.95 on
/// deep indexes (leaves have minimal reuse); FA-OPT is lower but
/// misleading (its hits only save one access each); METAL's probe miss
/// rate is the lowest because cached bands cover the key space.
fn fig15_miss_rate(args: &HarnessArgs, session: &mut Session) {
    println!("# Fig 15: miss rate (lower is better; note §5.1 obs. 2 — miss");
    println!("#   rates are not comparable across organizations: hit/miss paths differ)");
    println!("# paper expectation: x-cache 0.6-0.95; metal lowest");
    csv_row(["workload", "fa-opt", "x-cache", "metal-ix", "metal"]);
    for w in Workload::all() {
        let reports = record_all(&w.build(args.scale), w.name(), args, session);
        let mr = |name: &str| f3(by_design(&reports, name).stats.miss_rate());
        csv_row([
            w.name().to_string(),
            mr("fa-opt"),
            mr("x-cache"),
            mr("metal-ix"),
            mr("metal"),
        ]);
        if args.verify {
            verify_workload(w, args.scale, args.cache_bytes, &args.run_config());
        }
    }
}

/// Fig. 16 — Working-set size: the fraction of the index touched in DRAM.
///
/// Measured as the *walking-region* fraction: DRAM index-node reads
/// relative to the full root-to-leaf touches the streaming DSA performs
/// for the same requests (the paper's Fig. 3 "Work Region" divided by the
/// whole index walk). A secondary column reports the per-window
/// distinct-block footprint. Paper expectation: address/FA-OPT ≈ 0.85,
/// X-Cache ≈ 0.72, METAL ≈ 0.2.
fn fig16_working_set(args: &HarnessArgs, session: &mut Session) {
    println!("# Fig 16: walking-region fraction = DRAM node reads / streaming node reads");
    println!("# paper expectation: address/fa-opt ~0.85, x-cache ~0.72, metal ~0.2");
    csv_row([
        "workload",
        "address",
        "fa-opt",
        "x-cache",
        "metal-ix",
        "metal",
        "metal_window_distinct",
    ]);
    for w in Workload::all() {
        let reports = record_all(&w.build(args.scale), w.name(), args, session);
        let full = reports[0].1.stats.dram_node_reads.max(1) as f64;
        let frac = |i: usize| f3(reports[i].1.stats.dram_node_reads as f64 / full);
        csv_row([
            w.name().to_string(),
            frac(1),
            frac(2),
            frac(3),
            frac(4),
            frac(5),
            f3(reports[5].1.stats.working_set_fraction()),
        ]);
    }
}

/// Fig. 17 — Average walk latency in cycles.
///
/// METAL / X-Cache / FA-OPT at 64 kB, plus a 16×-larger 1 MB
/// fully-associative address cache. Paper expectation: METAL reduces walk
/// latency ~1.5× vs X-Cache and ~1.8× vs FA-OPT; even the 1 MB FA cache
/// is ~20% slower than 64 kB METAL (§5.1 obs. 5–6).
fn fig17_walk_latency(args: &HarnessArgs, session: &mut Session) {
    println!("# Fig 17: average walk latency in cycles (lower is better)");
    println!("# paper expectation: metal < x-cache < fa-opt; fa-1MB still above metal");
    csv_row([
        "workload",
        "fa-opt-64k",
        "x-cache-64k",
        "metal-ix-64k",
        "metal-64k",
        "fa-1mb",
    ]);
    for w in Workload::all() {
        let built = w.build(args.scale);
        let reports = record_all(&built, w.name(), args, session);
        let lat = |i: usize| f3(reports[i].1.stats.avg_walk_latency());
        // The 16×-larger fully-associative address cache. A 1 MB SRAM is
        // physically slower to traverse than a 64 kB one (~sqrt-of-size
        // wire delay): its hierarchy latency scales from 20 to 35 cycles.
        let scope = format!("{}/fa-1mb", w.name());
        let mut cfg = session.config(&scope);
        cfg.sim.hierarchy_hit_latency = Cycles::new(35);
        let spec = DesignSpec::FaOpt {
            entries: 1024 * 1024 / 64,
        };
        let big = run_design(&built, &spec, cfg);
        session.record(&scope, &big.design, &big.stats);
        csv_row([
            w.name().to_string(),
            lat(2),
            lat(3),
            lat(4),
            lat(5),
            f3(big.stats.avg_walk_latency()),
        ]);
    }
}

/// Fig. 18 — Speedup: METAL vs X-Cache vs Address vs Stream.
///
/// The paper reports, per workload, end-to-end speedup normalized to the
/// streaming DSA (higher is better), with the shallow -S variants showing
/// METAL ≈ X-Cache. Headline ratios: 7.8× vs streaming, 4.1× vs address,
/// 2.4× vs X-Cache on average.
fn fig18_speedup(args: &HarnessArgs, session: &mut Session) {
    println!("# Fig 18: speedup over the streaming DSA (higher is better)");
    println!("# paper expectation: metal > metal-ix > x-cache/address > stream;");
    println!("#   -S (shallow) variants: metal within ~15% of x-cache");
    csv_row([
        "workload", "address", "fa-opt", "x-cache", "metal-ix", "metal",
    ]);
    for w in Workload::all() {
        let reports = record_all(&w.build(args.scale), w.name(), args, session);
        let stream = by_design(&reports, "stream");
        let speedup = |name: &str| f3(by_design(&reports, name).speedup_vs(stream));
        csv_row([
            w.name().to_string(),
            speedup("address"),
            speedup("fa-opt"),
            speedup("x-cache"),
            speedup("metal-ix"),
            speedup("metal"),
        ]);
        if args.verify {
            verify_workload(w, args.scale, args.cache_bytes, &args.run_config());
        }
    }
}

/// Fig. 19 — Normalized DRAM dynamic energy (lower is better).
///
/// Energy = per-access cost × number of 64 B DRAM accesses, normalized to
/// the streaming DSA. Paper expectation: METAL saves 1.9× vs streaming,
/// 1.7× vs address, 1.6× vs X-Cache; shallow (-S) variants save only
/// 10–15%.
fn fig19_dram_energy(args: &HarnessArgs, session: &mut Session) {
    println!("# Fig 19: DRAM dynamic energy normalized to the streaming DSA");
    println!("# paper expectation: metal lowest; x-cache ~ address; -S variants close");
    csv_row([
        "workload", "address", "fa-opt", "x-cache", "metal-ix", "metal",
    ]);
    for w in Workload::all() {
        let reports = record_all(&w.build(args.scale), w.name(), args, session);
        let stream = reports[0].1.stats.dram_energy_fj.max(1) as f64;
        let e = |i: usize| f3(reports[i].1.stats.dram_energy_fj as f64 / stream);
        csv_row([w.name().to_string(), e(1), e(2), e(3), e(4), e(5)]);
    }
}

/// Fig. 20 — Breakdown of METAL's speedup factors.
///
/// Three configurations over the streaming baseline:
///
/// - **IX** — the IX-cache alone with the hardwired greedy/utility policy,
/// - **Patterns** — descriptors with static Table 2 parameters,
/// - **Params** — descriptors with per-batch dynamic tuning.
///
/// Paper expectation: IX alone gives 3–8× vs streaming; patterns add
/// 1.5–4×; dynamic parameters add a further 10–30%.
fn fig20_breakdown(args: &HarnessArgs, session: &mut Session) {
    let ix = IxConfig::with_capacity_bytes(args.cache_bytes);
    println!("# Fig 20: speedup breakdown vs streaming: IX-only, +patterns, +params");
    println!("# paper expectation: patterns > IX on pattern-friendly workloads;");
    println!("#   params add ~10-30% on drifting workloads");
    csv_row(["workload", "ix", "patterns", "params"]);
    for w in Workload::all() {
        let built = w.build(args.scale);
        let variants = [
            ("stream", DesignSpec::Stream),
            ("ix", DesignSpec::MetalIx { ix }),
            ("patterns", metal(&built, ix, false)),
            ("params", metal(&built, ix, true)),
        ];
        let reports: Vec<RunReport> = variants
            .iter()
            .map(|(variant, spec)| {
                record_one(&built, spec, &format!("{}/{variant}", w.name()), session)
            })
            .collect();
        csv_row([
            w.name().to_string(),
            f3(reports[1].speedup_vs(&reports[0])),
            f3(reports[2].speedup_vs(&reports[0])),
            f3(reports[3].speedup_vs(&reports[0])),
        ]);
    }
}

/// Fig. 21 — IX-cache occupancy by index level, METAL-IX vs METAL.
///
/// What the cache actually holds at the end of a run. Paper expectation:
/// METAL-IX spreads capacity across many levels; METAL concentrates it on
/// the pattern's target levels (mid-band for scans, leaves for SpMM;
/// SpMM-S occupies only levels 1–3 because fibers are 3 levels deep).
fn fig21_occupancy(args: &HarnessArgs, session: &mut Session) {
    println!("# Fig 21: final IX-cache occupancy per index level (entry counts)");
    println!("# paper expectation: metal concentrates on target levels, metal-ix spreads");
    csv_row(["workload", "design", "level", "entries"]);
    for w in Workload::all() {
        for (name, report) in record_all(&w.build(args.scale), w.name(), args, session) {
            for (level, &count) in report.occupancy_by_level.iter().enumerate() {
                if count > 0 {
                    csv_row([
                        w.name().to_string(),
                        name.clone(),
                        level.to_string(),
                        count.to_string(),
                    ]);
                }
            }
        }
    }
}

/// Fig. 22 — Level-pattern adaptivity with parameter tuning.
///
/// The run is split into tuning batches; the plot shows which level band
/// the tuner selected in each window. Paper expectation: the tuned band
/// follows the walks as the query mix drifts, while the static pattern
/// cannot adapt. We use the WHERE workload, whose predicate windows drift
/// (Scan is Table 2's "Random Search", so its optimal band is static —
/// and the tuner correctly holds it still).
fn fig22_adaptivity(args: &HarnessArgs, session: &mut Session) {
    let built = Workload::Where.build(args.scale);
    let spec = DesignSpec::Metal {
        ix: IxConfig::with_capacity_bytes(args.cache_bytes),
        descriptors: built.descriptors.clone(),
        tune: true,
        // Ten windows, as in the paper's 10 M walks / 1 M batches.
        batch_walks: (args.scale.walks / 10).max(1),
    };
    let report = record_one(&built, &spec, "where", session);
    println!("# Fig 22: level band chosen by the tuner per batch window (Where)");
    println!("# paper expectation: the band tracks the walks across windows");
    csv_row(["window", "band_lower", "band_upper"]);
    if let Some(history) = report.band_history.first() {
        for (i, (lower, upper)) in history.iter().enumerate() {
            csv_row([i.to_string(), lower.to_string(), upper.to_string()]);
        }
    }
}

/// Fig. 23a — Cache size vs record count (JOIN).
///
/// The record count grows 10× while the IX-cache is swept 32–256 kB.
/// Paper expectation: METAL adapts to larger databases with only ~15%
/// walk-latency penalty, while METAL-IX degrades faster.
fn fig23_scaling(args: &HarnessArgs, session: &mut Session) {
    println!("# Fig 23a: walk latency vs record count (JOIN), IX-cache 32-256 kB");
    println!("# paper expectation: metal flat-ish with records; metal-ix degrades");
    csv_row(["keys", "design", "cache_kb", "avg_walk_latency"]);
    for mult in [1u64, 2, 5, 10] {
        let scale = args.scale.with_keys(args.scale.keys * mult);
        let built = Workload::Join.build(scale);
        for kb in [32usize, 64, 128, 256] {
            let scope = format!("join/k{}-kb{kb}", scale.keys);
            latency_rows(&built, &scale.keys.to_string(), kb, &scope, session);
        }
    }
}

/// Fig. 23b — Cache size vs index depth (JOIN).
///
/// The index depth grows 10→18 levels. Paper expectation: METAL's walk
/// latency grows ~2×, METAL-IX's ~3×; a 32 kB METAL beats a 256 kB
/// METAL-IX (8× cache-size saving).
fn fig23b_depth(args: &HarnessArgs, session: &mut Session) {
    println!("# Fig 23b: walk latency vs index depth (JOIN); 10->18 levels");
    println!("# paper expectation: metal degrades ~2x, metal-ix ~3x over the sweep");
    csv_row(["depth", "design", "cache_kb", "avg_walk_latency"]);
    for depth in [10u8, 12, 14, 16, 18] {
        let built = Workload::Join.build(args.scale.with_depth(depth));
        for kb in [32usize, 256] {
            let scope = format!("join/d{depth}-kb{kb}");
            latency_rows(&built, &depth.to_string(), kb, &scope, session);
        }
    }
}

/// Runs METAL-IX and METAL on a built JOIN at the given cache size and
/// prints each one's `x,design,cache_kb,avg_walk_latency` row.
fn latency_rows(
    built: &BuiltWorkload,
    x: &str,
    cache_kb: usize,
    scope: &str,
    session: &mut Session,
) {
    let ix = IxConfig::with_capacity_bytes(cache_kb * 1024);
    for spec in [DesignSpec::MetalIx { ix }, metal(built, ix, true)] {
        let report = record_one(built, &spec, scope, session);
        csv_row([
            x,
            spec.label(),
            &cache_kb.to_string(),
            &f3(report.stats.avg_walk_latency()),
        ]);
    }
}

/// Fig. 24 — Design sweep: tiles × IX-cache size, with region
/// classification.
///
/// JOIN, SpMM and RTree swept over 16–128 tiles and 8 kB–256 kB IX-caches,
/// normalized to an 8-tile streaming DSA. Each point is classified:
///
/// - **band-lim** — ≥50% of peak HBM bandwidth consumed,
/// - **cache-lim** — miss rate above 25% (size/policy still matters),
/// - **par-lim** — performance limited by tile count.
///
/// Paper expectation: SpMM saturates at ~16 kB (immediate reuse); JOIN
/// keeps scaling with cache size; RTree is bandwidth-limited with large
/// working sets.
fn fig24_design_sweep(args: &HarnessArgs, session: &mut Session) {
    println!("# Fig 24: normalized speedup vs 8-tile streaming across tiles x cache size");
    println!("# regions: band-lim (>=50% HBM), cache-lim (missrate>25%), par-lim");
    csv_row([
        "workload",
        "tiles",
        "cache_kb",
        "speedup",
        "region",
        "bw_frac",
        "miss_rate",
    ]);
    let dram = metal_sim::SimConfig::default().dram;
    let peak = (dram.channels as u64 * dram.bytes_per_cycle) as f64;
    for w in [Workload::Join, Workload::SpMM, Workload::RTree] {
        let built = w.build(args.scale);
        let exp = built.experiment();
        // The sweep sets the tile count itself, so it runs the designs
        // on explicit lane counts rather than the workload's own.
        let mut run_on = |tiles: usize, spec: &DesignSpec, scope: &str| {
            let cfg = session.config(scope).with_lanes(tiles);
            let report = runner::run_design(spec, &exp, &cfg);
            session.record(scope, &report.design, &report.stats);
            report
        };
        let base = run_on(8, &DesignSpec::Stream, &format!("{}/t8-stream", w.name()));
        let base_cycles = base.stats.exec_cycles.get().max(1) as f64;
        for tiles in [16usize, 32, 64, 128] {
            for cache_kb in [8usize, 16, 64, 256] {
                let ix = IxConfig::with_capacity_bytes(cache_kb * 1024);
                let scope = format!("{}/t{tiles}-kb{cache_kb}", w.name());
                let report = run_on(tiles, &metal(&built, ix, true), &scope);
                let cycles = report.stats.exec_cycles.get().max(1) as f64;
                // Bandwidth fraction: bytes moved / (cycles × peak B/cy).
                let bw = report.stats.dram_bytes as f64 / (cycles * peak);
                let mr = report.stats.miss_rate();
                let region = if bw >= 0.5 {
                    "band-lim"
                } else if mr > 0.25 {
                    "cache-lim"
                } else {
                    "par-lim"
                };
                csv_row([
                    w.name().to_string(),
                    tiles.to_string(),
                    cache_kb.to_string(),
                    f3(base_cycles / cycles),
                    region.to_string(),
                    f3(bw),
                    f3(mr),
                ]);
            }
        }
        if args.verify {
            verify_workload(w, args.scale, args.cache_bytes, &args.run_config());
        }
    }
}

/// Fig. 25 — Cache energy and on-chip energy breakdown.
///
/// Top: cache dynamic energy per design (per-access cost × accesses) and
/// the access-count reduction relative to the address cache. Paper
/// expectation: METAL's per-access energy is *higher* (9000 fJ range
/// match vs 7000 fJ address match) but it issues 2–4× fewer accesses, so
/// total cache energy is up to 5× lower than address, 3× lower than
/// X-Cache.
///
/// Bottom: on-chip energy split between compute tiles, cache, and
/// walker + pattern controller. Paper expectation: the IX-cache accounts
/// for roughly a third of on-chip energy.
fn fig25_energy(args: &HarnessArgs, session: &mut Session) {
    // Representative workloads from each DSA, as in the paper.
    let representative = [
        Workload::Scan,
        Workload::SpMM,
        Workload::RTree,
        Workload::Join,
    ];
    println!("# Fig 25 top: cache energy (fJ) and access reduction vs address cache");
    csv_row([
        "workload",
        "design",
        "cache_energy_fj",
        "accesses",
        "access_reduction_vs_address",
    ]);
    for w in representative {
        let scope = format!("{}/top", w.name());
        let reports = record_all(&w.build(args.scale), &scope, args, session);
        let addr_accesses = reports[1].1.stats.probes.max(1) as f64;
        for (name, r) in &reports[1..] {
            csv_row([
                w.name().to_string(),
                name.clone(),
                r.stats.cache_energy_fj.to_string(),
                r.stats.probes.to_string(),
                f3(addr_accesses / r.stats.probes.max(1) as f64),
            ]);
        }
    }

    println!();
    println!("# Fig 25 bottom: on-chip energy breakdown for METAL (fractions)");
    csv_row(["workload", "compute", "cache", "walker"]);
    for w in representative {
        let scope = format!("{}/bottom", w.name());
        let reports = record_all(&w.build(args.scale), &scope, args, session);
        let metal = &reports[5].1.stats;
        let total = metal.onchip_energy_fj().max(1) as f64;
        csv_row([
            w.name().to_string(),
            f3(metal.compute_energy_fj as f64 / total),
            f3(metal.cache_energy_fj as f64 / total),
            f3(metal.walker_energy_fj as f64 / total),
        ]);
    }
}

/// Table 3 — Evaluation summary: the paper's headline ratios.
///
/// Geometric means across the workload suite of METAL's speedup and DRAM
/// energy savings against each baseline, plus the IX-cache-only and
/// pattern contributions. Paper numbers for comparison:
///
/// | question                     | paper                          |
/// |------------------------------|--------------------------------|
/// | speedup                      | 7.8× stream, 4.1× addr, 2.4× X |
/// | DRAM energy                  | 1.9× stream, 1.7× addr, 1.6× X |
/// | IX-cache alone               | 5.3× stream, 2.8× addr, 1.6× X |
/// | patterns over METAL-IX       | 1.6–3.7×                       |
fn table3_summary(args: &HarnessArgs, session: &mut Session) {
    let mut speed_stream = Vec::new();
    let mut speed_addr = Vec::new();
    let mut speed_x = Vec::new();
    let mut ix_stream = Vec::new();
    let mut pat_over_ix = Vec::new();
    let mut dram_stream = Vec::new();
    let mut dram_addr = Vec::new();
    let mut dram_x = Vec::new();

    for w in Workload::all() {
        let reports = record_all(&w.build(args.scale), w.name(), args, session);
        let cyc = |i: usize| reports[i].1.stats.exec_cycles.get().max(1) as f64;
        let dram = |i: usize| reports[i].1.stats.dram_energy_fj.max(1) as f64;
        // Order: stream, address, fa-opt, x-cache, metal-ix, metal.
        speed_stream.push(cyc(0) / cyc(5));
        speed_addr.push(cyc(1) / cyc(5));
        speed_x.push(cyc(3) / cyc(5));
        ix_stream.push(cyc(0) / cyc(4));
        pat_over_ix.push(cyc(4) / cyc(5));
        dram_stream.push(dram(0) / dram(5));
        dram_addr.push(dram(1) / dram(5));
        dram_x.push(dram(3) / dram(5));
    }

    println!("# Table 3: headline ratios (geometric means over the suite)");
    csv_row(["metric", "measured", "paper"]);
    csv_row(["speedup_vs_stream", &f3(geomean(&speed_stream)), "7.8"]);
    csv_row(["speedup_vs_address", &f3(geomean(&speed_addr)), "4.1"]);
    csv_row(["speedup_vs_xcache", &f3(geomean(&speed_x)), "2.4"]);
    csv_row(["ixcache_only_vs_stream", &f3(geomean(&ix_stream)), "5.3"]);
    csv_row([
        "patterns_over_metal_ix",
        &f3(geomean(&pat_over_ix)),
        "1.6-3.7",
    ]);
    csv_row(["dram_energy_vs_stream", &f3(geomean(&dram_stream)), "1.9"]);
    csv_row(["dram_energy_vs_address", &f3(geomean(&dram_addr)), "1.7"]);
    csv_row(["dram_energy_vs_xcache", &f3(geomean(&dram_x)), "1.6"]);
}

fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.max(1e-9).ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Ablation — IX-cache geometry sweep (Table 3 supplemental).
///
/// Sweeps associativity and key-block bits for the IX-cache's narrow
/// partition. Paper supplemental: "Best geometry: 16-way. 16 banked."
/// Larger key blocks exacerbate set conflicts (Fig. 8's discussion).
fn abl_geometry(args: &HarnessArgs, session: &mut Session) {
    println!("# Ablation: IX-cache geometry (ways x key-block bits), Where workload");
    println!("# paper supplemental: 16-way is the sweet spot; oversized key");
    println!("#   blocks increase set conflicts");
    csv_row(["ways", "key_block_bits", "miss_rate", "avg_walk_latency"]);
    let built = Workload::Where.build(args.scale);
    for ways in [1usize, 4, 16, 64] {
        for bits in [2u32, 4, 8, 12] {
            let ix = IxConfig {
                entries: (args.cache_bytes / 64).max(16),
                ways,
                key_block_bits: bits,
                wide_fraction: 0.5,
            };
            let scope = format!("where/w{ways}-b{bits}");
            let report = record_one(&built, &metal(&built, ix, false), &scope, session);
            csv_row([
                ways.to_string(),
                bits.to_string(),
                f3(report.stats.miss_rate()),
                f3(report.stats.avg_walk_latency()),
            ]);
        }
    }
}

/// Ablation — shared vs per-tile private IX-caches (Table 3 supplemental).
///
/// The same total capacity either shared by all tiles or sliced into
/// per-tile private caches. Paper supplemental: "Shared vs Private:
/// Shared is best since access every 70-180 cycles" — probes are sparse
/// enough that port contention is negligible, while sharing multiplies
/// the reach of every cached node.
fn abl_shared_private(args: &HarnessArgs, session: &mut Session) {
    let ix = IxConfig::with_capacity_bytes(args.cache_bytes);
    println!("# Ablation: shared vs per-tile private IX-caches, equal total capacity");
    println!("# paper supplemental expectation: shared wins");
    csv_row([
        "workload",
        "shared_exec",
        "private_exec",
        "shared_missrate",
        "private_missrate",
        "shared_advantage",
    ]);
    for w in [
        Workload::Where,
        Workload::Scan,
        Workload::SpMM,
        Workload::Join,
    ] {
        let built = w.build(args.scale);
        let shared = record_one(&built, &metal(&built, ix, false), w.name(), session);
        let private = DesignSpec::MetalPrivate {
            ix,
            descriptors: built.descriptors.clone(),
        };
        let private = record_one(&built, &private, w.name(), session);
        csv_row([
            w.name().to_string(),
            shared.stats.exec_cycles.get().to_string(),
            private.stats.exec_cycles.get().to_string(),
            f3(shared.stats.miss_rate()),
            f3(private.stats.miss_rate()),
            f3(private.stats.exec_cycles.get() as f64
                / shared.stats.exec_cycles.get().max(1) as f64),
        ]);
    }
}

/// Write-ratio sweep — Fig. 15/18 metrics under mutation.
///
/// Runs the `uniform_std_v1` CRUD workload (uniform SELECTs with an
/// even INSERT/UPDATE/DELETE split) at 0/10/25/50% writes and reports,
/// per design, the probe miss rate (Fig. 15's metric), the speedup over
/// streaming (Fig. 18's metric), and the result/structural counters
/// (`found_walks`, `write_walks`, `node_splits`, `node_merges`) that
/// must be identical across designs — a cached design serving a stale
/// `[Lo, Hi]` short-circuit after a split or merge would skew them, so
/// the figure fails on any difference.
///
/// The 0% row is the read-only baseline: it exercises exactly the
/// code path of the read-only figures.
fn fig_write_sweep(args: &HarnessArgs, session: &mut Session) {
    println!("# Write-ratio sweep: uniform_std_v1 CRUD mix, fig15/fig18 metrics per design");
    println!("# found/write/split/merge counters must be identical across designs at");
    println!("#   every ratio (a stale cached short-circuit would skew them)");
    csv_row([
        "write_ratio",
        "design",
        "miss_rate",
        "speedup",
        "found_walks",
        "write_walks",
        "node_splits",
        "node_merges",
    ]);
    for ratio in [0u8, 10, 25, 50] {
        let scope = format!("w{ratio}");
        let reports = record_all(&uniform_std_v1(args.scale, ratio), &scope, args, session);
        let stream = by_design(&reports, "stream");
        for (name, r) in &reports {
            csv_row([
                ratio.to_string(),
                name.clone(),
                f3(r.stats.miss_rate()),
                f3(r.speedup_vs(stream)),
                r.stats.found_walks.to_string(),
                r.stats.write_walks.to_string(),
                r.stats.node_splits.to_string(),
                r.stats.node_merges.to_string(),
            ]);
        }
        let key = |r: &RunReport| {
            let s = &r.stats;
            (s.found_walks, s.write_walks, s.node_splits, s.node_merges)
        };
        let first = key(&reports[0].1);
        for (name, r) in &reports {
            if key(r) != first {
                fail(format_args!(
                    "write ratio {ratio}: design {name} diverges from {}: \
                     {:?} vs {first:?} (stale short-circuit?)",
                    reports[0].0,
                    key(r)
                ));
            }
        }
    }
}

/// Drifting-hotspot telemetry figure — the time-resolved companion to
/// the Table 2 sweeps.
///
/// Runs the `drift_hotspot_v1` workload (a hotspot that jumps across
/// the keyspace, punctuated by periodic scan storms — see
/// `metal_workloads::drift`) under every figure design and prints the
/// usual miss-rate/speedup CSV. The whole-run numbers are deliberately
/// boring: the workload exists to be run with `--epoch`/`--series-out`
/// (or replayed through `analyze --epoch`), where the hotspot
/// jumps and storms show up as per-window hit-rate cliffs and
/// scan-storm watchdog alerts that the aggregates average away.
fn fig_drift_hotspot(args: &HarnessArgs, session: &mut Session) {
    let built = drift_hotspot_v1(args.scale);
    println!("# drifting hotspot with periodic scan storms (telemetry workload)");
    println!("# whole-run aggregates hide the phases; see --epoch/--series-out");
    csv_row(["design", "miss_rate", "walks_per_probe_miss", "dram_bytes"]);
    for (name, r) in record_all(&built, built.name, args, session) {
        let per_miss = if r.stats.misses == 0 {
            "inf".to_string()
        } else {
            f3(r.stats.walks as f64 / r.stats.misses as f64)
        };
        csv_row([
            name,
            f3(r.stats.miss_rate()),
            per_miss,
            r.stats.dram_bytes.to_string(),
        ]);
    }
}

/// The `fig_native` columns after `workload,design,backend`: the
/// semantic outcomes both backends must agree on exactly.
const OUTCOME_COLS: [&str; 11] = [
    "walks",
    "found",
    "write",
    "splits",
    "merges",
    "probes",
    "misses",
    "inserts",
    "bypasses",
    "invalidated",
    "hit_levels",
];

fn outcome_cells(r: &RunReport) -> Vec<String> {
    let hit_levels = if r.stats.hit_levels.is_empty() {
        "-".to_string()
    } else {
        r.stats
            .hit_levels
            .iter()
            .map(|n| n.to_string())
            .collect::<Vec<_>>()
            .join(":")
    };
    vec![
        r.stats.walks.to_string(),
        r.stats.found_walks.to_string(),
        r.stats.write_walks.to_string(),
        r.stats.node_splits.to_string(),
        r.stats.node_merges.to_string(),
        r.stats.probes.to_string(),
        r.stats.misses.to_string(),
        r.stats.inserts.to_string(),
        r.stats.bypasses.to_string(),
        r.stats.entries_invalidated.to_string(),
        hit_levels,
    ]
}

/// Checks the sim and native cells of the `pair` (`workload/design`):
/// on a mismatch, one `BACKEND DIVERGENCE` line per differing outcome
/// column and the exit code `fig_native` ends with.
fn check_pair(pair: &str, sim: &[String], native: &[String]) -> Result<(), (Vec<String>, i32)> {
    let lines: Vec<String> = OUTCOME_COLS
        .iter()
        .zip(sim.iter().zip(native))
        .filter(|(_, (s, n))| s != n)
        .map(|(col, (s, n))| format!("BACKEND DIVERGENCE {pair}: {col} sim={s} native={n}"))
        .collect();
    if lines.is_empty() {
        Ok(())
    } else {
        Err((lines, exit::VALIDATION))
    }
}

/// Measured vs modeled: the native-execution cross-validation figure.
///
/// Runs the native roster (`where`, `uniform_std_v1` at 30% writes,
/// `drift_hotspot_v1`) under every native-capable design through
/// **both** backends, and prints one CSV row per (workload, design,
/// backend) with the semantic outcome counters. The sim and native rows
/// of a pair must be identical: each pair is checked before it is
/// printed, and a divergence exits 1 naming every differing column.
///
/// Measured execution numbers (walks/sec, page faults, hot-map hit
/// split) go to stderr `#`-comments so the CSV stays pinnable; the same
/// numbers reach the run manifest (`--metrics-out`) and `analyze`'s HTML
/// report. The shared `--backend` flag is ignored: this figure's whole
/// job is running both backends side by side.
///
/// Own flags:
///
/// - `--store DIR` — persist each workload's materialized trees as
///   reopenable block files under DIR (out-of-core handoff).
/// - `--load DIR` — reopen the trees stored by `--store` and
///   cross-check walks against freshly built in-memory trees. A
///   corrupted page surfaces as a contextful error and exit 2.
fn fig_native(args: &HarnessArgs, session: &mut Session) {
    if let Some(dir) = &args.store {
        store_trees(dir, args.scale);
    }
    if let Some(dir) = &args.load {
        load_and_rewalk(dir, args.scale);
    }
    if args.store.is_some() || args.load.is_some() {
        return;
    }

    println!("# native execution vs simulation: semantic outcomes must match per row pair");
    println!("# measured throughput/page-fault numbers are on stderr (CSV stays pinnable)");
    let mut header = vec!["workload", "design", "backend"];
    header.extend(OUTCOME_COLS);
    csv_row(header);

    for build in NATIVE_ROSTER {
        let built = build(args.scale);
        for (name, spec) in native_designs(&built, args.cache_bytes) {
            let pair = format!("{}/{name}", built.name);
            let backends = [(Backend::Sim, "sim"), (Backend::Native, "native")];
            let [sim, native] = backends.map(|(backend, tag)| {
                // Entry ids are only unique within one (run, design,
                // shard) trace stream, so the two backends must not
                // share a run label — tag the traced scope while the
                // manifest keeps the plain one for sim/native pairing.
                let cfg = session
                    .config(&format!("{pair}:{tag}"))
                    .with_backend(backend);
                let report = run_design(&built, &spec, cfg);
                session.record_report(&pair, &format!("{name}:{tag}"), &report);
                report
            });
            let cells = [&sim, &native].map(outcome_cells);
            if let Err((lines, code)) = check_pair(&pair, &cells[0], &cells[1]) {
                eprintln!("{}", lines.join("\n"));
                std::process::exit(code);
            }
            for ((_, tag), cells) in backends.into_iter().zip(cells) {
                let mut row = vec![built.name.to_string(), name.clone(), tag.to_string()];
                row.extend(cells);
                csv_row(row);
            }
            if let Some(m) = &native.native {
                eprintln!(
                    "# measured {pair}: {} walks/s, {} page reads, {} page writes, \
                     {} hot-map hits vs {} cold node reads, {} pages ({} free)",
                    f3(m.walks_per_sec()),
                    m.page_reads,
                    m.page_writes,
                    m.hot_hits,
                    m.cold_reads,
                    m.pages,
                    m.free_pages
                );
            }
        }
    }
}

/// For each workload, each B+tree index materialized and persisted as a
/// reopenable block file `DIR/<workload>-<index>.blk`.
fn store_trees(dir: &Path, scale: Scale) {
    std::fs::create_dir_all(dir)
        .unwrap_or_else(|e| fail(format_args!("--store {}: {e}", dir.display())));
    for build in NATIVE_ROSTER {
        let built = build(scale);
        for (i, index) in built.indexes.iter().enumerate() {
            let Some(tree) = index.as_bptree() else {
                continue;
            };
            let path = dir.join(format!("{}-{i}.blk", built.name));
            let file = BlockFile::create(&path)
                .unwrap_or_else(|e| fail(format_args!("--store {}: {e}", path.display())));
            let mut paged = PagedTree::materialize(tree, file)
                .unwrap_or_else(|e| fail(format_args!("--store {}: {e}", path.display())));
            paged
                .persist()
                .unwrap_or_else(|e| fail(format_args!("--store {}: {e}", path.display())));
            eprintln!(
                "# stored {}: {} nodes, {} pages",
                path.display(),
                paged.node_count(),
                paged.page_count()
            );
        }
    }
}

/// Reopens every stored tree and cross-checks a key sweep against a
/// freshly built in-memory copy of the same workload. Corruption (or a
/// wrong file) dies with a contextful error and exit 2 via `fail`.
fn load_and_rewalk(dir: &Path, scale: Scale) {
    for build in NATIVE_ROSTER {
        let built = build(scale);
        for (i, index) in built.indexes.iter().enumerate() {
            let Some(tree) = index.as_bptree() else {
                continue;
            };
            let path = dir.join(format!("{}-{i}.blk", built.name));
            let file = BlockFile::open(&path)
                .unwrap_or_else(|e| fail(format_args!("--load {}: {e}", path.display())));
            let mut paged = PagedTree::reopen(file)
                .unwrap_or_else(|e| fail(format_args!("--load {}: {e}", path.display())));
            if paged.len() != tree.len() {
                fail(format_args!(
                    "--load {}: stored tree indexes {} keys, workload build has {}",
                    path.display(),
                    paged.len(),
                    tree.len()
                ));
            }
            // Full scrub first: read every live node so a corrupted page
            // anywhere in the file surfaces deterministically, not only
            // when a walk happens to cross it.
            for id in 0..paged.node_count() as u32 {
                paged.read_node(id).unwrap_or_else(|e| {
                    fail(format_args!("--load {}: scrub: {e}", path.display()))
                });
            }
            // Walk the request keys through the reopened pages; found-ness
            // must match the in-memory walk key by key.
            let mut checked = 0u64;
            for req in built.requests.iter().take(2048) {
                if usize::from(req.index) != i {
                    continue;
                }
                let expect = tree.contains(req.key);
                let (_, leaf) = paged.path_from(paged.root(), req.key).unwrap_or_else(|e| {
                    fail(format_args!(
                        "--load {}: walk {}: {e}",
                        path.display(),
                        req.key
                    ))
                });
                let got = matches!(leaf, Descend::Leaf { found: true, .. });
                if got != expect {
                    fail(format_args!(
                        "--load {}: key {} found={got} on reopened pages, \
                         found={expect} in memory",
                        path.display(),
                        req.key
                    ));
                }
                checked += 1;
            }
            eprintln!(
                "# reopened {}: {} keys re-walked against the in-memory build",
                path.display(),
                checked
            );
        }
    }
    println!("# --load: all stored trees reopened and re-walked successfully");
}

/// Memory-level parallelism sweep: modeled vs measured MLP speedup.
///
/// Sweeps the MLP window width (`--mlp-width`'s axis, 1/2/4/8 walks in
/// flight per worker) over the native-capable designs (`stream`,
/// `metal-ix`, `metal`) on a read-mostly workload (`where`) and a 30%
/// CRUD mix (`uniform_std_v1`, which exercises the window-reset path on
/// mutations), through **both** backends:
///
/// - the **simulator** overlaps each lane's DRAM waits across the
///   window (banked-channel model) and reports the modeled cycle count
///   and speedup per width — those deterministic numbers are the CSV on
///   stdout;
/// - the **native executor** runs the same window as a software
///   pipeline (one architect walk + prefetching scouts, see
///   `metal_core::native`) and reports measured walks/sec per width on
///   stderr `#`-comments, side by side with the modeled speedup. The
///   same measured numbers reach the run manifest (`--metrics-out`) so
///   `analyze` renders the measured-vs-modeled table.
///
/// Semantic outcomes are width-invariant by construction (the
/// `backend_equivalence` suite pins this); the CSV carries the
/// found/probe/miss counters so a golden also catches any width that
/// changes semantics. Width 1 is the serial baseline every other
/// width's speedup is computed against.
fn fig_mlp(args: &HarnessArgs, session: &mut Session) {
    println!(
        "# MLP window sweep: modeled cycles/speedup per width (semantics are width-invariant)"
    );
    println!("# measured native walks/sec per width are on stderr (CSV stays pinnable)");
    csv_row([
        "workload",
        "design",
        "mlp_width",
        "exec_cycles",
        "modeled_speedup",
        "found",
        "probes",
        "misses",
    ]);

    for build in &NATIVE_ROSTER[..2] {
        let built = build(args.scale);
        for (name, spec) in native_designs(&built, args.cache_bytes) {
            let mut serial_sim: Option<RunReport> = None;
            let mut serial_wps = 0.0f64;
            for width in [1usize, 2, 4, 8] {
                let scope = format!("{}/{name}@w{width}", built.name);
                // As in fig_native: the two backends must not share a
                // traced run label (entry ids are only unique within
                // one trace stream), so the configs get tagged scopes
                // while the manifest pairs on the plain one.
                let cfg = session
                    .config(&format!("{scope}:sim"))
                    .with_mlp_width(width);
                let sim = run_design(&built, &spec, cfg);
                session.record_report(&scope, &format!("{name}@w{width}:sim"), &sim);
                let serial = serial_sim.get_or_insert_with(|| sim.clone());
                let modeled = sim.speedup_vs(serial);
                csv_row([
                    built.name.to_string(),
                    name.clone(),
                    width.to_string(),
                    sim.stats.exec_cycles.get().to_string(),
                    f3(modeled),
                    sim.stats.found_walks.to_string(),
                    sim.stats.probes.to_string(),
                    sim.stats.misses.to_string(),
                ]);

                let ncfg = session
                    .config(&format!("{scope}:native"))
                    .with_mlp_width(width)
                    .with_backend(Backend::Native);
                let native = run_design(&built, &spec, ncfg);
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
}

/// Cycle-accounting sweep: where do the walk cycles go, per design?
///
/// Runs the six standard figure designs over the native roster (`where`,
/// a 30% CRUD mix and the drifting hotspot) at MLP widths 1 and 8, and
/// prints one CSV row per (workload, design, width) decomposing every
/// simulated cycle into the five attribution components:
///
/// - `ix_probe` — cache SRAM probe latency,
/// - `compute`  — walker compute (node scan, tag match),
/// - `queue`    — waiting for the walker FSM or an SRAM port,
/// - `stall`    — DRAM fetch stall left exposed on the critical path,
/// - `hidden`   — DRAM wait overlapped under sibling compute (0 at w1).
///
/// All columns are exact integers, so the CSV is pinnable. Before
/// printing, each row is checked against the conservation identity —
/// the five components must sum exactly to the run's total walk latency
/// — and the figure exits 1 on any violation, making the sweep itself a
/// gate over the engine's cycle accounting.
///
/// For the native-capable designs (`stream`, `metal-ix`, `metal`) the
/// same runs also execute on the native backend; the measured page-I/O
/// fraction (the native analogue of modeled DRAM stall) is reported on
/// stderr `#`-comments and reaches the run manifest, where `analyze`
/// renders it side by side with the modeled stall fraction.
fn fig_breakdown(args: &HarnessArgs, session: &mut Session) {
    println!("# cycle breakdown per (workload, design, MLP width): integer cycles, pinnable");
    println!("# conservation is enforced per row: components sum to the total walk latency");
    csv_row([
        "workload",
        "design",
        "width",
        "walks",
        "ix_probe_cycles",
        "compute_cycles",
        "queue_cycles",
        "stall_cycles",
        "hidden_cycles",
        "total_cycles",
    ]);

    for build in NATIVE_ROSTER {
        let built = build(args.scale);
        for (name, spec) in figure_designs(&built, args.cache_bytes) {
            // Serial (no overlap, `hidden` must be 0) and the widest
            // standard window.
            for width in [1usize, 8] {
                let scope = format!("{}/{name}@w{width}", built.name);
                let cfg = session
                    .config(&format!("{scope}:sim"))
                    .with_mlp_width(width);
                let sim = run_design(&built, &spec, cfg);
                let b = &sim.stats.breakdown;
                // The hard identity this figure gates: every cycle of
                // every walk is attributed to exactly one component.
                let latency_total = sim.stats.walk_latency.total();
                if b.total() != latency_total || (width == 1 && b.hidden_cycles != 0) {
                    eprintln!(
                        "fig_breakdown: CONSERVATION VIOLATION {scope}: components sum \
                         to {} cycles ({} hidden), walk latencies total {latency_total}",
                        b.total(),
                        b.hidden_cycles
                    );
                    std::process::exit(exit::VALIDATION);
                }
                session.record_report(&scope, &format!("{name}@w{width}:sim"), &sim);
                csv_row([
                    built.name.to_string(),
                    name.clone(),
                    width.to_string(),
                    sim.stats.walks.to_string(),
                    b.ix_probe_cycles.to_string(),
                    b.compute_cycles.to_string(),
                    b.queue_cycles.to_string(),
                    b.stall_cycles.to_string(),
                    b.hidden_cycles.to_string(),
                    b.total().to_string(),
                ]);
                eprintln!(
                    "# modeled {scope}: {:.1}% DRAM stall exposed, {:.1}% hidden by MLP",
                    100.0 * b.stall_fraction(),
                    100.0 * b.hidden_cycles as f64 / b.total().max(1) as f64
                );

                if supports_native(&spec) {
                    let ncfg = session
                        .config(&format!("{scope}:native"))
                        .with_mlp_width(width)
                        .with_backend(Backend::Native);
                    let native = run_design(&built, &spec, ncfg);
                    session.record_report(&scope, &format!("{name}@w{width}:native"), &native);
                    if let Some(m) = &native.native {
                        eprintln!(
                            "# measured {scope}: {} walks/s, {:.1}% of wall time in \
                             page reads (vs {:.1}% modeled stall)",
                            f3(m.walks_per_sec()),
                            100.0 * m.page_io_fraction(),
                            100.0 * b.stall_fraction()
                        );
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique() {
        for (i, f) in FIGURES.iter().enumerate() {
            assert!(
                FIGURES[..i].iter().all(|g| g.name != f.name),
                "{} registered twice",
                f.name
            );
        }
        assert!(find("nope").is_none());
    }

    #[test]
    fn outcome_cells_fill_every_column_and_a_forged_cell_diverges() {
        let scale = Scale::ci().with_keys(512).with_walks(64);
        let built = uniform_std_v1(scale, 30);
        let (_, spec) = native_designs(&built, 64 * 1024).remove(0);
        let cells = outcome_cells(&run_design(&built, &spec, Default::default()));
        assert_eq!(cells.len(), OUTCOME_COLS.len());
        assert_eq!(check_pair("crud/stream", &cells, &cells), Ok(()));
        let mut forged = cells.clone();
        forged[1] = format!("{}9", forged[1]);
        assert_eq!(
            check_pair("crud/stream", &cells, &forged),
            Err((
                vec![format!(
                    "BACKEND DIVERGENCE crud/stream: found sim={} native={}",
                    cells[1], forged[1]
                )],
                exit::VALIDATION
            ))
        );
    }
}
