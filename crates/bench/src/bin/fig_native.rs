//! Measured vs modeled: the native-execution cross-validation figure.
//!
//! Runs the three B+tree workloads that exercise the full semantic
//! surface — `where` (read-mostly analytics), `uniform_std_v1` at 30%
//! writes (CRUD: splits, merges, invalidations) and `drift_hotspot_v1`
//! (drifting hotspot + scan storms) — under every native-capable design
//! (`stream`, `metal-ix`, `metal`) through **both** backends, and prints
//! one CSV row per (workload, design, backend) with the semantic outcome
//! counters. The sim and native rows of a pair must be identical; that
//! is the cross-validation gate (`--check` re-verifies it from the CSV,
//! and `ci.sh` runs a forged-counter negative control against it).
//!
//! Measured execution numbers (walks/sec, page faults, hot-map hit
//! split) go to stderr `#`-comments so the CSV stays pinnable; the same
//! numbers reach the run manifest (`--metrics-out`) and `analyze`'s HTML
//! report.
//!
//! Extra flags (on top of the shared harness flags):
//!
//! - `--check PATH`  — verify a previously written CSV: every (workload,
//!   design) pair must have byte-identical sim and native outcome cells.
//!   Exits 1 on divergence, 2 on unreadable/malformed input.
//! - `--store DIR`   — persist each workload's materialized trees as
//!   reopenable block files under DIR (out-of-core handoff).
//! - `--load DIR`    — reopen the trees stored by `--store` and
//!   cross-check walks against freshly built in-memory trees. A
//!   corrupted page surfaces as a contextful error and exit 2.
//!
//! The shared `--backend` flag is ignored here: this binary's whole job
//! is running both backends side by side.

use metal_bench::{csv_row, exit, f3, fail, HarnessArgs, Session};
use metal_core::models::DesignSpec;
use metal_core::native::{supports_native, BlockFile, PagedTree};
use metal_core::runner::{run_design, Backend, RunReport};
use metal_index::walk::{Descend, WalkIndex};
use metal_workloads::crud::uniform_std_v1;
use metal_workloads::drift::drift_hotspot_v1;
use metal_workloads::{BuiltWorkload, Scale, Workload};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// The CSV columns after `workload,design,backend`: the semantic
/// outcomes both backends must agree on exactly.
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

/// The native-capable subset of the standard figure designs, with the
/// workload's Table 2 descriptors on the tuned METAL entry.
fn native_designs(built: &BuiltWorkload, cache_bytes: usize) -> Vec<(String, DesignSpec)> {
    metal_bench::figure_designs(built, cache_bytes)
        .into_iter()
        .filter(|(_, spec)| supports_native(spec))
        .collect()
}

/// The workload roster: name → builder (pure functions of the scale).
fn workloads(scale: Scale) -> Vec<BuiltWorkload> {
    vec![
        Workload::Where.build(scale),
        uniform_std_v1(scale, 30),
        drift_hotspot_v1(scale),
    ]
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut check: Option<PathBuf> = None;
    let mut store: Option<PathBuf> = None;
    let mut load: Option<PathBuf> = None;
    let mut it = raw.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--check" => check = Some(arg_path(it.next(), "--check")),
            "--store" => store = Some(arg_path(it.next(), "--store")),
            "--load" => load = Some(arg_path(it.next(), "--load")),
            _ => {}
        }
    }
    if let Some(path) = check {
        check_csv(&path);
        return;
    }

    let args = HarnessArgs::parse();
    if let Some(dir) = &store {
        store_trees(dir, args.scale);
    }
    if let Some(dir) = &load {
        load_and_rewalk(dir, args.scale);
    }
    if store.is_some() || load.is_some() {
        return;
    }

    let mut session = Session::new("fig_native", &args);
    println!("# native execution vs simulation: semantic outcomes must match per row pair");
    println!("# measured throughput/page-fault numbers are on stderr (CSV stays pinnable)");
    let mut header = vec!["workload", "design", "backend"];
    header.extend(OUTCOME_COLS);
    csv_row(header);

    for built in workloads(args.scale) {
        let exp = built.experiment();
        for (name, spec) in native_designs(&built, args.cache_bytes) {
            for backend in [Backend::Sim, Backend::Native] {
                let scope = format!("{}/{name}", built.name);
                let tag = match backend {
                    Backend::Sim => "sim",
                    Backend::Native => "native",
                };
                // Entry ids are only unique within one (run, design,
                // shard) trace stream, so the two backends must not
                // share a run label — tag the traced scope while the
                // manifest keeps the plain one for sim/native pairing.
                let cfg = session
                    .config(&format!("{scope}:{tag}"))
                    .with_lanes(built.tiles)
                    .with_backend(backend);
                let report = run_design(&spec, &exp, &cfg);
                session.record_report(&scope, &format!("{name}:{tag}"), &report);
                let mut cells = vec![built.name.to_string(), name.clone(), tag.to_string()];
                cells.extend(outcome_cells(&report));
                csv_row(cells);
                if let Some(m) = &report.native {
                    eprintln!(
                        "# measured {}/{}: {} walks/s, {} page reads, {} page writes, \
                         {} hot-map hits vs {} cold node reads, {} pages ({} free)",
                        built.name,
                        name,
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
    session.finish();
}

fn arg_path(v: Option<&String>, flag: &str) -> PathBuf {
    match v {
        Some(p) => PathBuf::from(p),
        None => fail(format_args!("{flag} needs a path argument")),
    }
}

/// `--check`: re-verify backend equivalence from a written CSV.
fn check_csv(path: &Path) {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| fail(format_args!("--check {}: {e}", path.display())));
    // (workload, design) → backend → outcome cells.
    let mut pairs: BTreeMap<(String, String), BTreeMap<String, Vec<String>>> = BTreeMap::new();
    for line in text.lines() {
        if line.starts_with('#') || line.starts_with("workload,") || line.trim().is_empty() {
            continue;
        }
        let cells: Vec<&str> = line.split(',').collect();
        if cells.len() != 3 + OUTCOME_COLS.len() {
            fail(format_args!(
                "--check {}: malformed row (want {} cells, got {}): {line}",
                path.display(),
                3 + OUTCOME_COLS.len(),
                cells.len()
            ));
        }
        pairs
            .entry((cells[0].to_string(), cells[1].to_string()))
            .or_default()
            .insert(
                cells[2].to_string(),
                cells[3..].iter().map(|s| s.to_string()).collect(),
            );
    }
    if pairs.is_empty() {
        fail(format_args!("--check {}: no data rows", path.display()));
    }
    let mut divergent = 0;
    for ((workload, design), by_backend) in &pairs {
        let (Some(sim), Some(native)) = (by_backend.get("sim"), by_backend.get("native")) else {
            fail(format_args!(
                "--check {}: {workload}/{design} lacks a sim/native row pair",
                path.display()
            ));
        };
        for (col, (s, n)) in OUTCOME_COLS.iter().zip(sim.iter().zip(native)) {
            if s != n {
                eprintln!("BACKEND DIVERGENCE {workload}/{design}: {col} sim={s} native={n}");
                divergent += 1;
            }
        }
    }
    if divergent > 0 {
        eprintln!("error: {divergent} outcome cell(s) differ between backends");
        std::process::exit(exit::VALIDATION);
    }
    println!(
        "# backend equivalence verified: {} (workload, design) pairs, every outcome identical",
        pairs.len()
    );
}

/// For each workload, each B+tree index materialized and persisted as a
/// reopenable block file `DIR/<workload>-<index>.blk`.
fn store_trees(dir: &Path, scale: Scale) {
    std::fs::create_dir_all(dir)
        .unwrap_or_else(|e| fail(format_args!("--store {}: {e}", dir.display())));
    for built in workloads(scale) {
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
    for built in workloads(scale) {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_columns_and_cells_stay_in_sync() {
        let scale = Scale::ci().with_keys(512).with_walks(64);
        let built = uniform_std_v1(scale, 30);
        let exp = built.experiment();
        let (_, spec) = native_designs(&built, 64 * 1024).remove(0);
        let r = run_design(&spec, &exp, &Default::default());
        assert_eq!(outcome_cells(&r).len(), OUTCOME_COLS.len());
    }
}
