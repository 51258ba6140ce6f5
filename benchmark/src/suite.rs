//! The one command: every workload, untraced then traced, each in a
//! child process of its own (so `peak_rss_mb` is per workload), merged
//! into one result document with the environment it was measured in
//! and the workload-separation self-check.

use crate::spec::WORKLOADS;
use metal_obs::Json;
use std::path::PathBuf;
use std::process::{Command, Stdio};

const SCHEMA: &str = "metal-benchmark/1";

fn rustc_version() -> String {
    Command::new("rustc")
        .arg("--version")
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// Filesystem type and device backing `dir`, from the longest matching
/// mount point in `/proc/mounts`.
fn filesystem_of(dir: &std::path::Path) -> String {
    let dir = dir.canonicalize().unwrap_or_else(|_| dir.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (dev, point, fs) = (f.next()?, f.next()?, f.next()?);
            dir.starts_with(point)
                .then(|| (point.len(), format!("{fs} on {dev}")))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_string(), |(_, s)| s)
}

/// Where and on what the numbers were taken.
fn environment() -> Json {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cpu = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map_or("unknown", |v| v.trim_start_matches([' ', '\t', ':']))
        .to_string();
    let load = std::fs::read_to_string("/proc/loadavg").unwrap_or_default();
    let out = crate::out_dir();
    let _ = std::fs::create_dir_all(&out);
    Json::Obj(vec![
        (
            "nproc".into(),
            Json::UInt(std::thread::available_parallelism().map_or(1, |n| n.get()) as u64),
        ),
        ("cpu".into(), Json::str(cpu)),
        ("rustc".into(), Json::str(rustc_version())),
        (
            "git_revision".into(),
            Json::str(metal_obs::manifest::git_rev()),
        ),
        (
            "block_file_dir".into(),
            Json::str(out.display().to_string()),
        ),
        ("block_file_fs".into(), Json::str(filesystem_of(&out))),
        (
            "load_1min".into(),
            Json::str(load.split_whitespace().next().unwrap_or("unknown")),
        ),
    ])
}

/// Runs one (workload, trace) child and returns its `#detail` document.
fn child(
    workload: &str,
    trace: bool,
    seed: u64,
    seconds: f64,
    smoke: bool,
) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if smoke {
        cmd.arg("--smoke");
    }
    let output = cmd.output().map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let detail = stdout
        .lines()
        .find_map(|l| l.strip_prefix("#detail "))
        .ok_or_else(|| format!("no result (exit {})", output.status))?;
    Json::parse(detail).map_err(|e| format!("malformed detail line: {e}"))
}

fn metric(doc: &Json, group: &str, name: &str) -> Option<f64> {
    doc.get(group)?.get(name)?.get("value")?.as_f64()
}

/// The workloads must actually stress different layers, or comparing
/// them says nothing: checked on full-size runs, failing the run.
fn separation(workloads: &[(String, Json)]) -> Vec<(String, f64, bool)> {
    let of = |w: &str| workloads.iter().find(|(n, _)| n == w).map(|(_, d)| d);
    let mut checks = Vec::new();
    let mut check = |label: &str, value: Option<f64>, ok: &dyn Fn(f64) -> bool| {
        let v = value.unwrap_or(f64::NAN);
        checks.push((label.to_string(), v, value.is_some_and(ok)));
    };
    let reads = "core.native.blockfile.page_reads_per_walk.metal";
    check(
        &format!("where_fit: {reads} < 0.2"),
        of("where_fit").and_then(|d| metric(d, "per_layer", reads)),
        &|v| v < 0.2,
    );
    check(
        &format!("scan: {reads} > 3"),
        of("scan").and_then(|d| metric(d, "per_layer", reads)),
        &|v| v > 3.0,
    );
    let hot = "core.native.tree.hot_hit_ratio.metal";
    check(
        &format!("where_fit: {hot} > 0.8"),
        of("where_fit").and_then(|d| metric(d, "per_layer", hot)),
        &|v| v > 0.8,
    );
    for (name, doc) in workloads {
        let writes = doc.get("write_walks").and_then(Json::as_f64);
        if name == "crud30" {
            check("crud30: write walks > 0", writes, &|v| v > 0.0);
        } else {
            check(&format!("{name}: write walks == 0"), writes, &|v| v == 0.0);
        }
    }
    checks
}

pub fn run(seed: u64, seconds: f64, smoke: bool, out: Option<PathBuf>) -> i32 {
    let env = environment();
    println!("# environment {}", env.render());
    let mut ok = true;
    let mut workloads: Vec<(String, Json)> = Vec::new();
    for w in WORKLOADS {
        let mut fields = Vec::new();
        let (mut attempted, mut failed) = (0, 0);
        let mut errors = Vec::new();
        for (trace, group) in [(false, "end_to_end"), (true, "per_layer")] {
            eprintln!("# {} --trace {}", w.name, trace as u8);
            let doc = match child(w.name, trace, seed, seconds, smoke) {
                Ok(doc) => doc,
                Err(e) => {
                    ok = false;
                    errors.push(Json::str(format!("{group}: {e}")));
                    continue;
                }
            };
            attempted += doc.get("attempted").and_then(Json::as_u64).unwrap_or(0);
            failed += doc.get("failed").and_then(Json::as_u64).unwrap_or(0);
            errors.extend(
                doc.get("errors")
                    .and_then(Json::as_arr)
                    .unwrap_or(&[])
                    .to_vec(),
            );
            let metrics = doc.get("metrics").cloned().unwrap_or(Json::Obj(Vec::new()));
            if let Json::Obj(rows) = &metrics {
                for (name, m) in rows {
                    let num = |k: &str| m.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);
                    println!(
                        "{:<10} {:<56} {:>16.6} {:<8} (q1 {:.6} q3 {:.6} n {})",
                        w.name,
                        name,
                        num("value"),
                        m.get("unit").and_then(Json::as_str).unwrap_or(""),
                        num("q1"),
                        num("q3"),
                        num("n"),
                    );
                }
            }
            fields.push((group.to_string(), metrics));
            for extra in [
                "passes",
                "rounds",
                "write_walks",
                "self_time",
                "read_node_tags",
                "trace_file",
            ] {
                if let Some(v) = doc.get(extra) {
                    fields.push((extra.to_string(), v.clone()));
                }
            }
        }
        ok &= errors.is_empty();
        fields.push(("attempted".into(), Json::UInt(attempted)));
        fields.push(("failed".into(), Json::UInt(failed)));
        fields.push(("errors".into(), Json::Arr(errors)));
        workloads.push((w.name.to_string(), Json::Obj(fields)));
    }

    let mut checks = Vec::new();
    if !smoke {
        for (label, value, pass) in separation(&workloads) {
            println!(
                "separation {} {label} (measured {value})",
                if pass { "ok  " } else { "FAIL" }
            );
            ok &= pass;
            checks.push(Json::Obj(vec![
                ("check".into(), Json::str(label)),
                ("value".into(), Json::Num(value)),
                ("ok".into(), Json::Bool(pass)),
            ]));
        }
    }

    let doc = Json::Obj(vec![
        ("schema".into(), Json::str(SCHEMA)),
        // This benchmark measures; it claims no gain.
        ("claim".into(), Json::Null),
        ("seed".into(), Json::UInt(seed)),
        ("seconds".into(), Json::Num(seconds)),
        ("smoke".into(), Json::Bool(smoke)),
        ("ok".into(), Json::Bool(ok)),
        ("environment".into(), env),
        ("workloads".into(), Json::Obj(workloads)),
        ("separation".into(), Json::Arr(checks)),
    ]);
    let path = out.unwrap_or_else(|| crate::out_dir().join("results.json"));
    if let Some(dir) = path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    if let Err(e) = std::fs::write(&path, format!("{}\n", doc.render())) {
        eprintln!("metal-benchmark: cannot write {}: {e}", path.display());
        return crate::EXIT_USAGE;
    }
    println!("# wrote {} (claim: null, ok: {ok})", path.display());
    println!("{}", doc.render());
    if ok {
        0
    } else {
        crate::EXIT_CHECK
    }
}
