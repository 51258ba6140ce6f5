//! The command-line gates of `fig` and `analyze`, run on the real
//! binaries: usage errors exit 2, telemetry leaves every CSV alone and
//! reconciles with the run manifest, and each detector (`--check-hits`,
//! the conservation rows of `analyze --validate`, `--deny-alerts`, the
//! trace parser, the block-file checksums) fails on a forged input with
//! its documented exit code and message — a detector that never fails
//! proves nothing.
//!
//! Forged traces are parsed into typed events, edited and re-rendered
//! through [`JsonlSink`]; forged documents are edited as parsed [`Json`].
//! Only the truncated and the deeply nested line are raw bytes, because
//! malformed bytes are their point. Each distinct `fig` command runs
//! once per test binary at a small `--keys`/`--walks` scale, and every
//! test that needs its outputs shares that run.

use metal_obs::{Json, JsonlReader, JsonlSink, JsonlWriter, TraceLine};
use metal_sim::obs::{Event, EventSink};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::sync::{Arc, Mutex, OnceLock};

/// Small enough that a test-profile run takes under a second, big enough that
/// every design hits at several levels and the write sweep invalidates.
const SMALL: [&str; 6] = ["--scale", "ci", "--keys", "2000", "--walks", "300"];
const TRACED: &str = "--trace-out {dir}/trace.jsonl --metrics-out {dir}/manifest.json";

/// This binary's scratch directory, emptied when first used.
fn scratch() -> &'static Path {
    static DIR: OnceLock<PathBuf> = OnceLock::new();
    DIR.get_or_init(|| {
        let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli_controls");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch directory");
        dir
    })
}

/// Runs `bin` on `cmd`'s words, each `{dir}` in them replaced by `dir`.
fn exe(bin: &str, cmd: &str, dir: &Path, extra: &[&str]) -> Output {
    let dir = dir.display().to_string();
    let mut args: Vec<String> = cmd
        .split_whitespace()
        .map(|w| w.replace("{dir}", &dir))
        .collect();
    args.splice(1..1, extra.iter().map(|s| s.to_string()));
    let run = Command::new(bin)
        .args(&args)
        .env("METAL_HEARTBEAT_SECS", "0")
        .output();
    run.unwrap_or_else(|e| panic!("{bin} runs: {e}"))
}

/// `fig FIGURE SMALL FLAGS` for `cmd` = `FIGURE FLAGS`.
fn fig_cmd(cmd: &str, dir: &Path) -> Output {
    exe(env!("CARGO_BIN_EXE_fig"), cmd, dir, &SMALL)
}

fn analyze(cmd: &str, dir: &Path) -> Output {
    exe(env!("CARGO_BIN_EXE_analyze"), cmd, dir, &[])
}

/// Asserts `out` exited with `code` and a line of its stdout or stderr
/// matches `pattern`, where `*` stands for any run of characters.
fn expect(out: &Output, code: i32, pattern: &str) {
    let text = String::from_utf8_lossy(&out.stdout) + String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(code), "want exit {code}:\n{text}");
    let found = text.lines().any(|line| {
        let mut rest = line;
        pattern
            .split('*')
            .all(|p| rest.split_once(p).map(|(_, r)| rest = r).is_some())
    });
    assert!(found, "want a line matching {pattern:?} in:\n{text}");
}

/// What one `fig` run left behind: its CSV and its output directory.
struct Run {
    csv: String,
    dir: PathBuf,
}

/// [`fig_cmd`] run once per test binary for each distinct `cmd`, which
/// must succeed; `{dir}` in `cmd` is the run's own directory.
fn fig(cmd: &str) -> &'static Run {
    type Memo = BTreeMap<String, (usize, &'static OnceLock<Run>)>;
    static RUNS: Mutex<Memo> = Mutex::new(BTreeMap::new());
    let (n, cell) = {
        let mut runs = RUNS.lock().unwrap();
        let n = runs.len();
        *runs
            .entry(cmd.into())
            .or_insert_with(|| (n, Box::leak(Box::default())))
    };
    cell.get_or_init(|| {
        let dir = scratch().join(format!("run{n}"));
        std::fs::create_dir_all(&dir).expect("run directory");
        let out = fig_cmd(cmd, &dir);
        assert!(out.status.success(), "fig {cmd}: {out:?}");
        let csv = String::from_utf8(out.stdout).expect("the CSV is UTF-8");
        Run { csv, dir }
    })
}

fn traced(cmd: &str) -> &'static Run {
    fig(&format!("{cmd} {TRACED}"))
}

/// A fig15 run traced, windowed and analyzed in-process at once.
fn fig15_traced() -> &'static Run {
    traced("fig15_miss_rate --epoch walks:64 --analyze-out {dir}/A.json")
}

fn breakdown_traced() -> &'static Run {
    traced("fig_breakdown --epoch walks:64")
}

/// `analyze {dir}/TRACE --check-hits` against `run`'s manifest.
fn check_hits(run: &Run, trace: &str) -> Output {
    let cmd = format!("{{dir}}/{trace} --manifest {{dir}}/manifest.json --check-hits");
    analyze(&format!("{cmd} --out {{dir}}/{trace}.A.json"), &run.dir)
}

/// `run`'s trace, parsed, edited by `forge` and re-rendered through the
/// trace writer as `name`.
fn forged_trace(run: &Run, name: &str, forge: impl FnOnce(&mut Vec<TraceLine>)) {
    let mut reader = JsonlReader::open(run.dir.join("trace.jsonl")).expect("trace opens");
    let mut lines: Vec<TraceLine> =
        std::iter::from_fn(|| reader.next_event().expect("trace line parses")).collect();
    forge(&mut lines);
    let out = JsonlWriter::create(run.dir.join(name)).expect("forged trace is writable");
    let label = |l: &TraceLine| (l.run.clone(), l.design.clone(), l.shard);
    for stream in lines.chunk_by(|a, b| label(a) == label(b)) {
        let (run, design, shard) = label(&stream[0]);
        let mut sink = JsonlSink::new(Arc::clone(&out), &run, &design, shard);
        stream.iter().for_each(|l| sink.emit(l.at, &l.ev));
    }
}

/// The fig15 trace plus one event, written as `name`: a complete line
/// of the writer's schema, so only the cross-checks can reject it.
fn forged_fig15(name: &str, line: &str) -> Output {
    let line = TraceLine::parse(&Json::parse(line).unwrap()).unwrap();
    forged_trace(fig15_traced(), name, |lines| lines.extend(line));
    check_hits(fig15_traced(), name)
}

/// `analyze --validate` on `run`'s document `file` with the counter at
/// `path` (object keys, or an index into an array or object) set to
/// `value`.
fn validate_forged(run: &Run, file: &str, path: &[&str], value: u64) -> Output {
    let text = std::fs::read_to_string(run.dir.join(file)).expect("document reads");
    let mut doc = Json::parse(&text).expect("document parses");
    let mut v = &mut doc;
    for key in path {
        v = match (v, key.parse::<usize>()) {
            (Json::Obj(fields), Ok(i)) => &mut fields[i].1,
            (Json::Obj(fields), Err(_)) => &mut fields.iter_mut().find(|f| f.0 == *key).unwrap().1,
            (Json::Arr(items), Ok(i)) => &mut items[i],
            (other, _) => panic!("{key}: not a container: {other:?}"),
        };
    }
    assert!(matches!(v, Json::UInt(_)), "{path:?} is a counter");
    *v = Json::UInt(value);
    let forged = format!("forged-{file}");
    std::fs::write(run.dir.join(&forged), doc.render()).expect("forged document is writable");
    analyze(&format!("--validate {{dir}}/{forged}"), &run.dir)
}

#[test]
fn unknown_flag_and_unknown_figure_exit_2() {
    let out = fig_cmd("fig15_miss_rate --scal ci", scratch());
    expect(&out, 2, "unknown flag '--scal'");
    let out = fig_cmd("nope", scratch());
    expect(&out, 2, "unknown figure 'nope'; one of: *fig15_miss_rate");
}

#[test]
fn tracing_windowing_and_verify_leave_the_csv_byte_identical() {
    let plain = &fig("fig15_miss_rate").csv;
    assert_eq!(&fig15_traced().csv, plain, "telemetry changed the CSV");
    assert_eq!(
        &fig("fig15_miss_rate --verify").csv,
        plain,
        "--verify changed the CSV"
    );
    let plain = &fig("fig_breakdown").csv;
    assert_eq!(&breakdown_traced().csv, plain, "tracing changed the CSV");
}

#[test]
fn check_hits_passes_on_the_fig15_fig24_and_write_sweep_traces() {
    for run in [
        fig15_traced(),
        traced("fig24_design_sweep"),
        traced("fig_write_sweep"),
    ] {
        let out = check_hits(run, "trace.jsonl");
        expect(&out, 0, "check-hits: per-level hit counts match");
    }
}

#[test]
fn forged_probe_hit_fails_check_hits() {
    let out = forged_fig15(
        "forged_probe.jsonl",
        r#"{"ev":"ix_probe","run":"scan","design":"metal-ix","shard":0,"at":0,"index":0,"key":0,"set":0,"level":0,"hit":true,"scan":false,"short_circuit":1,"entry":0}"#,
    );
    expect(
        &out,
        1,
        "MISMATCH scan/metal-ix level 0: manifest *, trace *",
    );
}

#[test]
fn forged_insert_reason_fails_check_hits() {
    let out = forged_fig15(
        "forged_reason.jsonl",
        r#"{"ev":"insert","run":"scan","design":"metal-ix","shard":0,"at":0,"index":0,"level":0,"set":0,"life":64,"reason":"node-level"}"#,
    );
    expect(&out, 1, "MISMATCH inserts_by_reason");
}

#[test]
fn forged_stale_hit_in_a_mutated_trace_fails_check_hits() {
    let run = traced("fig_write_sweep");
    forged_trace(run, "forged_stale.jsonl", |lines| {
        let miss = lines.iter_mut().find_map(|l| match &mut l.ev {
            Event::IxProbe { hit, .. } if !*hit => Some(hit),
            _ => None,
        });
        *miss.expect("the write sweep misses") = true;
    });
    let out = check_hits(run, "forged_stale.jsonl");
    expect(&out, 1, "MISMATCH */* level *: manifest *, trace *");
}

#[test]
fn truncated_trace_line_exits_2_naming_file_and_line() {
    let run = fig15_traced();
    let text = std::fs::read_to_string(run.dir.join("trace.jsonl")).expect("trace reads");
    let mut lines: Vec<&str> = text.lines().collect();
    lines[999] = &lines[999][..lines[999].len() - 10];
    let truncated = lines.join("\n") + "\n";
    std::fs::write(run.dir.join("truncated.jsonl"), truncated).expect("trace is writable");
    let out = analyze(
        "{dir}/truncated.jsonl --out {dir}/truncated.A.json",
        &run.dir,
    );
    expect(&out, 2, "truncated.jsonl: line 1000: bad JSON");
}

#[test]
fn nested_trace_line_exits_2_naming_file_and_line() {
    let nested = "[".repeat(200_000) + "\n";
    std::fs::write(scratch().join("nested.jsonl"), nested).expect("trace is writable");
    let out = analyze("{dir}/nested.jsonl --out {dir}/nested.A.json", scratch());
    expect(&out, 2, "nested.jsonl: line 1: bad JSON");
}

#[test]
fn forged_window_counter_fails_validation() {
    // The genuine series validates and fires no watchdog.
    let out = analyze("--validate {dir}/A.json --deny-alerts", &fig15_traced().dir);
    expect(&out, 0, "is a valid, conserved metal-analysis document");
    let path = ["designs", "0", "series", "windows", "0", "walks"];
    let out = validate_forged(fig15_traced(), "A.json", &path, 9_999_999);
    expect(&out, 1, "INVALID * series: walks sums to * over windows");
}

#[test]
fn breakdown_is_attributed_and_an_inflated_stall_fails_validation() {
    let run = breakdown_traced();
    let cmd = "{dir}/trace.jsonl --manifest {dir}/manifest.json --out {dir}/BKDN.json";
    expect(&analyze(cmd, &run.dir), 0, "cycles attributed");
    let path = ["designs", "0", "breakdown", "components", "stall", "cycles"];
    let out = validate_forged(run, "BKDN.json", &path, 99_999_999);
    expect(&out, 1, "components sum to");
}

#[test]
fn drift_alerts_fail_deny_alerts_and_the_flight_dump_reports_its_drops() {
    // At the ci scale, where the drifting hotspot trips the watchdogs.
    let run = fig(
        "fig_drift_hotspot --keys 20000 --walks 4000 --epoch walks:512 \
                   --analyze-out {dir}/A.json --flight-out {dir}/flight.jsonl",
    );
    let out = analyze("--validate {dir}/A.json --deny-alerts", &run.dir);
    expect(&out, 1, "watchdog alert(s) present");
    let out = analyze("{dir}/flight.jsonl", &run.dir);
    expect(&out, 0, "flight dump dropped * earlier events");
    let text = String::from_utf8_lossy(&out.stdout);
    let dropped = text.split_once("flight dump dropped ").unwrap().1;
    assert!(
        !dropped.starts_with("0 "),
        "the flight rings must overflow:\n{text}"
    );
}

#[test]
fn native_trace_report_has_the_measured_vs_modeled_table() {
    let run = traced("fig_native");
    let cmd = "{dir}/trace.jsonl --manifest {dir}/manifest.json --out {dir}/N.json";
    expect(&analyze(cmd, &run.dir), 0, "analyze: wrote");
    let html = std::fs::read_to_string(run.dir.join("N.html")).unwrap();
    assert!(html.contains("Measured vs modeled"));
}

#[test]
fn stored_trees_reload_and_a_corrupted_page_exits_2() {
    let blocks = &fig("fig_native --store {dir}").dir;
    let out = fig_cmd("fig_native --load {dir}", blocks);
    assert!(out.status.success(), "the stored trees reload: {out:?}");
    let mut files: Vec<PathBuf> = std::fs::read_dir(blocks)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    files.sort();
    let blk = files
        .iter()
        .find(|p| p.extension().is_some_and(|e| e == "blk"))
        .unwrap();
    let mut bytes = std::fs::read(blk).unwrap();
    bytes[4096..4104].copy_from_slice(b"XXXXXXXX");
    std::fs::write(blk, bytes).unwrap();
    let out = fig_cmd("fig_native --load {dir}", blocks);
    expect(&out, 2, "error: --load *corrupted");
}
