//! Corpus replay: every minimized repro the fuzzer ever banked must keep
//! passing. A corpus file is written by `ix_fuzz` when it finds (and
//! shrinks) a divergence; once the underlying bug is fixed the repro is
//! committed and this test pins the fix forever.
//!
//! Runs in the default `cargo test` sweep, in debug mode, so repros that
//! originally manifested as debug-only panics (overflow checks) stay
//! armed.

use metal_obs::Json;
use metal_verify::native::NativeCase;
use metal_verify::scenario::Scenario;
use metal_verify::shrink::Case;
use std::path::Path;

fn corpus_dir() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/corpus"))
}

/// Parses one repro of kind `C` and runs the kind's full check.
fn replay<C: Case>(name: &str, json: &Json) {
    let case = C::from_json(json).unwrap_or_else(|| panic!("{name}: malformed {} case", C::KIND));
    if let Err(d) = case.check() {
        panic!("{name}: regressed: {d}");
    }
}

#[test]
fn every_corpus_repro_replays_clean() {
    let mut replayed = 0;
    let entries = std::fs::read_dir(corpus_dir()).expect("corpus directory must exist");
    for entry in entries {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) != Some("json") {
            continue;
        }
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let text = std::fs::read_to_string(&path).unwrap();
        let json = Json::parse(&text).unwrap_or_else(|e| panic!("{name}: bad JSON: {e:?}"));
        match json.get("kind").and_then(Json::as_str) {
            Some(Scenario::KIND) => replay::<Scenario>(&name, &json),
            Some(NativeCase::KIND) => replay::<NativeCase>(&name, &json),
            kind => panic!("{name}: unknown corpus kind {kind:?}"),
        }
        replayed += 1;
    }
    println!("replayed {replayed} corpus repros");
}
