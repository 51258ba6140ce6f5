//! The golden-file harness shared by the figure golden tests.
//!
//! [`check`] runs the real `fig` binary — the code that writes
//! `results/` — as `fig NAME --scale ci --shards 1` and `--shards 4`,
//! drops the `#` comment lines (they carry no data; measured wall-clock
//! numbers go to stderr), and requires both runs to be identical to each
//! other and to the figure's golden under `tests/goldens/` at the repo
//! root. Simulation is deterministic (fixed seed, order-independent
//! sharding), so a diff is a behavioural change to the model and must be
//! intentional. The figures' own gates run too: `fig_native` exits 1 on a
//! sim/native divergence, `fig_breakdown` on a cycle-conservation
//! violation and `fig_write_sweep` on a design-dependent result counter.
//!
//! When a change is intentional, regenerate the goldens and commit them
//! together with the change that caused the diff:
//!
//! ```text
//! METAL_UPDATE_GOLDENS=1 cargo test -p metal-bench --test golden_figures \
//!     --test fig_mlp_golden --test fig_breakdown_golden
//! ```

use std::path::PathBuf;
use std::process::Command;

/// `fig FIGURE --scale ci --shards SHARDS`'s stdout without its `#`
/// comment lines.
fn csv(figure: &str, shards: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_fig"))
        .args([figure, "--scale", "ci", "--shards", shards])
        .env("METAL_HEARTBEAT_SECS", "0")
        .output()
        .expect("the fig binary runs");
    assert!(
        out.status.success(),
        "fig {figure} failed ({}):\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout)
        .expect("the CSV is UTF-8")
        .lines()
        .filter(|l| !l.starts_with('#'))
        .map(|l| format!("{l}\n"))
        .collect()
}

/// Runs each (figure, golden file) row at 1 and 4 shards and panics
/// naming every row whose runs differ from each other or from the golden.
pub fn check(goldens: &[(&str, &str)]) {
    let update = std::env::var_os("METAL_UPDATE_GOLDENS").is_some();
    let mut failures = Vec::new();
    for &(figure, golden) in goldens {
        let (one, four) = std::thread::scope(|s| {
            let four = s.spawn(|| csv(figure, "4"));
            (csv(figure, "1"), four.join().expect("the 4-shard run"))
        });
        // Worker count must never change a row: every figure's merge of
        // shard results is order independent.
        if one != four {
            failures.push(format!("{figure}: rows differ between 1 and 4 shards"));
        }
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../../tests/goldens")
            .join(golden);
        if update {
            std::fs::write(&path, &one).expect("the golden is writable");
            eprintln!("updated {}", path.display());
            continue;
        }
        let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "{}: {e} (run with METAL_UPDATE_GOLDENS=1 to create)",
                path.display()
            )
        });
        if one != want {
            let rows: Vec<String> = one
                .lines()
                .zip(want.lines())
                .filter(|(got, want)| got != want)
                .map(|(got, want)| format!("  got:  {got}\n  want: {want}"))
                .collect();
            failures.push(format!(
                "{figure} diverged from {golden}: {} rows vs {} pinned, {} differ:\n{}",
                one.lines().count(),
                want.lines().count(),
                rows.len(),
                rows.join("\n")
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "{}\nIf a change is intentional, regenerate with METAL_UPDATE_GOLDENS=1",
        failures.join("\n")
    );
}
