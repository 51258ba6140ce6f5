//! Golden-file regression gates for the miss-rate, speedup, write-sweep
//! and native-backend figures (harness: `golden/mod.rs`).

mod golden;

#[test]
fn fig15_and_fig18_ci_output_is_pinned() {
    golden::check(&[
        ("fig18_speedup", "fig18_ci.csv"),
        ("fig15_miss_rate", "fig15_ci.csv"),
    ]);
}

#[test]
fn write_sweep_ci_output_is_pinned_and_shard_invariant() {
    golden::check(&[("fig_write_sweep", "fig_write_sweep_ci.csv")]);
}

#[test]
fn fig_native_ci_output_is_pinned_and_shard_invariant() {
    golden::check(&[("fig_native", "fig_native_ci.csv")]);
}
