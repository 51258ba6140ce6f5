//! Golden-file regression gate for the MLP window sweep (`fig_mlp`):
//! cycle count and speedup per MLP width, plus the semantic counters that
//! must not move anywhere along the width axis (harness: `golden/mod.rs`).

mod golden;

#[test]
fn fig_mlp_ci_output_is_pinned_and_shard_invariant() {
    golden::check(&[("fig_mlp", "fig_mlp_ci.csv")]);
}
