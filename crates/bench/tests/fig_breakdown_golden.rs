//! Golden-file regression gate for the cycle-accounting figure
//! (`fig_breakdown`). The per-row conservation identity and hidden = 0
//! at width 1 are checked by the figure itself, which exits 1 on a
//! violation and so fails this test (harness: `golden/mod.rs`).

mod golden;

#[test]
fn fig_breakdown_ci_output_is_pinned_and_shard_invariant() {
    golden::check(&[("fig_breakdown", "fig_breakdown_ci.csv")]);
}
