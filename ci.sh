#!/usr/bin/env bash
# CI entry point: what `cargo test` cannot hold. Lints (fmt, clippy,
# rustdoc warnings as errors), then the tier-1 gate itself
# (`cargo build --release && cargo test -q`), which runs every crate's
# tests, the golden figures and the command-line controls of `fig` and
# `analyze` (crates/bench/tests/cli_controls.rs: usage errors, tracing
# that leaves the CSV alone, and the forged-input negative controls).
# Then the examples and `run_figures.sh --dry-run`, the five `ix_fuzz`
# smoke swarms, a doc-link check (every figure, tool, flag and results/
# file named in the docs must exist), and the repository benchmark's
# unit tests and smoke run (benchmark/ must keep building against
# crates/ and end "ok":true). Nothing here gates on timing: the
# benchmark's alternating pairs are the perf gate.
set -euo pipefail
cd "$(dirname "$0")"

echo "== lint: cargo fmt --check =="
cargo fmt --all --check

echo "== lint: cargo clippy -D warnings =="
cargo clippy --workspace -- -D warnings

echo "== docs: cargo doc --no-deps (rustdoc warnings are errors) =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "== tier-1: cargo build --release && cargo test -q =="
cargo build --release
cargo test -q
# The figure driver, built above: every figure runs as `$FIG NAME [flags]`.
FIG=./target/release/fig
tdir=$(mktemp -d)
trap 'rm -rf "$tdir"' EXIT

echo "== examples: all build, quickstart runs, run_figures.sh --dry-run =="
# The examples are documentation that must keep compiling; quickstart is
# cheap enough to actually execute. The figure script's dry-run checks
# that `fig` knows every figure it names, without touching results/.
cargo build --release --examples
./target/release/examples/quickstart > /dev/null
./run_figures.sh --dry-run > "$tdir/dryrun.txt"
grep -q "ALL_DONE" "$tdir/dryrun.txt"
echo "examples compile and quickstart runs; run_figures.sh --dry-run reaches ALL_DONE"

echo "== differential verification: fuzz smoke swarms =="
# Debug build on purpose: overflow checks armed, and 600 cases take
# seconds. Zero divergences required; failures land minimized repros in
# crates/verify/corpus/ (replayed by the corpus_replay test).
cargo build -p metal-verify --bin ix_fuzz
./target/debug/ix_fuzz --cases 600 --seed 42
# Mutation smoke: the CRUD swarm (inserts, deletes, range invalidations,
# cross-design write runs) through the mutation-aware oracle — the
# coherence gate for the write path. Fixed seed, overflow checks armed.
./target/debug/ix_fuzz --cases 600 --seed 43 --mutate
echo "mutation fuzz smoke: 600 CRUD cases, zero divergences"
# Native-backend swarm: seeded CRUD walk mixes run end-to-end through
# the paged native executor and every semantic counter is diffed
# against the (oracle-verified) simulator; failures shrink to
# crates/verify/corpus/ like the IX-cache swarms.
./target/debug/ix_fuzz --cases 600 --seed 44 --backend native
echo "native fuzz smoke: 600 end-to-end cases, zero sim/native divergences"
# The same swarm pinned to MLP widths. Writes no longer clear the
# prefetch stage: a mutation's flush replaces the held copy (hot or
# staged) of each node it writes and drops the copy of a node that died,
# so the hazard is a held copy a flush forgot to update — it would
# shadow its page for every later read. Width 8 keeps the most staged
# copies alive across writes (the default sweep draws it for only a
# quarter of its cases); width 2 is the tightest architect/scout
# interleaving. Debug builds also check every held copy against its
# page when a native shard ends.
./target/debug/ix_fuzz --cases 300 --seed 45 --backend native --mlp-width 8
echo "native fuzz smoke, width 8: 300 end-to-end cases, zero sim/native divergences"
./target/debug/ix_fuzz --cases 300 --seed 46 --backend native --mlp-width 2
echo "native fuzz smoke, width 2: 300 end-to-end cases, zero sim/native divergences"

echo "== docs: link/flag/figure existence check =="
# Grep-based drift gate over README.md, DESIGN.md, ARCHITECTURE.md and
# PERFORMANCE.md: every figure-shaped name must be a figure `fig` knows
# (or a pinned golden, or a test target), every tool a bin target, and every CLI flag and
# results/ file a doc mentions must exist (generated results/ files
# count when run_figures.sh produces them), so the docs cannot silently
# rot as figures and flags are renamed.
docs="README.md DESIGN.md ARCHITECTURE.md PERFORMANCE.md"
docfail=0
for name in $(grep -ohE '\b(fig[0-9]*[a-z]?|table[0-9]+|abl)_[a-z0-9_]+\b' $docs | sort -u); do
    if $FIG "$name" --help > /dev/null 2>&1; then continue; fi
    if [ -e "tests/goldens/$name.csv" ]; then continue; fi
    if [ -e "crates/bench/tests/$name.rs" ]; then continue; fi
    echo "FAIL: docs name '$name' but fig does not know it" >&2
    docfail=1
done
for tool in fig analyze ix_fuzz; do
    if ls crates/*/src/bin/"$tool".rs > /dev/null 2>&1; then continue; fi
    echo "FAIL: docs name the tool '$tool' but no bin target defines it" >&2
    docfail=1
done
# CLI flags: every --flag a doc names must appear in the source or a
# script, the repository benchmark's included (substring match: catches
# renamed, removed and typo'd flags).
for flag in $(grep -ohE '\-\-[a-z][a-z-]+' $docs | sort -u); do
    if grep -rqF -- "$flag" crates/ benchmark/src benchmark/run.sh ./*.sh; then continue; fi
    echo "FAIL: docs name flag '$flag' but no source or script knows it" >&2
    docfail=1
done
# results/ files: committed, or generated by run_figures.sh.
for f in $(grep -ohE 'results/[A-Za-z0-9_.]+' $docs | sort -u); do
    if [ -e "$f" ]; then continue; fi
    if grep -qF "$(basename "$f")" run_figures.sh; then continue; fi
    echo "FAIL: docs name '$f' but it is neither committed nor generated" >&2
    docfail=1
done
[ "$docfail" -eq 0 ]
echo "doc-link check: every named figure, tool, flag and results/ file exists"

echo "== repository benchmark: unit tests + smoke run =="
# benchmark/ is a package of its own, not a workspace member, so nothing
# above compiles it: a signature change under crates/ that breaks it
# would first be seen by the merge pipeline, as failed operations. Run
# its unit tests, then its smoke run (every size / 20) for the exit
# status only: non-zero unless every correctness and workload-separation
# check passed ("ok":true). No timing gate: this host's run-to-run
# spread is 2-11 % in a calm spell (benchmark/README.md).
cargo test -q --offline --manifest-path benchmark/Cargo.toml --target-dir target
benchmark/run.sh --smoke > "$tdir/benchmark_smoke.txt"
grep -q '"ok":true' "$tdir/benchmark_smoke.txt"
echo "benchmark: unit tests pass, smoke run ok"

echo "== ci.sh: all checks passed =="
