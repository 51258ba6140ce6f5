#!/usr/bin/env bash
# CI entry point: lints, tier-1 verify, the full test suite
# single-threaded (the golden figure test pins six figures' ci-scale CSV
# and their worker-count invariance there), a sharded-replay smoke test
# at an explicit logical-shard grain, the figure driver's usage
# controls (an unknown flag or figure exits 2), a telemetry smoke test (every trace line must parse into a
# typed event and `analyze --check-hits` must agree with the run
# manifest; a truncated line must exit 2), a forensics gate (the `analyze` report must
# pass its schema/conservation validation on a real fig15 trace), a
# time-resolved telemetry gate (per-epoch window sums must conserve and
# the series must be worker-count invariant), a watchdog/flight-recorder
# gate (the drift-hotspot alerts must trip --deny-alerts, its flight dump
# must analyze, and a deeply nested trace line must exit 2), and a native-execution
# gate (the measured-telemetry path must analyze clean, a corrupted
# block file must die with a contextful error, and the native fuzz
# swarm must stay clean both over its default width sweep and pinned to
# the widest MLP window), an MLP gate (--mlp-width 1 must be
# byte-identical to the serial engine), a cycle-accounting gate (a
# traced fig_breakdown run must pass the breakdown conservation rows in
# `analyze --validate`, and a sed-forged stall component must fail
# naming the broken identity), a doc-link check (every figure, tool,
# flag and results/ file named in the docs must exist),
# and the repository benchmark's unit tests and smoke run (benchmark/
# must keep building against crates/ and end "ok":true). Nothing here
# gates on timing: the benchmark's alternating pairs are the perf gate.
set -euo pipefail
cd "$(dirname "$0")"

echo "== lint: cargo fmt --check =="
cargo fmt --all --check

echo "== lint: cargo clippy -D warnings =="
cargo clippy --workspace -- -D warnings

echo "== docs: cargo doc --no-deps (rustdoc warnings are errors) =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "== tier-1: cargo build --release =="
cargo build --release
# The figure driver, built by the line above: every figure runs as
# `$FIG NAME [flags]`.
FIG=./target/release/fig

# The root-package tests are covered by the workspace run below; build
# test targets first so the timed run is compile-free.
echo "== full workspace tests (single-threaded) =="
cargo test -q --workspace --no-run
cargo test -q --workspace -- --test-threads=1

echo "== sharded-replay smoke: fig18_speedup --shard-walks 512, shards 1 vs 4 =="
# The default grain's shards-1-vs-4 identity is pinned by the golden
# figure test; explicit logical sharding (partitioned-accelerator
# semantics) must be worker-count invariant too.
out1=$(mktemp) && out4=$(mktemp)
trap 'rm -f "$out1" "$out4"' EXIT
$FIG fig18_speedup --scale ci --shards 1 --shard-walks 512 > "$out1"
$FIG fig18_speedup --scale ci --shards 4 --shard-walks 512 > "$out4"
if ! diff -q "$out1" "$out4" > /dev/null; then
    echo "FAIL: fig18_speedup (--shard-walks 512) differs between shards=1 and shards=4" >&2
    diff "$out1" "$out4" >&2 || true
    exit 1
fi
echo "shard-walks=512: CSV identical across worker counts"

echo "== figure driver: malformed command lines exit 2 =="
# A mistyped flag must not silently run the default (bench) scale, and
# an unknown figure must name the valid ones.
for cmd in "fig15_miss_rate --scal ci" "nope"; do
    set +e
    $FIG $cmd > /dev/null 2> "$out1"
    rc=$?
    set -e
    if [ "$rc" -ne 2 ]; then
        echo "FAIL: fig $cmd should exit 2 (usage), got $rc" >&2
        exit 1
    fi
done
grep -q "unknown figure 'nope'; one of: .*fig15_miss_rate" "$out1"
echo "negative controls: an unknown flag and an unknown figure each exit 2"

echo "== telemetry smoke: fig20_breakdown --trace-out / --metrics-out =="
tdir=$(mktemp -d)
trap 'rm -f "$out1" "$out4"; rm -rf "$tdir"' EXIT
# A traced run must produce the same CSV as an untraced one…
$FIG fig20_breakdown --scale ci > "$tdir/plain.csv"
$FIG fig20_breakdown --scale ci \
    --trace-out "$tdir/trace.jsonl" --metrics-out "$tdir/manifest.json" \
    > "$tdir/traced.csv"
if ! diff -q "$tdir/plain.csv" "$tdir/traced.csv" > /dev/null; then
    echo "FAIL: --trace-out changed the figure CSV" >&2
    diff "$tdir/plain.csv" "$tdir/traced.csv" >&2 || true
    exit 1
fi
echo "tracing does not perturb the CSV"
# …every trace line must parse, and the per-level hit counts derived
# from raw probe events must match the manifest's statistics exactly.
./target/release/analyze "$tdir/trace.jsonl" --manifest "$tdir/manifest.json" \
    --check-hits --out "$tdir/trace.A.json" > "$tdir/dump.txt"
grep -q "check-hits: per-level hit counts match" "$tdir/dump.txt"
echo "trace parses; trace-derived hit levels match the manifest"

echo "== telemetry cross-check: fig15 + fig24 traces vs manifests =="
for fig in fig15_miss_rate fig24_design_sweep; do
    $FIG "$fig" --scale ci \
        --trace-out "$tdir/$fig.jsonl" --metrics-out "$tdir/$fig.manifest.json" \
        > /dev/null
    ./target/release/analyze "$tdir/$fig.jsonl" --manifest "$tdir/$fig.manifest.json" \
        --check-hits --out "$tdir/$fig.A.json" > "$tdir/$fig.dump.txt"
    grep -q "check-hits: per-level hit counts match" "$tdir/$fig.dump.txt"
    echo "$fig: trace-derived hit levels match the manifest"
done
# Negative control: a corrupted trace (one forged probe hit, carrying
# every field the writer emits so it parses) must make analyze exit 1,
# or the checks above prove nothing.
cp "$tdir/fig15_miss_rate.jsonl" "$tdir/forged.jsonl"
printf '%s\n' '{"ev":"ix_probe","run":"scan","design":"metal-ix","shard":0,"at":0,"index":0,"key":0,"set":0,"level":0,"hit":true,"scan":false,"short_circuit":1,"entry":0}' \
    >> "$tdir/forged.jsonl"
set +e
./target/release/analyze "$tdir/forged.jsonl" --manifest "$tdir/fig15_miss_rate.manifest.json" \
    --check-hits --out "$tdir/forged.A.json" > "$tdir/forged.txt"
rc=$?
set -e
if [ "$rc" -ne 1 ]; then
    echo "FAIL: analyze should exit 1 on a forged trace/manifest mismatch, got $rc" >&2
    exit 1
fi
grep -q "MISMATCH" "$tdir/forged.txt"
echo "negative control: forged trace fails check-hits with exit 1"
# Second negative control: a forged admission event leaves the hit counts
# intact but must trip the reason-counter diff re-derived from the trace.
cp "$tdir/fig15_miss_rate.jsonl" "$tdir/forged_reason.jsonl"
printf '%s\n' '{"ev":"insert","run":"scan","design":"metal-ix","shard":0,"at":0,"index":0,"level":0,"set":0,"life":64,"reason":"node-level"}' \
    >> "$tdir/forged_reason.jsonl"
set +e
./target/release/analyze "$tdir/forged_reason.jsonl" \
    --manifest "$tdir/fig15_miss_rate.manifest.json" \
    --check-hits --out "$tdir/forged_reason.A.json" > "$tdir/forged_reason.txt"
rc=$?
set -e
if [ "$rc" -ne 1 ]; then
    echo "FAIL: analyze should exit 1 on a forged insert-reason counter, got $rc" >&2
    exit 1
fi
grep -q "MISMATCH inserts_by_reason" "$tdir/forged_reason.txt"
echo "negative control: forged reason counter fails check-reasons with exit 1"
# Third negative control: a truncated line (a writer killed mid-line)
# is a malformed trace, not a short one: analyze must exit 2 naming the
# file and line, never panic and never skip it.
sed '1000s/.\{10\}$//' "$tdir/fig15_miss_rate.jsonl" > "$tdir/truncated.jsonl"
set +e
./target/release/analyze "$tdir/truncated.jsonl" --out "$tdir/truncated.A.json" \
    > /dev/null 2> "$tdir/truncated.txt"
rc=$?
set -e
if [ "$rc" -ne 2 ]; then
    echo "FAIL: a truncated trace line should exit 2 (usage/IO), got $rc" >&2
    cat "$tdir/truncated.txt" >&2
    exit 1
fi
grep -q "truncated.jsonl: line 1000: bad JSON" "$tdir/truncated.txt"
echo "negative control: truncated trace line fails with exit 2 naming file and line"

echo "== forensics: analyze the fig15 trace + schema gate =="
# The offline analyzer must digest the ci-scale fig15 trace into a
# schema-valid, conservation-checked ANALYSIS.json and an HTML report.
./target/release/analyze "$tdir/fig15_miss_rate.jsonl" \
    --manifest "$tdir/fig15_miss_rate.manifest.json" \
    --out "$tdir/ANALYSIS.json" --html "$tdir/ANALYSIS.html" > "$tdir/analyze.txt"
grep -q "analyze: wrote" "$tdir/analyze.txt"
./target/release/analyze --validate "$tdir/ANALYSIS.json"
grep -q "<svg" "$tdir/ANALYSIS.html"
echo "fig15 trace analyzed; ANALYSIS.json passes the schema/conservation gate"

echo "== examples: all build, quickstart runs, run_figures.sh --dry-run =="
# The examples are documentation that must keep compiling; quickstart is
# cheap enough to actually execute. The figure script's dry-run checks
# that `fig` knows every figure it names, without touching results/.
cargo build --release --examples
./target/release/examples/quickstart > /dev/null
./run_figures.sh --dry-run > "$tdir/dryrun.txt"
grep -q "ALL_DONE" "$tdir/dryrun.txt"
echo "examples compile and quickstart runs; run_figures.sh --dry-run reaches ALL_DONE"

echo "== differential verification: fuzz smoke + figure cross-check =="
# Debug build on purpose: overflow checks armed, and 600 cases take
# seconds. Zero divergences required; failures land minimized repros in
# crates/verify/corpus/ (replayed by the corpus_replay test above).
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
# The --verify flag cross-checks a subsample of every figure workload
# against the reference accounting model, without touching the CSV.
$FIG fig15_miss_rate --scale ci --verify > "$tdir/verify.csv" 2> /dev/null
$FIG fig15_miss_rate --scale ci > "$tdir/plain15.csv" 2> /dev/null
if ! diff -q "$tdir/plain15.csv" "$tdir/verify.csv" > /dev/null; then
    echo "FAIL: --verify changed the figure CSV" >&2
    exit 1
fi
echo "--verify passes and leaves the CSV byte-identical"

echo "== mutation sweep: write-ratio invariants + forged-stale-hit control =="
# The CRUD sweep must keep result/structural counters design-invariant
# (the figure aborts otherwise) and its trace over every write ratio
# must reconcile with the manifest exactly, invalidations included.
$FIG fig_write_sweep --scale ci \
    --trace-out "$tdir/wsweep.jsonl" --metrics-out "$tdir/wsweep.manifest.json" \
    > "$tdir/wsweep.csv"
./target/release/analyze "$tdir/wsweep.jsonl" --manifest "$tdir/wsweep.manifest.json" \
    --check-hits --out "$tdir/wsweep.A.json" > "$tdir/wsweep.dump.txt"
grep -q "check-hits: per-level hit counts match" "$tdir/wsweep.dump.txt"
echo "mutated run: trace-derived hit levels match the manifest"
# Negative control: hand-corrupt the mutated trace by forging one probe
# miss into a stale hit. check-hits must fail, or the reconciliation
# above proves nothing about the invalidation protocol.
sed '0,/"hit":false/s//"hit":true/' "$tdir/wsweep.jsonl" > "$tdir/wsweep_forged.jsonl"
set +e
./target/release/analyze "$tdir/wsweep_forged.jsonl" --manifest "$tdir/wsweep.manifest.json" \
    --check-hits --out "$tdir/wsweep_forged.A.json" > "$tdir/wsweep_forged.txt"
rc=$?
set -e
if [ "$rc" -ne 1 ]; then
    echo "FAIL: analyze should exit 1 on a forged stale hit in a mutated trace, got $rc" >&2
    exit 1
fi
grep -q "MISMATCH" "$tdir/wsweep_forged.txt"
echo "negative control: forged stale hit fails check-hits with exit 1"

echo "== time-resolved telemetry: window conservation + shard invariance =="
# Epoch-windowed series (--epoch): per-window counters must sum exactly
# to the whole-run aggregates (analyze --validate enforces the
# conservation), the series must be byte-identical across worker
# counts, and windowing must not perturb the figure CSV.
$FIG fig15_miss_rate --scale ci --shards 1 --epoch walks:512 \
    --analyze-out "$tdir/A_series.json" --series-out "$tdir/S1.json" \
    > "$tdir/f15_series1.csv" 2> /dev/null
$FIG fig15_miss_rate --scale ci --shards 4 --epoch walks:512 \
    --series-out "$tdir/S4.json" > "$tdir/f15_series4.csv" 2> /dev/null
if ! diff -q "$tdir/plain15.csv" "$tdir/f15_series1.csv" > /dev/null; then
    echo "FAIL: --epoch/--series-out changed the figure CSV" >&2
    diff "$tdir/plain15.csv" "$tdir/f15_series1.csv" >&2 || true
    exit 1
fi
echo "windowed telemetry does not perturb the CSV"
if ! diff -q "$tdir/S1.json" "$tdir/S4.json" > /dev/null; then
    echo "FAIL: telemetry series differs between shards=1 and shards=4" >&2
    diff "$tdir/S1.json" "$tdir/S4.json" >&2 || true
    exit 1
fi
echo "series byte-identical across worker counts"
./target/release/analyze --validate "$tdir/A_series.json"
echo "window sums conserve against whole-run aggregates"
# Negative control: perturb one per-window counter ("walks" appears
# only inside series windows; whole-run aggregates key on "walk_end")
# and the conservation gate must go red, or it proves nothing.
sed '0,/"walks":[0-9]*/s//"walks":9999999/' "$tdir/A_series.json" \
    > "$tdir/A_forged.json"
if ./target/release/analyze --validate "$tdir/A_forged.json" 2> /dev/null; then
    echo "FAIL: analyze --validate passed a forged window counter" >&2
    exit 1
fi
echo "negative control: forged window counter fails validation with nonzero exit"
# The fig15 series fires no watchdog, so the alert gate passes it too.
./target/release/analyze --validate "$tdir/A_series.json" --deny-alerts
echo "fig15 series: no watchdog alerts"

echo "== watchdogs + flight recorder: drift-hotspot alerts, flight dump, hostile trace =="
# The drifting hotspot trips the watchdogs: its analysis must validate,
# fail the alert gate with exit 1, and its flight dump (rings that
# dropped earlier events) must be summarized, not rejected.
$FIG fig_drift_hotspot --scale ci --epoch walks:512 \
    --analyze-out "$tdir/A_drift.json" --flight-out "$tdir/flight.jsonl" \
    > /dev/null 2> /dev/null
./target/release/analyze --validate "$tdir/A_drift.json"
set +e
./target/release/analyze --validate "$tdir/A_drift.json" --deny-alerts 2> "$tdir/deny.txt"
rc=$?
set -e
if [ "$rc" -ne 1 ]; then
    echo "FAIL: --deny-alerts should exit 1 on the drift-hotspot alerts, got $rc" >&2
    exit 1
fi
grep -q "watchdog alert(s) present" "$tdir/deny.txt"
echo "drift-hotspot alerts fail --deny-alerts with exit 1"
./target/release/analyze "$tdir/flight.jsonl" > "$tdir/flight.txt"
grep -q "flight dump dropped [1-9][0-9]* earlier events" "$tdir/flight.txt"
echo "flight dump analyzed; the dropped events are reported"
# Negative control: one line of 200 000 open brackets must be a
# malformed line (exit 2 naming file and line), not a stack overflow.
head -c 200000 /dev/zero | tr '\0' '[' > "$tdir/nested.jsonl"
echo >> "$tdir/nested.jsonl"
set +e
./target/release/analyze "$tdir/nested.jsonl" --out "$tdir/nested.A.json" \
    > /dev/null 2> "$tdir/nested.txt"
rc=$?
set -e
if [ "$rc" -ne 2 ]; then
    echo "FAIL: a deeply nested trace line should exit 2 (usage/IO), got $rc" >&2
    cat "$tdir/nested.txt" >&2
    exit 1
fi
grep -q "nested.jsonl: line 1: bad JSON" "$tdir/nested.txt"
echo "negative control: deeply nested trace line fails with exit 2 naming file and line"

echo "== native execution: measured telemetry + out-of-core gate =="
# fig_native checks every sim/native row pair in-process (exit 1 on a
# divergence); its ci-scale CSV is pinned by the golden figure test.
# Measured telemetry: a traced native run must pass the same
# schema/conservation gate as the simulator traces, and the HTML report
# must carry the measured-vs-modeled table.
$FIG fig_native --scale ci \
    --trace-out "$tdir/native.jsonl" --metrics-out "$tdir/native.manifest.json" \
    > /dev/null 2> /dev/null
./target/release/analyze "$tdir/native.jsonl" \
    --manifest "$tdir/native.manifest.json" \
    --out "$tdir/NATIVE.json" --html "$tdir/NATIVE.html" > /dev/null
./target/release/analyze --validate "$tdir/NATIVE.json"
grep -q "Measured vs modeled" "$tdir/NATIVE.html"
echo "native trace passes the conservation gate; HTML has the measured table"
# Out-of-core round trip: persist the trees as block files, reopen and
# re-walk them, then corrupt one page — the reload must die with a
# contextful error and exit 2 (usage/IO), not a panic or a wrong answer.
$FIG fig_native --scale ci --store "$tdir/blocks" > /dev/null 2> /dev/null
$FIG fig_native --scale ci --load "$tdir/blocks" > /dev/null 2> /dev/null
echo "block files persist and reopen; re-walks agree with the in-memory build"
blk=$(ls "$tdir"/blocks/*.blk | head -1)
printf 'XXXXXXXX' | dd of="$blk" bs=1 seek=4096 conv=notrunc 2> /dev/null
set +e
$FIG fig_native --scale ci --load "$tdir/blocks" \
    > /dev/null 2> "$tdir/load_err.txt"
rc=$?
set -e
if [ "$rc" -ne 2 ]; then
    echo "FAIL: corrupted block file should exit 2 (usage/IO), got $rc" >&2
    cat "$tdir/load_err.txt" >&2
    exit 1
fi
grep -q "error: --load .*corrupted" "$tdir/load_err.txt"
echo "negative control: corrupted page fails --load with exit 2 and a contextful error"

echo "== MLP window: width-1 identity =="
# --mlp-width 1 must be the serial pre-MLP engine bit for bit: an
# explicit width-1 run of a figure is byte-identical to a plain one.
$FIG fig18_speedup --scale ci > "$tdir/f18_plain.csv" 2> /dev/null
$FIG fig18_speedup --scale ci --mlp-width 1 > "$tdir/f18_w1.csv" 2> /dev/null
if ! diff -q "$tdir/f18_plain.csv" "$tdir/f18_w1.csv" > /dev/null; then
    echo "FAIL: --mlp-width 1 changed the fig18 CSV" >&2
    diff "$tdir/f18_plain.csv" "$tdir/f18_w1.csv" >&2 || true
    exit 1
fi
echo "--mlp-width 1 leaves the figure CSV byte-identical"

echo "== cycle accounting: traced fig_breakdown + conservation forge =="
# fig_breakdown decomposes every simulated cycle into the five
# attribution components (ix_probe/compute/queue/stall/hidden) and
# re-checks the partition identity on every row before printing it; its
# ci-scale CSV is pinned by the golden figure test.
$FIG fig_breakdown --scale ci > "$tdir/breakdown.csv" 2> /dev/null
# A traced, windowed run must leave the CSV byte-identical (telemetry
# stays observe-only) and produce an ANALYSIS.json whose breakdown
# sections pass the conservation rows: components sum to the walk
# latencies, the busiest lane reconciles with the exec horizon, and the
# per-epoch cycle columns sum to the section totals.
$FIG fig_breakdown --scale ci --epoch walks:512 \
    --trace-out "$tdir/bkdn.jsonl" --metrics-out "$tdir/bkdn.manifest.json" \
    > "$tdir/breakdown_traced.csv" 2> /dev/null
if ! diff -q "$tdir/breakdown.csv" "$tdir/breakdown_traced.csv" > /dev/null; then
    echo "FAIL: tracing changed the fig_breakdown CSV" >&2
    diff "$tdir/breakdown.csv" "$tdir/breakdown_traced.csv" >&2 || true
    exit 1
fi
echo "tracing does not perturb the breakdown CSV"
./target/release/analyze "$tdir/bkdn.jsonl" \
    --manifest "$tdir/bkdn.manifest.json" --out "$tdir/BKDN.json" > "$tdir/bkdn.txt"
./target/release/analyze --validate "$tdir/BKDN.json"
grep -q '"schema":"metal-breakdown-v1"' "$tdir/BKDN.json"
echo "breakdown conservation rows validate on a traced run"
# The offline reducer must render the same attribution from raw events.
grep -q "cycles attributed" "$tdir/bkdn.txt"
echo "analyze renders the attribution table"
# Negative control: inflate the first design's stall component; the
# validator must go red naming the broken partition identity, or the
# conservation rows above prove nothing.
sed '0,/"stall":{"cycles":[0-9]*/s//"stall":{"cycles":99999999/' "$tdir/BKDN.json" \
    > "$tdir/BKDN_forged.json"
if ./target/release/analyze --validate "$tdir/BKDN_forged.json" \
    2> "$tdir/bkdn_forged.txt"; then
    echo "FAIL: analyze --validate passed a forged stall component" >&2
    exit 1
fi
grep -q "components sum to" "$tdir/bkdn_forged.txt"
echo "negative control: inflated stall cycles fail validation naming the identity"

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
