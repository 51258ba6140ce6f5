#!/usr/bin/env bash
# The one command, wrapped: builds the benchmark package and runs it.
#
#   benchmark/run.sh --seed 7            every workload, untraced + traced (~4 min)
#   benchmark/run.sh --smoke             same code, sizes / 20 (~10 s)
#   benchmark/run.sh --agree A.json B.json
#   benchmark/run.sh --workload scan --seed 3 --seconds 20 --trace 0
#
# Each workload runs in a process of its own; the merged JSON document is
# the last line of stdout and is also written to benchmark/out/results.json.
# The build goes into the repository's own target/ (unless CARGO_TARGET_DIR
# says otherwise), so the crates under test are not compiled a second time.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
exec cargo run --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" \
    --target-dir "${CARGO_TARGET_DIR:-$here/../target}" \
    -- "$@"
