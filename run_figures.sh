#!/bin/bash
# Regenerates every figure/table CSV into results/ with the `fig` driver.
# Usage: ./run_figures.sh [--dry-run] [--scale bench]
#   --dry-run   build `fig` once, check that it knows every figure named
#               here and print the command each would run, without
#               writing anything to results/. ci.sh uses this to keep the
#               script honest.
set -u
DRY=0
PASS=()
for a in "$@"; do
  case "$a" in
    --dry-run) DRY=1 ;;
    *) PASS+=("$a") ;;
  esac
done
ARGS="${PASS[@]:---scale bench}"
cargo build --release -q -p metal-bench --bin fig || exit 1
FIG=target/release/fig

# run_fig NAME ARGS... — one figure into results/NAME.csv, or (dry-run)
# a check that `fig` knows NAME plus the command that would have run.
run_fig() {
  local name="$1"
  shift
  echo "=== $name ==="
  if [ "$DRY" -eq 1 ]; then
    "$FIG" "$name" --help > /dev/null || exit 1
    echo "would run: $FIG $name $* > results/$name.csv"
  else
    "$FIG" "$name" "$@" > "results/$name.csv" || exit 1
  fi
}

# Single-configuration figures at full length.
for f in table2_setup fig15_miss_rate fig16_working_set fig17_walk_latency fig18_speedup fig19_dram_energy fig20_breakdown fig21_occupancy fig22_adaptivity fig25_energy table3_summary fig_write_sweep fig_native fig_mlp; do
  run_fig "$f" $ARGS
done
# Sweeps run many configurations; a shorter request stream per point keeps
# the whole sweep tractable without changing the trends.
for f in fig23_scaling fig23b_depth fig24_design_sweep abl_geometry abl_shared_private; do
  run_fig "$f" $ARGS --walks 15000
done
echo ALL_DONE
