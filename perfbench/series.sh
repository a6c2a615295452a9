#!/usr/bin/env bash
# Runs the benchmark once per seed on each workload and appends one line per
# run to OUT, in the format `conzone-perfbench compare` reads:
#   {"workload": "...", "seed": N, "trace": 0|1, "result": {...}}
#
# usage: perfbench/series.sh OUT.jsonl SECONDS TRACE WORKLOAD[,WORKLOAD...] SEED...
# e.g.   perfbench/series.sh base.jsonl 30 0 syncwrite-gc,randread-page-1g 1 2 3 4 5
#
# Run it from the repository root. Build once first:
#   cargo build --release --manifest-path perfbench/Cargo.toml
set -euo pipefail

if [ "$#" -lt 5 ]; then
    sed -n '2,10p' "$0" >&2
    exit 2
fi
out=$1
seconds=$2
trace=$3
workloads=$4
shift 4

bin=${CARGO_TARGET_DIR:-perfbench/target}/release/conzone-perfbench
IFS=, read -r -a names <<<"$workloads"
for seed in "$@"; do
    for w in "${names[@]}"; do
        result=$("$bin" --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$trace" | tail -n 1)
        printf '{"workload":"%s","seed":%s,"trace":%s,"result":%s}\n' \
            "$w" "$seed" "$trace" "$result" >>"$out"
    done
done
