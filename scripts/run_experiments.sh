#!/usr/bin/env bash
# Re-blesses the paper's figures and experiments, the rows of
# fupermod_bench::experiments::ALL that tests/figures.rs gates: writes
# OUT/<name>.csv for every row, its trace to OUT/traces/, and
# OUT/traces.sha256 with the digests of the traced, deterministic rows.
# Each row's stderr (its run summary) goes to
# target/experiments-logs/<name>.log, which nothing compares. Run from
# the repository root; OUT defaults to results.
set -euo pipefail

OUT=${1:-results}
LOGS=target/experiments-logs
mkdir -p "$OUT/traces" "$LOGS"

cargo build --release --bin fupermod_experiment
RUN=./target/release/fupermod_experiment

for name in $($RUN list | cut -f1); do
    echo "== $name"
    $RUN "$name" --trace-dir "$OUT/traces" > "$OUT/$name.csv" 2> "$LOGS/$name.log" || {
        echo "FAILED: $name (see $LOGS/$name.log)"; exit 1;
    }
done
DIGESTED=$($RUN list | awk -F'\t' '$3 == "traced" { print $1 ".trace.jsonl" }' | sort)
(cd "$OUT/traces" && sha256sum $DIGESTED) > "$OUT/traces.sha256"
echo "all experiments written to $OUT/"
