#!/usr/bin/env bash
# Re-blesses the paper's figures and experiments, the rows of
# fupermod_bench::experiments::ALL that tests/figures.rs gates: writes
# OUT/<name>.csv and OUT/<name>.log for every row, its trace to
# OUT/traces/, and OUT/traces.sha256 with the digests of the traced,
# deterministic rows. Run from the repository root; OUT defaults to
# results.
set -euo pipefail

OUT=${1:-results}
mkdir -p "$OUT/traces"

cargo build --release --bin fupermod_experiment
RUN=./target/release/fupermod_experiment

for name in $($RUN list | cut -f1); do
    echo "== $name"
    $RUN "$name" --trace-dir "$OUT/traces" > "$OUT/$name.csv" 2> "$OUT/$name.log" || {
        echo "FAILED: $name (see $OUT/$name.log)"; exit 1;
    }
done
DIGESTED=$($RUN list | awk -F'\t' '$3 == "traced" { print $1 ".trace.jsonl" }' | sort)
(cd "$OUT/traces" && sha256sum $DIGESTED) > "$OUT/traces.sha256"
echo "all experiments written to $OUT/"
