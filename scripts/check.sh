#!/usr/bin/env bash
# Local pre-PR gate: release build, full test suite, docs and lints
# with warnings denied. Run from the repository root. Any extra
# arguments (e.g. --offline) are forwarded to every cargo invocation.
set -euo pipefail

EXTRA=("$@")

run() {
    echo "==> $*"
    "$@"
}

run cargo build --workspace --release "${EXTRA[@]+"${EXTRA[@]}"}"
run cargo test --workspace --exclude fupermod-runtime -q "${EXTRA[@]+"${EXTRA[@]}"}"
# The criterion benches that remain (subjects the benchmark harness
# has no per-layer row for — see docs/PERFORMANCE.md) must at least
# compile.
run cargo bench --workspace --no-run -q "${EXTRA[@]+"${EXTRA[@]}"}"
# The kernel numerical-identity tests (gemm_parallel vs blocked/naive)
# are fast and worth re-running with optimisations on: release codegen
# reorders float work more aggressively than dev profile does.
run cargo test --release -p fupermod-kernels -q "${EXTRA[@]+"${EXTRA[@]}"}"
# Store step: the cached-partition path is pinned by what it allocates
# (at most two allocations per member to parse, a constant number to
# answer from the plan cache — crates/store/tests/hit_path_allocs.rs),
# a count a noisy host cannot blur the way it blurs the serve_read
# timing below. Release codegen: that is what the daemon runs.
run cargo test --release -p fupermod-store --test hit_path_allocs -q "${EXTRA[@]+"${EXTRA[@]}"}"
# A plan-cache miss shares the member models instead of cloning them, so
# it allocates the same number of times at 8, 64 and 256 members
# (crates/store/tests/miss_path_allocs.rs).
run cargo test --release -p fupermod-store --test miss_path_allocs -q "${EXTRA[@]+"${EXTRA[@]}"}"
# Numerical step: the partitioner's Newton loop allocates once per
# solve, not per process or iteration (crates/core/tests/numerical_allocs.rs),
# and its structured step solve replays solve_dense bit for bit or
# declines (crates/num/tests/structured_solve.rs) — in the release
# codegen the harness measures, where the optimiser is free to reorder
# anything the language lets it.
run cargo test --release -p fupermod-core --test numerical_allocs -q "${EXTRA[@]+"${EXTRA[@]}"}"
# Geometric step: on the offline_fpm probe shape every call makes the
# pinned outer comparisons and model evaluations, no more evaluations
# than before restarted descents resumed at their divergence level, and
# steps at most two levels per evaluation
# (crates/core/tests/geometric_steps.rs) — counts, not timings. The
# ignored sweep holds 50 000 small and 1 000 large drawn partitions to
# the oracle in crates/core/src/partition/geometric.rs (≈ 7 s).
run cargo test --release -p fupermod-core --test geometric_steps -q "${EXTRA[@]+"${EXTRA[@]}"}"
run cargo test --release -p fupermod-core --lib -q "${EXTRA[@]+"${EXTRA[@]}"}" -- --ignored
run cargo test --release -p fupermod-num --test structured_solve -q "${EXTRA[@]+"${EXTRA[@]}"}"
# The runtime's collective/fault tests — including the hub/ring/tree
# collective-parity suite (crates/runtime/tests/parity.rs) — spawn one
# thread per rank and assert on wall-clock deadlines; run them
# single-threaded so parallel test scheduling cannot starve a rank,
# and bound the whole suite (the workspace pass above excludes it).
run timeout 300 cargo test -p fupermod-runtime "${EXTRA[@]+"${EXTRA[@]}"}" -- --test-threads=1
# Tracetool gate: a traced end-to-end run must merge, report and
# schema-validate (the observability layer's contract — see
# docs/OBSERVABILITY.md §8). Uses the release binaries built above.
TRACE_TMP="$(mktemp -d)"
trap 'rm -rf "$TRACE_TMP"' EXIT
run env FUPERMOD_TRACE_DIR="$TRACE_TMP" \
    ./target/release/fupermod_experiment exp2_dynamic_cost --quick --runtime sim
TRACE_FILE="$TRACE_TMP/exp2_dynamic_cost.trace.jsonl"
run ./target/release/fupermod_tracetool merge "$TRACE_FILE" \
    --out "$TRACE_TMP/merged.jsonl"
run ./target/release/fupermod_tracetool report "$TRACE_TMP/merged.jsonl" \
    --json --out "$TRACE_TMP/summary.json"
run ./target/release/fupermod_tracetool validate \
    --schema scripts/tracetool_schema.json "$TRACE_TMP/summary.json"
run ./target/release/fupermod_tracetool export "$TRACE_FILE" \
    --format chrome --out "$TRACE_TMP/chrome.json"
# CSV is an export of the JSONL trace (docs/OBSERVABILITY.md §2.2):
# schema comment, header row, and every row as wide as the header.
run ./target/release/fupermod_tracetool export "$TRACE_FILE" \
    --format csv --out "$TRACE_TMP/trace.csv"
awk -F, 'NR == 1 { if ($0 !~ /^# fupermod-trace schema=[0-9]+$/) exit 1; next }
         NR == 2 { cols = NF; next }
         NF != cols { exit 1 }
         END { if (NR < 3) exit 1 }' "$TRACE_TMP/trace.csv" \
    || { echo "export --format csv wrote a malformed or ragged table" >&2; exit 1; }
# Live-tail parity: following the (already complete) trace until idle
# must print exactly the sequence the batch merge produces
# (docs/OBSERVABILITY.md §9).
run ./target/release/fupermod_tracetool tail "$TRACE_FILE" \
    --idle-exit 1 --stats-every 0 --out "$TRACE_TMP/tailed.jsonl"
run diff "$TRACE_TMP/merged.jsonl" "$TRACE_TMP/tailed.jsonl"
# Event-engine scale smoke: the discrete-event interpreter must drive
# a traced p = 10 000 balancing run through the same observability
# contract as the thread backend — exp2's dynamic leg at scale, then
# tracetool merge/report/validate on the result (docs/RUNTIME.md §9).
# Bounded: the run takes single-digit seconds; a hang is a regression.
run env FUPERMOD_TRACE_DIR="$TRACE_TMP/event" \
    timeout 120 ./target/release/fupermod_experiment exp2_dynamic_cost --quick \
    --ranks 10000 --sim-engine event
EVENT_TRACE="$TRACE_TMP/event/exp2_dynamic_cost.trace.jsonl"
run ./target/release/fupermod_tracetool merge "$EVENT_TRACE" \
    --out "$TRACE_TMP/event_merged.jsonl"
run ./target/release/fupermod_tracetool report "$TRACE_TMP/event_merged.jsonl" \
    --json --out "$TRACE_TMP/event_summary.json"
run ./target/release/fupermod_tracetool validate \
    --schema scripts/tracetool_schema.json "$TRACE_TMP/event_summary.json"
# Overlap gate: on a fault-free sim plan the pipelined (ibcast
# double-buffered) matmul must produce a product **bit-identical** to
# the blocking schedule — the request API's drop-in contract (see
# docs/RUNTIME.md §8). The checksum lines are diffed; timing lines are
# not (the makespans legitimately differ — that is the point).
run ./target/release/fupermod_simulate \
    --app matmul --pipeline blocking --runtime sim --size 8 \
    | grep '^product checksum:' > "$TRACE_TMP/matmul_blocking.txt"
run ./target/release/fupermod_simulate \
    --app matmul --pipeline overlapped --runtime sim --size 8 \
    | grep '^product checksum:' > "$TRACE_TMP/matmul_overlapped.txt"
run diff "$TRACE_TMP/matmul_blocking.txt" "$TRACE_TMP/matmul_overlapped.txt"
# Multi-process transport gate: a 4-process localhost TCP run of the
# balance app must print output byte-identical to the single-process
# threaded run (bit-identical final partitions), and the per-process
# trace files must stitch into one causally ordered timeline that
# passes schema validation (docs/RUNTIME.md §10).
TCP_DIR="$TRACE_TMP/tcp"
mkdir -p "$TCP_DIR"
echo "==> tcp gate: single-process reference run"
./target/release/fupermod_simulate --app balance --platform two-speed \
    --ranks 4 --seed 7 --size 20000 > "$TCP_DIR/reference.txt"
TCP_PORT=$((20000 + $$ % 20000))
declare -a TCP_PIDS=()
for r in 1 2 3; do
    timeout 120 ./target/release/fupermod_simulate --app balance \
        --platform two-speed --ranks 4 --seed 7 --size 20000 \
        --transport tcp --rank-id "$r" --world 4 \
        --rendezvous "127.0.0.1:$TCP_PORT" --trace-dir "$TCP_DIR" &
    TCP_PIDS[$r]=$!
done
echo "==> tcp gate: 4-process localhost run (rank 0 foreground, port $TCP_PORT)"
timeout 120 ./target/release/fupermod_simulate --app balance \
    --platform two-speed --ranks 4 --seed 7 --size 20000 \
    --transport tcp --rank-id 0 --world 4 \
    --rendezvous "127.0.0.1:$TCP_PORT" --trace-dir "$TCP_DIR" \
    > "$TCP_DIR/rank0.txt"
for r in 1 2 3; do wait "${TCP_PIDS[$r]}"; done
run diff "$TCP_DIR/reference.txt" "$TCP_DIR/rank0.txt"
run ./target/release/fupermod_tracetool merge \
    "$TCP_DIR"/fupermod_simulate.rank*.trace.jsonl \
    --out "$TCP_DIR/tcp_merged.jsonl"
run ./target/release/fupermod_tracetool report "$TCP_DIR/tcp_merged.jsonl" \
    --json --out "$TCP_DIR/tcp_summary.json"
run ./target/release/fupermod_tracetool validate \
    --schema scripts/tracetool_schema.json "$TCP_DIR/tcp_summary.json"
# Harness gate: the benchmark's two TCP workloads check TCP == threads
# == sim (fingerprint and virtual time) on the optimised bulk path, its
# two partitioning workloads check the measure -> model -> partition
# path against goldens (sizes fingerprint, the 8 balancing steps and
# the bits of the simulated time), its two serving workloads drive
# the daemon's request parser and check every response against the
# offline solve, app_thread pins the partitioned matmul (blocking and
# overlapped) and Jacobi on two threaded ranks — the guard for any
# change to the runtime's collectives — and sim_collectives the event
# engine's virtual time at p = 100 000, all in release codegen. One
# second each; the last stdout line must report a correct run with no
# failed operation (benchmark/README.md).
for workload in tcp_bulk tcp_rounds offline_fpm sim_balance serve_read serve_ingest \
    app_thread sim_collectives; do
    echo "==> harness gate: $workload"
    timeout 300 cargo run --release --quiet --offline \
        --manifest-path benchmark/Cargo.toml -- \
        --workload "$workload" --seed 1 --seconds 1 --trace 0 \
        | tail -n 1 > "$TCP_DIR/harness_$workload.json"
    grep -q '"correct": true' "$TCP_DIR/harness_$workload.json" \
        && grep -q '"failed": 0' "$TCP_DIR/harness_$workload.json" \
        || { echo "harness workload $workload failed its checks:" >&2
             cat "$TCP_DIR/harness_$workload.json" >&2; exit 1; }
done
# Serving gate: the partitioning-as-a-service daemon (fupermod_served,
# docs/SERVE.md) must accept concurrent clients streaming model points
# and answer a partition query **byte-identical** to the offline
# fupermod_builder + fupermod_partitioner pipeline over the same
# points, then shut down cleanly — all under a timeout so a wedged
# accept loop is a failure, not a hang.
SERVE_DIR="$TRACE_TMP/serve"
mkdir -p "$SERVE_DIR"
run ./target/release/fupermod_builder --platform two-speed --points 8 \
    --lo 64 --hi 8192 --out "$SERVE_DIR/models" > /dev/null
echo "==> serve gate: offline reference partition"
./target/release/fupermod_partitioner --models "$SERVE_DIR/models" \
    --total 20000 --algorithm numerical --model akima \
    > "$SERVE_DIR/offline.txt"
echo "==> serve gate: daemon + concurrent ingest clients + live /metrics"
timeout 120 ./target/release/fupermod_served --mode serve \
    --listen 127.0.0.1:0 --metrics-listen 127.0.0.1:0 \
    > "$SERVE_DIR/daemon.out" 2>/dev/null &
SERVE_PID=$!
for _ in $(seq 100); do
    grep -q '^listening on ' "$SERVE_DIR/daemon.out" && break
    sleep 0.1
done
SERVE_ADDR=$(sed -n 's/^listening on //p' "$SERVE_DIR/daemon.out")
[ -n "$SERVE_ADDR" ] || { echo "daemon never announced its address" >&2; exit 1; }
METRICS_ADDR=$(sed -n 's/^metrics on //p' "$SERVE_DIR/daemon.out")
[ -n "$METRICS_ADDR" ] || { echo "daemon never announced its metrics address" >&2; exit 1; }
run timeout 60 ./target/release/fupermod_served --mode scrape \
    --connect "$METRICS_ADDR" --path /healthz
run timeout 60 ./target/release/fupermod_served --mode scrape \
    --connect "$METRICS_ADDR" --path /readyz
declare -a SERVE_PIDS=()
i=0
for f in "$SERVE_DIR"/models/*.points; do
    timeout 60 ./target/release/fupermod_served --mode ingest \
        --connect "$SERVE_ADDR" --points "$f" \
        --fingerprint "$(basename "$f")" > "$SERVE_DIR/client_$i.out" &
    SERVE_PIDS[$i]=$!
    i=$((i + 1))
done
# Scrape the health endpoints while the ingest clients are running:
# the observability plane must answer during load, not just at rest.
timeout 60 ./target/release/fupermod_served --mode scrape \
    --connect "$METRICS_ADDR" --path /healthz > /dev/null
timeout 60 ./target/release/fupermod_served --mode scrape \
    --connect "$METRICS_ADDR" --path /metrics > /dev/null
for pid in "${SERVE_PIDS[@]}"; do wait "$pid"; done
FPS=$(cd "$SERVE_DIR/models" && ls -- *.points | paste -sd, -)
echo "==> serve gate: partition query against the warm daemon"
timeout 60 ./target/release/fupermod_served --mode partition \
    --connect "$SERVE_ADDR" --fingerprints "$FPS" \
    --total 20000 --algorithm numerical > "$SERVE_DIR/served.txt" 2>/dev/null
run diff "$SERVE_DIR/offline.txt" "$SERVE_DIR/served.txt"
echo "==> serve gate: exposition parses and counters match client totals"
timeout 60 ./target/release/fupermod_served --mode scrape \
    --connect "$METRICS_ADDR" --path /metrics > "$SERVE_DIR/metrics.txt"
python3 - "$SERVE_DIR" <<'PY'
import glob, re, sys

serve_dir = sys.argv[1]
text = open(f"{serve_dir}/metrics.txt", encoding="utf-8").read()

# Every non-comment line must parse as `name{labels} value`.
sample = re.compile(
    r'^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"'
    r'(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})? '
    r"(-?[0-9.eE+-]+|\+Inf|-Inf|NaN)$"
)
lines = [l for l in text.splitlines() if l and not l.startswith("#")]
if not lines:
    sys.exit("no samples in /metrics output")
for l in lines:
    if not sample.match(l):
        sys.exit(f"unparsable exposition line: {l!r}")

def counter_total(name, **labels):
    total = 0
    for l in lines:
        if not l.startswith(name):
            continue
        head, value = l.rsplit(" ", 1)
        if all(f'{k}="{v}"' in head for k, v in labels.items()):
            total += int(float(value))
    return total

# Each client printed `ingested N points ...`; every point was one
# ingest_point request, so the ok-counter must equal the client total.
expected = 0
for path in glob.glob(f"{serve_dir}/client_*.out"):
    for line in open(path, encoding="utf-8"):
        m = re.match(r"^ingested (\d+) points", line)
        if m:
            expected += int(m.group(1))
if expected == 0:
    sys.exit("ingest clients reported no points — gate is vacuous")
got = counter_total("served_requests_total", op="ingest_point", outcome="ok")
if got != expected:
    sys.exit(f"served_requests_total[ingest_point,ok] = {got}, clients sent {expected}")
if counter_total("served_requests_total", op="partition", outcome="ok") < 1:
    sys.exit("partition request not counted")
if counter_total("served_requests_total", outcome="error") != 0:
    sys.exit("unexpected error-outcome requests during the gate")
print(f"exposition ok: {len(lines)} samples, "
      f"{got} ingest_point requests matched the client total")
PY
# The protocol `stats` op must read the same registry snapshot the
# exposition serves (one source of truth), including uptime.
timeout 60 ./target/release/fupermod_served --mode stats \
    --connect "$SERVE_ADDR" > "$SERVE_DIR/stats.txt"
grep -q '^uptime_seconds ' "$SERVE_DIR/stats.txt" \
    || { echo "stats output missing uptime_seconds" >&2; exit 1; }
run timeout 60 ./target/release/fupermod_served --mode shutdown \
    --connect "$SERVE_ADDR"
wait "$SERVE_PID"
# After shutdown the observability plane must be gone with the daemon:
# a scrape that still succeeds means the listener out-lived serve().
if timeout 10 ./target/release/fupermod_served --mode scrape \
    --connect "$METRICS_ADDR" --path /readyz > /dev/null 2>&1; then
    echo "metrics listener still answering after shutdown" >&2
    exit 1
fi
# The runtime crate must also be clippy-clean on its own — including
# the discrete-event simulator (`src/sim/`), whose hot dispatch loop
# is exactly where sloppy clones and needless collects would hide.
# (The workspace pass below covers it too, but a targeted run keeps
# these lints enforced even when other crates are temporarily excluded
# from a gate.)
run cargo clippy -p fupermod-runtime --all-targets "${EXTRA[@]+"${EXTRA[@]}"}" -- -D warnings
RUSTDOCFLAGS="-D warnings" run cargo doc --workspace --no-deps -q "${EXTRA[@]+"${EXTRA[@]}"}"
run cargo clippy --workspace --all-targets "${EXTRA[@]+"${EXTRA[@]}"}" -- -D warnings

echo "==> all checks passed"
