#!/usr/bin/env bash
# Local pre-PR gate for what tier-1 (`cargo build --release && cargo
# test -q`) cannot run: lints and rustdoc with warnings denied, the
# tests whose point is the release codegen, and the benchmark harness's
# correctness checks. Everything else is tier-1's: every crate's tests,
# the figures (tests/figures.rs) and the end-to-end gates
# (tests/cli_tools.rs). tests/one_definition.rs keeps this file so: no
# Python, no serialised test pass, no test run outside the release
# codegen. Run from the repository root. Any extra arguments (e.g.
# --offline) are forwarded to every cargo invocation.
set -euo pipefail

EXTRA=("$@")

run() {
    echo "==> $*"
    "$@"
}

run cargo clippy --workspace --all-targets "${EXTRA[@]+"${EXTRA[@]}"}" -- -D warnings
RUSTDOCFLAGS="-D warnings" run cargo doc --workspace --no-deps -q "${EXTRA[@]+"${EXTRA[@]}"}"
# The kernel bit-identity tests — every_tile_is_bitwise_naive (each
# register-tile instantiation this CPU runs, against gemm_naive, on
# ±0.0/±∞/NaN inputs) and the blocked ≡ naive proptest — run
# again in the release codegen the harness and the binaries use.
run cargo test --release -p fupermod-kernels -q "${EXTRA[@]+"${EXTRA[@]}"}"
# Counts and bit-identities that hold for the release codegen, which
# the daemon and the harness run and where the optimiser is free to
# reorder anything the language lets it:
# - store: the cached-partition path allocates at most twice per member
#   to parse and five times, whatever the member count, to answer from
#   the plan cache (hit_path_allocs.rs) — a count a noisy host cannot blur the
#   way it blurs the serve_read timing; a plan-cache miss shares the
#   member models instead of cloning them, so it allocates the same
#   number of times at 8, 64 and 256 members (miss_path_allocs.rs);
# - core: the numerical partitioner's Newton loop allocates once per
#   solve, not per process or iteration (numerical_allocs.rs); on the
#   offline_fpm probe shape every geometric call makes the pinned outer
#   comparisons and model evaluations, no more evaluations than before
#   restarted descents resumed at their divergence level, and steps at
#   most two levels per evaluation (geometric_steps.rs) — counts, not
#   timings;
# - num: the structured step solve replays solve_dense bit for bit or
#   declines (structured_solve.rs).
run cargo test --release -p fupermod-store -p fupermod-core -p fupermod-num \
    --test hit_path_allocs --test miss_path_allocs --test numerical_allocs \
    --test geometric_steps --test structured_solve -q "${EXTRA[@]+"${EXTRA[@]}"}"
# The ignored sweep holds 50 000 small and 1 000 large drawn partitions
# to the oracle in crates/core/src/partition/geometric.rs (≈ 7 s).
run cargo test --release -p fupermod-core --lib -q "${EXTRA[@]+"${EXTRA[@]}"}" -- --ignored
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
HARNESS_TMP="$(mktemp -d)"
trap 'rm -rf "$HARNESS_TMP"' EXIT
for workload in tcp_bulk tcp_rounds offline_fpm sim_balance serve_read serve_ingest \
    app_thread sim_collectives; do
    echo "==> harness gate: $workload"
    timeout 300 cargo run --release --quiet --offline \
        --manifest-path benchmark/Cargo.toml -- \
        --workload "$workload" --seed 1 --seconds 1 --trace 0 \
        | tail -n 1 > "$HARNESS_TMP/$workload.json"
    grep -q '"correct": true' "$HARNESS_TMP/$workload.json" \
        && grep -q '"failed": 0' "$HARNESS_TMP/$workload.json" \
        || { echo "harness workload $workload failed its checks:" >&2
             cat "$HARNESS_TMP/$workload.json" >&2; exit 1; }
done

echo "==> all checks passed"
