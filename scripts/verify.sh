#!/usr/bin/env bash
# Full verification: release build, tests, formatting, lints.
# Run from the repository root: scripts/verify.sh
#
# --quick trims the multi-process cluster chaos step to a subset cheap
# enough for shared runners (one golden smoke + the durable-control-plane
# scenarios); everything else runs identically.
set -euo pipefail
cd "$(dirname "$0")/.."

QUICK=0
for arg in "$@"; do
  case "$arg" in
    --quick) QUICK=1 ;;
    *) echo "usage: scripts/verify.sh [--quick]" >&2; exit 2 ;;
  esac
done

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

echo "==> store durability (round-trip + corruption)"
cargo test -q -p regcluster-store --test roundtrip --test corruption

echo "==> chaos (failpoint-injected faults: torn writes, crash checkpoints, worker panics)"
cargo test -q -p regcluster-store --test torn_write --test checkpoint_file
cargo test -q -p regcluster-store --test journal
cargo test -q -p regcluster-core --test fault --test checkpoint
cargo test -q -p regcluster-cli --test binary -- failpoints_env interrupted_mine
# Release build: the alloc suite bounds the engine path users run.
cargo test -q --release --test alloc

echo "==> serve smoke (concurrent clients, overload shedding, graceful shutdown, HTTP server and parser fuzz)"
cargo test -q -p regcluster-cli --test serve_smoke
cargo test -q -p regcluster-cluster --lib http

echo "==> cluster smoke (coordinator/worker/replica processes, SIGKILL + restart, torn uploads, journal replay, network faults, golden merges)"
if [[ "$QUICK" == 1 ]]; then
  # Shared-runner subset: one golden smoke plus the durable-control-plane
  # scenarios (lease expiry after a worker SIGKILL, journal replay after a
  # coordinator SIGKILL, renew storm through a delayed link, garbled
  # upload ack retried idempotently).
  cargo test -q -p regcluster-cli --test cluster_harness -- \
    smoke_two_workers_match_single_node_golden \
    worker_crash_reassigns_and_resumes \
    coordinator_kill_mid_grant_replays_journal_without_fencing \
    renew_storm_survives_a_delayed_link \
    garbled_upload_response_is_retried_idempotently
else
  cargo test -q -p regcluster-cli --test cluster_harness
fi

echo "==> delta equivalence (mutated matrix delta-mined bit-identical to a full re-mine, 1-8 threads)"
cargo test -q -p regcluster-core --test delta_golden
cargo test -q -p regcluster-cli --test binary -- delta_mine_through_the_binary

echo "==> generations hot-swap (publish under 32 concurrent clients, zero failed requests)"
cargo test -q -p regcluster-cli --test serve_smoke -- watcher_hot_swaps
cargo test -q -p regcluster-store --test torn_write -- torn_publish

echo "==> engine matrix (every engine mines, stores, queries, exports metrics)"
cargo test -q -p regcluster-cli --test engines_matrix

echo "==> benchmark builds and passes its own tests (perfbench is a separate workspace)"
cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "==> engine-comparison bench, smoke mode"
REGCLUSTER_RESULTS="$(mktemp -d)" \
  cargo run --release -q -p regcluster-bench --bin comparison -- --quick

echo "==> perf smoke (hot-path baseline sanity + quick sweep; no absolute-time assertions)"
# Shared runners are too noisy for wall-clock gates: --check-baseline only
# validates the committed BENCH_hotpath.json structurally, and the --quick
# sweep proves the harness itself still runs end to end. Regression gating
# against real numbers is scripts/perf.sh, for dedicated hardware.
cargo run --release -q -p regcluster-bench --bin hotpath -- --check-baseline
REGCLUSTER_RESULTS="$(mktemp -d)" \
  cargo run --release -q -p regcluster-bench --bin hotpath -- --quick

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --workspace --no-deps (RUSTDOCFLAGS=-D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "verify: OK"
