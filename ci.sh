#!/usr/bin/env bash
# Staged local CI gate for the nocsilk workspace (see README.md "CI").
#
#   ./ci.sh          # tier-1 gate: release build + tests (ROADMAP.md)
#   ./ci.sh quick    # fast pre-push loop: fmt, clippy, debug tests
#   ./ci.sh smoke    # release smoke runs: check_all, recovery, DSE cache,
#                    # noc_benchmark package tests
#   ./ci.sh bench    # bench_guard vs BENCH_BASELINE.json (non-blocking)
#   ./ci.sh full     # quick + tier-1 + smoke + bench, with stage timings
#
# Every cargo invocation that resolves dependencies runs with
# --offline --locked: the workspace builds entirely from the vendored
# shims under vendor/ and must never touch the network.
set -euo pipefail
cd "$(dirname "$0")"

CARGO_FLAGS=(--offline --locked)

# Per-stage wall-clock accounting (printed by `full`).
STAGE_TIMING_LINES=()

run_stage() {
  local name="$1"
  local started=$SECONDS
  "$name"
  STAGE_TIMING_LINES+=("$(printf '  %-6s %4ds' "$name" $((SECONDS - started)))")
}

# The workspace replaces all external dependencies with offline shims
# (Cargo.toml [workspace.dependencies] points rand/proptest/serde into
# vendor/). Catch a broken checkout before cargo produces a
# confusing resolver error.
preflight() {
  local missing=0
  local crate
  for crate in rand proptest serde serde_derive; do
    if [[ ! -f "vendor/$crate/Cargo.toml" ]]; then
      echo "ci.sh: vendored crate 'vendor/$crate' is missing or stale" >&2
      missing=1
    fi
  done
  if [[ $missing -ne 0 ]]; then
    cat >&2 <<'EOF'
ci.sh: the offline dependency shims are incomplete.
  - every external dependency resolves to a path under vendor/ (this
    workspace never downloads from crates.io; there is no registry);
  - check the [workspace.dependencies] path entries in Cargo.toml:
    rand, proptest and serde must all point into vendor/;
  - restore the missing directories from git: `git checkout -- vendor/`.
EOF
    exit 1
  fi
}

quick() {
  echo "==> cargo fmt --check"
  cargo fmt --check
  echo "==> cargo clippy --workspace --all-targets -- -D warnings"
  cargo clippy "${CARGO_FLAGS[@]}" --workspace --all-targets -- -D warnings
  echo "==> cargo test -q (debug)"
  cargo test "${CARGO_FLAGS[@]}" -q
  # Sharded-simulator smoke at product scale: a 32x32 mesh on 2 shard
  # workers through the threaded run path (ignored by default so plain
  # `cargo test` stays fast; the full parity matrix runs in tier-1).
  echo "==> partitioned 32x32 2-worker smoke (debug)"
  cargo test "${CARGO_FLAGS[@]}" -q -p noc-sim --lib \
    partition::tests::smoke_32x32_two_worker_threaded_run -- --ignored
}

tier1() {
  echo "==> tier-1: cargo build --release"
  cargo build "${CARGO_FLAGS[@]}" --release
  echo "==> tier-1: cargo test -q"
  cargo test "${CARGO_FLAGS[@]}" -q
  # A test registered twice in one binary runs twice and counts twice
  # (a test macro that adds its own #[test] to the caller's does this).
  echo "==> tier-1: every test registered once per binary"
  local dups
  dups=$(cargo test "${CARGO_FLAGS[@]}" -- --list 2>&1 |
    awk '/^ *(Running|Doc-tests) /{bin = $0; next} /: test$/{print bin " :: " $0}' |
    sort | uniq -d)
  if [[ -n $dups ]]; then
    echo "ci.sh: tests registered more than once:" >&2
    echo "$dups" >&2
    exit 1
  fi
  # Product code exports nothing that exists only for tests: a hook a
  # test needs lives under #[cfg(test)] in the crate that owns it. The
  # benchmark package is a separate program and is not checked.
  echo "==> tier-1: no #[doc(hidden)] hooks in product code"
  local hidden
  hidden=$(grep -rn --include='*.rs' --exclude-dir=target \
    --exclude-dir=noc_benchmark -F '#[doc(hidden)]' crates/ || true)
  if [[ -n $hidden ]]; then
    echo "ci.sh: #[doc(hidden)] items in product code:" >&2
    echo "$hidden" >&2
    exit 1
  fi
  # The debug run above already includes the engine parity suite — one
  # Simulator type, scan == event == sharded at 1/2/4/8 workers, incl.
  # faults, online recovery, GALS and TDMA (with conservation
  # debug_asserts armed) — and the control-plane golden digests, which
  # pin the one fault/watchdog/reroute/hot-swap/retransmit control
  # plane to recorded data at 1 and 4 workers. Repeat both in release
  # so the exact configuration users run is also proven bit-identical.
  echo "==> tier-1: engine parity (release)"
  cargo test "${CARGO_FLAGS[@]}" -q --release -p noc-sim --test engine_parity
  echo "==> tier-1: control-plane golden digests (release)"
  cargo test "${CARGO_FLAGS[@]}" -q --release -p noc-sim --test control_plane_golden
  # The floorplan annealer's parity proptests (incremental arena ==
  # fresh arena == from-scratch evaluation after every move and undo)
  # at 8x the default case count, in the release build users run.
  echo "==> tier-1: floorplan annealer parity (release)"
  PROPTEST_CASES=512 cargo test "${CARGO_FLAGS[@]}" -q --release -p noc-floorplan
}

smoke() {
  echo "==> smoke: check_all (release)"
  cargo run "${CARGO_FLAGS[@]}" -q --release -p noc-bench --bin check_all
  echo "==> smoke: ablation_online_recovery (release)"
  cargo run "${CARGO_FLAGS[@]}" -q --release -p noc-bench --bin ablation_online_recovery
  echo "==> smoke: ablation_error_control (release)"
  cargo run "${CARGO_FLAGS[@]}" -q --release -p noc-bench --bin ablation_error_control
  # A9: the shared structure phase must reproduce the naive per-grid-
  # point synthesis byte-for-byte on the CI DSE sweep (exits nonzero on
  # any divergence or if sharing stops collapsing structure work).
  echo "==> smoke: ablation_structure_sharing (release)"
  cargo run "${CARGO_FLAGS[@]}" -q --release -p noc-bench --bin ablation_structure_sharing
  # The DSE acceptance protocol: a 64-spec cold exploration, a warm
  # re-run that must be 100% cache hits with a bit-identical Pareto
  # front, and a killed-then-resumed run whose front must equal the
  # cold one (see crates/bench/src/bin/dse_explore.rs).
  echo "==> smoke: dse_explore --ci-smoke (release)"
  cargo run "${CARGO_FLAGS[@]}" -q --release -p noc-bench --bin dse_explore -- --ci-smoke
  # The repository benchmark is a package of its own, outside the
  # workspace, so no other stage builds it. Its tests run every workload
  # at a tiny scale and check digests and metric names: a product-API
  # change that breaks the benchmark fails here.
  echo "==> smoke: noc_benchmark package tests"
  cargo test "${CARGO_FLAGS[@]}" -q \
    --manifest-path crates/bench/src/bin/noc_benchmark/Cargo.toml
}

bench() {
  echo "==> perf: bench_guard (non-blocking)"
  if ! cargo run "${CARGO_FLAGS[@]}" -q --release -p noc-bench --bin bench_guard; then
    echo "ci.sh: WARNING: bench_guard reported a slowdown (non-blocking);"
    echo "ci.sh: re-check against BENCH_BASELINE.json on a quiet machine."
  fi
}

full() {
  run_stage quick
  run_stage tier1
  run_stage smoke
  run_stage bench
  echo "ci.sh: stage wall-clock timings:"
  printf '%s\n' "${STAGE_TIMING_LINES[@]}"
}

stage="${1:-tier1}"
case "$stage" in
  tier1) preflight; tier1 ;;
  quick) preflight; quick ;;
  smoke) preflight; smoke ;;
  bench) preflight; bench ;;
  full)  preflight; full ;;
  *)
    echo "usage: ./ci.sh [quick|smoke|bench|full]   (no argument = tier-1 gate)" >&2
    exit 2
    ;;
esac
echo "CI green ($stage)."
