#!/usr/bin/env bash
# CI entry point, and the only pipeline definition: formatting, lints,
# release build, full test suite, chaos, the gated smokes, CLI smokes, the
# repo benchmark's checks, examples. .github/workflows/ci.yml just runs this.
# Everything runs offline — the workspace has no external dependencies.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (deny warnings) =="
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== cargo build --release =="
cargo build --release --workspace --offline

echo "== cargo test =="
cargo test -q --workspace --offline

echo "== ignored-test guard =="
# Every #[ignore] must carry a tracking note: either an inline reason
# (`#[ignore = "..."]`) or a `tracked:` comment on the same line. A bare
# #[ignore] silently sheds coverage, so it fails the build.
untracked=$(grep -rn --include='*.rs' '#\[ignore' crates tests \
  | grep -v 'ignore = "' | grep -v 'tracked:' || true)
if [ -n "${untracked}" ]; then
  echo "error: #[ignore] without a reason string or 'tracked:' comment:" >&2
  echo "${untracked}" >&2
  exit 1
fi

echo "== chaos matrix (pinned seeds 0xc4a0_0001..3) =="
# The matrix's CI-seed tests are pinned in-code; re-running the env
# override test under each pinned seed additionally exercises the
# HYPERTP_SEED replay path end to end.
cargo test -q --offline --test chaos_matrix
for seed in 0xc4a00001 0xc4a00002 0xc4a00003; do
  HYPERTP_SEED="${seed}" cargo test -q --offline --test chaos_matrix \
    chaos_matrix_env_seed_override
done

# Artifacts go to a scratch dir so the committed BENCH_*.json stay
# untouched.
gate_dir=$(mktemp -d)
trap 'rm -rf "${gate_dir}"' EXIT

echo "== smokes (identity fields + the harness::GATES rows) =="
# Every smoke ends in hypertp_bench::harness::finish: each identity field
# must read "true" and each of its bench's rows in harness::GATES must
# hold, or it exits non-zero, one line per violation. chaos_smoke has no
# rows: its identity field pins every faulted InPlaceTP to its clean twin.
# perf_smoke runs twice: wall-clock jitters, identity and compression
# must not.
n=0
for smoke in chaos perf perf wire adaptive inplace campaign rehype slo exposure; do
  n=$((n + 1))
  echo "-- ${smoke}_smoke --"
  env "${smoke^^}_SMOKE_OUT=${gate_dir}/${n}-${smoke}.json" \
    cargo run -q --release --offline -p hypertp-bench --bin "${smoke}_smoke"
done

echo "== UDS proxy smoke (two-process source/destination pair) =="
# The §4.2 proxy pair over a real Unix-domain socket: destination binds
# in the background, source migrates a VM through it, both must exit
# cleanly with matching checksums (run_source verifies the destination's
# echoed checksum and fails otherwise).
proxy_sock="${gate_dir}/proxy.sock"
cargo run -q --release --offline --bin hypertpctl -- \
  proxy dest --socket "${proxy_sock}" &
proxy_dest_pid=$!
cargo run -q --release --offline --bin hypertpctl -- \
  proxy source --socket "${proxy_sock}"
wait "${proxy_dest_pid}"

echo "== hypertpctl feed smoke (surface-aware vs blind planning) =="
# The operator-facing feed replay: the --blind flag must switch the
# planning mode shown in the output, and both runs must report the
# integrated-exposure summary line.
cargo run -q --release --offline --bin hypertpctl -- feed --hosts 30 --days 90 \
  | grep -q "surface-aware planning"
cargo run -q --release --offline --bin hypertpctl -- feed --hosts 30 --days 90 --blind \
  | grep -q "surface-blind planning"
cargo run -q --release --offline --bin hypertpctl -- feed --hosts 30 --days 90 \
  | grep -q "integrated exposure"

echo "== hypertpctl fleet smoke (--slo-aware flag) =="
# The operator-facing path to SLO-aware admission: same fleet twice, the
# flag must switch the admission policy shown in the output.
cargo run -q --release --offline --bin hypertpctl -- fleet --vms 3 \
  | grep -q "fifo admission"
cargo run -q --release --offline --bin hypertpctl -- fleet --vms 3 --slo-aware \
  | grep -q "slo admission"

echo "== repo benchmark checks (fmt, clippy, unit tests, --check fingerprints) =="
# The benchmark is a package of its own (benchmark/Cargo.toml, own
# target dir), so the workspace steps above never see it. Its --check
# mode pins every workload's simulated metrics and per-layer counts at
# seed 42 — a data-path change that moves a frame count, an eviction or
# a byte fails here, in about a minute, without a timed run.
benchmark/check.sh

echo "== examples (keep them compiling *and* running) =="
for example in quickstart migration_vs_inplace datacenter_upgrade vulnerability_response; do
  echo "-- example: ${example} --"
  cargo run -q --release --offline --example "${example}" >/dev/null
done

echo "CI OK"
