#!/usr/bin/env bash
# CI entry point, and the only pipeline definition: formatting, lints,
# rustdoc, release build, full test suite, chaos, the gated smokes, CLI smokes, the
# repo benchmark's checks, examples. .github/workflows/ci.yml just runs this.
# Everything runs offline — the workspace has no external dependencies.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (deny warnings) =="
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== cargo doc (deny warnings) =="
# A deleted or renamed item must not leave a dangling intra-doc link, and
# public docs must not link to private items.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "== cargo build --release =="
cargo build --release --workspace --offline

echo "== cargo test =="
cargo test -q --workspace --offline

echo "== ignored-test guard =="
# Every #[ignore] must carry a tracking note: either an inline reason
# (`#[ignore = "..."]`) or a `tracked:` comment on the same line. A bare
# #[ignore] silently sheds coverage, so it fails the build.
untracked=$(grep -rn --include='*.rs' '#\[ignore' crates tests src examples \
  | grep -v 'ignore = "' | grep -v 'tracked:' || true)
if [ -n "${untracked}" ]; then
  echo "error: #[ignore] without a reason string or 'tracked:' comment:" >&2
  echo "${untracked}" >&2
  exit 1
fi

echo "== mutation ledger snippets =="
# Every row of mutants.tsv names a one-line mutation by its exact snippet;
# a refactor that moves the line must update the row. No build here: the
# full ledger (./mutants.sh) builds each mutant and runs its test.
./mutants.sh --check

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
# A 4 GiB guest: its round 0 is more frame bytes than the 16 MiB cap on
# one message (MAX_FRAME_BYTES), so only the part stream can carry it.
proxy_sock="${gate_dir}/proxy4.sock"
cargo run -q --release --offline --bin hypertpctl -- \
  proxy dest --socket "${proxy_sock}" &
proxy_dest_pid=$!
cargo run -q --release --offline --bin hypertpctl -- \
  proxy source --socket "${proxy_sock}" --mem 4
wait "${proxy_dest_pid}"
# The same 4 GiB guest in process: round 0 is 512 parts, through the one
# part loop both destinations share.
cargo run -q --release --offline --bin hypertpctl -- migrate --mem 4
# Onto Xen: round 0 reads the destination's current words by walking its
# P2M's memory map, and the Xen source logs dirty pages in a bitmap over
# the 4 GiB span.
cargo run -q --release --offline --bin hypertpctl -- migrate --to xen --mem 4

echo "== hypertpctl transplant smoke (12 x 1 GiB on M1, both directions) =="
# inplace_dense's maximum-density shape, end to end through the CLI: the
# post-kexec tail reserves, adopts, checks and releases the frame runs of
# twelve guests, and the command fails if any guest's memory changed or
# was left unowned.
for dir in "xen kvm KVM" "kvm xen Xen"; do
  read -r from to shown <<<"${dir}"
  out=$(cargo run -q --release --offline --bin hypertpctl -- \
    transplant --machine m1 --vms 12 --mem 1 --from "${from}" --to "${to}")
  grep -q "12 VM(s) of 1 vCPU / 1 GiB on M1" <<<"${out}"
  grep -q "now running: ${shown}" <<<"${out}"
done

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

echo "== hypertpctl malformed command lines (must exit 1) =="
# A flag takes no value and a valued option needs one: `--blind false`
# must not plan blind, and a bare `--socket` must not bind a socket file
# named after a placeholder. Run from the scratch dir, under a timeout,
# so a regression that binds cannot block CI or leave a file in the tree.
root=$(pwd)
rejects() {
  local status=0
  local before
  before=$(ls -A "${gate_dir}")
  (cd "${gate_dir}" && timeout 30 cargo run -q --release --offline \
    --manifest-path "${root}/Cargo.toml" --bin hypertpctl -- "$@") || status=$?
  if [ "${status}" -ne 1 ] || [ "$(ls -A "${gate_dir}")" != "${before}" ]; then
    echo "error: hypertpctl $* exited ${status} (expected 1) or created a file" >&2
    exit 1
  fi
}
rejects feed --hosts 30 --days 30 --blind false
rejects proxy dest --socket

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
