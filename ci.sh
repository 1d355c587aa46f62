#!/usr/bin/env bash
# CI entry point, and the only pipeline definition: formatting, lints,
# rustdoc, release build, full test suite, chaos, the gated smokes, the golden
# outputs (CLI lines and examples), the repo benchmark's checks.
# .github/workflows/ci.yml just runs this.
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

echo "== golden outputs (exp all, the hypertpctl command lines, the examples) =="
# stdout, stderr and exit status of each line, compared with golden/ under
# HYPERTP_WORKERS=1 and the default pool, in a scratch cwd that must stay
# empty: the two-process UDS proxy pairs, the 4 GiB migrations, the 12-VM
# transplants, the feed and fleet lines, the malformed command lines that
# must exit 1, and the four examples. Each line's reason is next to it in
# golden.sh. ./golden.sh --record re-records.
./golden.sh

echo "== repo benchmark checks (fmt, clippy, unit tests, --check fingerprints) =="
# The benchmark is a package of its own (benchmark/Cargo.toml, own
# target dir), so the workspace steps above never see it. Its --check
# mode pins every workload's simulated metrics and per-layer counts at
# seed 42 — a data-path change that moves a frame count, an eviction or
# a byte fails here, in about a minute, without a timed run.
benchmark/check.sh

echo "CI OK"
