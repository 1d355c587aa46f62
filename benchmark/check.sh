#!/usr/bin/env bash
# Everything a change to the benchmark must pass, offline:
# formatting, lints, unit tests, and the --check mode.
set -euo pipefail
cd "$(dirname "$0")"

cargo fmt --check
cargo clippy --offline --all-targets -- -D warnings
cargo test --offline
cargo run --release --offline --quiet -- --check
