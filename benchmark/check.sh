#!/usr/bin/env bash
# Lints and tests the benchmark crate, then smoke-runs every output check
# on small inputs: the test-scale matrix, 60 cold cells, 2 s of warm hits,
# and the traced replay of each.
#
#   bash benchmark/check.sh
set -euo pipefail
cd "$(dirname "$0")"
cargo fmt --check
cargo clippy --release --all-targets -- -D warnings
cargo test --release
cargo run --release --quiet -- run --quick
cargo run --release --quiet -- run --quick --trace 1
