#!/usr/bin/env bash
# Build the benchmark optimised into the repository's own target/ directory
# (so it shares compiled crates with the root workspace), then run the suite.
# Arguments are passed on: `benchmark/run.sh --smoke`, `benchmark/run.sh --seed 7`.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
cargo build --release --manifest-path benchmark/Cargo.toml --target-dir target
exec target/release/benchmark run "$@"
