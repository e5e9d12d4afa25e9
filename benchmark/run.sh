#!/usr/bin/env bash
# Build the benchmark from source (a no-op when it is current) and run it.
# Works from any directory; arguments go to the benchmark unchanged:
#   run.sh --workload NAME --seed N --seconds S --trace 0|1   (the driver's call)
#   run.sh [--seed N] [--trace] | --check | --sets 2 --runs 5  (see README.md)
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
# Cargo resolves a relative CARGO_TARGET_DIR against the working directory.
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$target/release/concord-benchmark" --out-dir "$here/out" "$@"
