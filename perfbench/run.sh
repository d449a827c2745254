#!/usr/bin/env bash
# Build the benchmark harness and the `wafer-md` binary from this
# checkout's source, then run one workload:
#
#   bash perfbench/run.sh --workload wse-ta --seed 1 --seconds 15 --trace 0
#
# Run from the repository root. Cargo's output goes to stderr; the
# harness prints its result as the last line of stdout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --offline --release --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$target/release/perfbench" "$@"
