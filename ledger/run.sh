#!/usr/bin/env bash
# Builds the layer-ledger benchmark from source and runs one workload.
#
#   bash ledger/run.sh --workload <owner_hot|scale10k_qwmix|sensor_rw> \
#       --seed <n> --seconds <s> --trace <0|1>
#
# Run from the repository root. The build goes to $CARGO_TARGET_DIR
# (default .bench_build); durable stores go under .bench_tmp. The last
# line of standard output is the JSON result.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
LEDGER_RUSTC="$(rustc -V)"
if [ -d .git ]; then
    LEDGER_COMMIT="$(git rev-parse HEAD 2>/dev/null || echo unknown)"
else
    LEDGER_COMMIT="unknown (not a git checkout)"
fi
export LEDGER_RUSTC LEDGER_COMMIT
exec "$CARGO_TARGET_DIR/release/ledger" --tmp .bench_tmp "$@"
