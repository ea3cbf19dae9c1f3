#!/usr/bin/env bash
# The one command of the OORQ benchmark. Builds benchmark/ (a package of
# its own), then:
#
#   benchmark/run.sh [--seed N] [--quick]
#       every workload in its own process, three interleaved 20-s rounds
#       and one traced run each; prints `workload name unit value n` per
#       metric and writes benchmark/out/result.json and
#       benchmark/out/trace-<workload>.json (--quick: one 3-s round).
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one run of one workload; the last line of output is its result
#       as JSON (the form BENCHMARK.json's command takes).
#   benchmark/run.sh compare A.json B.json
#       hold result B against result A with BENCHMARK.json's bounds.
#   benchmark/run.sh spread [--seeds N]
#       N seeds per workload; per metric the spread a bound has to cover.
#
# Exits non-zero on a wrong answer, a failed request or an invalid trace.
set -euo pipefail
cd "$(dirname "$0")/.."

# CARGO_TARGET_DIR, when set, is where cargo builds; otherwise the
# repository's own target/ is shared.
target="${CARGO_TARGET_DIR:-target}"
cargo build --quiet --release --offline \
    --manifest-path benchmark/Cargo.toml --target-dir "$target" >&2
bin="$target/release/oorq-benchmark"

case "${1-}" in
compare | spread) exec "$bin" "$@" ;;
esac
for arg in "$@"; do
    if [ "$arg" = "--workload" ]; then
        exec "$bin" run "$@"
    fi
done
exec "$bin" suite "$@"
