#!/usr/bin/env bash
# Headline benchmarks for the parallel evaluation pipeline.
#
# Usage: scripts/bench.sh [OUTPUT.json]
#
# Builds the release tree, runs the `evalbench` binary, and writes the
# measured headline numbers to BENCH_evalpipeline.json (or OUTPUT.json),
# including the 1/2/4/8 eval-worker matrix, this host's thread count, and
# the per-job overhead of dispatching evaluations to a `mock-synth`
# child over the NAUTPROC subprocess protocol, plus the submit -> result
# round-trip latency through a `nautilus-serve` daemon.
#
# Perf floors (enforced by evalbench --floors, non-zero exit on
# regression): the indexed dataset-query speedup must stay >= 5x, every
# batched configuration >= 0.90x serial, and batched eval strictly
# faster than serial on hosts with >= 2 threads. The floors auto-skip when this host
# has fewer threads than the committed run recorded in `host_threads` —
# a smaller host cannot reproduce them.

set -euo pipefail
cd "$(dirname "$0")/.."

OUT="${1:-BENCH_evalpipeline.json}"

echo "==> cargo build --release -p nautilus-bench --bin evalbench --bin mock-synth"
cargo build --release --offline -p nautilus-bench --bin evalbench --bin mock-synth

# Floors recorded on a bigger host than this one cannot be reproduced
# here; run without gating (still measured and written) and say so.
FLOORS=(--floors)
host_threads="$(nproc 2>/dev/null || echo 1)"
if [ -f "$OUT" ]; then
    recorded="$(sed -n 's/.*"host_threads": \([0-9]*\).*/\1/p' "$OUT" | head -n1)"
    if [ -n "$recorded" ] && [ "$host_threads" -lt "$recorded" ]; then
        echo "==> floors skipped: host has $host_threads threads," \
             "committed run recorded $recorded"
        FLOORS=()
    fi
fi

echo "==> evalbench $OUT ${FLOORS[*]:-} --mock-synth target/release/mock-synth"
./target/release/evalbench "$OUT" ${FLOORS[@]+"${FLOORS[@]}"} \
    --mock-synth target/release/mock-synth

# The dispatch-overhead block proves the NAUTPROC boundary was actually
# measured (and its outcomes verified identical), not skipped.
if ! grep -q '"subprocess_dispatch"' "$OUT" || grep -q '"skipped"' "$OUT"; then
    echo "FAIL: $OUT is missing the measured subprocess_dispatch section" >&2
    exit 1
fi

# The service-latency block proves the submit -> result path through a
# real nautilus-serve daemon was measured, not skipped.
if ! grep -q '"service_latency"' "$OUT" \
        || ! grep -q '"submit_to_result_best_ms"' "$OUT"; then
    echo "FAIL: $OUT is missing the measured service_latency section" >&2
    exit 1
fi

# The attribution block is load-bearing: it names the top overhead phase
# behind the batch headline numbers. Refuse to publish a result file
# without it.
if ! grep -q '"phase_attribution"' "$OUT"; then
    echo "FAIL: $OUT is missing the phase_attribution section" >&2
    exit 1
fi
if ! grep -q '"matrix"' "$OUT"; then
    echo "FAIL: $OUT is missing the eval-worker matrix" >&2
    exit 1
fi

# The report carries the *measured* indexed-query speedup; docs cite
# this file rather than a hand-copied constant that goes stale.
speedup="$(sed -n '/"dataset_query"/,/}/s/.*"speedup": \([0-9.]*\).*/\1/p' "$OUT" | head -n1)"
echo "==> dataset_query measured speedup: ${speedup}x (recorded in $OUT)"
