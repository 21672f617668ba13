#!/usr/bin/env bash
# Offline pre-commit gate: replay, tool-farm and daemon-sweep outcome
# digests, the benchmark's own tests, pinned chaos digests, pinned figure
# and ablation CSVs, the std-only workspace check, the public-surface
# gate (scripts/pub-allowlist.txt), formatting, lints, rustdoc, tests.
#
# Usage: scripts/check.sh [--tsan]
#
# Runs entirely against the local toolchain: the workspace is std only,
# so no network access is required (--offline everywhere).
#
# --tsan (opt-in) instead runs the concurrency hammer tests — the
# synthesis-job memo and runner, and the evaluation pool (ga's only
# `unsafe` concurrency) with the batched engine on top of it — under
# ThreadSanitizer. Requires a nightly toolchain with the rust-src
# component (`-Zsanitizer=thread` needs an instrumented std via
# -Zbuild-std; a prebuilt std would report false races inside its own
# uninstrumented synchronization).

set -euo pipefail
cd "$(dirname "$0")/.."

# Runs a `cargo test` command line and fails unless it ran at least one
# test. A name filter that matches nothing still prints "ok. 0 passed"
# and exits 0, so one rename would otherwise turn a gate into a no-op.
require_tests() {
    local out
    if ! out="$("$@" 2>&1)"; then
        printf '%s\n' "$out" >&2
        return 1
    fi
    printf '%s\n' "$out"
    if ! grep -qE '^test result: ok\. [1-9][0-9]* passed' <<< "$out"; then
        echo "no test matched the filter: $*" >&2
        return 1
    fi
}

# Prints "path name" for each `pub fn|struct|enum|trait|type|const|static`
# declared in crates/*/src whose name appears nowhere else in non-test
# code: crates/*/src, examples/ and perfbench/src, without `#[cfg(test)]`
# items (a braced item ends at the `}` on its own indentation) and without
# the files that a `#[cfg(test)] mod name;` pulls in. Everything from
# `//` to the end of a line is dropped first, so a comment (doc comments
# included) never counts as a caller. The scan goes by name, so a name
# declared twice passes.
pub_surface() {
    local testfiles files
    testfiles="$(grep -rn -A1 --include='*.rs' '^ *#\[cfg(test)\]$' crates/*/src \
        | sed -nE 's#^(.*/)[^/]*\.rs-[0-9]+- *(pub(\([a-z]+\))? )?mod ([a-z_0-9]+);$#\1\4.rs#p')"
    mapfile -t files < <(find crates/*/src examples perfbench/src -name '*.rs' | LC_ALL=C sort \
        | grep -vxF -f <(printf '%s\n' "${testfiles:-/dev/null}"))
    awk '
        BEGIN { decl = "^ *pub (const fn|unsafe fn|fn|struct|enum|trait|type|const|static) +[A-Za-z_][A-Za-z0-9_]*" }
        FNR == 1 { skip = 0; pending = 0 }
        skip {
            if ($0 ~ "^" indent "};?$") skip = 0
            next
        }
        /^ *#\[cfg\(test\)\]$/ { pending = 1; next }
        pending && /^ *#\[/ { next }
        pending {
            pending = 0
            if ($0 !~ /;$/ && $0 !~ /\{\}$/) {
                indent = $0
                sub(/[^ ].*$/, "", indent)
                skip = 1
            }
            next
        }
        {
            line = $0
            if (FILENAME ~ /^crates\/[^\/]+\/src\// && match(line, decl)) {
                n = split(substr(line, RSTART, RLENGTH), words, / +/)
                declared[FILENAME " " words[n]] = words[n]
            }
            sub(/\/\/.*$/, "", line)
            gsub(/[^A-Za-z0-9_]+/, " ", line)
            n = split(line, tokens, " ")
            for (i = 1; i <= n; i++) seen[tokens[i]]++
        }
        END { for (item in declared) if (seen[declared[item]] == 1) print item }
    ' "${files[@]}" | LC_ALL=C sort
}

if [ "${1:-}" = "--tsan" ]; then
    if ! cargo +nightly --version >/dev/null 2>&1; then
        echo "error: --tsan needs a nightly toolchain;" \
             "install one with: rustup toolchain install nightly" >&2
        exit 1
    fi
    if ! rustup component list --toolchain nightly 2>/dev/null \
            | grep -q '^rust-src (installed)'; then
        echo "error: --tsan needs rust-src on nightly for -Zbuild-std;" \
             "install it with: rustup component add rust-src --toolchain nightly" >&2
        exit 1
    fi
    host="$(rustc -vV | sed -n 's/^host: //p')"
    echo "==> ThreadSanitizer: synthesis-job memo and runner hammers"
    require_tests env RUSTFLAGS="${RUSTFLAGS:-} -Zsanitizer=thread" cargo +nightly test \
        --offline -Zbuild-std --target "$host" -p nautilus-synth --lib -- \
        hammer concurrent_evaluation
    echo "==> ThreadSanitizer: evaluation pool and batched engine hammers"
    require_tests env RUSTFLAGS="${RUSTFLAGS:-} -Zsanitizer=thread" cargo +nightly test \
        --offline -Zbuild-std --target "$host" -p nautilus-ga --lib -- \
        pool:: batched
    echo "TSan checks passed."
    exit 0
fi

echo "==> replay outcome digests (offline benchmark build)"
# The benchmark is a cargo workspace of its own that builds from this
# checkout. Its digest line hashes the first 1024 replay search outcomes
# in order, so a change that moves any search result moves the digest; a
# speed-only change must keep both values.
for expected in 1:967a020a92abc5ae 2:bd29aa5ef7819c0b; do
    seed="${expected%%:*}"
    want="digest workload=replay seed=$seed outcomes=1024 fnv64=${expected#*:}"
    out="$(bash perfbench/run.sh --workload replay --seed "$seed" --seconds 5 --trace 0)"
    if ! grep -qxF "$want" <<< "$out"; then
        echo "replay seed $seed: expected the line '$want'; the run printed:" >&2
        grep '^digest' <<< "$out" >&2 || true
        exit 1
    fi
done

echo "==> tool-farm outcome digest (offline benchmark build)"
# Figure 4 searches through a pool of mock-synth children over NAUTPROC.
# The run exits nonzero unless every search equals its in-process twin,
# and a speed-only change must keep the digest of its first 128 searches.
want="digest workload=tool-farm seed=1 outcomes=128 fnv64=b26a1488fbedbad8"
out="$(bash perfbench/run.sh --workload tool-farm --seed 1 --seconds 30 --trace 0)"
if ! grep -qxF "$want" <<< "$out"; then
    echo "tool-farm seed 1: expected the line '$want'; the run printed:" >&2
    grep '^digest' <<< "$out" >&2 || true
    exit 1
fi

echo "==> daemon-sweep outcome digest (offline benchmark build)"
# Two tenants sweep checkpointed jobs through a 2-slot daemon over TCP.
# The run exits nonzero unless every job equals its straight twin, and a
# speed-only change must keep the digest of its first 128 jobs.
want="digest workload=daemon-sweep seed=1 outcomes=128 fnv64=7daced159f132653"
out="$(bash perfbench/run.sh --workload daemon-sweep --seed 1 --seconds 10 --trace 0)"
if ! grep -qxF "$want" <<< "$out"; then
    echo "daemon-sweep seed 1: expected the line '$want'; the run printed:" >&2
    grep '^digest' <<< "$out" >&2 || true
    exit 1
fi

echo "==> benchmark test suite (perfbench's own workspace)"
# The digest gates above run perfbench's binaries; its window, probe,
# log, procfs, stats and CLI code is covered by its own tests.
require_tests cargo test -q --offline --manifest-path perfbench/Cargo.toml

echo "==> fault-path digests: chaos and hang storm pinned at 1 worker"
# Supervised runs take the batched scorer at every worker count, so the
# 1-vs-{2,8}-worker diffs further down cannot see a change that moves
# every count alike. These literal checksums (`| cksum`) can.
cargo build -q --release --offline -p nautilus-bench --bin chaos
pin_chaos() {
    local want="$1" got
    shift
    got="$(target/release/chaos "$@" | cksum)"
    if [ "$got" != "$want" ]; then
        echo "chaos $*: expected cksum '$want', got '$got'" >&2
        exit 1
    fi
}
pin_chaos "1185772234 1032" --seed 1 --workers 1
pin_chaos "1434149691 1033" --seed 2 --workers 1
pin_chaos "4162035310 1033" --seed 3 --workers 1
pin_chaos "559519685 1060" --storm hang --seed 1 --workers 1
pin_chaos "2909936146 1061" --storm hang --seed 2 --workers 1

echo "==> figure and ablation outputs: 13 CSVs pinned by cksum"
# Every figure and ablation series, regenerated in a scratch directory;
# a speed-only change must write them byte for byte. This is the only
# end-to-end check of the guided crossover (abl-operators).
cargo build -q --release --offline -p nautilus-bench --bin experiments
EXPERIMENTS="$PWD/target/release/experiments"
csvdir="$(mktemp -d)"
got="$(export LC_ALL=C; cd "$csvdir" && "$EXPERIMENTS" all ablations >/dev/null \
    && cat results/*.csv | cksum)"
rm -rf "$csvdir"
if [ "$got" != "2103943427 407172" ]; then
    echo "experiments all ablations: expected CSV cksum '2103943427 407172', got '$got'" >&2
    exit 1
fi

echo "==> std-only workspace: no registry dependencies"
# Every package cargo resolves must come from this checkout (a null
# source), so a plain clone builds and tests with no registry access.
if ! meta="$(cargo metadata --offline --format-version 1)"; then
    echo "cargo metadata failed offline: the workspace names a crate" \
         "that is not in this checkout" >&2
    exit 1
fi
sources="$(grep -o '"source":"[^"]*"' <<< "$meta" | sort -u || true)"
if [ -n "$sources" ]; then
    echo "the workspace resolves packages from outside this checkout:" >&2
    printf '%s\n' "$sources" >&2
    exit 1
fi

echo "==> public surface: every pub item has a non-test reference or an allowlist line"
# A new unreferenced item fails, and so does an allowlist line the scan no
# longer prints, so scripts/pub-allowlist.txt can only shrink.
surface="$(pub_surface)"
allowed="$(grep -v '^#' scripts/pub-allowlist.txt | LC_ALL=C sort)"
added="$(LC_ALL=C comm -23 <(printf '%s\n' "$surface") <(printf '%s\n' "$allowed"))"
stale="$(LC_ALL=C comm -13 <(printf '%s\n' "$surface") <(printf '%s\n' "$allowed"))"
if [ -n "$added" ] || [ -n "$stale" ]; then
    if [ -n "$added" ]; then
        echo "pub items with no non-test reference (use them, narrow them or delete them):" >&2
        sed 's/^/  /' <<< "$added" >&2
    fi
    if [ -n "$stale" ]; then
        echo "scripts/pub-allowlist.txt lines the scan no longer prints (delete them):" >&2
        sed 's/^/  /' <<< "$stale" >&2
    fi
    exit 1
fi

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> cargo doc --workspace --no-deps (rustdoc warnings are errors)"
# Broken or private intra-doc links fail here, not in a reader's browser.
RUSTDOCFLAGS="${RUSTDOCFLAGS:-} -D warnings" cargo doc --workspace --no-deps --offline

echo "==> cargo test -q"
cargo test -q --workspace --offline

echo "==> chaos storm (ignored tests)"
cargo test -q --release --offline -p nautilus-bench --test chaos -- --include-ignored

echo "==> subprocess chaos battery (ignored tests)"
cargo test -q --release --offline -p nautilus-bench --test subprocess_chaos -- --include-ignored

echo "==> synthesis-job memo and pool hammers (release)"
require_tests cargo test -q --release --offline -p nautilus-synth --lib -- hammer
require_tests cargo test -q --release --offline -p nautilus-ga --lib -- pool:: batched

echo "==> chaos determinism: seed matrix x {1,2,8} workers"
cargo build -q --release --offline -p nautilus-bench --bin chaos --bin resume --bin mock-synth
for seed in 1 2 3; do
    serial="$(target/release/chaos --seed "$seed" --workers 1)"
    for workers in 2 8; do
        parallel="$(target/release/chaos --seed "$seed" --workers "$workers")"
        if [ "$serial" != "$parallel" ]; then
            echo "chaos digest diverged at seed $seed between 1 and $workers workers" >&2
            diff <(printf '%s\n' "$serial") <(printf '%s\n' "$parallel") >&2 || true
            exit 1
        fi
    done
done

echo "==> hang-storm determinism: supervised digests x {1,2,8} workers"
for seed in 1 2; do
    serial="$(target/release/chaos --storm hang --seed "$seed" --workers 1)"
    for workers in 2 8; do
        parallel="$(target/release/chaos --storm hang --seed "$seed" --workers "$workers")"
        if [ "$serial" != "$parallel" ]; then
            echo "hang-storm digest diverged at seed $seed between 1 and $workers workers" >&2
            diff <(printf '%s\n' "$serial") <(printf '%s\n' "$parallel") >&2 || true
            exit 1
        fi
    done
    case "$serial" in
        *'"watchdog_fired":0,'*)
            echo "hang-storm digest recorded no watchdog firings at seed $seed" >&2
            exit 1 ;;
    esac
done

echo "==> subprocess determinism: NAUTPROC digests x {1,2,8} workers"
# The chaos binary reruns each digest with every evaluation served by a
# mock-synth pool and exits nonzero on any byte of divergence, so each
# invocation below is a pass/fail gate in itself.
MOCK=target/release/mock-synth
for workers in 1 2 8; do
    target/release/chaos --storm clean --seed 1 --workers "$workers" \
        --subprocess "$MOCK" >/dev/null
done

echo "==> subprocess crash storm: real child deaths x {1,8} workers"
# The same seeded 10% transient plan, decided tool-side: every injected
# crash is a dying gasp followed by a real process death, and the digest
# must still match the in-process storm bit for bit.
for workers in 1 8; do
    target/release/chaos --seed 3 --workers "$workers" --subprocess "$MOCK" >/dev/null
done

echo "==> subprocess hang storm: supervised kills and respawns, 2 workers"
target/release/chaos --storm hang --seed 3 --workers 2 --subprocess "$MOCK" >/dev/null

echo "==> gate binaries fail loudly: exit codes"
# The in-process cross-worker self-check must pass...
target/release/chaos --seed 1 --workers 2 --check-workers 1 >/dev/null
# ...and both binaries must reject bad invocations nonzero, so a typo in
# this script can never turn a gate into a silent no-op.
if target/release/chaos --bogus >/dev/null 2>&1; then
    echo "chaos binary accepted an unknown argument" >&2
    exit 1
fi
if target/release/chaos --storm gamma-ray >/dev/null 2>&1; then
    echo "chaos binary accepted an unknown storm kind" >&2
    exit 1
fi
if target/release/resume --kill --victim >/dev/null 2>&1; then
    echo "resume binary accepted --kill combined with --victim" >&2
    exit 1
fi
if target/release/mock-synth --transient-rate 0.5 >/dev/null 2>&1 </dev/null; then
    echo "mock-synth accepted fault rates without --plan-seed" >&2
    exit 1
fi

echo "==> kill-and-resume determinism: interrupt after 2 generations, resume, diff"
for seed in 1 2 3; do
    for workers in 1 8; do
        straight="$(target/release/chaos --seed "$seed" --workers "$workers")"
        ckptdir="$(mktemp -d)"
        resumed="$(target/release/resume --seed "$seed" --workers "$workers" \
            --dir "$ckptdir" --budget-generations 2)"
        rm -rf "$ckptdir"
        if [ "$straight" != "$resumed" ]; then
            echo "resume digest diverged at seed $seed, $workers workers" >&2
            diff <(printf '%s\n' "$straight") <(printf '%s\n' "$resumed") >&2 || true
            exit 1
        fi
    done
done

echo "==> kill-and-resume determinism: SIGKILL a live victim, recover, diff"
ckptdir="$(mktemp -d)"
recovered="$(target/release/resume --seed 1 --workers 1 --dir "$ckptdir" --kill)"
rm -rf "$ckptdir"
straight="$(target/release/chaos --seed 1 --workers 1)"
if [ "$straight" != "$recovered" ]; then
    echo "post-SIGKILL recovery digest diverged from the straight run" >&2
    diff <(printf '%s\n' "$straight") <(printf '%s\n' "$recovered") >&2 || true
    exit 1
fi

echo "==> trace determinism: two same-seed traced runs, nautilus-trace diff"
cargo build -q --release --offline -p nautilus-bench --bin nautilus-trace
tracedir_a="$(mktemp -d)"
tracedir_b="$(mktemp -d)"
target/release/nautilus-trace capture "$tracedir_a" 27 >/dev/null
target/release/nautilus-trace capture "$tracedir_b" 27 >/dev/null
for tag in baseline guided-strong; do
    # The Perfetto traces must be structurally identical, and the event
    # streams logically identical, run to run.
    target/release/nautilus-trace diff \
        "$tracedir_a/$tag-seed27.trace.json" "$tracedir_b/$tag-seed27.trace.json"
    target/release/nautilus-trace diff \
        "$tracedir_a/$tag-seed27.events.jsonl" "$tracedir_b/$tag-seed27.events.jsonl"
done
# A malformed trace must be rejected with exit code 2, so a truncated
# artifact can never slip through the diff gate as "identical".
if target/release/nautilus-trace summarize "$tracedir_a/baseline-seed27.events.jsonl" \
        >/dev/null 2>&1; then
    echo "nautilus-trace accepted a non-trace file as a trace" >&2
    exit 1
fi
rm -rf "$tracedir_a" "$tracedir_b"

echo "==> daemon crash recovery: SIGKILL nautilus-serve twice, recover, diff"
cargo build -q --release --offline -p nautilus-serve --bin nautilus-serve --bin nautilus-cli
SERVE=target/release/nautilus-serve
CLI=target/release/nautilus-cli
servedir="$(mktemp -d)"

start_daemon() {
    "$SERVE" --dir "$servedir" --slots 2 >/dev/null 2>&1 &
    SERVE_PID=$!
    # Out of the job table so kill -9 does not spam "Killed" job noise.
    disown "$SERVE_PID"
    for _ in $(seq 1 500); do
        if "$CLI" ping --dir "$servedir" >/dev/null 2>&1; then
            return 0
        fi
        sleep 0.01
    done
    echo "nautilus-serve never answered a ping" >&2
    exit 1
}
ckpt_count() {
    find "$servedir/jobs" -name '*.nckpt' 2>/dev/null | wc -l
}
wait_dead() {
    # `wait` cannot reap a disowned pid; poll until the process is gone.
    for _ in $(seq 1 2000); do
        if ! kill -0 "$1" 2>/dev/null; then
            return 0
        fi
        sleep 0.01
    done
    echo "nautilus-serve (pid $1) refused to die" >&2
    exit 1
}
wait_for_ckpts() {
    for _ in $(seq 1 2000); do
        if [ "$(ckpt_count)" -ge "$1" ]; then
            return 0
        fi
        sleep 0.01
    done
    echo "daemon made no durable progress to destroy" >&2
    exit 1
}

start_daemon
# Three searches, slowed so they are still mid-flight when the daemon
# dies. Budgets are passed explicitly so the uninterrupted comparator
# below runs the byte-identical spec.
SPECS="bowl:guided-strong:101:1 ridge:guided-strong:102:2 bowl:baseline:103:8"
JOB_IDS=""
for spec in $SPECS; do
    IFS=: read -r model strategy seed workers <<< "$spec"
    id="$("$CLI" submit --dir "$servedir" --model "$model" --strategy "$strategy" \
        --seed "$seed" --workers "$workers" --generations 10 \
        --eval-delay-us 700 --max-evals 2000000)"
    JOB_IDS="$JOB_IDS $id"
done

# Kill #1 once the first durable checkpoints exist; kill #2 after the
# second incarnation has re-adopted the jobs and progressed further.
wait_for_ckpts 2
kill -9 "$SERVE_PID" 2>/dev/null
wait_dead "$SERVE_PID"
before="$(ckpt_count)"
start_daemon
wait_for_ckpts "$((before + 2))"
kill -9 "$SERVE_PID" 2>/dev/null
wait_dead "$SERVE_PID"

# The third incarnation finishes everything; each recovered digest must
# equal an uninterrupted in-process run of the same spec.
start_daemon
set -- $JOB_IDS
for spec in $SPECS; do
    IFS=: read -r model strategy seed workers <<< "$spec"
    job="$1"; shift
    recovered="$("$CLI" result --dir "$servedir" --job "$job" --wait 120)"
    straight="$("$CLI" straight --model "$model" --strategy "$strategy" \
        --seed "$seed" --workers "$workers" --generations 10 \
        --eval-delay-us 700 --max-evals 2000000)"
    if [ "$recovered" != "$straight" ]; then
        echo "daemon-recovered digest diverged for job $job" \
             "($model/$strategy seed $seed workers $workers)" >&2
        diff <(printf '%s\n' "$straight") <(printf '%s\n' "$recovered") >&2 || true
        exit 1
    fi
done

# Graceful goodbye: SIGTERM must drain and remove the endpoint file.
kill -15 "$SERVE_PID" 2>/dev/null
wait_dead "$SERVE_PID"
if [ -e "$servedir/endpoint" ]; then
    echo "nautilus-serve left its endpoint file behind after SIGTERM" >&2
    exit 1
fi
rm -rf "$servedir"

echo "==> disk-fault battery: fail every durable write point, workers {1,2,8}"
# The ignored leg enumerates first+last write-point faults per durable
# site at every supported eval-worker count; each must end in a typed
# error or a byte-identical recovery.
cargo test -q --release --offline -p nautilus-serve --test fault_battery -- --include-ignored

echo "==> hostile-client drill: fuzz flood, stalled peers, connection cap"
cargo test -q --release --offline -p nautilus-serve --test edge

echo "All checks passed."
