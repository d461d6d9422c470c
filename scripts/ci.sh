#!/usr/bin/env bash
# Local CI: the exact gate a change must pass before merging.
#
# Offline-safe: pass --offline (or set CARGO_NET_OFFLINE=true) to forbid
# network access; the build then uses only vendored/cached dependencies.
#
# --quick runs the short loop (build + benchmark build check + test +
# in-tree lint) for inner-dev iteration; the full run adds the replay
# smoke, the pipeline timing artifact with its regression gate, rustfmt,
# and clippy.

set -euo pipefail
cd "$(dirname "$0")/.."

CARGO_FLAGS=()
QUICK=0
for arg in "$@"; do
    case "$arg" in
    --offline) CARGO_FLAGS+=(--offline) ;;
    --quick) QUICK=1 ;;
    *)
        echo "usage: scripts/ci.sh [--offline] [--quick]" >&2
        exit 2
        ;;
    esac
done

run() {
    echo "==> $*"
    local t0=$SECONDS
    "$@"
    echo "    ($(($SECONDS - t0))s) $1 ${2-}"
}

run cargo build --release --workspace "${CARGO_FLAGS[@]}"
# The benchmark package (perfbench/, a workspace of its own) calls the
# program's public entry points: check it still builds, so a moved or
# renamed entry point fails here and not first in a benchmark run.
# --locked never rewrites perfbench/Cargo.lock.
run cargo check --locked --manifest-path perfbench/Cargo.toml --all-targets "${CARGO_FLAGS[@]}"
run cargo test --workspace -q "${CARGO_FLAGS[@]}"
# In-tree static analysis (NaN ordering, panic freedom, paper constants,
# unpooled threads, and the L9-L12 determinism audit); offline-safe and
# fast, so it runs before the slower clippy pass. The --json invocation is
# the gate: it writes the machine-readable findings report (uploaded as a
# CI artifact) and prints the per-rule timing table to stderr. The
# --fixtures pass lints the linter itself against seeded violations.
echo "==> cargo run -p xtask -- lint --json (> LINT_report.json)"
cargo run -p xtask "${CARGO_FLAGS[@]}" -- lint --json > LINT_report.json ||
    { cargo run -p xtask "${CARGO_FLAGS[@]}" -- lint; exit 1; }
run cargo run -p xtask "${CARGO_FLAGS[@]}" -- lint --fixtures

# Fleet-mode smoke: the Small replay (two stations) at one shard and at
# two, driven end to end from the CLI (`--shards` -> ShardedEngine, one
# engine per station shard). The stay, candidate and sampled-address
# totals the two runs print must match: the shard-count parity tests pin
# that bit for bit, and this checks the same property from the binary.
echo "==> fleet-mode smoke (Small, 1 vs 2 shards)"
totals_re='[0-9]* stays, [0-9]* candidates, [0-9]* sampled addresses'
one_line=$(cargo run --release -p dlinfma-cli "${CARGO_FLAGS[@]}" -- replay --preset dowbj --scale small --shards 1 | tail -1)
two_line=$(cargo run --release -p dlinfma-cli "${CARGO_FLAGS[@]}" -- replay --preset dowbj --scale small --shards 2 | tail -1)
one_totals=$(grep -o "$totals_re" <<<"$one_line")
two_totals=$(grep -o "$totals_re" <<<"$two_line")
if [[ -z $one_totals || "$one_totals" != "$two_totals" ]]; then
    echo "ci: 2-shard totals diverge from the 1-shard replay" >&2
    echo "  1 shard:  $one_line" >&2
    echo "  2 shards: $two_line" >&2
    exit 1
fi
echo "    fleet smoke green ($one_totals at 1 and 2 shards)"

# Durable-snapshot round trip: replay Tiny, write one checkpoint, read it
# back (CRC-validated) and require the re-encode to be byte-identical.
# Cheap enough for the quick loop; the full loop adds the resume-parity
# and byte-determinism smokes below.
rm -rf SNAP_quick
run cargo run --release -p dlinfma-cli "${CARGO_FLAGS[@]}" -- checkpoint --preset dowbj --scale tiny --snapshot-dir SNAP_quick

if [[ $QUICK -eq 1 ]]; then
    echo "ci: quick loop green (build + perfbench check + test + lint + 1-vs-2-shard replay + snapshot round trip)"
    exit 0
fi

# Checkpoint/resume smoke: replay Tiny on the default 1-shard fleet,
# writing a fleet checkpoint every 2 days, copy the day-2 checkpoint into a
# fresh directory, resume from it, and require
# (a) the resumed run's printed stay/candidate/sample totals to match the
# cold run's (timings excluded — they are not deterministic) and (b) every
# checkpoint file the resumed run re-writes to be byte-identical to the
# cold run's. This drives the resume-parity invariant end to end from the
# release binary.
echo "==> checkpoint/resume smoke"
rm -rf SNAP_replay SNAP_resume
cold_line=$(cargo run --release -p dlinfma-cli "${CARGO_FLAGS[@]}" -- replay --preset dowbj --scale tiny --snapshot-dir SNAP_replay --checkpoint-every 2 | tail -1)
mkdir -p SNAP_resume
cp -r SNAP_replay/day-00002 SNAP_resume/
warm_line=$(cargo run --release -p dlinfma-cli "${CARGO_FLAGS[@]}" -- resume --preset dowbj --scale tiny --snapshot-dir SNAP_resume --checkpoint-every 2 | tail -1)
cold_totals=$(grep -o '[0-9]* stays, [0-9]* candidates, [0-9]* sampled addresses' <<<"$cold_line")
warm_totals=$(grep -o '[0-9]* stays, [0-9]* candidates, [0-9]* sampled addresses' <<<"$warm_line")
if [[ -z $cold_totals || "$cold_totals" != "$warm_totals" ]]; then
    echo "ci: resumed totals diverge from the cold run" >&2
    echo "  cold: $cold_line" >&2
    echo "  warm: $warm_line" >&2
    exit 1
fi
last_day=$(ls SNAP_replay | sort | tail -1)
for f in "SNAP_replay/$last_day"/*; do
    cmp "$f" "SNAP_resume/$last_day/$(basename "$f")" || {
        echo "ci: resumed checkpoint $f diverges from the cold run" >&2
        exit 1
    }
done
echo "    resume smoke green ($cold_totals; $last_day byte-identical)"

# Snapshot byte determinism: two independent cold replays — at different
# worker counts — must produce byte-identical checkpoint trees. diff -r
# also catches a missing or extra file, not just differing bytes.
echo "==> snapshot byte determinism"
rm -rf SNAP_det_a SNAP_det_b
cargo run --release -p dlinfma-cli "${CARGO_FLAGS[@]}" -- replay --preset dowbj --scale tiny --snapshot-dir SNAP_det_a --checkpoint-every 2 > /dev/null
cargo run --release -p dlinfma-cli "${CARGO_FLAGS[@]}" -- replay --preset dowbj --scale tiny --workers 1 --snapshot-dir SNAP_det_b --checkpoint-every 2 > /dev/null
diff -r SNAP_det_a SNAP_det_b || {
    echo "ci: snapshot bytes differ between identical replays" >&2
    exit 1
}
echo "    determinism green (checkpoint trees byte-identical across worker counts)"

# Streaming-ingest smoke: replays the Tiny world day by day through the
# default 1-shard fleet with tracing on; exercises the same path the
# batch_streaming_parity tests pin down, from the CLI. The metrics export
# and the Chrome trace are CI artifacts; trace-check validates the trace's
# golden shape (matched B/E pairs per thread, monotonic timestamps).
run cargo run --release -p dlinfma-cli "${CARGO_FLAGS[@]}" -- replay --preset dowbj --scale tiny --metrics-out METRICS_report.json --trace-out TRACE_replay.json
run cargo run -p xtask "${CARGO_FLAGS[@]}" -- trace-check TRACE_replay.json
# Machine-readable pipeline timing artifact (prepare + workers sweep +
# per-day ingest), gated against the committed baseline. The gate compares
# calibrated ratios (prepare time / in-process calibration workload), so it
# is comparable across machines; it fails on a >30% regression — a
# tolerance that absorbs shared-runner scheduler noise without hiding a
# real slowdown (see GATE_TOLERANCE in bench_pipeline.rs).
run cargo run --release -p dlinfma-bench "${CARGO_FLAGS[@]}" --bin bench_pipeline -- BENCH_pipeline.json --gate BENCH_baseline.json
# Serving smoke + latency artifact: boots the HTTP server, replays the
# Tiny world through the background ingest thread, and hammers it with
# closed-loop clients plus an open-loop arrival stream while epochs are
# being published live. Every response is checked for epoch consistency
# (a backwards epoch or non-OK status fails the run) and the server must
# shut down cleanly. The calibrated mean-latency gate is a loose 3x —
# a smoke alarm for order-of-magnitude serving regressions, not a
# microbenchmark (see SERVE_GATE_TOLERANCE in bench_serve.rs).
run cargo run --release -p dlinfma-bench "${CARGO_FLAGS[@]}" --bin bench_serve -- BENCH_serve.json --gate BENCH_serve_baseline.json
run cargo fmt --all --check
run cargo clippy --workspace --all-targets "${CARGO_FLAGS[@]}" -- -D warnings

echo "ci: all green"
