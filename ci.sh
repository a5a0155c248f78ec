#!/usr/bin/env bash
# CI gate for the workspace. Fully offline: no network access required.
#
#   ./ci.sh
#
# Steps, in order:
#   1. cargo fmt --check
#   2. cargo clippy, warnings are errors
#   3. offline release build
#   4. every test target once (the figure binaries, exactly-once ingress,
#      the live metrics plane and the auto-tuner are tests too)
#   5. rustdoc, warnings are errors
#   6. the fastflow farm matrix + lost-wakeup stress, tbbx's pool and
#      pipeline tests and the shared sync primitives, serial, under a deadline
#   7. the reach census over every library crate: each pub item is used
#      by the program or kept on tools/reach.sh's keep-list
#   8. the hetbench smoke in both modes, its count gates, and the
#      benchmark package's own tests
# .github/workflows/ci.yml runs this same script.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (warnings are errors) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo build (offline) =="
cargo build --workspace --release --offline

echo "== cargo test =="
cargo test --workspace --release --offline

echo "== cargo doc (rustdoc warnings are errors) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "== fused farm matrix + lost-wakeup stress (release, serial, under a deadline) =="
# Every output arity x ordering x queue shape x burst length against the
# sequential model, the thread census (source + N workers, nothing else),
# the one-slot-ring wakeup stress and the disconnect races, plus the
# channel's own unit tests. Then tbbx's pool, latch, pipeline and deque
# tests, and the shared ring and parker they and fastflow sit on
# (telemetry::sync): tbbx's idle workers, latches and pipelines park
# on the shared Signal with no timed wait, so a lost wakeup there hangs
# too. A deadlock or a lost wakeup shows as a hang, so the deadline
# turns it into a failure (exit 124).
timeout 900 cargo test --release --offline -p fastflow \
    --lib --test farm_fused --test farm_threads --test wakeup -- --test-threads=1
timeout 900 cargo test --release --offline -p tbbx \
    --lib --test deque_stress --test pipeline_props -- --test-threads=1
timeout 900 cargo test --release --offline -p telemetry --lib sync:: -- --test-threads=1

echo "== reach census (every pub item is used by the program or kept) =="
tools/reach.sh | awk '/ (nothing|tests only|stale keep)$/ { print "FAIL: " $0; bad = 1 } END { exit bad }'

echo "== hetbench smoke (both modes) + the benchmark package's own tests =="
# The repo's benchmark (BENCHMARK.json): all five workloads for about a
# second each, end to end and traced, every output checked against its
# sequential reference. The result file stays under target/ (ci.yml
# uploads it).
benchout="${CARGO_TARGET_DIR:-target}/hetbench_smoke.json"
benchmark/run.sh --smoke --traced --out "$benchout"
metric() { # workload, trace, name
    grep -o "\"workload\": \"$1\", \"trace\": $2.*" "$benchout" |
        grep -o "\"$3\": {\"value\": [0-9.e+-]*" | head -n 1 | grep -o '[0-9.e+-]*$'
}
gate() { # workload, trace, name, awk condition on the value
    local v
    v=$(metric "$1" "$2" "$3")
    awk -v v="$v" "BEGIN { exit !(v != \"\" && v $4) }" || {
        echo "FAIL: $1 $3 = '$v', want $4" >&2
        exit 1
    }
}
# A count, so a hard gate: an item crossing the farm allocates nothing
# (1.0 before the worker messages carried their outputs inline).
gate farm-finegrain 1 bench.allocs_per_item '< 0.01'
# Not a speed gate: three orders of magnitude below any real reading. The
# benchmark's serial reference is a pure loop; inlined next to set-up's
# identical call the compiler reuses that result, the reference "runs" in
# 44 ns and the speed-up reads 0.000002 (EXPERIMENTS.md, fused farm).
gate farm-finegrain 0 speedup_vs_serial '> 0.001'
# Three more counts, deterministic at any scale: the pool's acquire
# sequence is the same every run, and the two ledgers count bytes the
# pinned paths staged on the host — any non-zero is a code change.
gate mandel-gpu 1 fastflow.pool.hit_rate '>= 0.95'
gate mandel-gpu 1 ingress.pump.staging_bytes_per_record '== 0'
gate mandel-gpu 1 gpusim.copied_bytes_per_item '== 0'
# One more count: the file log reads a block of segment bytes per pool
# slab and hands records out as views, so a replayed record costs a
# fraction of an allocation (one `Arc` per ~16 KiB block; 0.32–0.91 when
# every 128-byte record took its own pool buffer and a third of those
# missed the pool's 32-deep class ring).
gate ingress-replay 1 bench.allocs_per_item '< 0.05'
# Two more: with no faults injected, every service batch runs on a device
# at the first attempt. A faster service must not come from the host
# fallback rung.
gate service-hashsearch 1 workload.cpu_fallbacks '== 0'
gate service-hashsearch 1 workload.retries '== 0'
# Two more counts: a nonce range is one search launch whose digests copy
# straight into the range's output buffer, with nothing staged on the
# host. A faster search must not come from a different launch count or a
# staged copy.
gate service-hashsearch 1 gpusim.kernels_per_item '== 1'
gate service-hashsearch 1 gpusim.copied_bytes_per_item '== 0'
# Two more counts: a dedup batch is one SHA-1 launch and one FindMatch
# launch, and both read the pinned batch without host staging. A faster
# stage 2 must not come from more launches or a staged copy.
gate dedup-gpu 1 gpusim.kernels_per_item '== 2'
gate dedup-gpu 1 gpusim.copied_bytes_per_item '== 0'
# The smoke's modeled device time, deterministic: it pins the work the
# match kernel meters at Fig. 5's window and chunker, which
# tests/modeled_golden.rs's default-config batch does not reach. A faster
# host walk over the lanes must not change what the lanes are charged.
gate dedup-gpu 1 gpusim.compute_busy_ms '== 1.524734'
# Four more counts, read so at two parent runs, that moving the stages
# between drivers must not move. A batch uploads its bytes and 4 B of
# startPos per block, once (stage 4 reuses the resident copy):
gate dedup-gpu 1 gpusim.h2d_bytes_per_item '== 262520'
# it reads back 20 B of digest per block and 8 B of match per byte:
gate dedup-gpu 1 gpusim.d2h_bytes_per_item '== 2099032'
# a Mandelbrot batch is one launch of the one batch kernel:
gate mandel-gpu 1 gpusim.kernels_per_item '== 1'
# and its modeled device time is the iterations Listing 2 meters.
gate mandel-gpu 1 gpusim.compute_busy_ms '== 5.158682'
(cd benchmark && CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-../target}" cargo test -q --offline)

echo
echo "ci.sh: all gates passed"
