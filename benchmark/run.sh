#!/usr/bin/env bash
# hetstream's benchmark: one command.
#
#   benchmark/run.sh [--seed N] [--seconds S] [--out FILE] [--traced] [--smoke]
#       every workload, end-to-end run (and, with --traced, the per-layer
#       run too); every metric is printed by name and unit on stderr and
#       the result lines are collected into FILE.
#       --smoke: about a second per workload, checks on, nothing timed long
#       enough to compare against a bound.
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one workload, one run: what BENCHMARK.json's `command` expands to.
#       The last stdout line is {"correct", "attempted", "failed", "metrics"}.
#
# Run from the repository root. Each workload runs in its own process, so
# peak RSS and thread state are that workload's alone. Exits non-zero if
# the build fails or any output differs from its sequential reference.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
# The build goes under the root's ignored target/ unless the caller names
# another place; hetbench writes its traces and scratch files beside it.
export CARGO_TARGET_DIR=${CARGO_TARGET_DIR:-$here/../target}
cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" --target-dir "$CARGO_TARGET_DIR" >&2
hetbench=$CARGO_TARGET_DIR/release/hetbench

workloads=(mandel-gpu dedup-gpu farm-finegrain ingress-replay service-hashsearch)
seed=1 seconds=20 out= traced=0 smoke=()
case " $* " in *" --workload "*) exec "$hetbench" "$@" ;; esac
while (($#)); do
    case $1 in
    --seed) seed=$2 && shift ;;
    --seconds) seconds=$2 && shift ;;
    --out) out=$2 && shift ;;
    --traced) traced=1 ;;
    --smoke) smoke=(--smoke) seconds=0.5 ;;
    *) echo "run.sh: unknown argument $1" >&2 && exit 2 ;;
    esac
    shift
done

status=0 runs=()
for w in "${workloads[@]}"; do
    for trace in $(seq 0 "$traced"); do
        if line=$("$hetbench" --workload "$w" --seed "$seed" --seconds "$seconds" \
            --trace "$trace" "${smoke[@]}" | tail -n 1); then
            :
        else
            status=1
        fi
        runs+=("{\"workload\": \"$w\", \"trace\": $trace, \"result\": ${line:-null}}")
    done
done
if [[ -n $out ]]; then
    (
        IFS=,
        printf '{"seed": %s, "seconds": %s, "runs": [%s]}\n' "$seed" "$seconds" "${runs[*]}"
    ) >"$out"
fi
((status == 0)) && echo "hetbench: every output matched its reference" >&2
exit "$status"
