#!/usr/bin/env bash
# Parent-vs-change comparison of the repo's benchmark, in one command.
#
#   tools/compare.sh <base> <change> [--workloads W1,W2] [--seeds A-B] [--null] [--record]
#
# <base> and <change> are commits (anything `git rev-parse` takes); `.`
# names this checkout as it stands, uncommitted edits included. Each side
# is exported with `git archive` (`.` is used in place) and its
# `hetbench` built into its own CARGO_TARGET_DIR before any timed run.
# Then, per workload and pair, the two sides run `--trace 0` for
# BENCHMARK.json's run_seconds on the pair's seed, alternating which side
# goes first. The `compare` binary (crates/bench) prints, per end-to-end
# metric of BENCHMARK.json, each side's median [q1, q3] by nearest rank,
# change/base, pairs won and whether the medians differ by more than the
# base's inter-quartile distance.
#
#   --workloads  comma-separated (default: every workload of BENCHMARK.json)
#   --seeds A-B  one pair per seed (default 1-10)
#   --null       run <base> against itself and ignore <change>: how often
#                a row "wins" with no change at all, on this host at this
#                hour, to print beside a claim made from runs alongside it
#   --record     also append one JSON line per workload to
#                BENCH_history.jsonl at the repo root: date, both shas
#                (a null run's change is its base), whether `.` had
#                uncommitted edits, the seeds, nproc, and per end-to-end
#                metric both medians and every pair's change/base ratio
#
# Sources, builds and the raw result lines go under
# ${CARGO_TARGET_DIR:-target}/compare/. Exits 1 if any run failed an
# operation or printed no correct result.
set -euo pipefail
cd "$(dirname "$0")/.."
root=$PWD

usage() {
    sed -n '2,30p' "$0" | sed 's/^# \{0,1\}//' >&2
    exit 2
}
(($# >= 2)) || usage
base=$1 change=$2
shift 2
workloads='' first=1 last=10 null=0 record=0
while (($#)); do
    case $1 in
    --workloads) workloads=$2 && shift ;;
    --seeds)
        [[ $2 =~ ^([0-9]+)-([0-9]+)$ ]] || usage
        first=${BASH_REMATCH[1]} last=${BASH_REMATCH[2]}
        shift
        ;;
    --null) null=1 ;;
    --record) record=1 ;;
    *) usage ;;
    esac
    shift
done
((first <= last)) || usage

cargo build --release --offline --quiet -p bench --bin compare >&2
compare=${CARGO_TARGET_DIR:-$root/target}/release/compare
plan=$("$compare" plan)
read -r seconds all_workloads <<<"$plan"
workloads=${workloads:-$all_workloads}

dir=$(mkdir -p "${CARGO_TARGET_DIR:-target}/compare" && cd "${CARGO_TARGET_DIR:-target}/compare" && pwd)

# build <side> <rev>: the side's hetbench, built before anything is timed.
build() {
    local side=$1 rev=$2 src
    if [[ $rev == . ]]; then
        src=$root
        echo "$side: this checkout ($(git rev-parse --short HEAD) + uncommitted edits)" >&2
    else
        local sha
        sha=$(git rev-parse --verify "$rev^{commit}")
        src=$dir/$side-src
        # The archive keeps the commit's file times, so an unchanged
        # side rebuilds nothing.
        rm -rf "$src" && mkdir -p "$src"
        git archive "$sha" | tar -x -C "$src"
        echo "$side: $sha" >&2
    fi
    CARGO_TARGET_DIR=$dir/$side cargo build --release --offline --quiet \
        --manifest-path "$src/benchmark/Cargo.toml" >&2
}

build base "$base"
if ((null)); then
    change_bin=$dir/base/release/hetbench
    echo "null run: base against itself" >&2
else
    build change "$change"
    change_bin=$dir/change/release/hetbench
fi
base_bin=$dir/base/release/hetbench

# run <side> <binary> <workload> <seed>: one result line into the log.
run() {
    local line
    line=$(CARGO_TARGET_DIR=$dir/$1 "$2" --workload "$3" --seed "$4" \
        --seconds "$seconds" --trace 0 2>/dev/null | tail -n 1) || true
    echo "$1 $3 $4 ${line:-null}" >>"$results"
}

results=$dir/runs.txt
: >"$results"
IFS=, read -ra ws <<<"$workloads"
for w in "${ws[@]}"; do
    for ((seed = first; seed <= last; seed++)); do
        i=$((seed - first))
        echo "$w: pair $((i + 1))/$((last - first + 1)), seed $seed" >&2
        if ((i % 2 == 0)); then
            run base "$base_bin" "$w" "$seed"
            run change "$change_bin" "$w" "$seed"
        else
            run change "$change_bin" "$w" "$seed"
            run base "$base_bin" "$w" "$seed"
        fi
    done
done
if ((!record)); then
    "$compare" "$results"
    exit
fi
# sha <rev>: the commit a side ran (`.` runs HEAD plus uncommitted edits).
sha() {
    local rev=$1
    [[ $rev == . ]] && rev=HEAD
    git rev-parse --verify "$rev^{commit}"
}
base_sha=$(sha "$base") change_sha=$(sha "$change") dirty=false
if ((null)); then
    change_sha=$base_sha
elif [[ $change == . && -n $(git status --porcelain) ]]; then
    dirty=true
fi
"$compare" "$results" --record "$root/BENCH_history.jsonl" "$(date -u +%FT%TZ)" \
    "$base_sha" "$change_sha" "$dirty" "$first-$last" "$(nproc)"
