#!/usr/bin/env bash
# Reach census of the workspace's public surface.
#
#   tools/reach.sh                   # every library crate under crates/
#   tools/reach.sh fastflow tbbx     # any subset, in that order
#
# Prints one `crate  item  reach` line per `pub` item (fn, method, struct,
# enum, trait, type, const, static, mod, exported macro) that a crate
# declares in src/ ahead of each file's first `#[cfg(test)]`. The reach is
# the first of these places that names the item:
#
#   hetbench     benchmark/ (the repo's benchmark, which builds against it)
#   bench bin    crates/bench/src/bin/ (the figure binaries)
#   example      examples/
#   other crate  non-test code of another workspace crate or the facade
#   own crate    non-test code of the declaring crate, beyond the declaration
#   tests only   test modules, crates/*/tests/ and tests/
#   nothing      no line at all
#
# An item on the keep-list below reads `tests only (kept)` instead of
# `tests only`; a keep-list line whose item no longer reads `tests only`
# prints as `stale keep`. So the program uses every item except those on
# the list exactly when no line ends in `nothing`, `tests only` or
# `stale keep` (what ci.sh checks).
#
# Reach is by name, the way grep sees it: comments, `pub use` re-exports and
# `mod` declarations do not count, and a method named like another
# (`new`, `len`) is reached wherever either is. The census therefore
# over-states reach, so an item it marks "tests only" or "nothing" really
# is unused by the program.
set -euo pipefail
cd "$(dirname "$0")/.."

# The `tests only` items that stay, one per line, with the reason. Each is
# a reference implementation tests compare against, a fixture several
# crates' tests share, an observable through which a surviving test checks
# what the program does, a knob that bounds a test's size or time, or the
# resumable consumer path the exactly-once tests hold.
keep=$(cat <<'EOF'
fastflow  PipelineBuilder::into_receiver      # the terminal op that hands the stream to the caller
tbbx      PipelineBuilder::serial_out_of_order  # one of the three TBB filter kinds
simtime   XorShift64::next_u32                # the 32-bit draw of three crates' property tests
gpusim    StreamId::DEFAULT                   # the stream four crates' kernel tests enqueue on
gpusim    FaultSpec::none                     # fixture: the disarmed fault schedule
gpusim    FaultSpec::demo                     # fixture: the fault schedule the ladder tests arm
gpusim    DeviceProps::test_tiny              # fixture: the small device of several crates' tests
gpusim    overlap_fraction                    # observable: copy/compute overlap of a traced run
telemetry count_staging                       # the staging path's charge point; the ledger tests use it
telemetry Recorder::flight_snapshot           # observable: the flight ring, as the replay tests read it
ingress   FileLogSink::with_segment_bytes     # knob: multi-segment logs at test size
ingress   FileLogSource::open_resume          # resumable consumer: the exactly-once kill-and-resume tests
ingress   read_all                            # resumable consumer: reads a stream back bit-exactly
ingress   FileLogSource::rewind               # replay: a rewound source re-delivers in the first pass's order
ingress   Receipt::is_acked                   # observable: fsync-on-ack durability
ingress   TcpSink::with_ack_poll              # knob: bounds the stalled-consumer test in time
dedup     Archive::from_bytes                 # reads back what to_bytes writes (Fig. 5 sizes it)
dedup     chunk_starts_reference              # reference implementation chunk_starts is held to
dedup     find_match_scalar                   # reference the search is held to
taskgraph CostModelScheduler::max_device_busy_ns  # observable: placement balance
EOF
)

crates=("$@")
if ((${#crates[@]} == 0)); then
    for lib in crates/*/src/lib.rs; do
        crate=${lib#crates/}
        crate=${crate%%/*}
        [[ $crate == core ]] && crate=spar
        crates+=("$crate")
    done
fi

# The crate a source file belongs to (`spar` lives in crates/core).
crate_of() {
    case $1 in
        src/*) echo hetstream ;;
        crates/core/*) echo spar ;;
        *) echo "$1" | cut -d/ -f2 ;;
    esac
}

# Where a line of a source file reaches from, before the test tail.
place_of() {
    case $1 in
        benchmark/*) echo hetbench ;;
        crates/bench/src/bin/*) echo "bench bin" ;;
        examples/*) echo example ;;
        tests/* | crates/*/tests/*) echo tests ;;
        *) echo "src:$(crate_of "$1")" ;;
    esac
}

# The type an `impl` line is for: `impl<T: X<U>> Trait for Name<T>` → Name.
impl_owner='
    function impl_owner(s,    depth, i, c) {
        s = substr(s, 5)
        if (s ~ /^</) {
            depth = 0
            for (i = 1; i <= length(s); i++) {
                c = substr(s, i, 1)
                if (c == "<") depth++
                else if (c == ">" && --depth == 0) { s = substr(s, i + 1); break }
            }
        }
        sub(/.* for /, "", s)
        match(s, /[A-Za-z_][A-Za-z0-9_]*/)
        return substr(s, RSTART, RLENGTH)
    }
'

items=$(mktemp)
kept=$(mktemp)
trap 'rm -f "$items" "$kept"' EXIT
printf '%s\n' "$keep" | sed 's/#.*//' | awk -v sel=" ${crates[*]} " 'NF == 2 && index(sel, " " $1 " ")' >"$kept"

# Pass 1: the declarations, as `crate <TAB> shown name <TAB> name <TAB> file:line`.
for crate in "${crates[@]}"; do
    dir=crates/$crate
    [[ $crate == spar ]] && dir=crates/core
    [[ -d $dir/src ]] || { echo "reach.sh: no crate $crate" >&2; exit 2; }
    find "$dir/src" -name '*.rs' | sort | while read -r f; do
        awk -v crate="$crate" -v f="$f" "$impl_owner"'
            /^[ \t]*#\[cfg\(test\)\]/ { exit }
            /^impl[ <]/ { owner = impl_owner($0) }
            /^}/ { owner = "" }
            /^[ \t]*macro_rules! / && exported {
                s = $0; sub(/.*macro_rules! /, "", s); sub(/[^A-Za-z0-9_].*/, "", s)
                printf "%s\t%s!\t%s\t%s:%d\n", crate, s, s, f, FNR
            }
            { exported = /#\[macro_export\]/ }
            /^[ \t]*pub[ \t]/ {
                s = $0; sub(/^[ \t]*pub[ \t]+/, "", s)
                while (s ~ /^(const|unsafe|async|extern "[^"]*")[ \t]+(fn|const|unsafe|async|extern)[ \t]/)
                    sub(/^[^ \t]+[ \t]+/, "", s)
                if (s !~ /^(fn|struct|enum|trait|type|const|static|mod|union)[ \t]/) next
                sub(/^[a-z]+[ \t]+/, "", s)
                match(s, /^[A-Za-z_][A-Za-z0-9_]*/)
                name = substr(s, 1, RLENGTH)
                shown = ($0 ~ /^[ \t]/ && owner != "") ? owner "::" name : name
                printf "%s\t%s\t%s\t%s:%d\n", crate, shown, name, f, FNR
            }
        ' "$f"
    done
done >"$items"

# Pass 2: every line that names an item, by place; then the verdicts. A
# type named inside its own `impl` blocks is not reached by that.
find benchmark/src crates src examples tests -name '*.rs' | sort | while read -r f; do
    printf '%s\t%s\n' "$f" "$(place_of "$f")"
done | awk -F'\t' -v items="$items" -v kept="$kept" "$impl_owner"'
    BEGIN {
        while ((getline line < items) > 0) {
            split(line, a, "\t")
            n++; crate[n] = a[1]; shown[n] = a[2]; name[n] = a[3]
            wanted[a[3]] = 1; decl[a[4]] = a[3]
        }
        while ((getline line < kept) > 0) {
            split(line, a, " ")
            keep[a[1], a[2]] = 1
        }
    }
    {
        file = $1; place = $2; reexport = 0; lineno = 0; owner = ""
        while ((getline text < file) > 0) {
            lineno++
            if (text ~ /^impl[ <]/) owner = impl_owner(text)
            else if (text ~ /^}/) owner = ""
            if (place ~ /^src:/ && text ~ /^[ \t]*#\[cfg\(test\)\]/) place = "tests"
            if (reexport) { reexport = text !~ /;/; continue }
            if (text ~ /^[ \t]*pub use /) { reexport = text !~ /;/; continue }
            if (text ~ /^[ \t]*(pub(\([a-z]+\))? )?mod [A-Za-z0-9_]+;/) continue
            if (text ~ /^[ \t]*\/\//) continue
            sub(/\/\/.*/, "", text)
            k = split(text, tok, /[^A-Za-z0-9_]+/)
            for (i = 1; i <= k; i++) {
                t = tok[i]
                if (!(t in wanted) || t == owner || decl[file ":" lineno] == t) continue
                seen[t, place] = 1
                from = "|" substr(place, 5) "|"
                if (place ~ /^src:/ && !index(crates_of[t], from)) crates_of[t] = crates_of[t] from
            }
        }
        close(file)
    }
    END {
        for (i = 1; i <= n; i++) {
            t = name[i]; c = crate[i]; verdict = "nothing"
            if ((t, "hetbench") in seen) verdict = "hetbench"
            else if ((t, "bench bin") in seen) verdict = "bench bin"
            else if ((t, "example") in seen) verdict = "example"
            else {
                others = crates_of[t]
                gsub("[|]" c "[|]", "", others)
                if (others != "") verdict = "other crate"
                else if ((t, "src:" c) in seen) verdict = "own crate"
                else if ((t, "tests") in seen) verdict = "tests only"
            }
            if (verdict == "tests only" && (c, shown[i]) in keep) {
                verdict = "tests only (kept)"
                used[c, shown[i]] = 1
            }
            printf "%-9s %-42s %s\n", c, shown[i], verdict
        }
        for (k in keep) {
            if (k in used) continue
            split(k, a, SUBSEP)
            printf "%-9s %-42s %s\n", a[1], a[2], "stale keep"
        }
    }
'
