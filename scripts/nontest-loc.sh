#!/usr/bin/env bash
# Non-test lines of code across crates/ — the count behind ROADMAP's
# "least code" scoreboard.
#
# Rule: for every crates/*/src/*.rs except proptests.rs, the lines before
# the test module: the first line starting with `#[cfg(test)]` whose next
# line starts a `mod` (the whole file when there is none). A `#[cfg(test)]`
# on anything else (a test-only `use` or `thread_local!`) counts like any
# other line. Blank lines and comments count: the number only has to move
# the same way the code does, and a rule this plain cannot be gamed by
# reformatting.
#
# Prints one line per crate and the total, and fails when the total is
# not exactly CEILING. A change that needs more code raises CEILING in the
# same commit, so growth is a visible one-line edit in review; a change
# that removes code must lower it, so the removal is banked and cannot be
# spent again unseen. On a mismatch the script prints the value to set.
#
# Bench programs are code too: a last line counts every line of
# crates/*/benches/*.rs against BENCH_CEILING, same rule.
set -euo pipefail
cd "$(dirname "$0")/.."

CEILING=20189
BENCH_CEILING=1662

total=0
for crate in crates/*/; do
    n=0
    for f in "$crate"src/*.rs; do
        [ "$(basename "$f")" = proptests.rs ] && continue
        lines=$(awk '
            held && /^(pub(\(crate\))? )?mod / { held = 0; exit }
            held { n++; held = 0 }
            /^#\[cfg\(test\)\]/ { held = 1; next }
            { n++ }
            END { print n + held }' "$f")
        n=$((n + lines))
    done
    printf '%-14s %6d\n' "$(basename "$crate")" "$n"
    total=$((total + n))
done
printf '%-14s %6d  (ceiling %d)\n' total "$total" "$CEILING"
benches=$(cat crates/*/benches/*.rs | wc -l)
printf '%-14s %6d  (ceiling %d)\n' benches "$benches" "$BENCH_CEILING"
status=0
check() { # name, count, ceiling, variable
    if [ "$2" -gt "$3" ]; then
        echo "$1 line count $2 exceeds the recorded ceiling $3: raise $4 to $2" >&2
        status=1
    elif [ "$2" -lt "$3" ]; then
        echo "$1 line count $2 is below the recorded ceiling $3: lower $4 to $2" >&2
        status=1
    fi
}
check non-test "$total" "$CEILING" CEILING
check bench "$benches" "$BENCH_CEILING" BENCH_CEILING
exit $status
