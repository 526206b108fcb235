#!/usr/bin/env bash
# Non-test lines of code across crates/ — the count behind ROADMAP's
# "least code" scoreboard.
#
# Rule: for every crates/*/src/*.rs except proptests.rs, the lines before
# the first line starting with `#[cfg(test)]` (the whole file when there is
# none). Blank lines and comments count: the number only has to move the
# same way the code does, and a rule this plain cannot be gamed by
# reformatting.
#
# Prints one line per crate and the total, and fails when the total
# exceeds CEILING. A change that needs more code raises CEILING in the
# same commit, so growth is a visible one-line edit in review; a change
# that removes code lowers it.
#
# Bench programs are code too: a last line counts every line of
# crates/*/benches/*.rs against BENCH_CEILING, same rule.
set -euo pipefail
cd "$(dirname "$0")/.."

CEILING=23109
BENCH_CEILING=1865

total=0
for crate in crates/*/; do
    n=0
    for f in "$crate"src/*.rs; do
        [ "$(basename "$f")" = proptests.rs ] && continue
        lines=$(awk '/^#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$f")
        n=$((n + lines))
    done
    printf '%-14s %6d\n' "$(basename "$crate")" "$n"
    total=$((total + n))
done
printf '%-14s %6d  (ceiling %d)\n' total "$total" "$CEILING"
benches=$(cat crates/*/benches/*.rs | wc -l)
printf '%-14s %6d  (ceiling %d)\n' benches "$benches" "$BENCH_CEILING"
if [ "$total" -gt "$CEILING" ]; then
    echo "non-test line count $total exceeds the recorded ceiling $CEILING" >&2
    exit 1
fi
if [ "$benches" -gt "$BENCH_CEILING" ]; then
    echo "bench line count $benches exceeds the recorded ceiling $BENCH_CEILING" >&2
    exit 1
fi
