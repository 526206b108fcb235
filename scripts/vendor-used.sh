#!/usr/bin/env bash
# Every crate vendored under vendor/ must be a dependency of at least one
# manifest outside vendor/ — a stub nobody links is code to delete, not
# to carry (DESIGN.md §5.2).
#
# A use is a `name = …` / `name.workspace = true` line inside a
# `[dependencies]`, `[dev-dependencies]`, `[build-dependencies]` or
# `[target.….dependencies]` table of the root manifest, crates/*/Cargo.toml
# or gfdbench/Cargo.toml. The root's `[workspace.dependencies]` table only
# declares where a crate lives and does not count.
#
# A declared dependency counts even when no code links it. One such crate
# is kept on purpose: crossbeam-channel, which gfd-core declares but no
# code calls, stays until ROADMAP [bench] may rewrite gfdbench/Cargo.lock,
# which lists it.
#
# Prints one line per vendored crate and fails when one has no user.
set -euo pipefail
cd "$(dirname "$0")/.."

users_of() {
    awk -v name="$1" '
        /^\[/ { in_deps = ($0 ~ /dependencies\]$/ && $0 != "[workspace.dependencies]") }
        in_deps && $0 ~ "^" name "(\\.workspace)?[ \t]*=" { print FILENAME; nextfile }
    ' Cargo.toml crates/*/Cargo.toml gfdbench/Cargo.toml
}

unused=0
for dir in vendor/*/; do
    name=$(basename "$dir")
    users=$(users_of "$name" | wc -l)
    printf '%-20s %2d manifest(s)\n' "$name" "$users"
    if [ "$users" -eq 0 ]; then
        echo "vendor/$name is a dependency of no manifest outside vendor/" >&2
        unused=1
    fi
done
exit "$unused"
