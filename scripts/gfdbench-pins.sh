#!/usr/bin/env bash
# Names kept alive only because gfdbench/ — which a code PR may not edit —
# imports them. Each is a shim ROADMAP [bench] deletes;
# until then it must not regain callers.
#
# Rule: every whole-word occurrence of a pinned name under crates/ src/
# tests/ examples/ sits on a line that also carries the marker
# `gfdbench-pin` (its definition and re-export lines). Prints the
# offending lines and fails when there is one.
set -euo pipefail
cd "$(dirname "$0")/.."

PINNED='Gfd|GfdSet|from_gfds|DispatchMode|consequence_deducible|DepSatOutcome|apply_independent|apply_conflicts|extract_model'

if grep -rnwE "$PINNED" crates src tests examples --include='*.rs' | grep -v 'gfdbench-pin'; then
    echo "a gfdbench-pinned name is used off a line marked gfdbench-pin" >&2
    exit 1
fi
echo "gfdbench pins: every use of $PINNED is on a gfdbench-pin line"
