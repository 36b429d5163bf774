#!/usr/bin/env bash
# Product code lines: every `.rs` file under `crates/*/src` and `src`, cut at
# its first column-0 `#[cfg(test)]` (the test module; an indented one marks
# a single test-only item), with blank lines and `//` comment lines —
# doc comments included — dropped.  ROADMAP aim 2 ("the least code") as a
# command instead of a hand count.
#
#   scripts/loc.sh            # the four figures PRs quote
#   scripts/loc.sh PATH...    # product code lines under the given files/dirs
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

count() {
    find "$@" -name '*.rs' -print0 | sort -z | xargs -0 awk '
        FNR == 1 { in_tests = 0 }
        /^#\[cfg\(test\)\]/ { in_tests = 1 }
        in_tests || /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
        { n++ }
        END { print n + 0 }'
}

if [ "$#" -gt 0 ]; then
    count "$@"
    exit
fi
printf '%6d  workspace (crates/*/src + src)\n' "$(count crates/*/src src)"
printf '%6d  crates/core/src/engine/\n' "$(count crates/core/src/engine)"
printf '%6d  crates/core/src/engine/mod.rs\n' "$(count crates/core/src/engine/mod.rs)"
printf '%6d  crates/join/src/operator/\n' "$(count crates/join/src/operator)"
