#!/usr/bin/env bash
# Product code lines: every `.rs` file under `crates/*/src` and `src`, cut at
# its first column-0 `#[cfg(test)]` (the test module; an indented one marks
# a single test-only item), with blank lines and `//` comment lines —
# doc comments included — dropped.  ROADMAP aim 2 ("the least code") as a
# command instead of a hand count.  Three more figures, over the same files
# and the same cut, size the public surface: `pub` items (`fn`, `struct`,
# `enum`, `trait`, `type`, `const`, `static`), `pub` named fields and
# `pub mod` declarations (a public module gives every item in it a second
# public path beside its crate-root re-export); `pub(crate)` and narrower
# visibilities do not count.
#
#   scripts/loc.sh            # the seven figures PRs quote
#   scripts/loc.sh PATH...    # product code lines under the given files/dirs
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

# count_matching REGEX PATH...: lines matching the awk REGEX, each file cut
# at its first column-0 `#[cfg(test)]`.
count_matching() {
    local re=$1
    shift
    find "$@" -name '*.rs' -print0 | sort -z | xargs -0 awk -v re="$re" '
        FNR == 1 { in_tests = 0 }
        /^#\[cfg\(test\)\]/ { in_tests = 1 }
        !in_tests && $0 ~ re { n++ }
        END { print n + 0 }'
}

# Product code lines: neither blank nor starting with `//`.
count() {
    count_matching '^[[:space:]]*([^[:space:]/]|/([^/]|$))' "$@"
}

if [ "$#" -gt 0 ]; then
    count "$@"
    exit
fi
printf '%6d  workspace (crates/*/src + src)\n' "$(count crates/*/src src)"
printf '%6d  crates/core/src/engine/\n' "$(count crates/core/src/engine)"
printf '%6d  crates/core/src/engine/mod.rs\n' "$(count crates/core/src/engine/mod.rs)"
printf '%6d  crates/join/src/operator/\n' "$(count crates/join/src/operator)"
printf '%6d  pub items (crates/*/src + src)\n' \
    "$(count_matching '^[[:space:]]*pub (fn|struct|enum|trait|type|const|static) ' crates/*/src src)"
printf '%6d  pub fields (crates/*/src + src)\n' \
    "$(count_matching '^[[:space:]]*pub [a-z_][a-z0-9_]*:' crates/*/src src)"
printf '%6d  pub mod (crates/*/src + src)\n' \
    "$(count_matching '^[[:space:]]*pub mod ' crates/*/src src)"
