#!/usr/bin/env bash
# Dead-surface census: every `pub` item declared under crates/*/src must be
# mentioned by at least one file other than its own, somewhere in the
# workspace, fda_bench, the examples or the tests. An item that is not is
# either dead (delete it), crate-internal (demote to `pub(crate)`), or kept
# on purpose — then it is listed in scripts/pub_census.allow as `file:name`.
# Fails on an unlisted unreferenced item and on a stale allow-list entry.
set -euo pipefail
cd "$(dirname "$0")/.."
roots=(crates fda_bench/src fda_bench/tests examples tests src)
allow=scripts/pub_census.allow
decl='^\s*pub (const |unsafe )?(fn|struct|enum|trait|type|const|static) [A-Za-z_][A-Za-z0-9_]*'
unreferenced=$(
    grep -rHoE --include='*.rs' "$decl" crates/*/src |
        sed -E 's/^([^:]+):.* ([A-Za-z0-9_]+)$/\1:\2/' | sort -u |
        while IFS=: read -r file name; do
            # Counted, not `grep -q`: an early exit would SIGPIPE the first
            # grep and, under pipefail, read as "no other file".
            others=$(grep -rlw --include='*.rs' -- "$name" "${roots[@]}" | grep -vcxF -- "$file" || true)
            [ "$others" -gt 0 ] || echo "$file:$name"
        done
)
listed=$(grep -Ev '^(#|$)' "$allow" | sort -u || true)
dead=$(comm -23 <(echo "$unreferenced") <(echo "$listed"))
stale=$(comm -13 <(echo "$unreferenced") <(echo "$listed"))
[ -z "$dead" ] || printf 'unreferenced pub item (delete, demote, or allow-list):\n%s\n' "$dead"
[ -z "$stale" ] || printf 'stale allow-list entry (the item is referenced or gone):\n%s\n' "$stale"
[ -z "$dead$stale" ]
