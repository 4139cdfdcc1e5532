#!/usr/bin/env bash
# Dead-surface census: every `pub` item declared under crates/*/src must be
# mentioned by at least one file other than its own, somewhere in the
# workspace, fda_bench, the examples or the tests. A mention on a line that
# is only a comment (`//`, `///`, `//!`) does not count. A type, const or
# static is mentioned by any whole-word match; a `fn` only by a call- or
# path-shaped one (`name(`, `::name`, `.name`) or by an entry of a `use`
# list, so a function that shares its name with a field, a variable or a
# type is not kept alive by them. An item that is not
# mentioned is either dead (delete it), crate-internal (demote to
# `pub(crate)`), or a type kept on purpose — then it is listed in
# scripts/pub_census.allow as `file:name`. Only a `struct`, `enum`, `type`
# or `trait` may be listed; a `fn`, `const` or `static` entry fails.
# Fails on an unlisted unreferenced item, on a stale allow-list entry and on
# an allow-list entry that is not a type declaration.
set -euo pipefail
cd "$(dirname "$0")/.."
roots=(crates fda_bench/src fda_bench/tests examples tests src)
allow=scripts/pub_census.allow
decl='^\s*pub (const |unsafe )?(fn|struct|enum|trait|type|const|static) [A-Za-z_][A-Za-z0-9_]*'
# Every `use` declaration of the roots on one line, prefixed `file:`.
uses=$(find "${roots[@]}" -name '*.rs' -exec awk '
    FNR == 1 { acc = "" }
    acc == "" && /^[[:space:]]*(pub(\([a-z]+\))? )?use / { acc = FILENAME ":" }
    acc != "" { acc = acc " " $0; if ($0 ~ /;/) { print acc; acc = "" } }
' {} +)
unreferenced=$(
    grep -rHoE --include='*.rs' "$decl" crates/*/src |
        sed -E 's/^([^:]+):\s*pub (const |unsafe )?([a-z]+) ([A-Za-z0-9_]+)$/\1:\3:\4/' | sort -u |
        while IFS=: read -r file kind name; do
            # Counted, not `grep -q`: an early exit would SIGPIPE the first
            # grep and, under pipefail, read as "no other file".
            if [ "$kind" = fn ]; then
                shape="(\\b$name\\s*\\(|::$name\\b|\\.$name\\b)"
                mentions=$({ grep -rHE --include='*.rs' -- "$shape" "${roots[@]}" || true
                    grep -w -- "$name" <<<"$uses" || true; })
            else
                mentions=$(grep -rHw --include='*.rs' -- "$name" "${roots[@]}" || true)
            fi
            others=$(grep -vE '^[^:]+:\s*//' <<<"$mentions" | cut -d: -f1 | sort -u |
                grep -vcxF -- "$file" || true)
            [ "$others" -gt 0 ] || echo "$file:$name"
        done | sort -u
)
listed=$(grep -Ev '^(#|$)' "$allow" | sort -u || true)
not_type=$(
    echo "$listed" | while IFS=: read -r file name; do
        [ -n "$name" ] || continue
        grep -qE "^\s*pub (struct|enum|type|trait) $name\b" "$file" 2>/dev/null ||
            echo "$file:$name"
    done
)
dead=$(comm -23 <(echo "$unreferenced") <(echo "$listed"))
stale=$(comm -13 <(echo "$unreferenced") <(echo "$listed"))
[ -z "$dead" ] || printf 'unreferenced pub item (delete, demote, or allow-list a type):\n%s\n' "$dead"
[ -z "$stale" ] || printf 'stale allow-list entry (the item is referenced or gone):\n%s\n' "$stale"
[ -z "$not_type" ] || printf 'allow-list entry is not a struct/enum/type/trait declaration:\n%s\n' "$not_type"
[ -z "$dead$stale$not_type" ]
