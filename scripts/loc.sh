#!/usr/bin/env bash
# Size census: the non-test code lines of every crate's `src/` and `tests/`
# and in total, and the non-comment `unsafe` lines. A non-test code line is
# a line that is neither blank nor a comment (`//`, `///`, `//!`), counted
# in each tracked `.rs` file under crates/ and src/ up to its first
# `#[cfg(test)]` line, so a file under a crate's `tests/` counts whole.
# Informational: it gates nothing.
set -euo pipefail
cd "$(dirname "$0")/.."
git ls-files 'crates/*.rs' 'src/*.rs' | while read -r file; do
    lines=$(awk '/^#\[cfg\(test\)\]/{exit} !/^[[:space:]]*(\/\/|$)/' "$file" | wc -l)
    case "$file" in
        crates/*) unit=$(echo "$file" | cut -d/ -f1-3) ;;
        *) unit=src ;;
    esac
    echo "$unit $lines"
done | awk '{ n[$1] += $2; total += $2 }
    END { for (u in n) printf "%-20s %6d\n", u, n[u] | "sort"; close("sort");
          printf "%-20s %6d\n", "total", total }'
unsafe=$(git ls-files 'crates/*.rs' 'src/*.rs' | xargs grep -hw unsafe | grep -cvE '^\s*//' || true)
printf '%-20s %6d\n' "unsafe lines" "$unsafe"
