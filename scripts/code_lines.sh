#!/bin/sh
# Code lines, the measure every simplicity PR quotes: lines of
# crates/*/src/**/*.rs that are neither blank nor a `//` comment, up to
# the file's first `#[cfg(test)]`. Run from the repo root.
#
#   scripts/code_lines.sh            per-crate table and total
#   scripts/code_lines.sh FILE...    the count of each given file
set -eu

count() {
    awk '/^#\[cfg\(test\)\]/{exit} !/^[ \t]*(\/\/.*)?$/{c++} END{print c+0}' "$1"
}

if [ "$#" -gt 0 ]; then
    for file in "$@"; do
        printf '%6d  %s\n' "$(count "$file")" "$file"
    done
    exit 0
fi

total=0
for crate in crates/*; do
    lines=0
    for file in $(find "$crate/src" -name '*.rs'); do
        lines=$((lines + $(count "$file")))
    done
    printf '%6d  %s\n' "$lines" "$crate"
    total=$((total + lines))
done
printf '%6d  total\n' "$total"
