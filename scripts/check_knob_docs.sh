#!/usr/bin/env bash
# Doc lint: the --set knob surface and the service docs must stay in
# sync with the code.
#
#  1. Every key in kKnownSetKeys (src/pipeline/overrides.cpp, the
#     single source of truth for --set / request "set" keys) must
#     appear in BUILDING.md's knob table, and every row of that table
#     must name a key in kKnownSetKeys (no stale rows for removed
#     knobs).
#  2. Every key in kKnownSetKeys must be read by a cfg.get...("<key>"
#     call in applyOverrides: a listed key that nothing reads is
#     accepted and silently ignored.
#  3. Every qplacer_server flag must be documented in BUILDING.md.
#  4. The service documentation set must exist and be linked from
#     BUILDING.md.
#
# Run from the repository root: scripts/check_knob_docs.sh

set -u
cd "$(dirname "$0")/.."

fail=0

overrides=src/pipeline/overrides.cpp
building=BUILDING.md

if [[ ! -f "$overrides" ]]; then
    echo "FAIL: $overrides not found" >&2
    exit 1
fi

# Extract the quoted keys of the kKnownSetKeys initializer.
keys=$(awk '/kKnownSetKeys\[\] = \{/,/^\};/' "$overrides" |
    sed -n 's/^[[:space:]]*"\([^"]*\)",*$/\1/p')
if [[ -z "$keys" ]]; then
    echo "FAIL: could not extract kKnownSetKeys from $overrides" >&2
    exit 1
fi

count=0
while IFS= read -r key; do
    count=$((count + 1))
    if ! grep -q -F "\`$key\`" "$building"; then
        echo "FAIL: --set key '$key' is not documented in $building" >&2
        fail=1
    fi
done <<<"$keys"
echo "checked $count --set keys against $building"

# The reverse direction: each row of the knob table (the section under
# "## Flow parameter knobs") must name a live key.
rows=$(awk '/^## Flow parameter knobs/{on=1; next} /^## /{on=0} on' \
    "$building" | sed -n 's/^| `\([^`]*\)` |.*/\1/p')
if [[ -z "$rows" ]]; then
    echo "FAIL: could not extract the knob table from $building" >&2
    exit 1
fi
count=0
while IFS= read -r row; do
    count=$((count + 1))
    if ! grep -q -x -F "$row" <<<"$keys"; then
        echo "FAIL: $building documents '$row', which is not in" \
            "kKnownSetKeys" >&2
        fail=1
    fi
done <<<"$rows"
echo "checked $count knob table rows against $overrides"

# Every listed key must be read by applyOverrides (the function body,
# joined onto one line so wrapped calls still match).
apply_body=$(awk '/^applyOverrides\(/,/^}/' "$overrides" | tr -s ' \n' ' ')
if [[ -z "$apply_body" ]]; then
    echo "FAIL: could not extract applyOverrides from $overrides" >&2
    exit 1
fi
count=0
while IFS= read -r key; do
    count=$((count + 1))
    if ! grep -q -E "cfg\.get(Int|Double|Bool)\( ?\"${key//./\\.}\"" \
        <<<"$apply_body"; then
        echo "FAIL: --set key '$key' is never read by applyOverrides" >&2
        fail=1
    fi
done <<<"$keys"
echo "checked $count --set keys against applyOverrides"

# Every qplacer_server CLI flag must be documented in BUILDING.md.
server_main=tools/qplacer_server.cpp
if [[ ! -f "$server_main" ]]; then
    echo "FAIL: $server_main not found" >&2
    exit 1
fi
flags=$(sed -n 's/.*arg == "\(--[a-z-]*\)".*/\1/p' "$server_main" |
    grep -v -e '^--help$' | sort -u)
if [[ -z "$flags" ]]; then
    echo "FAIL: could not extract server flags from $server_main" >&2
    exit 1
fi
count=0
while IFS= read -r flag; do
    count=$((count + 1))
    # Accept both bare `--flag` and `--flag ARG` spellings.
    if ! grep -q -F -e "\`$flag\`" -e "\`$flag " "$building"; then
        echo "FAIL: server flag '$flag' is not documented in $building" >&2
        fail=1
    fi
done <<<"$flags"
echo "checked $count server flags against $building"

# The documentation set itself, each linked from BUILDING.md.
for doc in docs/ARCHITECTURE.md docs/PROTOCOL.md docs/REPORT_SCHEMA.md; do
    if [[ ! -f "$doc" ]]; then
        echo "FAIL: $doc is missing" >&2
        fail=1
    elif ! grep -q -F "$doc" "$building"; then
        echo "FAIL: $doc is not linked from $building" >&2
        fail=1
    fi
done

if [[ "$fail" -ne 0 ]]; then
    echo "doc lint failed" >&2
    exit 1
fi
echo "doc lint OK"
