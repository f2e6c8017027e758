#!/usr/bin/env bash
# Validates every committed BENCH_*.json artefact against the
# fcm-bench/v1 schema (see DESIGN.md §Observability), and checks that
# the artefacts and the [[bench]] targets of crates/bench/Cargo.toml
# pair up one to one: a bench without a committed artefact records
# nothing, and an artefact without a bench cannot be regenerated. Thin
# wrapper over the check_bench_schema binary so CI and humans run the
# same check; wired into scripts/verify.sh.

set -euo pipefail
cd "$(dirname "$0")/.."

shopt -s nullglob
artefacts=(BENCH_*.json)
if [ ${#artefacts[@]} -eq 0 ]; then
    echo "check_bench_schema: no BENCH_*.json artefacts found" >&2
    exit 1
fi

benches=$(awk '/^\[\[bench\]\]/ { b = 1; next }
    b && $1 == "name" { gsub(/"/, "", $3); print $3; b = 0 }' crates/bench/Cargo.toml | sort)
files=$(printf '%s\n' "${artefacts[@]}" | sed 's/^BENCH_//; s/\.json$//' | sort)
unpaired=0
for name in $(comm -23 <(echo "$benches") <(echo "$files")); do
    echo "check_bench_schema: bench $name has no committed BENCH_$name.json" >&2
    unpaired=1
done
for name in $(comm -13 <(echo "$benches") <(echo "$files")); do
    echo "check_bench_schema: BENCH_$name.json has no [[bench]] in crates/bench/Cargo.toml" >&2
    unpaired=1
done
[ "$unpaired" -eq 0 ] || exit 1

cargo run --release --offline -q -p fcm-bench --bin check_bench_schema -- "${artefacts[@]}"
