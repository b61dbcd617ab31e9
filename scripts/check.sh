#!/usr/bin/env bash
# Repository gate: formatting, vet, wdptlint, build, tests under the race
# detector, vet + short tests of the nested bench/ module, a wdptd
# end-to-end selfcheck against the examples/data datasets
# (which also scrapes /metrics into metrics-snapshot.prom and asserts the
# exposition carries query-duration samples), a -short benchmark smoke,
# a wdptbench metrics-artifact smoke at Parallelism=1 (writes
# BENCH_<date>.json, uploaded by CI) with a benchdiff self-smoke as its
# schema check (the artifact diffed against itself must report zero
# regressions), a snapshot persistence gate (a dataset converted to the
# binary snapshot format must answer byte-identically to its text source,
# and reloading the snapshot must beat reparsing the text by
# WDPT_SNAP_MIN_SPEEDUP),
# a cluster smoke (scripts/cluster_smoke.sh: 3 members + 1 coordinator,
# byte-parity with and without a killed member, a wdptstress -quick run
# whose STRESS_<date>-smoke.json artifact benchdiff must accept),
# and bounded parser + storage-model + snapshot-loader + query-request +
# scatter-merge + Lemma 1 pruning + subsumption-reference fuzz smokes.
# CI (.github/workflows/ci.yml) runs exactly this script.
#
#   ./scripts/check.sh
#
# Environment:
#   WDPT_SKIP_FUZZ=1   skip the fuzz smoke (useful where the fuzz cache
#                      is unavailable or the time budget is tight)
#   FUZZTIME=10s       per-target fuzz budget
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== gofmt"
unformatted=$(gofmt -l .)
if [[ -n "$unformatted" ]]; then
  echo "gofmt needed on:" >&2
  echo "$unformatted" >&2
  exit 1
fi

echo "== go vet"
go vet ./...

echo "== go build"
go build ./...

# wdptlint fails on any finding, writes the JSON findings artifact CI
# uploads, and is held to a wall-time budget; the stderr timing line is
# asserted as evidence the parallel loader ran.
echo "== wdptlint (JSON artifact, timed)"
lint_start=$(date +%s)
lint_status=0
go run ./cmd/wdptlint -json ./... \
  >wdptlint-findings.json 2>wdptlint-timing.log || lint_status=$?
lint_elapsed=$(( $(date +%s) - lint_start ))
grep -E 'loaded [0-9]+ packages in .+ parallelism [0-9]+' wdptlint-timing.log || {
  echo "wdptlint timing line missing (parallel loader not proven):" >&2
  cat wdptlint-timing.log >&2
  exit 1
}
if [[ "$lint_status" -ne 0 ]]; then
  echo "wdptlint failed (exit $lint_status); findings:" >&2
  cat wdptlint-findings.json >&2
  cat wdptlint-timing.log >&2
  exit "$lint_status"
fi
lint_budget=120
if (( lint_elapsed > lint_budget )); then
  echo "wdptlint took ${lint_elapsed}s, over the ${lint_budget}s budget" >&2
  exit 1
fi
echo "wdptlint clean in ${lint_elapsed}s (budget ${lint_budget}s)"

echo "== go test -race"
go test -race ./...

# bench/ is its own module (BENCHMARK.json builds it from there), so the
# root ./... patterns above never reach it; vet and short-test it in place.
echo "== bench module (go vet, go test -short)"
(cd bench && go vet ./... && go test -short ./...)

echo "== wdptd selfcheck smoke (examples/data, /metrics scrape)"
go run ./cmd/wdptd -selfcheck \
  -metrics-out metrics-snapshot.prom \
  -dataset music=examples/data/music.txt \
  -dataset chain=examples/data/chain.txt
if [[ ! -s metrics-snapshot.prom ]]; then
  echo "metrics-snapshot.prom missing or empty after selfcheck" >&2
  exit 1
fi
grep -q '^wdptd_query_duration_seconds_count' metrics-snapshot.prom || {
  echo "metrics-snapshot.prom lacks wdptd_query_duration_seconds samples" >&2
  exit 1
}

echo "== benchmark smoke (-race -short -benchtime=1x)"
go test -race -short -run='^$' -bench=. -benchtime=1x .

echo "== wdptbench metrics artifact (-short -json, parallelism 1)"
go run ./cmd/wdptbench -short -json -out . >/dev/null

echo "== benchdiff self-smoke (artifact vs itself must pass)"
bench_artifact=$(ls -t BENCH_*.json | head -1)
./scripts/benchdiff.sh "$bench_artifact" "$bench_artifact"

# Snapshot persistence gate, two halves. Parity: convert the music fixture
# to a binary snapshot with wdpteval -snapshot-save, then run the same
# query -json against the text source and against the snapshot — the two
# documents must be byte-identical (the report carries no wall-clock
# fields, so cmp is exact).
# Speed: wdptbench -snapshot generates a large synthetic database and
# fails unless reloading the snapshot beats reparsing the text by
# WDPT_SNAP_MIN_SPEEDUP (default 1.5x — deliberately far under the ~10x
# seen on quiet hardware, so runner noise cannot flake the gate while a
# genuine loss of the bulk-load fast path still fails it).
echo "== snapshot round-trip (wdpteval parity + wdptbench reload gate)"
snap_dir=$(mktemp -d)
trap 'rm -rf "$snap_dir"' EXIT
snap_query='(recorded_by(?x,?y) AND published(?x,"after_2010")) OPT rating(?x,?z)'
go run ./cmd/wdpteval -db examples/data/music.txt -snapshot-save "$snap_dir/music.snap"
go run ./cmd/wdpteval -db examples/data/music.txt -query "$snap_query" -json >"$snap_dir/text.json"
go run ./cmd/wdpteval -snapshot "$snap_dir/music.snap" -query "$snap_query" -json >"$snap_dir/snap.json"
cmp "$snap_dir/text.json" "$snap_dir/snap.json" || {
  echo "snapshot answers diverge from text answers (wdpteval -json not byte-identical)" >&2
  exit 1
}
go run ./cmd/wdptbench -snapshot "$snap_dir/bench" -quick

echo "== cluster smoke (3 members + coordinator, parity + wdptstress)"
./scripts/cluster_smoke.sh

if [[ "${WDPT_SKIP_FUZZ:-0}" != "1" ]]; then
  fuzztime="${FUZZTIME:-10s}"
  for target in FuzzParseQuery FuzzParseWDPT FuzzParseDatabase; do
    echo "== fuzz smoke: ${target} (${fuzztime})"
    go test -run="^${target}\$" -fuzz="^${target}\$" -fuzztime="${fuzztime}" ./internal/sparql
  done
  echo "== fuzz smoke: FuzzStoreModel (${fuzztime})"
  go test -run='^FuzzStoreModel$' -fuzz='^FuzzStoreModel$' -fuzztime="${fuzztime}" ./internal/db
  echo "== fuzz smoke: FuzzSnapshotLoader (${fuzztime})"
  go test -run='^FuzzSnapshotLoader$' -fuzz='^FuzzSnapshotLoader$' -fuzztime="${fuzztime}" ./internal/db/snapshot
  echo "== fuzz smoke: FuzzQueryRequest (${fuzztime})"
  go test -run='^FuzzQueryRequest$' -fuzz='^FuzzQueryRequest$' -fuzztime="${fuzztime}" ./internal/server
  echo "== fuzz smoke: FuzzScatterMerge (${fuzztime})"
  go test -run='^FuzzScatterMerge$' -fuzz='^FuzzScatterMerge$' -fuzztime="${fuzztime}" ./internal/cluster
  ref_fuzztime="${FUZZTIME:-20s}"
  echo "== fuzz smoke: FuzzSolveUnpruned (${ref_fuzztime})"
  go test -run='^FuzzSolveUnpruned$' -fuzz='^FuzzSolveUnpruned$' -fuzztime="${ref_fuzztime}" ./internal/core
  echo "== fuzz smoke: FuzzSubsumesReference (${ref_fuzztime})"
  go test -run='^FuzzSubsumesReference$' -fuzz='^FuzzSubsumesReference$' -fuzztime="${ref_fuzztime}" ./internal/subsume
else
  echo "== fuzz smoke skipped (WDPT_SKIP_FUZZ=1)"
fi

echo "OK"
