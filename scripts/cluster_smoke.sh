#!/usr/bin/env bash
# Cluster smoke: boot three member wdptd processes and one coordinator
# from the built binary, then hold the cluster to its headline contract
# (docs/CLUSTER.md) end to end:
#
#   1. /v1/cluster reports the coordinator role, every peer healthy, and a
#      full dataset -> owner ring assignment.
#   2. Byte-parity: a scatter-eligible UNION query and a proxied OPT query
#      answer byte-identically at the coordinator and at a member, and the
#      coordinator's /metrics counts at least those three member exchanges
#      (two scatter legs, one proxy) in wdptd_client_endpoint_attempts.
#   3. Failover: with one member killed, the coordinator still answers both
#      queries with the exact same bytes (failover walk + local replay),
#      and /v1/cluster flips the dead peer unhealthy.
#   4. wdptstress -quick drives the coordinator and writes a
#      STRESS_<date>-smoke.json artifact into the repo root (CI uploads
#      it); benchdiff diffs the artifact against itself as a schema smoke
#      (zero regressions by construction).
#
#   ./scripts/cluster_smoke.sh
#
# Nodes listen on 127.0.0.1:0 (kernel-assigned ports parsed from their
# logs), so the smoke cannot collide with anything already running.
set -euo pipefail
cd "$(dirname "$0")/.."

workdir=$(mktemp -d)
pids=()
cleanup() {
  for pid in "${pids[@]:-}"; do
    kill "$pid" 2>/dev/null || true
  done
  wait 2>/dev/null || true
  rm -rf "$workdir"
}
trap cleanup EXIT

echo "== build (wdptd, wdptstress)"
go build -o "$workdir/wdptd" ./cmd/wdptd
go build -o "$workdir/wdptstress" ./cmd/wdptstress

datasets=(-dataset music=examples/data/music.txt -dataset chain=examples/data/chain.txt)

# start_node <name> [extra flags...]: launch one wdptd on an ephemeral
# port, logging to $workdir/<name>.log.
start_node() {
  local name=$1
  shift
  "$workdir/wdptd" -listen 127.0.0.1:0 -query-log off "${datasets[@]}" "$@" \
    >"$workdir/$name.log" 2>"$workdir/$name.err" &
  pids+=($!)
}

# node_url <name>: poll the node's log for its "serving ... on ADDR" line
# and print the base URL.
node_url() {
  local name=$1 addr=""
  for _ in $(seq 1 100); do
    addr=$(sed -n 's/^wdptd: serving .* on \([0-9.]*:[0-9]*\) .*$/\1/p' "$workdir/$name.log" | head -1)
    [[ -n "$addr" ]] && break
    sleep 0.1
  done
  if [[ -z "$addr" ]]; then
    echo "cluster smoke: $name never reported its listen address" >&2
    cat "$workdir/$name.log" "$workdir/$name.err" >&2
    exit 1
  fi
  echo "http://$addr"
}

echo "== boot 3 members + 1 coordinator (ephemeral ports)"
start_node m1
start_node m2
start_node m3
m1=$(node_url m1)
m2=$(node_url m2)
m3=$(node_url m3)
start_node coord -role coordinator -cluster-peers "$m1,$m2,$m3" -health-interval 200ms
coord=$(node_url coord)
echo "members: $m1 $m2 $m3"
echo "coordinator: $coord"

for url in "$m1" "$m2" "$m3" "$coord"; do
  for _ in $(seq 1 50); do
    curl -sf "$url/healthz" >/dev/null && break
    sleep 0.1
  done
  curl -sf "$url/healthz" >/dev/null || {
    echo "cluster smoke: $url/healthz never came up" >&2
    exit 1
  }
done

echo "== /v1/cluster status (role, peers healthy, ring assignment)"
status=$(curl -sf "$coord/v1/cluster")
echo "$status" | grep -q '"role": "coordinator"' || {
  echo "cluster smoke: /v1/cluster missing coordinator role:" >&2
  echo "$status" >&2
  exit 1
}
healthy_count=$(grep -c '"healthy": true' <<<"$status" || true)
if [[ "$healthy_count" -ne 3 ]]; then
  echo "cluster smoke: want 3 healthy peers, /v1/cluster says $healthy_count:" >&2
  echo "$status" >&2
  exit 1
fi
for ds in music chain; do
  grep -q "\"$ds\": \"http://" <<<"$status" || {
    echo "cluster smoke: dataset $ds has no ring owner in /v1/cluster" >&2
    echo "$status" >&2
    exit 1
  }
done

# Byte-parity probes: the scatter-eligible union and a proxied OPT query.
# Parallelism is pinned so member and coordinator report identical options.
union_req='{"dataset":"music","query":"SELECT ?x WHERE recorded_by(?x, ?y) UNION SELECT ?x WHERE rating(?x, ?z)","parallelism":1}'
opt_req='{"dataset":"music","query":"SELECT ?x ?y ?z WHERE (recorded_by(?x, ?y) OPT rating(?x, ?z))","parallelism":1}'

# parity <label> <request-json>: the coordinator's body must be
# byte-identical to a member's for the same request.
parity() {
  local label=$1 req=$2
  curl -sf "$m1/v1/query" -d "$req" >"$workdir/$label.member.json"
  curl -sf "$coord/v1/query" -d "$req" >"$workdir/$label.coord.json"
  cmp "$workdir/$label.member.json" "$workdir/$label.coord.json" || {
    echo "cluster smoke: $label body diverges between member and coordinator" >&2
    exit 1
  }
}

echo "== byte-parity (union scatter + proxied OPT vs a member)"
parity union "$union_req"
parity opt "$opt_req"

# Every member exchange (scatter leg, proxy forward, health probe) goes
# through one counted path, so the two union legs plus the proxied OPT query
# must show up as >= 3 attempts summed over endpoints.
attempts=$(curl -sf "$coord/metrics" |
  awk '/^wdptd_client_endpoint_attempts_total\{/ { sum += $NF } END { print sum + 0 }')
if (( attempts < 3 )); then
  echo "cluster smoke: wdptd_client_endpoint_attempts_total sums to $attempts, want >= 3" >&2
  exit 1
fi
echo "member exchanges counted: $attempts"

echo "== failover (kill m3, parity must hold, /v1/cluster must flip it)"
kill "${pids[2]}"
wait "${pids[2]}" 2>/dev/null || true
parity union-degraded "$union_req"
parity opt-degraded "$opt_req"
cmp "$workdir/union.coord.json" "$workdir/union-degraded.coord.json" || {
  echo "cluster smoke: union body changed after losing a member" >&2
  exit 1
}
flipped=0
for _ in $(seq 1 50); do
  if curl -sf "$coord/v1/cluster" | grep -q '"healthy": false'; then
    flipped=1
    break
  fi
  sleep 0.1
done
if [[ "$flipped" -ne 1 ]]; then
  echo "cluster smoke: dead peer never flipped unhealthy in /v1/cluster" >&2
  curl -sf "$coord/v1/cluster" >&2 || true
  exit 1
fi

echo "== wdptstress -quick against the coordinator (STRESS artifact)"
"$workdir/wdptstress" -endpoint "$coord" -qps 50,100 -duration 2s \
  -seed 7 -quick -suffix -smoke -out .
stress_artifact=$(ls -t STRESS_*-smoke.json | head -1)
grep -q '"target_qps"' "$stress_artifact" || {
  echo "cluster smoke: $stress_artifact lacks target_qps" >&2
  exit 1
}
grep -q '"p95_ns"' "$stress_artifact" || {
  echo "cluster smoke: $stress_artifact lacks timing points" >&2
  exit 1
}

echo "== benchdiff schema smoke ($stress_artifact vs itself)"
./scripts/benchdiff.sh "$stress_artifact" "$stress_artifact"

echo "cluster smoke OK ($stress_artifact)"
