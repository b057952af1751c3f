#!/usr/bin/env bash
# Smoke test for what only two processes can show: node B joins node A's
# overlay across process boundaries, both admin endpoints serve live
# counters, B's event ring holds its activation, a caching node (A) and a
# cacheless one (B) read, write and delete each other's keys over UDP with
# the dht's one read protocol, and both exit on quit. Everything one
# process can show (the stdin commands, restart durability) is
# cmd/mspastry-node's own test.
# Every port is ephemeral, so runs do not collide.
set -euo pipefail
cd "$(dirname "$0")/.."

dir=$(mktemp -d)
trap 'kill $(jobs -p) 2>/dev/null || true; rm -rf "$dir"' EXIT
die() { echo "smoke: $1" >&2; cat "$dir"/*.log >&2; exit 1; }

# CI builds all binaries once and points MSPASTRY_NODE_BIN at its copy.
mspastry_node="${MSPASTRY_NODE_BIN:-$dir/mspastry-node}"
[[ -x "$mspastry_node" ]] || go build -o "$mspastry_node" ./cmd/mspastry-node

wait_for() { # wait_for <log> <pattern>
  for _ in $(seq 1 100); do
    grep -q "$2" "$1" 2>/dev/null && return 0
    sleep 0.1
  done
  die "timed out waiting for '$2' in $1"
}

# The node exits on stdin EOF, so each gets a fifo held open on fd 3/4.
mkfifo "$dir/a.in" "$dir/b.in"
"$mspastry_node" -listen 127.0.0.1:0 -admin 127.0.0.1:0 -cache-entries 64 -bootstrap < "$dir/a.in" > "$dir/a.log" 2>&1 &
a_pid=$!
exec 3> "$dir/a.in"
wait_for "$dir/a.log" "bootstrapped a new overlay"
a_addr=$(sed -n 's/^node up: addr=\([^ ]*\) id=.*/\1/p' "$dir/a.log")
a_id=$(sed -n 's/^node up: addr=.* id=\([0-9a-f]*\)$/\1/p' "$dir/a.log")

"$mspastry_node" -listen 127.0.0.1:0 -admin 127.0.0.1:0 -seed-addr "$a_addr" -seed-id "$a_id" < "$dir/b.in" > "$dir/b.log" 2>&1 &
b_pid=$!
exec 4> "$dir/b.in"
wait_for "$dir/b.log" "^active after"

for n in a b; do
  admin=$(sed -n 's|^admin endpoint: http://\([^/]*\)/.*|\1|p' "$dir/$n.log")
  # To a file: under pipefail `curl | grep -q` races, grep exiting first.
  curl -sf "http://$admin/metrics" > "$dir/$n.metrics" || die "node $n /metrics failed"
  grep -Eq '^mspastry_transport_msgs_sent_total\{category="[a-z]+"\} [1-9]' "$dir/$n.metrics" ||
    die "node $n /metrics has no non-zero transport counter"
  # One gauge from each struct whose tagged fields the node exports, and
  # the families declared outside the tallies (the Trt gauge, an Overlay
  # histogram, the node's own slot gauges).
  for family in mspastry_node_heartbeats_sent mspastry_peers_live mspastry_dht_handoff_offers mspastry_store_objects \
    mspastry_trt_seconds mspastry_ack_rtt_seconds_count mspastry_peers_slot_live; do
    grep -Eq "^$family[ {]" "$dir/$n.metrics" || die "node $n /metrics lacks $family"
  done
  curl -sf "http://$admin/status" > "$dir/$n.status" || die "node $n /status failed"
  grep -q '"metrics"' "$dir/$n.status" || die "node $n /status has no metrics snapshot"
done
grep -q '^mspastry_join_latency_seconds_count 1$' "$dir/b.metrics" || die "node B's join is not on its counters"
b_admin=$(sed -n 's|^admin endpoint: http://\([^/]*\)/.*|\1|p' "$dir/b.log")
curl -sf "http://$b_admin/debug/events" > "$dir/b.events" || die "node B /debug/events failed"
grep -q '"kind": "activated"' "$dir/b.events" || die "node B's /debug/events lacks its activated event"

# A caches reads, B does not: both read B's write, and after A's delete
# B's read finds the tombstone. Each command's output follows a "> " prompt.
echo "put k v" >&4
wait_for "$dir/b.log" '^> stored "k"'
echo "get k" >&3
wait_for "$dir/a.log" '^> v$'
echo "get k" >&4
wait_for "$dir/b.log" '^> v$'
echo "del k" >&3
wait_for "$dir/a.log" '^> deleted "k"'
echo "get k" >&4
wait_for "$dir/b.log" '^> get failed: dht: key not found$'

echo quit >&3
echo quit >&4
for _ in $(seq 1 50); do
  kill -0 "$a_pid" 2>/dev/null || kill -0 "$b_pid" 2>/dev/null || break
  sleep 0.1
done
if kill -0 "$a_pid" 2>/dev/null || kill -0 "$b_pid" 2>/dev/null; then die "nodes did not exit on quit"; fi
echo "smoke: OK"
