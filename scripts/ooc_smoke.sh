#!/usr/bin/env bash
# Out-of-core smoke: pack a million-node graph, serve it mmap-backed
# under an explicit address-space budget, storm it with a seeded query
# mix over TCP, exercise overlay ingest, and check the out-of-core
# counters.
#
# Gates on CORRECTNESS ONLY — zero storm errors, cache semantics,
# counter values. Never on latency: numbers from shared CI runners are
# noise.
#
# The budget (ulimit -v 704 MB) is calibrated so the mapped backing
# fits and the heap backing does not: serving this graph from the heap
# peaks at ~767 MB of address space / ~432 MB resident (measured:
# edge-list parse + Digraph + CSR freeze), and under this same budget
# the heap-backed server sheds most of the storm with OOM errors while
# the mapped one answers everything. Most of the mapped server's
# budget is not the graph: the OCaml 5 runtime reserves the minor-heap
# arena for its 128 potential domains up front (OCAMLRUNPARAM=s=64k
# shrinks that to ~64 MB), thread stacks are virtual (ulimit -s 2048
# caps them at 2 MB), and transient answer serialization churns the
# major heap. The packed file itself maps ~47 MB; resident peak while
# answering the storm is ~237 MB.
#
# Env overrides: GPS_CLI, GPS_OOC_NODES, GPS_OOC_PORT.
set -euo pipefail

CLI="${GPS_CLI:-_build/default/bin/gps_cli.exe}"
NODES="${GPS_OOC_NODES:-1000000}"
PORT="${GPS_OOC_PORT:-7477}"
PACK_VMEM_KB=786432   # 768 MB: runtime reservation + mapped output + offsets
SERVE_VMEM_KB=720896  # 704 MB: see header comment

DIR="$(mktemp -d)"
SERVER_PID=""
cleanup() {
  [ -n "$SERVER_PID" ] && kill "$SERVER_PID" 2>/dev/null || true
  rm -rf "$DIR"
}
trap cleanup EXIT

echo "== pack ${NODES}-node graph (streaming, under $((PACK_VMEM_KB / 1024)) MB vmem)"
# average degree 1: the smoke's answers should be thousands of node
# names, not hundreds of thousands — answer serialization is heap
# churn on BOTH backings and would drown the storage difference
(
  ulimit -v "$PACK_VMEM_KB"
  exec "$CLI" graph pack --generate uniform --nodes "$NODES" --edges "$NODES" -o "$DIR/big.csr"
)
"$CLI" graph info "$DIR/big.csr"

echo "== serve it mapped (under $((SERVE_VMEM_KB / 1024)) MB vmem)"
# --cache 2: cached ANSWERS live on the heap — a few entries suffice
# to prove the cache semantics below without muddying the budget
(
  ulimit -v "$SERVE_VMEM_KB"
  ulimit -s 2048
  OCAMLRUNPARAM=s=64k \
    exec "$CLI" serve --port "$PORT" --cache 2 --load "big=$DIR/big.csr"
) &
SERVER_PID=$!

for _ in $(seq 1 100); do
  if "$CLI" metrics --connect "127.0.0.1:$PORT" --retries 0 >/dev/null 2>&1; then
    break
  fi
  kill -0 "$SERVER_PID" 2>/dev/null || { echo "server died under the budget" >&2; exit 1; }
  sleep 0.2
done

echo "== seeded query mix over TCP"
# The mix instantiates abstract patterns against a graph's label
# alphabet; a tiny uniform graph shares the packed one's {a,b,c,d}.
"$CLI" generate -k uniform -n 200 -o "$DIR/mixgraph.txt" >/dev/null
"$CLI" workload generate "$DIR/mixgraph.txt" --mix smoke --seed 7 \
  --graph-name big -o "$DIR/mix.jsonl" >/dev/null
# Low rate on purpose: every query is a full product-BFS over 10^6
# nodes — this gate is "every answer arrives, none errors", not
# throughput.
"$CLI" workload storm "$DIR/mix.jsonl" --connect "127.0.0.1:$PORT" \
  --rps 5 --duration 2 --clients 2 --json > "$DIR/storm.json"
python3 - "$DIR/storm.json" <<'PY'
import json, sys
o = json.load(open(sys.argv[1]))
assert o["sent"] > 0 and o["received"] == o["sent"], (o["sent"], o["received"])
assert not o["errors"], o["errors"]
print(f"ok: storm {o['received']}/{o['sent']} answered, zero errors")
PY

echo "== overlay ingest + label-aware invalidation, answers byte-stable"
python3 - "$PORT" "$DIR/big.csr" <<'PY'
import json, socket, sys

sock = socket.create_connection(("127.0.0.1", int(sys.argv[1])))
f = sock.makefile("rw")
def rpc(obj):
    f.write(json.dumps(obj) + "\n"); f.flush()
    return json.loads(f.readline())

# remap the file: bumps the version, so storm-era cache entries are
# gone and the invalidation counts below are exact
r = rpc({"op": "load_file", "name": "big", "file": sys.argv[2]})
assert r["ok"] and r["nodes"] > 0, r

q = {"op": "query", "graph": "big", "query": "a.c"}
first = rpc(q)
assert first["ok"], first
warm = rpc(q)
assert warm["cache"] == "hit", warm

# a delta on a fresh label: disjoint from every query alphabet, so the
# warm non-nullable entry must survive
r = rpc({"op": "add_edges", "graph": "big", "edges": [["p1", "zz", "p2"]]})
assert r["ok"] and r["added"] == 1 and r["new_nodes"] == 2, r
assert r["invalidated"] == 0, r
still = rpc(q)
assert still["cache"] == "hit", still

# a delta touching label "a" drops the entry; the fresh nodes carry no
# a.c path, so the re-evaluated answer is identical
r = rpc({"op": "add_edges", "graph": "big", "edges": [["p3", "a", "p4"]]})
assert r["ok"] and r["invalidated"] >= 1, r
again = rpc(q)
assert again["cache"] == "miss", again
assert again["nodes"] == first["nodes"], "answer changed across a no-op delta"
print(f"ok: ingest invalidated {r['invalidated']} entry(ies), answers stable")
PY

echo "== out-of-core counters"
"$CLI" metrics --connect "127.0.0.1:$PORT" > "$DIR/metrics.json"
python3 - "$DIR/metrics.json" <<'PY'
import json, sys
m = json.load(open(sys.argv[1]))
gauges = m["trace"]["gauges"]
counters = m["trace"]["counters"]
assert gauges["catalog.file_backed"] == 1, gauges
assert gauges["graph.overlay_edges"] == 2, gauges
assert counters["qcache.delta_invalidations"] >= 1, counters
assert m["cache"]["delta_invalidations"] >= 1, m["cache"]
print("ok: catalog.file_backed=1 graph.overlay_edges=2 "
      f"qcache.delta_invalidations={counters['qcache.delta_invalidations']}")
PY

echo "ooc smoke: all gates passed"
