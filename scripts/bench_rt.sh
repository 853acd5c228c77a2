#!/bin/sh
# Runtime performance bench, two modes:
#
# default (MODE=throughput) — the perf-trajectory bench: run
#   bench/rt_throughput.exe, a closed-loop 3-node in-process cluster
#   over loopback TCP, and write the root-level
#   BENCH_rt_throughput.json with two series measured in the same run
#   (flush-per-send / batched: msgs/s, p50/p99 delivery latency, minor
#   words allocated per message) and their speedup ratio.
#
#     scripts/bench_rt.sh
#     DURATION=8 WINDOW=2048 scripts/bench_rt.sh
#
# MODE=trace — the observability pipeline: boot a real 3-node cluster
#   as separate svs_node processes, record per-node JSONL traces, and
#   merge them with svs_trace into one analysis JSON (throughput,
#   latency percentiles, stability lag, purge effectiveness, anomaly
#   counts).
#
#     MODE=trace DURATION=10 RATE=200 scripts/bench_rt.sh
#
# Environment knobs:
#   MODE        throughput | trace               (default throughput)
#   DURATION    run length in seconds            (default: 6 / 10)
#   OUT         output JSON path                 (default:
#               BENCH_rt_throughput.json / BENCH_rt_trace.json)
# throughput mode:
#   WINDOW      closed-loop publisher window     (default 1024)
# trace mode:
#   RATE        publish rate, msg/s              (default 200)
#   ITEMS       distinct data items published    (default 16)
#   PORT_BASE   first TCP port; nodes use +0..+2 (default 7200)
#   ADMIN_BASE  first admin port, 0 = disabled   (default 0)
set -eu

cd "$(dirname "$0")/.."

MODE="${MODE:-throughput}"

if [ "$MODE" = "throughput" ]; then
  DURATION="${DURATION:-6}"
  WINDOW="${WINDOW:-1024}"
  OUT="${OUT:-BENCH_rt_throughput.json}"
  dune build bench/rt_throughput.exe
  ./_build/default/bench/rt_throughput.exe \
    --duration "$DURATION" --window "$WINDOW" --json "$OUT"
  exit 0
fi

DURATION="${DURATION:-10}"
RATE="${RATE:-200}"
ITEMS="${ITEMS:-16}"
PORT_BASE="${PORT_BASE:-7200}"
ADMIN_BASE="${ADMIN_BASE:-0}"
OUT="${OUT:-BENCH_rt_trace.json}"

dune build bin/svs_node.exe bin/svs_trace.exe

dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT

peers="--peer 0:127.0.0.1:$PORT_BASE \
  --peer 1:127.0.0.1:$((PORT_BASE + 1)) \
  --peer 2:127.0.0.1:$((PORT_BASE + 2))"

pids=""
for i in 0 1 2; do
  workload=""
  [ "$i" = 0 ] && workload="--publish $ITEMS --rate $RATE"
  admin=""
  [ "$ADMIN_BASE" != 0 ] && admin="--admin-port $((ADMIN_BASE + i))"
  # shellcheck disable=SC2086  # deliberate word splitting of flag lists
  ./_build/default/bin/svs_node.exe --me "$i" $peers $workload $admin \
    --duration "$DURATION" --trace "$dir/node$i.jsonl" \
    --flight-dump "$dir/flight-$i.jsonl" --stats-period 0 \
    > "$dir/node$i.log" 2>&1 &
  pids="$pids $!"
done

for pid in $pids; do
  wait "$pid" || { echo "bench_rt: a node exited non-zero; logs:" >&2
                   cat "$dir"/node*.log >&2; exit 1; }
done

./_build/default/bin/svs_trace.exe "$dir"/node0.jsonl "$dir"/node1.jsonl \
  "$dir"/node2.jsonl --json "$OUT"
echo "bench_rt: wrote $OUT"
