#!/usr/bin/env bash
# Multi-process end-to-end check of the distributed TCP transport:
# build cmd/pts, run the same fixed-seed search once in a single
# process and once as one master plus three loopback TCP workers with
# distinct declared speed factors, and require the distributed best
# cost to be exactly the single-process one (with half-sync off the
# search outcome depends only on the seed, not on timing — so "no
# worse" is provable as "identical").
#
# Usage: scripts/e2e-distributed.sh [path-to-pts-binary]
set -euo pipefail

cd "$(dirname "$0")/.."

BIN=${1:-}
if [ -z "$BIN" ]; then
  BIN=$(mktemp -d)/pts
  go build -o "$BIN" ./cmd/pts
fi

PORT=${PTS_E2E_PORT:-19471}
ADDR="127.0.0.1:${PORT}"
OUT=$(mktemp -d)
trap 'kill $(jobs -p) 2>/dev/null || true; rm -rf "$OUT"' EXIT

# One search configuration for both runs. -het=false makes the outcome
# timing-independent; the worker count and speed factors match the
# acceptance criterion (3 TSWs x 2 CLWs over nodes 1.0/0.55/0.3).
FLAGS=(-circuit c532 -seed 7 -het=false -tsws 3 -clws 2 -global 4 -local 15)

echo "== single-process real-mode run"
"$BIN" "${FLAGS[@]}" -mode real -json "$OUT/single.json" > "$OUT/single.log"

echo "== distributed run: 1 master + 3 TCP workers on $ADDR"
"$BIN" "${FLAGS[@]}" -serve "$ADDR" -net-workers 3 -json "$OUT/net.json" > "$OUT/master.log" 2>&1 &
MASTER=$!
sleep 1
for i in 1 2 3; do
  case $i in
    1) SPEED=1.0 ;;
    2) SPEED=0.55 ;;
    3) SPEED=0.3 ;;
  esac
  "$BIN" -circuit c532 -worker "$ADDR" -node-name "w$i" -speed "$SPEED" -jobs 1 \
    > "$OUT/worker$i.log" 2>&1 &
done

if ! wait "$MASTER"; then
  echo "master failed:"; cat "$OUT/master.log"
  exit 1
fi
wait

extract_cost() {
  grep -o '"BestCost": [0-9.eE+-]*' "$1" | head -1 | awk '{print $2}'
}

SINGLE=$(extract_cost "$OUT/single.json")
DIST=$(extract_cost "$OUT/net.json")
echo "single-process best cost: $SINGLE"
echo "distributed  best cost:   $DIST"

if [ -z "$SINGLE" ] || [ -z "$DIST" ]; then
  echo "FAIL: missing best cost"; exit 1
fi
if [ "$SINGLE" != "$DIST" ]; then
  echo "FAIL: distributed best cost differs from the single-process run"
  exit 1
fi
# Pin the trajectory itself, not just single == distributed: this literal
# was captured before the batched hot path landed and re-baselined once
# with golden_test.go (one checkpoint-relative RNG protocol for every
# run), so any change to candidate generation order, batch evaluation or
# argmin tie-breaking that perturbs the fixed-seed search shows up here
# as a mismatch.
GOLDEN=0.36224392417377116
if [ "$SINGLE" != "$GOLDEN" ]; then
  echo "FAIL: best cost $SINGLE differs from the golden static-run cost $GOLDEN"
  exit 1
fi
for i in 1 2 3; do
  grep -q "job completed" "$OUT/worker$i.log" || {
    echo "FAIL: worker $i did not report a completed job"; cat "$OUT/worker$i.log"; exit 1
  }
done
echo "PASS: distributed run reproduces the single-process best cost exactly"

# ---------------------------------------------------------------------------
# Job shop variant: the same master + 3 TCP workers protocol over the
# ft06 scheduling workload, where swap deltas re-decode whole schedules
# instead of O(1) table lookups. Every process constructs the instance
# from its embedded name; the golden literal pins the fixed-seed
# trajectory (which at this budget reaches ft06's proven optimum 55).
echo "== distributed job shop run: 1 master + 3 TCP workers"
JADDR="127.0.0.1:$((PORT + 3))"
JFLAGS=(-jobshop ft06 -seed 7 -het=false -tsws 3 -clws 2 -global 4 -local 15)

"$BIN" "${JFLAGS[@]}" -mode real -json "$OUT/jsingle.json" > "$OUT/jsingle.log"
"$BIN" "${JFLAGS[@]}" -serve "$JADDR" -net-workers 3 -json "$OUT/jnet.json" > "$OUT/jmaster.log" 2>&1 &
JMASTER=$!
sleep 1
for i in 1 2 3; do
  case $i in
    1) SPEED=1.0 ;;
    2) SPEED=0.55 ;;
    3) SPEED=0.3 ;;
  esac
  "$BIN" -jobshop ft06 -worker "$JADDR" -node-name "js$i" -speed "$SPEED" -jobs 1 \
    > "$OUT/jsworker$i.log" 2>&1 &
done

if ! wait "$JMASTER"; then
  echo "job shop master failed:"; cat "$OUT/jmaster.log"
  exit 1
fi
wait

JSINGLE=$(extract_cost "$OUT/jsingle.json")
JDIST=$(extract_cost "$OUT/jnet.json")
echo "single-process job shop makespan: $JSINGLE"
echo "distributed  job shop makespan:   $JDIST"
if [ -z "$JSINGLE" ] || [ "$JSINGLE" != "$JDIST" ]; then
  echo "FAIL: distributed job shop makespan differs from the single-process run"
  exit 1
fi
# The golden fixed-seed makespan — ft06's proven optimum, reached at
# this budget when the workload landed.
JGOLDEN=55
if [ "$JSINGLE" != "$JGOLDEN" ]; then
  echo "FAIL: job shop makespan $JSINGLE differs from the golden $JGOLDEN"
  exit 1
fi
for i in 1 2 3; do
  grep -q "job completed" "$OUT/jsworker$i.log" || {
    echo "FAIL: job shop worker $i did not report a completed job"; cat "$OUT/jsworker$i.log"; exit 1
  }
done
echo "PASS: distributed job shop run reproduces the golden optimum makespan $JGOLDEN"

# ---------------------------------------------------------------------------
# Adaptive variant: 1 master + 3 workers with declared speeds 4/1/1, one
# slow CLW-hosting worker killed (-9) mid-run. Under -adaptive the run
# must complete un-Interrupted over the full iteration budget, with the
# loss both counted and repaired: the dead CLW's range is re-absorbed,
# a replacement CLW is respawned onto surviving capacity and re-seeded
# from the TSW's current solution (WorkersLost:1 AND WorkersRespawned:1
# in the master's stats — the post-recovery CLW count equals the
# pre-kill count). Join order fixes the slot ring: with 1 TSW x 3 CLWs
# the first worker hosts the TSW, the second/third host one CLW each,
# and the third CLW wraps back onto the first worker (machine indices
# wrap over the worker slots only, never onto the master process).
echo "== adaptive distributed run: kill one slow CLW-hosting worker mid-run"
ADDR2="127.0.0.1:$((PORT + 1))"
AFLAGS=(-circuit c532 -seed 7 -het=false -adaptive -tsws 1 -clws 3 -global 10 -local 25 -workscale 8)

"$BIN" "${AFLAGS[@]}" -serve "$ADDR2" -net-workers 3 -progress -json "$OUT/adaptive.json" \
  > "$OUT/amaster.log" 2>&1 &
AMASTER=$!
sleep 1
"$BIN" -circuit c532 -worker "$ADDR2" -node-name a1 -speed 4 -jobs 1 > "$OUT/aworker1.log" 2>&1 &
A1=$!
sleep 0.5
"$BIN" -circuit c532 -worker "$ADDR2" -node-name a2 -speed 1 -jobs 1 > "$OUT/aworker2.log" 2>&1 &
A2=$!
sleep 0.5
"$BIN" -circuit c532 -worker "$ADDR2" -node-name a3 -speed 1 -jobs 1 > "$OUT/aworker3.log" 2>&1 &
DOOMED=$!

# Wait until the run is visibly in flight (round 2 reported), then kill
# the slow worker hosting a CLW.
for _ in $(seq 1 150); do
  grep -q "round   2/" "$OUT/amaster.log" 2>/dev/null && break
  sleep 0.2
done
grep -q "round   2/" "$OUT/amaster.log" || {
  echo "FAIL: adaptive run never reached round 2"; cat "$OUT/amaster.log"; exit 1
}
kill -9 "$DOOMED" 2>/dev/null || true

if ! wait "$AMASTER"; then
  echo "FAIL: adaptive master exited non-zero:"; cat "$OUT/amaster.log"; exit 1
fi
# Check each survivor's exit status separately: `wait p1 p2` only
# propagates the last PID's status.
wait "$A1" || {
  echo "FAIL: surviving worker a1 exited non-zero"; cat "$OUT/aworker1.log"; exit 1
}
wait "$A2" || {
  echo "FAIL: surviving worker a2 exited non-zero"; cat "$OUT/aworker2.log"; exit 1
}
wait "$DOOMED" 2>/dev/null || true

if grep -q "interrupted" "$OUT/amaster.log"; then
  echo "FAIL: adaptive run reported an interrupted result"; cat "$OUT/amaster.log"; exit 1
fi
grep -q "WorkersLost:1" "$OUT/amaster.log" || {
  echo "FAIL: master stats do not record the lost worker"; cat "$OUT/amaster.log"; exit 1
}
grep -q "WorkersRespawned:1" "$OUT/amaster.log" || {
  echo "FAIL: master stats do not record the respawned replacement (parallelism not restored)"
  cat "$OUT/amaster.log"; exit 1
}
grep -q "best cost" "$OUT/amaster.log" || {
  echo "FAIL: adaptive master reported no best cost"; cat "$OUT/amaster.log"; exit 1
}
grep -q '"Interrupted": false' "$OUT/adaptive.json" || {
  echo "FAIL: adaptive result JSON is marked Interrupted"; exit 1
}
for i in 1 2; do
  grep -q "job completed" "$OUT/aworker$i.log" || {
    echo "FAIL: surviving worker a$i did not report a completed job"; cat "$OUT/aworker$i.log"; exit 1
  }
done
echo "PASS: adaptive run survived the worker kill with parallelism restored (WorkersLost:1, WorkersRespawned:1)"

# ---------------------------------------------------------------------------
# TSW-kill variant: same topology, but the FIRST worker — the one
# hosting the TSW itself, and with it the third CLW — is killed -9
# mid-run. The master must stop the two surviving CLWs (orphans of the
# dead TSW) and resurrect the TSW from its piggybacked checkpoint on
# surviving capacity, where it spawns a fresh set of three CLWs on live
# slots. The run must complete the full budget un-Interrupted with
# every loss repaired (WorkersLost == WorkersRespawned), and every
# surviving worker must finish its job: an orphan left running would
# keep the job open.
echo "== adaptive distributed run: kill the TSW-hosting worker mid-run"
ADDR3="127.0.0.1:$((PORT + 2))"

"$BIN" "${AFLAGS[@]}" -serve "$ADDR3" -net-workers 3 -progress -json "$OUT/tswkill.json" \
  > "$OUT/tmaster.log" 2>&1 &
TMASTER=$!
sleep 1
"$BIN" -circuit c532 -worker "$ADDR3" -node-name t1 -speed 4 -jobs 1 > "$OUT/tworker1.log" 2>&1 &
TDOOMED=$!
sleep 0.5
"$BIN" -circuit c532 -worker "$ADDR3" -node-name t2 -speed 1 -jobs 1 > "$OUT/tworker2.log" 2>&1 &
T2=$!
sleep 0.5
"$BIN" -circuit c532 -worker "$ADDR3" -node-name t3 -speed 1 -jobs 1 > "$OUT/tworker3.log" 2>&1 &
T3=$!

for _ in $(seq 1 150); do
  grep -q "round   2/" "$OUT/tmaster.log" 2>/dev/null && break
  sleep 0.2
done
grep -q "round   2/" "$OUT/tmaster.log" || {
  echo "FAIL: TSW-kill run never reached round 2"; cat "$OUT/tmaster.log"; exit 1
}
kill -9 "$TDOOMED" 2>/dev/null || true

if ! wait "$TMASTER"; then
  echo "FAIL: TSW-kill master exited non-zero:"; cat "$OUT/tmaster.log"; exit 1
fi
wait "$T2" || {
  echo "FAIL: surviving worker t2 exited non-zero"; cat "$OUT/tworker2.log"; exit 1
}
wait "$T3" || {
  echo "FAIL: surviving worker t3 exited non-zero"; cat "$OUT/tworker3.log"; exit 1
}
wait "$TDOOMED" 2>/dev/null || true

if grep -q "interrupted" "$OUT/tmaster.log"; then
  echo "FAIL: TSW-kill run reported an interrupted result"; cat "$OUT/tmaster.log"; exit 1
fi
grep -q '"Interrupted": false' "$OUT/tswkill.json" || {
  echo "FAIL: TSW-kill result JSON is marked Interrupted"; exit 1
}
grep -Eq "WorkersLost:[1-9]" "$OUT/tmaster.log" || {
  echo "FAIL: master stats do not record the lost TSW"; cat "$OUT/tmaster.log"; exit 1
}
grep -Eq "WorkersRespawned:[1-9]" "$OUT/tmaster.log" || {
  echo "FAIL: master stats do not record the resurrected TSW"; cat "$OUT/tmaster.log"; exit 1
}
TLOST=$(grep -Eo "WorkersLost:[0-9]+" "$OUT/tmaster.log" | tail -1 | cut -d: -f2)
TRESP=$(grep -Eo "WorkersRespawned:[0-9]+" "$OUT/tmaster.log" | tail -1 | cut -d: -f2)
if [ "$TLOST" != "$TRESP" ]; then
  echo "FAIL: TSW-kill run lost $TLOST workers but respawned $TRESP"; cat "$OUT/tmaster.log"; exit 1
fi
for i in 2 3; do
  grep -q "job completed" "$OUT/tworker$i.log" || {
    echo "FAIL: surviving worker t$i did not report a completed job"; cat "$OUT/tworker$i.log"; exit 1
  }
done
echo "PASS: TSW kill resurrected from checkpoint, run completed un-Interrupted (WorkersLost:$TLOST, WorkersRespawned:$TRESP)"
