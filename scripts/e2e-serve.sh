#!/usr/bin/env bash
# Multi-process end-to-end check of the serving daemon: build cmd/pts
# and cmd/ptsd, start one ptsd over three loopback `pts -worker -any`
# processes, and drive four jobs — two placement, one QAP, one flow
# shop — through the HTTP front door.
#
#  1. The two static fixed-seed placement jobs must reproduce their
#     single-process `pts -mode real` best costs exactly (with
#     half-sync off the outcome depends only on the seed, so "the
#     daemon does not distort the search" is provable as "identical").
#     The baselines run without a state dir while the daemon's jobs are
#     store-backed: every run follows one checkpoint-relative RNG
#     protocol, so a store only adds persistence and both sides must
#     still agree bit for bit.
#     A ta001 flow shop job then proves the same identity for the
#     scheduling workloads: the `-any` workers resolve the instance
#     from its embedded name and the daemon's makespan must equal the
#     single-process `pts -flowshop ta001` run bit for bit. It runs at
#     1 TSW x 1 CLW, the one real-time regime reproducible per seed:
#     with two CLWs, tied integer makespans follow message arrival
#     order, so the comparison would be flaky.
#  2. While the long adaptive QAP job is still running, its leased
#     worker — found via GET /v1/fleet busy flags — is killed -9. The
#     job must still complete un-Interrupted (TSW resurrected from its
#     checkpoint onto surviving lease capacity), and the already-
#     finished neighbors prove the kill touched only the leasing job.
#  3. Crash-only restart: with one job mid-run and one queued, ptsd is
#     killed -9 and restarted over the same -state-dir. The restarted
#     daemon must still serve the first job's completed result, resume
#     the mid-run job, and re-admit the queued one — all finishing
#     un-Interrupted.
#  4. SIGTERM to a worker drains it cleanly (exit 0, deregistered);
#     SIGTERM to ptsd shuts the daemon down cleanly.
#
# Usage: scripts/e2e-serve.sh [path-to-pts-binary] [path-to-ptsd-binary]
set -euo pipefail

cd "$(dirname "$0")/.."

PTS=${1:-}
PTSD=${2:-}
if [ -z "$PTS" ]; then
  PTS=$(mktemp -d)/pts
  go build -o "$PTS" ./cmd/pts
fi
if [ -z "$PTSD" ]; then
  PTSD=$(mktemp -d)/ptsd
  go build -o "$PTSD" ./cmd/ptsd
fi

FLEET_PORT=${PTS_E2E_PORT:-19481}
FLEET="127.0.0.1:${FLEET_PORT}"
HTTP="127.0.0.1:$((FLEET_PORT + 1))"
BASE="http://$HTTP"
OUT=$(mktemp -d)
trap 'kill $(jobs -p) 2>/dev/null || true; rm -rf "$OUT"' EXIT

# The static jobs' knobs, identical on the CLI and in the job payload.
# CLI -qap N uses the run seed for the instance, so the QAP payload
# below pins the same instance with problem seed == config seed.
STATIC=(-mode real -het=false -tsws 1 -clws 2 -global 3 -local 8
        -trials 6 -depth 3 -tenure 10 -diversify 12 -seed 5)

echo "== single-process baselines (no store; the daemon's jobs are store-backed)"
"$PTS" -circuit highway "${STATIC[@]}" -json "$OUT/base-highway.json" > /dev/null
"$PTS" -circuit c532 "${STATIC[@]}" -json "$OUT/base-c532.json" > /dev/null
"$PTS" -flowshop ta001 "${STATIC[@]}" -clws 1 -json "$OUT/base-flowshop.json" > /dev/null

echo "== start ptsd on $FLEET (http $BASE) + 3 any-workload workers"
"$PTSD" -fleet "$FLEET" -http "$HTTP" -state-dir "$OUT/state" > "$OUT/ptsd.log" 2>&1 &
DAEMON=$!
sleep 0.5
declare -A WPID
for i in 1 2 3; do
  "$PTS" -worker "$FLEET" -any -node-name "w$i" -jobs 0 > "$OUT/worker$i.log" 2>&1 &
  WPID[w$i]=$!
  sleep 0.2
done

total=0
for _ in $(seq 1 100); do
  total=$(curl -sf "$BASE/v1/fleet" | jq -r '.total' 2>/dev/null || echo 0)
  [ "$total" = 3 ] && break
  sleep 0.2
done
if [ "$total" != 3 ]; then
  echo "FAIL: fleet never reached 3 workers"; cat "$OUT/ptsd.log"; exit 1
fi

submit() {
  curl -sf -X POST "$BASE/v1/jobs" -H 'Content-Type: application/json' -d "$1" | jq -r '.id'
}

CFG='"tsws":1,"clws":2,"global_iters":3,"local_iters":8,"trials":6,"depth":3,"tenure":10,"diversify_depth":12,"seed":5,"half_sync":false'
# The flow shop job's knobs: CFG at one CLW, like its baseline's -clws 1.
FSCFG='"tsws":1,"clws":1,"global_iters":3,"local_iters":8,"trials":6,"depth":3,"tenure":10,"diversify_depth":12,"seed":5,"half_sync":false'
echo "== submit 3 concurrent jobs (2 placement + 1 QAP)"
J1=$(submit "{\"problem\":{\"kind\":\"placement\",\"circuit\":\"highway\"},\"workers\":1,\"config\":{$CFG}}")
J2=$(submit "{\"problem\":{\"kind\":\"placement\",\"circuit\":\"c532\"},\"workers\":1,\"config\":{$CFG}}")
# The kill target: adaptive, with work emulation so it outlives its
# neighbors by seconds and is mid-flight when its worker dies.
J3=$(submit '{"problem":{"kind":"qap","n":20,"seed":5},"workers":1,
              "config":{"tsws":1,"clws":2,"global_iters":10,"local_iters":10,
                        "seed":5,"half_sync":false,"adaptive":true,"work_scale":40}}')
echo "jobs: $J1 (highway) $J2 (c532) $J3 (qap, kill target)"
for j in "$J1" "$J2" "$J3"; do
  [ -n "$j" ] && [ "$j" != null ] || { echo "FAIL: submit failed"; cat "$OUT/ptsd.log"; exit 1; }
done

wait_done() { # id timeout-seconds -> job JSON on stdout, fails on timeout
  local id=$1 budget=$((${2} * 10)) v st
  for _ in $(seq 1 "$budget"); do
    v=$(curl -sf "$BASE/v1/jobs/$id")
    st=$(echo "$v" | jq -r '.status')
    case "$st" in done|failed|cancelled) echo "$v"; return 0 ;; esac
    sleep 0.1
  done
  echo "FAIL: job $id never finished (last status $st)" >&2
  return 1
}

# With three 1-worker jobs on a 3-worker fleet all must be admitted at
# once: no job may still be queued.
sleep 0.5
queued=$(curl -sf "$BASE/v1/fleet" | jq -r '.queued')
if [ "$queued" != 0 ]; then
  echo "FAIL: $queued job(s) queued on a fleet with capacity for all three"
  curl -sf "$BASE/v1/jobs" | jq .; exit 1
fi

echo "== static jobs must match their baselines exactly"
V1=$(wait_done "$J1" 60)
V2=$(wait_done "$J2" 60)
for pair in "highway:$J1" "c532:$J2"; do
  circuit=${pair%%:*} id=${pair##*:}
  case $circuit in highway) v=$V1 ;; *) v=$V2 ;; esac
  st=$(echo "$v" | jq -r '.status')
  intr=$(echo "$v" | jq -r '.result.Interrupted')
  got=$(echo "$v" | jq -r '.result.BestCost')
  want=$(jq -r '.BestCost' "$OUT/base-$circuit.json")
  echo "$circuit: daemon $got, single-process $want"
  if [ "$st" != done ] || [ "$intr" != false ]; then
    echo "FAIL: $circuit job $id = $st (interrupted $intr)"; echo "$v" | jq .; exit 1
  fi
  if [ "$got" != "$want" ]; then
    echo "FAIL: $circuit daemon best cost differs from the single-process run"; exit 1
  fi
done
echo "PASS: both placement jobs reproduce their single-process costs exactly"

echo "== flow shop job through the daemon must match its baseline exactly"
J6=$(submit "{\"problem\":{\"kind\":\"flowshop\",\"instance\":\"ta001\"},\"workers\":1,\"config\":{$FSCFG}}")
[ -n "$J6" ] && [ "$J6" != null ] || { echo "FAIL: flow shop submit failed"; cat "$OUT/ptsd.log"; exit 1; }
V6=$(wait_done "$J6" 60)
st=$(echo "$V6" | jq -r '.status')
intr=$(echo "$V6" | jq -r '.result.Interrupted')
got=$(echo "$V6" | jq -r '.result.BestCost')
want=$(jq -r '.BestCost' "$OUT/base-flowshop.json")
echo "ta001: daemon makespan $got, single-process $want"
if [ "$st" != done ] || [ "$intr" != false ]; then
  echo "FAIL: flow shop job $J6 = $st (interrupted $intr)"; echo "$V6" | jq .; exit 1
fi
if [ "$got" != "$want" ]; then
  echo "FAIL: daemon flow shop makespan differs from the single-process run"; exit 1
fi
echo "PASS: flow shop job reproduces the single-process makespan exactly"

echo "== kill the worker leased by the running QAP job"
st=$(curl -sf "$BASE/v1/jobs/$J3" | jq -r '.status')
if [ "$st" != running ]; then
  echo "FAIL: QAP job is $st, expected still running for the kill"; exit 1
fi
# Progress must be visibly mid-flight before the kill.
events=0
for _ in $(seq 1 200); do
  events=$(curl -sf "$BASE/v1/jobs/$J3" | jq -r '.events')
  [ "$events" -ge 3 ] && break # queued + running + >=1 progress
  sleep 0.1
done
[ "$events" -ge 3 ] || { echo "FAIL: QAP job shows no progress events"; exit 1; }
busy=$(curl -sf "$BASE/v1/fleet" | jq -r '.workers[] | select(.busy) | .name')
if [ "$(echo "$busy" | wc -w)" != 1 ]; then
  echo "FAIL: expected exactly one busy worker, got: $busy"; exit 1
fi
echo "killing $busy (pid ${WPID[$busy]}) mid-run"
kill -9 "${WPID[$busy]}"

V3=$(wait_done "$J3" 120)
st=$(echo "$V3" | jq -r '.status')
intr=$(echo "$V3" | jq -r '.result.Interrupted')
init=$(echo "$V3" | jq -r '.result.InitialCost')
best=$(echo "$V3" | jq -r '.result.BestCost')
if [ "$st" != done ] || [ "$intr" != false ]; then
  echo "FAIL: QAP job after worker kill = $st (interrupted $intr)"
  echo "$V3" | jq '.'; cat "$OUT/ptsd.log"; exit 1
fi
if ! awk -v b="$best" -v i="$init" 'BEGIN { exit !(b <= i) }'; then
  echo "FAIL: QAP job did not improve ($init -> $best)"; exit 1
fi
total=$(curl -sf "$BASE/v1/fleet" | jq -r '.total')
if [ "$total" != 2 ]; then
  echo "FAIL: fleet still reports $total workers after the kill"; exit 1
fi
echo "PASS: QAP job survived its worker's death un-Interrupted ($init -> $best), fleet down to 2"

echo "== crash-only: kill -9 ptsd with one job mid-run + one queued, restart"
# Occupy both surviving workers with a long job, queue a quick one
# behind it, then kill the daemon with both in flight.
J4=$(submit '{"problem":{"kind":"qap","n":20,"seed":5},"workers":2,
              "config":{"tsws":1,"clws":2,"global_iters":6,"local_iters":10,
                        "seed":5,"half_sync":false,"work_scale":20}}')
st=""
for _ in $(seq 1 100); do
  st=$(curl -sf "$BASE/v1/jobs/$J4" | jq -r '.status')
  [ "$st" = running ] && break
  sleep 0.1
done
[ "$st" = running ] || { echo "FAIL: $J4 is $st, expected running"; exit 1; }
J5=$(submit "{\"problem\":{\"kind\":\"placement\",\"circuit\":\"highway\"},\"workers\":1,\"config\":{$CFG}}")
st=$(curl -sf "$BASE/v1/jobs/$J5" | jq -r '.status')
[ "$st" = queued ] || { echo "FAIL: $J5 is $st, expected queued behind $J4"; exit 1; }
J1BEST=$(curl -sf "$BASE/v1/jobs/$J1" | jq -r '.result.BestCost')

echo "kill -9 ptsd (pid $DAEMON) with $J4 running and $J5 queued"
kill -9 "$DAEMON"
"$PTSD" -fleet "$FLEET" -http "$HTTP" -state-dir "$OUT/state" > "$OUT/ptsd2.log" 2>&1 &
DAEMON=$!

total=0
for _ in $(seq 1 150); do
  total=$(curl -sf "$BASE/v1/fleet" | jq -r '.total' 2>/dev/null || echo 0)
  [ "$total" = 2 ] && break
  sleep 0.2
done
if [ "$total" != 2 ]; then
  echo "FAIL: workers never re-joined the restarted ptsd (total $total)"
  cat "$OUT/ptsd2.log"; exit 1
fi

# The completed job's result is still served, from the journal alone.
v=$(curl -sf "$BASE/v1/jobs/$J1")
st=$(echo "$v" | jq -r '.status')
got=$(echo "$v" | jq -r '.result.BestCost')
if [ "$st" != done ] || [ "$got" != "$J1BEST" ]; then
  echo "FAIL: restart lost $J1 (status $st, best $got; want done, $J1BEST)"; exit 1
fi

V4=$(wait_done "$J4" 120)
V5=$(wait_done "$J5" 120)
for pair in "$J4|$V4" "$J5|$V5"; do
  id=${pair%%|*} v=${pair#*|}
  st=$(echo "$v" | jq -r '.status')
  intr=$(echo "$v" | jq -r '.result.Interrupted')
  if [ "$st" != done ] || [ "$intr" != false ]; then
    echo "FAIL: recovered job $id = $st (interrupted $intr)"
    echo "$v" | jq .; cat "$OUT/ptsd2.log"; exit 1
  fi
done
echo "PASS: restart re-served $J1's result, resumed $J4, re-admitted queued $J5"

echo "== SIGTERM drains a worker cleanly and shuts the daemon down"
kill -TERM "${WPID[w1]}" 2>/dev/null || kill -TERM "${WPID[w2]}" 2>/dev/null || true
sleep 1
total=$(curl -sf "$BASE/v1/fleet" | jq -r '.total')
if [ "$total" != 1 ]; then
  echo "FAIL: drained worker still registered (fleet total $total)"; exit 1
fi
kill -TERM "$DAEMON"
if ! wait "$DAEMON"; then
  echo "FAIL: ptsd exited non-zero on SIGTERM"; cat "$OUT/ptsd2.log"; exit 1
fi
grep -q "bye" "$OUT/ptsd2.log" || {
  echo "FAIL: ptsd did not report a clean shutdown"; cat "$OUT/ptsd2.log"; exit 1
}
echo "PASS: serving daemon e2e complete"
