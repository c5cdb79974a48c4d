#!/bin/sh
# fleet_smoke.sh: end-to-end fleet check (make fleet-smoke).
#
# Builds sweep, worker and obs once, makes three campaign runs of one grid,
# then validates every output:
#
#   1. local reference: a 2-worker pool with the journal, the canonical
#      timeline, the live server (/metrics, /healthz and /jobs scraped
#      mid-run) and the four telemetry exports;
#   2. chaos pass: a coordinator with network faults, backoff retries and
#      the circuit breaker armed, plus the journal, timeline and live
#      server, serving a worker that crashes mid-lease and two workers
#      injecting faults into their own requests;
#   3. rejoin: a fresh coordinator and one worker whose result cache is a
#      copy of run 1's manifest, so every key is replayed from the cache.
#
# Both distributed documents, the chaos pass's canonical journal and its
# canonical timeline must be byte-identical to the local run's, and so must
# the timeline obs rebuilds from run 1's manifest, read-only. Artifacts,
# the cornucopia-netchaos/v1 report among them, land in the output
# directory (default fleet-smoke/), which every run clears first: journals
# append, and a stale manifest would serve jobs without running them.
set -eu

OUT=${1:-fleet-smoke}
if [ -e "$OUT" ] && [ ! -e "$OUT/.fleet-smoke" ]; then
    echo "fleet-smoke: refusing to clear $OUT: not a fleet-smoke output directory" >&2
    exit 1
fi
rm -rf "$OUT"
mkdir -p "$OUT"
: >"$OUT/.fleet-smoke"

# -trace-events arms telemetry in every run, so all three pin the same grid
# signature in manifests and worker caches. The ring must reach back past
# whole revocation epochs, so the timelines carry epoch spans and their args.
GRID="-figures fig5 -reps 1 -scale 16 -txs 400 -trace-events 16384"
for cmd in sweep worker obs; do
    go build -o "$OUT/$cmd" "./cmd/$cmd"
done

PIDS=
fail() {
    echo "fleet-smoke: $1" >&2
    for f in "$OUT"/*.log; do
        [ -f "$f" ] && sed "s#^#  $(basename "$f"): #" "$f" >&2
    done
    # shellcheck disable=SC2086  # PIDS is a list
    kill $PIDS 2>/dev/null || true
    exit 1
}

# start NAME CMD...: run CMD in the background, stderr to NAME.log; sets PID.
start() {
    log=$OUT/$1.log
    shift
    "$@" >/dev/null 2>"$log" &
    PID=$!
    PIDS="$PIDS $PID"
}

# finish PID WHAT: wait for PID, failing unless it exits 0.
finish() {
    wait "$1" || fail "$2 exited non-zero"
}

# poll PID CMD...: retry CMD every 0.1 s while PID runs, for up to 30 s.
poll() {
    pid=$1
    shift
    i=0
    while [ $i -lt 300 ]; do
        "$@" && return 0
        kill -0 "$pid" 2>/dev/null || { "$@"; return; }
        sleep 0.1
        i=$((i + 1))
    done
    return 1
}

# live_addr LOG: the live server's address, once the process has logged it.
live_addr() {
    sed -n 's#.*live introspection on http://\([^/]*\)/.*#\1#p' "$1" | head -n 1 | grep .
}

# scrape URL FILE PATTERN...: fetch URL into FILE; true when the body
# matches every PATTERN.
scrape() {
    url=$1 file=$2
    shift 2
    curl -fsS "$url" -o "$file" 2>/dev/null || return 1
    for pat in "$@"; do
        grep -q "$pat" "$file" || return 1
    done
}

echo "fleet-smoke: run 1, local reference (journal, timeline, live server, exports)"
# shellcheck disable=SC2086  # GRID is a flag list
start local "$OUT/sweep" $GRID -workers 2 -canonical -out "$OUT/local.json" \
    -resume "$OUT/local-manifest.jsonl" -journal "$OUT/local.jsonl" \
    -timeline "$OUT/local-timeline.json" -timeline-canonical \
    -http 127.0.0.1:0 -http-linger 1s \
    -prof-folded "$OUT/profile.folded" -prof-pprof "$OUT/profile.pb.gz" \
    -metrics-out "$OUT/metrics.om" -series-csv "$OUT/series.csv"
LOCAL=$PID
HTTP=$(poll $LOCAL live_addr "$OUT/local.log") || fail "local run never served its live server"
poll $LOCAL scrape "http://$HTTP/metrics" "$OUT/scrape.om" '^sweep_jobs_total ' '^# EOF$' ||
    fail "/metrics never served a valid OpenMetrics body"
curl -fsS "http://$HTTP/healthz" >/dev/null || fail "/healthz failed"
curl -fsS "http://$HTTP/jobs" -o "$OUT/jobs.json" || fail "/jobs failed"
finish $LOCAL "local run"

echo "fleet-smoke: run 2, chaos pass (faults on both sides, a worker crash)"
# Coordinator-side drops are capped (-netfault-max) so the campaign heals;
# a short heartbeat reclaims the crasher's lease quickly, the breaker
# quarantines it, and exponential backoff paces the job retries.
# shellcheck disable=SC2086
start chaos-coord "$OUT/sweep" $GRID -workers 2 -canonical -out "$OUT/chaos.json" \
    -resume "$OUT/dist-manifest.jsonl" -journal "$OUT/dist.jsonl" \
    -timeline "$OUT/dist-timeline.json" -timeline-canonical \
    -http 127.0.0.1:0 -http-linger 1s \
    -exec=net -listen 127.0.0.1:0 -addr-file "$OUT/addr.txt" \
    -heartbeat 100ms -retries 3 \
    -retry-backoff 50ms -retry-backoff-max 400ms -retry-jitter 0.25 \
    -netfault drop -netfault-seed 7 -netfault-rate 0.3 -netfault-max 4 \
    -breaker-failures 3 -breaker-cooldown 200ms -progress
COORD=$PID
poll $COORD test -s "$OUT/addr.txt" || fail "chaos coordinator never published its address"
ADDR=$(cat "$OUT/addr.txt")
# The crasher joins alone and dies on its first lease without reporting
# (exit 2 is the crash hook's signature), so the reclaim and breaker paths
# run before the faulty but honest workers join.
start chaos-crasher "$OUT/worker" -connect "$ADDR" -name chaos-crasher -crash-after-lease 1
CODE=0
wait $PID || CODE=$?
[ "$CODE" = 2 ] || fail "crasher exited $CODE, want 2 (crash hook)"
start chaos-w1 "$OUT/worker" -connect "$ADDR" -name chaos-w1 -parallel 2 \
    -netfault drop,delay,reset -netfault-seed 11 -netfault-rate 0.2 -netfault-max 6
W1=$PID
start chaos-w2 "$OUT/worker" -connect "$ADDR" -name chaos-w2 -parallel 2 \
    -netfault duplicate,reorder,throttle -netfault-seed 13 -netfault-rate 0.2 -netfault-max 6
W2=$PID
HTTP=$(live_addr "$OUT/chaos-coord.log") || fail "chaos coordinator never served its live server"
# The top-level "jobs" key is the fleet-wide total (rows are indented deeper).
poll $COORD scrape "http://$HTTP/fleet" "$OUT/fleet.json" '^  "jobs": [1-9]' ||
    fail "/fleet never counted a completed job"
poll $COORD scrape "http://$HTTP/metrics" "$OUT/fleet.om" '^sweep_fleet_jobs_total ' ||
    fail "/metrics carries no fleet_* families"
finish $COORD "chaos coordinator"
finish $W1 "chaos worker 1"
finish $W2 "chaos worker 2"

echo "fleet-smoke: run 3, rejoin (a worker replays run 1's results from its cache)"
cp "$OUT/local-manifest.jsonl" "$OUT/cache.jsonl"
rm -f "$OUT/addr.txt"
# shellcheck disable=SC2086
start rejoin-coord "$OUT/sweep" $GRID -workers 2 -canonical -out "$OUT/rejoin.json" \
    -exec=net -listen 127.0.0.1:0 -addr-file "$OUT/addr.txt"
COORD=$PID
poll $COORD test -s "$OUT/addr.txt" || fail "rejoin coordinator never published its address"
start rejoin-worker "$OUT/worker" -connect "$(cat "$OUT/addr.txt")" -name cache-w1 \
    -parallel 2 -cache "$OUT/cache.jsonl"
W1=$PID
finish $COORD "rejoin coordinator"
finish $W1 "rejoined worker"

echo "fleet-smoke: checking the outputs"
for f in profile.folded profile.pb.gz metrics.om series.csv; do
    [ -s "$OUT/$f" ] || fail "export $f is missing or empty"
done
grep -q ';app ' "$OUT/profile.folded" || fail "folded stacks carry no app frames"
tail -n 1 "$OUT/metrics.om" | grep -q '^# EOF$' || fail "metrics.om is not EOF-terminated"
head -n 1 "$OUT/series.csv" | grep -q '^job,cycle,' || fail "series.csv header malformed"

for run in chaos rejoin; do
    cmp "$OUT/local.json" "$OUT/$run.json" || fail "$run document differs from the local run's"
done
grep -q 'netfault armed' "$OUT/chaos-coord.log" || fail "coordinator never armed its netfault handler"
grep -q 'retry.*\[timeout\]' "$OUT/chaos-coord.log" ||
    fail "no reclaimed-lease retry in the coordinator's progress log"
JOBS=$(grep -c '"key"' "$OUT/local-manifest.jsonl")
REPLAYED=$(grep -c 'served from cache' "$OUT/rejoin-worker.log" || true)
[ "$JOBS" -gt 0 ] && [ "$REPLAYED" = "$JOBS" ] ||
    fail "rejoined worker replayed $REPLAYED of $JOBS jobs from its cache"
grep -q "drained after $JOBS job(s) ($JOBS from cache)" "$OUT/rejoin-worker.log" ||
    fail "rejoined worker's drain line does not report its $JOBS cache hits"

for run in local dist; do
    "$OUT/obs" validate -journal "$OUT/$run.jsonl" || fail "$run journal invalid"
    "$OUT/obs" canon -journal "$OUT/$run.jsonl" -out "$OUT/$run-canon.jsonl" ||
        fail "obs canon failed on the $run journal"
done
cmp "$OUT/local-canon.jsonl" "$OUT/dist-canon.jsonl" ||
    fail "canonical journal differs between the local and chaos runs"
cmp "$OUT/local-timeline.json" "$OUT/dist-timeline.json" ||
    fail "canonical timeline differs between the local and chaos runs"
grep -q '"capsRevoked"' "$OUT/dist-timeline.json" && grep -q '"pagesVisited"' "$OUT/dist-timeline.json" ||
    fail "timeline's epoch spans carry no capsRevoked/pagesVisited args"

"$OUT/obs" report -journal "$OUT/dist.jsonl" -manifest "$OUT/dist-manifest.jsonl" \
    -out "$OUT/report.txt" || fail "obs report failed"
# The row to look for is a worker's that completed a job in the chaos
# pass (a faulty worker may complete none), named by its join event.
WID=$(grep '"kind":"job-report"' "$OUT/dist.jsonl" | grep '"status":"ran"' | head -n 1 |
    sed 's/.*"worker":"\([^"]*\)".*/\1/')
WNAME=$(grep '"kind":"worker-join"' "$OUT/dist.jsonl" | grep "\"worker\":\"$WID\"" |
    sed 's/.*"detail":"\([^"]*\)".*/\1/')
grep -Eq "^  $WID +$WNAME +[1-9]" "$OUT/report.txt" ||
    fail "report has no row for $WNAME ($WID), which completed a job"
grep -q 'p99' "$OUT/report.txt" || fail "report missing latency percentiles"
# obs timeline rebuilds run 1's canonical timeline from its manifest after
# the fact, and only reads the manifest: its bytes must not change, and a
# missing manifest is an error, not an empty timeline.
SUM=$(sha256sum <"$OUT/local-manifest.jsonl")
"$OUT/obs" timeline -manifest "$OUT/local-manifest.jsonl" -canonical \
    -out "$OUT/rebuilt-timeline.json" 2>"$OUT/obs-timeline.log" || fail "obs timeline failed on the local manifest"
cmp "$OUT/local-timeline.json" "$OUT/rebuilt-timeline.json" ||
    fail "obs timeline's rebuilt timeline differs from the local run's"
[ "$(sha256sum <"$OUT/local-manifest.jsonl")" = "$SUM" ] || fail "obs timeline wrote to the manifest it read"
if "$OUT/obs" timeline -manifest "$OUT/missing-manifest.jsonl" >/dev/null 2>&1; then
    fail "obs timeline accepted a missing manifest"
fi
[ ! -e "$OUT/missing-manifest.jsonl" ] || fail "obs timeline created the missing manifest"

cat >"$OUT/netchaos-report.json" <<EOF
{
  "schema": "cornucopia-netchaos/v1",
  "grid": "$GRID",
  "scenarios": [
    {
      "name": "drop+crash",
      "coordinator_faults": {"classes": "drop", "seed": 7, "rate": 0.3, "max_per_class": 4},
      "worker_faults": [
        {"worker": "chaos-w1", "classes": "drop,delay,reset", "seed": 11, "rate": 0.2, "max_per_class": 6},
        {"worker": "chaos-w2", "classes": "duplicate,reorder,throttle", "seed": 13, "rate": 0.2, "max_per_class": 6}
      ],
      "crashed_workers": 1,
      "document_identical": true
    },
    {
      "name": "rejoin-cache",
      "cache_replayed_jobs": $REPLAYED,
      "document_identical": true
    }
  ]
}
EOF
echo "fleet-smoke: OK (3 runs, documents, journal and timeline byte-identical; report in $OUT/netchaos-report.json)"
