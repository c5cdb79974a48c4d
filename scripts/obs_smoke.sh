#!/bin/sh
# obs_smoke.sh: end-to-end fleet-observability check (make obs-smoke).
#
# Runs the same small sweep grid twice — once on a local 2-worker pool,
# once through a cmd/sweep coordinator with two cmd/worker processes —
# with the campaign journal, trace rings and canonical timeline armed on
# both. Asserts:
#
#   * both journals validate against cornucopia-journal/v1 (obs validate),
#   * their canonical forms (obs canon) are byte-identical,
#   * the canonical merged timelines are byte-identical, and their epoch
#     spans carry the named args (capsRevoked, pagesVisited),
#   * the coordinator's /fleet endpoint counts completed jobs and the
#     fleet_* metric families are non-empty while the distributed
#     campaign runs,
#   * obs report renders a postmortem from the journal + manifest,
#   * obs diff accepts the committed BENCH_host.json against itself.
#
# Artifacts land under the output directory (default obs-smoke/). Each
# run starts by removing the previous run's artifacts: the journals
# append, and a stale dist-manifest.jsonl would serve every distributed
# job from the manifest, so /fleet would never count one.
set -eu

OUT=${1:-obs-smoke}
mkdir -p "$OUT"
(cd "$OUT" && rm -f local.jsonl local-timeline.json local-canon.jsonl \
    dist.jsonl dist-timeline.json dist-canon.jsonl dist-manifest.jsonl \
    local.log coord.log w1.log w2.log addr.txt fleet.json scrape.om \
    report.txt diff.txt)

GRID="-figures fig5 -reps 1 -scale 16 -txs 400"
# Each job's ring must reach back past whole revocation epochs (paints
# fill it fastest), so the timelines carry epoch spans and their args.
OBSFLAGS="-trace-events 16384 -timeline-canonical"
go build -o "$OUT/sweep" ./cmd/sweep
go build -o "$OUT/worker" ./cmd/worker
go build -o "$OUT/obs" ./cmd/obs

fail() {
    echo "obs-smoke: $1" >&2
    for f in "$OUT"/*.log; do
        [ -f "$f" ] && sed "s#^#  $(basename "$f"): #" "$f" >&2
    done
    exit 1
}

# wait_addr FILE: block until the coordinator publishes its bound address.
wait_addr() {
    i=0
    while [ $i -lt 100 ]; do
        [ -f "$1" ] && return 0
        sleep 0.1
        i=$((i + 1))
    done
    return 1
}

echo "obs-smoke: local reference run (journal + canonical timeline)"
# shellcheck disable=SC2086  # GRID/OBSFLAGS are flag lists
"$OUT/sweep" $GRID $OBSFLAGS -workers 2 \
    -journal "$OUT/local.jsonl" -timeline "$OUT/local-timeline.json" \
    >/dev/null 2>"$OUT/local.log" || fail "local run failed"

echo "obs-smoke: coordinator + 2 workers (journal, timeline, live /fleet)"
# shellcheck disable=SC2086
"$OUT/sweep" $GRID $OBSFLAGS -workers 2 \
    -journal "$OUT/dist.jsonl" -timeline "$OUT/dist-timeline.json" \
    -resume "$OUT/dist-manifest.jsonl" \
    -exec=net -listen 127.0.0.1:0 -addr-file "$OUT/addr.txt" \
    -http 127.0.0.1:0 -http-linger 5s \
    >/dev/null 2>"$OUT/coord.log" &
COORD=$!
wait_addr "$OUT/addr.txt" || fail "coordinator never published its address"
ADDR=$(cat "$OUT/addr.txt")
"$OUT/worker" -connect "$ADDR" -name obs-w1 -parallel 2 2>"$OUT/w1.log" &
W1=$!
"$OUT/worker" -connect "$ADDR" -name obs-w2 -parallel 2 2>"$OUT/w2.log" &
W2=$!

# The live server address appears in the coordinator log; scrape /fleet
# until its fleet-wide job total (the top-level "jobs" key; per-worker
# rows are indented deeper) is positive. One worker may lease nothing
# while the other drains the grid, so no per-worker row is required to
# be. Retry: the fleet fills in as workers report, and the -http-linger
# window keeps the server up if the campaign finishes first.
HTTP=
i=0
while [ $i -lt 100 ]; do
    HTTP=$(sed -n 's#.*live introspection on http://\([^/]*\)/.*#\1#p' "$OUT/coord.log" | head -n 1)
    [ -n "$HTTP" ] && break
    kill -0 "$COORD" 2>/dev/null || fail "coordinator exited before serving"
    sleep 0.1
    i=$((i + 1))
done
[ -n "$HTTP" ] || fail "live server address never appeared in the coordinator log"
ok=0
i=0
while [ $i -lt 100 ]; do
    if curl -fsS "http://$HTTP/fleet" -o "$OUT/fleet.json" 2>/dev/null &&
        grep -q '^  "jobs": [1-9]' "$OUT/fleet.json"; then
        ok=1
        break
    fi
    sleep 0.2
    i=$((i + 1))
done
[ "$ok" = 1 ] || fail "/fleet never counted a completed job"
curl -fsS "http://$HTTP/metrics" -o "$OUT/scrape.om" 2>/dev/null ||
    fail "/metrics scrape failed"
grep -q '^sweep_fleet_jobs_total ' "$OUT/scrape.om" ||
    fail "/metrics carries no fleet_* families"

wait "$COORD" || fail "coordinator exited non-zero"
wait "$W1" || fail "worker 1 exited non-zero"
wait "$W2" || fail "worker 2 exited non-zero"

echo "obs-smoke: validating journals"
"$OUT/obs" validate -journal "$OUT/local.jsonl" || fail "local journal invalid"
"$OUT/obs" validate -journal "$OUT/dist.jsonl" || fail "dist journal invalid"

echo "obs-smoke: canonical byte-identity (journal + timeline)"
"$OUT/obs" canon -journal "$OUT/local.jsonl" -out "$OUT/local-canon.jsonl"
"$OUT/obs" canon -journal "$OUT/dist.jsonl" -out "$OUT/dist-canon.jsonl"
cmp "$OUT/local-canon.jsonl" "$OUT/dist-canon.jsonl" ||
    fail "canonical journal differs between local and distributed runs"
cmp "$OUT/local-timeline.json" "$OUT/dist-timeline.json" ||
    fail "canonical timeline differs between local and distributed runs"
[ -s "$OUT/dist-timeline.json" ] || fail "merged timeline is empty"
grep -q '"capsRevoked"' "$OUT/dist-timeline.json" &&
    grep -q '"pagesVisited"' "$OUT/dist-timeline.json" ||
    fail "merged timeline's epoch spans carry no capsRevoked/pagesVisited args"

echo "obs-smoke: postmortem report"
"$OUT/obs" report -journal "$OUT/dist.jsonl" \
    -manifest "$OUT/dist-manifest.jsonl" -out "$OUT/report.txt" ||
    fail "obs report failed"
grep -q 'obs-w1' "$OUT/report.txt" || fail "report missing per-worker rows"
grep -q 'p99' "$OUT/report.txt" || fail "report missing latency percentiles"

echo "obs-smoke: obs diff against the committed BENCH_host.json"
"$OUT/obs" diff BENCH_host.json BENCH_host.json >"$OUT/diff.txt" ||
    fail "obs diff flagged the committed document against itself"

echo "obs-smoke: OK (journal + timeline byte-identical, fleet live, report rendered)"
