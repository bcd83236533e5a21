#!/usr/bin/env bash
# Multi-process cluster smoke: route a fig13-style request stream
# through gopim_router with 3 spawned gopim_serve shards, SIGKILL one
# shard mid-stream (chaos), and byte-diff the responses against a
# single-process gopim_serve run of the same stream. Asserts:
#
#   - the cluster output is bit-identical to the single process
#     (stable envelope; placement + restart replay preserve caching),
#   - at least one shard restart actually happened (from the
#     {"type":"stats"} trailer, NOT stderr — inform() is suppressed
#     at the default log level),
#   - the router metrics export (METRICS_router.json) carries the
#     restart/reissue counters,
#   - the router removes its port-file directory (made under $TMPDIR)
#     when it exits,
#   - a request-then-wait client on the router's stdin gets each
#     response within 10 s, before it sends its next line.
#
# Usage: tools/cluster_smoke.sh [build-dir]   (default: build)
set -euo pipefail

cd "$(dirname "$0")/.."
build=${1:-build}
serve=$build/tools/gopim_serve
router=$build/tools/gopim_router
for bin in "$serve" "$router"; do
    [ -x "$bin" ] || { echo "missing $bin (build first)" >&2; exit 1; }
done

work=$(mktemp -d "${TMPDIR:-/tmp}/gopim_cluster_smoke.XXXXXX")
trap 'rm -rf "$work"' EXIT

# A fig13-style grid (datasets x systems x seeds x micro-batches),
# repeated so the stream exceeds 1000 requests and re-hits the LRU
# caches, plus one invalid line per repetition to pin error routing.
requests=$work/requests.jsonl
: > "$requests"
for rep in $(seq 1 28); do
    for dataset in ddi Cora; do
        for system in GoPIM Serial ReGraphX; do
            for seed in 1 2 3; do
                for mb in 32 64; do
                    printf '{"id":"%s-%s-%s-s%s-b%s","dataset":"%s","system":"%s","baseline":"Serial","seed":%s,"micro_batch":%s}\n' \
                        "$rep" "$dataset" "$system" "$seed" "$mb" \
                        "$dataset" "$system" "$seed" "$mb" \
                        >> "$requests"
                done
            done
        done
    done
    printf '{"dataset":"no-such-dataset","id":"bad-%s"}\n' "$rep" \
        >> "$requests"
done
lines=$(wc -l < "$requests")
[ "$lines" -ge 1000 ] || { echo "stream too short: $lines" >&2; exit 1; }
echo "request stream: $lines lines"

echo "single-process golden (gopim_serve --envelope=stable) ..."
"$serve" --envelope=stable --jobs=4 \
    < "$requests" > "$work/golden.jsonl"

echo "3-shard cluster with one chaos kill mid-stream ..."
TMPDIR="$work" "$router" --workers=3 --worker-cmd="$serve --jobs=2" \
    --chaos-kill-every=400 --chaos-kill-count=1 --chaos-seed=7 \
    --stats --metrics-out=METRICS_router.json \
    < "$requests" > "$work/cluster_raw.jsonl"

leftover=$(find "$work" -maxdepth 1 -name 'gopim_router.*')
[ -z "$leftover" ] \
    || { echo "router left its port-file directory: $leftover" >&2; exit 1; }
echo "router removed its port-file directory"

# ...and it made that directory under $TMPDIR: one that does not exist
# is a clean startup failure.
if TMPDIR="$work/missing" "$router" --workers=1 --worker-cmd="$serve" \
    < /dev/null 2> "$work/no_tmpdir.err"; then
    echo "router ignored TMPDIR" >&2; exit 1
fi
grep -q 'cannot create port-file directory' "$work/no_tmpdir.err"

stats=$(tail -n 1 "$work/cluster_raw.jsonl")
case $stats in
    *'"type":"stats"'*) ;;
    *) echo "missing stats trailer: $stats" >&2; exit 1 ;;
esac
head -n -1 "$work/cluster_raw.jsonl" > "$work/cluster.jsonl"

diff "$work/golden.jsonl" "$work/cluster.jsonl" \
    || { echo "cluster output differs from single process" >&2; exit 1; }
echo "BYTE-IDENTICAL: $lines responses match the single process"

kills=$(printf '%s' "$stats" | sed -n 's/.*"chaos_kills":\([0-9]*\).*/\1/p')
restarts=$(printf '%s' "$stats" \
    | sed -n 's/.*"restarts":\([0-9]*\),"reissued".*/\1/p')
[ "${kills:-0}" -eq 1 ] \
    || { echo "expected 1 chaos kill, stats: $stats" >&2; exit 1; }
[ "${restarts:-0}" -ge 1 ] \
    || { echo "no shard restart recorded, stats: $stats" >&2; exit 1; }
echo "chaos: $kills kill(s), $restarts restart(s): $stats"

grep -q '"schema": "gopim.metrics.v1"' METRICS_router.json
grep -q 'cluster.restart.count' METRICS_router.json
grep -q 'cluster.request.count' METRICS_router.json
echo "METRICS_router.json carries the cluster counters"

# Request-then-wait: a client that sends one line and waits for its
# response before sending the next must get each response at once (the
# router emits on completion and flushes stdout when nothing more is
# ready), not when a later line arrives.
echo "request-then-wait client on router stdin ..."
: > "$work/wait_requests.jsonl"
: > "$work/wait_replies.jsonl"
coproc ROUTER { TMPDIR="$work" "$router" --workers=2 \
    --worker-cmd="$serve --jobs=1"; }
for seed in 1 2 3 1; do
    line=$(printf '{"id":"wait-%s","dataset":"Cora","seed":%s}' \
        "$seed" "$seed")
    printf '%s\n' "$line" >> "$work/wait_requests.jsonl"
    printf '%s\n' "$line" >&"${ROUTER[1]}"
    IFS= read -r -t 10 reply <&"${ROUTER[0]}" \
        || { echo "no response within 10 s to $line" >&2; exit 1; }
    printf '%s\n' "$reply" >> "$work/wait_replies.jsonl"
done
exec {ROUTER[1]}>&-
wait "$ROUTER_PID"
"$serve" --envelope=stable < "$work/wait_requests.jsonl" \
    | diff - "$work/wait_replies.jsonl" \
    || { echo "request-then-wait replies differ from single process" >&2; exit 1; }
echo "request-then-wait: every response arrived before the next request"
echo "cluster smoke OK"
