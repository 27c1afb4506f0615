#!/usr/bin/env bash
# Fabric smoke test, run by the CI fabric-smoke job and usable locally:
# build atomemud and atomemu-router, start a router over two workers,
# route keyed jobs through it, SIGKILL one worker mid-job, and require
# the router to detect the death (health machine + ring eviction), fail
# the stranded work over to the survivor, and finish every job with the
# right output. Also asserts the per-tenant quota path (429 + Retry-After)
# and the router's Prometheus exposition: per-worker health, failover and
# per-tenant series, and the event-driven completion path — each worker's
# feed established exactly once, and jobs final within 25 ms of their
# worker finishing them (there is no status sweep to wait for).
set -euo pipefail

cd "$(dirname "$0")/.."
tmp=$(mktemp -d)
w1pid=""
w2pid=""
rpid=""
cleanup() {
    for p in "$rpid" "$w1pid" "$w2pid"; do
        [ -n "$p" ] && kill "$p" 2>/dev/null || true
    done
    rm -rf "$tmp"
}
trap cleanup EXIT

go build -o "$tmp/atomemud" ./cmd/atomemud
go build -o "$tmp/atomemu-router" ./cmd/atomemu-router

await_addr() { # $1 = log file; prints host:port once the daemon is up
    local a=""
    for _ in $(seq 1 100); do
        a=$(sed -n 's/.*listening on \([0-9.:]*\)[ ,].*/\1/p' "$1" | head -1)
        if [ -n "$a" ] && curl -fsS "http://$a/healthz" >/dev/null 2>&1; then
            echo "$a"
            return 0
        fi
        a=""
        sleep 0.1
    done
    return 1
}

"$tmp/atomemud" -addr 127.0.0.1:0 -workers 2 -drain-grace 2s >"$tmp/w1.log" 2>&1 &
w1pid=$!
"$tmp/atomemud" -addr 127.0.0.1:0 -workers 2 -drain-grace 2s >"$tmp/w2.log" 2>&1 &
w2pid=$!
w1=$(await_addr "$tmp/w1.log") || { echo "FAIL: worker 1 never came up"; cat "$tmp/w1.log"; exit 1; }
w2=$(await_addr "$tmp/w2.log") || { echo "FAIL: worker 2 never came up"; cat "$tmp/w2.log"; exit 1; }
echo "workers up on $w1 and $w2"

"$tmp/atomemu-router" -addr 127.0.0.1:0 \
    -worker "http://$w1" -worker "http://$w2" \
    -quota-per-weight 4 \
    -probe-interval 100ms -down-after 2 \
    >"$tmp/router.log" 2>&1 &
rpid=$!
raddr=$(await_addr "$tmp/router.log") || { echo "FAIL: router never came up"; cat "$tmp/router.log"; exit 1; }
echo "router up on $raddr"

curl -fsS "http://$raddr/readyz" | grep -q '"status":"ready"' \
    || { echo "FAIL: router not ready with a live fleet"; exit 1; }

submit() { # $1 = request json; prints the router job id
    curl -fsS "http://$raddr/jobs" -d "$1" | grep -o 'fab-[0-9]*' | head -1
}

await_done() { # $1 = job id; prints the terminal view JSON
    local body
    for _ in $(seq 1 600); do
        body=$(curl -fsS "http://$raddr/jobs/$1")
        case "$body" in
        *'"state":"done"'* | *'"state":"failed"'* | *'"state":"shed"'*)
            echo "$body"
            return 0
            ;;
        esac
        sleep 0.1
    done
    echo "FAIL: job $1 never reached a terminal state" >&2
    return 1
}

milestone_gac='var t; func main(n) { var o = 0; var i = 0; while (o < n) { i = 0; while (i < 1000) { atomic_add(&t, 1); i = i + 1; } o = o + 1; print(t); } exit(0); }'

# Quick routed job: completes through the fabric, output intact.
quick_id=$(submit "{\"scheme\":\"pico-cas\",\"arg\":5,\"idempotency_key\":\"smoke-quick\",\"gac\":\"$milestone_gac\"}")
body=$(await_done "$quick_id")
echo "$body" | grep -q '"state":"done"' || { echo "FAIL: routed job: $body"; exit 1; }
echo "$body" | grep -Eq '"output":\[[^]]*\b5000\b' || { echo "FAIL: routed output: $body"; exit 1; }
# The key answers the same router id on re-submit.
rid=$(submit "{\"scheme\":\"pico-cas\",\"arg\":5,\"idempotency_key\":\"smoke-quick\",\"gac\":\"$milestone_gac\"}")
[ "$rid" = "$quick_id" ] || { echo "FAIL: key answered $rid, want $quick_id"; exit 1; }
echo "routed job ok ($quick_id, key idempotent)"

# Quota: a tenant at its live-job cap is shed with 429 + Retry-After.
codes=""
ra=""
for i in $(seq 1 6); do
    curl -s -D "$tmp/flood-hdr" -o /dev/null "http://$raddr/jobs" \
        -d "{\"scheme\":\"pico-cas\",\"arg\":500,\"tenant\":\"flood\",\"idempotency_key\":\"flood-$i\",\"gac\":\"$milestone_gac\",\"config\":{\"checkpoint_every\":5000}}"
    code=$(head -1 "$tmp/flood-hdr" | grep -o '[0-9][0-9][0-9]')
    codes="$codes $code"
    if [ "$code" = "429" ] && [ -z "$ra" ]; then
        ra=$(tr -d '\r' <"$tmp/flood-hdr" | sed -n 's/^Retry-After: //p')
    fi
done
echo "flood submit codes:$codes"
echo "$codes" | grep -q 429 || { echo "FAIL: flooding tenant was never shed with 429"; exit 1; }
[ -n "$ra" ] && [ "$ra" -ge 1 ] || { echo "FAIL: quota 429 carried Retry-After '$ra'"; exit 1; }
echo "tenant quota ok (429 with Retry-After $ra)"

# Long failover job: big enough to still be running when its worker dies.
long_id=$(submit "{\"scheme\":\"pico-cas\",\"arg\":2000,\"deadline_ms\":120000,\"idempotency_key\":\"smoke-long\",\"gac\":\"$milestone_gac\",\"config\":{\"checkpoint_every\":5000}}")
victim=""
for _ in $(seq 1 100); do
    body=$(curl -fsS "http://$raddr/jobs/$long_id")
    case "$body" in
    *'"state":"dispatched"'*)
        victim=$(echo "$body" | grep -o '"worker":"http://[0-9.:]*"' | cut -d'"' -f4)
        [ -n "$victim" ] && break
        ;;
    esac
    sleep 0.1
done
[ -n "$victim" ] || { echo "FAIL: long job never dispatched: $body"; exit 1; }
case "$victim" in
"http://$w1") vpid=$w1pid; survivor=$w2 ;;
"http://$w2") vpid=$w2pid; survivor=$w1 ;;
*) echo "FAIL: job dispatched to unknown worker $victim"; exit 1 ;;
esac
kill -KILL "$vpid"
wait "$vpid" 2>/dev/null || true
if [ "$vpid" = "$w1pid" ]; then w1pid=""; else w2pid=""; fi
echo "SIGKILLed $victim mid-job"

body=$(await_done "$long_id")
echo "$body" | grep -q '"state":"done"' || { echo "FAIL: failover job: $body"; cat "$tmp/router.log"; exit 1; }
echo "$body" | grep -q "\"worker\":\"http://$survivor\"" \
    || { echo "FAIL: job did not finish on the survivor: $body"; exit 1; }
echo "$body" | grep -Eq '"output":\[[^]]*\b2000000\b' || { echo "FAIL: failover output: $body"; exit 1; }
echo "failover ok ($long_id finished on $survivor)"

# Router metrics: per-worker health, failover counters, per-tenant series,
# and well-formed exposition lines.
metrics=$(curl -fsS "http://$raddr/metrics")
m() { # $1 = exact series (with labels); prints its value or 0
    echo "$metrics" | awk -v n="$1" '$1 == n { print $2; found = 1 } END { if (!found) print 0 }'
}
[ "$(m "atomemu_router_worker_health{worker=\"$victim\"}")" = "2" ] \
    || { echo "FAIL: victim not reported down"; echo "$metrics" | grep worker_health; exit 1; }
[ "$(m "atomemu_router_worker_health{worker=\"http://$survivor\"}")" = "0" ] \
    || { echo "FAIL: survivor not reported healthy"; echo "$metrics" | grep worker_health; exit 1; }
[ "$(m atomemu_router_ring_workers)" = "1" ] || { echo "FAIL: ring_workers after eviction"; exit 1; }
[ "$(m "atomemu_router_worker_downs_total{worker=\"$victim\"}")" -ge 1 ] \
    || { echo "FAIL: no down transition recorded"; exit 1; }
[ "$(m atomemu_router_failover_redispatch_total | cut -d. -f1)" -ge 1 ] \
    || { echo "FAIL: failover_redispatch_total never advanced"; exit 1; }
echo "$metrics" | grep -q '^atomemu_router_tenant_admitted_total{tenant="flood"} ' \
    || { echo "FAIL: no per-tenant admitted series"; exit 1; }
echo "$metrics" | grep -q '^atomemu_router_tenant_shed_total{tenant="flood",reason="quota"} ' \
    || { echo "FAIL: no per-tenant quota-shed series"; exit 1; }
echo "$metrics" | grep -q '^atomemu_router_dispatch_wait_seconds_bucket{' \
    || { echo "FAIL: no dispatch-wait histogram"; exit 1; }
# Completion is event-driven: both feeds were established once (the
# victim's never came back), and at least 90% of the finalized jobs were
# final within 25 ms of their worker's own finish time.
[ "$(m 'atomemu_router_watch_resyncs_total{reason="start"}')" = "2" ] \
    || { echo "FAIL: watch_resyncs_total{reason=\"start\"} != worker count"; echo "$metrics" | grep watch_; exit 1; }
[ "$(m "atomemu_router_watch_live{worker=\"http://$survivor\"}")" = "1" ] \
    || { echo "FAIL: survivor's completion feed not live"; echo "$metrics" | grep watch_; exit 1; }
[ "$(m atomemu_router_watch_events_total)" -ge 1 ] \
    || { echo "FAIL: no completion-feed events received"; exit 1; }
lag_fast=$(m 'atomemu_router_finish_lag_seconds_bucket{le="0.025"}')
lag_all=$(m atomemu_router_finish_lag_seconds_count)
[ "$lag_all" -ge 2 ] && [ $((lag_fast * 10)) -ge $((lag_all * 9)) ] \
    || { echo "FAIL: finish lag: $lag_fast of $lag_all jobs within 25ms, want >= 90%"; echo "$metrics" | grep finish_lag; exit 1; }
echo "event-driven completion ok ($lag_fast of $lag_all jobs final within 25ms)"
bad=$(echo "$metrics" | grep -v '^#' | grep -Ev '^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? ([-+]?[0-9.eE+-]+|[-+]?Inf|NaN)$' || true)
if [ -n "$bad" ]; then
    echo "FAIL: malformed exposition lines:"
    echo "$bad"
    exit 1
fi
echo "router metrics ok ($(echo "$metrics" | grep -cv '^#') samples)"

# Drain the admitted flood jobs so SIGTERM finds a quiet router, then
# require a clean drain-and-exit.
for i in $(seq 1 6); do
    id=$(curl -fsS "http://$raddr/jobs" \
        -d "{\"scheme\":\"pico-cas\",\"arg\":500,\"tenant\":\"flood\",\"idempotency_key\":\"flood-$i\",\"gac\":\"$milestone_gac\",\"config\":{\"checkpoint_every\":5000}}" \
        | grep -o 'fab-[0-9]*' | head -1 || true)
    [ -n "$id" ] && await_done "$id" >/dev/null
done
kill -TERM "$rpid"
rc=0
wait "$rpid" || rc=$?
rpid=""
[ "$rc" = "0" ] || { echo "FAIL: router exited $rc after SIGTERM"; cat "$tmp/router.log"; exit 1; }
echo "PASS"
