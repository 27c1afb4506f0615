#!/usr/bin/env bash
# Server smoke test, run by the CI server-smoke job and usable locally:
# build atomemud, start it on an ephemeral port, submit PICO-CAS and HST
# jobs over HTTP (one carrying config fields older clients still send),
# assert their results and the error path, then SIGTERM the daemon with a
# slow job in flight and require a clean (exit 0) drain.
# A second durable phase restarts the daemon over a -data-dir and asserts
# the journal_*/ckpt_spill_* metrics and job survival across the restart.
set -euo pipefail

cd "$(dirname "$0")/.."
tmp=$(mktemp -d)
dpid=""
cleanup() {
    [ -n "$dpid" ] && kill "$dpid" 2>/dev/null || true
    rm -rf "$tmp"
}
trap cleanup EXIT

go build -o "$tmp/atomemud" ./cmd/atomemud

"$tmp/atomemud" -addr 127.0.0.1:0 -workers 2 -drain-grace 2s >"$tmp/daemon.log" 2>&1 &
dpid=$!

addr=""
for _ in $(seq 1 100); do
    addr=$(sed -n 's/.*listening on \([0-9.:]*\) .*/\1/p' "$tmp/daemon.log" | head -1)
    if [ -n "$addr" ] && curl -fsS "http://$addr/readyz" >/dev/null 2>&1; then
        break
    fi
    addr=""
    sleep 0.1
done
if [ -z "$addr" ]; then
    echo "FAIL: daemon never became ready"
    cat "$tmp/daemon.log"
    exit 1
fi
echo "daemon up on $addr"

submit() {
    curl -fsS "http://$addr/jobs" -d "$1" | grep -o 'job-[0-9]*' | head -1
}

await() { # $1 = job id; prints the terminal status JSON
    local body
    for _ in $(seq 1 300); do
        body=$(curl -fsS "http://$addr/jobs/$1")
        case "$body" in
        *'"state":"done"'* | *'"state":"failed"'* | *'"state":"canceled"'*)
            echo "$body"
            return 0
            ;;
        esac
        sleep 0.1
    done
    echo "FAIL: job $1 never reached a terminal state" >&2
    return 1
}

counter_gac='var c; func main(n) { var i = 0; while (i < n) { atomic_add(&c, 1); i = i + 1; } print(c); exit(0); }'

# PICO-CAS job: 4 threads x 500 atomic increments; the last print is 2000.
cas_id=$(submit "{\"scheme\":\"pico-cas\",\"threads\":4,\"arg\":500,\"gac\":\"$counter_gac\"}")
body=$(await "$cas_id")
echo "$body" | grep -q '"state":"done"' || { echo "FAIL: pico-cas job: $body"; exit 1; }
echo "$body" | grep -q '"exit_code":0' || { echo "FAIL: pico-cas exit code: $body"; exit 1; }
echo "$body" | grep -Eq '"output":\[[^]]*\b2000\b' || { echo "FAIL: pico-cas output: $body"; exit 1; }
echo "pico-cas job ok ($cas_id)"

# HST job: single thread, same program.
hst_id=$(submit "{\"scheme\":\"hst\",\"arg\":100,\"gac\":\"$counter_gac\"}")
body=$(await "$hst_id")
echo "$body" | grep -q '"state":"done"' || { echo "FAIL: hst job: $body"; exit 1; }
echo "$body" | grep -q '"scheme_effective":"hst"' || { echo "FAIL: hst scheme: $body"; exit 1; }
echo "hst job ok ($hst_id)"

# /metrics: Prometheus text exposition. Both completed jobs must show in
# the counter, the hst histogram must have a +Inf bucket, and every
# non-comment line must match the exposition sample syntax.
metrics=$(curl -fsS "http://$addr/metrics")
echo "$metrics" | grep -q '^atomemu_jobs_completed_total 2$' \
    || { echo "FAIL: jobs_completed_total: $(echo "$metrics" | grep jobs_completed || true)"; exit 1; }
echo "$metrics" | grep -q '^atomemu_job_wall_seconds_bucket{scheme="hst",le="+Inf"} 1$' \
    || { echo "FAIL: missing hst wall histogram +Inf bucket"; exit 1; }
echo "$metrics" | grep -q '^atomemu_engine_scs_total [1-9]' \
    || { echo "FAIL: engine SC counter missing or zero"; exit 1; }
bad=$(echo "$metrics" | grep -v '^#' | grep -Ev '^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? ([-+]?[0-9.eE+-]+|[-+]?Inf|NaN)$' || true)
if [ -n "$bad" ]; then
    echo "FAIL: malformed exposition lines:"
    echo "$bad"
    exit 1
fi
code=$(curl -s -o /dev/null -w '%{http_code}' -X POST "http://$addr/metrics")
[ "$code" = "405" ] || { echo "FAIL: POST /metrics returned $code, want 405"; exit 1; }
echo "metrics scrape ok ($(echo "$metrics" | grep -cv '^#') samples)"

# A request from an older client still carries the retired translation
# tuning fields; they are ignored, and the job must finish done as usual.
legacy_id=$(submit "{\"scheme\":\"hst\",\"arg\":100,\"gac\":\"$counter_gac\",\"config\":{\"tiered\":true,\"chain_budget\":8,\"hot_threshold\":4,\"fuse_atomics\":true}}")
body=$(await "$legacy_id")
echo "$body" | grep -q '"state":"done"' || { echo "FAIL: job with retired config fields: $body"; exit 1; }
echo "$body" | grep -Eq '"output":\[[^]]*\b100\b' || { echo "FAIL: retired-fields output: $body"; exit 1; }
echo "retired config fields accepted ($legacy_id)"

# Admission must reject nonsense with 400.
code=$(curl -s -o /dev/null -w '%{http_code}' "http://$addr/jobs" \
    -d '{"scheme":"qemu","gac":"func main(n) { exit(0); }"}')
[ "$code" = "400" ] || { echo "FAIL: bad scheme returned $code, want 400"; exit 1; }
echo "bad request rejected with 400"

# SIGTERM with a slow job in flight: the daemon must drain (cancelling the
# straggler after -drain-grace) and exit 0.
slow_id=$(submit '{"scheme":"hst","deadline_ms":60000,"gac":"var s; func main(n) { while (1) { s = s + 1; } }"}')
sleep 0.3
kill -TERM "$dpid"
rc=0
wait "$dpid" || rc=$?
dpid=""
if [ "$rc" != "0" ]; then
    echo "FAIL: daemon exited $rc after SIGTERM"
    cat "$tmp/daemon.log"
    exit 1
fi
grep -q "drained clean" "$tmp/daemon.log" || { echo "FAIL: no clean-drain log"; cat "$tmp/daemon.log"; exit 1; }
echo "SIGTERM drain ok (slow job $slow_id cancelled within grace)"

# --- durable phase: journal/spill metrics and survival across a restart ---

ddir="$tmp/data"
start_durable() { # $1 = log file
    "$tmp/atomemud" -addr 127.0.0.1:0 -workers 2 -drain-grace 2s -data-dir "$ddir" >"$1" 2>&1 &
    dpid=$!
    addr=""
    for _ in $(seq 1 100); do
        addr=$(sed -n 's/.*listening on \([0-9.:]*\) .*/\1/p' "$1" | head -1)
        if [ -n "$addr" ] && curl -fsS "http://$addr/readyz" >/dev/null 2>&1; then
            return 0
        fi
        addr=""
        sleep 0.1
    done
    echo "FAIL: durable daemon never became ready"
    cat "$1"
    exit 1
}
metric() { # $1 = series name; prints its value (0 if absent)
    curl -fsS "http://$addr/metrics" | awk -v n="$1" '$1 == n { print $2; found = 1 } END { if (!found) print 0 }'
}

start_durable "$tmp/durable1.log"
echo "durable daemon up on $addr"

dur_id=$(submit "{\"scheme\":\"pico-cas\",\"arg\":20000,\"idempotency_key\":\"smoke-key\",\"gac\":\"$counter_gac\",\"config\":{\"checkpoint_every\":2000}}")
body=$(await "$dur_id")
echo "$body" | grep -q '"state":"done"' || { echo "FAIL: durable job: $body"; exit 1; }
echo "$body" | grep -Eq '"output":\[[^]]*\b20000\b' || { echo "FAIL: durable output: $body"; exit 1; }

# The new durability series must be present and moving on a durable server.
[ "$(metric atomemu_journal_records_total | cut -d. -f1)" -ge 1 ] || { echo "FAIL: journal_records_total never advanced"; exit 1; }
[ "$(metric atomemu_ckpt_spill_total | cut -d. -f1)" -ge 1 ] || { echo "FAIL: ckpt_spill_total never advanced"; exit 1; }
[ "$(metric atomemu_ckpt_spill_errors_total | cut -d. -f1)" = "0" ] || { echo "FAIL: checkpoint spill errors"; exit 1; }
[ "$(metric atomemu_journal_errors_total | cut -d. -f1)" = "0" ] || { echo "FAIL: journal errors"; exit 1; }
echo "durability metrics ok (records=$(metric atomemu_journal_records_total) spills=$(metric atomemu_ckpt_spill_total))"

kill -TERM "$dpid"
rc=0
wait "$dpid" || rc=$?
dpid=""
[ "$rc" = "0" ] || { echo "FAIL: durable daemon exited $rc after SIGTERM"; cat "$tmp/durable1.log"; exit 1; }

start_durable "$tmp/durable2.log"
echo "durable daemon restarted on $addr"

# The finished job survives the restart with its result intact…
body=$(curl -fsS "http://$addr/jobs/$dur_id")
echo "$body" | grep -q '"state":"done"' || { echo "FAIL: job lost across restart: $body"; exit 1; }
echo "$body" | grep -Eq '"output":\[[^]]*\b20000\b' || { echo "FAIL: output lost across restart: $body"; exit 1; }
# …the replay metrics say so, cleanly…
[ "$(metric atomemu_journal_replayed_records_total | cut -d. -f1)" -ge 1 ] || { echo "FAIL: nothing replayed after restart"; exit 1; }
[ "$(metric atomemu_restart_jobs_terminal_total | cut -d. -f1)" -ge 1 ] || { echo "FAIL: terminal job not re-registered"; exit 1; }
[ "$(metric atomemu_journal_corrupt_records_total | cut -d. -f1)" = "0" ] || { echo "FAIL: corrupt records in a clean restart"; exit 1; }
# …and the idempotency key still answers the original id.
rid=$(submit "{\"scheme\":\"pico-cas\",\"arg\":20000,\"idempotency_key\":\"smoke-key\",\"gac\":\"$counter_gac\",\"config\":{\"checkpoint_every\":2000}}")
[ "$rid" = "$dur_id" ] || { echo "FAIL: key answered $rid after restart, want $dur_id"; exit 1; }
echo "restart recovery ok ($dur_id survived, key idempotent)"

kill -TERM "$dpid"
rc=0
wait "$dpid" || rc=$?
dpid=""
[ "$rc" = "0" ] || { echo "FAIL: durable daemon exited $rc on final SIGTERM"; cat "$tmp/durable2.log"; exit 1; }
echo "PASS"
