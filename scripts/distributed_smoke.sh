#!/usr/bin/env bash
# Distributed-campaign smoke test: boot a coordinator (the one-campaign
# front on the control plane, its journal the -checkpoint file) plus two
# loopback workers (one of which dies hard while holding a lease), SIGKILL
# the coordinator mid-campaign, check the journal refuses a different
# -seed, resume it, and assert the final merged report is byte-identical
# to an uninterrupted single-process run of the same spec. A plane never
# tells its fleet "done", so each leg SIGTERMs its workers once the
# coordinator has exited and requires a clean drain. A second leg runs the
# same drill on a stratified Eyeriss buffer campaign, then replays it
# pilot-free from the recorded strata artifact (-prior) and checks
# distributed == solo there too; the resumed datapath, buffer and systolic
# legs also assert from each worker's exit log that it computed at most one
# golden forward per input (every surface shares the worker's golden
# cache). A
# systolic leg repeats the crash-and-resume drill on a stratified
# weight-stationary array campaign with 3-bit MBU injections, killing the
# coordinator before the pilot->allocation boundary; an output-stationary
# leg repeats it under the -dataflow output corruption-front geometry. A
# multi-tenant leg queues two concurrent campaigns from different
# tenants onto one authenticated control plane and worker fleet, SIGKILLs
# the control plane mid-run, resumes it from the journal, and checks both
# merged reports byte-equal their solo baselines — plus 401 refusal
# without a token and graceful worker drain on SIGTERM. A fourth leg
# restarts the settled plane with a tiny compaction threshold: load-time
# compaction must shrink the journal and retire the finished campaigns
# (gone after one more restart), and a new campaign driven by a
# batched-lease worker survives a SIGKILL landing right after
# size-triggered compaction churn, resuming to a report byte-identical to
# solo.
set -euo pipefail

cd "$(dirname "$0")/.."
tmp=$(mktemp -d)
cleanup() {
    jobs -p | xargs -r kill -9 2>/dev/null || true
    rm -rf "$tmp"
}
trap cleanup EXIT

go build -o "$tmp/faultserve" ./cmd/faultserve

SPEC=(-net ConvNet -dtype FLOAT16 -n 240 -inputs 2 -seed 7 -shards 8 -track-values 32 -track-spread)

json_field() { # json_field <url> <field>
    curl -fsS "$1" | sed -n "s/.*\"$2\":\([0-9]*\).*/\1/p"
}

drain_workers() { # drain_workers <pid>...: SIGTERM, then require exit 0
    kill -TERM "$@"
    for pid in "$@"; do
        wait "$pid" || { echo "FAIL: worker $pid did not drain cleanly"; exit 1; }
    done
}

golden_misses() { # golden_misses <worker stderr>: golden forwards the worker computed
    sed -n 's/.*golden cache: \([0-9]*\) misses.*/\1/p' "$1"
}

# check_fleet_goldens <leg> <inputs> <worker stderr>...: every surface
# resolves goldens through the worker's one cache, so a worker computes at
# most one forward per input however many shards and phases it ran, and
# the fleet that finished the campaign computed each input at least once.
check_fleet_goldens() {
    local leg=$1 inputs=$2 total=0 m
    shift 2
    for log in "$@"; do
        m=$(golden_misses "$log")
        [ -n "$m" ] || { echo "FAIL: $leg worker logged no golden-cache stats"; cat "$log"; exit 1; }
        [ "$m" -le "$inputs" ] || { echo "FAIL: $leg worker computed $m goldens for $inputs inputs"; exit 1; }
        total=$((total + m))
    done
    [ "$total" -ge "$inputs" ] || { echo "FAIL: $leg fleet computed $total goldens for $inputs inputs (cache bypassed?)"; exit 1; }
    echo "   $leg fleet computed $total golden forwards for $inputs inputs"
}

# crash_resume <tag> <what> <solo> <ok> <spec>...: the crash -> resume drill
# of a stratified 6-shard campaign (12 slots) against its solo report
# $tmp/<tag>solo.json. The worker finishes 2 of the 6 pilot slots, takes a
# third lease and dies hard; then the coordinator itself is SIGKILLed
# mid-campaign, before the pilot->allocation boundary. The resumed
# coordinator must re-run neither finished slot, and the report two workers
# finish must byte-equal the solo one.
crash_resume() {
    local tag=$1 what=$2 solo=$3 ok=$4 coord base slots w1 w2
    shift 4
    "$tmp/faultserve" -role coordinator "$@" \
        -addr 127.0.0.1:0 -addr-file "$tmp/${tag}addr" -checkpoint "$tmp/${tag}ckpt" \
        -lease-ttl 2s -out "$tmp/${tag}unreached.json" &
    coord=$!
    for _ in $(seq 100); do [ -s "$tmp/${tag}addr" ] && break; sleep 0.1; done
    base="http://$(cat "$tmp/${tag}addr")"

    "$tmp/faultserve" -role worker -join "$base" -crash-after 2 || true
    slots=$(json_field "$base/v1/campaigns/c1" completed_shards)
    echo "   $slots/12 $what slots checkpointed"
    [ "$slots" -eq 2 ] || { echo "FAIL: expected 2 completed $what slots"; exit 1; }
    kill -9 "$coord"
    wait "$coord" 2>/dev/null || true

    "$tmp/faultserve" -role coordinator "$@" \
        -addr 127.0.0.1:0 -addr-file "$tmp/${tag}addr2" -checkpoint "$tmp/${tag}ckpt" \
        -lease-ttl 2s -linger 2s -out "$tmp/${tag}resumed.json" &
    coord=$!
    for _ in $(seq 100); do [ -s "$tmp/${tag}addr2" ] && break; sleep 0.1; done
    base="http://$(cat "$tmp/${tag}addr2")"

    slots=$(json_field "$base/v1/campaigns/c1" resumed_shards)
    echo "   coordinator resumed $slots $what slots without re-running them"
    [ "$slots" -eq 2 ] || { echo "FAIL: expected 2 resumed $what slots"; exit 1; }

    "$tmp/faultserve" -role worker -join "$base" 2>"$tmp/${tag}w1.err" &
    w1=$!
    "$tmp/faultserve" -role worker -join "$base" 2>"$tmp/${tag}w2.err" &
    w2=$!
    wait "$coord"
    drain_workers "$w1" "$w2"
    check_fleet_goldens "$what" 2 "$tmp/${tag}w1.err" "$tmp/${tag}w2.err"

    if ! cmp -s "$tmp/${tag}solo.json" "$tmp/${tag}resumed.json"; then
        echo "FAIL: resumed distributed $what report differs from $solo"
        diff "$tmp/${tag}solo.json" "$tmp/${tag}resumed.json" | head -20
        exit 1
    fi
    echo "OK: $what campaign $ok bit-identical to solo"
}

echo "== baseline: uninterrupted solo run"
"$tmp/faultserve" -role solo "${SPEC[@]}" -out "$tmp/solo.json"

echo "== phase 1: coordinator + 2 workers, then SIGKILL the coordinator"
"$tmp/faultserve" -role coordinator "${SPEC[@]}" \
    -addr 127.0.0.1:0 -addr-file "$tmp/addr" -checkpoint "$tmp/ckpt" \
    -lease-ttl 2s -out "$tmp/unreached.json" &
coord=$!
for _ in $(seq 100); do [ -s "$tmp/addr" ] && break; sleep 0.1; done
base="http://$(cat "$tmp/addr")"

# Worker A completes 3 shards, takes a 4th lease and exits the way SIGKILL
# would (no report, no heartbeat); worker B completes 2 shards cleanly.
"$tmp/faultserve" -role worker -join "$base" -crash-after 3 || true
"$tmp/faultserve" -role worker -join "$base" -max-leases 2

done_shards=$(json_field "$base/v1/campaigns/c1" completed_shards)
echo "   $done_shards/8 shards checkpointed"
[ "$done_shards" -eq 5 ] || { echo "FAIL: expected 5 completed shards"; exit 1; }
kill -9 "$coord"
wait "$coord" 2>/dev/null || true

# The journal belongs to the seed-7 campaign: a different spec is refused,
# and the refusal leaves the journal as it was (phase 2 still resumes 5).
if "$tmp/faultserve" -role coordinator "${SPEC[@]}" -seed 8 \
    -addr 127.0.0.1:0 -checkpoint "$tmp/ckpt" 2>"$tmp/mismatch.err"; then
    echo "FAIL: checkpoint for seed 7 accepted a seed-8 campaign"; exit 1
fi
grep -q "$tmp/ckpt" "$tmp/mismatch.err" || { echo "FAIL: spec-mismatch refusal does not name the checkpoint"; exit 1; }
echo "   checkpoint refused a different -seed"

echo "== phase 2: resume from checkpoint, finish with 2 workers"
"$tmp/faultserve" -role coordinator "${SPEC[@]}" \
    -addr 127.0.0.1:0 -addr-file "$tmp/addr2" -checkpoint "$tmp/ckpt" \
    -lease-ttl 2s -linger 2s -out "$tmp/resumed.json" &
coord2=$!
for _ in $(seq 100); do [ -s "$tmp/addr2" ] && break; sleep 0.1; done
base2="http://$(cat "$tmp/addr2")"

resumed=$(json_field "$base2/v1/campaigns/c1" resumed_shards)
echo "   coordinator resumed $resumed shards without re-running them"
[ "$resumed" -eq 5 ] || { echo "FAIL: expected 5 resumed shards"; exit 1; }

"$tmp/faultserve" -role worker -join "$base2" 2>"$tmp/w1.err" &
w1=$!
"$tmp/faultserve" -role worker -join "$base2" 2>"$tmp/w2.err" &
w2=$!
wait "$coord2"
drain_workers "$w1" "$w2"
check_fleet_goldens datapath 2 "$tmp/w1.err" "$tmp/w2.err"

echo "== compare resumed-distributed report against the solo baseline"
if ! cmp -s "$tmp/solo.json" "$tmp/resumed.json"; then
    echo "FAIL: resumed distributed report differs from solo run"
    diff "$tmp/solo.json" "$tmp/resumed.json" | head -20
    exit 1
fi
echo "OK: resume re-ran only unfinished shards and merged bit-identical to solo"

echo "== buffer leg: stratified Eyeriss buffer campaign, crash + resume"
BSPEC=(-surface buffer -buffer global -net ConvNet -dtype 16b_rb10 -n 120 -inputs 2 -seed 11 -shards 6 -sampling stratified)

"$tmp/faultserve" -role solo "${BSPEC[@]}" \
    -out "$tmp/bsolo.json" -strata-out "$tmp/bsolo.strata.json"

crash_resume b buffer "solo eyeriss run" "resumed and merged" "${BSPEC[@]}"

echo "== prior-seeded buffer campaign (pilot-free) distributed vs solo"
"$tmp/faultserve" -role solo "${BSPEC[@]}" -prior "$tmp/bsolo.strata.json" \
    -out "$tmp/psolo.json"

"$tmp/faultserve" -role coordinator "${BSPEC[@]}" -prior "$tmp/bsolo.strata.json" \
    -addr 127.0.0.1:0 -addr-file "$tmp/paddr" -linger 2s -out "$tmp/pdist.json" &
pcoord=$!
for _ in $(seq 100); do [ -s "$tmp/paddr" ] && break; sleep 0.1; done
"$tmp/faultserve" -role worker -join "http://$(cat "$tmp/paddr")" 2>"$tmp/pw1.err" &
w1=$!
wait "$pcoord"
drain_workers "$w1"
# One worker ran all six main-phase shards: exactly one forward per input.
pm=$(golden_misses "$tmp/pw1.err")
[ "$pm" = 2 ] || { echo "FAIL: lone buffer worker computed '$pm' goldens for 2 inputs over 6 shards"; cat "$tmp/pw1.err"; exit 1; }
echo "   lone buffer worker computed 2 golden forwards for 6 shards"

if ! cmp -s "$tmp/psolo.json" "$tmp/pdist.json"; then
    echo "FAIL: prior-seeded distributed buffer report differs from solo"
    diff "$tmp/psolo.json" "$tmp/pdist.json" | head -20
    exit 1
fi
echo "OK: prior-seeded allocation reproduced bit-identically over the fleet"

echo "== systolic leg: stratified weight-stationary MBU campaign, crash + resume"
SSPEC=(-surface systolic -net ConvNet -dtype 16b_rb10 -n 120 -inputs 2 -seed 12 -shards 6 -sampling stratified -mbu 3)

"$tmp/faultserve" -role solo "${SSPEC[@]}" -out "$tmp/ssolo.json"

crash_resume s systolic "solo run" "resumed across the pilot boundary" "${SSPEC[@]}"

echo "== output-stationary leg: stratified systolic dataflow campaign, crash + resume"
OSPEC=(-surface systolic -dataflow output -net ConvNet -dtype 16b_rb10 -n 120 -inputs 2 -seed 13 -shards 6 -sampling stratified -mbu 3)

"$tmp/faultserve" -role solo "${OSPEC[@]}" -out "$tmp/osolo.json"

crash_resume o output-stationary "solo run" "resumed across the pilot boundary" "${OSPEC[@]}"

echo "== control-plane leg: two tenants, one fleet, SIGKILL + journal resume"
ASPEC=(-net ConvNet -dtype FLOAT16 -n 160 -inputs 2 -seed 21 -shards 4 -sampling stratified)
CSPEC=(-net ConvNet -dtype FLOAT16 -n 120 -inputs 2 -seed 22 -shards 4)

"$tmp/faultserve" -role solo "${ASPEC[@]}" -out "$tmp/a_solo.json"
"$tmp/faultserve" -role solo "${CSPEC[@]}" -out "$tmp/c_solo.json"

printf '# smoke tenants\nalice:secret-a\nbob:secret-b\nfleet:secret-f\n' > "$tmp/keys"
atok=$("$tmp/faultserve" -role token -tenant-keys "$tmp/keys" -tenant alice)
btok=$("$tmp/faultserve" -role token -tenant-keys "$tmp/keys" -tenant bob)
ftok=$("$tmp/faultserve" -role token -tenant-keys "$tmp/keys" -tenant fleet)

"$tmp/faultserve" -role ctl -addr 127.0.0.1:0 -addr-file "$tmp/caddr" \
    -journal "$tmp/ctl.journal" -tenant-keys "$tmp/keys" -lease-ttl 2s &
ctl=$!
for _ in $(seq 100); do [ -s "$tmp/caddr" ] && break; sleep 0.1; done
cbase="http://$(cat "$tmp/caddr")"

code=$(curl -s -o /dev/null -w '%{http_code}' -X POST "$cbase/v1/campaigns" -d '{}')
[ "$code" = 401 ] || { echo "FAIL: tokenless submit got $code, want 401"; exit 1; }
code=$(curl -s -o /dev/null -w '%{http_code}' -X POST "$cbase/v1/lease" \
    -H "Authorization: Bearer alice.deadbeef" -d '{}')
[ "$code" = 401 ] || { echo "FAIL: forged-token lease got $code, want 401"; exit 1; }
echo "   401 without a valid bearer token"

# Role separation: a tenant's token must not reach the fleet routes (it
# could pull other tenants' specs or forge reports), and the fleet token
# must not reach the campaign routes.
code=$(curl -s -o /dev/null -w '%{http_code}' -X POST "$cbase/v1/lease" \
    -H "Authorization: Bearer $atok" -d '{}')
[ "$code" = 403 ] || { echo "FAIL: tenant-token lease got $code, want 403"; exit 1; }
code=$(curl -s -o /dev/null -w '%{http_code}' "$cbase/v1/campaigns" \
    -H "Authorization: Bearer $ftok")
[ "$code" = 403 ] || { echo "FAIL: fleet-token listing got $code, want 403"; exit 1; }
echo "   403 across the tenant/fleet role boundary"

aid=$("$tmp/faultserve" -role submit -join "$cbase" -token "$atok" "${ASPEC[@]}" -priority 4)
cid=$("$tmp/faultserve" -role submit -join "$cbase" -token "$btok" "${CSPEC[@]}" -priority 1)

# Tenant isolation on reads: bob cannot see alice's campaign.
code=$(curl -s -o /dev/null -w '%{http_code}' "$cbase/v1/campaigns/$aid" \
    -H "Authorization: Bearer $btok")
[ "$code" = 403 ] || { echo "FAIL: cross-tenant read got $code, want 403"; exit 1; }
echo "   403 reading another tenant's campaign"

# A short-lived worker completes 3 slots of the interleaved queue — for the
# priority-4 stratified campaign that is most of its pilot phase — then the
# control plane is SIGKILLed mid-run.
"$tmp/faultserve" -role worker -join "$cbase" -token "$ftok" -max-leases 3
kill -9 "$ctl"
wait "$ctl" 2>/dev/null || true

# Resume on the same address from the journal; the stratified campaign
# crosses its pilot->allocation boundary on the resumed plane.
"$tmp/faultserve" -role ctl -addr "$(cat "$tmp/caddr")" \
    -journal "$tmp/ctl.journal" -tenant-keys "$tmp/keys" -lease-ttl 2s &
ctl2=$!
sleep 0.3

"$tmp/faultserve" -role worker -join "$cbase" -token "$ftok" &
wk1=$!
"$tmp/faultserve" -role worker -join "$cbase" -token "$ftok" &
wk2=$!

"$tmp/faultserve" -role watch -join "$cbase" -token "$atok" -campaign "$aid" \
    -out "$tmp/a_ctl.json" > /dev/null
"$tmp/faultserve" -role watch -join "$cbase" -token "$btok" -campaign "$cid" \
    -out "$tmp/c_ctl.json" > /dev/null

states=$("$tmp/faultserve" -role list -join "$cbase" -token "$atok" \
    | sed -n 's/.*"state":"\([a-z]*\)".*/\1/p' | sort -u)
[ "$states" = done ] || { echo "FAIL: campaign states after resume: $states"; exit 1; }

if ! cmp -s "$tmp/a_solo.json" "$tmp/a_ctl.json"; then
    echo "FAIL: tenant A report differs from its solo run"
    diff "$tmp/a_solo.json" "$tmp/a_ctl.json" | head -20
    exit 1
fi
if ! cmp -s "$tmp/c_solo.json" "$tmp/c_ctl.json"; then
    echo "FAIL: tenant B report differs from its solo run"
    diff "$tmp/c_solo.json" "$tmp/c_ctl.json" | head -20
    exit 1
fi
echo "OK: both tenants' shared-fleet reports byte-equal their solo runs across the kill"

# Graceful drain: SIGTERM must let each worker finish and exit 0.
kill -TERM "$wk1" "$wk2"
wait "$wk1" || { echo "FAIL: worker 1 did not drain cleanly"; exit 1; }
wait "$wk2" || { echo "FAIL: worker 2 did not drain cleanly"; exit 1; }
echo "OK: workers drained cleanly on SIGTERM"
kill -TERM "$ctl2"
wait "$ctl2" 2>/dev/null || true

echo "== compaction leg: snapshot retirement + batched leases + SIGKILL after compaction"
DSPEC=(-net ConvNet -dtype FLOAT16 -n 120 -inputs 2 -seed 23 -shards 4)
"$tmp/faultserve" -role solo "${DSPEC[@]}" -out "$tmp/d_solo.json"

# Restart the settled plane (journal holds both finished campaigns' full
# event history) with a small threshold: load-time compaction rewrites
# the journal as a snapshot, retiring the terminal campaigns' events.
size_before=$(stat -c%s "$tmp/ctl.journal")
"$tmp/faultserve" -role ctl -addr 127.0.0.1:0 -addr-file "$tmp/caddr3" \
    -journal "$tmp/ctl.journal" -tenant-keys "$tmp/keys" -lease-ttl 2s \
    -compact-bytes 2048 &
ctl3=$!
for _ in $(seq 100); do [ -s "$tmp/caddr3" ] && break; sleep 0.1; done
cbase3="http://$(cat "$tmp/caddr3")"
size_after=$(stat -c%s "$tmp/ctl.journal")
echo "   journal $size_before B -> $size_after B after load-time compaction"
[ "$size_after" -lt "$size_before" ] || { echo "FAIL: load compaction did not shrink the journal"; exit 1; }
# Retired campaigns stay queryable until the next restart...
states=$("$tmp/faultserve" -role list -join "$cbase3" -token "$atok" \
    | sed -n 's/.*"state":"\([a-z]*\)".*/\1/p' | sort -u)
[ "$states" = done ] || { echo "FAIL: finished campaign unqueryable in compacting session: '$states'"; exit 1; }
kill -TERM "$ctl3"
wait "$ctl3" 2>/dev/null || true

# ...and are gone after it: the journal is bounded by live-campaign state.
"$tmp/faultserve" -role ctl -addr 127.0.0.1:0 -addr-file "$tmp/caddr4" \
    -journal "$tmp/ctl.journal" -tenant-keys "$tmp/keys" -lease-ttl 2s \
    -compact-bytes 2048 &
ctl4=$!
for _ in $(seq 100); do [ -s "$tmp/caddr4" ] && break; sleep 0.1; done
cbase4="http://$(cat "$tmp/caddr4")"
leftovers=$({ "$tmp/faultserve" -role list -join "$cbase4" -token "$atok"; \
    "$tmp/faultserve" -role list -join "$cbase4" -token "$btok"; } | wc -l)
[ "$leftovers" -eq 0 ] || { echo "FAIL: $leftovers retired campaigns survived the restart"; exit 1; }
echo "OK: terminal campaigns retired from the compacted journal"

# New campaign: a batched-lease worker (queue-ahead pipeline, max=N lease
# grants, /v1/reports delivery) completes half the shards; the growing
# event tail crosses -compact-bytes, so the plane compacts mid-run.
did=$("$tmp/faultserve" -role submit -join "$cbase4" -token "$btok" "${DSPEC[@]}")
"$tmp/faultserve" -role worker -join "$cbase4" -token "$ftok" -max-leases 2
compactions=0
for _ in $(seq 50); do
    compactions=$(curl -fsS "$cbase4/debug/vars" \
        | sed -n 's/.*"compactions": \([0-9]*\).*/\1/p')
    [ "${compactions:-0}" -ge 1 ] && break
    sleep 0.1
done
[ "${compactions:-0}" -ge 1 ] || { echo "FAIL: no size-triggered compaction during the campaign"; exit 1; }
echo "   $compactions size-triggered compaction(s) mid-campaign"
# The worker's report batches are json.Marshal's canonical bytes, so the
# plane's wire codec read every one without falling back to encoding/json.
fallbacks=$(curl -fsS "$cbase4/debug/vars" \
    | sed -n 's/.*"controlplane_report_decode_fallbacks": \([0-9]*\).*/\1/p')
[ "$fallbacks" = 0 ] || { echo "FAIL: controlplane_report_decode_fallbacks is '$fallbacks', want 0"; exit 1; }
echo "   every report batch took the wire codec (0 decode fallbacks)"

# SIGKILL with the compaction churn still warm: recovery must land on
# either the old or the new journal — never a hybrid — and keep the two
# finished shards.
kill -9 "$ctl4"
wait "$ctl4" 2>/dev/null || true
"$tmp/faultserve" -role ctl -addr "$(cat "$tmp/caddr4")" \
    -journal "$tmp/ctl.journal" -tenant-keys "$tmp/keys" -lease-ttl 2s \
    -compact-bytes 2048 &
ctl5=$!
sleep 0.3
resumed_done=$("$tmp/faultserve" -role list -join "$cbase4" -token "$btok" \
    | sed -n 's/.*"completed_shards":\([0-9]*\).*/\1/p')
[ "$resumed_done" = 2 ] || { echo "FAIL: resumed $resumed_done/4 shards, want 2"; exit 1; }
echo "   resumed with 2/4 shards after SIGKILL"

"$tmp/faultserve" -role worker -join "$cbase4" -token "$ftok" &
wk3=$!
"$tmp/faultserve" -role watch -join "$cbase4" -token "$btok" -campaign "$did" \
    -out "$tmp/d_ctl.json" > /dev/null
if ! cmp -s "$tmp/d_solo.json" "$tmp/d_ctl.json"; then
    echo "FAIL: batched-lease report differs from solo across compaction + SIGKILL"
    diff "$tmp/d_solo.json" "$tmp/d_ctl.json" | head -20
    exit 1
fi
echo "OK: compacted + killed + resumed campaign merged bit-identical to solo"
kill -TERM "$wk3"
wait "$wk3" || { echo "FAIL: batched worker did not drain cleanly"; exit 1; }
kill -TERM "$ctl5"
wait "$ctl5" 2>/dev/null || true
