#!/usr/bin/env bash
# check.sh — the full pre-merge gate: vet, build, race-enabled tests,
# and a smoke pass over the projection benchmarks. Run from anywhere.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> gofmt -l"
badfmt=$(gofmt -l .)
if [ -n "$badfmt" ]; then
  echo "gofmt: files need formatting:" >&2
  echo "$badfmt" >&2
  exit 1
fi

echo "==> go vet ./..."
go vet ./...

echo "==> go build ./..."
go build ./...

# bench/ is its own module (replace edgefabric => ../), so the root
# build never compiles it and a signature change under internal/ can
# break bench/sut.go unseen. Vet and build it the way bench/run.sh does:
# offline, stdlib only. Nothing is written outside the Go build cache.
echo "==> bench module: go vet + go build (offline)"
GOFLAGS= GOPROXY=off go -C bench vet .
GOFLAGS= GOPROXY=off go -C bench build -o /dev/null .

echo "==> go test -race ./..."
go test -race ./...

# Chaos soak smoke, explicitly time-budgeted: the reduced-scale E16
# rung (120 cycles of seeded composed chaos + the fail-static-disabled
# control arm) must go green inside 4 minutes even under the race
# detector. The full 500-cycle soak backs EXPERIMENTS.md E16 via
# `efbench -only E16`; this is the per-merge rung.
echo "==> chaos soak smoke (TestE16SoakSmoke, race, 4m budget)"
go test -race -count=1 -timeout 4m -run '^TestE16SoakSmoke$' ./internal/exp

# Weighted multipath smoke: the reduced-scale E17 comparison must
# engage the optimizer end to end under the race detector — weighted
# sets installed, the dataplane splitting demand, both arms reporting.
# The paper-scale p90-RTT acceptance gate runs via `efbench -only E17`.
echo "==> weighted multipath smoke (TestE17MultipathSmoke, race, 3m budget)"
go test -race -count=1 -timeout 3m -run '^TestE17MultipathSmoke$' ./internal/exp

# Cross-PoP shift smoke: the reduced-scale E18 rung drives a 3-PoP
# hosted fleet and its isolated twins through a region-loss and an
# anycast re-homing episode; every cycle must decide identically and
# every shifted PoP must absorb its new demand. The paper-scale run
# backs EXPERIMENTS.md E18 via `efbench -only E18`.
echo "==> cross-PoP shift smoke (TestE18ShiftSmoke, 4m budget)"
go test -count=1 -timeout 4m -run '^TestE18ShiftSmoke$' ./internal/exp

# Decision pins: the closed-loop optimizer rungs (k = 1 and k = 3) must
# reproduce internal/exp/testdata/pins.txt, twice in a row and on one
# and two cores (the measurement round splits across GOMAXPROCS
# workers), so a new source of nondeterminism fails here instead of
# flaking later.
echo "==> decision pins (TestDecisionPins, -count=2, -cpu 1,2)"
go test -count=2 -cpu 1,2 -run '^TestDecisionPins$' ./internal/exp

# Decision oracle: every cycle RunCycle decides must equal core.Decide
# from scratch. The from-scratch projector fans out by GOMAXPROCS, so one
# and two cores compare both shard layouts against the controller's.
echo "==> decision oracle (TestController{Delta,Optimise}Equivalence, -count=2, -cpu 1,2)"
go test -count=2 -cpu 1,2 -run '^TestController(Delta|Optimise)Equivalence$' ./internal/core

# Hot-path benchmarks, gated against the committed BENCH_hotpath.json
# on allocs/op (a count: any rise fails); ns/op is recorded and
# reported, not gated — see scripts/benchstat.sh. The run is written to
# a temp file and the committed baseline is never rewritten, so the
# gate's slack cannot ratchet upward run by run: a change that lowers
# allocs/op re-commits the file on purpose (copy the printed run file
# over it), as with scripts/census.txt. The 1M-prefix benchmarks are
# deliberately excluded (minutes of table construction; they back
# EXPERIMENTS.md E14, not the per-merge gate). -count=2 with
# min-of-runs in the JSON, each column on its own.
echo "==> hot-path benchmarks, gated against BENCH_hotpath.json"
benchout=$(mktemp)
benchjson=$(mktemp --suffix=.json)
go test -run '^$' \
  -bench='^(BenchmarkProject50k|BenchmarkProjectDeltaFlicker|BenchmarkTableRoutesSorted|BenchmarkRunCycleSteadyState|BenchmarkRunCycleSteadyStateNoTrace|BenchmarkMultipathAllocate|BenchmarkMeasureRoundReports|BenchmarkIngestDatagram|BenchmarkDecodeStream|BenchmarkFleetRollup|BenchmarkInjectorSyncChurn)$' \
  -benchtime=3x -count=2 -benchmem . | tee "$benchout"
awk -v gover="$(go env GOVERSION)" '
/^Benchmark/ {
  name = $1
  sub(/-[0-9]+$/, "", name)
  ns = $3 + 0
  allocs = ""
  for (i = 4; i <= NF; i++) if ($i == "allocs/op") allocs = $(i-1) + 0
  if (!(name in best) || ns < best[name]) best[name] = ns
  if (!(name in al) || allocs < al[name]) al[name] = allocs
  if (!(name in seen)) { seen[name] = 1; order[++n] = name }
}
END {
  printf "{\n  \"generated_by\": \"scripts/check.sh\",\n  \"go\": \"%s\",\n  \"benchmarks\": [\n", gover
  for (i = 1; i <= n; i++) {
    name = order[i]
    printf "    {\"name\": \"%s\", \"ns_per_op\": %.0f, \"allocs_per_op\": %d}%s\n", \
      name, best[name], al[name], (i < n ? "," : "")
  }
  printf "  ]\n}\n"
}
' "$benchout" > "$benchjson"
rm -f "$benchout"
echo "this run: $benchjson"
scripts/benchstat.sh BENCH_hotpath.json "$benchjson"

# Fuzz smoke: 10 s per wire-format decoder, 10 s of the altpath
# window's order index against its copy-and-sort oracle, 10 s of
# rib.Table's write path (adds, duplicate adds, removes, peer flushes,
# batches) against a naive map model, and 10 s of the delta projector
# (demand flicker, route churn, duplicate journal entries, tail
# striding, forced sweeps) against a from-scratch projection. Catches
# decode panics, order-statistic drift, journal/version drift and
# record/bucket drift the seed corpora miss; a real finding reproduces
# via the usual testdata crasher files.
for target in ./internal/bgp:FuzzDecode ./internal/bmp:FuzzDecode ./internal/sflow:FuzzDecode \
  ./internal/altpath:FuzzWindowOrderStats ./internal/rib:FuzzTableModel \
  ./internal/core:FuzzProjectDeltaModel; do
  pkg=${target%%:*} fuzz=${target##*:}
  echo "==> go test -fuzz=$fuzz -fuzztime=10s $pkg"
  go test -run '^$' -fuzz="$fuzz" -fuzztime=10s "$pkg"
done

# API surface gate: the /v1 route list is a golden artifact
# (internal/api/testdata/api_v1_routes.txt); any addition or rename must
# update the golden file in the same change.
echo "==> API v1 surface golden check"
go test -count=1 -run 'TestAPISurfaceGolden' ./internal/api

# Fleet smoke: a 2-PoP embedded fleet must build, share one sFlow demux
# with zero misrouted datagrams, and print a per-PoP summary, with the
# multipath optimizer running in every member.
echo "==> edgefabricd --fleet 2-PoP multipath smoke"
fleettmp=$(mktemp -d)
trap 'kill $(jobs -p) 2>/dev/null || true; rm -rf "$fleettmp"' EXIT
go build -o "$fleettmp/edgefabricd" ./cmd/edgefabricd
cat > "$fleettmp/fleet.json" <<'EOF'
{
  "pops": [
    {"name": "smoke-a", "prefixes": 200, "peak_gbps": 80, "seed": 7},
    {"name": "smoke-b", "prefixes": 150, "peak_gbps": 60, "seed": 8}
  ]
}
EOF
# Capture then grep (grep -q on a live pipe would SIGPIPE the daemon
# mid-summary under pipefail).
"$fleettmp/edgefabricd" --fleet "$fleettmp/fleet.json" --duration 30m \
  --multipath > "$fleettmp/fleet.out" 2>&1
grep -q "fleet summary (2 PoPs; shared sFlow demux: 0 malformed, 0 unknown-agent)" \
  "$fleettmp/fleet.out"

# Fleet scale smoke: a 64-PoP fleet stamped from one count template must
# come up, run shared-demux cycles for every member, and shut down with
# zero misrouted datagrams inside the time budget. Small per-PoP tables
# keep this to seconds; the 256-PoP rungs live in the unit tests and
# BenchmarkFleetRollup.
echo "==> edgefabricd --fleet 64-PoP scale smoke"
cat > "$fleettmp/fleet64.json" <<'EOF'
{
  "pops": [
    {"name": "edge", "count": 64, "prefixes": 150, "peak_gbps": 10, "seed": 11}
  ]
}
EOF
"$fleettmp/edgefabricd" --fleet "$fleettmp/fleet64.json" --duration 10m \
  --metrics-top-k 4 > "$fleettmp/fleet64.out" 2>&1
grep -q "fleet summary (64 PoPs; shared sFlow demux: 0 malformed, 0 unknown-agent)" \
  "$fleettmp/fleet64.out"

# Scenario timeline smoke: popsim must load the composed example
# timeline (all twelve event kinds, the perf pair and the demand shift
# included) and arm the event engine.
echo "==> popsim chaos-timeline load smoke"
go build -o "$fleettmp/popsim" ./cmd/popsim
"$fleettmp/popsim" --topology examples/topologies/chaos-timeline.json \
  --duration 3s --report-every 1s > "$fleettmp/popsim.out" 2>&1
grep -q "event timeline armed (12 events)" "$fleettmp/popsim.out"

# Remote smoke: a race-built edgefabricd attaches to popsim (non-default
# ports) as a remote fleet of one over TCP BMP / iBGP and UDP sFlow,
# through the remote-faults timeline: pr1's BMP feed is killed at 4 s
# for 3 s and pr2's iBGP session is reset at 8 s. Daemon A must come
# ready, heal (every feed back up, the PoP healthy, pr2's session
# flapped at least once, its last cycle healthy), print cycle reports
# and close with zero misrouted datagrams. Daemon B, started after A
# exits against the same popsim, must attach afresh: the paper's
# stateless controller restart. A data race fails the step.
echo "==> edgefabricd --inventory remote smoke (race): faults and a restart"
go build -race -o "$fleettmp/edgefabricd-race" ./cmd/edgefabricd
go build -o "$fleettmp/efctl" ./cmd/efctl
"$fleettmp/popsim" --topology examples/topologies/remote-faults.json \
  --peak-gbps 60 --inventory "$fleettmp/inv.json" \
  --bmp-base 31019 --inject-base 31179 --sflow 127.0.0.1:36343 \
  --wall-tick 200ms --report-every 5s --duration 60s \
  > "$fleettmp/remote-popsim.out" 2>&1 &
popsim_pid=$!
for _ in $(seq 150); do
  grep -q "inventory written" "$fleettmp/remote-popsim.out" && break
  sleep 0.2
done
remote_failed() {
  echo "remote smoke failed: $1" >&2
  for f in remote-popsim.out remote.out remote-health.json remote-b.out; do
    [ -f "$fleettmp/$f" ] && { echo "--- $f" >&2; cat "$fleettmp/$f" >&2; }
  done
  exit 1
}
# remote_healed: the PoP is healthy with every feed up, and the reset
# router (pr2, whose loopback the inventory lists) flapped at least once.
reset_addr=$(awk '/"name": "pr2"/ { getline; gsub(/[",]/, "", $2); print $2; exit }' "$fleettmp/inv.json")
remote_healed() {
  "$fleettmp/efctl" -addr 127.0.0.1:31080 -pop pop-remote-faults health \
    > "$fleettmp/remote-health.json" 2>&1 || return 1
  awk -v rtr="\"$reset_addr\"," '
    /^  "state": / { state = $2 }
    /^  "feeds_up": / { up = $2 + 0 }
    /^  "feeds_total": / { total = $2 + 0 }
    /"router": / { cur = $2 }
    /"flaps": / { if (cur == rtr) flaps = $2 + 0 }
    END { exit !(state == "\"healthy\"," && total > 0 && up == total && flaps >= 1) }
  ' "$fleettmp/remote-health.json"
}
"$fleettmp/edgefabricd-race" --inventory "$fleettmp/inv.json" \
  --sflow-listen 127.0.0.1:36343 --cycle 1s --duration 20s \
  --status 127.0.0.1:31080 > "$fleettmp/remote.out" 2>&1 &
daemon_pid=$!
# Both faults have fired once popsim logs the reset (after the kill's
# revert); then daemon A has until it exits to heal.
for _ in $(seq 150); do
  grep -q "event: apply ibgp-reset" "$fleettmp/remote-popsim.out" && break
  sleep 0.2
done
healed=0
for _ in $(seq 40); do
  if remote_healed; then
    healed=1
    break
  fi
  sleep 0.25
done
rc=0
wait "$daemon_pid" || rc=$?
if [ "$rc" -ne 0 ] || grep -q "DATA RACE" "$fleettmp/remote.out" ||
  ! grep -q "pop-remote-faults: controller ready" "$fleettmp/remote.out" ||
  ! grep -q "^\[pop-remote-faults\] cycle " "$fleettmp/remote.out" ||
  ! grep -q "0 malformed, 0 unknown-agent" "$fleettmp/remote.out"; then
  kill "$popsim_pid" 2>/dev/null || true
  remote_failed "daemon A (exit $rc)"
fi
if [ "$healed" -ne 1 ]; then
  kill "$popsim_pid" 2>/dev/null || true
  remote_failed "daemon A never healed after bmp-kill + ibgp-reset"
fi
if grep "^\[pop-remote-faults\] cycle " "$fleettmp/remote.out" | tail -1 | grep -q " \["; then
  kill "$popsim_pid" 2>/dev/null || true
  remote_failed "daemon A's last cycle was not healthy"
fi
rc=0
"$fleettmp/edgefabricd-race" --inventory "$fleettmp/inv.json" \
  --sflow-listen 127.0.0.1:36343 --cycle 1s --duration 5s \
  > "$fleettmp/remote-b.out" 2>&1 || rc=$?
kill "$popsim_pid" 2>/dev/null || true
wait "$popsim_pid" 2>/dev/null || true
if [ "$rc" -ne 0 ] || grep -q "DATA RACE" "$fleettmp/remote-b.out" ||
  ! grep -q "pop-remote-faults: controller ready" "$fleettmp/remote-b.out" ||
  ! grep -q "^\[pop-remote-faults\] cycle " "$fleettmp/remote-b.out"; then
  remote_failed "daemon B (restart, exit $rc)"
fi

# Performance example smoke: the k = 1 optimizer (whole-prefix moves)
# must install at least one "alt path" override on the anomaly scenario.
echo "==> examples/perfaware smoke"
go run ./examples/perfaware > "$fleettmp/perfaware.out" 2>&1
perfmoves=$(awk -F': ' '/^performance overrides installed this run: / { print $2 }' "$fleettmp/perfaware.out")
if [ -z "$perfmoves" ] || [ "$perfmoves" -lt 1 ]; then
  echo "perfaware example installed no performance override:" >&2
  cat "$fleettmp/perfaware.out" >&2
  exit 1
fi

# Experiment suite smoke: efbench runs two rungs of the rung table on
# one shared plain-BGP harness at the small scale and must exit 0 with
# both experiments' headers (the tests run the rungs' experiments, not
# the command).
echo "==> efbench -scale small -only E1,E3 smoke"
go run ./cmd/efbench -scale small -only E1,E3 > "$fleettmp/efbench.out" 2>&1
grep -q "^E1 route diversity" "$fleettmp/efbench.out"
grep -q "^E3 egress share by policy tier" "$fleettmp/efbench.out"

# Census ratchet: functions the tier-1 tests never run, exported
# identifiers nothing outside their own file uses, and config fields no
# caller outside their package sets, diffed against the committed
# scripts/census.txt. The diff is informational; a rise in any count
# fails the gate, as a rise in allocs/op does above. A change that adds
# one on purpose re-commits the file and says why.
echo "==> census ratchet"
scripts/census.sh > "$fleettmp/census.txt"
diff scripts/census.txt "$fleettmp/census.txt" || true
census_count() { awk -v k="$1: " 'index($0, k) == 1 { print substr($0, length(k) + 1) }' "$2"; }
for key in "functions at 0%" "exported identifiers referenced only from their own file or tests" \
  "config fields no caller outside their package sets"; do
  was=$(census_count "$key" scripts/census.txt)
  now=$(census_count "$key" "$fleettmp/census.txt")
  if [ "$now" -gt "$was" ]; then
    echo "census: \"$key\" rose from $was to $now" >&2
    exit 1
  fi
done

echo "OK"
