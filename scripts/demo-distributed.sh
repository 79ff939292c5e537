#!/usr/bin/env bash
# Demo: run the emulated PoP and the Edge Fabric controller as separate
# processes, attached over real TCP (BMP + iBGP) and UDP (sFlow), and
# watch drops disappear once the controller engages.
#
# Usage: scripts/demo-distributed.sh [seconds]
set -euo pipefail

DURATION="${1:-45}"
DIR="$(mktemp -d)"
trap 'kill $(jobs -p) 2>/dev/null || true; rm -rf "$DIR"' EXIT

echo "building..."
go build -o "$DIR" ./cmd/popsim ./cmd/edgefabricd ./cmd/efctl

echo "starting popsim (underprovisioned PNIs at evening peak)..."
"$DIR/popsim" \
  --prefixes 800 --inventory "$DIR/inv.json" \
  --bmp-base 11019 --inject-base 11179 --sflow 127.0.0.1:6343 \
  --pni-headroom-min 0.6 --pni-headroom-max 0.9 \
  --start-hour 20 --wall-tick 500ms --report-every 5s \
  --duration "$((DURATION + 10))s" >"$DIR/popsim.log" 2>&1 &

until grep -q "inventory written" "$DIR/popsim.log" 2>/dev/null; do sleep 0.3; done
echo "popsim up; baseline (plain BGP) for 10s..."
sleep 10
grep -E "DROPPING|virtual" "$DIR/popsim.log" | tail -4

echo
echo "starting edgefabricd..."
"$DIR/edgefabricd" \
  --inventory "$DIR/inv.json" --sflow-listen 127.0.0.1:6343 \
  --cycle 3s --status 127.0.0.1:8080 --audit "$DIR/cycles.jsonl" \
  --duration "${DURATION}s" >"$DIR/efd.log" 2>&1 &

sleep "$((DURATION - 15))"
echo
echo "--- controller view (efctl) ---"
"$DIR/efctl" -addr 127.0.0.1:8080 overrides | head -8 || true
echo
echo "--- PoP view after control engaged ---"
grep -E "DROPPING|virtual" "$DIR/popsim.log" | tail -4
echo
echo "--- last audited cycle ---"
tail -1 "$DIR/cycles.jsonl" | head -c 400; echo
echo
echo "done; logs were in $DIR (removed on exit)"

