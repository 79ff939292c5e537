#!/usr/bin/env bash
# census.sh — what the tier-1 tests never execute and what nothing
# outside its own file uses. Runs `go test ./...` with coverage of every
# internal/ package (-coverpkg=./internal/...; the go tool merges the
# per-package profiles into one), then prints the total statement
# coverage, every non-test internal/ function at 0 %, and the exported
# identifiers scripts/censusrefs.go finds unreferenced outside their own
# file and _test.go files. A function with no statements reads 0.0 % in
# `go tool cover` even when it runs, so censusrefs.go -empty lists those
# and they are left out of the 0 % list. check.sh fails when either
# count rises above the committed copy; refresh it with
#
#	scripts/census.sh > scripts/census.txt
set -euo pipefail
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

go test -count=1 -coverpkg=./internal/... -coverprofile="$tmp/cover.out" ./... > "$tmp/test.out" 2>&1 ||
  { cat "$tmp/test.out" >&2; exit 1; }
go tool cover -func="$tmp/cover.out" > "$tmp/func.out"

module=$(go list -m)
echo "census of tier-1 (go test ./...) over internal/"
awk '$1 == "total:" { print "statements covered: " $3 }' "$tmp/func.out"
go run scripts/censusrefs.go -empty > "$tmp/empty.out"
awk -v m="$module/" 'FNR == NR { empty[$1] = 1; next }
  $1 != "total:" && $3 == "0.0%" { sub("^" m, "", $1); if (!($1 in empty)) print $1 "\t" $2 }' \
  "$tmp/empty.out" "$tmp/func.out" > "$tmp/zero.out"
echo "functions at 0%: $(wc -l < "$tmp/zero.out")"
cat "$tmp/zero.out"
go run scripts/censusrefs.go
