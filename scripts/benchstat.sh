#!/usr/bin/env bash
# benchstat.sh — diff two BENCH_*.json files written by check.sh and
# fail when a hot-path benchmark allocates more per operation than it
# did.
#
#   scripts/benchstat.sh OLD.json NEW.json
#
# allocs/op is a count, so it is the gate: any rise fails. (From 64
# allocs/op up a rise within 1/64 passes: allocations the runtime makes
# on its own account move BenchmarkProject50k between 377 and 379 on
# untouched code.) ns/op is printed and never gated — three-iteration
# nanosecond timings on a shared host read 1.2-2.7x on untouched code,
# and a timing claim belongs to paired `bash bench/run.sh` runs. A
# benchmark present in OLD but missing from NEW fails the gate: silently
# dropping a benchmark is how regressions hide.
set -euo pipefail

if [ $# -ne 2 ]; then
  echo "usage: $0 OLD.json NEW.json" >&2
  exit 2
fi
old=$1
new=$2

awk -v oldf="$old" -v newf="$new" '
function num(line, key,    v) {
  if (!match(line, "\"" key "\": *-?[0-9.]+")) return ""
  v = substr(line, RSTART, RLENGTH)
  sub(/.*: */, "", v)
  return v
}
function bname(line,    v) {
  if (!match(line, /"name": *"[^"]+"/)) return ""
  v = substr(line, RSTART, RLENGTH)
  sub(/.*"name": *"/, "", v)
  sub(/"$/, "", v)
  return v
}
# load parses one results file; rec=1 records benchmark order globally.
function load(file, ns, al, rec,    line, n, count) {
  count = 0
  while ((getline line < file) > 0) {
    n = bname(line)
    if (n == "" || num(line, "ns_per_op") == "") continue
    ns[n] = num(line, "ns_per_op") + 0
    al[n] = num(line, "allocs_per_op") + 0
    count++
    if (rec) order[count] = n
  }
  close(file)
  return count
}
BEGIN {
  nb = load(oldf, ons, oal, 1)
  if (nb == 0) {
    printf "benchstat: no benchmarks parsed from %s\n", oldf
    exit 2
  }
  if (load(newf, nns, nal, 0) == 0) {
    printf "benchstat: no benchmarks parsed from %s\n", newf
    exit 2
  }
  printf "%-40s %14s %14s %8s  %s\n", "benchmark", "old ns/op", "new ns/op", "delta", "allocs/op"
  bad = 0
  for (i = 1; i <= nb; i++) {
    n = order[i]
    if (!(n in nns)) {
      printf "%-40s %14.0f %14s %8s\n", n, ons[n], "-", "GONE"
      bad = 1
      continue
    }
    d = (nns[n] - ons[n]) * 100 / ons[n]
    flag = ""
    if (nal[n] > oal[n] + int(oal[n] / 64)) { flag = "  MORE ALLOCS"; bad = 1 }
    printf "%-40s %14.0f %14.0f %+7.1f%%  %d -> %d%s\n", n, ons[n], nns[n], d, oal[n], nal[n], flag
  }
  for (n in nns)
    if (!(n in ons))
      printf "%-40s %14s %14.0f %8s  %d (no baseline)\n", n, "-", nns[n], "new", nal[n]
  if (bad) {
    printf "benchstat: a hot-path benchmark allocates more per op than its baseline, or is gone\n"
    exit 1
  }
}
' </dev/null
