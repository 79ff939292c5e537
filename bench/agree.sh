#!/usr/bin/env bash
# agree.sh runs every workload twice with the same seed and fails if any
# end-to-end metric differs between the two runs by more than the bound
# BENCHMARK.json fixes for it. Extra arguments (-seed 2, -workload ...)
# are passed through.
set -euo pipefail
exec bash "$(dirname "${BASH_SOURCE[0]}")/run.sh" -agree "$@"
