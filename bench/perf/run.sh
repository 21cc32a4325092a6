#!/bin/sh
# Builds the benchmark from source, then runs it with the given arguments:
#   sh bench/perf/run.sh --workload W --seed N --seconds S --trace 0|1
# Run it from the root of the source tree. Build output goes to stderr, so
# the last line of stdout is the benchmark's JSON result.
set -eu
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -f bench/workloads.ml ]; then
  echo "bench/perf/run.sh: run from the root of the ddsm source tree" >&2
  exit 2
fi
DUNE_CACHE=disabled dune build --root . ./bench/perf/perf.exe 1>&2
exec ./_build/default/bench/perf/perf.exe "$@"
