#!/usr/bin/env bash
# Serial-vs-parallel determinism gate: CI runs every sim::Runner bench through
# it, one row of the determinism table in .github/workflows/ci.yml per run.
#
# Runs `build/bench/<bench> <args...>` (or `build/examples/<name>` for a
# <bench> of the form `examples/<name>`) twice -- once with --threads=1 and
# once with --threads=$PARALLEL_THREADS -- and fails unless the full ordered
# set of printed `checksum: 0x...` lines is non-empty and bit-identical
# between the two runs.  sim::Runner::finish prints the run's FNV-1a
# `determinism checksum: 0x...` line; matching on the bare suffix also gates
# a bench's own extra lines ("timeline checksum:", "series checksum:").
#
# The serial run fails when its determinism checksum is the empty-stream
# value (the FNV-1a offset basis, 0xcbf29ce484222325): a bench that feeds
# its checksum nothing has nothing to gate.
#
# Any argument containing the literal `{T}` is substituted per run with
# `serial` / `parallel`; after both runs each such file pair is byte-compared
# with cmp, extending the gate to on-disk artifacts (series/timeline files).
#
# With EXPECT set, the serial run must also print exactly one
# `determinism checksum: 0x...` line, equal to EXPECT: agreement between the
# two runs alone would pass a change that moved every checksum the same way.
#
# Usage: determinism_gate.sh <bench> [args...]
# Env:   ARTIFACTS         captured-stdout directory (default: artifacts)
#        LABEL             stem for the captured stdout files (default: the
#                          binary's name)
#        PARALLEL_THREADS  thread count for the parallel run (default: 4)
#        EXPECT            published checksum (0x...) the serial run must print
set -euo pipefail

if [ "$#" -lt 1 ]; then
  echo "usage: $0 <bench> [args...]" >&2
  exit 2
fi

bench=$1
shift
orig_args=("$@")
case "$bench" in
  examples/*) binary="build/$bench" ;;
  *) binary="build/bench/$bench" ;;
esac
artifacts=${ARTIFACTS:-artifacts}
label=${LABEL:-$(basename "$bench")}
threads=${PARALLEL_THREADS:-4}
mkdir -p "$artifacts"

run_one() { # run_one <serial|parallel> <nthreads>
  local tag=$1 nthreads=$2 arg
  local args=()
  for arg in ${orig_args[@]+"${orig_args[@]}"}; do
    args+=("${arg//\{T\}/$tag}")
  done
  echo "=== $label --threads=$nthreads"
  "$binary" ${args[@]+"${args[@]}"} "--threads=$nthreads" \
    | tee "$artifacts/${label}_${tag}.txt"
}

run_one serial 1
run_one parallel "$threads"

serial=$(grep -o 'checksum: 0x[0-9a-f]*' "$artifacts/${label}_serial.txt" || true)
parallel=$(grep -o 'checksum: 0x[0-9a-f]*' "$artifacts/${label}_parallel.txt" || true)
echo "serial:   ${serial:-<none>}"
echo "parallel: ${parallel:-<none>}"
if [ -z "$serial" ]; then
  echo "::error::$label printed no 'checksum: 0x...' line -- nothing to gate"
  exit 1
fi
if grep -q 'determinism checksum: 0xcbf29ce484222325' "$artifacts/${label}_serial.txt"; then
  echo "::error::$label printed the empty-stream checksum -- the bench feeds it nothing"
  exit 1
fi
if [ "$serial" != "$parallel" ]; then
  echo "::error::$label checksums differ between --threads=1 and --threads=$threads"
  exit 1
fi
if [ -n "${EXPECT:-}" ]; then
  published=$(grep -o 'determinism checksum: 0x[0-9a-f]*' \
    "$artifacts/${label}_serial.txt" || true)
  if [ "$published" != "determinism checksum: $EXPECT" ]; then
    echo "::error::$label printed '${published:-<none>}', expected 'determinism checksum: $EXPECT'"
    exit 1
  fi
  echo "published: $EXPECT"
fi

# Byte-compare every {T}-templated output file pair (strip a --flag= prefix).
for arg in ${orig_args[@]+"${orig_args[@]}"}; do
  case "$arg" in
    *"{T}"*)
      path=${arg#*=}
      cmp "${path//\{T\}/serial}" "${path//\{T\}/parallel}"
      echo "byte-identical: ${path//\{T\}/serial} == ${path//\{T\}/parallel}"
      ;;
  esac
done

echo "OK: $label is bit-identical across --threads=1 and --threads=$threads"
