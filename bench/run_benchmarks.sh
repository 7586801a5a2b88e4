#!/usr/bin/env bash
# Runs the benchmark suite and drops one BENCH_<name>.json per binary
# into the output directory.
#
# Usage: bench/run_benchmarks.sh [build_dir] [out_dir] [bench...]
#   build_dir  cmake build tree containing bench/ (default: build)
#   out_dir    where BENCH_<name>.json files land (default: .)
#   bench...   subset of benchmarks to run, by name with or without the
#              bench_ prefix (default: every bench_* binary found)
#
# CHAINSPLIT_SKIP_BENCHES gates heavyweight benches out of the default
# sweep: a comma-separated list of names (with or without the bench_
# prefix) skipped when no explicit bench list is given. Example:
#   CHAINSPLIT_SKIP_BENCHES=net_saturation,service_throughput bench/run_benchmarks.sh
# skips the multi-client front-end and service sweeps on constrained
# hosts.
# Explicitly listed benches always run.
#
# The JSON is written with --benchmark_out, NOT --benchmark_format:
# several benches print an explanatory banner on stdout which would
# corrupt a stdout JSON stream.
#
# Every BENCH_*.json records hardware_concurrency in its context block
# so scaling trends (UncachedClients) can be judged against the host
# that produced them.
set -euo pipefail

build_dir=${1:-build}
out_dir=${2:-.}
shift $(( $# > 2 ? 2 : $# ))

if [[ ! -d "$build_dir/bench" ]]; then
  echo "error: $build_dir/bench not found; build first:" >&2
  echo "  cmake -B $build_dir -S . && cmake --build $build_dir -j" >&2
  exit 1
fi
mkdir -p "$out_dir"

benches=()
if [[ $# -gt 0 ]]; then
  for name in "$@"; do
    [[ $name == bench_* ]] || name="bench_$name"
    benches+=("$build_dir/bench/$name")
  done
else
  skip=",${CHAINSPLIT_SKIP_BENCHES:-},"
  for bin in "$build_dir"/bench/bench_*; do
    [[ -x $bin && ! -d $bin ]] || continue
    name=$(basename "$bin")
    if [[ $skip == *",$name,"* || $skip == *",${name#bench_},"* ]]; then
      echo "== $name skipped (CHAINSPLIT_SKIP_BENCHES)"
      continue
    fi
    benches+=("$bin")
  done
fi

# Online CPU count, recorded into every JSON and used to decide
# whether the multi-core scaling gate applies at all.
hw=$(getconf _NPROCESSORS_ONLN 2>/dev/null || nproc 2>/dev/null || echo 1)

status=0
for bin in "${benches[@]}"; do
  name=$(basename "$bin")
  json_name=${name#bench_}
  # The service bench is the acceptance artifact; keep its historical
  # short name. The saturation bench is the front-end artifact.
  [[ $json_name == service_throughput ]] && json_name=service
  [[ $json_name == net_saturation ]] && json_name=net
  out="$out_dir/BENCH_${json_name}.json"
  echo "== $name -> $out"
  if ! "$bin" --benchmark_out="$out" --benchmark_out_format=json \
      --benchmark_context=hardware_concurrency="$hw"; then
    echo "error: $name failed" >&2
    rm -f "$out"  # no partial/empty JSON from a failed run
    status=1
    continue
  fi
  if [[ $json_name == service ]]; then
    # Summarize the uncached shared-lock scaling recorded in the JSON:
    # aggregate qps at 8 clients over 1 client. On a single-core host
    # the ratio hovers near 1; the JSON still records the full trend.
    awk '
      /"name": "UncachedClients\/1\// { want = 1 }
      /"name": "UncachedClients\/8\// { want = 8 }
      want && /"qps":/ {
        gsub(/[^0-9.e+-]/, "", $2); qps[want] = $2; want = 0
      }
      END {
        if (qps[1] > 0 && qps[8] > 0)
          printf "   uncached scaling: %.0f qps @1 client, %.0f qps @8 clients (%.2fx)\n", qps[1], qps[8], qps[8] / qps[1]
      }' "$out"
    # Summarize the tracing cost: the acceptance bound is <= 2% on the
    # uncached single-client shape (docs/perf_notes.md).
    awk '
      /"name": "TraceOverhead\// { want = 1 }
      want && /"trace_overhead_pct":/ {
        gsub(/[^0-9.e+-]/, "", $2); pct = $2; seen = 1; want = 0
      }
      END {
        if (seen)
          printf "   trace overhead: %.2f%% (traced vs untraced, 1 client)\n", pct
      }' "$out"
  fi
  if [[ $json_name == program_load ]]; then
    # Load throughput at the largest size: MB/s of program text and
    # facts/s through ParseProgram + LoadProgramFacts.
    awk '
      /"name": "(Family|Edge)Load\/470000"/ {
        name = $2; gsub(/[",]/, "", name); want = 1
      }
      want && /"bytes_per_second":/ { gsub(/[^0-9.e+-]/, "", $2); mb = $2 / 1e6 }
      want && /"facts_per_s":/ {
        gsub(/[^0-9.e+-]/, "", $2)
        printf "   %s: %.1f MB/s, %.0f facts/s\n", name, mb, $2; want = 0
      }' "$out"
  fi
done
exit $status
