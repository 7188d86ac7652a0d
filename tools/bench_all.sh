#!/usr/bin/env sh
# Runs every bench/ target and writes one machine-readable BENCH_<name>.json
# per bench — the perf trajectory artifacts referenced by DESIGN.md §4.
#
# Usage: tools/bench_all.sh [-B <build-dir>] [-o <out-dir>] [--smoke]
#
#   -B <dir>   build directory containing the bench executables
#              (default: build; configured+built automatically if missing)
#   -o <dir>   output directory for BENCH_<name>.json (default: <build-dir>/bench-results)
#   --smoke    seconds-scale run: plain benches shrink their sweeps (--smoke),
#              google-benchmark ones get --benchmark_min_time=0.05s. Smoke
#              artifacts are marked as such in their JSON.
#
# Two bench flavors, one artifact shape each:
#   * plain benches (bench_ablation, ...) emit the bench_report.h schema
#     ({"bench": ..., "schema": 1, "tables": [...]}) via --json;
#   * google-benchmark-API benches (bench_crypto, bench_dag, bench_interpret)
#     emit the google-benchmark JSON layout ({"context": ..., "benchmarks":
#     [...]}) via --benchmark_out — identical whether the vendored
#     minibenchmark shim or the real library (BLOCKDAG_SYSTEM_BENCHMARK=ON)
#     is in use.
set -eu

cd "$(dirname "$0")/.."

build_dir=build
out_dir=""
smoke=0
while [ $# -gt 0 ]; do
  case "$1" in
    -B) build_dir="$2"; shift 2 ;;
    -o) out_dir="$2"; shift 2 ;;
    --smoke) smoke=1; shift ;;
    *) echo "usage: tools/bench_all.sh [-B build-dir] [-o out-dir] [--smoke]" >&2
       exit 2 ;;
  esac
done
[ -n "$out_dir" ] || out_dir="$build_dir/bench-results"

jobs="$(nproc 2>/dev/null || echo 2)"
if [ ! -f "$build_dir/CMakeCache.txt" ]; then
  cmake -B "$build_dir" -S .
fi
cmake --build "$build_dir" -j "$jobs" --target \
  bench_ablation bench_compression bench_gossip bench_latency \
  bench_parallel_instances bench_pruning bench_signatures bench_tcp \
  bench_udp bench_crypto bench_dag bench_interpret

mkdir -p "$out_dir"

plain_benches="bench_ablation bench_compression bench_gossip bench_latency \
bench_parallel_instances bench_pruning bench_signatures bench_tcp \
bench_udp"
gbench_benches="bench_crypto bench_dag bench_interpret"

for bench in $plain_benches; do
  out="$out_dir/BENCH_${bench}.json"
  echo "==> $bench -> $out"
  if [ "$smoke" = 1 ]; then
    "$build_dir/$bench" --smoke "--json=$out"
  else
    "$build_dir/$bench" "--json=$out"
  fi
done

for bench in $gbench_benches; do
  out="$out_dir/BENCH_${bench}.json"
  echo "==> $bench -> $out"
  if [ "$smoke" = 1 ]; then
    # Bare float (no "s" suffix): accepted by the shim, benchmark <= 1.7,
    # and benchmark >= 1.8 alike.
    "$build_dir/$bench" "--benchmark_out=$out" --benchmark_out_format=json \
      --benchmark_min_time=0.05
  else
    "$build_dir/$bench" "--benchmark_out=$out" --benchmark_out_format=json
  fi
done

# Every artifact must be valid JSON — fail loudly if a reporter regressed,
# including when no validator exists to check (a silent skip would void the
# guarantee ci.yml and BUILDING.md advertise).
if command -v python3 >/dev/null 2>&1; then
  validate() { python3 -c "import json, sys; json.load(open(sys.argv[1]))" "$1"; }
elif command -v jq >/dev/null 2>&1; then
  validate() { jq empty "$1"; }
else
  echo "bench_all.sh: neither python3 nor jq found; cannot validate JSON" >&2
  exit 1
fi
for bench in $plain_benches $gbench_benches; do
  validate "$out_dir/BENCH_${bench}.json"
done

echo "==> bench artifacts in $out_dir:"
ls -l "$out_dir"
