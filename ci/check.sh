#!/usr/bin/env bash
# Tier-1 verification pipeline, the same eight stages a CI runner executes:
#
#   1. Debug build with ASan+UBSan (the ESPK_SANITIZE cache option) and the
#      full ctest suite — memory and UB bugs in the zero-copy buffer path
#      (refcount mistakes, slices outliving buffers) fail here loudly.
#   2. TSan build of the sharded-runtime suite — the executor, SPSC ring,
#      timer wheel, and the width-N determinism test all run under
#      ThreadSanitizer, plus the span and health suites whose sharded cases
#      read zone state from barrier hooks (the merged-mirror observability
#      path), and the speaker suite, whose width-2 zone test shares decoded
#      PCM inside each zone under a non-atomic refcount (a handle touched
#      from two shards races here). The sharded runtime's bit-identity
#      claim rests on the executor barrier giving happens-before between
#      epochs; TSan is the check that actually exercises it (a startup race
#      in the executor once made shards share a thread slice and fire events
#      an epoch late — exactly the class of bug this stage exists to catch).
#   3. Release build and the bench smoke gate (espk_bench_smoke), which
#      regenerates BENCH_codec.json / BENCH_fanout.json / BENCH_trace.json /
#      BENCH_fleet.json and validates each against bench/baselines with
#      bench_gate.
#   4. Example smoke run: every examples/ binary from the Release build
#      executes end to end (in a scratch directory — some write artifacts
#      like health_trace.json). A crashing or hanging example is a broken
#      public API.
#   5. Golden-output check: the fleet_dashboard example runs entirely on the
#      simulated clock, so its output is byte-identical across runs and
#      machines; its smoke-run output is diffed against the checked-in
#      ci/golden/fleet_dashboard.out. A diff means telemetry-plane
#      determinism broke (or the dashboard changed — regenerate the golden
#      by copying the new output over it).
#   6. latency_budget golden-output check: same discipline for the span
#      plane — critical-path tables, the resolved deadline-miss exemplar
#      tree, and the sampler counters must be byte-identical across runs.
#   7. subscriptions golden-output check: the service plane's who-hears-what
#      view (directory registrations, runtime subscribe/unsubscribe churn,
#      zone policy enforcement, the dashboard section splice) must be
#      byte-identical across runs.
#   8. perfbench digest check: the repository benchmark (perfbench/) is
#      built the way perfbench/run.py builds it (a Release tree in
#      .bench_build/), and recorded input variants of every BENCHMARK.json
#      workload must reproduce their perfbench/digests.json digests —
#      speaker stats, segment stats and rendered PCM are bit-identical to
#      the recorded runs. All 64 recorded variants of every workload are
#      checked: studio_churn runs the Vorbix codec, whose DSP kernels carry
#      a bit-exactness contract, and every fleet_raw_10k variant rides the
#      segment fan-out and zone delivery path (~1.5 s per variant).
#
# Usage: ci/check.sh [jobs]     (default: nproc)
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${1:-$(nproc)}"

echo "==> [1/8] Debug + ASan/UBSan: configure, build, ctest"
cmake -B build-asan -S . \
  -DCMAKE_BUILD_TYPE=Debug \
  -DESPK_SANITIZE="address;undefined"
cmake --build build-asan -j "$JOBS"
ctest --test-dir build-asan --output-on-failure -j "$JOBS"

echo "==> [2/8] TSan: sharded runtime suite under ThreadSanitizer"
cmake -B build-tsan -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DESPK_SANITIZE=thread
cmake --build build-tsan -j "$JOBS" --target \
  spsc_queue_test timer_wheel_test shard_test sharded_determinism_test \
  span_test health_test speaker_test
ctest --test-dir build-tsan --output-on-failure -j "$JOBS" \
  -R 'spsc_queue_test|timer_wheel_test|shard_test|sharded_determinism_test|span_test|health_test|speaker_test'

echo "==> [3/8] Release: configure, build, bench smoke gate"
cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release
cmake --build build-release -j "$JOBS"
ctest --test-dir build-release --output-on-failure -j "$JOBS"

echo "==> [4/8] Release example smoke run"
EXAMPLES_DIR="$(pwd)/build-release/examples"
SCRATCH="$(mktemp -d)"
trap 'rm -rf "$SCRATCH"' EXIT
for example in quickstart building_pa internet_radio netboot_demo \
               secure_stream health_monitor fleet_dashboard \
               latency_budget subscriptions sharded_observability; do
  echo "--> examples/$example"
  (cd "$SCRATCH" && "$EXAMPLES_DIR/$example" > "$example.out")
done

echo "==> [5/8] fleet_dashboard golden-output check"
if ! diff -u ci/golden/fleet_dashboard.out "$SCRATCH/fleet_dashboard.out"; then
  echo "FAIL: fleet_dashboard output drifted from ci/golden/fleet_dashboard.out"
  exit 1
fi
echo "--> fleet_dashboard output matches golden"

echo "==> [6/8] latency_budget golden-output check"
if ! diff -u ci/golden/latency_budget.out "$SCRATCH/latency_budget.out"; then
  echo "FAIL: latency_budget output drifted from ci/golden/latency_budget.out"
  exit 1
fi
echo "--> latency_budget output matches golden"

echo "==> [7/8] subscriptions golden-output check"
if ! diff -u ci/golden/subscriptions.out "$SCRATCH/subscriptions.out"; then
  echo "FAIL: subscriptions output drifted from ci/golden/subscriptions.out"
  exit 1
fi
echo "--> subscriptions output matches golden"

echo "==> [8/8] perfbench digest check: recorded variants of every workload"
if [ ! -f .bench_build/CMakeCache.txt ]; then
  GENERATOR=()
  if command -v ninja > /dev/null; then
    GENERATOR=(-G Ninja)
  fi
  cmake -S perfbench -B .bench_build -DCMAKE_BUILD_TYPE=Release \
    "${GENERATOR[@]}"
fi
cmake --build .bench_build --target espk_perfbench -j "$JOBS"
WORKLOADS="$(python3 -c 'import json
print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')"
for workload in $WORKLOADS; do
  for variant in $(seq 0 63); do
    got="$(.bench_build/espk_perfbench --workload "$workload" \
             --seed "$variant" --digest-only)"
    want="$(python3 -c 'import json, sys
print(json.load(open("perfbench/digests.json"))[sys.argv[1]][sys.argv[2]])' \
             "$workload" "$variant")"
    if [ "$got" != "$want" ]; then
      echo "FAIL: $workload variant $variant digest $got, recorded $want"
      exit 1
    fi
    echo "--> $workload variant $variant: $got"
  done
done

echo "==> ci/check.sh: all stages passed"
