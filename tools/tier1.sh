#!/usr/bin/env bash
# Tier-1 gate: the checks every change must pass before merging.
#
#   1. plain Release build + full ctest suite (it includes every labelled
#      suite: trace, prof, verify, serve, tune, obs, and conform — the two
#      unmodified external-style C hosts from examples/conformance/ plus
#      the error matrix and shim integration tests; `ctest -L <label>`
#      runs one of them alone),
#      then the mclconform coverage report (conformance.json from the
#      cl_surface table) schema- and coverage-checked by plot_results.py
#      (an Implemented CL entry point with no covering test fails tier1),
#      then the mclsan --all static gate (fails on new diagnostics; the
#      KernelFacts JSON it emits is schema-checked by plot_results.py),
#      a fixed-seed 60-second mclcheck differential smoke and a scan
#      rejecting unminimized committed .mclrepro files,
#      and a fixed-seed serve_load closed-loop smoke whose BENCH_serve.json
#      output is schema-checked by plot_results.py (lost/hung tickets fail
#      the harness itself; a malformed trajectory fails the check),
#      plus a fixed-seed serve_load --obs smoke asserting the mclobs
#      critical-path decomposition covers >= 95% of measured latency and
#      that mclstat renders the report and the `.mclobs` snapshot,
#      plus a fixed-seed ablation_tuning smoke whose BENCH_tune.json output
#      is schema-checked (tuned >= paper-default within noise, bounded
#      online convergence);
#   2. ASan+UBSan build (-DMCL_SANITIZE=address,undefined) + full ctest suite;
#   3. TSan build (-DMCL_SANITIZE=thread) running the `threading` + `queue` +
#      `trace` + `prof` + `serve` + `tune` + `obs` + `subdev` + `shim` labels
#      — the thread-pool wakeup, event-graph executor, trace-ring,
#      metrics-shard, multi-tenant serve, tuner decide/report/cache, mclobs
#      request-lifecycle recording, sub-device sharding
#      (concurrent shard launches from multiple host threads over disjoint
#      worker spans), and CL shim tests (wait lists, user events, callbacks
#      and error propagation through the C API). Only those labels: TSan
#      cannot track ucontext fiber stacks, so the fiber suites are excluded
#      via the label selection.
#
# Every stage runs even when an earlier one fails (a stage whose inputs a
# failed build did not produce fails in turn); a per-stage PASS/FAIL summary
# closes the run, and the exit status is nonzero if any stage failed.
#
# Usage: tools/tier1.sh [jobs]    (jobs defaults to nproc)
set -uo pipefail
cd "$(dirname "$0")/.."
jobs="${1:-$(nproc)}"

summary=()
failures=0

# Per-test ctest timeout, so a hung test fails under its own name instead of
# stalling the gate. The slowest test measured under ASan+UBSan is ocl_test
# at 2.5 s (sequential ctest, 4-vCPU Xeon @ 2.1 GHz); 60 s is 24 times that,
# which leaves room for slower or single-CPU hosts.
ctest_timeout=60

# stage <title> <function>: runs the function in a subshell under `set -e`,
# so its first failing command ends that stage only, and records the result.
stage() {
  local title=$1 fn=$2 rc
  echo "== tier1: $title =="
  (set -e; "$fn")
  rc=$?
  if [ "$rc" -eq 0 ]; then
    summary+=("PASS  $title")
  else
    summary+=("FAIL  $title (exit $rc)")
    failures=$((failures + 1))
  fi
}

plain_build() {
  cmake -B build -S .
  cmake --build build -j "$jobs"
}

plain_tests() {
  ctest --test-dir build --output-on-failure --timeout "$ctest_timeout"
}

conform_gate() {
  # The report is generated from the cl_surface table compiled into the
  # shim, so it cannot drift from the code; the --check pass fails if an
  # Implemented entry point names no covering test (or names one that is
  # not a real ctest target).
  ./build/tools/mclconform --json build/conformance.json
  tools/plot_results.py --check build/conformance.json
}

san_gate() {
  # Exit 1 = a kernel outside the known-positive set gained an
  # error-severity diagnostic; the facts file is the auto-tuner's input, so
  # its schema is pinned by plot_results.py --check.
  ./build/tools/mclsan --all --facts build/kernel_facts.json
  tools/plot_results.py --check build/kernel_facts.json
}

check_smoke() {
  # Fixed-seed so the gate is reproducible; the clock-seeded long run is the
  # nightly `ctest -C nightly -L fuzz` job. Repro files go to the build tree.
  ./build/tools/mclcheck --cases 2000 --seed 1 --budget-seconds 60 \
    --repro-dir build
  # Any repro file that does land in the source tree must be minimized.
  find . -path ./build -prune -o -path ./build-asan -prune -o \
    -path ./build-tsan -prune -o -name '*.mclrepro' -print0 |
    while IFS= read -r -d '' repro; do
      tools/plot_results.py --check "$repro"
    done
}

serve_smoke() {
  # The harness exits nonzero on any lost or hung ticket; the emitted
  # trajectory document is then schema-checked (monotonic timeline, ordered
  # percentiles, per-tenant request conservation). The committed
  # BENCH_serve.json perf-trajectory file comes from the full 1M-request run.
  ./build/bench/serve_load --quick --tenants 8 --seed 1 \
    --json build/BENCH_serve_smoke.json
  tools/plot_results.py --check build/BENCH_serve_smoke.json
}

obs_smoke() {
  # serve_load --obs records exact per-request critical paths and exits
  # nonzero unless every tenant's p99 decomposition covers >= 95% of the
  # measured end-to-end latency; the emitted report and `.mclobs` snapshot
  # are then schema-checked, and mclstat must render both (triage-tool
  # smoke).
  ./build/bench/serve_load --quick --tenants 8 --seed 1 --obs \
    --json build/BENCH_serve_obs_smoke.json \
    --obs-dump build/serve_smoke.mclobs
  tools/plot_results.py --check build/BENCH_serve_obs_smoke.json
  tools/plot_results.py --check build/serve_smoke.mclobs
  ./build/tools/mclstat build/BENCH_serve_obs_smoke.json > /dev/null
  ./build/tools/mclstat build/serve_smoke.mclobs > /dev/null
}

tune_smoke() {
  # Fixed-seed quick run of the tuning ablation: the emitted document is
  # schema-checked (tuned arms no worse than paper-default within noise,
  # online convergence within the launch budget). The committed
  # BENCH_tune.json perf-trajectory file comes from the default-size run.
  ./build/bench/ablation_tuning --quick --seed 42 \
    --json build/BENCH_tune_smoke.json
  tools/plot_results.py --check build/BENCH_tune_smoke.json
}

asan_build() {
  cmake -B build-asan -S . -DMCL_SANITIZE=address,undefined
  cmake --build build-asan -j "$jobs"
}

asan_tests() {
  ctest --test-dir build-asan --output-on-failure --timeout "$ctest_timeout"
}

tsan_build() {
  cmake -B build-tsan -S . -DMCL_SANITIZE=thread
  cmake --build build-tsan -j "$jobs" --target threading_test \
    queue_async_test trace_test prof_test serve_test tune_test obs_test \
    subdevice_test cl_shim_test
}

tsan_tests() {
  ctest --test-dir build-tsan --output-on-failure --timeout "$ctest_timeout" \
    -L "threading|queue|trace|prof|serve|tune|obs|subdev|shim"
}

stage "plain build" plain_build
stage "plain ctest (full suite)" plain_tests
stage "mclconform CL-surface coverage gate" conform_gate
stage "mclsan --all static gate + KernelFacts schema check" san_gate
stage "mclcheck differential smoke (fixed seed, 60 s budget)" check_smoke
stage "serve_load closed-loop smoke (fixed seed)" serve_smoke
stage "mclobs critical-path smoke (fixed seed)" obs_smoke
stage "mcltune ablation smoke (fixed seed)" tune_smoke
stage "ASan+UBSan build" asan_build
stage "ASan+UBSan ctest (full suite)" asan_tests
stage "TSan build" tsan_build
stage "TSan ctest (threading + queue + trace + prof + serve + tune + obs + subdev + shim labels)" tsan_tests

echo "== tier1: summary =="
printf '  %s\n' "${summary[@]}"
if [ "$failures" -ne 0 ]; then
  echo "== tier1: $failures stage(s) failed =="
  exit 1
fi
echo "== tier1: all checks passed =="
