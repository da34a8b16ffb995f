#!/usr/bin/env bash
# SupMR correctness gate: plain tier-1 build + TSan + ASan+UBSan.
#
# Stages:
#   plain     — full build with warnings as errors (-DSUPMR_WERROR=ON),
#               full ctest (the tier-1 gate from ROADMAP.md)
#   tsan      — -DSUPMR_SANITIZE=thread,           ctest -L sanitizer
#   asan      — -DSUPMR_SANITIZE=address,undefined, ctest -L sanitizer
#   obs-smoke — run the quickstart with --metrics-json/--trace-out and
#               validate both emitted files; then compile-check the
#               -DSUPMR_OBS=OFF configuration (macros must vanish cleanly)
#   fault-smoke — quickstart under a seeded transient FaultPlan must
#               succeed with storage.retries > 0 in the metrics; under a
#               permanent plan it must exit non-zero with a clean JSON
#               error report on stdout
#   coverage  — --coverage build + unit/sanitizer-labeled ctest, then line
#               coverage for the merge (src/merge/) and container
#               (src/containers/) layers via gcovr when installed, else
#               tools/coverage_summary.py (plain gcov). Fails if either
#               layer drops below its branch-point floor (COVERAGE_FLOOR_*)
#   harness   — e2e oracle-conformance harness (docs/testing.md): ctest -L
#               harness, then the mutation smoke — both checked-in repro
#               specs must replay clean AND report "conformance: FAIL"
#               under their seeded SUPMR_TEST_MUTATION, proving the
#               differential harness can actually catch an injected bug
#   harness-asan — the harness suite under ASan+UBSan
#   jobmix-smoke — the multi-tenant runtime's concurrent-jobs suites
#               (ctest -L jobmix: JobManager unit tests, the managed
#               conformance harness with racing tenants, the seeded
#               JobManager stress, and the `supmr serve` CLI smoke)
#               under ThreadSanitizer
#   graph-smoke — the chained-app JobGraph suites (ctest -L graph: DAG
#               validation + handoff unit tests and the pmi/tfidf/msort
#               differential lattice) under ThreadSanitizer, then the
#               checked-in graph spec through the instrumented
#               `supmr graph` CLI — must report "conformance: PASS"
#   combining-smoke — the in-mapper combining container suites (ctest -L
#               combining: the differential/SchedFuzz property suite and
#               the checked-in combining replay spec) under
#               ThreadSanitizer, then that spec through the instrumented
#               CLI — must report "conformance: PASS"
#   cluster-smoke — the sharded-shuffle suites (ctest -L cluster: the
#               shuffle protocol/property suite and the node-count ×
#               mode × merge differential lattice) under ThreadSanitizer
#               (N worker nodes run concurrently on private pools), then
#               the checked-in cluster spec through the instrumented
#               `supmr cluster` CLI — must report "conformance: PASS"
#   perfbench-smoke — the benchmark end to end (perfbench/README.md): a
#               1 s terasort run, untraced and traced, must exit 0 with
#               "correct": true (every job byte-identical to the oracle);
#               under SUPMR_TEST_MUTATION=pway-comparator it must exit
#               non-zero; then perfbench_fidelity_test runs in the
#               benchmark's own build tree (build-check-perfbench)
#
# Usage:
#   tools/check.sh            # all stages
#   tools/check.sh tsan       # one stage
#   JOBS=8 tools/check.sh     # override parallelism
#
# Each stage uses its own build tree (build-check-<stage>), so repeat runs
# are incremental. Suppression files (empty by default) are wired from
# tools/sanitizers/; sanitizer reports fail the run.
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
JOBS="${JOBS:-$(nproc)}"
SUPP="${ROOT}/tools/sanitizers"
STAGES=("$@")
[ ${#STAGES[@]} -eq 0 ] &&
  STAGES=(plain tsan asan obs-smoke fault-smoke coverage harness harness-asan
    jobmix-smoke graph-smoke combining-smoke cluster-smoke perfbench-smoke)

# Branch-point line-coverage floors for the merge-critical layers (the
# coverage stage fails if a change lets these regress).
COVERAGE_FLOOR_MERGE="${COVERAGE_FLOOR_MERGE:-97.5}"
COVERAGE_FLOOR_CONTAINERS="${COVERAGE_FLOOR_CONTAINERS:-97.5}"
COVERAGE_FLOOR_CLUSTER="${COVERAGE_FLOOR_CLUSTER:-97.5}"

# Validate that a file exists, is non-empty, and parses as JSON. Uses
# python3's parser when present; otherwise falls back to a shape check so
# the stage still catches empty/truncated output on minimal hosts.
validate_json_file() {
  local f="$1"
  [ -s "${f}" ] || { echo "check: ${f} missing or empty" >&2; return 1; }
  if command -v python3 >/dev/null 2>&1; then
    python3 -m json.tool "${f}" >/dev/null ||
      { echo "check: ${f} is not valid JSON" >&2; return 1; }
  else
    local first last
    first="$(head -c1 "${f}")"
    last="$(tail -c2 "${f}" | tr -d '\n')"
    { [ "${first}" = "{" ] && [ "${last}" = "}" ]; } ||
      { echo "check: ${f} does not look like a JSON object" >&2; return 1; }
  fi
}

configure_and_build() {
  local dir="$1"; shift
  cmake -B "${dir}" -S "${ROOT}" "$@" >/dev/null
  cmake --build "${dir}" -j "${JOBS}"
}

# Mutation-testing smoke for the conformance harness: each checked-in repro
# spec must replay clean, and must report "conformance: FAIL" when its
# seeded mutation is switched on. An injected comparator/routing bug that
# the harness does NOT flag means the oracle comparison is broken.
mutation_smoke() {
  local cli="$1"
  local specs="${ROOT}/tests/harness"
  "${cli}" replay "${specs}/replay_pway_smoke.json" |
    grep -q 'conformance: PASS' ||
    { echo "harness: pway smoke spec does not replay clean" >&2; return 1; }
  "${cli}" replay "${specs}/replay_partitioned_smoke.json" |
    grep -q 'conformance: PASS' ||
    { echo "harness: partitioned smoke spec does not replay clean" >&2
      return 1; }
  # io=mmap cell: zero-copy borrowed views must match the oracle too.
  "${cli}" replay "${specs}/replay_mmap_smoke.json" |
    grep -q 'conformance: PASS' ||
    { echo "harness: mmap smoke spec does not replay clean" >&2; return 1; }
  # container=combining cell: the emit-time fold must be invisible against
  # the oracle's default-container run.
  "${cli}" replay "${specs}/replay_combining_smoke.json" |
    grep -q 'conformance: PASS' ||
    { echo "harness: combining smoke spec does not replay clean" >&2
      return 1; }
  # The mutated replays exit non-zero BY DESIGN, so capture output first
  # (a plain pipeline would trip pipefail even when grep matches) and
  # assert on the explicit verdict string.
  local out
  out="$(SUPMR_TEST_MUTATION=pway-comparator \
    "${cli}" replay "${specs}/replay_pway_smoke.json" 2>/dev/null || true)"
  grep -q 'conformance: FAIL' <<<"${out}" ||
    { echo "harness: pway-comparator mutation was NOT detected" >&2
      return 1; }
  out="$(SUPMR_TEST_MUTATION=partition-routing \
    "${cli}" replay "${specs}/replay_partitioned_smoke.json" 2>/dev/null ||
    true)"
  grep -q 'conformance: FAIL' <<<"${out}" ||
    { echo "harness: partition-routing mutation was NOT detected" >&2
      return 1; }
  # Sharded-shuffle cell: the cluster spec must replay clean, and a rotated
  # partition route (cluster routing goes through merge::partition_of) must
  # scramble the owner concat order into a detected divergence.
  "${cli}" cluster "--spec=${specs}/replay_cluster_smoke.json" |
    grep -q 'conformance: PASS' ||
    { echo "harness: cluster smoke spec does not replay clean" >&2
      return 1; }
  out="$(SUPMR_TEST_MUTATION=partition-routing \
    "${cli}" cluster "--spec=${specs}/replay_cluster_smoke.json" \
    2>/dev/null || true)"
  grep -q 'conformance: FAIL' <<<"${out}" ||
    { echo "harness: cluster partition-routing mutation was NOT detected" >&2
      return 1; }
  echo "harness: mutation smoke OK (3 specs x clean+mutated, 1 mmap cell, 1 combining cell)"
}

run_stage() {
  local stage="$1"
  echo "==> stage: ${stage}"
  case "${stage}" in
    plain)
      configure_and_build "${ROOT}/build-check-plain" -DSUPMR_WERROR=ON
      (cd "${ROOT}/build-check-plain" && ctest --output-on-failure -j "${JOBS}")
      ;;
    tsan)
      configure_and_build "${ROOT}/build-check-tsan" \
        -DSUPMR_SANITIZE=thread -DSUPMR_BUILD_BENCH=OFF \
        -DSUPMR_BUILD_EXAMPLES=OFF
      (cd "${ROOT}/build-check-tsan" &&
        TSAN_OPTIONS="suppressions=${SUPP}/tsan.supp halt_on_error=1 second_deadlock_stack=1" \
        ctest -L sanitizer --output-on-failure -j "${JOBS}")
      ;;
    asan)
      configure_and_build "${ROOT}/build-check-asan" \
        -DSUPMR_SANITIZE=address,undefined -DSUPMR_BUILD_BENCH=OFF \
        -DSUPMR_BUILD_EXAMPLES=OFF
      (cd "${ROOT}/build-check-asan" &&
        ASAN_OPTIONS="suppressions=${SUPP}/asan.supp detect_leaks=1" \
        LSAN_OPTIONS="suppressions=${SUPP}/lsan.supp" \
        UBSAN_OPTIONS="suppressions=${SUPP}/ubsan.supp print_stacktrace=1" \
        ctest -L sanitizer --output-on-failure -j "${JOBS}")
      ;;
    obs-smoke)
      # End-to-end: the quickstart must emit valid metrics + trace JSON.
      configure_and_build "${ROOT}/build-check-plain"
      local out="${ROOT}/build-check-plain/obs-smoke"
      mkdir -p "${out}"
      "${ROOT}/build-check-plain/examples/quickstart" \
        "--metrics-json=${out}/metrics.json" "--trace-out=${out}/trace.json"
      validate_json_file "${out}/metrics.json"
      validate_json_file "${out}/trace.json"
      grep -q '"traceEvents"' "${out}/trace.json" ||
        { echo "obs-smoke: trace.json lacks traceEvents" >&2; return 1; }
      grep -q '"counters"' "${out}/metrics.json" ||
        { echo "obs-smoke: metrics.json lacks counters" >&2; return 1; }
      # The compiled-out configuration must still build everything.
      configure_and_build "${ROOT}/build-check-obs-off" -DSUPMR_OBS=OFF
      ;;
    fault-smoke)
      # End-to-end fault tolerance (docs/fault-tolerance.md). The fault
      # plan is seeded, so both runs are reproducible.
      configure_and_build "${ROOT}/build-check-plain"
      local out="${ROOT}/build-check-plain/fault-smoke"
      mkdir -p "${out}"
      # 1. Transient faults within the retry budget: the job must succeed
      #    and the retry layer must have actually fired.
      "${ROOT}/build-check-plain/examples/quickstart" \
        "--fault-plan=seed=7;transient=0.25" --retry-attempts=6 \
        "--metrics-json=${out}/metrics.json" > "${out}/transient.out"
      validate_json_file "${out}/metrics.json"
      grep -q '"storage.retries":[1-9]' "${out}/metrics.json" ||
        { echo "fault-smoke: no retries recorded in metrics.json" >&2
          return 1; }
      # 2. A permanent fault must fail the job: non-zero exit, and stdout
      #    carries a machine-readable error report.
      if "${ROOT}/build-check-plain/examples/quickstart" \
        --fault-plan=permanent=0-999999999 --retry-attempts=2 \
        > "${out}/permanent.json" 2>/dev/null; then
        echo "fault-smoke: permanent fault did not fail the job" >&2
        return 1
      fi
      validate_json_file "${out}/permanent.json"
      grep -q '"ok":false' "${out}/permanent.json" ||
        { echo "fault-smoke: error report lacks \"ok\":false" >&2; return 1; }
      ;;
    coverage)
      # Line coverage for the merge-critical layers. gcovr when installed;
      # otherwise tools/coverage_summary.py aggregates plain `gcov
      # --json-format` output (header-only code is attributed to the header
      # across every TU that instantiated it).
      configure_and_build "${ROOT}/build-check-coverage" \
        -DCMAKE_BUILD_TYPE=Debug \
        -DCMAKE_CXX_FLAGS=--coverage -DCMAKE_EXE_LINKER_FLAGS=--coverage \
        -DSUPMR_BUILD_BENCH=OFF -DSUPMR_BUILD_EXAMPLES=OFF
      (cd "${ROOT}/build-check-coverage" &&
        ctest -L 'unit|stress' --output-on-failure -j "${JOBS}")
      if command -v gcovr >/dev/null 2>&1; then
        gcovr --root "${ROOT}" --object-directory "${ROOT}/build-check-coverage" \
          --filter 'src/merge/.*' \
          --fail-under-line "${COVERAGE_FLOOR_MERGE}"
        gcovr --root "${ROOT}" --object-directory "${ROOT}/build-check-coverage" \
          --filter 'src/containers/.*' \
          --fail-under-line "${COVERAGE_FLOOR_CONTAINERS}"
        gcovr --root "${ROOT}" --object-directory "${ROOT}/build-check-coverage" \
          --filter 'src/cluster/.*' \
          --fail-under-line "${COVERAGE_FLOOR_CLUSTER}"
      else
        python3 "${ROOT}/tools/coverage_summary.py" \
          "${ROOT}/build-check-coverage" --filter src/merge \
          --fail-under "${COVERAGE_FLOOR_MERGE}"
        python3 "${ROOT}/tools/coverage_summary.py" \
          "${ROOT}/build-check-coverage" --filter src/containers \
          --fail-under "${COVERAGE_FLOOR_CONTAINERS}"
        python3 "${ROOT}/tools/coverage_summary.py" \
          "${ROOT}/build-check-coverage" --filter src/cluster \
          --fail-under "${COVERAGE_FLOOR_CLUSTER}"
      fi
      ;;
    harness)
      configure_and_build "${ROOT}/build-check-plain"
      (cd "${ROOT}/build-check-plain" &&
        ctest -L harness --output-on-failure -j "${JOBS}")
      mutation_smoke "${ROOT}/build-check-plain/tools/supmr"
      ;;
    harness-asan)
      configure_and_build "${ROOT}/build-check-asan" \
        -DSUPMR_SANITIZE=address,undefined -DSUPMR_BUILD_BENCH=OFF \
        -DSUPMR_BUILD_EXAMPLES=OFF
      (cd "${ROOT}/build-check-asan" &&
        ASAN_OPTIONS="suppressions=${SUPP}/asan.supp detect_leaks=1" \
        LSAN_OPTIONS="suppressions=${SUPP}/lsan.supp" \
        UBSAN_OPTIONS="suppressions=${SUPP}/ubsan.supp print_stacktrace=1" \
        ctest -L harness --output-on-failure -j "${JOBS}")
      ;;
    jobmix-smoke)
      # Multi-tenant runtime under TSan: many jobs racing through one
      # JobManager (shared pool, leases, chunk buffers) must stay
      # byte-identical to the sequential reference with no data races.
      # Reuses the tsan build tree; `jobmix` selects the concurrent-jobs
      # suites plus the `supmr serve` CLI smoke (docs/runtime.md).
      configure_and_build "${ROOT}/build-check-tsan" \
        -DSUPMR_SANITIZE=thread -DSUPMR_BUILD_BENCH=OFF \
        -DSUPMR_BUILD_EXAMPLES=OFF
      (cd "${ROOT}/build-check-tsan" &&
        TSAN_OPTIONS="suppressions=${SUPP}/tsan.supp halt_on_error=1 second_deadlock_stack=1" \
        ctest -L jobmix --output-on-failure -j "${JOBS}")
      ;;
    graph-smoke)
      # Chained-app graphs under TSan: stage handoff (in-memory edges, file
      # spill) plus every graph lattice cell must be race-free and
      # byte-identical to ref::run_graph. Reuses the tsan build tree;
      # `graph` selects the JobGraph unit suite and the graph differential
      # lattice, then the checked-in spec runs through the instrumented CLI.
      configure_and_build "${ROOT}/build-check-tsan" \
        -DSUPMR_SANITIZE=thread -DSUPMR_BUILD_BENCH=OFF \
        -DSUPMR_BUILD_EXAMPLES=OFF
      (cd "${ROOT}/build-check-tsan" &&
        TSAN_OPTIONS="suppressions=${SUPP}/tsan.supp halt_on_error=1 second_deadlock_stack=1" \
        ctest -L graph --output-on-failure -j "${JOBS}")
      TSAN_OPTIONS="suppressions=${SUPP}/tsan.supp halt_on_error=1 second_deadlock_stack=1" \
        "${ROOT}/build-check-tsan/tools/supmr" graph \
        "--spec=${ROOT}/tests/harness/replay_graph_smoke.json" |
        grep -q 'conformance: PASS' ||
        { echo "graph-smoke: checked-in graph spec is not conformant" >&2
          return 1; }
      ;;
    combining-smoke)
      # In-mapper combining under TSan: single-writer stripe counters and
      # concurrent disjoint-partition reduces must be race-free, and the
      # checked-in combining spec must replay conformant through the
      # instrumented CLI. Reuses the tsan build tree; `combining` selects
      # the property suite and the replay smoke (docs/containers.md).
      configure_and_build "${ROOT}/build-check-tsan" \
        -DSUPMR_SANITIZE=thread -DSUPMR_BUILD_BENCH=OFF \
        -DSUPMR_BUILD_EXAMPLES=OFF
      (cd "${ROOT}/build-check-tsan" &&
        TSAN_OPTIONS="suppressions=${SUPP}/tsan.supp halt_on_error=1 second_deadlock_stack=1" \
        ctest -L combining --output-on-failure -j "${JOBS}")
      TSAN_OPTIONS="suppressions=${SUPP}/tsan.supp halt_on_error=1 second_deadlock_stack=1" \
        "${ROOT}/build-check-tsan/tools/supmr" replay \
        "${ROOT}/tests/harness/replay_combining_smoke.json" |
        grep -q 'conformance: PASS' ||
        { echo "combining-smoke: checked-in combining spec is not conformant" >&2
          return 1; }
      ;;
    cluster-smoke)
      # Sharded shuffle under TSan: N worker nodes run whole MapReduceJobs
      # concurrently on private leased pools, then shuffle senders and owner
      # merges race across the fabric RateLimiters — all of it must be
      # race-free and byte-identical to the sequential oracle. Reuses the
      # tsan build tree; `cluster` selects the protocol/property suite and
      # the node-count lattice, then the checked-in spec runs through the
      # instrumented `supmr cluster` CLI (docs/cluster.md).
      configure_and_build "${ROOT}/build-check-tsan" \
        -DSUPMR_SANITIZE=thread -DSUPMR_BUILD_BENCH=OFF \
        -DSUPMR_BUILD_EXAMPLES=OFF
      (cd "${ROOT}/build-check-tsan" &&
        TSAN_OPTIONS="suppressions=${SUPP}/tsan.supp halt_on_error=1 second_deadlock_stack=1" \
        ctest -L cluster --output-on-failure -j "${JOBS}")
      TSAN_OPTIONS="suppressions=${SUPP}/tsan.supp halt_on_error=1 second_deadlock_stack=1" \
        "${ROOT}/build-check-tsan/tools/supmr" cluster \
        "--spec=${ROOT}/tests/harness/replay_cluster_smoke.json" |
        grep -q 'conformance: PASS' ||
        { echo "cluster-smoke: checked-in cluster spec is not conformant" >&2
          return 1; }
      ;;
    perfbench-smoke)
      # perfbench/run.py builds into $CARGO_TARGET_DIR/perfbench and prints
      # its result as the last line of stdout.
      local target="${ROOT}/build-check-perfbench"
      local out trace
      for trace in 0 1; do
        out="$(cd "${ROOT}" && CARGO_TARGET_DIR="${target}" python3 \
          perfbench/run.py --workload terasort --seconds 1 \
          --trace "${trace}")" ||
          { echo "perfbench-smoke: terasort --trace ${trace} failed" >&2
            return 1; }
        tail -n1 <<<"${out}" | grep -q '"correct": true' ||
          { echo "perfbench-smoke: terasort --trace ${trace} not correct" >&2
            return 1; }
      done
      if (cd "${ROOT}" && SUPMR_TEST_MUTATION=pway-comparator \
        CARGO_TARGET_DIR="${target}" python3 perfbench/run.py \
        --workload terasort --seconds 1 --trace 0 >/dev/null); then
        echo "perfbench-smoke: pway-comparator mutation was NOT detected" >&2
        return 1
      fi
      cmake --build "${target}/perfbench" --target perfbench_fidelity_test \
        -j "${JOBS}"
      "${target}/perfbench/perfbench_fidelity_test"
      ;;
    *)
      echo "unknown stage '${stage}' (want plain, tsan, asan, obs-smoke, fault-smoke, coverage, harness, harness-asan, jobmix-smoke, graph-smoke, combining-smoke, cluster-smoke, or perfbench-smoke)" >&2
      return 2
      ;;
  esac
  echo "==> stage ${stage}: OK"
}

for stage in "${STAGES[@]}"; do
  run_stage "${stage}"
done
echo "==> all stages passed"
