#!/usr/bin/env bash
# Single verification entry point (CI and local).
#
# Legs, in default order:
#   analyze — ci/analyze.sh: determinism lint, clang-tidy gate (skipped
#             loudly when the binary is absent), -Wshadow -Wconversion
#             trial build of the nbmg lib.
#   Debug   — warnings-as-errors build of everything; fast tier-1 CTest
#             subset (ctest -L tier1, which now includes the analysis
#             and stress labels); every bench and example shell at a
#             tiny size; scenario-file + coordinator smokes
#             (the DA-SC tail/page-loss file's CSV and a DR-SC-only fig7
#             run's CSV are byte-diffed Debug vs Release);
#             failure-injection smoke (churn scenario,
#             outage preset, lossy backhaul — all three CSVs are
#             byte-diffed Debug vs Release); kill-and-resume checkpoint
#             smoke (stop a citywide run and a single-cell churn run
#             mid-flight, resume at a different --threads, byte-diff every
#             artifact against the uninterrupted run; likewise from the
#             stop journal with its last record torn, and from the journal
#             of a run killed with SIGKILL).
#   Release — same build with NBMG_ENABLE_LTO (so the option cannot
#             rot); the full suite including the randomized property
#             batteries; microbenchmark + multicell smokes; the
#             end-to-end benchmark's own smoke tests at the tiny size
#             (perfbench/test_perfbench.py: traced rebuild equals
#             run_scenario, threads-1 vs nproc digests agree).
#   asan    — NBMG_SANITIZE=address+undefined (ASan+UBSan+LSan), tests
#             only, tier-1 label incl. the high-contention sweep stress
#             suite; suppressions from ci/sanitizers/ (policy: empty).
#   tsan    — NBMG_SANITIZE=thread, same test set; the stress suite runs
#             the citywide presets at --threads 8 specifically to put
#             the worker pool under TSan.
#
#   $ ci/verify.sh                 # all legs
#   $ ci/verify.sh Release         # just one
#   $ ci/verify.sh asan tsan       # just the sanitizer legs
set -euo pipefail

cd "$(dirname "$0")/.."

jobs="$(nproc 2>/dev/null || echo 2)"
legs=("${@:-Debug}")
if [[ $# -eq 0 ]]; then
  legs=(analyze Debug Release asan tsan)
fi

run_scenario_smokes() {
  local build_dir="$1"
  echo "=== ${build_dir}: scenario-file smoke (--scenario / --preset) ==="
  "${build_dir}/bench/fig6a_light_sleep_uptime" \
    --scenario examples/scenarios/smoke.scenario --threads 2
  "${build_dir}/examples/run_scenario" \
    --scenario examples/scenarios/smoke.scenario --threads 2
  "${build_dir}/examples/run_scenario" \
    --scenario examples/scenarios/citywide_16cells.scenario \
    --devices 800 --cells 8 --csv
  "${build_dir}/examples/citywide_rollout" \
    --scenario examples/scenarios/citywide_16cells.scenario 800 8 42
  "${build_dir}/bench/ablation_scptm" --preset ablation-scptm \
    --devices 50 --runs 2 --threads 2
  echo "=== ${build_dir}: every bench and example shell at a tiny size ==="
  "${build_dir}/bench/fig6b_connected_uptime" --devices 50 --runs 2 --threads 2
  "${build_dir}/bench/fig7_transmissions" --runs 2 --threads 2
  "${build_dir}/bench/ablation_battery_life" --devices 50 --threads 2
  "${build_dir}/bench/ablation_contention" --devices 50 --runs 1 --threads 2
  "${build_dir}/bench/ablation_drx_mix" --devices 50 --runs 2 --threads 2
  "${build_dir}/bench/ablation_setcover" --runs 2 --threads 2
  "${build_dir}/bench/ablation_ti_sweep" --devices 50 --runs 2 --threads 2
  "${build_dir}/examples/quickstart" 50 1
  "${build_dir}/examples/firmware_campaign" 100 100 7
  "${build_dir}/examples/mechanism_tradeoffs" 50 1
  "${build_dir}/examples/paging_explorer"
  for scenario in examples/scenarios/*.scenario; do
    "${build_dir}/examples/run_scenario" --scenario "${scenario}" \
      --runs 1 --devices 200
  done
  # DA-SC with the inactivity tail and page loss, at the file's own size:
  # its CSV joins the Debug-vs-Release byte-diff below.
  "${build_dir}/examples/run_scenario" \
    --scenario examples/scenarios/dasc_tail.scenario --threads 2 --csv \
    > "${build_dir}/dasc_tail_smoke.csv"
  # DR-SC alone on 1,000-device cells: its window cover (PO enumeration,
  # counting-sort ordering, greedy) joins the byte-diff too.
  "${build_dir}/examples/run_scenario" --preset fig7 --runs 3 --threads 2 --csv \
    > "${build_dir}/fig7_drsc_smoke.csv"

  echo "=== ${build_dir}: wall-clock coordinator smoke (staggered + backhaul) ==="
  "${build_dir}/examples/run_scenario" --preset citywide-staggered \
    --devices 400 --runs 1 --threads 2
  "${build_dir}/examples/run_scenario" --preset citywide-backhaul \
    --devices 400 --runs 1 --threads 2 --csv
  "${build_dir}/examples/citywide_rollout" \
    --scenario examples/scenarios/citywide_staggered.scenario \
    --devices 800 --cells 8
  "${build_dir}/examples/run_scenario" \
    --scenario examples/scenarios/citywide_backhaul.scenario \
    --devices 400 --runs 1

  echo "=== ${build_dir}: telemetry smoke (trace + metrics + timeline) ==="
  "${build_dir}/examples/run_scenario" --preset smoke --threads 2 \
    --telemetry full \
    --trace-out "${build_dir}/telemetry_smoke.trace.jsonl" \
    --metrics-out "${build_dir}/telemetry_smoke.metrics.csv" \
    --timeline-out "${build_dir}/telemetry_smoke.timeline.json"

  echo "=== ${build_dir}: failure-injection smoke (churn + outage + lossy backhaul) ==="
  # The three CSVs are captured for the Debug-vs-Release byte-diff below:
  # fault draws come only from the derived "faults" streams, so the
  # faulted aggregates are pure functions of (spec, seed) too.  The outage
  # and lossy-backhaul runs also drive the outage-recovery pass and the
  # summary table's every column.
  "${build_dir}/examples/run_scenario" \
    --scenario examples/scenarios/churn.scenario \
    --devices 100 --runs 2 --threads 2 --csv \
    > "${build_dir}/churn_smoke.csv"
  "${build_dir}/examples/run_scenario" --preset outage \
    --devices 400 --runs 1 --threads 2 --csv > "${build_dir}/outage_smoke.csv"
  "${build_dir}/examples/run_scenario" --preset citywide-backhaul \
    --devices 400 --runs 1 --threads 2 --backhaul-loss 0.2 --csv \
    > "${build_dir}/lossy_backhaul_smoke.csv"

  run_checkpoint_smoke "${build_dir}"
}

run_checkpoint_smoke() {
  local build_dir="$1"
  # Two legs: a multicell citywide run and a single-cell churn run (the
  # 1-cell deployment's slot blobs).
  run_checkpoint_leg "${build_dir}" citywide \
    --scenario examples/scenarios/citywide_16cells.scenario \
    --devices 400 --cells 4 --runs 2
  run_checkpoint_leg "${build_dir}" churn --preset churn
}

run_checkpoint_leg() {
  local build_dir="$1" name="$2"
  shift 2
  echo "=== ${build_dir}: kill-and-resume smoke, ${name} (checkpoint -> stop -> resume) ==="
  # The run is checkpointed, killed mid-flight via the stop budget (exit 3
  # is the deliberate-stop code), then resumed at a different --threads.
  # Every artifact — stdout CSV, trace, metrics, timeline — must match the
  # uninterrupted run byte for byte.
  local ckpt_dir="${build_dir}/checkpoint_smoke/${name}"
  rm -rf "${ckpt_dir}"
  mkdir -p "${ckpt_dir}"
  local common=("$@" --telemetry full --csv)

  "${build_dir}/examples/run_scenario" "${common[@]}" --threads 8 \
    --trace-out "${ckpt_dir}/full.trace.jsonl" \
    --metrics-out "${ckpt_dir}/full.metrics.csv" \
    --timeline-out "${ckpt_dir}/full.timeline.json" \
    > "${ckpt_dir}/full.csv"

  set +e
  "${build_dir}/examples/run_scenario" "${common[@]}" --threads 8 \
    --checkpoint-out "${ckpt_dir}/snap.bin" --checkpoint-stop-after 3 \
    > "${ckpt_dir}/interrupted.csv"
  local status=$?
  set -e
  if [[ ${status} -ne 3 ]]; then
    echo "error: interrupted ${name} run exited ${status}, expected checkpoint-stop code 3" >&2
    exit 1
  fi
  [[ -f "${ckpt_dir}/snap.bin" ]]
  resume_and_compare "${build_dir}" "${ckpt_dir}" resumed "${ckpt_dir}/snap.bin" 2 \
    "${common[@]}"

  # A torn tail: cutting 5 bytes tears the stop journal's last record,
  # which the resume drops and recomputes.
  cp "${ckpt_dir}/snap.bin" "${ckpt_dir}/torn.bin"
  truncate -s -5 "${ckpt_dir}/torn.bin"
  resume_and_compare "${build_dir}" "${ckpt_dir}" torn "${ckpt_dir}/torn.bin" 2 \
    "${common[@]}"

  # A killed process: a one-thread run that flushes its journal after every
  # task gets SIGKILL once the journal has grown past its 56-byte magic,
  # version and header, then resumes at --threads 8.  A run that finishes
  # before the kill lands resumes from its final journal instead.
  local journal="${ckpt_dir}/killed.bin"
  "${build_dir}/examples/run_scenario" "${common[@]}" --threads 1 \
    --checkpoint-out "${journal}" > /dev/null &
  local pid=$!
  while kill -0 "${pid}" 2>/dev/null; do
    if [[ -f "${journal}" ]] && (( $(stat -c %s "${journal}") > 56 )); then
      kill -9 "${pid}" 2>/dev/null || true
      break
    fi
    sleep 0.005
  done
  set +e
  wait "${pid}"
  status=$?
  set -e
  case ${status} in
    137) echo "${name}: SIGKILL landed mid-run; resuming from the journal it left" ;;
    0) echo "${name}: the run finished before the kill; resuming from its final journal" ;;
    *)
      echo "error: killed ${name} run exited ${status}, expected 137 (SIGKILL) or 0" >&2
      exit 1
      ;;
  esac
  resume_and_compare "${build_dir}" "${ckpt_dir}" killed "${journal}" 8 \
    "${common[@]}"
}

# Resumes a checkpoint leg's run from journal $4 at --threads $5 (the run's
# own arguments follow) and byte-compares every artifact with the
# uninterrupted run's.
resume_and_compare() {
  local build_dir="$1" ckpt_dir="$2" name="$3" journal="$4" threads="$5"
  shift 5
  "${build_dir}/examples/run_scenario" "$@" --threads "${threads}" \
    --resume "${journal}" \
    --trace-out "${ckpt_dir}/${name}.trace.jsonl" \
    --metrics-out "${ckpt_dir}/${name}.metrics.csv" \
    --timeline-out "${ckpt_dir}/${name}.timeline.json" \
    > "${ckpt_dir}/${name}.csv"
  local artifact
  for artifact in csv trace.jsonl metrics.csv timeline.json; do
    cmp "${ckpt_dir}/full.${artifact}" "${ckpt_dir}/${name}.${artifact}"
  done
}

run_sanitizer_leg() {
  local mode="$1" build_dir="$2"
  echo "=== sanitize(${mode}) -> ${build_dir} ==="
  # Suppression files are checked in (policy: they stay empty; see the
  # headers in ci/sanitizers/).  halt_on_error turns any report into a
  # failing leg.
  export ASAN_OPTIONS="suppressions=$(pwd)/ci/sanitizers/asan.supp:detect_leaks=1:halt_on_error=1"
  export LSAN_OPTIONS="suppressions=$(pwd)/ci/sanitizers/lsan.supp"
  export UBSAN_OPTIONS="suppressions=$(pwd)/ci/sanitizers/ubsan.supp:print_stacktrace=1:halt_on_error=1"
  export TSAN_OPTIONS="suppressions=$(pwd)/ci/sanitizers/tsan.supp:halt_on_error=1"
  # Tests only: the sanitizer legs exist to run the tier-1 + stress
  # suites under instrumentation, not to rebuild benches/examples.
  cmake -B "${build_dir}" -S . -DCMAKE_BUILD_TYPE=Debug -DNBMG_WERROR=ON \
        -DNBMG_SANITIZE="${mode}" -DNBMG_BUILD_BENCH=OFF \
        -DNBMG_BUILD_EXAMPLES=OFF
  cmake --build "${build_dir}" -j"${jobs}"
  # tier1 includes the analysis (determinism lint) and stress
  # (high-contention citywide sweep at --threads 8) labels.
  ctest --test-dir "${build_dir}" --output-on-failure -j"${jobs}" -L tier1
}

for leg in "${legs[@]}"; do
  case "${leg}" in
    analyze)
      ci/analyze.sh
      continue
      ;;
    asan)
      run_sanitizer_leg "address+undefined" build-asan
      continue
      ;;
    tsan)
      run_sanitizer_leg "thread" build-tsan
      continue
      ;;
    Debug|Release)
      ;;
    *)
      echo "error: unknown leg '${leg}' (expected analyze, Debug, Release, asan, tsan)" >&2
      exit 2
      ;;
  esac

  config="${leg}"
  build_dir="build-$(echo "${config}" | tr '[:upper:]' '[:lower:]')"
  lto=OFF
  if [[ "${config}" == "Release" ]]; then
    lto=ON
  fi
  echo "=== ${config} -> ${build_dir} (LTO=${lto}) ==="
  cmake -B "${build_dir}" -S . -DCMAKE_BUILD_TYPE="${config}" -DNBMG_WERROR=ON \
        -DNBMG_ENABLE_LTO="${lto}"
  cmake --build "${build_dir}" -j"${jobs}"
  if [[ "${config}" == "Release" ]]; then
    # Full suite: tier 1 plus the property batteries.
    ctest --test-dir "${build_dir}" --output-on-failure -j"${jobs}"
  else
    ctest --test-dir "${build_dir}" --output-on-failure -j"${jobs}" -L tier1
  fi

  run_scenario_smokes "${build_dir}"

  # The telemetry artifacts, the faulted CSVs, the DA-SC tail CSV and the
  # DR-SC-only fig7 CSV are pure functions of (spec, seed): the Debug and
  # Release runs of the smokes above must agree byte for byte.
  if [[ "${config}" == "Release" && -f build-debug/telemetry_smoke.trace.jsonl ]]; then
    echo "=== cross-config determinism: Debug vs Release telemetry artifacts + fault, DA-SC tail and DR-SC CSVs ==="
    cmp build-debug/telemetry_smoke.trace.jsonl "${build_dir}/telemetry_smoke.trace.jsonl"
    cmp build-debug/telemetry_smoke.metrics.csv "${build_dir}/telemetry_smoke.metrics.csv"
    cmp build-debug/telemetry_smoke.timeline.json "${build_dir}/telemetry_smoke.timeline.json"
    cmp build-debug/churn_smoke.csv "${build_dir}/churn_smoke.csv"
    cmp build-debug/outage_smoke.csv "${build_dir}/outage_smoke.csv"
    cmp build-debug/dasc_tail_smoke.csv "${build_dir}/dasc_tail_smoke.csv"
    cmp build-debug/lossy_backhaul_smoke.csv "${build_dir}/lossy_backhaul_smoke.csv"
    cmp build-debug/fig7_drsc_smoke.csv "${build_dir}/fig7_drsc_smoke.csv"
  fi

  if [[ "${config}" == "Release" ]]; then
    if [[ -x "${build_dir}/bench/microbench_kernels" ]]; then
      echo "=== ${config}: microbenchmark smoke (small kernel cases) ==="
      "${build_dir}/bench/microbench_kernels" \
        --benchmark_filter='PagingFirstPoAtOrAfter/3$|EventQueueScheduleRun/1000$|EventQueueCancelHeavy/10000$|WindowCoverGreedy/100$|GreedyCover/1000/|DrScPlan/200$|FullCampaign/100$' \
        --benchmark_min_time=0.01
    fi

    echo "=== ${config}: multicell smoke (sharded fleet, 8 cells) ==="
    "${build_dir}/bench/fig_multicell_scaling" \
      --devices 2000 --cells 8 --runs 1 --threads 2

    echo "=== ${config}: end-to-end benchmark smoke tests (tiny size) ==="
    python3 perfbench/test_perfbench.py
  fi
done

echo "verify: all legs green"
