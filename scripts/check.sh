#!/usr/bin/env bash
# Pre-PR gate: configure, build everything (libs, tests, benches, examples)
# with warnings-as-errors, run the full test suite, then run the smoke
# benches (capturing the parallel-replay curves as BENCH_fig10.json /
# BENCH_fig13.json), then build the repository benchmark (perfbench/) in
# <build>-perfbench, run its unit tests and a 2-second record_dense smoke
# that must report "correct": true. Run from anywhere; exits nonzero on the
# first failure.
#
#   ./scripts/check.sh                 # full gate
#   BUILD_DIR=out ./scripts/check.sh   # custom build dir
#   FLOR_SANITIZE=thread ./scripts/check.sh
#                                      # also run the concurrency, fork,
#                                      # tiered, service and server suites
#                                      # under ThreadSanitizer
#   FLOR_SANITIZE=address,undefined ./scripts/check.sh
#                                      # also run the fuzzed decoders (wire,
#                                      # result file, manifest, checkpoint
#                                      # frame) and the fork and server
#                                      # suites under ASan + UBSan
#   FLOR_BUILD_TYPE=Debug ./scripts/check.sh
#                                      # override CMAKE_BUILD_TYPE (CI runs
#                                      # the Debug + Release matrix this way)
#   FLOR_CCACHE=1 ./scripts/check.sh   # compile through ccache (no-op when
#                                      # ccache is not installed)
#   BENCH_BASELINE=<dir> ./scripts/check.sh
#                                      # also capture each BENCH_*.json
#                                      # twice more and diff the three
#                                      # against the copies in <dir>; fails
#                                      # on a >10% wall-second regression of
#                                      # the median (scripts/bench_diff.py)
#                                      # — CI runs this warn-only against
#                                      # bench/baselines/
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${BUILD_DIR:-build}"
JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"

SANITIZE="${FLOR_SANITIZE:-}"
case "${SANITIZE}" in
  ""|thread|address,undefined) ;;
  *) echo "error: FLOR_SANITIZE must be 'thread' or 'address,undefined'," \
          "got '${SANITIZE}'" >&2
     exit 2 ;;
esac

# Main configure args; the sanitizer tree gets its own array (no -Werror
# there, matching the pre-existing behavior) so neither depends on the
# other's element order — and both stay non-empty, which keeps `set -u`
# happy on bash < 4.4 (macOS ships 3.2).
CMAKE_ARGS=(-DFLOR_WERROR=ON)
SAN_ARGS=(-DFLOR_SANITIZE="${SANITIZE}")
# The benchmark always builds Release, as perfbench/run.py does.
PERF_ARGS=(-DCMAKE_BUILD_TYPE=Release)
if [[ -n "${FLOR_BUILD_TYPE:-}" ]]; then
  CMAKE_ARGS+=(-DCMAKE_BUILD_TYPE="${FLOR_BUILD_TYPE}")
  SAN_ARGS+=(-DCMAKE_BUILD_TYPE="${FLOR_BUILD_TYPE}")
fi
if [[ "${FLOR_CCACHE:-0}" != "0" ]] && command -v ccache >/dev/null 2>&1; then
  CMAKE_ARGS+=(-DCMAKE_CXX_COMPILER_LAUNCHER=ccache)
  SAN_ARGS+=(-DCMAKE_CXX_COMPILER_LAUNCHER=ccache)
  PERF_ARGS+=(-DCMAKE_CXX_COMPILER_LAUNCHER=ccache)
fi

echo "== test-seed audit =="
# New suites must derive their randomness from tests/test_util.h
# (TestSeed()/SeededRng()) so FLOR_TEST_SEED=<n> reproduces any failure;
# a literal seed ignores the override. SeededRng(<n>) literals are fine —
# those are salts layered on the base seed, not seeds.
if grep -nE 'mt19937[^;]*[({][0-9]|(^|[^A-Za-z_])Rng *[({] *[0-9]|Rng +[A-Za-z_0-9]+ *\( *[0-9]' \
        tests/*.cc tests/*.h; then
  echo "error: literal RNG seed in tests/ — use testutil::TestSeed()/SeededRng() (tests/test_util.h)" >&2
  exit 1
fi

echo "== service-layer construction lint =="
# The Connection/Session front-end owns store and spooler construction:
# CheckpointStore::Open is the one sanctioned way to build a store, and the
# only SpoolQueue constructions live in the service layer (the connection's
# shared spooler) and the spool subsystem itself — a record session spools
# through a caller-owned queue. Direct construction anywhere else bypasses
# the connection's tier configuration (bucket + bloom) and its
# shared-spooler accounting.
LINT_ALLOW='src/checkpoint/store\.(h|cc)|src/checkpoint/spool\.(h|cc)|src/service/connection\.cc'
if grep -rnE 'make_unique<CheckpointStore>|new CheckpointStore|CheckpointStore [a-z_]+\(|make_unique<SpoolQueue>|new SpoolQueue|SpoolQueue [a-z_]+\(' \
        src/ | grep -vE "^(${LINT_ALLOW}):"; then
  echo "error: direct CheckpointStore/SpoolQueue construction outside the" >&2
  echo "service layer — open stores via CheckpointStore::Open (tier-aware)" >&2
  echo "or go through flor::Connection (src/service/service.h)" >&2
  exit 1
fi
# One manifest reader: every manifest read goes through ReadManifest
# (src/checkpoint/store.cc), so Manifest::Deserialize is called nowhere
# else in src/.
if grep -rn 'Manifest::Deserialize(' src/ | grep -v '^src/checkpoint/store\.cc:'; then
  echo "error: Manifest::Deserialize outside src/checkpoint/store.cc —" >&2
  echo "read manifests through ReadManifest (src/checkpoint/store.h)" >&2
  exit 1
fi
# Read-tier counters travel as one TierStats: the replay layer and the
# service (session, server, wire) move the whole struct and never name its
# fields.
if grep -rnE 'bucket_faults|bloom_skipped_probes' src/flor/ src/service/; then
  echo "error: a TierStats field named under src/flor/ or src/service/ —" >&2
  echo "pass the TierStats (src/checkpoint/store.h)" >&2
  exit 1
fi
# One sectioned-message codec: frame streams are split into sections, and
# doubles written as hexfloat, only by src/serialize/ (sections.h: the
# worker result files and the wire both go through it).
if grep -rnE 'StrFormat\("%a"|ReadFrames\(' src/ | grep -v '^src/serialize/'; then
  echo "error: StrFormat(\"%a\" or ReadFrames( outside src/serialize/ —" >&2
  echo "encode through EncodeSections/MetaWriter (src/serialize/sections.h)" >&2
  exit 1
fi

echo "== configure (${BUILD_DIR}) =="
cmake -B "${BUILD_DIR}" -S . "${CMAKE_ARGS[@]}"

echo "== build =="
cmake --build "${BUILD_DIR}" -j "${JOBS}"

echo "== unit + property tests =="
ctest --test-dir "${BUILD_DIR}" --output-on-failure --no-tests=error \
      -j "${JOBS}" -LE bench_smoke

echo "== bench smoke (BENCH_SMOKE=1) =="
ctest --test-dir "${BUILD_DIR}" --output-on-failure --no-tests=error \
      -j "${JOBS}" -L bench_smoke

echo "== bench JSON capture (BENCH_fig10/fig11/fig13/fig14/table4/service.json) =="
scripts/bench_capture.sh "${BUILD_DIR}" .
echo "wrote BENCH_fig10.json BENCH_fig11.json BENCH_fig13.json BENCH_fig14.json BENCH_table4.json BENCH_service.json"

if [[ -n "${BENCH_BASELINE:-}" ]]; then
  echo "== bench regression diff vs ${BENCH_BASELINE} (median of 3 captures) =="
  # Smoke rows of ~0.1 s spread by tens of percent between identical runs,
  # so each capture is repeated and bench_diff.py gates on the median.
  scripts/bench_capture.sh "${BUILD_DIR}" "${BUILD_DIR}/bench_reps/2"
  scripts/bench_capture.sh "${BUILD_DIR}" "${BUILD_DIR}/bench_reps/3"
  for f in BENCH_fig10.json BENCH_fig11.json BENCH_fig13.json BENCH_fig14.json BENCH_table4.json BENCH_service.json; do
    if [[ -f "${BENCH_BASELINE}/${f}" ]]; then
      python3 scripts/bench_diff.py "${BENCH_BASELINE}/${f}" "${f}" \
          "${BUILD_DIR}/bench_reps/2/${f}" "${BUILD_DIR}/bench_reps/3/${f}"
    else
      echo "bench_diff: no baseline for ${f}, skipped"
    fi
  done
fi

echo "== repository benchmark: build, tests, smoke (${BUILD_DIR}-perfbench) =="
# perfbench/ compiles the flor sources from src/ into its own archive, so a
# src/ change can break the benchmark's build or its correctness checks
# without failing anything above.
PERF_DIR="${BUILD_DIR}-perfbench"
cmake -B "${PERF_DIR}" -S perfbench "${PERF_ARGS[@]}"
cmake --build "${PERF_DIR}" -j "${JOBS}"
ctest --test-dir "${PERF_DIR}" --output-on-failure --no-tests=error
# Its last stdout line is the JSON result. Temporary files stay in the run
# directory, as with perfbench/run.py.
mkdir -p "${PERF_DIR}/run"
SMOKE_TMP="$(cd "${PERF_DIR}/run" && pwd)"
SMOKE_RESULT="$(TMPDIR="${SMOKE_TMP}" "${PERF_DIR}/florbench" \
    --workload record_dense --seconds 2 --seed 1 \
    --work-dir "${PERF_DIR}/run" | tail -n 1)"
if ! python3 -c 'import json, sys
sys.exit(json.loads(sys.argv[1])["correct"] is not True)' "${SMOKE_RESULT}"
then
  echo "error: florbench record_dense smoke is not correct: ${SMOKE_RESULT}" >&2
  exit 1
fi
echo "florbench record_dense smoke: correct"

if [[ "${SANITIZE}" == "thread" ]]; then
  echo "== ThreadSanitizer: concurrency + fork suites (${BUILD_DIR}-tsan) =="
  cmake -B "${BUILD_DIR}-tsan" -S . "${SAN_ARGS[@]}"
  cmake --build "${BUILD_DIR}-tsan" -j "${JOBS}" \
        --target replay_executor_test spool_test bloom_test \
                 process_executor_test crash_consistency_test \
                 tiered_store_test service_test server_test
  # `tsan` labels the suites exercising real threads (thread runner,
  # spool/shard batching); `proc` labels the fork-heavy suites (fork
  # runner, SIGKILL crash harness); `tiered` labels the tiered-store suite
  # racing bucket fault-in against local GC demotion; `service` labels the
  # Connection/Session suite racing concurrent tenant sessions against the
  # connection's background GC worker; `server` labels the wire-server
  # suite racing socket clients, fuzzed frames, and drain against the
  # accept/handler threads. All run instrumented: every fork happens from
  # a single-threaded coordinator and the children stay single-threaded,
  # which ThreadSanitizer supports.
  ctest --test-dir "${BUILD_DIR}-tsan" --output-on-failure \
        --no-tests=error -j "${JOBS}" -L 'tsan|proc|tiered|service|server'
fi

if [[ "${SANITIZE}" == "address,undefined" ]]; then
  echo "== ASan + UBSan: fuzzed decoders + fork/server suites (${BUILD_DIR}-asan) =="
  cmake -B "${BUILD_DIR}-asan" -S . "${SAN_ARGS[@]}"
  cmake --build "${BUILD_DIR}-asan" -j "${JOBS}" \
        --target server_test env_test checkpoint_test serialize_test \
                 process_executor_test crash_consistency_test
  # The truncation/mutation fuzz suites of every decoder that reads
  # untrusted bytes — wire messages, worker result files, manifests,
  # checkpoint and CRC frames, codec blobs — plus the fork-runner (`proc`)
  # and wire-server (`server`) suites that feed those decoders real torn
  # input.
  ctest --test-dir "${BUILD_DIR}-asan" --output-on-failure \
        --no-tests=error -j "${JOBS}" \
        -R '^(WireTest|ResultFile|Sections|Manifest|Checkpoint|Frame|Coding|Compress)\.'
  ctest --test-dir "${BUILD_DIR}-asan" --output-on-failure \
        --no-tests=error -j "${JOBS}" -L 'proc|server'
fi

echo "== OK =="
