#!/usr/bin/env bash
# Configure + build + test, exactly as CI runs it.
#
# Usage: scripts/ci.sh [--tsan|--tsan-only|--asan|--asan-only]
#   --tsan       additionally build with ThreadSanitizer and run the
#                concurrency-sensitive suites (the two parallel differential
#                suites plus the sampling/session tests that exercise the
#                background prefetcher, and the chaos suite with faults
#                armed) under it
#   --tsan-only  run only the ThreadSanitizer stage
#   --asan       additionally build with AddressSanitizer+UBSan and run the
#                same suites (use-after-free and UB hide best in the error
#                paths the fault injector forces open)
#   --asan-only  run only the ASan/UBSan stage
# SMARTDD_TSAN=1 / SMARTDD_ASAN=1 are equivalent to --tsan / --asan.
set -euo pipefail
cd "$(dirname "$0")/.."

MODE="${1:-}"
if [[ -z "$MODE" && "${SMARTDD_TSAN:-0}" == "1" ]]; then
  MODE="--tsan"
fi
if [[ -z "$MODE" && "${SMARTDD_ASAN:-0}" == "1" ]]; then
  MODE="--asan"
fi

# The concurrency- and robustness-sensitive suites both sanitizer stages
# run: the parallel differential suites, everything touching the background
# prefetcher and registry, the chaos suite (which arms fault schedules
# while 16 sessions hammer the service), and the marginal finder's cover
# store (read by pool workers, written by the calling thread) and its lazy
# singleton recounts (written by pool workers), which reach the pool only
# on views of at least kMinParallelRows rows (parallel_marginal_test's
# large cases), with the brute-force BRS and greedy oracles, plus the
# finder, BRS and drill-down unit suites, whose
# single-view and drill-down calls index the finder's one covered-weight
# array by global row id, and the table, rule and mw-estimator suites, which
# drive the row copy loop that shard slices and drill-down covers share. The
# HTTP, RPC, cluster and chaos suites drive both wire protocols through the
# shared connection loop (src/net/conn_loop.cc, built into libsmartdd under
# the same flags). The score suite drives EvaluateRuleList's block sweep
# and its fold, which counts integer masses per block from match_eq masks
# (count_codes for one rule of one predicate under Count) and leaves every
# fractional weight or measure to the sweep. The sampling and sampler-digest suites
# drive the Create/ExactMasses block passes over memory and disk granules.
# The random suite drives Rng::UniformInt, whose draws place every
# reservoir slot and stitch pick. The count-regime suite holds Count
# searches to Sum searches over an all-ones measure, and the sum-regime
# suite holds integer Sum searches, which count by measure bit-planes, to
# their half-scaled per-row twins, with one view of kMinParallelRows rows
# whose threaded searches count on the pool. The finder-stats suite pins
# every search stat, and its candidate generation joins each new candidate
# against its sub-rules' prefix buckets (index walks the Debug build's
# checks and the sanitizers should see), on exact and hashed packings. The
# row-set suite drives the finder's one cover type: list merges, bit tests
# and bitset ANDs that write through raw buffers, and the level bitsets.
SAN_TESTS="parallel_marginal_test|parallel_sampling_test|sample_handler_test|session_test|concurrent_sessions_test|task_scheduler_test|service_test|codec_test|metrics_test|http_server_test|chaos_test|disk_table_test|sharded_engine_test|packed_column_test|deadline_test|rpc_test|cluster_test|live_table_test|expansion_cache_test|cover_memo_test|brs_oracle_test|greedy_oracle_test|best_marginal_test|brs_test|drilldown_test|table_test|rule_test|mw_estimator_test|score_test|sampling_test|sampler_digest_test|random_test|count_regime_test|sum_regime_test|finder_stats_test|row_set_test"
SAN_TARGETS=(
  parallel_marginal_test parallel_sampling_test sample_handler_test
  session_test concurrent_sessions_test task_scheduler_test
  service_test codec_test metrics_test http_server_test chaos_test
  disk_table_test sharded_engine_test packed_column_test
  deadline_test rpc_test cluster_test live_table_test expansion_cache_test
  cover_memo_test brs_oracle_test greedy_oracle_test
  best_marginal_test brs_test drilldown_test
  table_test rule_test mw_estimator_test score_test
  sampling_test sampler_digest_test random_test count_regime_test
  sum_regime_test finder_stats_test row_set_test
)

# The SMARTDD_KERNEL values of the scan-kernel paths this host's CPU
# reports (scalar always; a path the build left out falls back to the best
# one it has, with a warning).
host_kernels() {
  local flags
  flags=$(grep -m1 '^flags' /proc/cpuinfo 2>/dev/null || true)
  echo scalar
  if [[ " $flags " == *" avx2 "* ]]; then
    echo avx2
    if [[ " $flags " == *" avx512f "* &&
          " $flags " == *" avx512_vpopcntdq "* ]]; then
      echo avx512
    fi
  fi
}

# $3 is the build type: the ASan stage builds Debug, so every SMARTDD_DCHECK
# (e.g. the marginal finder's base-covers-every-row precondition) is live
# in the suites it runs.
run_sanitizer_stage() {
  local name="$1" flags="$2" build_type="$3" kernel
  cmake -B "build-$name" -S . -DCMAKE_BUILD_TYPE="$build_type" \
    -DCMAKE_CXX_FLAGS="$flags"
  cmake --build "build-$name" -j "$(nproc)" --target "${SAN_TARGETS[@]}"
  # The full suite once per kernel path the host has (scalar, AVX2,
  # AVX-512): the differential suites must be byte-identical under each,
  # and the sanitizers must see every code path.
  for kernel in $(host_kernels); do
    (cd "build-$name" &&
      SMARTDD_KERNEL=$kernel ctest --output-on-failure -j "$(nproc)" \
        -R "$SAN_TESTS")
  done
}

if [[ "$MODE" != "--tsan-only" && "$MODE" != "--asan-only" ]]; then
  cmake -B build -S .
  cmake --build build -j "$(nproc)"
  (cd build && ctest --output-on-failure -j "$(nproc)")

  # The finder's differential suites again on the portable scalar kernels
  # and on AVX2 (the run above dispatches to the fastest path the host has,
  # AVX-512 where it reports AVX-512F and VPOPCNTDQ): its bitset AND,
  # popcount and plane-mass kernels have a scalar, an AVX2 and an AVX-512
  # form, and the Release build must be bit-identical under each. The score
  # suite's fold counts through count_codes and match_eq, which have a
  # scalar and an AVX2 form, and the finder-stats suite pins every stat on
  # each path. The row-set suite intersects and weighs with the selected
  # kernels. The paper-claims suite's §3.5 and Figure 5 counter claims
  # (pruning counts fewer candidates than the exhaustive search, and no
  # fewer as mw grows) must hold on every path. A host without AVX2 runs
  # the avx2 pass on scalar kernels (with a warning).
  for kernel in scalar avx2; do
    (cd build && SMARTDD_KERNEL=$kernel ctest --output-on-failure \
      -j "$(nproc)" \
      -R 'cover_memo_test|parallel_marginal_test|count_regime_test|sum_regime_test|brs_oracle_test|greedy_oracle_test|score_test|finder_stats_test|row_set_test|paper_claims_test')
  done

  # Service-protocol smoke: a scripted session's codec bytes in must
  # reproduce the golden snapshot bytes out (the paper's retail walkthrough
  # through the front-door ExplorationService; tokens are deterministic).
  ./build/example_interactive_cli --serve --live < scripts/service_smoke.txt \
    | diff - scripts/service_smoke.golden \
    || { echo "service smoke: output diverged from scripts/service_smoke.golden"; exit 1; }
  echo "service smoke: golden snapshot matched"

  # A script truncated at EOF mid-request must fail loudly, not stop
  # silently (regression guard for the --serve wire mode).
  if printf 'ping' | ./build/example_interactive_cli --serve >/dev/null 2>&1; then
    echo "service smoke: truncated script was not rejected"; exit 1
  fi
  echo "service smoke: truncated script rejected with nonzero exit"

  # HTTP smoke: real socket, curl transcript vs golden, SSE ordering,
  # nonzero /metrics, graceful SIGTERM, deadline-degraded partial results
  # (see scripts/http_smoke.sh).
  scripts/http_smoke.sh build

  # Cluster smoke: router + 2 shard-server processes must match the SAME
  # golden transcript byte-for-byte, and a kill -9 mid-expansion must
  # answer a clean UNAVAILABLE while the router keeps serving
  # (see scripts/cluster_smoke.sh).
  scripts/cluster_smoke.sh build

  # Live-table smoke: HTTP appends publish new versions while an already
  # open session keeps exploring its pinned version; both trees must match
  # goldens and /v1/tableinfo must report the version walk
  # (see scripts/live_smoke.sh).
  scripts/live_smoke.sh build

  # End-to-end driver smoke: the benchmark driver builds from this tree
  # (into .bench_build/) and answers every request of a short run of each
  # workload correctly, so a library change that breaks the driver fails
  # here rather than at benchmark time.
  for workload in explore dashboard sampled; do
    result=$(python3 e2e_bench/run.py --workload "$workload" --seed 1 \
      --seconds 5 | tail -n 1)
    python3 -c 'import json, sys
r = json.loads(sys.argv[1])
sys.exit(0 if r["correct"] is True and r["failed"] == 0 else 1)' "$result" \
      || { echo "e2e smoke ($workload): $result"; exit 1; }
    echo "e2e smoke ($workload): correct, 0 failed requests"
  done

  # Expansion-cache smoke: warm hits must replay byte-identical trees at
  # >= 10x the cold p50 (the bench exits nonzero when either gate fails).
  (cd build && SMARTDD_CENSUS_ROWS=50000 SMARTDD_BENCH_REPS=3 \
    ./bench_expansion_cache)
  echo "expansion cache smoke: warm hits byte-identical and >= 10x faster"

  # Sharded-engine smoke: 1/2/4-shard scatter-gather must return identical
  # trees (the bench exits nonzero on drift).
  (cd build && SMARTDD_CENSUS_ROWS=50000 SMARTDD_BENCH_REPS=1 \
    ./bench_sharded_engine)
  echo "sharded engine smoke: identical trees across shard counts"

  # Packed-storage / SIMD smoke: the marginal bench checks that results are
  # identical across thread counts, shard counts, AND kernel paths, that
  # bit-packing actually shrinks the resident columns (>= 2x gate), and
  # that packed+SIMD pass 1 is >= 2x unpacked+scalar (skipped on the
  # scalar path); it exits nonzero when any of these fails. The pass-1
  # gate times its two sides in alternating reps and takes best-of over
  # at least 7 pairs, so SMARTDD_BENCH_REPS=1 below does not make it a
  # single sample.
  # K=3 so later greedy steps count from the finder's cover store under
  # the same gate. 200k rows is above kMinParallelRows (2^17), so the
  # thread counts above 1 reach the thread pool.
  (cd build && SMARTDD_CENSUS_ROWS=200000 SMARTDD_BENCH_K=3 \
    SMARTDD_BENCH_REPS=1 ./bench_parallel_marginal)
  echo "packed column smoke: identical trees across kernel paths"

  # Parallel-sampling smoke: the chunked parallel scan must build the same
  # samples at every thread count (the bench exits nonzero on drift), once
  # over the in-memory table and once over a disk table read granule by
  # granule.
  (cd build && SMARTDD_CENSUS_ROWS=50000 SMARTDD_BENCH_REPS=1 \
    ./bench_parallel_sampling --json=BENCH_parallel_sampling.json)
  echo "parallel sampling smoke: identical samples across thread counts"
  (cd build && SMARTDD_CENSUS_ROWS=50000 SMARTDD_BENCH_REPS=1 \
    SMARTDD_SAMPLING_DISK=1 \
    ./bench_parallel_sampling --json=BENCH_parallel_sampling_disk.json)
  echo "parallel sampling smoke (disk): identical samples across thread counts"

  # Socket-layer smokes under load: HTTP clients over loopback against
  # net::HttpServer, and the router -> shard-server SDRP hop against
  # rpc::Server — both protocols on the shared net::ConnLoop.
  (cd build && SMARTDD_HTTP_ROWS=40000 SMARTDD_HTTP_SESSIONS=2 \
    ./bench_http_throughput --json=BENCH_http_throughput.json)
  echo "http throughput smoke: every request answered over loopback"
  (cd build && SMARTDD_CLUSTER_ROWS=40000 SMARTDD_CLUSTER_SESSIONS=2 \
    ./bench_cluster --json=BENCH_cluster.json)
  echo "cluster bench smoke: cluster responses byte-identical to in-process"
fi

if [[ "$MODE" == "--tsan" || "$MODE" == "--tsan-only" ]]; then
  run_sanitizer_stage tsan "-fsanitize=thread -g -O1" RelWithDebInfo
fi

if [[ "$MODE" == "--asan" || "$MODE" == "--asan-only" ]]; then
  run_sanitizer_stage asan "-fsanitize=address,undefined -fno-sanitize-recover=all -g -O1" Debug
fi
