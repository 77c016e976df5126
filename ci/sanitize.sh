#!/usr/bin/env bash
# Builds the tier-1 test suite under a sanitizer configuration and runs it.
#
# Usage:
#   ci/sanitize.sh              # address + undefined (default)
#   ci/sanitize.sh address      # ASan only
#   ci/sanitize.sh undefined    # UBSan only
#   ci/sanitize.sh thread       # TSan: concurrency tests under KGC_THREADS=4
#
# Uses a dedicated build directory per configuration (build-sanitize,
# build-sanitize-thread) so it never pollutes the regular `build/` tree.
# Exits non-zero on any build or test failure.
set -euo pipefail

cd "$(dirname "$0")/.."

SANITIZERS="${1:-address;undefined}"
BUILD_DIR="build-sanitize"
if [[ "${SANITIZERS}" == *thread* ]]; then
  # TSan cannot share a build tree (or a process) with ASan.
  BUILD_DIR="build-sanitize-thread"
fi

echo "== configuring with KGC_SANITIZE=${SANITIZERS} =="
cmake -B "${BUILD_DIR}" -S . -DKGC_SANITIZE="${SANITIZERS}" \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo

echo "== building =="
cmake --build "${BUILD_DIR}" -j "$(nproc)"

if [[ "${SANITIZERS}" == *thread* ]]; then
  echo "== running concurrency tests under TSan =="
  # Force multiple worker threads even on single-core CI machines so the
  # parallel code paths (and not their serial fallbacks) are exercised;
  # run the suites that drive ParallelFor across eval, redundancy, rules
  # and the core context, plus the metrics registry / trace span suite and
  # the scoring-kernel suite (its scratch buffers are thread_local and the
  # dispatch table resolve races on first use). harness_test adds the
  # supervisor's watchdog thread + waitpid polling loop, and ingest_test
  # covers the rejected-files counter shared with parallel loaders.
  # kg_test and flat_set_test pin the storage substrate: TripleStore's flat
  # membership sets are probed concurrently (const-only) from every ranking
  # shard, so the batched probe path must be race-free. topk_test shards
  # query groups across workers and asserts bit-identical results at 1/2/4
  # threads.
  export KGC_THREADS=4
  # report_signal_unsafe=0: the BenchTelemetry crash handler deliberately
  # flushes the run report from inside a fatal-signal handler (a
  # best-effort last gasp on a process that is already dying); TSan would
  # otherwise convert that report into exit(66) and break harness_test's
  # exit-status attribution checks. Data-race detection is unaffected.
  export TSAN_OPTIONS="halt_on_error=1:second_deadlock_stack=1:report_signal_unsafe=0"
  # serve_test joins the TSan list: the server fans one accept thread, one
  # reader thread per connection and a batch thread across a shared bounded
  # queue, refcounted snapshot pins and per-connection write locks — the
  # densest cross-thread surface in the tree.
  ctest --test-dir "${BUILD_DIR}" --output-on-failure \
        -R '^(parallel_test|eval_test|redundancy_test|rules_test|core_test|obs_test|vecmath_test|harness_test|ingest_test|kg_test|flat_set_test|topk_test|serve_test)$'
else
  echo "== running tier-1 tests =="
  # halt_on_error keeps CI failures crisp; detect_leaks stays on by default
  # under ASan. UBSan is built with -fno-sanitize-recover so any finding
  # aborts the offending test.
  export ASAN_OPTIONS="halt_on_error=1:strict_string_checks=1"
  export UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1"
  ctest --test-dir "${BUILD_DIR}" --output-on-failure -j "$(nproc)"

  # The native (-march=x86-64-v3) kernels are the default wherever the CPU
  # runs them, so the generic fallback would otherwise only run on older
  # CPUs and in the dispatch tests: run the suite once more pinned to it.
  echo "== tier-1 tests on the generic kernel path =="
  KGC_KERNEL=generic ctest --test-dir "${BUILD_DIR}" --output-on-failure \
    -j "$(nproc)"

  if [[ "${SANITIZERS}" == *address* ]]; then
    # Promote the chaos suite into the ASan leg: the SIGKILL/recovery
    # sweeps exercise the rotation and supervisor paths where lifetime
    # bugs (use-after-free of swapped generations, double-closes in the
    # crash handlers) would hide from the unit tests.
    echo "== chaos suite under ASan =="
    ci/chaos.sh "${BUILD_DIR}"

    # Storage-substrate budget gate: the 100k-entity store must stay under
    # the 64 bytes/triple ceiling and batched probes must not regress
    # behind the replaced unordered_set substrate (bench_scale exits 1 on
    # either breach). Under ASan the *memory* assertion still holds
    # (IndexBytes counts container capacities, not malloc overhead).
    # The same smoke run checks the top-K fast path against the full-sweep
    # oracle at K=10 on an untrained 100k-entity TransE table, bit for bit
    # (the engine aborts on a mismatch). It gates no speedup: the engine
    # scores every entity, as the oracle does.
    echo "== bench_scale smoke budget under ASan =="
    "${BUILD_DIR}/bench/bench_scale" --smoke

    # Serving overload smoke under ASan: a short kgc_serve + kgc_load
    # session with a deliberately tiny admission queue and a stall
    # failpoint in batch scoring. Asserts the robustness path actually
    # fired (>= 1 request shed with a typed OVERLOADED reply, zero
    # fingerprint mismatches on the replies that did land) and that
    # SIGTERM drains cleanly (exit 0) — all with leak detection on, so
    # shed/drained requests that leak their buffers fail the leg.
    echo "== serving overload smoke under ASan =="
    SMOKE_DIR="$(mktemp -d)"
    trap 'rm -rf "${SMOKE_DIR}"' EXIT
    # 8 closed-loop connections against a 2-deep queue: while a stalled
    # batch holds the worker, at most 2 requests sit admitted and the
    # other 6 must shed (a queue >= the connection count could never
    # overflow under closed-loop load).
    KGC_FAULTS="stall@serve:batch:times=100000:ms=25" \
      KGC_SERVE_QUEUE=2 KGC_SERVE_MAX_BATCH=4 \
      "${BUILD_DIR}/tools/kgc_serve" --socket="${SMOKE_DIR}/s.sock" \
      --snapshot-dir="${SMOKE_DIR}/snap" --bootstrap=tiny \
      --bootstrap-epochs=3 --threads=1 \
      > "${SMOKE_DIR}/serve.log" 2>&1 &
    SERVE_PID=$!
    for _ in $(seq 1 600); do
      grep -q '^READY' "${SMOKE_DIR}/serve.log" 2>/dev/null && break
      kill -0 "${SERVE_PID}" 2>/dev/null || {
        echo "FAIL: kgc_serve died before READY"; cat "${SMOKE_DIR}/serve.log"
        exit 1
      }
      sleep 0.05
    done
    # READY echoes the resolved serving options: a KGC_SERVE_* knob the
    # server silently ignored (and so a smoke that never overloads the
    # queue it thinks it set) fails here.
    READY_LINE="$(grep '^READY' "${SMOKE_DIR}/serve.log" || true)"
    for want in queue=2 max_batch=4; do
      if [[ " ${READY_LINE} " != *" ${want} "* ]]; then
        echo "FAIL: kgc_serve READY line lacks ${want}: ${READY_LINE}"
        kill -TERM "${SERVE_PID}" 2>/dev/null || true
        exit 1
      fi
    done
    "${BUILD_DIR}/tools/kgc_load" --socket="${SMOKE_DIR}/s.sock" \
      --snapshot-dir="${SMOKE_DIR}/snap" --connections=8 --duration-s=3 \
      --queries=32 --k=5 --json="${SMOKE_DIR}/overload.json"
    kill -TERM "${SERVE_PID}"
    if ! wait "${SERVE_PID}"; then
      echo "FAIL: kgc_serve did not drain cleanly on SIGTERM"
      tail -5 "${SMOKE_DIR}/serve.log"
      exit 1
    fi
    grep '^drain' "${SMOKE_DIR}/serve.log"
    python3 - "${SMOKE_DIR}/overload.json" <<'EOF'
import json, sys
r = json.load(open(sys.argv[1]))
assert r["shed"] >= 1, "overload never shed a request: %r" % r
assert r["fingerprint_mismatches"] == 0, r
assert r["replies_ok"] > 0, r
print(f"overload smoke OK: {r['shed']} shed, {r['replies_ok']} ok, "
      f"0 mismatches, clean drain")
EOF
  fi
fi

echo "== sanitize run passed =="
