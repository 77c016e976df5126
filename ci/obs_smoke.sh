#!/usr/bin/env bash
# Telemetry smoke test: runs one fast bench binary with KGC_METRICS and
# KGC_TRACE set, then validates that every artifact is well-formed.
#
#   - the trace file must parse as a Chrome trace_event JSON array whose
#     first event is the kgc_clock_sync metadata record
#   - the metrics file must be JSONL: every line a complete JSON object
#     carrying the kgc.run_report.v1 schema, with duration quantiles and
#     resource accounting sections
#   - with KGC_METRICS_INTERVAL_MS=50 the live exporter must emit a
#     kgc.timeseries.v1 JSONL file (monotone cumulative counters, a final
#     record) plus a Prometheus-style exposition file, and the final
#     cumulative counters must be bit-identical across KGC_THREADS
#   - the mined AMIE rule lists (every rule, in order, with its numbers)
#     must print the same bytes at any KGC_THREADS
#   - the 9-model Table 5 path must write the same .ranks bytes at any
#     KGC_THREADS, and the same .kgcm and .ranks bytes with
#     KGC_KERNEL=generic
#   - no library function may be called only by tests, or by nothing,
#     unless ci/test_only_symbols.sh allowlists it with a reason
#
# Usage: ci/obs_smoke.sh [build-dir]      (default: build)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"
BENCH="${BUILD_DIR}/bench/bench_table1_dataset_stats"
TABLE5="${BUILD_DIR}/bench/bench_table5_fb15k"

for target in "${BENCH}" "${TABLE5}"; do
  if [[ ! -x "${target}" ]]; then
    echo "== building ${target} =="
    cmake -B "${BUILD_DIR}" -S .
    cmake --build "${BUILD_DIR}" -j "$(nproc)" --target "$(basename "${target}")"
  fi
done

echo "== library functions that only tests call, or nothing calls =="
cmake --build "${BUILD_DIR}" -j "$(nproc)" > /dev/null
ci/test_only_symbols.sh "${BUILD_DIR}"

WORK_DIR="$(mktemp -d)"
trap 'rm -rf "${WORK_DIR}"' EXIT
TRACE_FILE="${WORK_DIR}/trace.json"
METRICS_FILE="${WORK_DIR}/metrics.jsonl"

echo "== running ${BENCH} with telemetry enabled =="
# Run twice so the JSONL report accumulates lines (and the second run
# exercises the warm-cache path).
for run in 1 2; do
  KGC_TRACE="${TRACE_FILE}" KGC_METRICS="${METRICS_FILE}" \
  KGC_CACHE_DIR="${WORK_DIR}/cache" "${BENCH}" > /dev/null
done

echo "== validating trace JSON =="
if command -v python3 > /dev/null; then
  python3 -m json.tool "${TRACE_FILE}" > /dev/null
  python3 - "${TRACE_FILE}" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    events = json.load(f)
assert isinstance(events, list), "trace must be a JSON array of events"
assert events, "trace has no events"
assert events[0]["name"] == "kgc_clock_sync", events[0]
assert "wall" in events[0]["args"] and "steady_ms" in events[0]["args"]
names = {e["name"] for e in events}
assert "make_suite" in names, f"expected a make_suite span, got {sorted(names)}"
for e in events:
    for key in ("name", "ph", "pid", "tid"):
        assert key in e, f"trace event missing {key}: {e}"
    if e["ph"] == "X":
        assert "ts" in e and "dur" in e, f"span missing ts/dur: {e}"
print(f"trace OK: {len(events)} events, {len(names)} span names")
EOF
elif command -v jq > /dev/null; then
  jq -e 'length > 0 and .[0].name == "kgc_clock_sync"' "${TRACE_FILE}" \
    > /dev/null
  echo "trace OK ($(jq 'length' "${TRACE_FILE}") events)"
else
  echo "ERROR: need python3 or jq to validate JSON" >&2
  exit 1
fi

echo "== validating metrics JSONL =="
if command -v python3 > /dev/null; then
  python3 - "${METRICS_FILE}" <<'EOF'
import json, sys
lines = [l for l in open(sys.argv[1]) if l.strip()]
assert len(lines) == 2, f"expected 2 report lines, got {len(lines)}"
for line in lines:
    report = json.loads(line)
    assert report["schema"] == "kgc.run_report.v1", report["schema"]
    for section in ("name", "timestamp", "steady_ms", "threads",
                    "wall_seconds", "exit_code", "counters", "gauges",
                    "histograms", "durations", "spans", "resources"):
        assert section in report, f"report missing {section}"
    for counter in ("kgc.trainer.epochs", "kgc.ranker.triples_ranked",
                    "kgc.redundancy.pairs_compared", "kgc.amie.candidates",
                    "kgc.cache.model_hits", "kgc.faults.injected"):
        assert counter in report["counters"], f"report missing {counter}"
    for duration in ("kgc.trainer.epoch_seconds", "kgc.ranker.shard_seconds"):
        d = report["durations"][duration]
        for field in ("count", "sum", "p50", "p90", "p99", "p999", "max"):
            assert field in d, f"{duration} missing {field}"
    process = report["resources"]["process"]
    assert process["max_rss_bytes"] > 0, process
    assert process["cpu_user_seconds"] >= 0.0, process
    assert report["exit_code"] == 0, report["exit_code"]
print(f"metrics OK: {len(lines)} report lines")
EOF
else
  while IFS= read -r line; do
    [[ -z "${line}" ]] && continue
    printf '%s' "${line}" | jq -e '.schema == "kgc.run_report.v1"' > /dev/null
  done < "${METRICS_FILE}"
  echo "metrics OK ($(wc -l < "${METRICS_FILE}") report lines)"
fi

echo "== running with the live exporter at 50 ms =="
run_with_exporter() {  # run_with_exporter <threads> <timeseries> <prom>
  KGC_THREADS="$1" KGC_METRICS_INTERVAL_MS=50 KGC_TIMESERIES="$2" \
  KGC_EXPOSITION="$3" KGC_CACHE_DIR="${WORK_DIR}/cache-t$1" \
    "${BENCH}" > /dev/null
}
run_with_exporter 1 "${WORK_DIR}/ts_t1.jsonl" "${WORK_DIR}/t1.prom"
run_with_exporter 4 "${WORK_DIR}/ts_t4.jsonl" "${WORK_DIR}/t4.prom"

if command -v python3 > /dev/null; then
  python3 - "${WORK_DIR}/ts_t1.jsonl" "${WORK_DIR}/ts_t4.jsonl" <<'EOF'
import json, sys

def load(path):
    records = [json.loads(l) for l in open(path) if l.strip()]
    assert records, f"{path}: no time-series records"
    prev_seq, prev_steady = -1, -1.0
    totals = {}
    for r in records:
        assert r["schema"] == "kgc.timeseries.v1", r["schema"]
        assert r["seq"] > prev_seq, "seq must be strictly increasing"
        assert r["steady_ms"] >= prev_steady, "steady clock went backwards"
        prev_seq, prev_steady = r["seq"], r["steady_ms"]
        assert "wall" in r and "resources" in r and "durations" in r, r.keys()
        for name, sample in r["counters"].items():
            assert sample["total"] >= totals.get(name, 0), \
                f"{name} cumulative total decreased"
            assert sample["delta"] >= 0, f"{name} negative delta"
            totals[name] = sample["total"]
    assert records[-1].get("final") is True, "missing final record"
    return records, totals

t1_records, t1_totals = load(sys.argv[1])
t4_records, t4_totals = load(sys.argv[2])
# The execution engine's determinism contract: final cumulative counters
# are bit-identical across KGC_THREADS (durations are timing-domain and
# exempt).
assert t1_totals == t4_totals, (
    "final counters differ across KGC_THREADS:\n"
    + "\n".join(f"  {k}: t1={t1_totals.get(k)} t4={t4_totals.get(k)}"
                for k in sorted(set(t1_totals) | set(t4_totals))
                if t1_totals.get(k) != t4_totals.get(k)))
print(f"timeseries OK: {len(t1_records)}/{len(t4_records)} records, "
      f"{len(t1_totals)} counters bit-identical across threads")
EOF
else
  echo "ERROR: need python3 to validate the time-series" >&2
  exit 1
fi

for prom in "${WORK_DIR}/t1.prom" "${WORK_DIR}/t4.prom"; do
  grep -q '^# TYPE kgc_ranker_triples_ranked counter$' "${prom}"
  grep -q '^# TYPE kgc_trainer_epoch_seconds summary$' "${prom}"
  grep -q 'quantile="0.99"' "${prom}"
done
echo "exposition OK: $(grep -c '^# TYPE' "${WORK_DIR}/t1.prom") metric types"

echo "== mined rule lists: same bytes at any KGC_THREADS =="
# rule_mining prints the full ordered rule list (1000 is more than any
# dataset mines) and the AMIE metrics ranked from it.
RULE_MINING="${BUILD_DIR}/examples/rule_mining"
for dataset in fb wn yago; do
  for threads in 1 4; do
    KGC_THREADS="${threads}" "${RULE_MINING}" "${dataset}" 1000 \
      > "${WORK_DIR}/rules_${dataset}_t${threads}.txt"
  done
  if ! cmp -s "${WORK_DIR}/rules_${dataset}_t1.txt" \
      "${WORK_DIR}/rules_${dataset}_t4.txt"; then
    echo "ERROR: ${dataset} rule list differs at KGC_THREADS=1/4" >&2
    diff "${WORK_DIR}/rules_${dataset}_t1.txt" \
      "${WORK_DIR}/rules_${dataset}_t4.txt" >&2 || true
    exit 1
  fi
done
echo "rule lists OK: fb, wn and yago byte-identical at KGC_THREADS=1/4"

echo "== Table 5 rank tables: same bytes at any KGC_THREADS =="
# One sweep ranks all nine models, so TransH, TransR and TransD (whose
# per-relation caches are thread-local) share threads with the other
# models. Fill a cache at the default thread count, then drop the rank
# tables and recompute them from the same models at 1 and at 4 threads:
# all 20 tables (9 models plus AMIE, on both datasets) must keep their
# bytes.
T5_CACHE="${WORK_DIR}/table5"
run_table5() {  # run_table5 [VAR=value...]
  env "$@" KGC_EPOCH_SCALE=0.01 KGC_CACHE_DIR="${T5_CACHE}" "${TABLE5}" \
    > /dev/null
}
rank_sums() { (cd "${1:-${T5_CACHE}}" && sha256sum -- *.ranks); }
run_table5
reference="$(rank_sums)"
tables="$(wc -l <<< "${reference}")"
if [[ "${tables}" -ne 20 ]]; then
  echo "ERROR: expected 20 Table 5 rank tables, found ${tables}" >&2
  exit 1
fi
for threads in 1 4; do
  rm -f "${T5_CACHE}"/*.ranks
  run_table5 KGC_THREADS="${threads}"
  if [[ "$(rank_sums)" != "${reference}" ]]; then
    echo "ERROR: Table 5 rank tables differ at KGC_THREADS=${threads}" >&2
    diff <(echo "${reference}") <(rank_sums) >&2 || true
    exit 1
  fi
done
echo "rank tables OK: ${tables} tables byte-identical at KGC_THREADS=1/4"

echo "== Table 5 models: same bytes on the generic kernel path =="
# The golden CRC test trains tiny dim-8 models. Retrain the same 18 Table 5
# models, at their full size, with the generic kernels into a fresh cache:
# every model file must equal the default (native) path's byte for byte.
T5_GENERIC="${WORK_DIR}/table5-generic"
KGC_KERNEL=generic KGC_EPOCH_SCALE=0.01 KGC_CACHE_DIR="${T5_GENERIC}" \
  "${TABLE5}" > /dev/null
model_sums() { (cd "$1" && sha256sum -- *.kgcm); }
native_models="$(model_sums "${T5_CACHE}")"
models="$(wc -l <<< "${native_models}")"
if [[ "${models}" -ne 18 ]]; then
  echo "ERROR: expected 18 Table 5 models, found ${models}" >&2
  exit 1
fi
if [[ "$(model_sums "${T5_GENERIC}")" != "${native_models}" ]]; then
  echo "ERROR: Table 5 models differ between the kernel paths" >&2
  diff <(echo "${native_models}") <(model_sums "${T5_GENERIC}") >&2 || true
  exit 1
fi
echo "models OK: ${models} models byte-identical on the generic path"

# Ranking bounds every score through the kernels' float twins and rescores
# the rows a bound cannot order: the twins' values, and so which rows are
# rescored, must not depend on the kernel path, and the ranks never do.
# The generic run above ranked its models on the generic path; every rank
# table must equal the native run's byte for byte.
if [[ "$(rank_sums "${T5_GENERIC}")" != "${reference}" ]]; then
  echo "ERROR: Table 5 rank tables differ between the kernel paths" >&2
  diff <(echo "${reference}") <(rank_sums "${T5_GENERIC}") >&2 || true
  exit 1
fi
echo "rank tables OK: ${tables} tables byte-identical on the generic path"

echo "== obs smoke test passed =="
