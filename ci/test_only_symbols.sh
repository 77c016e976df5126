#!/usr/bin/env bash
# Lists the library functions that only tests call, so API that nothing
# else uses cannot creep back in.
#
# A function is test-only when
#   - a library object under BUILD_DIR/src defines it (nm type T or W),
#   - an object under BUILD_DIR/tests references it by relocation, and
#   - no other object references it: not the library objects themselves
#     (their vtables included), nor the tools, bench and example objects.
#
# Every test-only function must be on the allowlist below with a one-line
# reason, or the script fails. A reference the compiler inlined leaves no
# relocation, so a function whose only callers are inlined in its own file
# looks test-only too; say so in its reason.
#
# Usage: ci/test_only_symbols.sh BUILD_DIR
set -euo pipefail
export LC_ALL=C  # one collation for sort and comm

BUILD_DIR="${1:?usage: ci/test_only_symbols.sh BUILD_DIR}"
BUILD_DIR="${BUILD_DIR%/}"  # the -path patterns below need no trailing /

# One entry per line: the demangled signature, two spaces, "# ", a reason.
# Reasons are of three kinds: a *ForTest seam; "only caller is inlined in
# its own file"; or "test-only API", a seam or an entry point that no
# tool, bench or example drives yet (each a candidate for deletion).
ALLOWLIST="$(cat <<'EOF'
kgc::SetDeadlineHandlerForTest(void (*)(char const*))  # *ForTest seam
kgc::obs::ForcePerfUnavailableForTest(bool)  # *ForTest seam
kgc::obs::Registry::ResetAllForTest()  # *ForTest seam
kgc::obs::ResetPhaseResourcesForTest()  # *ForTest seam
kgc::obs::ResetTracingForTest()  # *ForTest seam
kgc::obs::SetProcfsRootForTest(char const*)  # *ForTest seam
kgc::obs::SetTraceDrainThresholdForTest(unsigned long)  # *ForTest seam
kgc::obs::SnapshotSpansForTest()  # *ForTest seam
kgc::Categorize(double, double, double)  # only caller is inlined in its own file (ComputeRelationStats)
kgc::Deadline::BeginPhase(char const*)  # only caller is inlined in its own file (DeadlinePhase)
kgc::Deadline::Expired() const  # only caller is inlined in its own file (PhaseCheck)
kgc::Deadline::phase_budget() const  # only caller is inlined in its own file
kgc::FaultInjector::Arm(kgc::FaultKind, int, int, long)  # only caller is inlined in its own file (ArmFromSpec)
kgc::FaultInjector::ArmSite(std::__cxx11::basic_string<char, std::char_traits<char>, std::allocator<char> > const&, kgc::FaultKind, int, int, long)  # only caller is inlined in its own file (ArmFromSpec)
kgc::RedundancyCatalog::IsSymmetric(int) const  # only caller is inlined in its own file (HasReverseIn)
kgc::obs::HdrHistogram::BucketIndexForMicros(unsigned long)  # only caller is inlined in its own file (ObserveMicros)
kgc::obs::HdrHistogram::BucketLowerMicros(unsigned long)  # only caller is inlined in its own file (quantiles)
kgc::obs::HdrHistogram::BucketUpperMicros(unsigned long)  # only caller is inlined in its own file (quantiles)
kgc::obs::HdrHistogram::ObserveMicros(unsigned long)  # only caller is inlined in its own file (Observe)
kgc::vec::OpsFor(kgc::vec::KernelPath)  # only caller is inlined in its own file (SetKernelPathForTest); kgcbench, built apart, calls it too
kgc::Deadline::SetPhaseBudget(double)  # test-only API: tests arm the budget KGC_PHASE_TIMEOUT_S sets
kgc::Deadline::last_heartbeat[abi:cxx11]() const  # test-only API: heartbeat inspection
kgc::FaultInjector::DisarmAll()  # test-only API: fault-test teardown
kgc::FaultInjector::DisarmSite(std::__cxx11::basic_string<char, std::char_traits<char>, std::allocator<char> > const&)  # test-only API: fault-test teardown
kgc::FaultInjector::times_remaining(kgc::FaultKind) const  # test-only API: fault-budget inspection
kgc::ThreadPool::num_workers() const  # test-only API: pool-size inspection
kgc::obs::ClosePhaseResources()  # test-only API: CollectPhaseResources closes the open phase in production
kgc::RelationCategoryName(kgc::RelationCategory)  # test-only API: no report prints category names
kgc::SymbolTable::Find(std::basic_string_view<char, std::char_traits<char> >) const  # test-only API: Vocab::FindEntity/FindRelation
kgc::CartesianPredictor::CartesianPredictor(kgc::TripleStore const&, kgc::DetectorOptions const&)  # test-only API: benches pass precomputed Cartesian relations
kgc::CartesianPredictor::EnableTypeExtension(std::vector<int, std::allocator<int> >)  # test-only API: the paper's type extension, which no bench drives
kgc::SimpleRuleModel::SimpleRuleModel(kgc::TripleStore const&, double)  # test-only API: benches pass a detected catalog
EOF
)"

for tool in nm readelf c++filt; do
  command -v "${tool}" > /dev/null || { echo "ERROR: need ${tool}" >&2; exit 2; }
done

mapfile -t lib_objs < <(find "${BUILD_DIR}/src" -name '*.o' | sort)
mapfile -t test_objs < <(find "${BUILD_DIR}/tests" -name '*.o' | sort)
mapfile -t other_objs < <(find "${BUILD_DIR}" -name '*.o' \
  -not -path "${BUILD_DIR}/src/*" -not -path "${BUILD_DIR}/tests/*" | sort)
if [[ ${#lib_objs[@]} -eq 0 || ${#test_objs[@]} -eq 0 ]]; then
  echo "ERROR: no library or test objects under ${BUILD_DIR}; build it first" >&2
  exit 2
fi

WORK_DIR="$(mktemp -d)"
trap 'rm -rf "${WORK_DIR}"' EXIT

# Mangled names of the functions the libraries define.
nm --defined-only "${lib_objs[@]}" |
  awk '$2 == "T" || $2 == "W" { print $3 }' | sort -u > "${WORK_DIR}/defined"
# Mangled names a set of objects references through relocations.
referenced() {
  readelf -rW "$@" | awk '$3 ~ /^R_/ && NF >= 5 { print $5 }' | sort -u
}
referenced "${test_objs[@]}" > "${WORK_DIR}/test_refs"
referenced "${lib_objs[@]}" "${other_objs[@]}" > "${WORK_DIR}/other_refs"

comm -12 "${WORK_DIR}/defined" "${WORK_DIR}/test_refs" |
  comm -23 - "${WORK_DIR}/other_refs" | c++filt | sort -u \
  > "${WORK_DIR}/test_only"
sed -e 's/  # .*$//' <<< "${ALLOWLIST}" | sort -u > "${WORK_DIR}/allowed"

unexpected="$(comm -23 "${WORK_DIR}/test_only" "${WORK_DIR}/allowed")"
stale="$(comm -13 "${WORK_DIR}/test_only" "${WORK_DIR}/allowed")"
echo "test-only library functions: $(wc -l < "${WORK_DIR}/test_only")" \
     "($(wc -l < "${WORK_DIR}/allowed") allowlisted)"
if [[ -n "${stale}" ]]; then
  # Not an error: a debug build inlines less, so some entries only show up
  # in optimized builds.
  echo "note: allowlisted but not test-only in this build:"
  sed 's/^/  /' <<< "${stale}"
fi
if [[ -n "${unexpected}" ]]; then
  echo "ERROR: library functions that only tests call (delete them, give" \
       "them a non-test caller, or allowlist them in $0 with a reason):" >&2
  sed 's/^/  /' <<< "${unexpected}" >&2
  exit 1
fi
echo "test-only symbols OK"
