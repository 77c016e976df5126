#!/usr/bin/env bash
# Lists the library functions that nothing but tests runs, so code without
# a production caller cannot creep back in. Two lists come from the same
# nm/readelf data; both hold kgc:: functions only.
#
# A function is test-only when
#   - a library under BUILD_DIR/src defines it (nm type T or W),
#   - an object under BUILD_DIR/tests references it by relocation, and
#   - no other object references it: not the library objects themselves
#     (their vtables included), nor the tools, bench and example objects.
#
# A function is unreferenced when a library defines it (nm type T, so no
# template instantiation) and no object at all references it. The
# base-object constructor and destructor aliases (C2/D2 in the mangled
# name) are skipped: calls reach them through their C1/D1 twins.
#
# Every function on either list must be on the allowlist below, or the
# script fails. An entry's reason is one of two:
#   "*ForTest seam"  a test hook whose name ends in ForTest;
#   "only caller is inlined in its own file"  a reference the compiler
#                    inlined leaves no relocation; name the caller.
# Anything else is code nothing runs: delete it.
#
# The library side reads the static libraries, which hold only the objects
# of current sources; objects a deleted source left in the tree are not
# read. The other side reads every object under BUILD_DIR.
#
# Usage: ci/test_only_symbols.sh BUILD_DIR
set -euo pipefail
export LC_ALL=C  # one collation for sort and comm

BUILD_DIR="${1:?usage: ci/test_only_symbols.sh BUILD_DIR}"
BUILD_DIR="${BUILD_DIR%/}"  # the -path patterns below need no trailing /

# One entry per line: the demangled signature, two spaces, "# ", a reason.
ALLOWLIST="$(cat <<'EOF'
kgc::Deadline::SetPhaseBudgetForTest(double)  # *ForTest seam
kgc::FaultInjector::DisarmAllForTest()  # *ForTest seam
kgc::FaultInjector::TimesRemainingForTest(kgc::FaultKind) const  # *ForTest seam
kgc::SetDeadlineHandlerForTest(void (*)(char const*))  # *ForTest seam
kgc::ThreadPool::NumWorkersForTest() const  # *ForTest seam
kgc::obs::Registry::ResetAllForTest()  # *ForTest seam
kgc::obs::ResetPhaseResourcesForTest()  # *ForTest seam
kgc::obs::ResetTracingForTest()  # *ForTest seam
kgc::obs::SetProcfsRootForTest(char const*)  # *ForTest seam
kgc::obs::SetTraceDrainThresholdForTest(unsigned long)  # *ForTest seam
kgc::obs::SnapshotSpansForTest()  # *ForTest seam
kgc::BinaryWriter::Append(void const*, unsigned long)  # only caller is inlined in its own file (the Write* methods)
kgc::Categorize(double, double, double)  # only caller is inlined in its own file (ComputeRelationStats)
kgc::Deadline::BeginPhase(char const*)  # only caller is inlined in its own file (DeadlinePhase)
kgc::Deadline::Deadline()  # only caller is inlined in its own file (Global)
kgc::Deadline::Expired() const  # only caller is inlined in its own file (PhaseCheck)
kgc::Deadline::phase_budget() const  # only caller is inlined in its own file (Expired)
kgc::FaultInjector::Arm(kgc::FaultKind, int, int, long)  # only caller is inlined in its own file (ArmFromSpec)
kgc::FaultInjector::ArmSite(std::__cxx11::basic_string<char, std::char_traits<char>, std::allocator<char> > const&, kgc::FaultKind, int, int, long)  # only caller is inlined in its own file (ArmFromSpec)
kgc::FlatSet::InsertNoGrow(unsigned long, unsigned long)  # only caller is inlined in its own file (Grow)
kgc::MetricsAccumulator::Add(kgc::TripleRanks const&)  # only caller is inlined in its own file (ComputeMetrics and its variants)
kgc::RedundancyCatalog::IsSymmetric(int) const  # only caller is inlined in its own file (HasReverseIn)
kgc::StatusCodeName(kgc::StatusCode)  # only caller is inlined in its own file (Status::ToString)
kgc::ThreadPool::WorkerLoop()  # only caller is inlined in its own file (EnsureWorkers' thread body)
kgc::TripleStore::GroupSlice(std::vector<int, std::allocator<int> > const&, std::vector<unsigned int, std::allocator<unsigned int> > const&, std::vector<int, std::allocator<int> > const&, unsigned long, unsigned long, int)  # only caller is inlined in its own file (Tails, Heads)
kgc::TuckER::DotTail(std::span<float const, 18446744073709551615ul>, int) const  # only caller is inlined in its own file (Score, ScoreAndApplyGradient)
kgc::obs::HdrHistogram::BucketIndexForMicros(unsigned long)  # only caller is inlined in its own file (ObserveMicros)
kgc::obs::HdrHistogram::BucketLowerMicros(unsigned long)  # only caller is inlined in its own file (quantiles)
kgc::obs::HdrHistogram::BucketUpperMicros(unsigned long)  # only caller is inlined in its own file (quantiles)
kgc::obs::HdrHistogram::ObserveMicros(unsigned long)  # only caller is inlined in its own file (Observe)
kgc::obs::TracingEnabled()  # only caller is inlined in its own file (FlushTrace)
kgc::serve::Server::AcceptLoop()  # only caller is inlined in its own file (Start's accept thread)
kgc::serve::Server::BatchLoop()  # only caller is inlined in its own file (Start's batch thread)
kgc::serve::Server::Connection::~Connection()  # only caller is inlined in its own file (the connection's shared_ptr)
kgc::vec::OpsFor(kgc::vec::KernelPath)  # only caller is inlined in its own file (SetKernelPathForTest); kgcbench, built apart, calls it too
kgc::vec::generic_path::GetOps(char const*)  # only caller is inlined in its own file (GetGenericOpsImpl); the kernel TUs build at -O3
kgc::vec::native_path::GetOps(char const*)  # only caller is inlined in its own file (GetNativeOpsImpl); the kernel TUs build at -O3
EOF
)"

for tool in nm readelf c++filt; do
  command -v "${tool}" > /dev/null || { echo "ERROR: need ${tool}" >&2; exit 2; }
done

mapfile -t lib_objs < <(find "${BUILD_DIR}/src" -name 'libkgc_*.a' | sort)
mapfile -t test_objs < <(find "${BUILD_DIR}/tests" -name '*.o' | sort)
mapfile -t other_objs < <(find "${BUILD_DIR}" -name '*.o' \
  -not -path "${BUILD_DIR}/src/*" -not -path "${BUILD_DIR}/tests/*" | sort)
if [[ ${#lib_objs[@]} -eq 0 || ${#test_objs[@]} -eq 0 ]]; then
  echo "ERROR: no library or test objects under ${BUILD_DIR}; build it first" >&2
  exit 2
fi

WORK_DIR="$(mktemp -d)"
trap 'rm -rf "${WORK_DIR}"' EXIT

# Mangled names of the kgc:: functions the libraries define, by nm type
# (T strong, W weak). Every kgc:: name mangles as _ZN or _ZNK then 3kgc.
defined() {
  nm --defined-only "${lib_objs[@]}" |
    awk -v types="$1" 'index(types, $2) && $3 ~ /^_ZNK?3kgc/ { print $3 }' |
    sort -u
}
defined TW > "${WORK_DIR}/defined"
defined T | grep -Ev '(C2|D2)[EI]' > "${WORK_DIR}/defined_strong" || true
# Mangled names a set of objects references through relocations.
referenced() {
  readelf -rW "$@" | awk '$3 ~ /^R_/ && NF >= 5 { print $5 }' | sort -u
}
referenced "${test_objs[@]}" > "${WORK_DIR}/test_refs"
referenced "${lib_objs[@]}" "${other_objs[@]}" > "${WORK_DIR}/other_refs"
sort -u "${WORK_DIR}/test_refs" "${WORK_DIR}/other_refs" > "${WORK_DIR}/all_refs"

comm -12 "${WORK_DIR}/defined" "${WORK_DIR}/test_refs" |
  comm -23 - "${WORK_DIR}/other_refs" | c++filt | sort -u \
  > "${WORK_DIR}/test_only"
comm -23 "${WORK_DIR}/defined_strong" "${WORK_DIR}/all_refs" | c++filt |
  sort -u > "${WORK_DIR}/unreferenced"

bad_reasons="$(sed -n -e '/  # \*ForTest seam$/d' \
  -e '/  # only caller is inlined in its own file/d' -e p <<< "${ALLOWLIST}")"
bad_seams="$(sed -n 's/  # \*ForTest seam$//p' <<< "${ALLOWLIST}" |
  grep -v 'ForTest(' || true)"
if [[ -n "${bad_reasons}${bad_seams}" ]]; then
  echo "ERROR: allowlist entries need the reason '*ForTest seam' on a" \
       "*ForTest name, or 'only caller is inlined in its own file':" >&2
  sed '/^$/d; s/^/  /' <<< "${bad_reasons}"$'\n'"${bad_seams}" >&2
  exit 1
fi
sed -e 's/  # .*$//' <<< "${ALLOWLIST}" | sort -u > "${WORK_DIR}/allowed"

status=0
check() {  # check LIST_FILE DESCRIPTION
  local unexpected
  unexpected="$(comm -23 "$1" "${WORK_DIR}/allowed")"
  echo "$2: $(wc -l < "$1") ($(comm -12 "$1" "${WORK_DIR}/allowed" |
    wc -l) allowlisted)"
  if [[ -n "${unexpected}" ]]; then
    echo "ERROR: $2 (delete them, give them a production caller, or" \
         "allowlist them in $0 with a reason):" >&2
    sed 's/^/  /' <<< "${unexpected}" >&2
    status=1
  fi
}
check "${WORK_DIR}/test_only" "library functions only tests call"
check "${WORK_DIR}/unreferenced" "library functions nothing calls"

stale="$(sort -u "${WORK_DIR}/test_only" "${WORK_DIR}/unreferenced" |
  comm -13 - "${WORK_DIR}/allowed")"
if [[ -n "${stale}" ]]; then
  # Not an error: a debug build inlines less, so some entries only show up
  # in optimized builds.
  echo "note: allowlisted but on neither list in this build:"
  sed 's/^/  /' <<< "${stale}"
fi
[[ ${status} -eq 0 ]] && echo "test-only and unreferenced symbols OK"
exit "${status}"
