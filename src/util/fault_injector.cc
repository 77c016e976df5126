#include "util/fault_injector.h"

#include <cstdlib>

#include "obs/metrics.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace kgc {

bool ParseFaultKind(const std::string& name, FaultKind* kind) {
  if (name == "torn_write") {
    *kind = FaultKind::kTornWrite;
  } else if (name == "short_read") {
    *kind = FaultKind::kShortRead;
  } else if (name == "enospc") {
    *kind = FaultKind::kEnospc;
  } else if (name == "rename_fail") {
    *kind = FaultKind::kRenameFail;
  } else if (name == "mkdir_fail") {
    *kind = FaultKind::kMkdirFail;
  } else if (name == "stall") {
    *kind = FaultKind::kStall;
  } else if (name == "crash") {
    *kind = FaultKind::kCrash;
  } else {
    return false;
  }
  return true;
}

FaultInjector& FaultInjector::Get() {
  static FaultInjector* injector = [] {
    auto* instance = new FaultInjector();
    if (const char* spec = std::getenv("KGC_FAULTS")) {
      instance->ArmFromSpec(spec);
    }
    return instance;
  }();
  return *injector;
}

void FaultInjector::Arm(FaultKind kind, int times, int skip, int64_t payload) {
  Slot& slot = slots_[static_cast<size_t>(kind)];
  slot.times = times;
  slot.skip = skip;
  slot.payload = payload;
}

void FaultInjector::DisarmAllForTest() {
  for (Slot& slot : slots_) slot = Slot{};
  sites_.clear();
}

void FaultInjector::ArmSite(const std::string& site, FaultKind kind,
                            int times, int skip, int64_t payload) {
  SiteSlot& entry = sites_[site];
  entry.kind = kind;
  entry.slot.times = times;
  entry.slot.skip = skip;
  entry.slot.payload = payload;
}

bool FaultInjector::ShouldFailAt(const std::string& site, FaultKind* kind,
                                 int64_t* payload) {
  auto it = sites_.find(site);
  if (it == sites_.end()) return false;
  SiteSlot& entry = it->second;
  if (entry.slot.times <= 0) return false;
  if (entry.slot.skip > 0) {
    --entry.slot.skip;
    return false;
  }
  --entry.slot.times;
  if (kind != nullptr) *kind = entry.kind;
  if (payload != nullptr) *payload = entry.slot.payload;
  static obs::Counter& injected =
      obs::Registry::Get().GetCounter(obs::kFaultsInjected);
  injected.Increment();
  return true;
}

bool FaultInjector::ShouldFail(FaultKind kind, int64_t* payload) {
  Slot& slot = slots_[static_cast<size_t>(kind)];
  if (slot.times <= 0) return false;
  if (slot.skip > 0) {
    --slot.skip;
    return false;
  }
  --slot.times;
  if (payload != nullptr) *payload = slot.payload;
  static obs::Counter& injected =
      obs::Registry::Get().GetCounter(obs::kFaultsInjected);
  injected.Increment();
  return true;
}

int FaultInjector::TimesRemainingForTest(FaultKind kind) const {
  return slots_[static_cast<size_t>(kind)].times;
}

namespace {

// True if `field` is a recognised option assignment ("times=3"). Anything
// else — including a bare word — belongs to the kind@site token, which may
// itself contain ':' (site names like "rotate:manifest").
bool IsOptionField(const std::string& field) {
  const std::vector<std::string> kv = Split(field, '=');
  if (kv.size() != 2) return false;
  return kv[0] == "times" || kv[0] == "skip" || kv[0] == "bytes" ||
         kv[0] == "ms";
}

}  // namespace

bool FaultInjector::ArmFromSpec(const std::string& spec) {
  bool all_ok = true;
  for (const std::string& entry : Split(spec, ',')) {
    if (Trim(entry).empty()) continue;
    const std::vector<std::string> fields = Split(Trim(entry), ':');
    // Options are parsed from the tail: the longest suffix of key=value
    // fields. The remaining prefix, re-joined with ':', is the kind (or
    // kind@site) token.
    size_t head_end = fields.size();
    while (head_end > 1 && IsOptionField(fields[head_end - 1])) --head_end;
    std::vector<std::string> head_fields(fields.begin(),
                                         fields.begin() + head_end);
    const std::string head = Join(head_fields, ":");

    std::string kind_name = head;
    std::string site;
    const size_t at = head.find('@');
    if (at != std::string::npos) {
      kind_name = head.substr(0, at);
      site = head.substr(at + 1);
    }
    FaultKind kind;
    if (!ParseFaultKind(kind_name, &kind) ||
        (at != std::string::npos && site.empty())) {
      LogWarning("KGC_FAULTS: unknown fault kind '%s'", head.c_str());
      all_ok = false;
      continue;
    }
    int times = 1;
    int skip = 0;
    int64_t payload = 0;
    for (size_t i = head_end; i < fields.size(); ++i) {
      const std::vector<std::string> kv = Split(fields[i], '=');
      const long value = std::strtol(kv[1].c_str(), nullptr, 10);
      if (kv[0] == "times") {
        times = static_cast<int>(value);
      } else if (kv[0] == "skip") {
        skip = static_cast<int>(value);
      } else {  // bytes or ms
        payload = value;
      }
    }
    LogWarning("fault injection armed: %s%s%s times=%d skip=%d payload=%lld",
               kind_name.c_str(), site.empty() ? "" : " at ", site.c_str(),
               times, skip, static_cast<long long>(payload));
    if (site.empty()) {
      Arm(kind, times, skip, payload);
    } else {
      ArmSite(site, kind, times, skip, payload);
    }
  }
  return all_ok;
}

}  // namespace kgc
