#include "common.h"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/crc32.h"
#include "util/serialize.h"

namespace kgcbench {
namespace {

thread_local std::vector<int> t_open_spans;

int ThisThread() {
  static std::mutex mutex;
  static int next = 0;
  thread_local int id = -1;
  if (id < 0) {
    std::lock_guard<std::mutex> lock(mutex);
    id = next++;
  }
  return id;
}

std::string Escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

std::map<std::string, double> ProgramSpanTotals() {
  std::map<std::string, double> totals;
  for (const kgc::obs::SpanRollup& r : kgc::obs::CollectSpanRollups()) {
    totals[r.name] = r.total_seconds;
  }
  return totals;
}

}  // namespace

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

SpanRecorder& Spans() {
  static SpanRecorder recorder;
  return recorder;
}

SpanRecorder::Scope::Scope(SpanRecorder& recorder, std::string name) {
  if (!recorder.enabled()) return;
  recorder_ = &recorder;
  Span span;
  span.name = std::move(name);
  span.parent = t_open_spans.empty() ? -1 : t_open_spans.back();
  span.thread = ThisThread();
  program_at_open_ = ProgramSpanTotals();
  std::lock_guard<std::mutex> lock(recorder.mutex_);
  index_ = static_cast<int>(recorder.spans_.size());
  span.start = Now();
  recorder.spans_.push_back(std::move(span));
  t_open_spans.push_back(index_);
}

SpanRecorder::Scope::~Scope() {
  if (recorder_ == nullptr) return;
  const double end = Now();
  t_open_spans.pop_back();
  std::map<std::string, double> program;
  for (const auto& [name, total] : ProgramSpanTotals()) {
    const auto it = program_at_open_.find(name);
    const double grown = total - (it == program_at_open_.end() ? 0.0 : it->second);
    if (grown > 0.0) program[name] = grown;
  }
  std::lock_guard<std::mutex> lock(recorder_->mutex_);
  Span& span = recorder_->spans_[static_cast<size_t>(index_)];
  span.end = end;
  span.program = std::move(program);
}

std::vector<SpanRecorder::Span> SpanRecorder::Take() {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Span> out = std::move(spans_);
  spans_.clear();
  return out;
}

std::map<std::string, uint64_t> CounterSnapshot() {
  std::map<std::string, uint64_t> out;
  for (const auto& c : kgc::obs::Registry::Get().Snapshot().counters) {
    out[c.name] = c.value;
  }
  return out;
}

uint64_t CounterDelta(const std::map<std::string, uint64_t>& before,
                      const std::map<std::string, uint64_t>& after,
                      const std::string& name) {
  const auto a = after.find(name);
  if (a == after.end()) return 0;
  const auto b = before.find(name);
  return a->second - (b == before.end() ? 0 : b->second);
}

uint32_t ModelCrc(const kgc::KgeModel& model) {
  kgc::BinaryWriter writer;
  model.Serialize(writer);
  return kgc::Crc32(writer.buffer().data(), writer.buffer().size());
}

std::string RankTableBytes(const std::vector<kgc::TripleRanks>& ranks) {
  std::string bytes;
  bytes.reserve(ranks.size() * 44);
  auto append = [&bytes](const void* data, size_t size) {
    bytes.append(static_cast<const char*>(data), size);
  };
  for (const kgc::TripleRanks& r : ranks) {
    const int32_t ids[3] = {r.triple.head, r.triple.relation, r.triple.tail};
    const double values[4] = {r.head_raw, r.head_filtered, r.tail_raw,
                              r.tail_filtered};
    append(ids, sizeof(ids));
    append(values, sizeof(values));
  }
  return bytes;
}

std::string CrcHex(uint32_t crc) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%08x", crc);
  return buf;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

void JsonOut::Separate() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (!first_.empty()) {
    if (!first_.back()) out_ += ',';
    first_.back() = false;
  }
}

JsonOut& JsonOut::Key(const std::string& key) {
  Separate();
  out_ += '"' + Escape(key) + "\":";
  after_key_ = true;
  return *this;
}

JsonOut& JsonOut::Str(const std::string& value) {
  Separate();
  out_ += '"' + Escape(value) + '"';
  return *this;
}

JsonOut& JsonOut::Num(double value) {
  Separate();
  if (!std::isfinite(value)) {
    out_ += "null";
    return *this;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  out_ += buf;
  return *this;
}

JsonOut& JsonOut::Int(int64_t value) {
  Separate();
  out_ += std::to_string(value);
  return *this;
}

JsonOut& JsonOut::Bool(bool value) {
  Separate();
  out_ += value ? "true" : "false";
  return *this;
}

JsonOut& JsonOut::BeginObject() {
  Separate();
  out_ += '{';
  first_.push_back(true);
  return *this;
}

JsonOut& JsonOut::EndObject() {
  out_ += '}';
  first_.pop_back();
  return *this;
}

JsonOut& JsonOut::BeginArray() {
  Separate();
  out_ += '[';
  first_.push_back(true);
  return *this;
}

JsonOut& JsonOut::EndArray() {
  out_ += ']';
  first_.pop_back();
  return *this;
}

JsonOut& JsonOut::SpanArray(const std::vector<SpanRecorder::Span>& spans,
                            double origin) {
  BeginArray();
  for (const SpanRecorder::Span& s : spans) {
    BeginObject();
    Key("name").Str(s.name);
    Key("start").Num(s.start - origin);
    Key("end").Num(s.end - origin);
    Key("parent").Int(s.parent);
    Key("thread").Int(s.thread);
    Key("program").BeginObject();
    for (const auto& [name, seconds] : s.program) Key(name).Num(seconds);
    EndObject();
    EndObject();
  }
  return EndArray();
}

JsonOut& JsonOut::ProgramRollups() {
  BeginObject();
  for (const kgc::obs::SpanRollup& r : kgc::obs::CollectSpanRollups()) {
    Key(r.name).BeginObject();
    Key("count").Int(static_cast<int64_t>(r.count));
    Key("total_s").Num(r.total_seconds);
    EndObject();
  }
  return EndObject();
}

Flags::Flags(int argc, char** argv, int first) {
  for (int i = first; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--", 2) != 0) continue;
    const char* eq = std::strchr(arg, '=');
    if (eq == nullptr) {
      values_[arg + 2] = "1";
    } else {
      values_[std::string(arg + 2, eq)] = eq + 1;
    }
  }
}

std::string Flags::Get(const std::string& name,
                       const std::string& fallback) const {
  const auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

double Flags::GetDouble(const std::string& name, double fallback) const {
  const auto it = values_.find(name);
  return it == values_.end() ? fallback : std::strtod(it->second.c_str(), nullptr);
}

int64_t Flags::GetInt(const std::string& name, int64_t fallback) const {
  const auto it = values_.find(name);
  return it == values_.end() ? fallback
                             : std::strtoll(it->second.c_str(), nullptr, 10);
}

}  // namespace kgcbench
