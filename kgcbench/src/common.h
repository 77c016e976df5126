// Shared pieces of the kgcbench binary: the clock, the benchmark's own span
// recorder, counter snapshots, fingerprints and JSON output.
//
// The binary reaches the program only through module public headers (and
// the kgc_serve binary, started by run.py). Every call it makes into a
// module is wrapped in a span named "<layer>.<operation>", so a traced run
// can attribute time to layers from outside the program.

#ifndef KGCBENCH_SRC_COMMON_H_
#define KGCBENCH_SRC_COMMON_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "eval/metrics.h"
#include "models/model.h"

namespace kgcbench {

/// Seconds on the steady clock (shared by spans, schedules and timings).
double Now();

/// In-memory spans recorded by the benchmark around module calls. Disabled
/// (every Scope a no-op) unless Enable() was called, so untraced runs pay
/// one branch per call.
class SpanRecorder {
 public:
  struct Span {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;  ///< index of the enclosing span on the same thread
    int thread = 0;
    /// Seconds the program's own spans (obs rollups) grew while this span
    /// was open, by program span name. Traced runs use it to split a
    /// benchmark span that covers more than one module.
    std::map<std::string, double> program;
  };

  class Scope {
   public:
    Scope(SpanRecorder& recorder, std::string name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder* recorder_ = nullptr;
    int index_ = -1;
    std::map<std::string, double> program_at_open_;
  };

  void Enable() { enabled_ = true; }
  bool enabled() const { return enabled_; }
  std::vector<Span> Take();

 private:
  bool enabled_ = false;
  std::mutex mutex_;
  std::vector<Span> spans_;
};

SpanRecorder& Spans();

/// Opens a benchmark span on the global recorder.
#define KGCBENCH_SPAN(var, name) \
  ::kgcbench::SpanRecorder::Scope var(::kgcbench::Spans(), (name))

/// Every registered program counter, by name.
std::map<std::string, uint64_t> CounterSnapshot();
uint64_t CounterDelta(const std::map<std::string, uint64_t>& before,
                      const std::map<std::string, uint64_t>& after,
                      const std::string& name);

/// CRC-32 of a model's serialized parameters.
uint32_t ModelCrc(const kgc::KgeModel& model);
/// Canonical bytes of a rank table (little-endian fields in table order)
/// and their CRC-32. Two tables are equal iff their bytes are.
std::string RankTableBytes(const std::vector<kgc::TripleRanks>& ranks);
std::string CrcHex(uint32_t crc);
/// Names of the reference tables that `tables` lacks or holds with other
/// bytes: paper_warm's check that WarmRanks equals the cold GetRanks path.
std::vector<std::string> DifferingTables(
    const std::map<std::string, std::string>& reference,
    const std::vector<std::pair<std::string, std::string>>& tables);

/// Peak resident set of this process, MiB (VmHWM).
double PeakRssMb();

/// Minimal JSON writer: each subcommand prints one object on stdout.
class JsonOut {
 public:
  JsonOut& Key(const std::string& key);
  JsonOut& Str(const std::string& value);
  JsonOut& Num(double value);
  JsonOut& Int(int64_t value);
  JsonOut& Bool(bool value);
  JsonOut& BeginObject();
  JsonOut& EndObject();
  JsonOut& BeginArray();
  JsonOut& EndArray();
  /// Writes recorded spans as an array of {name,start,end,parent,thread}.
  JsonOut& SpanArray(const std::vector<SpanRecorder::Span>& spans,
                     double origin);
  /// Writes program span rollups as {name: {count, total_s}}.
  JsonOut& ProgramRollups();
  const std::string& str() const { return out_; }

 private:
  void Separate();
  std::string out_;
  std::vector<bool> first_;
  bool after_key_ = false;
};

/// Command-line flags as --name=value pairs.
class Flags {
 public:
  Flags(int argc, char** argv, int first);
  std::string Get(const std::string& name, const std::string& fallback) const;
  double GetDouble(const std::string& name, double fallback) const;
  int64_t GetInt(const std::string& name, int64_t fallback) const;

 private:
  std::map<std::string, std::string> values_;
};

int RunPaperFill(const Flags& flags);
int RunPaperWarm(const Flags& flags);
int RunServeSetup(const Flags& flags);
int RunServeLoad(const Flags& flags);
int RunSelfTest();

}  // namespace kgcbench

#endif  // KGCBENCH_SRC_COMMON_H_
