// Self-test of the benchmark's statistics and output checks: each planted
// fault must be caught, and unplanted outputs must pass.
//
//   percentiles       nearest rank over every request of a phase, failures
//                     infinitely late; a p99 needs ten samples beyond it
//   rank cross-check  a table with two entries' ranks swapped differs from
//                     its reference; an identical table does not
//   reply oracle      real replies from an in-process server on a tiny
//                     registry all verify; one reply with one body bit
//                     flipped, and one claiming a generation the registry
//                     lacks, are each caught

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>

#include "datagen/presets.h"
#include "serve.h"
#include "serve/server.h"
#include "snapshot/stream_ingestor.h"
#include "util/crc32.h"

namespace kgcbench {
namespace {

namespace fs = std::filesystem;

int g_failures = 0;

void Expect(bool ok, const char* what) {
  std::fprintf(stderr, "selftest %s: %s\n", ok ? "ok" : "FAIL", what);
  if (!ok) ++g_failures;
}

/// A phase of n requests answered OK, with latencies a permutation of
/// 0.01, 0.02, ..., n/100 ms; the last `failed` replies fail the oracle.
PhaseStats SyntheticPhase(size_t n, size_t failed, bool after_oracle) {
  Phase phase;
  phase.name = "nominal";
  phase.rate = 100.0;
  phase.end = static_cast<double>(n) / phase.rate;
  phase.count = n;
  std::vector<double> due(n);
  Outcomes outcomes(n);
  for (size_t i = 0; i < n; ++i) {
    due[i] = static_cast<double>(i) / phase.rate;
    outcomes.sent[i] = due[i];
    const auto rank = static_cast<double>((i * 7919) % n + 1);
    outcomes.done[i] = due[i] + rank * 1e-5;
    outcomes.status[i] = static_cast<int>(kgc::serve::ReplyStatus::kOk);
    outcomes.verified[i] = i + failed < n ? 1 : -1;
  }
  return ComputePhaseStats(phase, due, outcomes, after_oracle);
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-6; }

void Percentiles() {
  const PhaseStats full = SyntheticPhase(1000, 0, true);
  Expect(Near(full.p50_ms, 5.0) && Near(full.p99_ms, 9.9),
         "p50 and p99 of 1000 samples are the 500th and 990th");
  Expect(full.count == 1000 && full.p99_beyond == 10 && full.meets_limit,
         "p99 of 1000 samples has ten beyond it and can meet the limit");
  const PhaseStats short_phase = SyntheticPhase(999, 0, true);
  Expect(short_phase.p99_beyond == 9 && !short_phase.meets_limit,
         "p99 of 999 samples is not supported");
  const PhaseStats one_bad = SyntheticPhase(1000, 1, true);
  Expect(one_bad.failed == 1 && !one_bad.meets_limit &&
             std::isfinite(one_bad.p99_ms),
         "a reply failing the oracle fails its phase");
  Expect(std::isinf(SyntheticPhase(1000, 11, true).p99_ms),
         "more than 1% failures make p99 infinite");
  Expect(SyntheticPhase(1000, 1, false).failed == 0,
         "before the oracle runs, only the reply status counts");
}

void RankCrossCheck() {
  std::vector<kgc::TripleRanks> ranks(6);
  for (size_t i = 0; i < ranks.size(); ++i) {
    const auto id = static_cast<int32_t>(i);
    ranks[i].triple = kgc::Triple{id, 0, id + 1};
    ranks[i].head_raw = ranks[i].head_filtered = 1.0 + static_cast<double>(i);
    ranks[i].tail_raw = ranks[i].tail_filtered = 10.0 + static_cast<double>(i);
  }
  const std::map<std::string, std::string> reference = {
      {"TransE@d", RankTableBytes(ranks)}};
  Expect(DifferingTables(reference, {{"TransE@d", RankTableBytes(ranks)}})
             .empty(),
         "rank cross-check passes an identical table");
  std::vector<kgc::TripleRanks> swapped = ranks;
  std::swap(swapped[1].tail_filtered, swapped[4].tail_filtered);
  Expect(DifferingTables(reference, {{"TransE@d", RankTableBytes(swapped)}}) ==
             std::vector<std::string>{"TransE@d"},
         "rank cross-check catches a swapped entry");
  Expect(DifferingTables(reference, {}).size() == 1,
         "rank cross-check catches a missing table");
}

void ReplyOracle(const std::string& dir) {
  fs::remove_all(dir);
  auto opened = kgc::SnapshotRegistry::Open(dir + "/registry");
  if (!opened.ok()) {
    Expect(false, "open a tiny registry");
    return;
  }
  std::unique_ptr<kgc::SnapshotRegistry> registry = std::move(*opened);
  kgc::StreamIngestorOptions options;
  options.bootstrap_epochs = 2;
  kgc::StreamIngestor ingestor(*registry, options);
  if (!ingestor.Bootstrap(kgc::GenerateTiny(5).dataset).ok()) {
    Expect(false, "bootstrap a tiny registry");
    return;
  }

  Schedule schedule;
  kgc::Rng rng(3);
  for (uint64_t id = 1; id <= 64; ++id) {
    kgc::serve::Request request =
        DrawRequest(registry->current()->dataset, rng);
    request.id = id;
    schedule.requests.push_back(request);
    schedule.due.push_back(0.0);
  }
  Outcomes outcomes(schedule.requests.size());
  std::vector<std::string> bodies(schedule.requests.size());
  {
    kgc::serve::ServeOptions serve_options;
    serve_options.socket_path = dir + "/s.sock";
    kgc::serve::Server server(*registry, serve_options);
    if (!server.Start().ok()) {
      Expect(false, "start an in-process server");
      return;
    }
    auto fd = kgc::serve::ConnectUnix(serve_options.socket_path);
    for (size_t i = 0; fd.ok() && i < schedule.requests.size(); ++i) {
      const kgc::serve::Request& request = schedule.requests[i];
      if (!kgc::serve::WriteFrame(*fd, kgc::serve::EncodeRequest(request),
                                  2000)
               .ok()) {
        break;
      }
      auto payload = kgc::serve::ReadFrame(*fd, 5000);
      kgc::serve::Reply reply;
      if (!payload.ok() ||
          !kgc::serve::DecodeReply(*payload, request.type, &reply).ok()) {
        break;
      }
      outcomes.done[i] = 0.0;
      outcomes.status[i] = static_cast<int>(reply.status);
      outcomes.generation[i] = reply.generation;
      bodies[i] = payload->substr(kgc::serve::kReplyHeaderBytes);
      outcomes.crc[i] = kgc::Crc32(bodies[i].data(), bodies[i].size());
    }
    if (fd.ok()) ::close(*fd);
    server.Shutdown();
  }
  size_t ok = 0;
  for (int status : outcomes.status) {
    ok += status == static_cast<int>(kgc::serve::ReplyStatus::kOk) ? 1 : 0;
  }
  Expect(ok == schedule.requests.size(), "in-process server answers all");

  VerifyReplies(*registry, schedule, outcomes);
  size_t verified = 0;
  for (int v : outcomes.verified) verified += v == 1 ? 1 : 0;
  Expect(verified == schedule.requests.size(), "oracle verifies real replies");

  // One flipped bit in one body, and one reply from a generation the
  // registry never published.
  std::string flipped = bodies[7];
  flipped[flipped.size() / 2] = static_cast<char>(flipped[flipped.size() / 2] ^ 0x10);
  outcomes.crc[7] = kgc::Crc32(flipped.data(), flipped.size());
  outcomes.generation[11] = 999;
  std::fill(outcomes.verified.begin(), outcomes.verified.end(), 0);
  VerifyReplies(*registry, schedule, outcomes);
  Expect(outcomes.verified[7] == -1, "oracle catches a one-bit change");
  Expect(outcomes.verified[11] == -1,
         "oracle rejects a reply from an unknown generation");
  size_t rejected = 0;
  for (int v : outcomes.verified) rejected += v == -1 ? 1 : 0;
  Expect(rejected == 2, "oracle rejects nothing else");
  fs::remove_all(dir);
}

}  // namespace

int RunSelfTest() {
  Percentiles();
  RankCrossCheck();
  ReplyOracle("kgcbench_selftest");
  std::printf("{\"kind\":\"selftest\",\"failures\":%d}\n", g_failures);
  return g_failures == 0 ? 0 : 1;
}

}  // namespace kgcbench
