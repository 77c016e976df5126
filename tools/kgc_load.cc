// kgc_load: closed-loop load generator + response validator for kgc_serve.
//
// Opens the same snapshot registry as the server, precomputes a
// deterministic pool of top-K and classification queries AND their
// expected reply-body CRC-32s locally (full-sweep top-K lists and fitted
// classification thresholds are bit-identical pure functions of the model,
// so client-side recomputation is a valid oracle), then drives the server
// from --connections closed-loop connections for --duration-s seconds.
// Every OK reply from the expected generation is fingerprinted against the
// precomputed CRC; one mismatched bit is a corrupted response and fails
// the run.
//
// Typed non-OK replies (OVERLOADED from admission control,
// DEADLINE_EXCEEDED from expired budgets) are counted, not errors: they
// are the server's documented overload behavior and ci/sanitize.sh asserts
// they appear under induced overload. Transport errors trigger reconnect
// with backoff — across a chaos SIGKILL + restart the run keeps going and
// must end with zero fingerprint mismatches (ci/chaos.sh).
//
// Usage:
//   kgc_load [--socket=PATH] [--snapshot-dir=DIR] [--connections=N]
//            [--duration-s=F] [--queries=N] [--k=N] [--classify-frac=F]
//            [--deadline-ms=N] [--seed=N] [--json=PATH]
//            [--connect-timeout-s=F]
//
// Emits BENCH_serving.json (kgc.serving_bench.v1): sustained QPS plus
// exact HDR p50/p90/p99/p999 request latency. Exit: 0 clean, 1 on any
// fingerprint mismatch or zero successful replies, 2 usage.

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "eval/topk.h"
#include "eval/triple_classification.h"
#include "obs/exporter.h"
#include "obs/hdr_histogram.h"
#include "obs/perf_counters.h"
#include "obs/report.h"
#include "serve/protocol.h"
#include "snapshot/snapshot_registry.h"
#include "util/crc32.h"
#include "util/file_util.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/string_util.h"

namespace {

using kgc::Crc32;
using kgc::EntityId;
using kgc::RelationId;
using kgc::Rng;
using kgc::SnapshotRegistry;
using kgc::Status;
using kgc::StrFormat;
using kgc::TopKEngine;
using kgc::TopKQuery;
using kgc::Triple;
using kgc::serve::ConnectUnix;
using kgc::serve::ReadFrame;
using kgc::serve::Reply;
using kgc::serve::ReplyStatus;
using kgc::serve::Request;
using kgc::serve::RequestType;
using kgc::serve::WriteFrame;

struct LoadFlags {
  std::string socket_path;
  std::string snapshot_dir;
  int connections = 4;
  double duration_s = 5.0;
  int queries = 64;
  uint32_t k = 10;
  double classify_frac = 0.25;
  uint32_t deadline_ms = 0;  // 0: server default
  uint64_t seed = 11;
  std::string json_path = "BENCH_serving.json";
  double connect_timeout_s = 15.0;
};

void PrintUsage() {
  std::fprintf(
      stderr,
      "usage: kgc_load [--socket=PATH] [--snapshot-dir=DIR] "
      "[--connections=N]\n"
      "                [--duration-s=F] [--queries=N] [--k=N] "
      "[--classify-frac=F]\n"
      "                [--deadline-ms=N] [--seed=N] [--json=PATH]\n"
      "                [--connect-timeout-s=F]\n");
}

bool ParseFlag(const std::string& arg, const char* name, std::string* out) {
  const std::string prefix = std::string("--") + name + "=";
  if (!kgc::StartsWith(arg, prefix)) return false;
  *out = arg.substr(prefix.size());
  return true;
}

/// One precomputed query and the CRC-32 of the reply body a correct server
/// must produce for it (at the generation the pool was computed from).
struct PooledQuery {
  Request request;
  uint32_t expected_crc = 0;
};

/// Counters shared by every connection thread.
struct LoadStats {
  std::atomic<uint64_t> sent{0};
  std::atomic<uint64_t> ok{0};
  std::atomic<uint64_t> shed{0};
  std::atomic<uint64_t> deadline_exceeded{0};
  std::atomic<uint64_t> malformed{0};
  std::atomic<uint64_t> unavailable{0};
  std::atomic<uint64_t> internal{0};
  std::atomic<uint64_t> degraded{0};
  std::atomic<uint64_t> other_generation{0};
  std::atomic<uint64_t> mismatches{0};
  std::atomic<uint64_t> transport_errors{0};
  std::atomic<uint64_t> reconnects{0};
  std::atomic<uint64_t> bad_replies{0};
};

/// Builds the query pool and its expected fingerprints from the local
/// model. Top-K lists come from TopKEngine::OracleTopK, the full
/// ScoreTails/ScoreHeads sweep, so the server's blocked sweep is checked
/// against an independent path; thresholds are fitted with the server's
/// default classification seed.
std::vector<PooledQuery> BuildPool(const kgc::LoadedGeneration& gen,
                                   const LoadFlags& flags) {
  const kgc::KgeModel& model = *gen.model;
  const auto num_entities =
      static_cast<uint64_t>(model.num_entities());
  const auto num_relations =
      static_cast<uint64_t>(model.num_relations());
  const uint32_t k = std::min<uint32_t>(
      std::max<uint32_t>(flags.k, 1),
      static_cast<uint32_t>(model.num_entities()));

  Rng rng(flags.seed);
  std::vector<PooledQuery> pool(static_cast<size_t>(
      std::max(flags.queries, 1)));
  std::vector<size_t> classify_slots;
  std::vector<Triple> classify_triples;
  for (size_t i = 0; i < pool.size(); ++i) {
    Request& request = pool[i].request;
    if (rng.Bernoulli(flags.classify_frac)) {
      request.type = RequestType::kClassify;
      request.triple.head = static_cast<EntityId>(rng.Uniform(num_entities));
      request.triple.relation =
          static_cast<RelationId>(rng.Uniform(num_relations));
      request.triple.tail = static_cast<EntityId>(rng.Uniform(num_entities));
      classify_slots.push_back(i);
      classify_triples.push_back(request.triple);
    } else {
      request.type = RequestType::kTopK;
      request.tails = rng.Bernoulli(0.5);
      request.filtered = true;  // the paper's realistic protocol filters
      request.relation = static_cast<RelationId>(rng.Uniform(num_relations));
      request.anchor = static_cast<EntityId>(rng.Uniform(num_entities));
      request.k = k;
      TopKQuery query;
      query.tails = request.tails;
      query.relation = request.relation;
      query.anchor = request.anchor;
      const kgc::TopKResult expected = TopKEngine::OracleTopK(
          model, query, static_cast<int>(k), &gen.dataset.all_store());
      std::string body;
      kgc::serve::AppendTopKBody(expected.filtered, &body);
      pool[i].expected_crc = Crc32(body.data(), body.size());
    }
    request.deadline_ms = flags.deadline_ms;
  }

  if (!classify_slots.empty()) {
    const kgc::ClassificationThresholds thresholds =
        kgc::FitClassificationThresholds(model, gen.dataset, {});
    std::vector<kgc::ClassifiedTriple> classified =
        kgc::ClassifyTriples(model, thresholds, classify_triples);
    for (size_t j = 0; j < classify_slots.size(); ++j) {
      std::string body;
      kgc::serve::AppendClassifyBody(
          static_cast<float>(classified[j].score), classified[j].label,
          static_cast<float>(classified[j].threshold), &body);
      pool[classify_slots[j]].expected_crc = Crc32(body.data(), body.size());
    }
  }
  return pool;
}

/// Connects and confirms liveness with a ping round-trip.
kgc::StatusOr<int> ConnectAndPing(const std::string& socket_path) {
  auto fd = ConnectUnix(socket_path);
  if (!fd.ok()) return fd.status();
  Request ping;
  ping.type = RequestType::kPing;
  ping.id = 0;
  Status wrote = WriteFrame(*fd, kgc::serve::EncodeRequest(ping), 2000);
  if (!wrote.ok()) {
    ::close(*fd);
    return wrote;
  }
  auto payload = ReadFrame(*fd, 2000);
  if (!payload.ok()) {
    ::close(*fd);
    return payload.status();
  }
  return *fd;
}

void ConnectionLoop(const LoadFlags& flags,
                    const std::vector<PooledQuery>& pool,
                    int64_t expected_generation, int thread_index,
                    std::chrono::steady_clock::time_point stop_at,
                    LoadStats& stats, kgc::obs::HdrHistogram& latency) {
  int fd = -1;
  uint64_t next_id =
      (static_cast<uint64_t>(thread_index) << 32) + 1;
  // Stagger thread starting offsets through the pool so concurrent
  // connections exercise different (direction, relation) groups.
  size_t cursor = static_cast<size_t>(thread_index) * 17;
  while (std::chrono::steady_clock::now() < stop_at) {
    if (fd < 0) {
      auto connected = ConnectUnix(flags.socket_path);
      if (!connected.ok()) {
        stats.reconnects.fetch_add(1, std::memory_order_relaxed);
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        continue;
      }
      fd = *connected;
    }
    const PooledQuery& pooled = pool[cursor++ % pool.size()];
    Request request = pooled.request;
    request.id = next_id++;
    stats.sent.fetch_add(1, std::memory_order_relaxed);
    const auto start = std::chrono::steady_clock::now();
    Status wrote =
        WriteFrame(fd, kgc::serve::EncodeRequest(request), 2000);
    kgc::StatusOr<std::string> payload =
        wrote.ok() ? ReadFrame(fd, 5000)
                   : kgc::StatusOr<std::string>(wrote);
    if (!payload.ok()) {
      stats.transport_errors.fetch_add(1, std::memory_order_relaxed);
      ::close(fd);
      fd = -1;
      continue;
    }
    latency.Observe(std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - start)
                        .count());
    Reply reply;
    Status decoded =
        kgc::serve::DecodeReply(*payload, request.type, &reply);
    if (!decoded.ok() || (reply.status == ReplyStatus::kOk &&
                          reply.id != request.id)) {
      stats.bad_replies.fetch_add(1, std::memory_order_relaxed);
      ::close(fd);
      fd = -1;
      continue;
    }
    switch (reply.status) {
      case ReplyStatus::kOk: {
        if (reply.flags & kgc::serve::kReplyFlagDegraded) {
          stats.degraded.fetch_add(1, std::memory_order_relaxed);
        }
        if (reply.generation != expected_generation) {
          stats.other_generation.fetch_add(1, std::memory_order_relaxed);
          break;
        }
        const std::string body =
            payload->substr(kgc::serve::kReplyHeaderBytes);
        if (Crc32(body.data(), body.size()) != pooled.expected_crc) {
          stats.mismatches.fetch_add(1, std::memory_order_relaxed);
        } else {
          stats.ok.fetch_add(1, std::memory_order_relaxed);
        }
        break;
      }
      case ReplyStatus::kOverloaded:
        stats.shed.fetch_add(1, std::memory_order_relaxed);
        break;
      case ReplyStatus::kDeadlineExceeded:
        stats.deadline_exceeded.fetch_add(1, std::memory_order_relaxed);
        break;
      case ReplyStatus::kMalformed:
        stats.malformed.fetch_add(1, std::memory_order_relaxed);
        break;
      case ReplyStatus::kUnavailable:
        stats.unavailable.fetch_add(1, std::memory_order_relaxed);
        break;
      case ReplyStatus::kInternal:
        stats.internal.fetch_add(1, std::memory_order_relaxed);
        break;
    }
  }
  if (fd >= 0) ::close(fd);
}

int LoadMain(int argc, char** argv) {
  LoadFlags flags;
  if (const char* env = std::getenv("KGC_SERVE_SOCKET")) {
    flags.socket_path = env;
  }
  if (flags.socket_path.empty()) flags.socket_path = "kgc_serve.sock";
  if (const char* env = std::getenv("KGC_SNAPSHOT_DIR")) {
    flags.snapshot_dir = env;
  }
  if (flags.snapshot_dir.empty()) flags.snapshot_dir = "kgc_snapshots";

  std::string value;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      PrintUsage();
      return 0;
    } else if (ParseFlag(arg, "socket", &value)) {
      flags.socket_path = value;
    } else if (ParseFlag(arg, "snapshot-dir", &value)) {
      flags.snapshot_dir = value;
    } else if (ParseFlag(arg, "connections", &value)) {
      flags.connections = std::atoi(value.c_str());
    } else if (ParseFlag(arg, "duration-s", &value)) {
      flags.duration_s = std::strtod(value.c_str(), nullptr);
    } else if (ParseFlag(arg, "queries", &value)) {
      flags.queries = std::atoi(value.c_str());
    } else if (ParseFlag(arg, "k", &value)) {
      flags.k = static_cast<uint32_t>(std::atoi(value.c_str()));
    } else if (ParseFlag(arg, "classify-frac", &value)) {
      flags.classify_frac = std::strtod(value.c_str(), nullptr);
    } else if (ParseFlag(arg, "deadline-ms", &value)) {
      flags.deadline_ms = static_cast<uint32_t>(std::atoi(value.c_str()));
    } else if (ParseFlag(arg, "seed", &value)) {
      flags.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (ParseFlag(arg, "json", &value)) {
      flags.json_path = value;
    } else if (ParseFlag(arg, "connect-timeout-s", &value)) {
      flags.connect_timeout_s = std::strtod(value.c_str(), nullptr);
    } else {
      std::fprintf(stderr, "kgc_load: unknown flag %s\n", arg.c_str());
      PrintUsage();
      return 2;
    }
  }

  auto opened = SnapshotRegistry::Open(flags.snapshot_dir);
  if (!opened.ok()) {
    std::fprintf(stderr, "kgc_load: cannot open registry: %s\n",
                 opened.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<SnapshotRegistry> registry = std::move(*opened);
  const auto gen = registry->current();
  if (gen == nullptr) {
    std::fprintf(stderr, "kgc_load: registry %s is empty\n",
                 flags.snapshot_dir.c_str());
    return 1;
  }
  const int64_t generation = gen->manifest.generation;
  std::printf("pool: generation=%lld entities=%lld queries=%d k=%u\n",
              static_cast<long long>(generation),
              static_cast<long long>(gen->manifest.num_entities),
              std::max(flags.queries, 1), flags.k);
  const std::vector<PooledQuery> pool = BuildPool(*gen, flags);

  // Wait for the server (it may still be bootstrapping).
  const auto connect_deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(flags.connect_timeout_s));
  while (true) {
    auto fd = ConnectAndPing(flags.socket_path);
    if (fd.ok()) {
      ::close(*fd);
      break;
    }
    if (std::chrono::steady_clock::now() >= connect_deadline) {
      std::fprintf(stderr, "kgc_load: server not reachable at %s: %s\n",
                   flags.socket_path.c_str(),
                   fd.status().ToString().c_str());
      return 1;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  LoadStats stats;
  kgc::obs::HdrHistogram latency;
  const auto start = std::chrono::steady_clock::now();
  const auto stop_at =
      start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                  std::chrono::duration<double>(flags.duration_s));
  std::vector<std::thread> threads;
  const int connections = std::max(flags.connections, 1);
  threads.reserve(static_cast<size_t>(connections));
  for (int c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      ConnectionLoop(flags, pool, generation, c, stop_at, stats, latency);
    });
  }
  for (std::thread& t : threads) t.join();
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  const uint64_t ok = stats.ok.load();
  const double qps = elapsed > 0 ? static_cast<double>(ok) / elapsed : 0.0;
  const double p50_us = latency.Quantile(0.50) * 1e6;
  const double p90_us = latency.Quantile(0.90) * 1e6;
  const double p99_us = latency.Quantile(0.99) * 1e6;
  const double p999_us = latency.Quantile(0.999) * 1e6;
  const double max_us = latency.MaxEstimate() * 1e6;

  std::printf(
      "load: sent=%llu ok=%llu shed=%llu deadline=%llu malformed=%llu "
      "unavailable=%llu internal=%llu degraded=%llu\n"
      "load: transport_errors=%llu reconnects=%llu bad_replies=%llu "
      "other_generation=%llu fingerprint_mismatches=%llu\n"
      "load: qps=%.1f p50=%.0fus p90=%.0fus p99=%.0fus p999=%.0fus "
      "max=%.0fus\n",
      static_cast<unsigned long long>(stats.sent.load()),
      static_cast<unsigned long long>(ok),
      static_cast<unsigned long long>(stats.shed.load()),
      static_cast<unsigned long long>(stats.deadline_exceeded.load()),
      static_cast<unsigned long long>(stats.malformed.load()),
      static_cast<unsigned long long>(stats.unavailable.load()),
      static_cast<unsigned long long>(stats.internal.load()),
      static_cast<unsigned long long>(stats.degraded.load()),
      static_cast<unsigned long long>(stats.transport_errors.load()),
      static_cast<unsigned long long>(stats.reconnects.load()),
      static_cast<unsigned long long>(stats.bad_replies.load()),
      static_cast<unsigned long long>(stats.other_generation.load()),
      static_cast<unsigned long long>(stats.mismatches.load()), qps, p50_us,
      p90_us, p99_us, p999_us, max_us);

  if (!flags.json_path.empty()) {
    const std::string json = StrFormat(
        "{\n"
        "  \"schema\": \"kgc.serving_bench.v1\",\n"
        "  \"dataset\": \"%s\",\n"
        "  \"generation\": %lld,\n"
        "  \"entities\": %lld,\n"
        "  \"relations\": %lld,\n"
        "  \"model\": \"%s\",\n"
        "  \"connections\": %d,\n"
        "  \"duration_s\": %.3f,\n"
        "  \"query_pool\": %d,\n"
        "  \"k\": %u,\n"
        "  \"classify_frac\": %.3f,\n"
        "  \"requests_sent\": %llu,\n"
        "  \"replies_ok\": %llu,\n"
        "  \"shed\": %llu,\n"
        "  \"deadline_exceeded\": %llu,\n"
        "  \"malformed\": %llu,\n"
        "  \"unavailable\": %llu,\n"
        "  \"internal\": %llu,\n"
        "  \"degraded\": %llu,\n"
        "  \"transport_errors\": %llu,\n"
        "  \"reconnects\": %llu,\n"
        "  \"bad_replies\": %llu,\n"
        "  \"other_generation\": %llu,\n"
        "  \"fingerprint_mismatches\": %llu,\n"
        "  \"qps_sustained\": %.2f,\n"
        "  \"latency_us\": {\"p50\": %.1f, \"p90\": %.1f, \"p99\": %.1f, "
        "\"p999\": %.1f, \"max\": %.1f}\n"
        "}\n",
        gen->dataset.name().c_str(), static_cast<long long>(generation),
        static_cast<long long>(gen->manifest.num_entities),
        static_cast<long long>(gen->manifest.num_relations),
        gen->manifest.model.c_str(), connections, elapsed,
        static_cast<int>(pool.size()), flags.k, flags.classify_frac,
        static_cast<unsigned long long>(stats.sent.load()),
        static_cast<unsigned long long>(ok),
        static_cast<unsigned long long>(stats.shed.load()),
        static_cast<unsigned long long>(stats.deadline_exceeded.load()),
        static_cast<unsigned long long>(stats.malformed.load()),
        static_cast<unsigned long long>(stats.unavailable.load()),
        static_cast<unsigned long long>(stats.internal.load()),
        static_cast<unsigned long long>(stats.degraded.load()),
        static_cast<unsigned long long>(stats.transport_errors.load()),
        static_cast<unsigned long long>(stats.reconnects.load()),
        static_cast<unsigned long long>(stats.bad_replies.load()),
        static_cast<unsigned long long>(stats.other_generation.load()),
        static_cast<unsigned long long>(stats.mismatches.load()), qps,
        p50_us, p90_us, p99_us, p999_us, max_us);
    Status wrote = kgc::WriteStringToFile(flags.json_path, json);
    if (!wrote.ok()) {
      std::fprintf(stderr, "kgc_load: cannot write %s: %s\n",
                   flags.json_path.c_str(), wrote.ToString().c_str());
      return 1;
    }
    std::printf("wrote %s\n", flags.json_path.c_str());
  }

  if (stats.mismatches.load() > 0) {
    std::fprintf(stderr,
                 "kgc_load: FAIL: %llu fingerprint-mismatched responses\n",
                 static_cast<unsigned long long>(stats.mismatches.load()));
    return 1;
  }
  if (ok == 0) {
    std::fprintf(stderr, "kgc_load: FAIL: no successful replies\n");
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  kgc::obs::StartRunPerfCounters();
  kgc::obs::StartExporterFromEnv("kgc_load");
  kgc::Stopwatch watch;
  const int rc = LoadMain(argc, argv);
  return kgc::obs::FinishProcessReport("kgc_load", watch.ElapsedSeconds(),
                                       rc);
}
