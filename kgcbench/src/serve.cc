// Serving workloads: set-up of one TransE generation of the scale:10000
// preset, and the open-loop load process that drives kgc_serve.
//
// serve-setup streams the dataset, holds out the tail of its train split,
// and bootstraps a snapshot registry from the rest. kgc_serve (started by
// run.py) then serves that registry. serve-load builds a seeded Poisson
// schedule of requests drawn from the generation's test split, sends it on
// time from one thread over a few connections, reads replies on a second
// thread and, in the rotating mode, publishes held-out batches through a
// StreamIngestor on a third. After the timed part it loads every
// generation that answered and recomputes each OK reply's body the way
// kgc_load does; a reply whose CRC differs, or whose generation cannot be
// loaded, is a failure. It then judges every phase once (ComputePhaseStats)
// and prints the verdicts. Both run in the working directory; settings are
// in config.h.

#include <poll.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <map>
#include <thread>
#include <tuple>

#include "serve.h"
#include "config.h"
#include "datagen/presets.h"
#include "datagen/streaming.h"
#include "eval/topk.h"
#include "eval/triple_classification.h"
#include "kg/kg_io.h"
#include "obs/trace.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "snapshot/snapshot_registry.h"
#include "snapshot/stream_ingestor.h"
#include "util/crc32.h"
#include "util/rng.h"

namespace kgcbench {
namespace {

namespace fs = std::filesystem;
using kgc::serve::ReplyStatus;
using kgc::serve::Request;
using kgc::serve::RequestType;

// Files of a serving set-up, relative to the working directory.
constexpr char kRegistryDir[] = "registry";
constexpr char kSocket[] = "serve.sock";
constexpr char kHeldoutFile[] = "heldout.tsv";

kgc::StreamIngestorOptions IngestorOptions(uint64_t seed) {
  kgc::StreamIngestorOptions options;
  options.model_type = kgc::ModelType::kTransE;
  options.bootstrap_epochs = config::kBootstrapEpochs;
  options.epochs = config::kIngestEpochs;
  options.train_seed = seed;
  // The ingestor runs inside the load process, which may use at most nproc
  // threads in all; its validation sweep gets one.
  options.threads = 1;
  return options;
}

std::string TripleLine(const kgc::Vocab& vocab, const kgc::Triple& t) {
  return vocab.EntityName(t.head) + "\t" + vocab.RelationName(t.relation) +
         "\t" + vocab.EntityName(t.tail);
}

void AddPhase(Schedule& s, const std::string& name, double rate,
              double start, double duration, const kgc::Dataset& dataset,
              kgc::Rng& rng) {
  Phase phase;
  phase.name = name;
  phase.rate = rate;
  phase.start = start;
  phase.end = start + duration;
  phase.first = s.requests.size();
  double t = start;
  while (true) {
    t += -std::log(1.0 - rng.UniformDouble()) / rate;
    if (t >= phase.end) break;
    Request request = DrawRequest(dataset, rng);
    request.id = s.requests.size() + 1;  // id 0 is the liveness ping
    s.requests.push_back(request);
    s.due.push_back(t);
  }
  phase.count = s.requests.size() - phase.first;
  s.phases.push_back(phase);
}

/// Sleeps until a millisecond before `when`, then spins: waking a sleeping
/// thread can take milliseconds on a virtual machine, and the generator
/// must send on schedule.
void SleepUntil(double when) {
  const double wake = when - 0.001;
  if (Now() < wake) {
    // steady_clock is CLOCK_MONOTONIC on Linux.
    timespec ts;
    ts.tv_sec = static_cast<time_t>(wake);
    ts.tv_nsec =
        static_cast<long>((wake - static_cast<double>(ts.tv_sec)) * 1e9);
    while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) ==
           EINTR) {
    }
  }
  while (Now() < when) {
  }
}

/// Reads replies from every connection until each request sent without a
/// transport error has been answered, or `deadline` passes. It polls
/// without blocking, so a reply is timed when it arrives rather than when a
/// sleeping thread is rescheduled. A connection that fails is marked dead
/// (the sender then stops using it); the caller closes every fd.
void ReceiveLoop(const std::vector<int>& fds, std::atomic<bool>* dead,
                 const Schedule& schedule, Outcomes& outcomes, double origin,
                 const std::atomic<size_t>& sent_count,
                 const std::atomic<bool>& sending_done,
                 const std::atomic<double>& deadline) {
  size_t received = 0;
  std::vector<pollfd> pfds(fds.size());
  while (true) {
    if (sending_done.load() && received >= sent_count.load()) break;
    if (Now() > deadline.load()) break;
    size_t live = 0;
    for (size_t c = 0; c < fds.size(); ++c) {
      pfds[c].fd = dead[c].load() ? -1 : fds[c];
      pfds[c].events = POLLIN;
      pfds[c].revents = 0;
      if (pfds[c].fd >= 0) ++live;
    }
    if (live == 0) break;
    if (::poll(pfds.data(), pfds.size(), 0) <= 0) continue;
    for (size_t c = 0; c < fds.size(); ++c) {
      if (pfds[c].fd < 0 || pfds[c].revents == 0) continue;
      auto payload = kgc::serve::ReadFrame(fds[c], 2000);
      const double now = Now() - origin;
      if (!payload.ok()) {
        dead[c].store(true);
        continue;
      }
      // Replies echo the request id; the body's layout depends on the
      // request type, so look the request up before decoding.
      uint64_t id = 0;
      if (payload->size() >= 11) {
        std::memcpy(&id, payload->data() + 3, sizeof(id));
      }
      if (id == 0 || id > schedule.requests.size()) continue;
      const size_t i = static_cast<size_t>(id - 1);
      kgc::serve::Reply reply;
      std::lock_guard<std::mutex> lock(outcomes.mutex);
      if (!kgc::serve::DecodeReply(*payload, schedule.requests[i].type, &reply)
               .ok() ||
          outcomes.done[i] >= 0) {
        continue;
      }
      outcomes.done[i] = now;
      outcomes.status[i] = static_cast<int>(reply.status);
      outcomes.generation[i] = reply.generation;
      if (reply.status == ReplyStatus::kOk) {
        outcomes.crc[i] =
            kgc::Crc32(payload->data() + kgc::serve::kReplyHeaderBytes,
                       payload->size() - kgc::serve::kReplyHeaderBytes);
      }
      ++received;
    }
  }
}

struct IngestEvent {
  int64_t batch = 0;
  double start = 0.0;
  double end = 0.0;
  std::string outcome;
  int64_t generation = -1;
};

/// Pause between phases, so one phase's replies do not overlap the next.
constexpr double kGapSeconds = 0.1;
constexpr double kMinRungSeconds = 0.5;
/// Requests per search rung: p99 then has at least ten samples beyond it.
constexpr double kRungSamples = 1200.0;
/// The search stops once the pass/miss bracket is this narrow.
constexpr double kSearchResolution = 0.05;

/// Waits for a search rung's replies (or 1.5 s past its end), then judges
/// it before the oracle has run.
bool RungMeetsLimit(Outcomes& outcomes, const Phase& phase,
                    const std::vector<double>& due, double origin) {
  const double wait_until = origin + phase.end + 1.5;
  while (true) {
    {
      std::lock_guard<std::mutex> lock(outcomes.mutex);
      size_t pending = 0;
      for (size_t i = phase.first; i < phase.first + phase.count; ++i) {
        if (outcomes.send_failed[i] == 0 && outcomes.done[i] < 0) ++pending;
      }
      if (pending == 0 || Now() > wait_until) {
        return ComputePhaseStats(phase, due, outcomes, false).meets_limit;
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

}  // namespace

double Quantile(const std::vector<double>& sorted, double q) {
  const auto n = static_cast<double>(sorted.size());
  const auto rank = static_cast<size_t>(std::max(1.0, std::ceil(q * n)));
  return sorted[rank - 1];
}

size_t SamplesBeyond(size_t n, double q) {
  const auto rank = static_cast<size_t>(
      std::max(1.0, std::ceil(q * static_cast<double>(n))));
  return n - std::min(n, rank);
}

PhaseStats ComputePhaseStats(const Phase& phase, const std::vector<double>& due,
                             const Outcomes& outcomes, bool after_oracle) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  PhaseStats s;
  s.count = phase.count;
  const size_t first = phase.first;
  const size_t last = phase.first + phase.count;
  std::vector<double> latency;  // good replies, in schedule order
  std::vector<double> late;
  double last_done = -1.0;
  auto good = [&](size_t i) {
    return outcomes.status[i] == static_cast<int>(ReplyStatus::kOk) &&
           (!after_oracle || outcomes.verified[i] == 1);
  };
  for (size_t i = first; i < last; ++i) {
    if (outcomes.sent[i] >= 0) {
      late.push_back(1000.0 * (outcomes.sent[i] - due[i]));
    }
    last_done = std::max(last_done, outcomes.done[i]);
    if (good(i)) latency.push_back(1000.0 * (outcomes.done[i] - due[i]));
  }
  s.ok = latency.size();
  s.failed = s.count - s.ok;
  s.wall_s = last_done >= 0 ? last_done - phase.start : kInf;
  s.goodput = static_cast<double>(s.ok) / (phase.end - phase.start);
  // A growing backlog: the last quarter of the phase's requests far slower
  // than the first quarter.
  const size_t quarter = std::max<size_t>(1, s.count / 4);
  std::vector<double> head;
  std::vector<double> tail;
  for (size_t i = first; i < last; ++i) {
    if (!good(i)) continue;
    const double ms = 1000.0 * (outcomes.done[i] - due[i]);
    if (i < first + quarter) head.push_back(ms);
    if (i >= last - quarter) tail.push_back(ms);
  }
  s.backlog = !head.empty() && !tail.empty() &&
              Median(tail) > Median(head) + config::kP99LimitMs / 2;
  // Failed requests count as infinitely late.
  std::vector<double> all = latency;
  std::sort(all.begin(), all.end());
  all.resize(s.count, kInf);
  s.p50_ms = all.empty() ? kInf : Quantile(all, 0.50);
  s.p99_ms = all.empty() ? kInf : Quantile(all, 0.99);
  s.p99_beyond = SamplesBeyond(s.count, 0.99);
  std::sort(late.begin(), late.end());
  s.late_p50_ms = late.empty() ? 0.0 : Quantile(late, 0.50);
  s.late_p99_ms = late.empty() ? 0.0 : Quantile(late, 0.99);
  s.meets_limit = s.count > 0 && s.failed == 0 && s.p99_beyond >= 10 &&
                  s.p99_ms <= config::kP99LimitMs && !s.backlog;
  return s;
}

/// Draws requests the way traffic follows the data: a uniformly chosen test
/// triple gives the relation and anchor (75% filtered top-10 head/tail
/// queries) or the triple to classify (25%; half true, half with one side
/// replaced by a random entity).
Request DrawRequest(const kgc::Dataset& dataset, kgc::Rng& rng) {
  const kgc::TripleList& test = dataset.test();
  const kgc::Triple& t = test[rng.Uniform(test.size())];
  Request request;
  if (rng.Bernoulli(0.75)) {
    request.type = RequestType::kTopK;
    request.tails = rng.Bernoulli(0.5);
    request.filtered = true;
    request.relation = t.relation;
    request.anchor = request.tails ? t.head : t.tail;
    request.k = kTopK;
  } else {
    request.type = RequestType::kClassify;
    request.triple = t;
    if (rng.Bernoulli(0.5)) {
      const auto e = static_cast<kgc::EntityId>(
          rng.Uniform(static_cast<uint64_t>(dataset.num_entities())));
      if (rng.Bernoulli(0.5)) {
        request.triple.head = e;
      } else {
        request.triple.tail = e;
      }
    }
  }
  return request;
}
std::vector<GenerationCheck> VerifyReplies(
    const kgc::SnapshotRegistry& registry, const Schedule& schedule,
    Outcomes& outcomes) {
  std::map<int64_t, std::vector<size_t>> by_generation;
  for (size_t i = 0; i < schedule.requests.size(); ++i) {
    if (outcomes.status[i] == static_cast<int>(ReplyStatus::kOk)) {
      by_generation[outcomes.generation[i]].push_back(i);
    }
  }
  std::vector<GenerationCheck> checks;
  for (const auto& [generation, indices] : by_generation) {
    GenerationCheck check;
    check.generation = generation;
    check.replies = indices.size();
    check.first_reply = outcomes.done[indices.front()];
    for (size_t i : indices) {
      check.first_reply = std::min(check.first_reply, outcomes.done[i]);
    }
    double t = Now();
    kgc::StatusOr<kgc::LoadedGeneration> gen =
        kgc::Status::NotFound("negative generation");
    if (generation >= 0) {
      KGCBENCH_SPAN(span, "snapshot.load_generation");
      gen = registry.LoadGeneration(generation);
    }
    check.load_s = Now() - t;
    if (!gen.ok() || gen->model == nullptr) {
      for (size_t i : indices) outcomes.verified[i] = -1;
      check.mismatches = indices.size();
      checks.push_back(check);
      continue;
    }
    check.loaded = true;
    const kgc::KgeModel& model = *gen->model;

    // Distinct queries answered by this generation, each computed once.
    std::map<std::tuple<bool, int32_t, int32_t>, size_t> topk_slot;
    std::vector<kgc::TopKQuery> topk_queries;
    std::map<std::tuple<int32_t, int32_t, int32_t>, size_t> classify_slot;
    std::vector<kgc::Triple> classify_triples;
    for (size_t i : indices) {
      const Request& r = schedule.requests[i];
      if (r.type == RequestType::kTopK) {
        const auto key = std::make_tuple(r.tails, r.relation, r.anchor);
        if (topk_slot.emplace(key, topk_queries.size()).second) {
          kgc::TopKQuery q;
          q.tails = r.tails;
          q.relation = r.relation;
          q.anchor = r.anchor;
          topk_queries.push_back(std::move(q));
        }
      } else {
        const auto key =
            std::make_tuple(r.triple.head, r.triple.relation, r.triple.tail);
        if (classify_slot.emplace(key, classify_triples.size()).second) {
          classify_triples.push_back(r.triple);
        }
      }
    }
    std::vector<uint32_t> topk_crc(topk_queries.size());
    if (!topk_queries.empty()) {
      KGCBENCH_SPAN(span, "eval.oracle_topk");
      kgc::TopKOptions options;
      options.k = static_cast<int>(kTopK);
      const kgc::TopKEngine engine(model, options);
      const std::vector<kgc::TopKResult> results =
          engine.Run(topk_queries, &gen->dataset.all_store());
      for (size_t j = 0; j < results.size(); ++j) {
        std::string body;
        kgc::serve::AppendTopKBody(results[j].filtered, &body);
        topk_crc[j] = kgc::Crc32(body.data(), body.size());
      }
    }
    std::vector<uint32_t> classify_crc(classify_triples.size());
    {
      t = Now();
      kgc::TripleClassificationOptions copt;
      copt.seed = kgc::serve::ServeOptions{}.classify_seed;
      kgc::ClassificationThresholds thresholds;
      {
        KGCBENCH_SPAN(span, "eval.classify_fit");
        thresholds = kgc::FitClassificationThresholds(model, gen->dataset, copt);
      }
      check.fit_s = Now() - t;
      KGCBENCH_SPAN(span, "eval.oracle_classify");
      const std::vector<kgc::ClassifiedTriple> classified =
          kgc::ClassifyTriples(model, thresholds, classify_triples);
      for (size_t j = 0; j < classified.size(); ++j) {
        std::string body;
        kgc::serve::AppendClassifyBody(static_cast<float>(classified[j].score),
                                       classified[j].label,
                                       static_cast<float>(classified[j].threshold),
                                       &body);
        classify_crc[j] = kgc::Crc32(body.data(), body.size());
      }
    }
    for (size_t i : indices) {
      const Request& r = schedule.requests[i];
      const uint32_t expected =
          r.type == RequestType::kTopK
              ? topk_crc[topk_slot.at(std::make_tuple(r.tails, r.relation,
                                                      r.anchor))]
              : classify_crc[classify_slot.at(std::make_tuple(
                    r.triple.head, r.triple.relation, r.triple.tail))];
      outcomes.verified[i] = outcomes.crc[i] == expected ? 1 : -1;
      if (outcomes.verified[i] < 0) ++check.mismatches;
    }
    checks.push_back(check);
  }
  return checks;
}


/// serve-setup: stream the scale:10000 preset, hold back the tail of its
/// train split for rotations, bootstrap generation 0 from the rest.
int RunServeSetup(const Flags& flags) {
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  if (flags.GetInt("trace", 0) != 0) {
    Spans().Enable();
    kgc::obs::EnableSpanRollups();
  }
  const double origin = Now();
  fs::remove_all("data");
  fs::remove_all(kRegistryDir);
  {
    KGCBENCH_SPAN(span, "datagen.stream");
    kgc::StreamDatagenOptions options;
    options.out_dir = "data";
    options.seed = seed;
    options.write_world = false;
    auto report =
        kgc::StreamDataset(kgc::ScaleSpec(config::kScaleEntities), options);
    if (!report.ok()) {
      std::fprintf(stderr, "kgcbench: %s\n", report.status().ToString().c_str());
      return 1;
    }
  }
  kgc::StatusOr<kgc::Dataset> full = kgc::Status::NotFound("unloaded");
  {
    KGCBENCH_SPAN(span, "kg.load");
    full = kgc::LoadOpenKeDataset("data", "scale:10000");
  }
  if (!full.ok()) {
    std::fprintf(stderr, "kgcbench: %s\n", full.status().ToString().c_str());
    return 1;
  }
  const kgc::TripleList& train = full->train();
  const size_t cut =
      train.size() - static_cast<size_t>(static_cast<double>(train.size()) *
                                         config::kHoldout);
  std::ofstream heldout(kHeldoutFile, std::ios::trunc);
  for (size_t i = cut; i < train.size(); ++i) {
    heldout << TripleLine(full->vocab(), train[i]) << '\n';
  }
  heldout.close();
  kgc::Dataset base(full->name(), full->vocab(),
                    kgc::TripleList(train.begin(), train.begin() + cut),
                    full->valid(), full->test());

  std::unique_ptr<kgc::SnapshotRegistry> registry;
  {
    KGCBENCH_SPAN(span, "snapshot.open");
    auto opened = kgc::SnapshotRegistry::Open(kRegistryDir);
    if (!opened.ok()) {
      std::fprintf(stderr, "kgcbench: %s\n", opened.status().ToString().c_str());
      return 1;
    }
    registry = std::move(*opened);
  }
  {
    KGCBENCH_SPAN(span, "snapshot.bootstrap");
    kgc::StreamIngestor ingestor(*registry, IngestorOptions(seed));
    auto report = ingestor.Bootstrap(base);
    if (!report.ok()) {
      std::fprintf(stderr, "kgcbench: %s\n", report.status().ToString().c_str());
      return 1;
    }
  }
  JsonOut out;
  out.BeginObject();
  out.Key("kind").Str("serve_setup");
  out.Key("setup_s").Num(Now() - origin);
  out.Key("registry").Str(kRegistryDir);
  out.Key("socket").Str(kSocket);
  out.Key("train").Int(static_cast<int64_t>(cut));
  out.Key("heldout").Int(static_cast<int64_t>(train.size() - cut));
  if (Spans().enabled()) {
    out.Key("spans").SpanArray(Spans().Take(), origin);
    out.Key("program_spans").ProgramRollups();
  }
  out.EndObject();
  std::printf("%s\n", out.str().c_str());
  return 0;
}

/// serve-load: the timed part of serve_steady / serve_rotating. --seconds
/// is split between the nominal phase and --search-s of capacity search.
int RunServeLoad(const Flags& flags) {
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  const bool rotating = flags.Get("mode", "steady") == "rotating";
  const double search_s = flags.GetDouble("search-s", 0.0);
  const double nominal_s = flags.GetDouble("seconds", 10.0) - search_s;
  const double nominal = config::kNominalRate;
  if (flags.GetInt("trace", 0) != 0) {
    Spans().Enable();
    kgc::obs::EnableSpanRollups();
  }
  const double span_origin = Now();

  auto opened = kgc::SnapshotRegistry::Open(kRegistryDir);
  if (!opened.ok() || (*opened)->current() == nullptr) {
    std::fprintf(stderr, "kgcbench: cannot open the registry\n");
    return 1;
  }
  std::unique_ptr<kgc::SnapshotRegistry> registry = std::move(*opened);

  // Set-up: the schedule.
  const double schedule_start = Now();
  double nominal_start = 0.0;
  Schedule schedule;
  {
    KGCBENCH_SPAN(span, "load.schedule");
    const auto gen = registry->current();
    kgc::Rng rng(config::ScheduleSeed(seed));
    // The warm-up lets the server's first-batch preparation of generation 0
    // finish before timing; its replies are verified but not timed.
    AddPhase(schedule, "warmup", nominal, 0.0, config::kWarmupS, gen->dataset,
             rng);
    nominal_start = config::kWarmupS + kGapSeconds;
    AddPhase(schedule, "nominal", nominal, nominal_start, nominal_s,
             gen->dataset, rng);
    // Requests for the capacity search; their send times are chosen while
    // it runs, so the pool is drawn now and never resized.
    const auto pool = static_cast<size_t>(config::kSearchMaxRate * search_s);
    for (size_t j = 0; j < pool; ++j) {
      kgc::serve::Request request = DrawRequest(gen->dataset, rng);
      request.id = schedule.requests.size() + 1;
      schedule.requests.push_back(request);
      schedule.due.push_back(-1.0);
    }
  }
  const double schedule_s = Now() - schedule_start;

  std::vector<std::string> heldout_lines;
  if (rotating) {
    std::ifstream file(kHeldoutFile);
    std::string line;
    while (std::getline(file, line)) heldout_lines.push_back(line);
  }

  std::vector<int> fds;
  for (int c = 0; c < config::kConnections; ++c) {
    auto fd = kgc::serve::ConnectUnix(kSocket);
    if (!fd.ok()) {
      std::fprintf(stderr, "kgcbench: connect %s: %s\n", kSocket,
                   fd.status().ToString().c_str());
      for (int open : fds) ::close(open);
      return 1;
    }
    fds.push_back(*fd);
  }

  const size_t n = schedule.requests.size();
  Outcomes outcomes(n);
  std::atomic<size_t> sent_count{0};
  std::atomic<bool> sending_done{false};
  const double origin = Now() + 0.05;
  // Replies are awaited until five seconds after the last send.
  std::atomic<double> deadline{std::numeric_limits<double>::infinity()};
  std::unique_ptr<std::atomic<bool>[]> dead(new std::atomic<bool>[fds.size()]);
  for (size_t c = 0; c < fds.size(); ++c) dead[c].store(false);

  std::vector<IngestEvent> ingests;
  std::thread ingest_thread;
  if (rotating) {
    ingest_thread = std::thread([&] {
      kgc::StreamIngestor ingestor(*registry, IngestorOptions(seed));
      const size_t batches = static_cast<size_t>(config::kRotationBatches);
      const size_t per_batch = (heldout_lines.size() + batches - 1) / batches;
      for (size_t b = 0; b < batches; ++b) {
        // One publication per cadence inside the nominal phase; a batch
        // that cannot start on time is skipped, so every publication lands
        // while traffic still flows.
        const double cadence = config::kRotationCadenceS;
        const double at =
            origin + nominal_start + cadence * static_cast<double>(b + 1);
        const double last_start = origin + nominal_start + nominal_s - cadence;
        if (at > last_start || Now() > last_start) break;
        const size_t begin = b * per_batch;
        if (begin >= heldout_lines.size()) break;
        const size_t end = std::min(begin + per_batch, heldout_lines.size());
        std::vector<std::string> lines(heldout_lines.begin() + begin,
                                       heldout_lines.begin() + end);
        SleepUntil(at);
        IngestEvent event;
        event.batch = static_cast<int64_t>(b);
        event.start = Now() - origin;
        kgc::StatusOr<kgc::IngestReport> report = kgc::Status::NotFound("");
        {
          KGCBENCH_SPAN(span, "snapshot.ingest");
          report = ingestor.IngestBatch(lines, "batch-" + std::to_string(b),
                                        event.batch);
        }
        event.end = Now() - origin;
        if (report.ok()) {
          event.outcome = report->outcome;
          event.generation = report->generation;
        } else {
          event.outcome = "error: " + report.status().ToString();
        }
        ingests.push_back(event);
      }
    });
  }

  std::thread receiver([&] {
    ReceiveLoop(fds, dead.get(), schedule, outcomes, origin, sent_count,
                sending_done, deadline);
  });
  auto send = [&](size_t i) {
    SleepUntil(origin + schedule.due[i]);
    outcomes.sent[i] = Now() - origin;
    const size_t c = i % fds.size();
    const kgc::Status wrote =
        dead[c].load() ? kgc::Status::IoError("connection closed")
                       : kgc::serve::WriteFrame(
                             fds[c], kgc::serve::EncodeRequest(
                                         schedule.requests[i]),
                             2000);
    if (wrote.ok()) {
      sent_count.fetch_add(1);
    } else {
      outcomes.send_failed[i] = 1;
    }
  };
  const size_t fixed = schedule.phases.back().first +
                       schedule.phases.back().count;
  for (size_t i = 0; i < fixed; ++i) send(i);

  // Capacity search: the highest rate whose rung meets the latency limit
  // with every request answered OK and no growing backlog. Rates double
  // until a rung misses, then bisect between the best pass and the lowest
  // miss while the time budget lasts.
  size_t used = fixed;
  if (search_s > 0) {
    kgc::Rng arrivals(config::ArrivalSeed(seed));
    double t = nominal_start + nominal_s + kGapSeconds;
    const double search_end = t + search_s;
    double lo = 0.0;
    double hi = 0.0;
    double rate = config::kSearchStartRate;
    while (rate <= config::kSearchMaxRate) {
      const double duration = std::max(kMinRungSeconds, kRungSamples / rate);
      t = std::max(t, Now() - origin + 0.01);
      if (t + duration > search_end) break;
      Phase phase;
      phase.name = "rung";
      phase.rate = rate;
      phase.start = t;
      phase.end = t + duration;
      phase.first = used;
      double due = t;
      while (used < n) {
        due += -std::log(1.0 - arrivals.UniformDouble()) / rate;
        if (due >= phase.end) break;
        schedule.due[used++] = due;
      }
      phase.count = used - phase.first;
      for (size_t i = phase.first; i < used; ++i) send(i);
      const bool passed =
          RungMeetsLimit(outcomes, phase, schedule.due, origin);
      schedule.phases.push_back(phase);
      if (used == n) break;
      if (passed) {
        lo = rate;
        rate = hi > 0 ? (lo + hi) / 2 : rate * 2;
      } else {
        hi = rate;
        rate = lo > 0 ? (lo + hi) / 2 : rate / 2;
      }
      if (lo > 0 && hi > 0 && (hi - lo) / lo < kSearchResolution) break;
      t = Now() - origin + kGapSeconds;
    }
  }
  deadline.store(Now() + 5.0);
  sending_done.store(true);
  if (ingest_thread.joinable()) ingest_thread.join();
  receiver.join();
  for (int fd : fds) ::close(fd);
  for (size_t i = 0; i < n; ++i) {
    if (outcomes.send_failed[i] != 0 && outcomes.done[i] < 0) {
      outcomes.status[i] = kTransportError;
    }
  }

  const std::vector<GenerationCheck> checks =
      VerifyReplies(*registry, schedule, outcomes);

  JsonOut out;
  out.BeginObject();
  out.Key("kind").Str(rotating ? "serve_rotating" : "serve_steady");
  out.Key("schedule_s").Num(schedule_s);
  out.Key("phases").BeginArray();
  for (const Phase& p : schedule.phases) {
    const PhaseStats st = ComputePhaseStats(p, schedule.due, outcomes, true);
    out.BeginObject();
    out.Key("name").Str(p.name);
    out.Key("rate").Num(p.rate);
    out.Key("start").Num(p.start);
    out.Key("end").Num(p.end);
    out.Key("count").Int(static_cast<int64_t>(st.count));
    out.Key("ok").Int(static_cast<int64_t>(st.ok));
    out.Key("failed").Int(static_cast<int64_t>(st.failed));
    out.Key("p50_ms").Num(st.p50_ms);
    out.Key("p99_ms").Num(st.p99_ms);
    out.Key("p99_beyond").Int(static_cast<int64_t>(st.p99_beyond));
    out.Key("late_p50_ms").Num(st.late_p50_ms);
    out.Key("late_p99_ms").Num(st.late_p99_ms);
    out.Key("wall_s").Num(st.wall_s);
    out.Key("goodput").Num(st.goodput);
    out.Key("backlog").Bool(st.backlog);
    out.Key("meets_limit").Bool(st.meets_limit);
    out.EndObject();
  }
  out.EndArray();
  // Client-side time of every OK reply, for the per-layer split against
  // the server's own request time.
  size_t ok_replies = 0;
  double client_s = 0.0;
  for (size_t i = 0; i < used; ++i) {
    if (outcomes.status[i] != static_cast<int>(ReplyStatus::kOk)) continue;
    ++ok_replies;
    client_s += outcomes.done[i] - schedule.due[i];
  }
  out.Key("ok_replies").Int(static_cast<int64_t>(ok_replies));
  out.Key("client_s").Num(client_s);
  out.Key("ingests").BeginArray();
  for (const IngestEvent& e : ingests) {
    out.BeginObject();
    out.Key("batch").Int(e.batch);
    out.Key("start").Num(e.start);
    out.Key("end").Num(e.end);
    out.Key("outcome").Str(e.outcome);
    out.Key("generation").Int(e.generation);
    out.EndObject();
  }
  out.EndArray();
  out.Key("generations").BeginArray();
  for (const GenerationCheck& c : checks) {
    out.BeginObject();
    out.Key("generation").Int(c.generation);
    out.Key("loaded").Bool(c.loaded);
    out.Key("load_s").Num(c.load_s);
    out.Key("fit_s").Num(c.fit_s);
    out.Key("replies").Int(static_cast<int64_t>(c.replies));
    out.Key("mismatches").Int(static_cast<int64_t>(c.mismatches));
    out.Key("first_reply").Num(c.first_reply);
    out.EndObject();
  }
  out.EndArray();
  if (Spans().enabled()) {
    out.Key("spans").SpanArray(Spans().Take(), span_origin);
    out.Key("program_spans").ProgramRollups();
  }
  out.EndObject();
  std::printf("%s\n", out.str().c_str());
  return 0;
}

}  // namespace kgcbench
