#include "serve/server.h"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "eval/topk.h"
#include "obs/metrics.h"
#include "util/fault_injector.h"
#include "util/logging.h"

namespace kgc::serve {

namespace {

// KGC_SERVE_* values parse strictly: anything but a whole in-range value
// keeps the default with one warning, as KGC_KERNEL does, so a typo can
// neither zero a limit nor flip a switch.
int EnvInt(const char* name, int fallback, int min) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  const char* end = value + std::strlen(value);
  int parsed = 0;
  const auto [ptr, ec] = std::from_chars(value, end, parsed);
  if (ec == std::errc() && ptr == end && parsed >= min) return parsed;
  std::fprintf(stderr,
               "[kgc] ignoring %s=\"%s\" (expected an integer >= %d); "
               "using %d\n",
               name, value, min, fallback);
  return fallback;
}

bool EnvBool(const char* name, bool fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  if (std::strcmp(value, "1") == 0 || std::strcmp(value, "true") == 0) {
    return true;
  }
  if (std::strcmp(value, "0") == 0 || std::strcmp(value, "false") == 0) {
    return false;
  }
  std::fprintf(stderr,
               "[kgc] ignoring %s=\"%s\" (expected 0, 1, true or false); "
               "using %s\n",
               name, value, fallback ? "true" : "false");
  return fallback;
}

// Same failure semantics as the snapshot rotation failpoints: kCrash
// hard-exits like a SIGKILL, kStall sleeps the payload (the overload lever
// in ci/sanitize.sh), anything else is an injected error for that stage.
Status ServeFailpoint(const std::string& site) {
  FaultKind kind = FaultKind::kEnospc;
  int64_t payload = 0;
  if (!FaultInjector::Get().ShouldFailAt(site, &kind, &payload)) {
    return Status::Ok();
  }
  obs::Registry::Get().GetCounter(obs::kFaultsInjected).Increment();
  switch (kind) {
    case FaultKind::kCrash:
      LogError("injected crash at failpoint %s", site.c_str());
      std::_Exit(137);
    case FaultKind::kStall:
      std::this_thread::sleep_for(std::chrono::milliseconds(payload));
      return Status::Ok();
    default:
      return Status::IoError("injected fault at failpoint " + site);
  }
}

int64_t NowMillis() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

ServeOptions ServeOptions::FromEnv() {
  ServeOptions options;
  options.max_connections =
      EnvInt("KGC_SERVE_MAX_CONNECTIONS", options.max_connections, 1);
  options.queue_capacity =
      EnvInt("KGC_SERVE_QUEUE", options.queue_capacity, 1);
  options.max_batch = EnvInt("KGC_SERVE_MAX_BATCH", options.max_batch, 1);
  options.linger_us = EnvInt("KGC_SERVE_LINGER_US", options.linger_us, 0);
  options.default_deadline_ms =
      EnvInt("KGC_SERVE_DEADLINE_MS", options.default_deadline_ms, 1);
  options.write_timeout_ms =
      EnvInt("KGC_SERVE_WRITE_TIMEOUT_MS", options.write_timeout_ms, 1);
  options.max_k = EnvInt("KGC_SERVE_MAX_K", options.max_k, 1);
  options.force_oracle =
      EnvBool("KGC_SERVE_FORCE_ORACLE", options.force_oracle);
  return options;
}

Server::Connection::~Connection() {
  if (fd >= 0) ::close(fd);
}

Server::Server(const SnapshotRegistry& registry, const ServeOptions& options)
    : registry_(registry),
      options_(options),
      reader_(registry),
      queue_(static_cast<size_t>(std::max(options.queue_capacity, 1))) {}

Server::~Server() { Shutdown(); }

Status Server::Start() {
  if (started_.exchange(true)) {
    return Status::InvalidArgument("server already started");
  }
  struct sockaddr_un addr;
  if (options_.socket_path.empty() ||
      options_.socket_path.size() >= sizeof(addr.sun_path)) {
    return Status::InvalidArgument("bad socket path: " +
                                   options_.socket_path);
  }
  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::IoError(std::string("socket: ") + std::strerror(errno));
  }
  ::unlink(options_.socket_path.c_str());  // stale socket from a SIGKILL
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, options_.socket_path.c_str(),
              options_.socket_path.size() + 1);
  if (::bind(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd_, 128) != 0) {
    int err = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::IoError("bind/listen " + options_.socket_path + ": " +
                           std::strerror(err));
  }
  pinned_generation_.store(reader_.generation_number(),
                           std::memory_order_relaxed);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  batch_thread_ = std::thread([this] { BatchLoop(); });
  return Status::Ok();
}

void Server::AcceptLoop() {
  static obs::Counter& accepted =
      obs::Registry::Get().GetCounter(obs::kServeConnsAccepted);
  static obs::Counter& rejected =
      obs::Registry::Get().GetCounter(obs::kServeConnsRejected);
  while (!stopping_.load(std::memory_order_relaxed)) {
    struct pollfd pfd;
    pfd.fd = listen_fd_;
    pfd.events = POLLIN;
    pfd.revents = 0;
    int rc = ::poll(&pfd, 1, 100);
    if (rc < 0 && errno != EINTR) break;
    if (rc <= 0) continue;
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    if (!ServeFailpoint("serve:accept").ok()) {
      ::close(fd);
      rejected.Increment();
      continue;
    }
    std::lock_guard<std::mutex> lock(conns_mutex_);
    if (stopping_.load(std::memory_order_relaxed) ||
        conns_.size() >= static_cast<size_t>(options_.max_connections)) {
      ::close(fd);
      rejected.Increment();
      continue;
    }
    auto conn = std::make_shared<Connection>(fd);
    conns_.emplace(fd, conn);
    accepted.Increment();
    reader_threads_.emplace_back(
        [this, conn = std::move(conn)]() mutable { ReaderLoop(conn); });
  }
}

void Server::SendReply(const std::shared_ptr<Connection>& conn,
                       const Reply& reply) {
  static obs::Counter& drops =
      obs::Registry::Get().GetCounter(obs::kServeSlowClientDrops);
  if (conn->dead.load(std::memory_order_relaxed)) return;
  const std::string payload = EncodeReply(reply);
  std::lock_guard<std::mutex> lock(conn->write_mutex);
  if (conn->dead.load(std::memory_order_relaxed)) return;
  Status status = WriteFrame(conn->fd, payload, options_.write_timeout_ms);
  if (!status.ok()) {
    // Slow or vanished client: drop it rather than let one connection
    // wedge the batch thread again next reply.
    conn->dead.store(true, std::memory_order_relaxed);
    ::shutdown(conn->fd, SHUT_RDWR);  // kick its blocked reader
    drops.Increment();
  }
}

void Server::FinishRequest(const PendingRequest& pending,
                           const Reply& reply) {
  auto& registry = obs::Registry::Get();
  static obs::Counter& ok = registry.GetCounter(obs::kServeRepliesOk);
  static obs::Counter& deadline =
      registry.GetCounter(obs::kServeDeadlineExceeded);
  static obs::Counter& malformed = registry.GetCounter(obs::kServeMalformed);
  static obs::Counter& degraded = registry.GetCounter(obs::kServeDegraded);
  static obs::Counter& drained = registry.GetCounter(obs::kServeDrained);
  static obs::HdrHistogram& latency =
      registry.GetDurationHistogram(obs::kServeRequestSeconds);
  switch (reply.status) {
    case ReplyStatus::kOk:
      ok.Increment();
      if (reply.flags & kReplyFlagDegraded) degraded.Increment();
      break;
    case ReplyStatus::kDeadlineExceeded:
      deadline.Increment();
      break;
    case ReplyStatus::kMalformed:
      malformed.Increment();
      break;
    default:
      break;
  }
  if (draining_.load(std::memory_order_relaxed)) {
    drained.Increment();
    drained_requests_.fetch_add(1, std::memory_order_relaxed);
  }
  latency.Observe(SecondsSince(pending.received));
  SendReply(pending.conn, reply);
}

void Server::ReaderLoop(std::shared_ptr<Connection> conn) {
  auto& registry = obs::Registry::Get();
  static obs::Counter& requests = registry.GetCounter(obs::kServeRequests);
  static obs::Counter& shed = registry.GetCounter(obs::kServeShed);
  static obs::Counter& malformed = registry.GetCounter(obs::kServeMalformed);
  static obs::Gauge& depth = registry.GetGauge(obs::kServeQueueDepth);
  while (!conn->dead.load(std::memory_order_relaxed)) {
    auto payload = ReadFrame(conn->fd, /*timeout_ms=*/-1);
    if (!payload.ok()) {
      if (payload.status().code() == StatusCode::kInvalidArgument) {
        // Garbage framing (oversized prefix): typed reply, then close.
        malformed.Increment();
        Reply reply;
        reply.status = ReplyStatus::kMalformed;
        SendReply(conn, reply);
      }
      break;  // clean EOF, abrupt disconnect, or the malformed close above
    }
    Request request;
    Status decoded = DecodeRequest(*payload, &request);
    if (!decoded.ok()) {
      malformed.Increment();
      Reply reply;
      reply.status = ReplyStatus::kMalformed;
      SendReply(conn, reply);
      break;
    }
    requests.Increment();
    if (request.type == RequestType::kPing) {
      // Health checks skip the batch path: answered even under overload.
      Reply reply;
      reply.status = ReplyStatus::kOk;
      reply.type = RequestType::kPing;
      reply.id = request.id;
      reply.generation = pinned_generation_.load(std::memory_order_relaxed);
      SendReply(conn, reply);
      continue;
    }
    PendingRequest pending;
    pending.request = request;
    pending.conn = conn;
    pending.received = std::chrono::steady_clock::now();
    uint32_t budget_ms = request.deadline_ms != 0
                             ? request.deadline_ms
                             : static_cast<uint32_t>(std::max(
                                   options_.default_deadline_ms, 1));
    pending.deadline_ms = NowMillis() + budget_ms;
    if (draining_.load(std::memory_order_relaxed) ||
        !queue_.TryPush(std::move(pending))) {
      shed.Increment();
      Reply reply;
      reply.status = ReplyStatus::kOverloaded;
      reply.id = request.id;
      reply.generation = pinned_generation_.load(std::memory_order_relaxed);
      SendReply(conn, reply);
      continue;
    }
    depth.Set(static_cast<double>(queue_.size()));
  }
  conn->dead.store(true, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(conns_mutex_);
  conns_.erase(conn->fd);
}

void Server::BatchLoop() {
  auto& registry = obs::Registry::Get();
  static obs::Gauge& depth = registry.GetGauge(obs::kServeQueueDepth);
  static obs::Histogram& batch_size =
      registry.GetHistogram(obs::kServeBatchSize, {});
  static obs::HdrHistogram& batch_seconds =
      registry.GetDurationHistogram(obs::kServeBatchSeconds);
  while (true) {
    std::vector<PendingRequest> batch = queue_.PopBatch(
        static_cast<size_t>(std::max(options_.max_batch, 1)),
        std::chrono::microseconds(std::max(options_.linger_us, 0)));
    depth.Set(static_cast<double>(queue_.size()));
    if (batch.empty()) break;  // queue closed and drained
    const auto batch_start = std::chrono::steady_clock::now();
    batch_size.Observe(static_cast<double>(batch.size()));
    ServeBatch(batch);
    batch_seconds.Observe(SecondsSince(batch_start));
  }
}

void Server::ServeBatch(std::vector<PendingRequest>& batch) {
  // Batch boundary: hop to the newest generation unless the swap failpoint
  // is injecting trouble — then keep serving the pinned one (which stays
  // valid; that is the whole point of the refcounted pin).
  if (ServeFailpoint("serve:swap").ok()) {
    reader_.Repin();
    pinned_generation_.store(reader_.generation_number(),
                             std::memory_order_relaxed);
  }
  const std::shared_ptr<const LoadedGeneration>& gen = reader_.generation();
  const int64_t gen_number = reader_.generation_number();

  auto reply_all = [&](ReplyStatus status) {
    for (const PendingRequest& pending : batch) {
      Reply reply;
      reply.status = status;
      reply.id = pending.request.id;
      reply.generation = gen_number;
      FinishRequest(pending, reply);
    }
  };
  if (!ServeFailpoint("serve:batch").ok()) {
    reply_all(ReplyStatus::kInternal);
    return;
  }
  if (gen == nullptr || gen->model == nullptr) {
    reply_all(ReplyStatus::kUnavailable);
    return;
  }
  const KgeModel& model = *gen->model;

  if (gen->manifest.generation != cached_generation_) {
    TripleClassificationOptions copt;
    copt.seed = options_.classify_seed;
    thresholds_ = FitClassificationThresholds(model, gen->dataset, copt);
    cached_generation_ = gen->manifest.generation;
  }

  // Deadline triage before any scoring: an expired request must not spend
  // sweep time, and a typed reply beats silently late data.
  const int64_t now_ms = NowMillis();
  std::vector<Reply> replies(batch.size());
  std::vector<size_t> live;
  live.reserve(batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    Reply& reply = replies[i];
    reply.id = batch[i].request.id;
    reply.generation = gen_number;
    reply.type = batch[i].request.type;
    if (now_ms > batch[i].deadline_ms) {
      reply.status = ReplyStatus::kDeadlineExceeded;
      continue;
    }
    live.push_back(i);
  }

  // Validate ids against the pinned generation before touching embedding
  // tables; online clients can name anything.
  std::vector<size_t> topk_indices;
  std::vector<Triple> classify_triples;
  std::vector<size_t> classify_indices;
  uint32_t max_k_needed = 0;
  for (size_t i : live) {
    const Request& request = batch[i].request;
    Reply& reply = replies[i];
    if (request.type == RequestType::kTopK) {
      if (request.k == 0 || request.relation < 0 ||
          request.relation >= model.num_relations() || request.anchor < 0 ||
          request.anchor >= model.num_entities()) {
        reply.status = ReplyStatus::kMalformed;
        continue;
      }
      topk_indices.push_back(i);
      uint32_t k = std::min<uint32_t>(
          std::min<uint32_t>(request.k,
                             static_cast<uint32_t>(
                                 std::max(options_.max_k, 1))),
          static_cast<uint32_t>(model.num_entities()));
      max_k_needed = std::max(max_k_needed, k);
    } else {
      const Triple& t = request.triple;
      if (t.head < 0 || t.head >= model.num_entities() || t.tail < 0 ||
          t.tail >= model.num_entities() || t.relation < 0 ||
          t.relation >= model.num_relations()) {
        reply.status = ReplyStatus::kMalformed;
        continue;
      }
      classify_indices.push_back(i);
      classify_triples.push_back(t);
    }
  }

  if (!classify_indices.empty()) {
    std::vector<ClassifiedTriple> classified =
        ClassifyTriples(model, thresholds_, classify_triples);
    for (size_t j = 0; j < classify_indices.size(); ++j) {
      Reply& reply = replies[classify_indices[j]];
      reply.status = ReplyStatus::kOk;
      reply.score = static_cast<float>(classified[j].score);
      reply.label = classified[j].label;
      reply.threshold = static_cast<float>(classified[j].threshold);
    }
  }

  if (!topk_indices.empty()) {
    // One engine run for the whole batch at the largest clamped K; each
    // request keeps its own-K prefix. Top-K lists are a pure function of
    // the model (score desc, entity asc total order), so a K' prefix of a
    // K-run equals a direct K'-run bit for bit.
    std::vector<TopKQuery> queries;
    queries.reserve(topk_indices.size());
    for (size_t i : topk_indices) {
      const Request& request = batch[i].request;
      TopKQuery query;
      query.tails = request.tails;
      query.relation = request.relation;
      query.anchor = request.anchor;
      queries.push_back(std::move(query));
    }
    TopKOptions topt;
    topt.k = static_cast<int>(std::max<uint32_t>(max_k_needed, 1));
    topt.threads = 1;  // the blocked sweep is the batching; keep it exact
    const TripleStore& filter = gen->dataset.all_store();
    std::vector<TopKResult> results;
    if (options_.force_oracle) {
      results.reserve(queries.size());
      for (const TopKQuery& query : queries) {
        results.push_back(
            TopKEngine::OracleTopK(model, query, topt.k, &filter));
      }
    } else {
      TopKEngine engine(model, topt);
      results = engine.Run(queries, &filter);
    }
    for (size_t j = 0; j < topk_indices.size(); ++j) {
      const Request& request = batch[topk_indices[j]].request;
      Reply& reply = replies[topk_indices[j]];
      reply.status = ReplyStatus::kOk;
      if (options_.force_oracle) reply.flags |= kReplyFlagDegraded;
      const std::vector<TopKEntry>& list =
          request.filtered ? results[j].filtered : results[j].raw;
      uint32_t k = std::min<uint32_t>(
          std::min<uint32_t>(request.k,
                             static_cast<uint32_t>(
                                 std::max(options_.max_k, 1))),
          static_cast<uint32_t>(model.num_entities()));
      reply.entries.assign(
          list.begin(),
          list.begin() + std::min<size_t>(list.size(), k));
    }
  }

  if (!ServeFailpoint("serve:reply").ok()) {
    // Injected reply-stage failure: suppress the writes. Clients see a
    // dropped response (transport error), never a corrupt one.
    return;
  }
  for (size_t i = 0; i < batch.size(); ++i) {
    FinishRequest(batch[i], replies[i]);
  }
}

DrainStats Server::Shutdown() {
  DrainStats stats;
  if (!started_.load(std::memory_order_relaxed) ||
      stopping_.exchange(true)) {
    stats.drained_requests =
        drained_requests_.load(std::memory_order_relaxed);
    return stats;
  }
  draining_.store(true, std::memory_order_relaxed);
  if (accept_thread_.joinable()) accept_thread_.join();
  {
    // Wake every reader out of its blocking read; queued work still gets
    // answered below before the sockets close.
    std::lock_guard<std::mutex> lock(conns_mutex_);
    stats.connections_open = conns_.size();
    for (auto& [fd, conn] : conns_) ::shutdown(fd, SHUT_RD);
  }
  std::vector<std::thread> readers;
  {
    std::lock_guard<std::mutex> lock(conns_mutex_);
    readers.swap(reader_threads_);
  }
  for (std::thread& t : readers) {
    if (t.joinable()) t.join();
  }
  queue_.Close();
  if (batch_thread_.joinable()) batch_thread_.join();
  {
    std::lock_guard<std::mutex> lock(conns_mutex_);
    conns_.clear();
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    ::unlink(options_.socket_path.c_str());
  }
  stats.drained_requests = drained_requests_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace kgc::serve
