// Online link-prediction server (DESIGN.md "Serving").
//
// Serves top-K retrieval (TopKEngine) and triple classification over the
// length-prefixed protocol in serve/protocol.h, reading model state through
// a SnapshotReader pin that hops generations between batches — rotation
// never blocks a query, and a query never sees a half-swapped model.
//
// Thread layout: one accept thread, one reader thread per connection, one
// batch thread. Readers decode frames and push PendingRequests into a
// BoundedQueue; the batch thread pops whatever is queued (up to max_batch)
// and scores that batch's top-K queries in one TopKEngine run.
//
// Robustness contract (every mode typed, tested, and metered):
//   overload     full queue => immediate OVERLOADED reply  (kgc.serve.shed)
//   deadline     expired before scoring => DEADLINE_EXCEEDED, never scored
//   malformed    bad frame => MALFORMED reply, connection closed
//   slow client  write timeout => drop + close (kgc.serve.slow_client_drops)
//   rotation     Repin between batches; replies carry the generation
//   SIGTERM      Shutdown(): stop accepting, drain the queue, answer
//                everything queued, then exit (kgc.serve.drained_requests)
//
// FaultInjector sites, consulted at each stage boundary (kCrash exits 137,
// kStall sleeps, anything else is an injected error for that stage):
//   serve:accept   per accepted connection, before handing to a reader
//   serve:swap     before the batch-boundary Repin (repin skipped on error)
//   serve:batch    before scoring a batch (whole batch replies INTERNAL)
//   serve:reply    before writing a batch's replies (writes suppressed)

#ifndef KGC_SERVE_SERVER_H_
#define KGC_SERVE_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "eval/triple_classification.h"
#include "serve/bounded_queue.h"
#include "serve/protocol.h"
#include "snapshot/snapshot_registry.h"
#include "util/status.h"

namespace kgc::serve {

struct ServeOptions {
  /// Unix-domain socket path the server listens on.
  std::string socket_path;
  /// Connections beyond this are accepted and immediately closed
  /// (kgc.serve.connections_rejected).
  int max_connections = 64;
  /// Bounded request queue; TryPush failure is the shed path.
  int queue_capacity = 256;
  /// Most requests popped, and scored in one engine run, per batch.
  int max_batch = 32;
  /// A batch never waits for stragglers; it scores whatever is queued at
  /// once. At served rates few requests arrive within a linger, and those
  /// that do are spread over many (direction, relation) groups, so they
  /// rarely share a sweep. Kept for kgcbench's provenance key.
  static constexpr int linger_us = 0;
  /// Request deadline when the client passes 0.
  int default_deadline_ms = 1000;
  /// Per-reply write budget; overrun drops the client.
  int write_timeout_ms = 2000;
  /// K is clamped to this (and to num_entities).
  int max_k = 1024;
  /// The top-K engine has no pruner; kept for kgcbench's provenance key.
  static constexpr bool prune = false;
  /// Top-K has one path; kept for kgcbench's provenance key.
  static constexpr bool force_oracle = false;
  /// Seed for classification threshold fitting; kgc_load must use the same
  /// seed for its expected fingerprints to match.
  uint64_t classify_seed = 99;

  /// Defaults overlaid with KGC_SERVE_MAX_CONNECTIONS, KGC_SERVE_QUEUE,
  /// KGC_SERVE_MAX_BATCH, KGC_SERVE_DEADLINE_MS, KGC_SERVE_WRITE_TIMEOUT_MS
  /// and KGC_SERVE_MAX_K. Each must be a whole decimal value of at least 1
  /// (obs/env.h); a bad value warns on stderr and keeps the default.
  static ServeOptions FromEnv();
};

/// What Shutdown() observed while draining (also in kgc.serve.*).
struct DrainStats {
  uint64_t drained_requests = 0;
  uint64_t connections_open = 0;
};

class Server {
 public:
  /// `registry` must outlive the server.
  Server(const SnapshotRegistry& registry, const ServeOptions& options);
  ~Server();

  /// Binds the socket (replacing any stale file) and starts the accept and
  /// batch threads. Call once.
  Status Start();

  /// Drain-then-stop: closes the listener, wakes every reader, answers
  /// everything already queued, then joins all threads. Idempotent. Safe
  /// from the main thread after a signal flag — not from the handler.
  DrainStats Shutdown();

  /// Generation currently pinned by the batch loop (-1 when empty).
  int64_t pinned_generation() const {
    return pinned_generation_.load(std::memory_order_relaxed);
  }

 private:
  struct Connection {
    explicit Connection(int fd) : fd(fd) {}
    ~Connection();
    int fd;
    std::mutex write_mutex;
    std::atomic<bool> dead{false};
  };

  struct PendingRequest {
    Request request;
    std::shared_ptr<Connection> conn;
    /// Absolute steady-clock deadline, ms.
    int64_t deadline_ms = 0;
    std::chrono::steady_clock::time_point received;
  };

  void AcceptLoop();
  void ReaderLoop(std::shared_ptr<Connection> conn);
  void BatchLoop();
  void ServeBatch(std::vector<PendingRequest>& batch);
  /// Writes one reply under the connection's write mutex with the write
  /// timeout; drops + closes the connection on failure.
  void SendReply(const std::shared_ptr<Connection>& conn, const Reply& reply);
  void FinishRequest(const PendingRequest& pending, const Reply& reply);

  const SnapshotRegistry& registry_;
  const ServeOptions options_;
  SnapshotReader reader_;  // batch-thread only after Start()

  int listen_fd_ = -1;
  std::atomic<bool> started_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<bool> draining_{false};
  std::atomic<int64_t> pinned_generation_{-1};
  std::atomic<uint64_t> drained_requests_{0};

  BoundedQueue<PendingRequest> queue_;
  std::thread accept_thread_;
  std::thread batch_thread_;

  std::mutex conns_mutex_;
  std::unordered_map<int, std::shared_ptr<Connection>> conns_;
  std::vector<std::thread> reader_threads_;

  // Batch-thread cache: the pinned generation's classification thresholds,
  // refit when the pin moves to a new generation.
  int64_t cached_generation_ = -2;
  ClassificationThresholds thresholds_;
};

}  // namespace kgc::serve

#endif  // KGC_SERVE_SERVER_H_
