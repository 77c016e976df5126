// ParallelFor: deterministic data-parallel loops over the shared thread
// pool.
//
// The contract is "same bytes out, N× faster": a loop parallelized with
// ParallelFor must produce output that is bit-identical for every thread
// count, including 1. Two properties make that easy to uphold:
//
//   1. Static range sharding. The index range [0, n) is split into S
//      contiguous shards with boundaries n*s/S — a pure function of (n, S).
//      There is no work stealing and no dynamic chunking, so which indexes
//      land together is reproducible run to run.
//   2. Shard-indexed scratch. The body receives its shard index, so callers
//      keep one scratch buffer (score arrays, local result vectors,
//      partial counters) per shard — sized with PlannedShards — and merge
//      them in shard order afterwards. Merging in shard order yields the
//      exact sequence a serial loop would have produced.
//
// Thread count resolution: an explicit `threads` argument wins; 0 defers to
// DefaultThreadCount(), which reads the KGC_THREADS environment variable
// (once, on first use) and falls back to std::thread::hardware_concurrency.
//
// Nested ParallelFor calls — a body spawning another ParallelFor — are
// rejected down to serial execution on the calling worker. The inner loop
// still runs and still honors the determinism contract (it executes as a
// single shard); it simply does not multiply the worker count.

#ifndef KGC_UTIL_PARALLEL_H_
#define KGC_UTIL_PARALLEL_H_

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>

#include "obs/trace.h"
#include "util/thread_pool.h"

namespace kgc {

/// Threads from KGC_THREADS (a whole number >= 1, see obs/env.h) else
/// hardware_concurrency; always >= 1.
int DefaultThreadCount();

namespace internal_parallel {
inline thread_local bool in_parallel_region = false;
}  // namespace internal_parallel

/// True while the calling thread is executing a ParallelFor shard.
inline bool InParallelRegion() {
  return internal_parallel::in_parallel_region;
}

/// `threads` if positive, else DefaultThreadCount().
inline int ResolveThreadCount(int threads) {
  return threads > 0 ? threads : DefaultThreadCount();
}

/// Number of shards ParallelFor(n, threads, ...) partitions [0, n) into:
/// min(resolved thread count, n), or 0 when n == 0. Size per-shard scratch
/// with this. Every shard is non-empty.
inline int PlannedShards(size_t n, int threads = 0) {
  if (n == 0) return 0;
  return static_cast<int>(
      std::min(n, static_cast<size_t>(ResolveThreadCount(threads))));
}

/// Runs body(begin, end, shard) over the static partition of [0, n) into
/// PlannedShards(n, threads) contiguous shards. Shard 0 executes on the
/// calling thread; the rest on the shared pool. Returns after every shard
/// completes. With n == 0 the body is never called; nested calls and
/// single-shard plans execute serially inline.
inline void ParallelFor(size_t n, int threads,
                        const std::function<void(size_t, size_t, int)>& body) {
  const int planned = PlannedShards(n, threads);
  if (planned == 0) return;
  if (planned == 1 || internal_parallel::in_parallel_region) {
    obs::TraceSpan span("parallel_for.shard");
    span.AddArgInt("shard", 0);
    span.AddArgInt("n", static_cast<long long>(n));
    body(0, n, 0);
    return;
  }
  const size_t shards = static_cast<size_t>(planned);
  ThreadPool& pool = ThreadPool::Shared();
  pool.EnsureWorkers(planned - 1);

  std::mutex mutex;
  std::condition_variable all_done;
  size_t remaining = shards - 1;
  for (size_t s = 1; s < shards; ++s) {
    pool.Submit([&, s] {
      internal_parallel::in_parallel_region = true;
      {
        obs::TraceSpan span("parallel_for.shard");
        span.AddArgInt("shard", static_cast<long long>(s));
        span.AddArgInt("begin", static_cast<long long>(n * s / shards));
        span.AddArgInt("end", static_cast<long long>(n * (s + 1) / shards));
        body(n * s / shards, n * (s + 1) / shards, static_cast<int>(s));
      }
      internal_parallel::in_parallel_region = false;
      std::lock_guard<std::mutex> lock(mutex);
      if (--remaining == 0) all_done.notify_one();
    });
  }
  internal_parallel::in_parallel_region = true;
  {
    obs::TraceSpan span("parallel_for.shard");
    span.AddArgInt("shard", 0);
    span.AddArgInt("begin", 0);
    span.AddArgInt("end", static_cast<long long>(n / shards));
    body(0, n / shards, 0);
  }
  internal_parallel::in_parallel_region = false;
  std::unique_lock<std::mutex> lock(mutex);
  all_done.wait(lock, [&] { return remaining == 0; });
}

}  // namespace kgc

#endif  // KGC_UTIL_PARALLEL_H_
