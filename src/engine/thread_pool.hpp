// Fork-join thread pool used to execute the per-worker loops of a simulated
// iteration in parallel on the host.
//
// Host parallelism is a wall-clock optimization only: virtual time is charged
// from flop counts (simnet::CostModel), so results are identical whether the
// pool has 1 or 64 threads. The engine relies on this, so a parallel region
// never folds across threads: each index owns disjoint state, and a shared
// reduction chunks over coordinates so that every coordinate folds its
// terms in one fixed order, whatever thread runs its chunk.
//
// The pool is allocation-free in steady state: a parallel region publishes a
// raw (function pointer, context) pair to the resident worker threads and
// hands out chunks through an atomic cursor, so no std::function, task queue
// node, or other heap traffic occurs per call. This keeps ParallelFor usable
// inside the zero-allocation iteration hot path (see DESIGN.md "Performance").
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace psra::engine {

class ThreadPool {
 public:
  /// `num_threads` == 0 picks std::thread::hardware_concurrency().
  explicit ThreadPool(std::size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Tests only: disable the single-core inline shortcut so the worker
  /// broadcast path runs even on a 1-CPU host.
  void ForceParallelDispatchForTesting() { serial_dispatch_ = false; }

  /// Seconds on the calling thread's private stopwatch (each thread's epoch
  /// is fixed at first use). A loop body that reads it before and after its
  /// work measures the host wall time of exactly that body on whichever
  /// pool thread ran it — the basis for per-worker wall attribution in the
  /// observability layer (EngineObs::SpanAllWall). Only differences taken on
  /// the same thread are meaningful.
  static double ThreadSeconds();

  /// Runs body(i) for i in [0, count), distributing across the pool and
  /// blocking until all complete. The calling thread participates in the
  /// work. Exceptions from bodies are rethrown (the first one encountered);
  /// remaining indices still run. Nested calls — from inside a body, on any
  /// thread — execute serially inline rather than deadlocking.
  template <typename Body>
  void ParallelFor(std::size_t count, Body&& body) {
    ParallelFor(count, /*grain=*/1,
                [&body](std::size_t begin, std::size_t end) {
                  for (std::size_t i = begin; i < end; ++i) body(i);
                });
  }

  /// Chunked overload: runs body(begin, end) over half-open sub-ranges of
  /// [0, count) of at most `grain` indices each. Prefer this for cheap
  /// per-index work, where handing out single indices would be all
  /// contention. grain == 0 is treated as 1. Same blocking/exception/nesting
  /// contract as the per-index overload.
  template <typename Body>
  void ParallelFor(std::size_t count, std::size_t grain, Body&& body) {
    using Fn = std::remove_reference_t<Body>;
    RunBlocked(count, grain,
               [](void* ctx, std::size_t begin, std::size_t end) {
                 (*static_cast<Fn*>(ctx))(begin, end);
               },
               const_cast<void*>(
                   static_cast<const void*>(std::addressof(body))));
  }

 private:
  using BlockFn = void (*)(void* ctx, std::size_t begin, std::size_t end);

  void RunBlocked(std::size_t count, std::size_t grain, BlockFn fn, void* ctx);
  void WorkerLoop();
  void RunChunks(BlockFn fn, void* ctx, std::size_t count, std::size_t grain);

  std::vector<std::thread> workers_;

  // Single-core host: job broadcast can never win, run regions inline.
  bool serial_dispatch_ = false;

  // One parallel region at a time; re-entrant calls fall back to serial.
  std::mutex region_mutex_;

  // Job broadcast state, all guarded by mutex_ (job_cursor_ is the only
  // field touched outside it, by design).
  std::mutex mutex_;
  std::condition_variable job_cv_;   // workers: "a new job is published"
  std::condition_variable done_cv_;  // caller: "all workers drained the job"
  std::uint64_t job_generation_ = 0;
  BlockFn job_fn_ = nullptr;
  void* job_ctx_ = nullptr;
  std::size_t job_count_ = 0;
  std::size_t job_grain_ = 1;
  std::size_t workers_active_ = 0;
  std::exception_ptr job_error_;
  bool stop_ = false;

  std::atomic<std::size_t> job_cursor_{0};
};

/// Serial fallback with the same contract; used when no pool is available.
template <typename Body>
void SerialFor(std::size_t count, Body&& body) {
  for (std::size_t i = 0; i < count; ++i) body(i);
}

}  // namespace psra::engine
