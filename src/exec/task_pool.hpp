#pragma once

// TaskPool: the shared parallel execution engine (docs/ENGINE.md).
//
// A deliberately work-stealing-free fork-join pool: `parallel_for(n, body)`
// hands out indices 0..n-1 from a single atomic counter and blocks until
// all of them ran. Scheduling order is nondeterministic, but results are
// not allowed to depend on it - the engine's contract is that every task
// owns its index (its own RNG sub-seed, its own output slot) and callers
// reduce the per-index results in index order. Under that contract the
// aggregate is bit-identical for any thread count, including the serial
// fallback, which is what the `engine` test label asserts.
//
// Exceptions thrown by a task are captured; the first one (by completion
// order) is rethrown from parallel_for after the batch drains.
//
// Nested use runs inline. A parallel_for called from inside a task of any
// TaskPool (this one included) is a plain ascending loop on the calling
// thread: the same index order, per-index slots and first-exception
// behaviour as a one-thread pool, and no batch state of the pool is
// touched, so the outer batch cannot deadlock on it. Layers therefore call
// their pool unconditionally; whether that runs in parallel is decided
// here and nowhere else. A pool without workers (threads == 1) keeps no
// batch state at all, so any number of threads may share one.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

namespace ndpcr::exec {

// Thread count used when a TaskPool is built with `threads == 0`: the
// NDPCR_THREADS environment variable if set (>= 1), otherwise
// std::thread::hardware_concurrency(). Always >= 1.
unsigned default_thread_count();

class TaskPool {
 public:
  // A pool of `threads` executors (0 = default_thread_count()). The
  // calling thread participates in every batch, so `threads == 1` spawns
  // no workers at all and parallel_for degenerates to a plain loop.
  explicit TaskPool(unsigned threads = 0);
  ~TaskPool();

  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

  [[nodiscard]] unsigned thread_count() const;

  // Run body(i) for every i in [0, n). Blocks until every index ran (or
  // the batch was cut short by an exception, which is rethrown here).
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body);

  // Same contract, but executors claim indices in blocks of `grain`
  // (clamped to >= 1). Within a block indices run in ascending order, so
  // a caller that already owns per-index slots sees identical results -
  // grain changes only how much work one atomic claim amortizes. A batch
  // of ceil(n/grain) == 1 task runs inline on the calling thread, and
  // only min(workers, tasks - 1) sleepers are woken, so oversubscribed
  // hosts stop paying a full notify_all storm for a handful of tiny
  // tasks.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body,
                    std::size_t grain);

  // parallel_for that collects fn(i) into a vector, index-ordered. The
  // result type must be default-constructible; reduce the vector in index
  // order to keep aggregates thread-count-invariant.
  template <typename Fn>
  auto parallel_map(std::size_t n, Fn&& fn)
      -> std::vector<decltype(fn(std::size_t{}))> {
    std::vector<decltype(fn(std::size_t{}))> out(n);
    parallel_for(n, [&](std::size_t i) { out[i] = fn(i); });
    return out;
  }

  // True while the calling thread runs a task of any TaskPool (so a
  // parallel_for it makes now runs inline).
  static bool in_worker();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

// The process-wide pool used by default-parallel entry points
// (TimelineSimulator::run_trials, the Evaluator optimizers, the study and
// cluster drivers). Built lazily with default_thread_count() threads.
TaskPool& global_pool();

// Rebuild the global pool with an explicit thread count (0 = default).
// Must not be called while a parallel batch is in flight; the bench
// harnesses call it once while parsing --threads.
void set_global_threads(unsigned threads);

// Thread count the global pool currently has (without forcing its
// construction parameters to change): convenience for run metadata.
unsigned global_thread_count();

// SplitMix64-derived sub-seed: statistically independent streams for
// (base, 0), (base, 1), ... even when base seeds are small consecutive
// integers. Used for per-replicate seeding where no serial-compatibility
// constraint pins the scheme (run_trials keeps its historical `seed + t`
// per-trial seeds so parallel results stay bit-identical to the serial
// path that predates the engine).
std::uint64_t sub_seed(std::uint64_t base, std::uint64_t index);

// Two-level sub-seed: independent streams for (base, index, index2)
// triples. The service layer (src/svc) derives every tenant's workload,
// schedule and fault streams this way so one seed fans out to thousands
// of tenants without correlated streams.
std::uint64_t sub_seed(std::uint64_t base, std::uint64_t index,
                       std::uint64_t index2);

}  // namespace ndpcr::exec
