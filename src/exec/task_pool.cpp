#include "exec/task_pool.hpp"

#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <mutex>
#include <thread>

namespace ndpcr::exec {
namespace {

// Set while a thread is executing inside any TaskPool batch (workers for
// their lifetime, the submitting thread only while it participates).
thread_local bool tl_in_worker = false;

// Marks the calling thread as inside a batch for the scope's lifetime and
// restores the previous state on exit, exceptions included.
class WorkerScope {
 public:
  WorkerScope() : outer_(tl_in_worker) { tl_in_worker = true; }
  ~WorkerScope() { tl_in_worker = outer_; }
  WorkerScope(const WorkerScope&) = delete;
  WorkerScope& operator=(const WorkerScope&) = delete;

 private:
  bool outer_;
};

}  // namespace

unsigned default_thread_count() {
  if (const char* env = std::getenv("NDPCR_THREADS")) {
    const long n = std::strtol(env, nullptr, 10);
    if (n >= 1) return static_cast<unsigned>(n);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

struct TaskPool::Impl {
  // Per-batch state. All fields are written by the submitting thread under
  // `m` while no worker is active; workers snapshot them under `m` when
  // they join a batch, so no unlocked write/read pair exists.
  const std::function<void(std::size_t)>* job = nullptr;
  std::size_t job_size = 0;
  std::size_t job_grain = 1;
  std::atomic<std::size_t> next{0};
  std::uint64_t generation = 0;

  std::mutex m;
  std::condition_variable cv_work;   // workers wait for a new generation
  std::condition_variable cv_done;   // submitter waits for active == 0
  unsigned active = 0;
  bool stop = false;

  std::mutex error_m;
  std::exception_ptr error;

  std::vector<std::thread> workers;
  unsigned thread_count = 1;

  void run_indices(const std::function<void(std::size_t)>& fn, std::size_t n,
                   std::size_t grain) {
    const WorkerScope scope;
    bool aborted = false;
    while (!aborted) {
      // One atomic claim per block of `grain` indices; indices inside a
      // block run in ascending order, so per-index-slot callers see the
      // same results as grain == 1.
      const std::size_t base = next.fetch_add(grain, std::memory_order_relaxed);
      if (base >= n) break;
      const std::size_t end = std::min(base + grain, n);
      for (std::size_t i = base; i < end; ++i) {
        try {
          fn(i);
        } catch (...) {
          std::lock_guard<std::mutex> lk(error_m);
          if (!error) error = std::current_exception();
          // Cut the batch short: unclaimed indices are abandoned.
          next.store(n, std::memory_order_relaxed);
          aborted = true;
          break;
        }
      }
    }
  }

  void worker_loop() {
    std::uint64_t seen = 0;
    std::unique_lock<std::mutex> lk(m);
    for (;;) {
      cv_work.wait(lk, [&] { return stop || generation != seen; });
      if (stop) return;
      seen = generation;
      // Snapshot the batch under the lock; the submitter only mutates
      // job/job_size when no worker is active.
      const auto* fn = job;
      const std::size_t n = job_size;
      const std::size_t grain = job_grain;
      if (fn == nullptr) continue;  // batch already fully retired
      ++active;
      lk.unlock();
      run_indices(*fn, n, grain);
      lk.lock();
      if (--active == 0) cv_done.notify_all();
    }
  }
};

TaskPool::TaskPool(unsigned threads) : impl_(std::make_unique<Impl>()) {
  impl_->thread_count = threads == 0 ? default_thread_count() : threads;
  for (unsigned t = 1; t < impl_->thread_count; ++t) {
    impl_->workers.emplace_back([impl = impl_.get()] { impl->worker_loop(); });
  }
}

TaskPool::~TaskPool() {
  {
    std::lock_guard<std::mutex> lk(impl_->m);
    impl_->stop = true;
  }
  impl_->cv_work.notify_all();
  for (auto& w : impl_->workers) w.join();
}

unsigned TaskPool::thread_count() const { return impl_->thread_count; }

bool TaskPool::in_worker() { return tl_in_worker; }

void TaskPool::parallel_for(std::size_t n,
                            const std::function<void(std::size_t)>& body) {
  parallel_for(n, body, 1);
}

void TaskPool::parallel_for(std::size_t n,
                            const std::function<void(std::size_t)>& body,
                            std::size_t grain) {
  if (n == 0) return;
  if (grain == 0) grain = 1;
  const std::size_t tasks = (n + grain - 1) / grain;
  if (in_worker() || impl_->workers.empty() || tasks == 1) {
    // Inline: a nested call (the outer batch may still own this pool's
    // batch state), a pool with no workers, or a single task. A plain
    // ascending loop touches no batch state, so the first throw aborts
    // the remainder and propagates as it does from a pooled batch.
    const WorkerScope scope;
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }
  {
    std::lock_guard<std::mutex> lk(impl_->m);
    impl_->job = &body;
    impl_->job_size = n;
    impl_->job_grain = grain;
    impl_->next.store(0, std::memory_order_relaxed);
    impl_->error = nullptr;
    ++impl_->generation;
  }
  // The submitting thread takes one task itself, so only tasks - 1 helpers
  // can possibly find work: waking more just burns wakeups (and on an
  // oversubscribed host, context switches) on threads that will claim
  // nothing. Unwoken workers stay parked; their generation check catches
  // them up on whichever future batch wakes them.
  if (tasks - 1 >= impl_->workers.size()) {
    impl_->cv_work.notify_all();
  } else {
    for (std::size_t w = 0; w < tasks - 1; ++w) impl_->cv_work.notify_one();
  }
  impl_->run_indices(body, n, grain);  // the submitting thread pulls its weight
  {
    std::unique_lock<std::mutex> lk(impl_->m);
    impl_->cv_done.wait(lk, [&] { return impl_->active == 0; });
    impl_->job = nullptr;  // late wakers see a retired batch and skip it
  }
  if (impl_->error) std::rethrow_exception(impl_->error);
}

namespace {

std::mutex g_pool_mutex;
std::unique_ptr<TaskPool> g_pool;

}  // namespace

TaskPool& global_pool() {
  std::lock_guard<std::mutex> lk(g_pool_mutex);
  if (!g_pool) g_pool = std::make_unique<TaskPool>();
  return *g_pool;
}

void set_global_threads(unsigned threads) {
  std::lock_guard<std::mutex> lk(g_pool_mutex);
  g_pool = std::make_unique<TaskPool>(threads);
}

unsigned global_thread_count() { return global_pool().thread_count(); }

std::uint64_t sub_seed(std::uint64_t base, std::uint64_t index) {
  // splitmix64 over base + index * golden-gamma: the same finalizer the
  // Rng seeding uses, so sub-streams are as independent as reseeds.
  std::uint64_t z = base + (index + 1) * 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::uint64_t sub_seed(std::uint64_t base, std::uint64_t index,
                       std::uint64_t index2) {
  return sub_seed(sub_seed(base, index), index2);
}

}  // namespace ndpcr::exec
