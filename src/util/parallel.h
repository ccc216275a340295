// Parallel execution utilities: a process-wide thread pool plus chunked
// parallel-for helpers used by the query kernels (hash-join probe loops,
// semi-naive fixpoint rounds and Datalog rule matching) and threaded through every evaluator entry
// point via ExecOptions.
//
// Determinism contract: all helpers here produce results that are
// independent of the thread count and of scheduling.  Work is split
// into *chunks* whose boundaries depend only on (n, chunks) — never on
// which worker ran what — and per-chunk output buffers are merged in
// chunk order.  A kernel that partitions its input with SplitEven,
// writes only into its chunk's buffer, and concatenates in order is
// byte-identical for 1, 2, or any number of threads.
//
// Scheduling is dynamic (workers claim chunks from a shared counter),
// so skewed chunks still load-balance; determinism is unaffected
// because outputs are indexed by chunk, not by worker.

#ifndef TRIAL_UTIL_PARALLEL_H_
#define TRIAL_UTIL_PARALLEL_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace trial {

/// std::thread::hardware_concurrency with a sane floor (some containers
/// report 0) and a ceiling that keeps per-worker state bounded.
size_t HardwareThreads();

/// Execution knobs for the parallel query kernels, embedded in
/// EvalOptions / DatalogOptions and honored by every evaluator.
struct ExecOptions {
  /// Worker threads for the parallel kernels.  1 = serial (the
  /// default: no behavioral or overhead change for existing callers);
  /// 0 = one worker per hardware thread.
  size_t num_threads = 1;

  /// Inputs with fewer items than this stay serial even when
  /// num_threads > 1: below it, chunk bookkeeping and the pool handoff
  /// cost more than the saved work, so small inputs pay no overhead.
  size_t min_parallel_items = 2048;

  /// The resolved worker count: num_threads, or HardwareThreads() for 0.
  size_t EffectiveThreads() const {
    return num_threads == 0 ? HardwareThreads() : num_threads;
  }

  /// True when a kernel over `n` items should take its parallel path.
  bool ShouldParallelize(size_t n) const {
    return EffectiveThreads() > 1 && n >= min_parallel_items;
  }
};

/// One contiguous chunk of [0, n).
struct ChunkRange {
  size_t begin = 0;
  size_t end = 0;
  size_t size() const { return end - begin; }
};

/// Splits [0, n) into at most `chunks` contiguous near-equal ranges
/// (sizes differ by at most one; empty ranges are never produced except
/// for the single chunk covering n == 0).  Deterministic: depends only
/// on (n, chunks).
std::vector<ChunkRange> SplitEven(size_t n, size_t chunks);

/// The process-wide worker pool backing ParallelFor.  Workers are
/// spawned lazily on first use and live for the process; each Run hands
/// them one job (a task count plus a function) and blocks until every
/// task finished.  Only one job is active at a time — concurrent Run
/// calls from distinct threads serialize, and a Run issued from inside
/// a pool task executes inline (serially) instead of deadlocking.
class ThreadPool {
 public:
  /// The lazily-created global pool, sized to HardwareThreads().
  static ThreadPool& Global();

  /// A pool whose Run can use up to `max_threads` workers (the calling
  /// thread counts as one; max_threads - 1 threads are spawned).
  explicit ThreadPool(size_t max_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Workers available to a Run, calling thread included.
  size_t max_threads() const { return workers_.size() + 1; }

  /// Runs fn(task) for every task in [0, num_tasks), using at most
  /// `parallelism` concurrent threads (calling thread included), and
  /// returns when all tasks completed.  Tasks are claimed dynamically;
  /// any task may run on any participating thread.  Executes inline
  /// when parallelism <= 1, num_tasks <= 1, or the caller is itself a
  /// pool task.
  void Run(size_t num_tasks, size_t parallelism,
           const std::function<void(size_t)>& fn);

 private:
  struct Job;

  void WorkerLoop(size_t index);
  void RunTasks(Job& job);

  std::mutex run_mu_;  // serializes concurrent Run calls
  std::mutex mu_;      // guards job_/epoch_/stop_
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::shared_ptr<Job> job_;
  uint64_t epoch_ = 0;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

/// Runs fn(chunk) for chunk in [0, num_chunks) on the global pool with
/// at most `threads` concurrent workers.  Blocks until done.
void ParallelFor(size_t num_chunks, size_t threads,
                 const std::function<void(size_t)>& fn);

/// Chunks per participating thread: oversplitting lets dynamic
/// scheduling absorb skew (a chunk of hot Zipf keys finishing late)
/// without hurting determinism.
inline constexpr size_t kChunksPerThread = 4;

/// The canonical parallel-map shape: splits [0, n) into even chunks,
/// runs body(chunk_index, begin, end, &buffer) with a private output
/// buffer per chunk, and concatenates the buffers in chunk order — the
/// deterministic in-order merge the kernels rely on.
template <typename T, typename Body>
std::vector<T> ParallelChunkedCollect(size_t n, size_t threads,
                                      const Body& body) {
  std::vector<ChunkRange> chunks =
      SplitEven(n, threads > 1 ? threads * kChunksPerThread : 1);
  std::vector<std::vector<T>> parts(chunks.size());
  ParallelFor(chunks.size(), threads, [&](size_t c) {
    body(c, chunks[c].begin, chunks[c].end, &parts[c]);
  });
  size_t total = 0;
  for (const std::vector<T>& p : parts) total += p.size();
  std::vector<T> out;
  out.reserve(total);
  for (std::vector<T>& p : parts) {
    out.insert(out.end(), p.begin(), p.end());
  }
  return out;
}

}  // namespace trial

#endif  // TRIAL_UTIL_PARALLEL_H_
