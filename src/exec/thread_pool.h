#ifndef ACQUIRE_EXEC_THREAD_POOL_H_
#define ACQUIRE_EXEC_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace acquire {

/// Persistent worker pool. Threads are spawned once and reused: the server
/// runs each ACQ as one Submit task, and the needed-matrix fill
/// (BuildNeededMatrixRows, the engine's one ParallelFor caller) splits its
/// rows across the workers. Evaluation layers answer queries on the calling
/// thread and never use the pool.
///
/// Determinism contract: chunk boundaries depend only on (n, min_chunk,
/// num_threads), never on scheduling. The fill writes per-row values that
/// do not depend on the chunking, so the matrix is the same bytes at every
/// pool width; merging per-chunk partial aggregates would tie a result to
/// the width, which is why no box scan or cell sweep is chunked.
class ThreadPool {
 public:
  /// `num_threads` = 0 sizes the pool to the hardware concurrency
  /// (at least 1 worker either way).
  explicit ThreadPool(size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return workers_.size(); }

  /// Number of chunks ParallelFor will split [0, n) into: enough to feed
  /// every runner (workers + the calling thread) while keeping chunks of at
  /// least `min_chunk` elements.
  size_t NumChunks(size_t n, size_t min_chunk) const;

  /// Runs body(chunk_index, begin, end) over a deterministic chunking of
  /// [0, n); blocks until every chunk finished. The calling thread
  /// participates, so progress is guaranteed even while the workers are
  /// busy with other submissions. If any chunk throws, the first exception
  /// (in completion order) is rethrown here after all chunks settle.
  /// n == 0 is a no-op.
  void ParallelFor(size_t n, size_t min_chunk,
                   const std::function<void(size_t, size_t, size_t)>& body);

  /// Enqueues one task for a worker and returns immediately; the future
  /// becomes ready (rethrowing any exception) when the task finishes.
  /// Unlike ParallelFor the calling thread does not participate — this is
  /// for work that runs beside the caller's own (the server schedules each
  /// ACQ run this way).
  std::future<void> Submit(std::function<void()> task);

  /// Process-wide default pool (hardware-sized, created on first use and
  /// intentionally never destroyed so late static destructors can use it).
  /// The ACQUIRE_POOL_THREADS environment variable overrides the size
  /// (read once, at first use).
  static ThreadPool& Shared();

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable work_cv_;
  std::deque<std::function<void()>> queue_;
  bool stop_ = false;
};

}  // namespace acquire

#endif  // ACQUIRE_EXEC_THREAD_POOL_H_
