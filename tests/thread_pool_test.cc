// The persistent pool behind the served runs (Submit) and the needed-matrix
// fill (ParallelFor): one set of workers reused across every submission,
// deterministic chunk geometry, first-exception propagation.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "exec/thread_pool.h"

namespace acquire {
namespace {

TEST(ThreadPoolTest, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  const size_t n = 100000;
  std::vector<std::atomic<int>> hits(n);
  pool.ParallelFor(n, 1, [&](size_t, size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
  });
  for (size_t i = 0; i < n; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ReusableAcrossManySubmissions) {
  // The whole point of the pool: repeated small submissions must not spawn
  // threads per call. We can't observe thread creation portably, but we can
  // assert many rapid submissions all complete correctly on one pool.
  ThreadPool pool(3);
  for (int round = 0; round < 200; ++round) {
    std::atomic<size_t> sum{0};
    pool.ParallelFor(1000, 1, [&](size_t, size_t begin, size_t end) {
      size_t local = 0;
      for (size_t i = begin; i < end; ++i) local += i;
      sum.fetch_add(local);
    });
    EXPECT_EQ(sum.load(), 1000u * 999u / 2);
  }
}

TEST(ThreadPoolTest, EmptyRangeIsANoop) {
  ThreadPool pool(2);
  int calls = 0;
  pool.ParallelFor(0, 1, [&](size_t, size_t, size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ThreadPoolTest, SmallRangeRunsInline) {
  // Below min_chunk the body runs once, inline, covering the whole range.
  ThreadPool pool(4);
  std::vector<std::pair<size_t, size_t>> ranges;
  pool.ParallelFor(10, 4096, [&](size_t chunk, size_t begin, size_t end) {
    EXPECT_EQ(chunk, 0u);
    ranges.emplace_back(begin, end);
  });
  ASSERT_EQ(ranges.size(), 1u);
  EXPECT_EQ(ranges[0], (std::pair<size_t, size_t>{0, 10}));
}

TEST(ThreadPoolTest, ChunkGeometryIsDeterministic) {
  // Chunk boundaries depend only on (n, min_chunk, num_threads) — never on
  // scheduling — so chunk-ordered merges are reproducible run to run.
  ThreadPool pool(4);
  const size_t n = 100000;
  auto collect = [&] {
    std::vector<std::pair<size_t, size_t>> bounds(pool.NumChunks(n, 1));
    pool.ParallelFor(n, 1, [&](size_t chunk, size_t begin, size_t end) {
      bounds[chunk] = {begin, end};
    });
    return bounds;
  };
  auto first = collect();
  for (int round = 0; round < 5; ++round) {
    EXPECT_EQ(collect(), first) << "round " << round;
  }
  // Chunks partition [0, n) in order.
  size_t expected_begin = 0;
  for (const auto& [begin, end] : first) {
    EXPECT_EQ(begin, expected_begin);
    EXPECT_LT(begin, end);
    expected_begin = end;
  }
  EXPECT_EQ(expected_begin, n);
}

TEST(ThreadPoolTest, PropagatesBodyException) {
  ThreadPool pool(4);
  for (int round = 0; round < 20; ++round) {
    EXPECT_THROW(
        pool.ParallelFor(100000, 1,
                         [&](size_t chunk, size_t, size_t) {
                           if (chunk == 1) throw std::runtime_error("boom");
                         }),
        std::runtime_error);
    // The pool must survive the exception and stay usable.
    std::atomic<int> ok{0};
    pool.ParallelFor(100, 1,
                     [&](size_t, size_t, size_t) { ok.fetch_add(1); });
    EXPECT_GT(ok.load(), 0);
  }
}

TEST(ThreadPoolTest, ZeroThreadsResolvesToAtLeastOne) {
  ThreadPool pool(0);
  EXPECT_GE(pool.num_threads(), 1u);
}

TEST(ThreadPoolTest, SharedPoolIsASingleton) {
  ThreadPool& a = ThreadPool::Shared();
  ThreadPool& b = ThreadPool::Shared();
  EXPECT_EQ(&a, &b);
  std::atomic<size_t> count{0};
  a.ParallelFor(5000, 1, [&](size_t, size_t begin, size_t end) {
    count.fetch_add(end - begin);
  });
  EXPECT_EQ(count.load(), 5000u);
}

TEST(ThreadPoolTest, NumChunksNeverExceedsRangeOrWorkers) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.NumChunks(0, 4096), 0u);  // empty range: nothing to run
  EXPECT_EQ(pool.NumChunks(10, 4096), 1u);
  EXPECT_LE(pool.NumChunks(1 << 20, 4096), pool.num_threads() + 1);
  EXPECT_EQ(pool.NumChunks(3, 1), 3u);
}

bool IsReady(const std::future<void>& future) {
  return future.wait_for(std::chrono::seconds(0)) == std::future_status::ready;
}

TEST(ThreadPoolTest, SubmitFutureIsReadyOnceTheTaskRan) {
  ThreadPool pool(2);
  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  bool ran = false;
  std::future<void> done = pool.Submit([opened, &ran] {
    opened.wait();
    ran = true;
  });
  EXPECT_FALSE(IsReady(done));  // the task is held at the gate
  gate.set_value();
  done.get();
  EXPECT_TRUE(ran);
}

TEST(ThreadPoolTest, SubmitRethrowsTheTaskException) {
  ThreadPool pool(2);
  std::future<void> failed =
      pool.Submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(failed.get(), std::runtime_error);
  // The worker survives the exception and keeps serving tasks.
  std::atomic<int> ran{0};
  pool.Submit([&ran] { ran.fetch_add(1); }).get();
  EXPECT_EQ(ran.load(), 1);
}

TEST(ThreadPoolTest, SubmitFromManyThreadsRunsEachTaskOnce) {
  ThreadPool pool(3);
  constexpr size_t kSubmitters = 4;
  constexpr size_t kPerSubmitter = 250;
  std::vector<std::atomic<int>> runs(kSubmitters * kPerSubmitter);
  std::vector<std::vector<std::future<void>>> futures(kSubmitters);
  std::vector<std::thread> submitters;
  for (size_t t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&, t] {
      for (size_t i = 0; i < kPerSubmitter; ++i) {
        std::atomic<int>* slot = &runs[t * kPerSubmitter + i];
        futures[t].push_back(pool.Submit([slot] { slot->fetch_add(1); }));
      }
    });
  }
  for (std::thread& submitter : submitters) submitter.join();
  for (auto& mine : futures) {
    for (std::future<void>& future : mine) future.get();
  }
  for (size_t i = 0; i < runs.size(); ++i) {
    ASSERT_EQ(runs[i].load(), 1) << "task " << i;
  }
}

TEST(ThreadPoolTest, DestructorRunsQueuedTasks) {
  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  std::atomic<int> ran{0};
  std::vector<std::future<void>> futures;
  std::thread opener;
  {
    ThreadPool pool(1);
    futures.push_back(pool.Submit([opened] { opened.wait(); }));
    for (int i = 0; i < 8; ++i) {
      futures.push_back(pool.Submit([&ran] { ran.fetch_add(1); }));
    }
    EXPECT_EQ(ran.load(), 0);  // the one worker is held at the gate
    // Open the gate while the destructor below waits for the worker, so the
    // eight tasks are still queued when it starts.
    opener = std::thread([&gate] {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      gate.set_value();
    });
  }
  opener.join();
  EXPECT_EQ(ran.load(), 8);
  for (const std::future<void>& future : futures) {
    EXPECT_TRUE(IsReady(future));
  }
}

TEST(ThreadPoolTest, ParallelForInsideASubmittedTaskCompletesOnOneWorker) {
  // A served run is a Submit task, and its Prepare fills the needed matrix
  // with ParallelFor on the same pool. With the pool's one worker busy
  // running that task, the calling thread must run every chunk itself.
  ThreadPool pool(1);
  std::atomic<size_t> covered{0};
  std::future<void> done = pool.Submit([&] {
    pool.ParallelFor(100000, 4096, [&](size_t, size_t begin, size_t end) {
      covered.fetch_add(end - begin);
    });
  });
  ASSERT_EQ(done.wait_for(std::chrono::seconds(30)),
            std::future_status::ready);
  done.get();
  EXPECT_EQ(covered.load(), 100000u);
}

}  // namespace
}  // namespace acquire
