// Deadline / cancellation semantics of RunContext-driven runs (the service
// layer's interruption machinery): interrupted runs stop quickly at layer
// granularity, return well-formed best-so-far partial results with the
// matching RunTermination, and release their pool resources. Also covers
// the max_explored budget reporting as kTruncated (distinct from a search
// that genuinely exhausted the space).

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "core/processor.h"
#include "core/run_context.h"
#include "exec/thread_pool.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace acquire {
namespace {

using test_util::MakeSyntheticTask;
using test_util::SyntheticOptions;

double MillisBetween(std::chrono::steady_clock::time_point start,
                     std::chrono::steady_clock::time_point end) {
  return std::chrono::duration<double, std::milli>(end - start).count();
}

// Sanitizer instrumentation inflates wall clock ~10x; the strict latency
// bound is a plain-build guarantee, sanitized runs only check semantics.
// The plain bound tolerates `ctest -j` CPU contention (a single contended
// layer evaluation can take >100ms) while still sitting orders of
// magnitude below the multi-second full-grid run it guards against.
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
constexpr double kInterruptBudgetMs = 1000.0;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
constexpr double kInterruptBudgetMs = 1000.0;
#else
constexpr double kInterruptBudgetMs = 250.0;
#endif
#else
constexpr double kInterruptBudgetMs = 250.0;
#endif

// A d=4 task whose constraint is unreachable, so the search would explore
// the whole (100 / (gamma/d))^4 grid if nothing stopped it.
std::unique_ptr<test_util::SyntheticTask> MakeBigTask() {
  SyntheticOptions options;
  options.rows = 20000;
  options.d = 4;
  options.op = ConstraintOp::kGe;
  options.target = 1e9;  // COUNT can never reach this
  options.bound = 10.0;
  return MakeSyntheticTask(options);
}

TEST(RunContextTest, DefaultIsCompleted) {
  RunContext ctx;
  EXPECT_FALSE(ctx.has_deadline());
  EXPECT_FALSE(ctx.cancel_requested());
  EXPECT_FALSE(ctx.ShouldStop());
  EXPECT_EQ(ctx.Interruption(), RunTermination::kCompleted);
}

TEST(RunContextTest, CancelWinsOverDeadline) {
  RunContext ctx;
  ctx.set_deadline(RunContext::Clock::now() - std::chrono::seconds(1));
  ctx.RequestCancel();
  EXPECT_TRUE(ctx.ShouldStop());
  EXPECT_EQ(ctx.Interruption(), RunTermination::kCancelled);
}

TEST(RunContextTest, ExpiredDeadlineStops) {
  RunContext ctx;
  ctx.SetTimeoutMillis(0.01);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  // Every poll reads the clock, so the first one after expiry stops.
  EXPECT_TRUE(ctx.ShouldStop());
  EXPECT_EQ(ctx.Interruption(), RunTermination::kDeadlineExceeded);
}

// A timeout the steady clock cannot represent saturates to a deadline that
// never comes, instead of overflowing into one already past.
TEST(RunContextTest, UnrepresentableTimeoutNeverExpires) {
  RunContext ctx;
  ctx.SetTimeoutMillis(1e300);
  EXPECT_TRUE(ctx.has_deadline());
  EXPECT_FALSE(ctx.ShouldStop());
  EXPECT_EQ(ctx.Interruption(), RunTermination::kCompleted);
}

// A Direct layer whose `sleeping_batch`-th EvaluateCells call sleeps until
// `wake`. The driver executes one cell batch per layer, so the batch count
// tells how many layers ran.
class SleepyCellsLayer final : public EvaluationLayer {
 public:
  SleepyCellsLayer(const AcqTask* task, int sleeping_batch,
                   RunContext::Clock::time_point wake)
      : EvaluationLayer(task),
        inner_(task),
        sleeping_batch_(sleeping_batch),
        wake_(wake) {}

  Status Prepare() override { return inner_.Prepare(); }
  Result<AggregateOps::State> EvaluateBox(
      const std::vector<PScoreRange>& box) override {
    return inner_.EvaluateBox(box);
  }
  Result<std::vector<AggregateOps::State>> EvaluateCells(
      const GridCoord* coords, size_t count, double step) override {
    if (++batches_ == sleeping_batch_) std::this_thread::sleep_until(wake_);
    return inner_.EvaluateCells(coords, count, step);
  }

  int batches() const { return batches_; }

 private:
  DirectEvaluationLayer inner_;
  const int sleeping_batch_;
  const RunContext::Clock::time_point wake_;
  int batches_ = 0;
};

TEST(RunContextTest, DeadlinePassedInsideALayerStopsBeforeTheNext) {
  // The third layer's cell batch outlasts the deadline. Every poll reads
  // the clock, so the poll after that layer sees it: no further batch runs.
  SyntheticOptions options;
  options.rows = 4000;
  options.d = 2;
  options.op = ConstraintOp::kGe;
  options.target = 1e9;  // unreachable: only the deadline stops the search
  auto fixture = MakeSyntheticTask(options);
  ASSERT_NE(fixture, nullptr);
  const RunContext::Clock::time_point deadline =
      RunContext::Clock::now() + std::chrono::milliseconds(10);
  RunContext ctx;
  ctx.set_deadline(deadline);
  constexpr int kSleepingBatch = 3;
  SleepyCellsLayer layer(&fixture->task, kSleepingBatch,
                         deadline + std::chrono::milliseconds(5));
  AcquireOptions acquire;
  acquire.run_ctx = &ctx;
  auto result = RunAcquire(fixture->task, &layer, acquire);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->termination, RunTermination::kDeadlineExceeded);
  // A slow host may pass the deadline before the sleeping batch; the run
  // then stops even earlier.
  EXPECT_LE(layer.batches(), kSleepingBatch);
}

TEST(RunContextTest, TerminationToStatusMapping) {
  EXPECT_TRUE(TerminationToStatus(RunTermination::kCompleted).ok());
  EXPECT_TRUE(TerminationToStatus(RunTermination::kTruncated).ok());
  EXPECT_TRUE(TerminationToStatus(RunTermination::kDeadlineExceeded)
                  .IsDeadlineExceeded());
  EXPECT_TRUE(TerminationToStatus(RunTermination::kCancelled).IsCancelled());
  EXPECT_TRUE(TerminationToStatus(RunTermination::kResourceExhausted)
                  .IsResourceExhausted());
}

TEST(MemoryBudgetTest, ChargeTalliesAndLatchesPastTheLimit) {
  MemoryBudget budget;
  // No limit: charges are tallied but never latch.
  EXPECT_TRUE(budget.Charge(uint64_t{1} << 20));
  EXPECT_EQ(budget.used(), uint64_t{1} << 20);
  EXPECT_FALSE(budget.exhausted());

  budget.set_limit(uint64_t{2} << 20);
  EXPECT_TRUE(budget.Charge(uint64_t{1} << 20));  // exactly at the limit
  EXPECT_FALSE(budget.exhausted());
  EXPECT_FALSE(budget.Charge(1));  // crosses it
  EXPECT_TRUE(budget.exhausted());
}

TEST(MemoryBudgetTest, ExhaustionStopsTheContextAndClassifies) {
  RunContext ctx;
  EXPECT_FALSE(ctx.ShouldStop());
  ctx.budget().MarkExhausted();
  EXPECT_TRUE(ctx.ShouldStop());
  EXPECT_EQ(ctx.Interruption(), RunTermination::kResourceExhausted);
  // Cancellation is the more specific user action and wins.
  ctx.RequestCancel();
  EXPECT_EQ(ctx.Interruption(), RunTermination::kCancelled);
}

TEST(MemoryBudgetTest, TinyBudgetReturnsBestSoFarReport) {
  auto fixture = MakeBigTask();
  ASSERT_NE(fixture, nullptr);
  AcquireOptions options;
  // Shrink the step so the grid (and the search-side working set) is far
  // larger than this budget; the run must degrade, not crash.
  options.gamma = 1.0;
  options.memory_budget_bytes = 256 * 1024;
  auto outcome = ProcessAcq(fixture->task, options);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome->result.termination, RunTermination::kResourceExhausted);
  EXPECT_FALSE(outcome->result.satisfied);
  EXPECT_GE(outcome->result.queries_explored, 1u);
  // Well-formed best-so-far partial answer.
  EXPECT_FALSE(outcome->result.best.pscores.empty());
}

TEST(MemoryBudgetTest, BudgetedRunMatchesUnbudgetedWhenUnderLimit) {
  SyntheticOptions small;
  small.rows = 500;
  small.d = 2;
  small.op = ConstraintOp::kGe;
  small.target = 1e9;
  auto fixture = MakeSyntheticTask(small);
  ASSERT_NE(fixture, nullptr);
  auto plain = ProcessAcq(fixture->task, AcquireOptions{});
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  AcquireOptions budgeted;
  budgeted.memory_budget_bytes = uint64_t{1} << 30;  // far above any use
  auto metered = ProcessAcq(fixture->task, budgeted);
  ASSERT_TRUE(metered.ok()) << metered.status().ToString();
  // Metering must be an observer: identical termination, counters and best.
  EXPECT_EQ(metered->result.termination, plain->result.termination);
  EXPECT_EQ(metered->result.queries_explored, plain->result.queries_explored);
  EXPECT_EQ(metered->result.cell_queries, plain->result.cell_queries);
  EXPECT_EQ(metered->result.best.error, plain->result.best.error);
  EXPECT_EQ(metered->result.best.qscore, plain->result.best.qscore);
}

TEST(MemoryBudgetTest, EvaluationScratchIsChargedToTheBudget) {
  // An unlimited context still tallies: the evaluation layer's Prepare
  // (NeededMatrix build — at least one needed[] and one agg_values[] double
  // per row) must be metered, not just the search-side arenas.
  SyntheticOptions small;
  small.rows = 2000;
  small.d = 2;
  small.op = ConstraintOp::kGe;
  // Unreachable, so the search itself runs (an original-satisfies early
  // return never enters the budgeted search path).
  small.target = 1e9;
  auto fixture = MakeSyntheticTask(small);
  ASSERT_NE(fixture, nullptr);
  RunContext ctx;
  AcquireOptions options;
  options.run_ctx = &ctx;
  auto outcome = ProcessAcq(fixture->task, options);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_GE(ctx.budget().used(), 2 * small.rows * sizeof(double));
}

TEST(MemoryBudgetTest, PrepareScratchAloneCanExhaustTheBudget) {
  // A budget below the evaluation layer's own materialization cost: the run
  // must stop resource_exhausted right at the origin, with the charge on
  // record — regression test for scratch that used to bypass the meter.
  SyntheticOptions big;
  big.rows = 20000;
  big.d = 2;
  big.op = ConstraintOp::kGe;
  big.target = 1e9;
  auto fixture = MakeSyntheticTask(big);
  ASSERT_NE(fixture, nullptr);
  AcquireOptions options;
  options.memory_budget_bytes = 64 * 1024;  // << 2 * 20000 * 8 bytes
  auto outcome = ProcessAcq(fixture->task, options);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome->result.termination, RunTermination::kResourceExhausted);
  EXPECT_FALSE(outcome->result.satisfied);
  // Well-formed best-so-far report: the origin was still visited.
  EXPECT_GE(outcome->result.queries_explored, 1u);
  EXPECT_FALSE(outcome->result.best.pscores.empty());
}

TEST(RunContextTest, OneMillisecondDeadlineReturnsPartialQuickly) {
  auto fixture = MakeBigTask();
  ASSERT_NE(fixture, nullptr);
  RunContext ctx;
  ctx.SetTimeoutMillis(1.0);
  AcquireOptions options;
  options.run_ctx = &ctx;
  const auto start = std::chrono::steady_clock::now();
  auto outcome = ProcessAcq(fixture->task, options);
  const double wall = MillisBetween(start, std::chrono::steady_clock::now());
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome->result.termination, RunTermination::kDeadlineExceeded);
  // Interruption is cooperative (layer granularity), but on this task it
  // must land orders of magnitude before the ~full-grid run would.
  EXPECT_LT(wall, kInterruptBudgetMs);
  // The partial report is well-formed: not satisfied, and the progress
  // counters reflect the work actually done.
  EXPECT_FALSE(outcome->result.satisfied);
  EXPECT_EQ(outcome->result.queries_explored,
            ctx.queries_explored.load(std::memory_order_relaxed));
  EXPECT_GT(wall, 0.0);
}

TEST(RunContextTest, CrossThreadCancelStopsRun) {
  auto fixture = MakeBigTask();
  ASSERT_NE(fixture, nullptr);
  RunContext ctx;
  AcquireOptions options;
  options.run_ctx = &ctx;
  Result<AcqOutcome> outcome = Status::Internal("not run");
  std::thread runner([&] { outcome = ProcessAcq(fixture->task, options); });
  // Let the run get into Explore, then cancel from this thread.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ctx.RequestCancel();
  runner.join();
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  // The run may legitimately have finished a stopping rule first, but on
  // this unreachable-target task the full search takes far longer than the
  // cancel latency, so we expect the interruption to have landed.
  EXPECT_EQ(outcome->result.termination, RunTermination::kCancelled);
  EXPECT_FALSE(outcome->result.satisfied);
}

TEST(RunContextTest, MaxExploredReportsTruncated) {
  auto fixture = MakeBigTask();
  ASSERT_NE(fixture, nullptr);
  AcquireOptions options;
  options.max_explored = 64;
  auto outcome = ProcessAcq(fixture->task, options);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome->result.termination, RunTermination::kTruncated);
  EXPECT_FALSE(outcome->result.satisfied);
  EXPECT_GE(outcome->result.queries_explored, 1u);
}

TEST(RunContextTest, ExhaustiveRunStaysCompleted) {
  SyntheticOptions small;
  small.rows = 500;
  small.d = 2;
  small.op = ConstraintOp::kGe;
  small.target = 1e9;  // unreachable, but the d=2 grid is fully searchable
  auto fixture = MakeSyntheticTask(small);
  ASSERT_NE(fixture, nullptr);
  auto outcome = ProcessAcq(fixture->task, AcquireOptions{});
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  // "no answer" after a finished search is kCompleted, not kTruncated.
  EXPECT_EQ(outcome->result.termination, RunTermination::kCompleted);
  EXPECT_FALSE(outcome->result.satisfied);
}

TEST(RunContextTest, InterruptedRunReleasesPoolSlots) {
  auto fixture = MakeBigTask();
  ASSERT_NE(fixture, nullptr);
  RunContext ctx;
  ctx.SetTimeoutMillis(1.0);
  AcquireOptions options;
  options.run_ctx = &ctx;
  auto outcome = ProcessAcq(fixture->task, options);
  ASSERT_TRUE(outcome.ok());
  // The pool must be fully serviceable afterwards: a ParallelFor over all
  // workers completes (it would hang if an interrupted run leaked a task).
  std::atomic<size_t> touched{0};
  ThreadPool::Shared().ParallelFor(
      1000, 1, [&](size_t, size_t begin, size_t end) {
        touched.fetch_add(end - begin, std::memory_order_relaxed);
      });
  EXPECT_EQ(touched.load(), 1000u);
}

}  // namespace
}  // namespace acquire
