// Bit-identity battery for the sharded cell-sorted layout build
// (index/parallel_prepare.h): the parallel build must reproduce the
// sequential reference byte for byte across pool widths, the kAuto rule
// must pick the path it documents, and the index.parallel_prepare
// failpoint must downgrade to the (identical) sequential build.

#include <gtest/gtest.h>

#include "acquire.h"
#include "common/failpoint.h"
#include "exec/eval_kernel.h"
#include "test_util.h"

namespace acquire {
namespace {

using test_util::MakeSyntheticTask;
using test_util::SyntheticOptions;

Status BuildLayout(const AcqTask& task, double step, ThreadPool* pool,
                   PrepareMode mode, CellSortedLayout* out,
                   PrepareBuildInfo* info = nullptr) {
  NeededMatrix raw;
  ACQ_RETURN_IF_ERROR(BuildNeededMatrix(task, pool, &raw));
  return BuildCellSortedLayout(raw, step, *task.agg.ops, pool, mode, out,
                               info);
}

TEST(ParallelPrepareTest, ParallelMatchesSequentialAcrossPoolWidths) {
  SyntheticOptions options;
  options.d = 3;
  options.rows = 40000;
  options.agg = AggregateKind::kSum;
  auto fixture = MakeSyntheticTask(options);
  ASSERT_NE(fixture, nullptr);
  const double step = 5.0;

  CellSortedLayout reference;
  ASSERT_TRUE(BuildLayout(fixture->task, step, nullptr,
                          PrepareMode::kSequential, &reference)
                  .ok());
  ASSERT_GT(reference.num_cells(), 0u);

  for (size_t threads : {1, 2, 4, 8}) {
    ThreadPool pool(threads);
    CellSortedLayout built;
    PrepareBuildInfo info;
    ASSERT_TRUE(BuildLayout(fixture->task, step, &pool, PrepareMode::kParallel,
                            &built, &info)
                    .ok())
        << threads << " threads";
    EXPECT_TRUE(info.parallel) << threads << " threads";
    EXPECT_GE(info.buckets, 1u);
    EXPECT_TRUE(LayoutsBitIdentical(reference, built))
        << threads << " threads";
  }
}

TEST(ParallelPrepareTest, BitIdenticalPerAggregateKind) {
  for (AggregateKind agg : {AggregateKind::kCount, AggregateKind::kSum,
                            AggregateKind::kAvg, AggregateKind::kMin,
                            AggregateKind::kMax}) {
    SyntheticOptions options;
    options.d = 2;
    options.rows = 36000;
    options.agg = agg;
    auto fixture = MakeSyntheticTask(options);
    ASSERT_NE(fixture, nullptr);
    CellSortedLayout sequential, parallel;
    ASSERT_TRUE(BuildLayout(fixture->task, 5.0, nullptr,
                            PrepareMode::kSequential, &sequential)
                    .ok());
    ASSERT_TRUE(BuildLayout(fixture->task, 5.0, nullptr,
                            PrepareMode::kParallel, &parallel)
                    .ok());
    EXPECT_TRUE(LayoutsBitIdentical(sequential, parallel))
        << static_cast<int>(agg);
  }
}

TEST(ParallelPrepareTest, AutoStaysSequentialOnSmallInputs) {
  SyntheticOptions options;
  options.rows = 2000;  // far below the 32k parallel cutoff
  auto fixture = MakeSyntheticTask(options);
  ASSERT_NE(fixture, nullptr);
  ThreadPool pool(4);
  CellSortedLayout built;
  PrepareBuildInfo info;
  ASSERT_TRUE(BuildLayout(fixture->task, 5.0, &pool, PrepareMode::kAuto,
                          &built, &info)
                  .ok());
  EXPECT_FALSE(info.parallel);
}

TEST(ParallelPrepareTest, ForcedParallelRunsEvenOnOneWorker) {
  // kParallel must exercise the sharded code path on a 1-worker pool so
  // single-core CI still covers it.
  SyntheticOptions options;
  options.rows = 40000;
  auto fixture = MakeSyntheticTask(options);
  ASSERT_NE(fixture, nullptr);
  ThreadPool pool(1);
  CellSortedLayout sequential, forced;
  PrepareBuildInfo info;
  ASSERT_TRUE(BuildLayout(fixture->task, 5.0, &pool, PrepareMode::kSequential,
                          &sequential)
                  .ok());
  ASSERT_TRUE(BuildLayout(fixture->task, 5.0, &pool, PrepareMode::kParallel,
                          &forced, &info)
                  .ok());
  EXPECT_TRUE(info.parallel);
  EXPECT_TRUE(LayoutsBitIdentical(sequential, forced));
}

TEST(ParallelPrepareTest, RejectsNonPositiveStep) {
  SyntheticOptions options;
  auto fixture = MakeSyntheticTask(options);
  ASSERT_NE(fixture, nullptr);
  NeededMatrix raw;
  ASSERT_TRUE(BuildNeededMatrix(fixture->task, nullptr, &raw).ok());
  CellSortedLayout out;
  EXPECT_FALSE(BuildCellSortedLayout(raw, 0.0, *fixture->task.agg.ops,
                                     nullptr, PrepareMode::kAuto, &out)
                   .ok());
}

TEST(ParallelPrepareTest, FailpointForcesSequentialFallback) {
  if (!FailpointRegistry::compiled_in()) {
    GTEST_SKIP() << "failpoints compiled out";
  }
  SyntheticOptions options;
  options.rows = 40000;
  auto fixture = MakeSyntheticTask(options);
  ASSERT_NE(fixture, nullptr);
  auto& registry = FailpointRegistry::Global();
  ASSERT_TRUE(registry.Configure("index.parallel_prepare", "p:1").ok());
  CellSortedLayout under_failpoint;
  PrepareBuildInfo info;
  Status built = BuildLayout(fixture->task, 5.0, nullptr,
                             PrepareMode::kParallel, &under_failpoint, &info);
  registry.DisarmAll();
  ASSERT_TRUE(built.ok());
  EXPECT_FALSE(info.parallel);  // downgraded

  CellSortedLayout reference;
  ASSERT_TRUE(BuildLayout(fixture->task, 5.0, nullptr,
                          PrepareMode::kSequential, &reference)
                  .ok());
  EXPECT_TRUE(LayoutsBitIdentical(reference, under_failpoint));
}

TEST(ParallelPrepareTest, LayerReportsBuildInfoAndPrepareMs) {
  SyntheticOptions options;
  options.rows = 40000;
  auto fixture = MakeSyntheticTask(options);
  ASSERT_NE(fixture, nullptr);
  CellSortedEvaluationLayer layer(&fixture->task, 5.0, nullptr,
                                  PrepareMode::kParallel);
  ASSERT_TRUE(layer.Prepare().ok());
  EXPECT_TRUE(layer.build_info().parallel);
  EXPECT_EQ(layer.prepare_mode(), PrepareMode::kParallel);
  EXPECT_GT(layer.stats().prepare_ms, 0.0);
  EXPECT_EQ(layer.consumed_rows(), options.rows);
}

TEST(ParallelPrepareTest, LayerAnswersIdenticallyUnderEitherMode) {
  SyntheticOptions options;
  options.d = 2;
  options.rows = 40000;
  options.agg = AggregateKind::kSum;
  auto fixture = MakeSyntheticTask(options);
  ASSERT_NE(fixture, nullptr);
  const double step = 5.0;
  CellSortedEvaluationLayer sequential(&fixture->task, step, nullptr,
                                       PrepareMode::kSequential);
  CellSortedEvaluationLayer parallel(&fixture->task, step, nullptr,
                                     PrepareMode::kParallel);
  ASSERT_TRUE(sequential.Prepare().ok());
  ASSERT_TRUE(parallel.Prepare().ok());
  const AggregateOps& ops = *fixture->task.agg.ops;
  for (const auto& box :
       {std::vector<PScoreRange>{CellRangeForLevel(2, step),
                                 CellRangeForLevel(3, step)},
        std::vector<PScoreRange>{PScoreRange{-1.0, 4 * step},
                                 PScoreRange{-1.0, 6 * step}},
        std::vector<PScoreRange>{PScoreRange{-1.0, 7.3},
                                 PScoreRange{2.1, 13.9}}}) {
    auto a = sequential.EvaluateBox(box);
    auto b = parallel.EvaluateBox(box);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(*a, *b);  // bit-identical states, not just close finals
    EXPECT_DOUBLE_EQ(ops.Final(*a), ops.Final(*b));
  }
}

}  // namespace
}  // namespace acquire
