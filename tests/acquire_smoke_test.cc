// End-to-end smoke tests: generator -> planner -> ACQUIRE on all
// evaluation layers, checking Definition 1's guarantees hold in practice.

#include <gtest/gtest.h>

#include "core/acquire.h"
#include "core/processor.h"
#include "index/cell_sorted.h"
#include "workload/tpch_gen.h"
#include "workload/workload.h"

namespace acquire {
namespace {

class AcquireSmokeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TpchOptions options;
    options.lineitems = 20000;
    options.suppliers = 200;
    options.parts = 400;
    ASSERT_TRUE(GenerateTpch(options, &catalog_).ok());
  }

  Catalog catalog_;
};

TEST_F(AcquireSmokeTest, CountConstraintIsMetWithinDelta) {
  RatioTaskOptions options;
  options.table = "lineitem";
  options.columns = {"l_quantity", "l_extendedprice", "l_shipdays"};
  options.ratio = 0.4;
  auto ratio_task = BuildRatioTask(catalog_, options);
  ASSERT_TRUE(ratio_task.ok()) << ratio_task.status().ToString();
  AcqTask& task = ratio_task->task;
  EXPECT_GT(ratio_task->base_aggregate, 0.0);
  EXPECT_NEAR(task.constraint.target, ratio_task->base_aggregate / 0.4, 1e-6);

  AcquireOptions opts;
  opts.delta = 0.05;
  CellSortedEvaluationLayer layer(&task, GridStepFor(task, opts));
  auto result = RunAcquire(task, &layer, opts);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_TRUE(result->satisfied);
  ASSERT_FALSE(result->queries.empty());
  for (const RefinedQuery& q : result->queries) {
    EXPECT_LE(q.error, opts.delta);
    EXPECT_NEAR(q.aggregate, task.constraint.target,
                opts.delta * task.constraint.target + 1e-9);
  }
  // Answers are sorted by QScore.
  for (size_t i = 1; i < result->queries.size(); ++i) {
    EXPECT_LE(result->queries[i - 1].qscore, result->queries[i].qscore);
  }
}

TEST_F(AcquireSmokeTest, AllEvaluationLayersAgree) {
  RatioTaskOptions options;
  options.table = "lineitem";
  options.columns = {"l_quantity", "l_discount"};
  options.ratio = 0.5;
  auto ratio_task = BuildRatioTask(catalog_, options);
  ASSERT_TRUE(ratio_task.ok()) << ratio_task.status().ToString();
  AcqTask& task = ratio_task->task;

  AcquireOptions opts;
  DirectEvaluationLayer direct(&task);
  RefinedSpace space(&task, opts.gamma, opts.norm);
  CellSortedEvaluationLayer indexed(&task, space.step());

  auto r1 = RunAcquire(task, &direct, opts);
  auto r2 = RunAcquire(task, &indexed, opts);
  ASSERT_TRUE(r1.ok() && r2.ok());
  ASSERT_TRUE(r1->satisfied && r2->satisfied);
  ASSERT_EQ(r1->queries.size(), r2->queries.size());
  for (size_t i = 0; i < r1->queries.size(); ++i) {
    EXPECT_EQ(r1->queries[i].coord, r2->queries[i].coord);
    EXPECT_DOUBLE_EQ(r1->queries[i].aggregate, r2->queries[i].aggregate);
  }
}

TEST_F(AcquireSmokeTest, IncrementalMatchesNaiveReexecution) {
  RatioTaskOptions options;
  options.table = "lineitem";
  options.columns = {"l_quantity", "l_extendedprice"};
  options.ratio = 0.3;
  auto ratio_task = BuildRatioTask(catalog_, options);
  ASSERT_TRUE(ratio_task.ok());
  AcqTask& task = ratio_task->task;

  AcquireOptions incremental;
  AcquireOptions naive;
  naive.use_incremental = false;
  CellSortedEvaluationLayer layer1(&task, GridStepFor(task, incremental));
  DirectEvaluationLayer layer2(&task);

  auto r1 = RunAcquire(task, &layer1, incremental);
  auto r2 = RunAcquire(task, &layer2, naive);
  ASSERT_TRUE(r1.ok() && r2.ok());
  ASSERT_EQ(r1->satisfied, r2->satisfied);
  ASSERT_EQ(r1->queries.size(), r2->queries.size());
  for (size_t i = 0; i < r1->queries.size(); ++i) {
    EXPECT_EQ(r1->queries[i].coord, r2->queries[i].coord);
    EXPECT_DOUBLE_EQ(r1->queries[i].aggregate, r2->queries[i].aggregate);
  }
  // The incremental path executes exactly one (cheap) cell query per
  // explored grid query.
  EXPECT_EQ(r1->cell_queries, r1->queries_explored);
  EXPECT_EQ(r2->cell_queries, 0u);
}

}  // namespace
}  // namespace acquire
