// Edge cases across the pipeline: binder/planner validation for the newer
// predicate forms, baselines on approximate layers, and the documented
// failure mode of the AVI histogram estimator on correlated columns.

#include <gtest/gtest.h>
#include <cmath>

#include "acquire.h"
#include "baselines/binsearch.h"
#include "baselines/tqgen.h"
#include "sql/parser.h"
#include "test_util.h"

namespace acquire {
namespace {

using test_util::MakeSyntheticTask;
using test_util::SyntheticOptions;

class BinderEdgeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TpchOptions options;
    options.suppliers = 40;
    options.parts = 60;
    options.lineitems = 800;
    ASSERT_TRUE(GenerateTpch(options, &catalog_).ok());
  }

  Result<AcqTask> Plan(const std::string& sql) {
    Binder binder(&catalog_);
    return binder.PlanSql(sql);
  }

  Catalog catalog_;
};

TEST_F(BinderEdgeTest, MixedTableFunctionSideRequiresNorefine) {
  // A side referencing columns of two tables can only be a fixed filter.
  auto refinable = Plan(
      "SELECT * FROM supplier, partsupp CONSTRAINT COUNT(*) = 10 "
      "WHERE s_suppkey = ps_suppkey NOREFINE "
      "AND s_acctbal + ps_supplycost < ps_availqty "
      "AND s_acctbal < 2000");
  EXPECT_TRUE(refinable.status().IsUnsupported());
  auto fixed = Plan(
      "SELECT * FROM supplier, partsupp CONSTRAINT COUNT(*) = 10 "
      "WHERE s_suppkey = ps_suppkey NOREFINE "
      "AND (s_acctbal + ps_supplycost < ps_availqty) NOREFINE "
      "AND s_acctbal < 2000");
  EXPECT_TRUE(fixed.ok()) << fixed.status().ToString();
}

TEST_F(BinderEdgeTest, TwoLiteralComparisonRejected) {
  EXPECT_FALSE(
      Plan("SELECT * FROM lineitem CONSTRAINT COUNT(*) = 10 WHERE 1 < 2")
          .ok());
}

TEST_F(BinderEdgeTest, NotEqualJoinRejected) {
  auto r = Plan(
      "SELECT * FROM supplier, partsupp CONSTRAINT COUNT(*) = 10 "
      "WHERE s_suppkey != ps_suppkey AND s_acctbal < 2000");
  EXPECT_FALSE(r.ok());
}

TEST_F(BinderEdgeTest, ArithmeticAggregateArgumentRejectedByParser) {
  // CONSTRAINT AGG(col) only accepts a column reference.
  EXPECT_FALSE(
      ParseAcqSql("SELECT * FROM t CONSTRAINT SUM(a + b) = 10 WHERE a < 1")
          .ok());
}

TEST_F(BinderEdgeTest, StringComparedToExpressionRejected) {
  EXPECT_TRUE(Plan("SELECT * FROM part CONSTRAINT COUNT(*) = 10 "
                   "WHERE p_size * 2 = 'STEEL'")
                  .status()
                  .IsTypeError());
}

TEST_F(BinderEdgeTest, ThreeTableChainThroughMixedJoinKinds) {
  // supplier -(equi)- partsupp -(non-equi)- part.
  auto task = Plan(
      "SELECT * FROM supplier, partsupp, part "
      "CONSTRAINT SUM(ps_availqty) >= 1000 "
      "WHERE s_suppkey = ps_suppkey NOREFINE "
      "AND (ps_partkey * 1 < p_partkey * 1) NOREFINE "
      "AND s_acctbal < 2000");
  ASSERT_TRUE(task.ok()) << task.status().ToString();
  EXPECT_EQ(task->d(), 1u);
  EXPECT_GT(task->relation->num_rows(), 0u);
}

TEST(BaselinesOnSamplesTest, BinSearchAndTqGenRunOnSampledLayer) {
  // Section 8.2 notes TQGen was run without sampling "to allow uniform
  // comparisons" but that results hold on small samples — the layers make
  // that a one-line swap for any technique.
  SyntheticOptions options;
  options.d = 2;
  options.rows = 20000;
  options.target = 1.0;
  auto fixture = MakeSyntheticTask(options);
  ASSERT_NE(fixture, nullptr);
  DirectEvaluationLayer probe(&fixture->task);
  fixture->task.constraint.target =
      probe.EvaluateQueryValue({0.0, 0.0}).value() * 2.0;

  SamplingEvaluationLayer bin_layer(&fixture->task, 0.1);
  auto bin = RunBinSearch(fixture->task, &bin_layer, Norm::L1(), {});
  ASSERT_TRUE(bin.ok());
  EXPECT_TRUE(bin->satisfied);

  SamplingEvaluationLayer tq_layer(&fixture->task, 0.1);
  auto tq = RunTqGen(fixture->task, &tq_layer, Norm::L1(), {});
  ASSERT_TRUE(tq.ok());
  EXPECT_TRUE(tq->satisfied);
  // Validate against the truth: sampled answers are approximately right.
  double truth = probe.EvaluateQueryValue(tq->pscores).value();
  EXPECT_NEAR(truth, fixture->task.constraint.target,
              0.25 * fixture->task.constraint.target);
}

TEST(HistogramBiasTest, CorrelatedColumnsBreakIndependenceAssumption) {
  // The AVI estimator multiplies marginals; on perfectly correlated
  // columns the joint estimate is the square of the truth's fraction.
  // This is the documented failure mode, pinned here as a test.
  auto table = std::make_shared<Table>(
      "corr", Schema({{"a", DataType::kDouble, ""},
                      {"b", DataType::kDouble, ""}}));
  Rng rng(99);
  for (int i = 0; i < 10000; ++i) {
    double v = rng.NextDouble(0.0, 100.0);
    ASSERT_TRUE(table->AppendRow({Value(v), Value(v)}).ok());  // b == a
  }
  Catalog catalog;
  ASSERT_TRUE(catalog.AddTable(table).ok());
  QuerySpec spec;
  spec.tables = {"corr"};
  spec.predicates.push_back(
      SelectPredicateSpec{"a", CompareOp::kLe, 20.0, true, 1.0, {}});
  spec.predicates.push_back(
      SelectPredicateSpec{"b", CompareOp::kLe, 20.0, true, 1.0, {}});
  spec.agg_kind = AggregateKind::kCount;
  spec.target = 100.0;
  auto task = PlanAcqTask(catalog, spec);
  ASSERT_TRUE(task.ok());

  DirectEvaluationLayer exact(&*task);
  HistogramEvaluationLayer hist(&*task, 128);
  double truth = exact.EvaluateQueryValue({0.0, 0.0}).value();   // ~2000
  double est = hist.EvaluateQueryValue({0.0, 0.0}).value();      // ~400
  EXPECT_NEAR(truth, 2000.0, 200.0);
  EXPECT_NEAR(est, truth * truth / 10000.0, 150.0);  // squared fraction
}

TEST(DriverOptionEdgeTest, StallLimitStopsHopelessSearch) {
  // A target far beyond the relation with a tiny stall limit: the driver
  // must stop early instead of walking the whole (large) grid.
  SyntheticOptions options;
  options.d = 3;
  options.rows = 1000;
  options.target = 1.0;
  auto fixture = MakeSyntheticTask(options);
  ASSERT_NE(fixture, nullptr);
  fixture->task.constraint.target = 1e9;  // unreachable COUNT
  AcquireOptions acq;
  acq.stall_limit = 200;
  acq.divergence_patience = 1000000;  // isolate the stall guard
  CellSortedEvaluationLayer layer(&fixture->task,
                                  GridStepFor(fixture->task, acq));
  auto result = RunAcquire(fixture->task, &layer, acq);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->satisfied);
  // Improvements happen while coverage grows, then stop once the whole
  // relation is admitted; the stall guard caps the tail.
  EXPECT_LT(result->queries_explored, acq.max_explored);
}

}  // namespace
}  // namespace acquire
