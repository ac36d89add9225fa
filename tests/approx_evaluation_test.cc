#include "exec/approx_evaluation.h"

#include <gtest/gtest.h>
#include <cmath>

#include "core/acquire.h"
#include "core/processor.h"
#include "exec/materialize.h"
#include "index/cell_sorted.h"
#include "test_util.h"

namespace acquire {
namespace {

using test_util::MakeSyntheticTask;
using test_util::SyntheticOptions;

std::unique_ptr<test_util::SyntheticTask> Fixture(AggregateKind agg,
                                                  size_t rows = 20000) {
  SyntheticOptions options;
  options.d = 2;
  options.rows = rows;
  options.agg = agg;
  options.target = 100.0;
  return MakeSyntheticTask(options);
}

TEST(SamplingLayerTest, CountEstimateIsCloseToExact) {
  auto fixture = Fixture(AggregateKind::kCount);
  ASSERT_NE(fixture, nullptr);
  DirectEvaluationLayer exact(&fixture->task);
  SamplingEvaluationLayer sampled(&fixture->task, 0.1);
  ASSERT_TRUE(sampled.Prepare().ok());
  EXPECT_NEAR(sampled.sample_size(), 2000u, 300u);
  for (double p : {0.0, 10.0, 30.0}) {
    double e = exact.EvaluateQueryValue({p, p}).value();
    double s = sampled.EvaluateQueryValue({p, p}).value();
    // 10% Bernoulli sample: ~4-sigma band for counts in the thousands.
    EXPECT_NEAR(s, e, std::max(80.0, 0.25 * e)) << "pscore " << p;
  }
}

TEST(SamplingLayerTest, SumScalesByInverseRate) {
  auto fixture = Fixture(AggregateKind::kSum);
  ASSERT_NE(fixture, nullptr);
  DirectEvaluationLayer exact(&fixture->task);
  SamplingEvaluationLayer sampled(&fixture->task, 0.2);
  double e = exact.EvaluateQueryValue({20.0, 20.0}).value();
  double s = sampled.EvaluateQueryValue({20.0, 20.0}).value();
  EXPECT_NEAR(s, e, 0.15 * e);
}

TEST(SamplingLayerTest, AvgIsUnscaled) {
  auto fixture = Fixture(AggregateKind::kAvg);
  ASSERT_NE(fixture, nullptr);
  DirectEvaluationLayer exact(&fixture->task);
  SamplingEvaluationLayer sampled(&fixture->task, 0.2);
  double e = exact.EvaluateQueryValue({20.0, 20.0}).value();
  double s = sampled.EvaluateQueryValue({20.0, 20.0}).value();
  // AVG over uniform [0, 1000] values: both near 500.
  EXPECT_NEAR(s, e, 0.1 * e);
}

TEST(SamplingLayerTest, InvalidRateAndUdaRejected) {
  auto fixture = Fixture(AggregateKind::kCount);
  ASSERT_NE(fixture, nullptr);
  SamplingEvaluationLayer zero(&fixture->task, 0.0);
  EXPECT_FALSE(zero.Prepare().ok());
  SamplingEvaluationLayer above(&fixture->task, 1.5);
  EXPECT_FALSE(above.Prepare().ok());
  fixture->task.agg.kind = AggregateKind::kUda;
  SamplingEvaluationLayer uda(&fixture->task, 0.5);
  EXPECT_TRUE(uda.Prepare().IsUnsupported());
}

TEST(SamplingLayerTest, DeterministicGivenSeed) {
  auto fixture = Fixture(AggregateKind::kCount);
  ASSERT_NE(fixture, nullptr);
  SamplingEvaluationLayer a(&fixture->task, 0.1, 7);
  SamplingEvaluationLayer b(&fixture->task, 0.1, 7);
  EXPECT_DOUBLE_EQ(a.EvaluateQueryValue({15.0, 5.0}).value(),
                   b.EvaluateQueryValue({15.0, 5.0}).value());
}

TEST(SamplingLayerTest, AcquireRunsOnSampledLayer) {
  // The paper's small-sample experiment (Figure 10a's 1K point): ACQUIRE on
  // a sample still meets the constraint when validated against the sample's
  // own estimates.
  auto fixture = Fixture(AggregateKind::kCount, 50000);
  ASSERT_NE(fixture, nullptr);
  DirectEvaluationLayer probe(&fixture->task);
  double base = probe.EvaluateQueryValue({0.0, 0.0}).value();
  fixture->task.constraint.target = base * 2.0;

  SamplingEvaluationLayer layer(&fixture->task, 0.05);
  auto result = RunAcquire(fixture->task, &layer, {});
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(result->satisfied);
  // Validate the recommended query against the full data: the sampling
  // noise at 5% should keep the true aggregate within ~20% of the target.
  double truth =
      probe.EvaluateQueryValue(result->queries[0].pscores).value();
  EXPECT_NEAR(truth, fixture->task.constraint.target,
              0.2 * fixture->task.constraint.target);
}

TEST(HistogramLayerTest, MarginalSelectivityIsExactPerDimension) {
  auto fixture = Fixture(AggregateKind::kCount);
  ASSERT_NE(fixture, nullptr);
  DirectEvaluationLayer exact(&fixture->task);
  HistogramEvaluationLayer hist(&fixture->task, 128);
  // One-dimensional boxes (other dim unbounded) stress a single marginal.
  double cap = 1e9;
  for (double p : {0.0, 15.0, 40.0}) {
    auto e = exact.EvaluateBox({PScoreRange{-1, p}, PScoreRange{-1, cap}});
    auto h = hist.EvaluateBox({PScoreRange{-1, p}, PScoreRange{-1, cap}});
    ASSERT_TRUE(e.ok() && h.ok());
    double exact_count = fixture->task.agg.ops->Final(*e);
    double est_count = fixture->task.agg.ops->Final(*h);
    EXPECT_NEAR(est_count, exact_count,
                std::max(50.0, 0.05 * exact_count));
  }
}

TEST(HistogramLayerTest, IndependentColumnsEstimateWell) {
  // The synthetic columns are independent, so the AVI assumption is valid
  // and the joint estimate should land close to the truth.
  auto fixture = Fixture(AggregateKind::kCount);
  ASSERT_NE(fixture, nullptr);
  DirectEvaluationLayer exact(&fixture->task);
  HistogramEvaluationLayer hist(&fixture->task, 128);
  for (double p : {5.0, 20.0, 50.0}) {
    double e = exact.EvaluateQueryValue({p, p}).value();
    double h = hist.EvaluateQueryValue({p, p}).value();
    EXPECT_NEAR(h, e, std::max(60.0, 0.1 * e)) << "pscore " << p;
  }
}

TEST(HistogramLayerTest, NonCountRejected) {
  auto fixture = Fixture(AggregateKind::kSum);
  ASSERT_NE(fixture, nullptr);
  HistogramEvaluationLayer hist(&fixture->task);
  EXPECT_TRUE(hist.Prepare().IsUnsupported());
}

TEST(HistogramLayerTest, NeverTouchesRowsAfterPrepare) {
  auto fixture = Fixture(AggregateKind::kCount);
  ASSERT_NE(fixture, nullptr);
  HistogramEvaluationLayer hist(&fixture->task, 32);
  ASSERT_TRUE(hist.Prepare().ok());
  hist.ResetStats();
  ASSERT_TRUE(hist.EvaluateQueryValue({10.0, 10.0}).ok());
  EXPECT_EQ(hist.stats().tuples_scanned, 32u * 2u);  // bucket reads only
}

TEST(MaterializeTest, TuplesMatchReportedAggregate) {
  auto fixture = Fixture(AggregateKind::kCount);
  ASSERT_NE(fixture, nullptr);
  DirectEvaluationLayer probe(&fixture->task);
  double base = probe.EvaluateQueryValue({0.0, 0.0}).value();
  fixture->task.constraint.target = base * 1.7;
  CellSortedEvaluationLayer layer(&fixture->task,
                                  GridStepFor(fixture->task, {}));
  auto result = RunAcquire(fixture->task, &layer, {});
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(result->satisfied);
  const RefinedQuery& q = result->queries[0];
  auto tuples = MaterializeRefinedQuery(fixture->task, q.pscores);
  ASSERT_TRUE(tuples.ok());
  EXPECT_DOUBLE_EQ(static_cast<double>((*tuples)->num_rows()), q.aggregate);
  // Every materialized tuple genuinely satisfies the refined predicates.
  for (size_t row = 0; row < (*tuples)->num_rows(); ++row) {
    for (size_t i = 0; i < fixture->task.d(); ++i) {
      EXPECT_LE(fixture->task.dims[i]->NeededPScore(**tuples, row),
                q.pscores[i] + 1e-12);
    }
  }
}

TEST(MaterializeTest, OriginalQueryAndArityChecks) {
  auto fixture = Fixture(AggregateKind::kCount);
  ASSERT_NE(fixture, nullptr);
  auto original = MaterializeOriginalQuery(fixture->task);
  ASSERT_TRUE(original.ok());
  DirectEvaluationLayer probe(&fixture->task);
  EXPECT_DOUBLE_EQ(static_cast<double>((*original)->num_rows()),
                   probe.EvaluateQueryValue({0.0, 0.0}).value());
  EXPECT_FALSE(MaterializeRefinedQuery(fixture->task, {1.0}).ok());
}

}  // namespace
}  // namespace acquire
