// Remaining driver/generator behaviors: collect_within_gamma spanning
// layers, one-dimensional shell enumeration, contraction-result SQL
// rendering, and Zipf rank-count effects in the generator.

#include <gtest/gtest.h>
#include <cmath>
#include <limits>
#include <set>

#include "acquire.h"
#include "core/expand.h"
#include "core/refined_space.h"
#include "test_util.h"

namespace acquire {
namespace {

using test_util::MakeSyntheticTask;
using test_util::SyntheticOptions;

TEST(CollectWithinGammaTest, AnswersSpanMultipleLayers) {
  SyntheticOptions options;
  options.d = 2;
  options.rows = 4000;
  options.target = 1.0;
  auto fixture = MakeSyntheticTask(options);
  ASSERT_NE(fixture, nullptr);
  DirectEvaluationLayer probe(&fixture->task);
  fixture->task.constraint.target =
      probe.EvaluateQueryValue({0.0, 0.0}).value() * 1.5;

  AcquireOptions acq;
  acq.delta = 0.15;  // generous band: later layers also qualify
  acq.collect_within_gamma = true;
  CellSortedEvaluationLayer layer(&fixture->task,
                                  GridStepFor(fixture->task, acq));
  auto result = RunAcquire(fixture->task, &layer, acq);
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(result->satisfied);
  std::set<int64_t> layers;
  for (const RefinedQuery& q : result->queries) {
    if (!q.coord.empty()) layers.insert(q.coord[0] + q.coord[1]);
  }
  EXPECT_GT(layers.size(), 1u);
  // Every extra answer stays within gamma of the best (Definition 1b).
  for (const RefinedQuery& q : result->queries) {
    EXPECT_LE(q.qscore, result->queries.front().qscore + acq.gamma + 1e-9);
  }
}

TEST(ShellGeneratorTest, OneDimensionalShellsAreJustTheLine) {
  SyntheticOptions options;
  options.d = 1;
  options.rows = 300;
  auto fixture = MakeSyntheticTask(options);
  ASSERT_NE(fixture, nullptr);
  RefinedSpace space(&fixture->task, 10.0, Norm::LInf());
  ShellGenerator gen(&space);
  std::vector<int32_t> keys;
  double score = 0.0;
  for (int32_t expected = 0; expected <= 5; ++expected) {
    ASSERT_TRUE(gen.NextLayer(&keys, &score));
    EXPECT_EQ(keys, GridCoord{expected});
  }
}

TEST(ContractionPrinterTest, RefinedSqlRendersContractedBounds) {
  SyntheticOptions options;
  options.d = 1;
  options.rows = 4000;
  options.bound = 70.0;
  options.target = 1.0;
  auto fixture = MakeSyntheticTask(options);
  ASSERT_NE(fixture, nullptr);
  DirectEvaluationLayer probe(&fixture->task);
  fixture->task.constraint.target =
      probe.EvaluateQueryValue({0.0}).value() * 0.5;

  AcquireOptions acq;
  acq.delta = 0.05;
  acq.repartition_iters = 20;
  CellSortedEvaluationLayer layer(&fixture->task,
                                  GridStepFor(fixture->task, acq));
  auto outcome = ProcessAcq(fixture->task, &layer, acq);
  ASSERT_TRUE(outcome.ok());
  ASSERT_EQ(outcome->mode, AcqMode::kContracted);
  ASSERT_TRUE(outcome->result.satisfied);
  const RefinedQuery& q = outcome->result.queries.front();
  std::string sql = RenderRefinedSql(*outcome->contraction_task, q);
  // The rendered bound must be strictly below the original 70.
  EXPECT_NE(sql.find("c0 <="), std::string::npos);
  EXPECT_EQ(sql.find("<= 70"), std::string::npos);
  // And the report names the contraction distance.
  std::string report = RefinementReport(*outcome->contraction_task, q);
  EXPECT_NE(report.find("of range"), std::string::npos);
}

TEST(ZipfRanksTest, FewerRanksCoarsensValues) {
  Catalog fine_cat;
  Catalog coarse_cat;
  TpchOptions fine;
  fine.lineitems = 5000;
  fine.zipf_theta = 1.0;
  fine.zipf_ranks = 1000;
  TpchOptions coarse = fine;
  coarse.zipf_ranks = 5;
  ASSERT_TRUE(GenerateTpch(fine, &fine_cat).ok());
  ASSERT_TRUE(GenerateTpch(coarse, &coarse_cat).ok());
  auto distinct = [](const TablePtr& t) {
    size_t col = t->schema().FieldIndex("l_quantity").value();
    std::set<double> values;
    for (size_t r = 0; r < t->num_rows(); ++r) {
      values.insert(t->column(col).GetDouble(r));
    }
    return values.size();
  };
  size_t fine_distinct = distinct(fine_cat.GetTable("lineitem").value());
  size_t coarse_distinct = distinct(coarse_cat.GetTable("lineitem").value());
  EXPECT_LE(coarse_distinct, 5u);
  EXPECT_GT(fine_distinct, 100u);
}

TEST(BestFirstCapsTest, ExhaustsCappedSpaceWithoutDuplicates) {
  SyntheticOptions options;
  options.d = 2;
  options.rows = 300;
  auto fixture = MakeSyntheticTask(options);
  ASSERT_NE(fixture, nullptr);
  for (auto& dim : fixture->task.dims) {
    dynamic_cast<NumericDim*>(dim.get())->set_max_refinement(10.0);
  }
  RefinedSpace space(&fixture->task, 10.0, Norm::L2());
  BestFirstGenerator gen(&space);
  std::set<GridCoord> seen;
  size_t count = 0;
  for (const auto& [coord, score] :
       test_util::DrainCoords(&gen, 2, std::numeric_limits<size_t>::max())) {
    EXPECT_TRUE(seen.insert(coord).second);
    ++count;
  }
  EXPECT_EQ(count, 9u);  // 3 x 3 capped grid
}

}  // namespace
}  // namespace acquire
