#include "core/report.h"

#include <gtest/gtest.h>

#include "core/processor.h"
#include "index/cell_sorted.h"
#include "test_util.h"

namespace acquire {
namespace {

using test_util::MakeSyntheticTask;
using test_util::SyntheticOptions;

RefinedQuery MakeQuery(std::vector<double> pscores, double qscore) {
  RefinedQuery q;
  q.pscores = std::move(pscores);
  q.qscore = qscore;
  return q;
}

TEST(RefinementReportTest, ShowsChangedUnchangedAndFixed) {
  SyntheticOptions options;
  options.d = 2;
  auto fixture = MakeSyntheticTask(options);
  ASSERT_NE(fixture, nullptr);
  fixture->task.fixed_predicate_labels = {"category = 'toys'"};

  RefinedQuery q;
  q.pscores = {20.0, 0.0};
  q.aggregate = 1234.0;
  q.error = 0.01;
  q.qscore = 20.0;
  std::string report = RefinementReport(fixture->task, q);
  EXPECT_NE(report.find("c0 <= 30"), std::string::npos);     // before
  EXPECT_NE(report.find("+20% of range"), std::string::npos);
  EXPECT_NE(report.find("(unchanged)"), std::string::npos);  // dim 1
  EXPECT_NE(report.find("(NOREFINE)"), std::string::npos);
  EXPECT_NE(report.find("COUNT(*): 1234"), std::string::npos);
}

TEST(ParetoFilterTest, DropsDominatedVectors) {
  std::vector<RefinedQuery> queries;
  queries.push_back(MakeQuery({5.0, 10.0}, 15.0));  // kept
  queries.push_back(MakeQuery({10.0, 5.0}, 15.0));  // kept (trade-off)
  queries.push_back(MakeQuery({10.0, 10.0}, 20.0)); // dominated by both
  queries.push_back(MakeQuery({5.0, 10.0}, 15.0));  // duplicate: kept (ties)
  auto frontier = ParetoFilter(std::move(queries));
  ASSERT_EQ(frontier.size(), 3u);
  for (const RefinedQuery& q : frontier) {
    EXPECT_NE(q.pscores, (std::vector<double>{10.0, 10.0}));
  }
}

TEST(ParetoFilterTest, SortsByQScore) {
  std::vector<RefinedQuery> queries;
  queries.push_back(MakeQuery({9.0, 0.0}, 9.0));
  queries.push_back(MakeQuery({0.0, 4.0}, 4.0));
  auto frontier = ParetoFilter(std::move(queries));
  ASSERT_EQ(frontier.size(), 2u);
  EXPECT_LE(frontier[0].qscore, frontier[1].qscore);
}

TEST(ParetoFilterTest, EmptyAndSingleton) {
  EXPECT_TRUE(ParetoFilter({}).empty());
  auto one = ParetoFilter({MakeQuery({1.0}, 1.0)});
  EXPECT_EQ(one.size(), 1u);
}

TEST(ParetoFilterTest, HitLayerAnswersAreAllTradeoffs) {
  // Answers from one L1 layer all share the same coordinate sum, so none
  // dominates another — the frontier keeps them all.
  SyntheticOptions options;
  options.d = 2;
  options.rows = 3000;
  options.target = 1.0;
  auto fixture = MakeSyntheticTask(options);
  ASSERT_NE(fixture, nullptr);
  DirectEvaluationLayer probe(&fixture->task);
  fixture->task.constraint.target =
      probe.EvaluateQueryValue({0.0, 0.0}).value() * 1.6;
  AcquireOptions acq;
  acq.delta = 0.2;  // generous: several same-layer hits
  CellSortedEvaluationLayer layer(&fixture->task,
                                  GridStepFor(fixture->task, acq));
  auto result = RunAcquire(fixture->task, &layer, acq);
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(result->satisfied);
  size_t grid_answers = 0;
  std::vector<RefinedQuery> grid_only;
  for (const RefinedQuery& q : result->queries) {
    if (!q.coord.empty()) {
      ++grid_answers;
      grid_only.push_back(q);
    }
  }
  auto frontier = ParetoFilter(grid_only);
  EXPECT_EQ(frontier.size(), grid_answers);
}

}  // namespace
}  // namespace acquire
