// Pins the bytes of the protocol report (BuildReportJson(...).Dump()) for
// small fixed tasks, timing fields zeroed. The literals were captured from
// the snprintf/strtod-based printer and the StringFormat("%g") predicate
// text that the std::to_chars formatters replaced, so any drift in number
// spelling, predicate text, escaping or field order fails here.

#include <gtest/gtest.h>

#include <string>

#include "core/processor.h"
#include "server/result_cache.h"
#include "sql/binder.h"
#include "workload/tpch_gen.h"
#include "workload/users_gen.h"

namespace acquire {
namespace {

class ReportBytesTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    catalog_ = new Catalog();
    TpchOptions tpch;
    tpch.suppliers = 50;
    tpch.parts = 100;
    tpch.lineitems = 2000;
    ASSERT_TRUE(GenerateTpch(tpch, catalog_).ok());
    UsersOptions users;
    users.users = 2000;
    ASSERT_TRUE(GenerateUsers(users, catalog_).ok());
  }

  static void TearDownTestSuite() {
    delete catalog_;
    catalog_ = nullptr;
  }

  // The report of `sql` run in process, with elapsed_ms and wall_ms zeroed.
  static std::string Report(const std::string& sql, double gamma,
                            double delta) {
    Binder binder(catalog_);
    Result<AcqTask> task = binder.PlanSql(sql);
    EXPECT_TRUE(task.ok()) << task.status().ToString();
    if (!task.ok()) return "";
    AcquireOptions options;
    options.gamma = gamma;
    options.delta = delta;
    Result<AcqOutcome> outcome = ProcessAcq(*task, options);
    EXPECT_TRUE(outcome.ok()) << outcome.status().ToString();
    if (!outcome.ok()) return "";
    outcome->result.elapsed_ms = 0.0;
    return BuildReportJson(*outcome, &*task, /*wall_ms=*/0.0).Dump();
  }

  static Catalog* catalog_;
};

Catalog* ReportBytesTest::catalog_ = nullptr;

TEST_F(ReportBytesTest, ExpansionWithRepartitionedAnswer) {
  // An equality target that a cell jumps across: one grid answer and one
  // off-grid answer from repartitioning.
  const std::string report = Report(
      "SELECT * FROM lineitem CONSTRAINT COUNT(*) = 213 "
      "WHERE l_quantity <= 10 AND l_discount <= 0.02",
      /*gamma=*/30, /*delta=*/0.01);
  EXPECT_EQ(report,
            R"json({"mode":"expanded","termination":"completed","satisfied":true,"original_aggregate":70,"best":{"sql":"SELECT * FROM lineitem\nWHERE l_quantity <= 15.2294 AND l_discount <= 0.0376206;","predicates":"l_quantity <= 15.2294 AND l_discount <= 0.0376206","aggregate":212,"qscore":146.25,"error":0.004694835680751174},"answers":[{"sql":"SELECT * FROM lineitem\nWHERE l_quantity <= 15.2294 AND l_discount <= 0.0376206;","predicates":"l_quantity <= 15.2294 AND l_discount <= 0.0376206","aggregate":212,"qscore":146.25,"error":0.004694835680751174},{"sql":"SELECT * FROM lineitem\nWHERE l_quantity <= 14.0486 AND l_discount <= 0.0409948;","predicates":"l_quantity <= 14.0486 AND l_discount <= 0.0409948","aggregate":212,"qscore":150,"error":0.004694835680751174}],"queries_explored":66,"cell_queries":66,"elapsed_ms":0,"wall_ms":0})json");
}

TEST_F(ReportBytesTest, SumWithNonIntegralAggregate) {
  // Aggregates that print with up to 17 significant digits.
  const std::string report = Report(
      "SELECT * FROM lineitem CONSTRAINT SUM(l_extendedprice) >= 6000000 "
      "WHERE l_quantity <= 10 AND l_discount <= 0.02",
      /*gamma=*/10, /*delta=*/0.01);
  EXPECT_EQ(report,
            R"json({"mode":"expanded","termination":"completed","satisfied":true,"original_aggregate":4003796.1764215454,"best":{"sql":"SELECT * FROM lineitem\nWHERE l_quantity <= 12.2492 AND l_discount <= 0.023999;","predicates":"l_quantity <= 12.2492 AND l_discount <= 0.023999","aggregate":6032062.142411741,"qscore":45,"error":0},"answers":[{"sql":"SELECT * FROM lineitem\nWHERE l_quantity <= 13.1489 AND l_discount <= 0.0219995;","predicates":"l_quantity <= 13.1489 AND l_discount <= 0.0219995","aggregate":5993746.184168218,"qscore":45,"error":0.0010423026386303827},{"sql":"SELECT * FROM lineitem\nWHERE l_quantity <= 12.2492 AND l_discount <= 0.023999;","predicates":"l_quantity <= 12.2492 AND l_discount <= 0.023999","aggregate":6032062.142411741,"qscore":45,"error":0}],"queries_explored":55,"cell_queries":55,"elapsed_ms":0,"wall_ms":0})json");
}

TEST_F(ReportBytesTest, ContractedRun) {
  // Too many results: contracted answers, rendered against the contraction
  // task.
  const std::string report = Report(
      "SELECT * FROM users CONSTRAINT COUNT(*) = 100 "
      "WHERE age <= 60 AND income <= 90000",
      /*gamma=*/10, /*delta=*/0.05);
  EXPECT_EQ(report,
            R"json({"mode":"contracted","termination":"completed","satisfied":true,"original_aggregate":1395,"best":{"sql":"SELECT * FROM users\nWHERE age <= 60 AND income <= 16876.1;","predicates":"age <= 60 AND income <= 16876.1","aggregate":103,"qscore":97.5,"error":0.03},"answers":[{"sql":"SELECT * FROM users\nWHERE age <= 60 AND income <= 16876.1;","predicates":"age <= 60 AND income <= 16876.1","aggregate":103,"qscore":97.5,"error":0.03},{"sql":"SELECT * FROM users\nWHERE age <= 18 AND income <= 90000;","predicates":"age <= 18 AND income <= 90000","aggregate":95,"qscore":100,"error":0.05}],"queries_explored":231,"cell_queries":0,"elapsed_ms":0,"wall_ms":0})json");
}

TEST_F(ReportBytesTest, OriginalSatisfies) {
  const std::string report = Report(
      "SELECT * FROM lineitem CONSTRAINT SUM(l_extendedprice) >= 4000000 "
      "WHERE l_quantity <= 10 AND l_discount <= 0.02",
      /*gamma=*/10, /*delta=*/0.05);
  EXPECT_EQ(report,
            R"json({"mode":"original-satisfies","termination":"completed","satisfied":true,"original_aggregate":4003796.1764215454,"best":{"sql":"SELECT * FROM lineitem\nWHERE l_quantity <= 10 AND l_discount <= 0.02;","predicates":"l_quantity <= 10 AND l_discount <= 0.02","aggregate":4003796.1764215454,"qscore":0,"error":0},"answers":[{"sql":"SELECT * FROM lineitem\nWHERE l_quantity <= 10 AND l_discount <= 0.02;","predicates":"l_quantity <= 10 AND l_discount <= 0.02","aggregate":4003796.1764215454,"qscore":0,"error":0}],"queries_explored":1,"cell_queries":0,"elapsed_ms":0,"wall_ms":0})json");
}

TEST_F(ReportBytesTest, JoinDimension) {
  // A refinable equi-join widens into an ABS band (JoinDim).
  const std::string report = Report(
      "SELECT * FROM supplier, partsupp CONSTRAINT COUNT(*) >= 300 "
      "WHERE s_suppkey = ps_suppkey AND s_acctbal < 2000",
      /*gamma=*/10, /*delta=*/0.05);
  EXPECT_EQ(report,
            R"json({"mode":"expanded","termination":"completed","satisfied":true,"original_aggregate":76,"best":{"sql":"SELECT * FROM supplier, partsupp\nWHERE ABS(s_suppkey - ps_suppkey) <= 2.45 AND s_acctbal < 2000;","predicates":"ABS(s_suppkey - ps_suppkey) <= 2.45 AND s_acctbal < 2000","aggregate":361,"qscore":2.45,"error":0},"answers":[{"sql":"SELECT * FROM supplier, partsupp\nWHERE ABS(s_suppkey - ps_suppkey) <= 2.45 AND s_acctbal < 2000;","predicates":"ABS(s_suppkey - ps_suppkey) <= 2.45 AND s_acctbal < 2000","aggregate":361,"qscore":2.45,"error":0}],"queries_explored":3,"cell_queries":3,"elapsed_ms":0,"wall_ms":0})json");
}

TEST_F(ReportBytesTest, ExprDimension) {
  // A predicate function refines as one ExprDim.
  const std::string report = Report(
      "SELECT * FROM lineitem CONSTRAINT COUNT(*) >= 500 "
      "WHERE l_extendedprice * l_discount <= 500",
      /*gamma=*/10, /*delta=*/0.05);
  EXPECT_EQ(report,
            R"json({"mode":"expanded","termination":"completed","satisfied":true,"original_aggregate":375,"best":{"sql":"SELECT * FROM lineitem\nWHERE (l_extendedprice * l_discount) <= 749.986;","predicates":"(l_extendedprice * l_discount) <= 749.986","aggregate":499,"qscore":50,"error":0.002},"answers":[{"sql":"SELECT * FROM lineitem\nWHERE (l_extendedprice * l_discount) <= 749.986;","predicates":"(l_extendedprice * l_discount) <= 749.986","aggregate":499,"qscore":50,"error":0.002}],"queries_explored":6,"cell_queries":6,"elapsed_ms":0,"wall_ms":0})json");
}

}  // namespace
}  // namespace acquire
