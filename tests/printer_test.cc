#include "sql/printer.h"

#include <gtest/gtest.h>

#include "core/acquire.h"
#include "core/processor.h"
#include "index/cell_sorted.h"
#include "sql/binder.h"
#include "workload/tpch_gen.h"

namespace acquire {
namespace {

class PrinterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TpchOptions options;
    options.suppliers = 50;
    options.parts = 100;
    options.lineitems = 2000;
    ASSERT_TRUE(GenerateTpch(options, &catalog_).ok());
  }

  Catalog catalog_;
};

TEST_F(PrinterTest, OriginalSqlEchoesConstraintAndNorefine) {
  Binder binder(&catalog_);
  auto task = binder.PlanSql(
      "SELECT * FROM lineitem CONSTRAINT COUNT(*) = 900 "
      "WHERE l_quantity < 20 AND l_discount <= 0.05 NOREFINE");
  ASSERT_TRUE(task.ok());
  std::string sql = RenderOriginalSql(*task);
  EXPECT_NE(sql.find("SELECT * FROM lineitem"), std::string::npos);
  EXPECT_NE(sql.find("CONSTRAINT COUNT(*) = 900"), std::string::npos);
  EXPECT_NE(sql.find("l_quantity < 20"), std::string::npos);
  EXPECT_NE(sql.find("l_discount <= 0.05 NOREFINE"), std::string::npos);
}

TEST_F(PrinterTest, RefinedSqlIsRunnablePlainSql) {
  Binder binder(&catalog_);
  auto task = binder.PlanSql(
      "SELECT * FROM lineitem CONSTRAINT COUNT(*) = 900 "
      "WHERE l_quantity < 20 AND l_discount <= 0.05 NOREFINE");
  ASSERT_TRUE(task.ok());
  CellSortedEvaluationLayer layer(&*task, GridStepFor(*task, {}));
  auto result = RunAcquire(*task, &layer, {});
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(result->satisfied);
  std::string sql = RenderRefinedSql(*task, result->queries[0]);
  EXPECT_NE(sql.find("SELECT * FROM lineitem"), std::string::npos);
  EXPECT_NE(sql.find("WHERE"), std::string::npos);
  EXPECT_NE(sql.find("l_discount <= 0.05"), std::string::npos);
  // No ACQ-only syntax in the refined output.
  EXPECT_EQ(sql.find("CONSTRAINT"), std::string::npos);
  EXPECT_EQ(sql.find("NOREFINE"), std::string::npos);
}

TEST_F(PrinterTest, MultiTableFromClause) {
  Binder binder(&catalog_);
  auto task = binder.PlanSql(
      "SELECT * FROM supplier, partsupp "
      "CONSTRAINT SUM(ps_availqty) >= 1000 "
      "WHERE s_suppkey = ps_suppkey NOREFINE AND s_acctbal < 2000");
  ASSERT_TRUE(task.ok()) << task.status().ToString();
  std::string sql = RenderOriginalSql(*task);
  EXPECT_NE(sql.find("FROM supplier, partsupp"), std::string::npos);
  EXPECT_NE(sql.find("s_suppkey = ps_suppkey NOREFINE"), std::string::npos);
}

}  // namespace
}  // namespace acquire
