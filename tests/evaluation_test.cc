#include "exec/evaluation.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "common/random.h"
#include "exec/planner.h"
#include "index/cell_sorted.h"
#include "workload/tpch_gen.h"

namespace acquire {
namespace {

TEST(PScoreLevelTest, ZeroAndPositive) {
  EXPECT_EQ(PScoreLevel(0.0, 3.0), 0);
  EXPECT_EQ(PScoreLevel(-1.0, 3.0), 0);
  EXPECT_EQ(PScoreLevel(0.1, 3.0), 1);
  EXPECT_EQ(PScoreLevel(3.0, 3.0), 1);   // boundary belongs to the level
  EXPECT_EQ(PScoreLevel(3.0001, 3.0), 2);
  EXPECT_EQ(PScoreLevel(9.0, 3.0), 3);
}

TEST(PScoreLevelTest, UnreachableIsMinusOne) {
  EXPECT_EQ(PScoreLevel(std::numeric_limits<double>::infinity(), 3.0), -1);
}

// The inline level against an independent std::ceil of the quotient, for
// every finite positive quotient below the 2^62 saturation point.
TEST(PScoreLevelTest, MatchesCeilOfQuotient) {
  auto ceil_level = [](double needed, double step) {
    return static_cast<int64_t>(std::ceil(needed / step));
  };
  Rng rng(23);
  for (int k = 0; k < 200000; ++k) {
    const double step = std::ldexp(rng.NextDouble(1.0, 2.0),
                                   static_cast<int>(rng.NextInt(-30, 10)));
    const double needed = std::ldexp(rng.NextDouble(1.0, 2.0),
                                     static_cast<int>(rng.NextInt(-40, 40)));
    if (!(needed / step < 0x1p62)) continue;
    ASSERT_EQ(PScoreLevel(needed, step), ceil_level(needed, step))
        << needed << " / " << step;
  }
  // Exact multiples of the step, and their neighbours one ulp either side.
  for (const double step : {0.1, 0.3, 1.0 / 3.0, 4.0, 1e-3, 12.0 / 7.0}) {
    for (int64_t u = 1; u <= 5000; ++u) {
      const double v = static_cast<double>(u) * step;
      for (const double needed :
           {v, std::nextafter(v, 0.0), std::nextafter(v, 1e300)}) {
        ASSERT_EQ(PScoreLevel(needed, step), ceil_level(needed, step))
            << needed << " / " << step;
      }
    }
  }
  const double denormal = std::numeric_limits<double>::denorm_min();
  for (const double step : {1e-9, 1.0, 3.0, 1e300}) {
    for (const double needed : {1e-9, denormal, 1000.0 * denormal,
                                std::numeric_limits<double>::min()}) {
      EXPECT_EQ(PScoreLevel(needed, step), ceil_level(needed, step))
          << needed << " / " << step;
    }
  }
  EXPECT_EQ(PScoreLevel(-0.0, 3.0), 0);
  EXPECT_EQ(PScoreLevel(std::numeric_limits<double>::infinity(), 3.0), -1);
  EXPECT_EQ(PScoreLevel(-std::numeric_limits<double>::infinity(), 3.0), -1);
  EXPECT_EQ(PScoreLevel(std::nan(""), 3.0), -1);
  // NaN is unreachable because no box admits it.
  EXPECT_FALSE((PScoreRange{-1.0, 1e300}.Admits(std::nan(""))));
}

// Quotients at or above 2^62, finite or overflowed, saturate there instead
// of taking an undefined conversion.
TEST(PScoreLevelTest, SaturatesHugeQuotients) {
  constexpr int64_t kSaturated = int64_t{1} << 62;
  EXPECT_EQ(PScoreLevel(1e20, 3.0), kSaturated);
  EXPECT_EQ(PScoreLevel(0x1p62, 1.0), kSaturated);
  EXPECT_EQ(PScoreLevel(std::numeric_limits<double>::max(), 1e-300),
            kSaturated);
  EXPECT_EQ(PScoreLevel(std::nextafter(0x1p62, 0.0), 1.0),
            static_cast<int64_t>(std::nextafter(0x1p62, 0.0)));
  EXPECT_EQ(PScoreLevel(4294967296.5, 1.0), int64_t{4294967297});
}

TEST(CellRangeTest, InverseOfLevel) {
  PScoreRange r0 = CellRangeForLevel(0, 3.0);
  EXPECT_TRUE(r0.Admits(0.0));
  EXPECT_FALSE(r0.Admits(0.5));
  PScoreRange r2 = CellRangeForLevel(2, 3.0);
  EXPECT_FALSE(r2.Admits(3.0));
  EXPECT_TRUE(r2.Admits(3.5));
  EXPECT_TRUE(r2.Admits(6.0));
  EXPECT_FALSE(r2.Admits(6.5));
}

TEST(PScoreRangeTest, AdmitsSemantics) {
  PScoreRange full{-1.0, 10.0};
  EXPECT_TRUE(full.Admits(0.0));
  EXPECT_TRUE(full.Admits(10.0));
  EXPECT_FALSE(full.Admits(10.1));
  PScoreRange band{5.0, 10.0};
  EXPECT_FALSE(band.Admits(5.0));  // open below
  EXPECT_TRUE(band.Admits(5.1));
}

class EvaluationLayerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TpchOptions options;
    options.lineitems = 5000;
    options.suppliers = 50;
    options.parts = 100;
    ASSERT_TRUE(GenerateTpch(options, &catalog_).ok());

    QuerySpec spec;
    spec.tables = {"lineitem"};
    spec.predicates.push_back(SelectPredicateSpec{
        "l_quantity", CompareOp::kLe, 15.0, true, 1.0, {}});
    spec.predicates.push_back(SelectPredicateSpec{
        "l_extendedprice", CompareOp::kLe, 30000.0, true, 1.0, {}});
    spec.agg_kind = AggregateKind::kSum;
    spec.agg_column = "l_extendedprice";
    spec.target = 1.0;
    auto task = PlanAcqTask(catalog_, spec);
    ASSERT_TRUE(task.ok()) << task.status().ToString();
    task_ = std::make_unique<AcqTask>(std::move(task).value());
  }

  Catalog catalog_;
  std::unique_ptr<AcqTask> task_;
};

TEST_F(EvaluationLayerTest, DirectAndCellSortedAgreeOnRandomBoxes) {
  // Random bounds are off the grid, so the cell-sorted layer scans its
  // relation-order matrix with the direct layer's kernel: same bytes.
  DirectEvaluationLayer direct(task_.get());
  CellSortedEvaluationLayer cell_sorted(task_.get(), 5.0);
  ASSERT_TRUE(cell_sorted.Prepare().ok());
  Rng rng(3);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<PScoreRange> box(task_->d());
    for (auto& r : box) {
      double a = rng.NextDouble(-1.0, 60.0);
      double b = rng.NextDouble(0.0, 80.0);
      r.lo = std::min(a, b);
      r.hi = std::max(a, b) + 0.1;
    }
    auto s1 = direct.EvaluateBox(box);
    auto s2 = cell_sorted.EvaluateBox(box);
    ASSERT_TRUE(s1.ok() && s2.ok());
    ASSERT_EQ(s1->size(), s2->size());
    EXPECT_EQ(0, std::memcmp(s1->data(), s2->data(),
                             s1->size() * sizeof(double)))
        << "trial " << trial;
  }
}

TEST_F(EvaluationLayerTest, FullQueryAtZeroMatchesOriginalPredicates) {
  DirectEvaluationLayer layer(task_.get());
  auto value = layer.EvaluateQueryValue({0.0, 0.0});
  ASSERT_TRUE(value.ok());
  // Brute-force the original query.
  const Table& rel = *task_->relation;
  size_t qty = rel.schema().FieldIndex("l_quantity").value();
  size_t price = rel.schema().FieldIndex("l_extendedprice").value();
  double expected = 0.0;
  for (size_t r = 0; r < rel.num_rows(); ++r) {
    if (rel.column(qty).GetDouble(r) <= 15.0 &&
        rel.column(price).GetDouble(r) <= 30000.0) {
      expected += rel.column(price).GetDouble(r);
    }
  }
  EXPECT_NEAR(*value, expected, 1e-6 * std::max(1.0, expected));
}

TEST_F(EvaluationLayerTest, WiderBoxesAreMonotone) {
  DirectEvaluationLayer layer(task_.get());
  double prev = 0.0;
  for (double p = 0.0; p <= 50.0; p += 10.0) {
    auto value = layer.EvaluateQueryValue({p, p});
    ASSERT_TRUE(value.ok());
    EXPECT_GE(*value, prev);  // SUM of positive values grows with the query
    prev = *value;
  }
}

TEST_F(EvaluationLayerTest, StatsCountQueriesAndTuples) {
  DirectEvaluationLayer layer(task_.get());
  ASSERT_TRUE(layer.EvaluateQueryValue({0.0, 0.0}).ok());
  ASSERT_TRUE(layer.EvaluateQueryValue({5.0, 5.0}).ok());
  EXPECT_EQ(layer.stats().queries, 2u);
  EXPECT_EQ(layer.stats().tuples_scanned, 2 * task_->relation->num_rows());
  layer.ResetStats();
  EXPECT_EQ(layer.stats().queries, 0u);
}

TEST_F(EvaluationLayerTest, WrongArityRejected) {
  DirectEvaluationLayer layer(task_.get());
  auto r = layer.EvaluateBox({PScoreRange{-1.0, 0.0}});
  EXPECT_FALSE(r.ok());
}

TEST_F(EvaluationLayerTest, ComputeNeededMatchesDims) {
  std::vector<double> needed;
  ComputeNeeded(*task_, 0, &needed);
  ASSERT_EQ(needed.size(), 2u);
  EXPECT_DOUBLE_EQ(needed[0],
                   task_->dims[0]->NeededPScore(*task_->relation, 0));
  EXPECT_DOUBLE_EQ(needed[1],
                   task_->dims[1]->NeededPScore(*task_->relation, 0));
}

}  // namespace
}  // namespace acquire
