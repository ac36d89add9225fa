// RefinementDim::NeededPScores, the column call behind the needed-matrix
// fill and the direct layer's scan, against one NeededPScore call per row:
// NumericDim's typed loops on int64 and double columns, every other
// dimension kind through the base per-row loop, and BuildNeededMatrixRows
// over row slices against per-row ComputeNeeded and AggValue. Every
// comparison is memcmp, so signed zeros and NaN payloads count.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/contract.h"
#include "exec/eval_kernel.h"
#include "exec/planner.h"
#include "expr/custom_metric_dim.h"
#include "expr/ontology.h"
#include "expr/refinement_dim.h"
#include "storage/catalog.h"

namespace acquire {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// The value the slices' output buffers start as; a slot a call must not
// write still holds it afterwards.
constexpr double kUntouched = -12345.0;

// The row ranges every comparison covers: whole, offset at either end, an
// inner slice, and empty ones at the start, the middle and the end.
std::vector<std::pair<size_t, size_t>> Slices(size_t n) {
  return {{0, n},         {1, n},         {0, n - 1}, {n / 3, 2 * n / 3},
          {n / 2, n / 2}, {0, 0},         {n, n},     {n - 1, n}};
}

// NeededPScores over every slice must write the bytes one NeededPScore call
// per row gives, and nothing past the slice.
void ExpectKernelMatchesPerRow(const RefinementDim& dim, const Table& table) {
  const size_t n = table.num_rows();
  ASSERT_GE(n, 3u);
  std::vector<double> per_row(n);
  for (size_t row = 0; row < n; ++row) {
    per_row[row] = dim.NeededPScore(table, row);
  }
  for (const auto& [begin, end] : Slices(n)) {
    SCOPED_TRACE(testing::Message() << "rows [" << begin << ", " << end
                                    << ")");
    std::vector<double> got(end - begin + 1, kUntouched);
    dim.NeededPScores(table, begin, end, got.data());
    EXPECT_EQ(0, std::memcmp(got.data(), per_row.data() + begin,
                             (end - begin) * sizeof(double)));
    EXPECT_EQ(got.back(), kUntouched);
  }
}

// A table of one int64 column "i" and one double column "x" holding the
// given values, row for row.
TablePtr MakeColumns(const std::vector<int64_t>& ints,
                     const std::vector<double>& doubles) {
  EXPECT_EQ(ints.size(), doubles.size());
  auto t = std::make_shared<Table>(
      "t", Schema({{"i", DataType::kInt64, ""}, {"x", DataType::kDouble, ""}}));
  for (size_t row = 0; row < ints.size(); ++row) {
    t->mutable_column(0).AppendInt64(ints[row]);
    t->mutable_column(1).AppendDouble(doubles[row]);
  }
  EXPECT_TRUE(t->FinalizeAppend().ok());
  return t;
}

// Values around each bound the NumericDim cases use (0, 49.5, 50 and 100 on
// [0, 100]): on it, one ulp (double) or one unit (int64) either side, past
// MaxPScore on both sides, and for the double column NaN, ±inf and -0.0.
TablePtr MakeNumericTable() {
  std::vector<double> doubles;
  for (const double b : {0.0, 49.5, 50.0, 100.0}) {
    doubles.insert(doubles.end(), {b, std::nextafter(b, kInf),
                                   std::nextafter(b, -kInf)});
  }
  doubles.insert(doubles.end(),
                 {25.0, 60.0, 75.0, 150.0, -50.0, 1e9, -1e9, 5e-324, -0.0,
                  std::nan(""), kInf, -kInf, 12.25, 87.75, 99.0});
  std::vector<int64_t> ints = {0,  1,  -1,  49,  50,  51,  99,    100,
                               101, 25, 60, 75, 150, -50, 1000000000,
                               -1000000000, (int64_t{1} << 53) + 1,
                               std::numeric_limits<int64_t>::max(),
                               std::numeric_limits<int64_t>::min(), 12, 88,
                               30, 70, 45, 55, 10, 90};
  ints.resize(doubles.size(), 40);
  return MakeColumns(ints, doubles);
}

struct NumericCase {
  const char* name;
  double bound;
  double cap;  // user refinement cap; kInf for none
};

// The four operators on both column types, at a plain bound, under a user
// cap, at a bound off the int64 grid, and at the two degenerate bounds (at
// the domain minimum an upper predicate's width is 0, at the maximum a
// lower one's), each against the per-row path.
TEST(NeededPScoresTest, NumericDimMatchesPerRowOnInt64AndDoubleColumns) {
  const TablePtr table = MakeNumericTable();
  const NumericCase cases[] = {{"plain", 50.0, kInf},
                               {"user_cap", 50.0, 10.0},
                               {"off_grid", 49.5, kInf},
                               {"at_domain_min", 0.0, kInf},
                               {"at_domain_max", 100.0, kInf}};
  for (const char* column : {"i", "x"}) {
    for (const NumericCase& c : cases) {
      for (const bool upper : {true, false}) {
        for (const bool strict : {true, false}) {
          SCOPED_TRACE(testing::Message()
                       << column << " " << c.name
                       << (upper ? (strict ? " <" : " <=")
                                 : (strict ? " >" : " >=")));
          NumericDim dim(column, upper, c.bound, strict, 0.0, 100.0);
          if (c.cap < kInf) dim.set_max_refinement(c.cap);
          ASSERT_TRUE(dim.Bind(table->schema()).ok());
          ASSERT_NO_FATAL_FAILURE(ExpectKernelMatchesPerRow(dim, *table));
        }
      }
    }
  }
}

// The numeric cases are not vacuous: the per-row path yields each of its
// outcomes on the test table — admitted (0), exactly on a strict bound
// (1e-9), a finite refinement, past the cap (inf) and, for NaN, NaN.
TEST(NeededPScoresTest, NumericTableCoversEveryOutcome) {
  const TablePtr table = MakeNumericTable();
  NumericDim dim("x", /*is_upper=*/true, 50.0, /*strict=*/true, 0.0, 100.0);
  ASSERT_TRUE(dim.Bind(table->schema()).ok());
  std::vector<double> got(table->num_rows());
  dim.NeededPScores(*table, 0, table->num_rows(), got.data());
  size_t zero = 0, epsilon = 0, finite = 0, inf = 0, nan = 0;
  for (const double v : got) {
    zero += v == 0.0;
    epsilon += v == 1e-9;
    finite += v > 1e-9 && v < kInf;
    inf += v == kInf;
    nan += std::isnan(v);
  }
  EXPECT_GT(zero, 0u);
  EXPECT_EQ(epsilon, 1u);
  EXPECT_GT(finite, 0u);
  EXPECT_GT(inf, 0u);
  EXPECT_EQ(nan, 1u);
}

// A table of two double columns "x" and "y", and a string column "city".
TablePtr MakeMixedTable() {
  auto t = std::make_shared<Table>(
      "t", Schema({{"x", DataType::kDouble, ""},
                   {"y", DataType::kDouble, ""},
                   {"city", DataType::kString, ""}}));
  const char* cities[] = {"Boston", "Austin", "NYC", "Paris", "Boston"};
  for (size_t row = 0; row < 40; ++row) {
    const double x = static_cast<double>(row) * 2.5 - 10.0;
    const double y = static_cast<double>((row * 7) % 13) - 2.0;
    t->mutable_column(0).AppendDouble(x);
    t->mutable_column(1).AppendDouble(y);
    t->mutable_column(2).AppendString(cities[row % 5]);
  }
  EXPECT_TRUE(t->FinalizeAppend().ok());
  return t;
}

TEST(NeededPScoresTest, JoinDimMatchesPerRow) {
  const TablePtr table = MakeMixedTable();
  JoinDim dim("x", "y", /*band_cap=*/30.0);
  ASSERT_TRUE(dim.Bind(table->schema()).ok());
  ExpectKernelMatchesPerRow(dim, *table);
}

// x / y, which fails (and is unreachable) where y is 0.
TEST(NeededPScoresTest, ExprDimMatchesPerRow) {
  const TablePtr table = MakeMixedTable();
  ExprDim dim(Expr::Arith(ArithOp::kDiv, Expr::Column("x"), Expr::Column("y")),
              /*is_upper=*/true, 2.0, /*strict=*/true, -20.0, 40.0);
  ASSERT_TRUE(dim.Bind(table->schema()).ok());
  ExpectKernelMatchesPerRow(dim, *table);
}

TEST(NeededPScoresTest, CategoricalDimMatchesPerRowAfterPrecompute) {
  const TablePtr table = MakeMixedTable();
  OntologyTree tree;
  ASSERT_TRUE(tree.AddNode("US", "").ok());
  ASSERT_TRUE(tree.AddNode("EastCoast", "US").ok());
  ASSERT_TRUE(tree.AddNode("Boston", "EastCoast").ok());
  ASSERT_TRUE(tree.AddNode("NYC", "EastCoast").ok());
  ASSERT_TRUE(tree.AddNode("Austin", "US").ok());
  // "Paris" is outside the ontology, so its rows are unreachable.
  CategoricalDim dim("city", {"Boston"}, &tree);
  ASSERT_TRUE(dim.Bind(table->schema()).ok());
  ASSERT_TRUE(dim.PrecomputeNeeded(*table).ok());
  ExpectKernelMatchesPerRow(dim, *table);
}

TEST(NeededPScoresTest, ContractionDimMatchesPerRow) {
  const TablePtr table = MakeMixedTable();
  for (const bool upper : {true, false}) {
    ContractionDim dim("x", upper, 40.0, /*width=*/50.0);
    ASSERT_TRUE(dim.Bind(table->schema()).ok());
    ExpectKernelMatchesPerRow(dim, *table);
  }
}

// The decorator goes through the base loop even though its inner NumericDim
// has a column kernel.
TEST(NeededPScoresTest, CustomMetricDimMatchesPerRow) {
  const TablePtr table = MakeMixedTable();
  CustomMetricDim dim(
      std::make_unique<NumericDim>("x", true, 20.0, false, -10.0, 87.5),
      [](double p) { return p * p; }, "squared");
  ASSERT_TRUE(dim.Bind(table->schema()).ok());
  ExpectKernelMatchesPerRow(dim, *table);
}

// A relation of `rows` rows with an int64 column "qty" and a double column
// "price", planned with qty <= 20 and price >= 700 refinable and the given
// aggregate over qty (an int64 aggregate column) or COUNT(*).
struct PlannedTask {
  Catalog catalog;  // owns the data; must outlive `task`
  AcqTask task;
};

std::unique_ptr<PlannedTask> MakeInt64Task(size_t rows, AggregateKind agg) {
  auto out = std::make_unique<PlannedTask>();
  auto table = std::make_shared<Table>(
      "items", Schema({{"qty", DataType::kInt64, ""},
                       {"price", DataType::kDouble, ""}}));
  for (size_t row = 0; row < rows; ++row) {
    table->mutable_column(0).AppendInt64(static_cast<int64_t>(row * 37 % 50));
    table->mutable_column(1).AppendDouble(
        static_cast<double>(row * 7919 % 1000) + 0.25);
  }
  if (!table->FinalizeAppend().ok()) return nullptr;
  if (!out->catalog.AddTable(table).ok()) return nullptr;
  QuerySpec spec;
  spec.tables = {"items"};
  spec.predicates.push_back(
      SelectPredicateSpec{"qty", CompareOp::kLe, 20.0, true, 1.0, {}});
  spec.predicates.push_back(
      SelectPredicateSpec{"price", CompareOp::kGe, 700.0, true, 1.0, {}});
  spec.agg_kind = agg;
  if (agg != AggregateKind::kCount) spec.agg_column = "qty";
  spec.constraint_op = ConstraintOp::kGe;
  spec.target = 10.0;
  auto task = PlanAcqTask(out->catalog, spec);
  if (!task.ok()) return nullptr;
  out->task = std::move(task).value();
  return out;
}

// The fill over row slices, including ones long enough to split into pool
// chunks at an offset, must equal per-row ComputeNeeded and AggValue.
TEST(NeededPScoresTest, BuildNeededMatrixRowsMatchesPerRowOverSlices) {
  const size_t n = 20000;
  for (const AggregateKind agg : {AggregateKind::kSum, AggregateKind::kCount}) {
    SCOPED_TRACE(AggregateKindToString(agg));
    auto fixture = MakeInt64Task(n, agg);
    ASSERT_NE(fixture, nullptr);
    const AcqTask& task = fixture->task;
    ASSERT_EQ(task.relation->num_rows(), n);
    ASSERT_EQ(task.d(), 2u);
    std::vector<double> needed;
    for (const auto& [begin, end] : Slices(n)) {
      SCOPED_TRACE(testing::Message() << "rows [" << begin << ", " << end
                                      << ")");
      NeededMatrix matrix;
      ASSERT_TRUE(BuildNeededMatrixRows(task, begin, end, &matrix).ok());
      ASSERT_EQ(matrix.rows, end - begin);
      ASSERT_EQ(matrix.dims, task.d());
      size_t mismatched = 0;
      for (size_t r = 0; r < matrix.rows; ++r) {
        ComputeNeeded(task, begin + r, &needed);
        for (size_t i = 0; i < task.d(); ++i) {
          mismatched += std::memcmp(&matrix.dim(i)[r], &needed[i],
                                    sizeof(double)) != 0;
        }
        const double agg_value = task.AggValue(begin + r);
        mismatched += std::memcmp(&matrix.agg_values[r], &agg_value,
                                  sizeof(double)) != 0;
      }
      EXPECT_EQ(mismatched, 0u);
    }
  }
}

}  // namespace
}  // namespace acquire
