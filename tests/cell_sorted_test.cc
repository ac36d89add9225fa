// Structural tests for the cell-sorted backend: the one-pass layout build,
// on both its grouping paths, against a row-by-row reference and against
// itself folding the relation in slices, the three query paths (cell probe,
// aligned box walk, off-grid scan), the native batched cell path,
// unreachable-row exclusion, and the backend factory that constructs it.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <tuple>
#include <vector>

#include "acquire.h"
#include "exec/eval_kernel.h"
#include "test_util.h"

namespace acquire {
namespace {

using test_util::MakeSyntheticTask;
using test_util::SyntheticOptions;

TEST(CellSortedTest, RejectsNonPositiveStep) {
  SyntheticOptions options;
  auto fixture = MakeSyntheticTask(options);
  ASSERT_NE(fixture, nullptr);
  CellSortedEvaluationLayer layer(&fixture->task, 0.0);
  EXPECT_FALSE(layer.Prepare().ok());
}

// The layout build behind the layer's prepare step rejects a zero grid
// step on its own, without going through the layer.
TEST(ParallelPrepareTest, RejectsNonPositiveStep) {
  SyntheticOptions options;
  auto fixture = MakeSyntheticTask(options);
  ASSERT_NE(fixture, nullptr);
  NeededMatrix raw;
  ASSERT_TRUE(BuildNeededMatrix(fixture->task, &raw).ok());
  CellSortedLayout out;
  EXPECT_FALSE(
      BuildCellSortedLayout(raw, 0.0, *fixture->task.agg.ops, &out).ok());
}

TEST(CellSortedTest, LayerReportsPrepareMsAndConsumedRows) {
  SyntheticOptions options;
  options.rows = 40000;
  auto fixture = MakeSyntheticTask(options);
  ASSERT_NE(fixture, nullptr);
  CellSortedEvaluationLayer layer(&fixture->task, 5.0);
  ASSERT_TRUE(layer.Prepare().ok());
  EXPECT_GT(layer.stats().prepare_ms, 0.0);
  EXPECT_EQ(layer.consumed_rows(), options.rows);
}

// A registered UDA with a 2-wide state {sum of squares, count}: the build
// folds it through the flat path's virtual fallback.
constexpr const char* kLayoutUda = "MEAN_SQUARE_LAYOUT";

bool RegisterLayoutUda() {
  static const bool registered = [] {
    using State = AggregateOps::State;
    return UdaRegistry::Instance()
        .Register(std::make_unique<LambdaAggregateOps>(
            kLayoutUda, State{0.0, 0.0},
            [](State* s, double v) {
              (*s)[0] += v * v;
              (*s)[1] += 1.0;
            },
            [](State* s, const State& other) {
              (*s)[0] += other[0];
              (*s)[1] += other[1];
            },
            [](const State& s) { return s[1] == 0.0 ? 0.0 : s[0] / s[1]; }))
        .ok();
  }();
  return registered;
}

enum class Relation { kUniform, kEmpty, kAllUnreachable };

const char* RelationName(Relation relation) {
  switch (relation) {
    case Relation::kUniform:
      return "";
    case Relation::kEmpty:
      return "_Empty";
    case Relation::kAllUnreachable:
      return "_AllUnreachable";
  }
  return "?";
}

class CellSortedLayoutTest
    : public ::testing::TestWithParam<
          std::tuple<size_t, AggregateKind, Relation>> {};

// The task of one layout case: rows uniform in [0, 100] under the case's
// dimensionality and aggregate, the relation shaped as the case asks.
void MakeLayoutFixture(size_t d, AggregateKind agg, Relation relation,
                       std::unique_ptr<test_util::SyntheticTask>* out) {
  ASSERT_TRUE(RegisterLayoutUda());
  SyntheticOptions options;
  options.d = d;
  options.rows = 8000;
  options.agg = agg;
  if (agg == AggregateKind::kUda) options.uda_name = kLayoutUda;
  // No row satisfies c0 <= -1, so with a zero cap on dimension 0 every row
  // is unreachable; otherwise the cap of 50 leaves rows with c0 > 80
  // (about a fifth) unreachable.
  if (relation == Relation::kAllUnreachable) options.bound = -1.0;
  auto fixture = MakeSyntheticTask(options);
  ASSERT_NE(fixture, nullptr);
  if (relation == Relation::kEmpty) {
    // Planning needs data to bind the predicates' domains, so the empty
    // relation replaces the planned one (same schema) afterwards.
    auto empty = std::make_shared<Table>(
        "data", fixture->task.relation->schema());
    ASSERT_TRUE(empty->FinalizeAppend().ok());
    fixture->task.relation = empty;
  }
  auto* dim0 = dynamic_cast<NumericDim*>(fixture->task.dims[0].get());
  ASSERT_NE(dim0, nullptr);
  dim0->set_max_refinement(relation == Relation::kAllUnreachable ? 0.0
                                                                  : 50.0);
  *out = std::move(fixture);
}

// Coarser cells at higher d keep several rows per cell to fold.
double LayoutStep(size_t d) { return 4.0 * static_cast<double>(d); }

// Twice LayoutStep(d): coarse enough that every fixture relation here with
// rows spans at most 2n cell ids, so a fresh build groups by dense id.
// LayoutStep(d) itself does so only up to d = 3.
double DenseStep(size_t d) { return 2.0 * LayoutStep(d); }

// A step fine enough that every fixture relation here spans more than 2n
// cell ids, so a fresh build takes the first-seen path.
constexpr double kFirstSeenStep = 1e-3;

// Dimension i's radix in a fresh build of `raw` at `step`: one more than
// the level of its largest finite needed value (level 0 when there is none).
double DimRadix(const NeededMatrix& raw, size_t i, double step) {
  double top = 0.0;
  for (size_t row = 0; row < raw.rows; ++row) {
    if (std::isfinite(raw.dim(i)[row])) top = std::max(top, raw.dim(i)[row]);
  }
  return static_cast<double>(PScoreLevel(top, step) + 1);
}

// The span P of the cell ids a fresh build of `raw` at `step` would key by:
// the product of the dimensions' radixes. The build groups by dense id when
// P <= 2n and by first-seen id otherwise; computed here on its own, in
// doubles, so it cannot overflow.
double DenseIdSpan(const NeededMatrix& raw, double step) {
  double span = 1.0;
  for (size_t i = 0; i < raw.dims; ++i) span *= DimRadix(raw, i, step);
  return span;
}

// A fresh build of `raw` at `step` must equal the row-by-row reference byte
// for byte: the same sorted keys, memcmp-equal states and the same
// unreachable count.
void ExpectBuildMatchesReference(const AcqTask& task, const NeededMatrix& raw,
                                 double step) {
  const size_t d = task.d();
  CellSortedLayout layout;
  ASSERT_TRUE(BuildCellSortedLayout(raw, step, *task.agg.ops, &layout).ok());
  const test_util::ReferenceLayout reference =
      test_util::ReferenceCellLayout(task, step);
  EXPECT_EQ(layout.unreachable_rows, reference.unreachable_rows);
  const size_t w = task.agg.ops->Init().size();
  ASSERT_EQ(layout.state_width, w);
  ASSERT_EQ(layout.cell_keys.size(), reference.cells.size() * d);
  ASSERT_EQ(layout.cell_states.size(), reference.cells.size() * w);
  size_t s = 0;
  for (const auto& [key, state] : reference.cells) {
    EXPECT_EQ(GridCoord(layout.cell_keys.begin() + s * d,
                        layout.cell_keys.begin() + (s + 1) * d),
              key)
        << "cell " << s;
    ASSERT_EQ(state.size(), w);
    EXPECT_EQ(0, std::memcmp(layout.cell_states.data() + s * w, state.data(),
                             w * sizeof(double)))
        << "cell " << s;
    ++s;
  }
}

// The one-pass build must equal the row-by-row reference byte for byte on
// both grouping paths: at LayoutStep(d), at DenseStep(d), where P <= 2n,
// and at kFirstSeenStep, where P > 2n. An empty relation has no dense path
// (P is 1 and 2n is 0), so it is run at every step all the same.
TEST_P(CellSortedLayoutTest, MatchesReferenceByteForByte) {
  auto [d, agg, relation] = GetParam();
  std::unique_ptr<test_util::SyntheticTask> fixture;
  ASSERT_NO_FATAL_FAILURE(MakeLayoutFixture(d, agg, relation, &fixture));
  const size_t rows = fixture->task.relation->num_rows();
  const double step = LayoutStep(d);

  NeededMatrix raw;
  ASSERT_TRUE(BuildNeededMatrix(fixture->task, &raw).ok());
  const test_util::ReferenceLayout reference =
      test_util::ReferenceCellLayout(fixture->task, step);

  switch (relation) {
    case Relation::kUniform:
      EXPECT_GT(reference.unreachable_rows, 0u);
      // Some cell holds several rows, so fold order is exercised.
      EXPECT_LT(reference.cells.size(), rows - reference.unreachable_rows);
      break;
    case Relation::kEmpty:
      EXPECT_EQ(raw.rows, 0u);
      EXPECT_TRUE(reference.cells.empty());
      break;
    case Relation::kAllUnreachable:
      EXPECT_EQ(reference.unreachable_rows, rows);
      break;
  }
  const double n2 = 2.0 * static_cast<double>(rows);
  if (rows > 0) {
    EXPECT_LE(DenseIdSpan(raw, DenseStep(d)), n2);
  }
  EXPECT_GT(DenseIdSpan(raw, kFirstSeenStep), n2);
  for (const double path_step : {step, DenseStep(d), kFirstSeenStep}) {
    SCOPED_TRACE(testing::Message() << "step " << path_step);
    ExpectBuildMatchesReference(fixture->task, raw, path_step);
  }
}

// Both paths at the boundary between them: a one-dimensional relation
// whose top level makes P exactly 2n (the largest dense table, so its last
// id is used) and exactly 2n + 1 (the first first-seen build).
TEST(CellSortedLayoutBoundaryTest, DenseSpanAtAndPastTwiceTheRows) {
  for (const AggregateKind agg : {AggregateKind::kCount, AggregateKind::kSum,
                                  AggregateKind::kMin}) {
    SyntheticOptions options;
    options.d = 1;
    options.rows = 3000;
    options.agg = agg;
    auto fixture = MakeSyntheticTask(options);
    ASSERT_NE(fixture, nullptr);
    NeededMatrix raw;
    ASSERT_TRUE(BuildNeededMatrix(fixture->task, &raw).ok());
    double top = 0.0;
    for (size_t row = 0; row < raw.rows; ++row) {
      if (std::isfinite(raw.dim(0)[row])) top = std::max(top, raw.dim(0)[row]);
    }
    const double n2 = 2.0 * static_cast<double>(raw.rows);
    for (const double span : {n2, n2 + 1.0}) {
      // The top value's quotient is span - 1.5, so its level is span - 1.
      const double step = top / (span - 1.5);
      SCOPED_TRACE(testing::Message()
                   << AggregateKindToString(agg) << " P " << span);
      ASSERT_EQ(DenseIdSpan(raw, step), span);
      ExpectBuildMatchesReference(fixture->task, raw, step);
    }
  }
}

// A d = 3 task over 3,000 uniform rows (needed values in [0, 233.3] on each
// dimension), with dimension `capped` capped at `cap` when it is below d.
std::unique_ptr<test_util::SyntheticTask> MakeKeyingFixture(AggregateKind agg,
                                                            size_t capped,
                                                            double cap) {
  SyntheticOptions options;
  options.d = 3;
  options.rows = 3000;
  options.agg = agg;
  auto fixture = MakeSyntheticTask(options);
  if (fixture == nullptr || capped >= options.d) return fixture;
  auto* dim = dynamic_cast<NumericDim*>(fixture->task.dims[capped].get());
  if (dim == nullptr) return nullptr;
  dim->set_max_refinement(cap);
  return fixture;
}

// A fresh build keys rows one dimension stream at a time, least significant
// (the last dimension) first, and gives up on dense ids once the radixes
// seen so far span more than 2n. Both ways of turning sparse must still
// build the reference layout: on the first pass, where the last dimension's
// radix alone passes 2n, and on the last pass (dimension 0), where the other
// dimensions' radixes span at most 2n.
TEST(CellSortedLayoutBoundaryTest, SparseOnTheFirstOrTheLastKeyingPass) {
  for (const AggregateKind agg : {AggregateKind::kCount, AggregateKind::kSum}) {
    SCOPED_TRACE(AggregateKindToString(agg));
    auto fixture = MakeKeyingFixture(agg, /*capped=*/3, 0.0);
    ASSERT_NE(fixture, nullptr);
    NeededMatrix raw;
    ASSERT_TRUE(BuildNeededMatrix(fixture->task, &raw).ok());
    const double n2 = 2.0 * static_cast<double>(raw.rows);

    // First pass: the last dimension alone spans more than 2n ids.
    const double fine = 0.03;
    EXPECT_GT(DimRadix(raw, 2, fine), n2);
    ExpectBuildMatchesReference(fixture->task, raw, fine);

    // Last pass: dimensions 2 and 1 span at most 2n ids, dimension 0 takes
    // the product past it.
    const double coarse = 3.4;
    EXPECT_LE(DimRadix(raw, 2, coarse) * DimRadix(raw, 1, coarse), n2);
    EXPECT_GT(DenseIdSpan(raw, coarse), n2);
    ExpectBuildMatchesReference(fixture->task, raw, coarse);
  }
}

// A dense build over rows unreachable on one dimension only: dimension 0,
// whose keying pass runs last, and the last dimension, whose pass runs
// first, so the rows it marks unreachable must stay so through the passes
// that follow.
TEST(CellSortedLayoutBoundaryTest, RowsUnreachableOnOneDimensionOnly) {
  const double step = 40.0;
  for (const AggregateKind agg : {AggregateKind::kCount, AggregateKind::kSum}) {
    for (const size_t capped : {size_t{0}, size_t{2}}) {
      SCOPED_TRACE(testing::Message() << AggregateKindToString(agg)
                                      << " unreachable on dimension "
                                      << capped);
      // A cap of 100 leaves rows with c > 60 (about 40%) unreachable there;
      // no other dimension has an unreachable row.
      auto fixture = MakeKeyingFixture(agg, capped, 100.0);
      ASSERT_NE(fixture, nullptr);
      NeededMatrix raw;
      ASSERT_TRUE(BuildNeededMatrix(fixture->task, &raw).ok());
      for (size_t i = 0; i < raw.dims; ++i) {
        size_t unreachable = 0;
        for (size_t row = 0; row < raw.rows; ++row) {
          unreachable += PScoreLevel(raw.dim(i)[row], step) < 0;
        }
        if (i == capped) {
          EXPECT_GT(unreachable, raw.rows / 4) << "dimension " << i;
        } else {
          EXPECT_EQ(unreachable, 0u) << "dimension " << i;
        }
      }
      EXPECT_LE(DenseIdSpan(raw, step), 2.0 * static_cast<double>(raw.rows));
      ExpectBuildMatchesReference(fixture->task, raw, step);
    }
  }
}

// A relation of d = 1 whose needed values are `needed`, folded at `step`.
Status BuildOneDimensional(const std::vector<double>& needed, double step,
                           CellSortedLayout* out) {
  NeededMatrix raw;
  raw.Resize(needed.size(), 1);
  std::copy(needed.begin(), needed.end(), raw.mutable_dim(0));
  std::fill(raw.agg_values.begin(), raw.agg_values.end(), 1.0);
  return BuildCellSortedLayout(raw, step, CountOps(), out);
}

// The largest level a key holds builds; one past the int32 range fails
// instead of wrapping into a small key, on a fresh build and on a fold into
// a layout that holds cells. Unreachable rows never fail, whatever their
// other levels.
TEST(CellSortedLayoutBoundaryTest, LevelPastInt32RangeFails) {
  CellSortedLayout top;
  ASSERT_TRUE(BuildOneDimensional({2147483647.0, 1.0}, 1.0, &top).ok());
  EXPECT_EQ(top.cell_keys, (std::vector<int32_t>{1, 2147483647}));

  // (2^32 + 0.5) * 1e-3 wrapped to level 1, beside the row of level 1.
  CellSortedLayout wrapped;
  const Status fresh =
      BuildOneDimensional({0.5e-3, (4294967296.0 + 0.5) * 1e-3}, 1e-3,
                          &wrapped);
  EXPECT_EQ(fresh.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(fresh.message().find("dimension 0"), std::string::npos)
      << fresh.message();
  EXPECT_NE(fresh.message().find("step 0.001"), std::string::npos)
      << fresh.message();

  CellSortedLayout live;
  ASSERT_TRUE(BuildOneDimensional({0.5e-3}, 1e-3, &live).ok());
  ASSERT_FALSE(live.cell_keys.empty());
  EXPECT_EQ(BuildOneDimensional({4294967297.0}, 1.0, &live).code(),
            StatusCode::kInvalidArgument);

  // Through the layer: the failed build leaves it unprepared, and the next
  // call builds again and fails the same way.
  SyntheticOptions options;
  auto fixture = MakeSyntheticTask(options);
  ASSERT_NE(fixture, nullptr);
  CellSortedEvaluationLayer layer(&fixture->task, 1e-9);
  EXPECT_EQ(layer.Prepare().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(layer.consumed_rows(), 0u);
  EXPECT_EQ(layer.num_cells(), 0u);
  EXPECT_EQ(layer.EvaluateBox({PScoreRange{-1.0, 1.0}, PScoreRange{-1.0, 1.0}})
                .status()
                .code(),
            StatusCode::kInvalidArgument);

  NeededMatrix raw;
  raw.Resize(1, 2);
  raw.mutable_dim(0)[0] = 4294967297.0;
  raw.mutable_dim(1)[0] = std::numeric_limits<double>::infinity();
  CellSortedLayout unreachable;
  ASSERT_TRUE(BuildCellSortedLayout(raw, 1.0, CountOps(), &unreachable).ok());
  EXPECT_EQ(unreachable.unreachable_rows, 1u);
  EXPECT_TRUE(unreachable.cell_keys.empty());
}

// Rows `rows` of `raw`, in that order.
NeededMatrix SelectRows(const NeededMatrix& raw,
                        const std::vector<size_t>& rows) {
  NeededMatrix out;
  out.Resize(rows.size(), raw.dims);
  for (size_t k = 0; k < rows.size(); ++k) {
    for (size_t i = 0; i < raw.dims; ++i) {
      out.mutable_dim(i)[k] = raw.dim(i)[rows[k]];
    }
    out.agg_values[k] = raw.agg_values[rows[k]];
  }
  return out;
}

// Folding a relation into one live layout in consecutive slices — a first
// slice grouped by dense id, then one row, none, only unreachable rows, then
// slices whose cells land below, between and above the cells already held —
// must leave the bytes one fold of the whole relation leaves: the keys, the
// states and the unreachable count.
TEST_P(CellSortedLayoutTest, SliceFoldsMatchOneFold) {
  auto [d, agg, relation] = GetParam();
  std::unique_ptr<test_util::SyntheticTask> fixture;
  ASSERT_NO_FATAL_FAILURE(MakeLayoutFixture(d, agg, relation, &fixture));
  const double step = LayoutStep(d);
  const AggregateOps& ops = *fixture->task.agg.ops;
  NeededMatrix raw;
  ASSERT_TRUE(BuildNeededMatrix(fixture->task, &raw).ok());

  // The relation's rows, reordered so that every kind of slice occurs: the
  // rows whose every finite level is at most 1 (a fold into the empty
  // layout whose ids span at most 2^d, so it takes the dense path; the edge
  // relations have no such row), one row, none, the other unreachable rows,
  // then the reachable rows whose dimension-0 level is odd, then those whose
  // level is even, so the even cells arrive between the odd ones already
  // held.
  std::vector<size_t> low, rest, unreachable, odd, even;
  for (size_t row = 0; row < raw.rows; ++row) {
    bool is_low = true;
    for (size_t i = 0; i < d; ++i) {
      is_low = is_low && PScoreLevel(raw.dim(i)[row], step) <= 1;
    }
    (is_low ? low : rest).push_back(row);
  }
  for (size_t k = 1; k < rest.size(); ++k) {
    const size_t row = rest[k];
    int64_t level0 = PScoreLevel(raw.dim(0)[row], step);
    for (size_t i = 1; i < d && level0 >= 0; ++i) {
      if (PScoreLevel(raw.dim(i)[row], step) < 0) level0 = -1;
    }
    (level0 < 0 ? unreachable : level0 % 2 == 1 ? odd : even).push_back(row);
  }
  if (relation == Relation::kUniform) {
    ASSERT_FALSE(low.empty());
    EXPECT_LE(DenseIdSpan(SelectRows(raw, low), step),
              2.0 * static_cast<double>(low.size()));
  }
  std::vector<std::vector<size_t>> slices = {low};
  if (!rest.empty()) slices.push_back({rest[0]});
  slices.push_back({});
  slices.push_back(unreachable);
  for (const std::vector<size_t>* part : {&odd, &even}) {
    // Growing slices: 1, 2, 4, ... rows.
    for (size_t begin = 0, size = 1; begin < part->size(); size *= 2) {
      const size_t end = std::min(part->size(), begin + size);
      slices.emplace_back(part->begin() + begin, part->begin() + end);
      begin = end;
    }
  }

  std::vector<size_t> order;
  for (const std::vector<size_t>& slice : slices) {
    order.insert(order.end(), slice.begin(), slice.end());
  }
  ASSERT_EQ(order.size(), raw.rows);
  CellSortedLayout one;
  ASSERT_TRUE(BuildCellSortedLayout(SelectRows(raw, order), step, ops, &one)
                  .ok());

  CellSortedLayout live;
  size_t growing_slices = 0;  // slices after the first that added cells
  for (const std::vector<size_t>& slice : slices) {
    const size_t held = live.cell_keys.size();
    ASSERT_TRUE(
        BuildCellSortedLayout(SelectRows(raw, slice), step, ops, &live).ok());
    if (held > 0 && live.cell_keys.size() > held) ++growing_slices;
  }
  if (relation == Relation::kUniform) {
    EXPECT_GT(growing_slices, 0u);
  }
  EXPECT_EQ(live.unreachable_rows, one.unreachable_rows);
  EXPECT_EQ(live.state_width, one.state_width);
  EXPECT_TRUE(test_util::SameBytes(live.cell_keys, one.cell_keys));
  EXPECT_TRUE(test_util::SameBytes(live.cell_states, one.cell_states));
}

const AggregateKind kLayoutAggregates[] = {
    AggregateKind::kCount, AggregateKind::kSum, AggregateKind::kMin,
    AggregateKind::kMax,   AggregateKind::kAvg, AggregateKind::kUda};

std::string LayoutCaseName(
    const ::testing::TestParamInfo<CellSortedLayoutTest::ParamType>& info) {
  return "d" + std::to_string(std::get<0>(info.param)) + "_" +
         AggregateKindToString(std::get<1>(info.param)) +
         RelationName(std::get<2>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    DimsByAggregates, CellSortedLayoutTest,
    ::testing::Combine(::testing::Values<size_t>(1, 2, 3, 4, 5),
                       ::testing::ValuesIn(kLayoutAggregates),
                       ::testing::Values(Relation::kUniform)),
    LayoutCaseName);

INSTANTIATE_TEST_SUITE_P(
    EdgeRelations, CellSortedLayoutTest,
    ::testing::Combine(::testing::Values<size_t>(2),
                       ::testing::ValuesIn(kLayoutAggregates),
                       ::testing::Values(Relation::kEmpty,
                                         Relation::kAllUnreachable)),
    LayoutCaseName);

TEST(CellSortedTest, CellProbeTouchesOneCellNotTheData) {
  SyntheticOptions options;
  options.d = 2;
  options.rows = 20000;
  auto fixture = MakeSyntheticTask(options);
  ASSERT_NE(fixture, nullptr);
  const double step = 5.0;
  CellSortedEvaluationLayer layer(&fixture->task, step);
  ASSERT_TRUE(layer.Prepare().ok());
  EXPECT_GT(layer.num_cells(), 0u);

  // A cell query costs one binary search, not a scan: tuples_scanned
  // counts the single key looked at, regardless of n.
  std::vector<PScoreRange> cell = {CellRangeForLevel(2, step),
                                   CellRangeForLevel(3, step)};
  GridCoord coord;
  ASSERT_TRUE(layer.IsCellAligned(cell, &coord));
  EXPECT_EQ(coord, (GridCoord{2, 3}));
  layer.ResetStats();
  ASSERT_TRUE(layer.EvaluateBox(cell).ok());
  EXPECT_EQ(layer.stats().tuples_scanned, 1u);
}

TEST(CellSortedTest, AlignedBoxVisitsOnlyCandidateCells) {
  SyntheticOptions options;
  options.d = 2;
  options.rows = 20000;
  auto fixture = MakeSyntheticTask(options);
  ASSERT_NE(fixture, nullptr);
  const double step = 5.0;
  CellSortedEvaluationLayer layer(&fixture->task, step);
  ASSERT_TRUE(layer.Prepare().ok());

  // Box covering levels 0..3 on both dimensions: the walk may touch at
  // most the populated cells, never the rows.
  std::vector<PScoreRange> box = {PScoreRange{-1.0, 4 * step},
                                  PScoreRange{-1.0, 4 * step}};
  GridCoord coord;
  EXPECT_FALSE(layer.IsCellAligned(box, &coord));  // spans four levels
  layer.ResetStats();
  auto got = layer.EvaluateBox(box);
  ASSERT_TRUE(got.ok());
  EXPECT_LE(layer.stats().tuples_scanned, layer.num_cells());

  DirectEvaluationLayer reference(&fixture->task);
  auto expected = reference.EvaluateBox(box);
  ASSERT_TRUE(expected.ok());
  const AggregateOps& ops = *fixture->task.agg.ops;
  EXPECT_DOUBLE_EQ(ops.Final(*got), ops.Final(*expected));
}

TEST(CellSortedTest, OffGridBoxFallsBackToExactScan) {
  // The fallback scans the relation-order matrix in row order, which is the
  // direct layer's fold order too, so even SUM states match bit for bit.
  SyntheticOptions options;
  options.d = 3;
  options.rows = 30000;
  options.agg = AggregateKind::kSum;
  auto fixture = MakeSyntheticTask(options);
  ASSERT_NE(fixture, nullptr);
  CellSortedEvaluationLayer layer(&fixture->task, 5.0);
  ASSERT_TRUE(layer.Prepare().ok());
  DirectEvaluationLayer reference(&fixture->task);

  Rng rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<PScoreRange> box(3);
    for (auto& r : box) {
      const double hi = rng.NextDouble(0.0, 80.0);  // almost surely off-grid
      r = PScoreRange{rng.NextBool(0.5) ? -1.0 : hi / 3.0, hi};
    }
    GridCoord coord;
    EXPECT_FALSE(layer.IsCellAligned(box, &coord));
    auto got = layer.EvaluateBox(box);
    auto expected = reference.EvaluateBox(box);
    ASSERT_TRUE(got.ok() && expected.ok());
    EXPECT_EQ(*got, *expected) << "trial " << trial;
  }
}

TEST(CellSortedTest, EvaluateCellsLargeBatchMatchesPerCellBoxes) {
  SyntheticOptions options;
  options.d = 2;
  options.rows = 20000;
  options.agg = AggregateKind::kSum;
  auto fixture = MakeSyntheticTask(options);
  ASSERT_NE(fixture, nullptr);
  const double step = 5.0;
  CellSortedEvaluationLayer layer(&fixture->task, step);
  ASSERT_TRUE(layer.Prepare().ok());

  // ~10k requests in an unsorted arrival order: long runs of duplicate
  // coordinates once sorted, plus far-out cells that no row populates.
  std::vector<GridCoord> coords;
  coords.reserve(10000);
  for (int32_t i = 0; i < 10000; ++i) {
    if (i % 1000 == 0) {
      coords.push_back({100 + i / 1000, 90});
    } else {
      coords.push_back({i % 15, (i / 3) % 15});
    }
  }
  layer.ResetStats();
  auto batch = layer.EvaluateCells(coords.data(), coords.size(), step);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_EQ(batch->size(), coords.size());
  // One query and one key lookup per requested cell: no box
  // decomposition, no row scan.
  EXPECT_EQ(layer.stats().queries, coords.size());
  EXPECT_EQ(layer.stats().tuples_scanned, coords.size());

  CellSortedEvaluationLayer reference(&fixture->task, step);
  for (size_t i = 0; i < coords.size(); ++i) {
    std::vector<PScoreRange> cell = {CellRangeForLevel(coords[i][0], step),
                                     CellRangeForLevel(coords[i][1], step)};
    auto expected = reference.EvaluateBox(cell);
    ASSERT_TRUE(expected.ok());
    ASSERT_EQ((*batch)[i], *expected)
        << "request " << i << " cell " << coords[i][0] << "," << coords[i][1];
  }
}

TEST(CellSortedTest, EvaluateCellsRejectsWrongDimensionality) {
  SyntheticOptions options;
  options.d = 2;
  auto fixture = MakeSyntheticTask(options);
  ASSERT_NE(fixture, nullptr);
  CellSortedEvaluationLayer layer(&fixture->task, 5.0);
  std::vector<GridCoord> coords = {{1, 2, 3}};  // task has d = 2
  EXPECT_FALSE(layer.EvaluateCells(coords.data(), coords.size(), 5.0).ok());
}

TEST(CellSortedTest, EvaluateCellsEmptyBatch) {
  SyntheticOptions options;
  auto fixture = MakeSyntheticTask(options);
  ASSERT_NE(fixture, nullptr);
  CellSortedEvaluationLayer layer(&fixture->task, 5.0);
  auto batch = layer.EvaluateCells(nullptr, 0, 5.0);
  ASSERT_TRUE(batch.ok());
  EXPECT_TRUE(batch->empty());
}

TEST(CellSortedTest, UdaThatGrowsItsStateFailsTheBatchedRun) {
  // Per-cell states live in one flat buffer of Init()-wide slots, so a UDA
  // whose Add appends to its state cannot be stored: the run must fail with
  // the width error instead of writing past a slot.
  static const bool registered = [] {
    using State = AggregateOps::State;
    return UdaRegistry::Instance()
        .Register(std::make_unique<LambdaAggregateOps>(
            "GROWING_STATE", State{0.0},
            [](State* s, double v) { s->push_back(v); },
            [](State* s, const State& other) { (*s)[0] += other[0]; },
            [](const State& s) { return s[0]; }))
        .ok();
  }();
  ASSERT_TRUE(registered);
  SyntheticOptions options;
  options.agg = AggregateKind::kUda;
  options.uda_name = "GROWING_STATE";
  options.target = 1e6;
  auto fixture = MakeSyntheticTask(options);
  ASSERT_NE(fixture, nullptr);
  AcquireOptions acquire;
  CellSortedEvaluationLayer layer(&fixture->task,
                                  acquire.gamma / fixture->task.d());
  auto result = RunAcquire(fixture->task, &layer, acquire);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
  EXPECT_EQ(result.status().message(),
            "aggregate state width differs from ops.Init()");
}

TEST(CellSortedTest, ExcludesUnreachableRows) {
  // A tight per-predicate refinement cap makes every row needing more
  // than the cap unreachable; those rows must be dropped from the layout
  // and must not appear in any box answer.
  SyntheticOptions options;
  options.d = 1;
  options.rows = 5000;
  auto fixture = MakeSyntheticTask(options);
  ASSERT_NE(fixture, nullptr);
  const double cap = 10.0;
  auto* dim = dynamic_cast<NumericDim*>(fixture->task.dims[0].get());
  ASSERT_NE(dim, nullptr);
  dim->set_max_refinement(cap);

  CellSortedEvaluationLayer layer(&fixture->task, 5.0);
  ASSERT_TRUE(layer.Prepare().ok());
  EXPECT_GT(layer.unreachable_rows(), 0u);
  EXPECT_LT(layer.unreachable_rows(), options.rows);

  // Full-space box == everything reachable; must match the direct layer
  // (which recomputes the capped needed PScores per call).
  DirectEvaluationLayer reference(&fixture->task);
  std::vector<PScoreRange> everything = {PScoreRange{-1.0, 1e9}};
  auto got = layer.EvaluateBox(everything);
  auto expected = reference.EvaluateBox(everything);
  ASSERT_TRUE(got.ok() && expected.ok());
  const AggregateOps& ops = *fixture->task.agg.ops;
  EXPECT_DOUBLE_EQ(ops.Final(*got), ops.Final(*expected));
}

TEST(BackendFactoryTest, ResolvesEveryBackend) {
  SyntheticOptions options;
  auto fixture = MakeSyntheticTask(options);
  ASSERT_NE(fixture, nullptr);
  for (EvalBackend backend : {EvalBackend::kAuto, EvalBackend::kDirect,
                              EvalBackend::kCellSorted}) {
    auto layer = MakeEvaluationLayer(&fixture->task, backend);
    ASSERT_TRUE(layer.ok()) << EvalBackendToString(backend);
    ASSERT_NE(layer->get(), nullptr);
    ASSERT_TRUE((*layer)->Prepare().ok()) << EvalBackendToString(backend);
  }
  // kAuto picks the cell-sorted backend.
  auto layer = MakeEvaluationLayer(&fixture->task, EvalBackend::kAuto);
  ASSERT_TRUE(layer.ok());
  EXPECT_NE(dynamic_cast<CellSortedEvaluationLayer*>(layer->get()), nullptr);
}

TEST(BackendFactoryTest, NameRoundTrip) {
  for (EvalBackend backend : {EvalBackend::kAuto, EvalBackend::kDirect,
                              EvalBackend::kCellSorted}) {
    auto parsed = EvalBackendFromString(EvalBackendToString(backend));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, backend);
  }
  // Unknown names, including the retired "gridindex", "parallel" and
  // "cached".
  for (const char* name : {"postgres", "gridindex", "parallel", "cached"}) {
    EXPECT_FALSE(EvalBackendFromString(name).ok()) << name;
  }
}

TEST(BackendFactoryTest, ProcessAcqRunsOnTaskSelectedBackend) {
  // Every backend must drive the full Figure 2 pipeline to the same
  // refinement (COUNT answers are exact on all of them).
  SyntheticOptions options;
  options.d = 2;
  options.rows = 5000;
  options.bound = 10.0;
  options.target = 2000.0;
  options.op = ConstraintOp::kGe;
  auto fixture = MakeSyntheticTask(options);
  ASSERT_NE(fixture, nullptr);

  AcquireOptions acq;
  auto reference = ProcessAcq(fixture->task, acq);
  ASSERT_TRUE(reference.ok());
  for (EvalBackend backend :
       {EvalBackend::kDirect, EvalBackend::kCellSorted}) {
    fixture->task.eval_backend = backend;
    auto outcome = ProcessAcq(fixture->task, acq);
    ASSERT_TRUE(outcome.ok()) << EvalBackendToString(backend);
    EXPECT_EQ(outcome->mode, reference->mode) << EvalBackendToString(backend);
    EXPECT_DOUBLE_EQ(outcome->result.best.aggregate,
                     reference->result.best.aggregate)
        << EvalBackendToString(backend);
    EXPECT_DOUBLE_EQ(outcome->result.best.qscore,
                     reference->result.best.qscore)
        << EvalBackendToString(backend);
  }
}

TEST(GridCoordHashTest, DistinctCoordsDistinctHashesMostly) {
  GridCoordHash hash;
  EXPECT_NE(hash({0, 1}), hash({1, 0}));
  EXPECT_EQ(hash({2, 3}), hash({2, 3}));
}

}  // namespace
}  // namespace acquire
