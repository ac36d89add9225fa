// Structural tests for the cell-sorted CSR backend: layout invariants,
// the three query paths (cell probe, aligned box walk, off-grid scan), the
// native batched cell path, unreachable-row exclusion, and the backend
// factory that constructs it.

#include <gtest/gtest.h>

#include <cmath>

#include "acquire.h"
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
  // 30k rows split the fallback scan into several pool chunks — at least
  // two even on a one-worker pool, which counts the calling thread as a
  // runner — so the chunk-order merge of partial SUMs is checked too.
  SyntheticOptions options;
  options.d = 3;
  options.rows = 30000;
  options.agg = AggregateKind::kSum;
  auto fixture = MakeSyntheticTask(options);
  ASSERT_NE(fixture, nullptr);
  CellSortedEvaluationLayer layer(&fixture->task, 5.0);
  ASSERT_TRUE(layer.Prepare().ok());
  DirectEvaluationLayer reference(&fixture->task);
  const AggregateOps& ops = *fixture->task.agg.ops;

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
    EXPECT_NEAR(ops.Final(*got), ops.Final(*expected),
                1e-9 * std::max(1.0, std::fabs(ops.Final(*expected))))
        << "trial " << trial;
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
  // coordinates that straddle the pool's sweep chunks once sorted, plus
  // far-out cells that no row populates.
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
                              EvalBackend::kCached, EvalBackend::kCellSorted}) {
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
                              EvalBackend::kCached, EvalBackend::kCellSorted}) {
    auto parsed = EvalBackendFromString(EvalBackendToString(backend));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, backend);
  }
  EXPECT_FALSE(EvalBackendFromString("postgres").ok());
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
       {EvalBackend::kDirect, EvalBackend::kCached, EvalBackend::kCellSorted}) {
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
