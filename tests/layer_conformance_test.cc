// Conformance suite for every exact evaluation layer: direct, cell-sorted,
// and the sampling layer at rate 1.0 (a full "sample" must be exact). All
// must return identical aggregate states for identical box
// queries, across aggregates and random boxes. COUNT/MIN/MAX must match
// bit-for-bit (no FP reassociation can change them); SUM/AVG are compared
// with a tight relative tolerance because the cell-sorted layer's aligned
// boxes merge per-cell states, which re-associates the additions. Off-grid
// boxes are exact: every layer folds the selected rows in relation order,
// and the cell-sorted layer does so whatever the shared pool's width.

#include <gtest/gtest.h>
#include <cmath>
#include <cstring>

#include "acquire.h"
#include "test_util.h"

namespace acquire {
namespace {

using test_util::MakeSyntheticTask;
using test_util::SyntheticOptions;

// The values seed each layer's random boxes; they are fixed so a layer's
// inputs do not change when another layer joins or leaves the grid.
enum class LayerKind {
  kDirect = 0,
  kCellSorted = 4,
  kFullSample = 5,
};

const char* LayerName(LayerKind kind) {
  switch (kind) {
    case LayerKind::kDirect:
      return "Direct";
    case LayerKind::kCellSorted:
      return "CellSorted";
    case LayerKind::kFullSample:
      return "FullSample";
  }
  return "?";
}

std::unique_ptr<EvaluationLayer> MakeLayer(LayerKind kind,
                                           const AcqTask* task) {
  switch (kind) {
    case LayerKind::kDirect:
      return std::make_unique<DirectEvaluationLayer>(task);
    case LayerKind::kCellSorted:
      return std::make_unique<CellSortedEvaluationLayer>(task, 5.0);
    case LayerKind::kFullSample:
      return std::make_unique<SamplingEvaluationLayer>(task, 1.0);
  }
  return nullptr;
}

/// COUNT, MIN and MAX admit no FP reassociation: every layer must agree
/// with the reference bit-for-bit, however it chunks or reorders the scan.
bool MustMatchExactly(AggregateKind agg) {
  return agg == AggregateKind::kCount || agg == AggregateKind::kMin ||
         agg == AggregateKind::kMax;
}

class LayerConformanceTest
    : public ::testing::TestWithParam<std::tuple<LayerKind, AggregateKind>> {
};

TEST_P(LayerConformanceTest, MatchesDirectOnRandomBoxes) {
  auto [kind, agg] = GetParam();
  SyntheticOptions options;
  options.d = 3;
  options.rows = 5000;
  options.agg = agg;
  options.target = 10.0;
  auto fixture = MakeSyntheticTask(options);
  ASSERT_NE(fixture, nullptr);

  DirectEvaluationLayer reference(&fixture->task);
  std::unique_ptr<EvaluationLayer> layer = MakeLayer(kind, &fixture->task);
  ASSERT_NE(layer, nullptr);
  ASSERT_TRUE(layer->Prepare().ok());

  Rng rng(7 + static_cast<uint64_t>(kind) * 31 +
          static_cast<uint64_t>(agg) * 101);
  const AggregateOps& ops = *fixture->task.agg.ops;
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<PScoreRange> box(3);
    for (auto& r : box) {
      // Mix grid-aligned and arbitrary ranges so every code path of the
      // grid index (cell probe, aligned box, scan fallback) is exercised.
      if (rng.NextBool(0.4)) {
        int64_t level = static_cast<int64_t>(rng.NextBounded(8));
        r = CellRangeForLevel(level, 5.0);
      } else {
        double hi = rng.NextDouble(0.0, 60.0);
        r = PScoreRange{rng.NextBool(0.5) ? -1.0 : hi / 2.0, hi};
      }
    }
    auto expected = reference.EvaluateBox(box);
    auto got = layer->EvaluateBox(box);
    ASSERT_TRUE(expected.ok() && got.ok()) << LayerName(kind);
    double e = ops.Final(*expected);
    double g = ops.Final(*got);
    if (std::isinf(e) || MustMatchExactly(agg)) {
      EXPECT_EQ(e, g) << LayerName(kind) << " trial " << trial;
    } else {
      EXPECT_NEAR(g, e, 1e-9 * std::max(1.0, std::fabs(e)))
          << LayerName(kind) << " trial " << trial;
    }
  }
}

TEST_P(LayerConformanceTest, DeterministicAcrossRepeatedCalls) {
  // The same layer asked the same box twice must answer bit-for-bit
  // identically — chunk boundaries and merge order are functions of the
  // input alone, never of scheduling.
  auto [kind, agg] = GetParam();
  SyntheticOptions options;
  options.d = 3;
  options.rows = 5000;
  options.agg = agg;
  options.target = 10.0;
  auto fixture = MakeSyntheticTask(options);
  ASSERT_NE(fixture, nullptr);

  std::unique_ptr<EvaluationLayer> layer = MakeLayer(kind, &fixture->task);
  ASSERT_NE(layer, nullptr);
  ASSERT_TRUE(layer->Prepare().ok());

  Rng rng(13 + static_cast<uint64_t>(kind));
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<PScoreRange> box(3);
    for (auto& r : box) {
      double hi = rng.NextDouble(0.0, 60.0);
      r = PScoreRange{rng.NextBool(0.5) ? -1.0 : hi / 2.0, hi};
    }
    auto first = layer->EvaluateBox(box);
    auto second = layer->EvaluateBox(box);
    ASSERT_TRUE(first.ok() && second.ok()) << LayerName(kind);
    EXPECT_EQ(*first, *second) << LayerName(kind) << " trial " << trial;
  }
}

TEST_P(LayerConformanceTest, EvaluateCellsMatchesPerCellBoxes) {
  // The batch cell API must be bit-identical to evaluating each cell box
  // with EvaluateBox, at the layer's native step (merged-sweep / parallel
  // fast paths) and at a foreign step (generic fallback).
  auto [kind, agg] = GetParam();
  SyntheticOptions options;
  options.d = 3;
  options.rows = 5000;
  options.agg = agg;
  options.target = 10.0;
  auto fixture = MakeSyntheticTask(options);
  ASSERT_NE(fixture, nullptr);

  std::unique_ptr<EvaluationLayer> layer = MakeLayer(kind, &fixture->task);
  ASSERT_NE(layer, nullptr);
  ASSERT_TRUE(layer->Prepare().ok());

  Rng rng(97 + static_cast<uint64_t>(kind) * 17 +
          static_cast<uint64_t>(agg) * 5);
  for (double step : {5.0, 2.5}) {  // native layout step, then foreign
    std::vector<GridCoord> coords;
    for (int q = 0; q < 40; ++q) {
      GridCoord c(3);
      // Mostly small dense coordinates (what expand layers produce), some
      // far out (guaranteed-empty cells).
      for (auto& v : c) {
        v = static_cast<int32_t>(rng.NextBounded(rng.NextBool(0.9) ? 8 : 64));
      }
      coords.push_back(std::move(c));
    }
    auto batch = layer->EvaluateCells(coords.data(), coords.size(), step);
    ASSERT_TRUE(batch.ok()) << LayerName(kind) << " step " << step;
    ASSERT_EQ(batch->size(), coords.size());
    for (size_t q = 0; q < coords.size(); ++q) {
      std::vector<PScoreRange> box(3);
      for (size_t i = 0; i < 3; ++i) {
        box[i] = CellRangeForLevel(coords[q][i], step);
      }
      auto expected = layer->EvaluateBox(box);
      ASSERT_TRUE(expected.ok());
      EXPECT_EQ((*batch)[q], *expected)
          << LayerName(kind) << " step " << step << " cell " << q;
    }
  }
}

TEST_P(LayerConformanceTest, EvaluateBoxesMatchesPerBoxEvaluateBox) {
  // The batch box API, which the contraction walk and the non-incremental
  // ablation drive with full-query boxes, must be bit-identical to calling
  // EvaluateBox per box. The boxes end off the grid, so no cell-aligned
  // fast path answers them.
  auto [kind, agg] = GetParam();
  SyntheticOptions options;
  options.d = 3;
  options.rows = 5000;
  options.agg = agg;
  options.target = 10.0;
  auto fixture = MakeSyntheticTask(options);
  ASSERT_NE(fixture, nullptr);

  std::unique_ptr<EvaluationLayer> layer = MakeLayer(kind, &fixture->task);
  ASSERT_NE(layer, nullptr);
  ASSERT_TRUE(layer->Prepare().ok());

  Rng rng(61 + static_cast<uint64_t>(kind) * 11 +
          static_cast<uint64_t>(agg) * 3);
  std::vector<std::vector<PScoreRange>> boxes;
  for (int q = 0; q < 40; ++q) {
    std::vector<PScoreRange> box(3);
    for (auto& r : box) {
      // Mostly full queries (-inf, p], some bands.
      double hi = rng.NextDouble(0.0, 60.0);
      r = PScoreRange{rng.NextBool(0.75) ? -1.0 : hi / 2.0, hi};
    }
    boxes.push_back(std::move(box));
  }
  auto batch = layer->EvaluateBoxes(boxes);
  ASSERT_TRUE(batch.ok()) << LayerName(kind);
  ASSERT_EQ(batch->size(), boxes.size());
  for (size_t q = 0; q < boxes.size(); ++q) {
    auto expected = layer->EvaluateBox(boxes[q]);
    ASSERT_TRUE(expected.ok());
    EXPECT_EQ((*batch)[q], *expected) << LayerName(kind) << " box " << q;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllLayersAllAggregates, LayerConformanceTest,
    ::testing::Combine(::testing::Values(LayerKind::kDirect,
                                         LayerKind::kCellSorted,
                                         LayerKind::kFullSample),
                       ::testing::Values(AggregateKind::kCount,
                                         AggregateKind::kSum,
                                         AggregateKind::kMin,
                                         AggregateKind::kMax,
                                         AggregateKind::kAvg)),
    [](const auto& info) {
      return std::string(LayerName(std::get<0>(info.param))) + "_" +
             AggregateKindToString(std::get<1>(info.param));
    });

TEST(LayerConformancePoolWidthTest, CellSortedOffGridMatchesDirect) {
  // An off-grid box is one scan of the relation-order matrix, never split
  // across the pool, so the cell-sorted layer answers it with the direct
  // layer's bytes whatever the shared pool's width (the single-worker CI
  // step runs this at width 1). 40k rows are enough for the cell-sorted
  // matrix fill to split into chunks even on a one-worker pool, and a
  // chunk-order merge would re-associate SUM and AVG.
  for (AggregateKind agg : {AggregateKind::kSum, AggregateKind::kAvg}) {
    SyntheticOptions options;
    options.d = 3;
    options.rows = 40000;
    options.agg = agg;
    auto fixture = MakeSyntheticTask(options);
    ASSERT_NE(fixture, nullptr);
    DirectEvaluationLayer direct(&fixture->task);
    CellSortedEvaluationLayer cell_sorted(&fixture->task, 5.0);

    Rng rng(41);
    for (int trial = 0; trial < 6; ++trial) {
      std::vector<PScoreRange> box(3);
      for (auto& r : box) {
        const double hi = rng.NextDouble(20.0, 60.0);  // almost surely off-grid
        r = PScoreRange{rng.NextBool(0.5) ? -1.0 : hi / 3.0, hi};
      }
      auto expected = direct.EvaluateBox(box);
      ASSERT_TRUE(expected.ok());
      GridCoord coord;
      ASSERT_FALSE(cell_sorted.IsCellAligned(box, &coord));
      auto got = cell_sorted.EvaluateBox(box);
      ASSERT_TRUE(got.ok());
      ASSERT_EQ(got->size(), expected->size());
      EXPECT_EQ(0, std::memcmp(got->data(), expected->data(),
                               got->size() * sizeof(double)))
          << AggregateKindToString(agg) << " trial " << trial << " pool "
          << ThreadPool::Shared().num_threads();
    }
  }
}

TEST(MinAggregateTest, ExpansionNeverIncreasesMin) {
  // MIN is antitone under query expansion (the paper treats MIN as
  // MAX(-attr)); the incremental machinery must preserve that exactly.
  SyntheticOptions options;
  options.d = 2;
  options.rows = 5000;
  options.agg = AggregateKind::kMin;
  options.bound = 20.0;
  options.target = 1.0;
  auto fixture = MakeSyntheticTask(options);
  ASSERT_NE(fixture, nullptr);
  DirectEvaluationLayer layer(&fixture->task);
  double prev = std::numeric_limits<double>::infinity();
  for (double p = 0.0; p <= 120.0; p += 15.0) {
    double value = layer.EvaluateQueryValue({p, p}).value();
    EXPECT_LE(value, prev) << "pscore " << p;
    prev = value;
  }
}

}  // namespace
}  // namespace acquire
