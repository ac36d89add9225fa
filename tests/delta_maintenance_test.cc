// Incremental delta maintenance of the cell-sorted index: rows appended to
// the relation after Prepare() must be answered bit-identically to a full
// rebuild over the grown relation — on every query shape (cell probe,
// aligned box, off-grid scan, batched cells) and whether the rows are
// still staged in the delta buffer or already merged into the base layout.

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "acquire.h"
#include "common/failpoint.h"
#include "common/random.h"
#include "test_util.h"

namespace acquire {
namespace {

using test_util::MakeSyntheticTask;
using test_util::SyntheticOptions;

std::vector<std::vector<Value>> MakeAppendRows(size_t count, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<Value>> rows;
  rows.reserve(count);
  for (size_t r = 0; r < count; ++r) {
    std::vector<Value> row;
    row.reserve(6);
    for (size_t c = 0; c < 5; ++c) {
      row.emplace_back(rng.NextDouble(0.0, 100.0));
    }
    row.emplace_back(rng.NextDouble(0.0, 1000.0));
    rows.push_back(std::move(row));
  }
  return rows;
}

Status AppendToFixture(test_util::SyntheticTask* fixture, size_t count,
                       uint64_t seed) {
  return fixture->catalog.AppendRows("data", MakeAppendRows(count, seed));
}

// The query shapes Algorithm 3 (and the repartition probes) actually issue.
std::vector<std::vector<PScoreRange>> QueryShapes(double step) {
  return {
      // Single cells, populated and far-out (likely empty).
      {CellRangeForLevel(2, step), CellRangeForLevel(3, step)},
      {CellRangeForLevel(0, step), CellRangeForLevel(0, step)},
      {CellRangeForLevel(40, step), CellRangeForLevel(40, step)},
      // Aligned multi-cell boxes.
      {PScoreRange{-1.0, 4 * step}, PScoreRange{-1.0, 6 * step}},
      {PScoreRange{-1.0, 20 * step}, PScoreRange{-1.0, 20 * step}},
      // Off-grid boxes (fall back to the matrix scan).
      {PScoreRange{-1.0, 7.3}, PScoreRange{2.1, 13.9}},
  };
}

// Every shape, answered by `layer`, must be bitwise equal to `reference`
// (a layer freshly prepared over the grown relation).
void ExpectBitIdenticalAnswers(EvaluationLayer* layer,
                               EvaluationLayer* reference, double step) {
  for (const auto& box : QueryShapes(step)) {
    auto got = layer->EvaluateBox(box);
    auto expected = reference->EvaluateBox(box);
    ASSERT_TRUE(got.ok() && expected.ok());
    ASSERT_EQ(got->size(), expected->size());
    EXPECT_EQ(0, std::memcmp(got->data(), expected->data(),
                             got->size() * sizeof(double)))
        << "box[0]=[" << box[0].lo << "," << box[0].hi << "]";
  }
  // Batched cells, including duplicates (the dedup path copies answers).
  std::vector<GridCoord> coords;
  for (int32_t a = 0; a < 8; ++a) {
    for (int32_t b = 0; b < 8; ++b) coords.push_back(GridCoord{a, b});
  }
  coords.push_back(GridCoord{2, 3});
  coords.push_back(GridCoord{2, 3});
  auto got = layer->EvaluateCells(coords.data(), coords.size(), step);
  auto expected =
      reference->EvaluateCells(coords.data(), coords.size(), step);
  ASSERT_TRUE(got.ok() && expected.ok());
  ASSERT_EQ(got->size(), expected->size());
  for (size_t i = 0; i < got->size(); ++i) {
    ASSERT_EQ((*got)[i].size(), (*expected)[i].size()) << i;
    EXPECT_EQ(0, std::memcmp((*got)[i].data(), (*expected)[i].data(),
                             (*got)[i].size() * sizeof(double)))
        << "cell " << i;
  }
}

TEST(DeltaMaintenanceTest, CellSortedStagedDeltasMatchFullRebuild) {
  for (AggregateKind agg :
       {AggregateKind::kCount, AggregateKind::kSum, AggregateKind::kAvg,
        AggregateKind::kMin, AggregateKind::kMax}) {
    SyntheticOptions options;
    options.d = 2;
    options.rows = 8000;
    options.agg = agg;
    auto fixture = MakeSyntheticTask(options);
    ASSERT_NE(fixture, nullptr);
    const double step = 5.0;

    CellSortedEvaluationLayer layer(&fixture->task, step);
    ASSERT_TRUE(layer.Prepare().ok());
    ASSERT_TRUE(AppendToFixture(fixture.get(), 500, 99).ok());

    // Below the auto threshold (max(4096, rows/8)): the appended rows must
    // stay staged, not trigger a rebuild/merge.
    std::vector<PScoreRange> probe = {CellRangeForLevel(2, step),
                                      CellRangeForLevel(3, step)};
    ASSERT_TRUE(layer.EvaluateBox(probe).ok());
    EXPECT_EQ(layer.consumed_rows(), options.rows + 500);
    EXPECT_GT(layer.staged_delta_rows(), 0u);
    EXPECT_GT(layer.stats().delta_rows, 0u);
    EXPECT_EQ(layer.stats().delta_merges, 0u);

    CellSortedEvaluationLayer rebuilt(&fixture->task, step);
    ASSERT_TRUE(rebuilt.Prepare().ok());
    ExpectBitIdenticalAnswers(&layer, &rebuilt, step);
  }
}

TEST(DeltaMaintenanceTest, CellSortedMergeMatchesFullRebuild) {
  SyntheticOptions options;
  options.d = 2;
  options.rows = 8000;
  options.agg = AggregateKind::kSum;
  auto fixture = MakeSyntheticTask(options);
  ASSERT_NE(fixture, nullptr);
  const double step = 5.0;

  CellSortedEvaluationLayer layer(&fixture->task, step);
  ASSERT_TRUE(layer.Prepare().ok());
  ASSERT_TRUE(AppendToFixture(fixture.get(), 700, 7).ok());
  ASSERT_TRUE(layer.MergeDeltas().ok());
  EXPECT_EQ(layer.staged_delta_rows(), 0u);
  EXPECT_EQ(layer.consumed_rows(), options.rows + 700);
  EXPECT_EQ(layer.stats().delta_merges, 1u);
  EXPECT_TRUE(layer.SupportsConcurrentEvaluate());

  CellSortedEvaluationLayer rebuilt(&fixture->task, step);
  ASSERT_TRUE(rebuilt.Prepare().ok());
  ExpectBitIdenticalAnswers(&layer, &rebuilt, step);

  // A second append round on the already-merged layer must keep matching.
  ASSERT_TRUE(AppendToFixture(fixture.get(), 300, 8).ok());
  CellSortedEvaluationLayer rebuilt2(&fixture->task, step);
  ASSERT_TRUE(rebuilt2.Prepare().ok());
  ExpectBitIdenticalAnswers(&layer, &rebuilt2, step);
}

TEST(DeltaMaintenanceTest, CellSortedThresholdTriggersMerge) {
  SyntheticOptions options;
  options.d = 2;
  options.rows = 6000;
  auto fixture = MakeSyntheticTask(options);
  ASSERT_NE(fixture, nullptr);
  const double step = 5.0;

  CellSortedEvaluationLayer layer(&fixture->task, step);
  ASSERT_TRUE(layer.Prepare().ok());
  layer.set_delta_merge_threshold(100);
  EXPECT_EQ(layer.delta_merge_threshold(), 100u);

  // Below the threshold: staged.
  ASSERT_TRUE(AppendToFixture(fixture.get(), 50, 1).ok());
  std::vector<PScoreRange> probe = {CellRangeForLevel(1, step),
                                    CellRangeForLevel(1, step)};
  ASSERT_TRUE(layer.EvaluateBox(probe).ok());
  EXPECT_GT(layer.staged_delta_rows(), 0u);
  EXPECT_EQ(layer.stats().delta_merges, 0u);
  EXPECT_FALSE(layer.SupportsConcurrentEvaluate());  // staging pending

  // Crossing it: the next sync absorbs everything.
  ASSERT_TRUE(AppendToFixture(fixture.get(), 100, 2).ok());
  ASSERT_TRUE(layer.EvaluateBox(probe).ok());
  EXPECT_EQ(layer.staged_delta_rows(), 0u);
  EXPECT_EQ(layer.stats().delta_merges, 1u);
  EXPECT_TRUE(layer.SupportsConcurrentEvaluate());

  CellSortedEvaluationLayer rebuilt(&fixture->task, step);
  ASSERT_TRUE(rebuilt.Prepare().ok());
  ExpectBitIdenticalAnswers(&layer, &rebuilt, step);
}

TEST(DeltaMaintenanceTest, CellSortedOffGridProbeAbsorbsStagedRows) {
  SyntheticOptions options;
  options.d = 2;
  options.rows = 6000;
  options.agg = AggregateKind::kSum;
  auto fixture = MakeSyntheticTask(options);
  ASSERT_NE(fixture, nullptr);
  const double step = 5.0;
  CellSortedEvaluationLayer layer(&fixture->task, step);
  ASSERT_TRUE(layer.Prepare().ok());
  ASSERT_TRUE(AppendToFixture(fixture.get(), 200, 3).ok());

  // The off-grid fallback scans the contiguous permuted matrix, so it must
  // absorb the staged rows first — and still match the rebuild exactly.
  std::vector<PScoreRange> off_grid = {PScoreRange{-1.0, 7.3},
                                       PScoreRange{2.1, 13.9}};
  auto got = layer.EvaluateBox(off_grid);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(layer.staged_delta_rows(), 0u);
  EXPECT_EQ(layer.stats().delta_merges, 1u);

  CellSortedEvaluationLayer rebuilt(&fixture->task, step);
  ASSERT_TRUE(rebuilt.Prepare().ok());
  auto expected = rebuilt.EvaluateBox(off_grid);
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(*got, *expected);
}

TEST(DeltaMaintenanceTest, CellSortedDeltaMergeFailpointRebuildIsIdentical) {
  if (!FailpointRegistry::compiled_in()) {
    GTEST_SKIP() << "failpoints compiled out";
  }
  SyntheticOptions options;
  options.d = 2;
  options.rows = 6000;
  options.agg = AggregateKind::kSum;
  auto fixture = MakeSyntheticTask(options);
  ASSERT_NE(fixture, nullptr);
  const double step = 5.0;
  CellSortedEvaluationLayer layer(&fixture->task, step);
  ASSERT_TRUE(layer.Prepare().ok());
  ASSERT_TRUE(AppendToFixture(fixture.get(), 400, 4).ok());

  auto& registry = FailpointRegistry::Global();
  ASSERT_TRUE(registry.Configure("index.delta_merge", "p:1").ok());
  Status merged = layer.MergeDeltas();
  registry.DisarmAll();
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(layer.staged_delta_rows(), 0u);
  EXPECT_EQ(layer.consumed_rows(), options.rows + 400);

  CellSortedEvaluationLayer rebuilt(&fixture->task, step);
  ASSERT_TRUE(rebuilt.Prepare().ok());
  ExpectBitIdenticalAnswers(&layer, &rebuilt, step);
}

TEST(DeltaMaintenanceTest, AppendKeepsAmortizedCostLow) {
  // Acceptance shape: appending k rows below the threshold must not run a
  // rebuild — prepare_ms accrues only the staging cost, and delta_merges
  // stays 0 across many small appends.
  SyntheticOptions options;
  options.d = 2;
  options.rows = 20000;
  auto fixture = MakeSyntheticTask(options);
  ASSERT_NE(fixture, nullptr);
  const double step = 5.0;
  CellSortedEvaluationLayer layer(&fixture->task, step);
  ASSERT_TRUE(layer.Prepare().ok());

  std::vector<PScoreRange> probe = {CellRangeForLevel(2, step),
                                    CellRangeForLevel(3, step)};
  for (int round = 0; round < 10; ++round) {
    ASSERT_TRUE(AppendToFixture(fixture.get(), 50, 100 + round).ok());
    ASSERT_TRUE(layer.EvaluateBox(probe).ok());
  }
  // 500 rows < max(4096, 20000/8): no merge, all staged.
  EXPECT_EQ(layer.stats().delta_merges, 0u);
  EXPECT_GT(layer.staged_delta_rows(), 0u);
  EXPECT_EQ(layer.consumed_rows(), options.rows + 500);
}

TEST(DeltaMaintenanceTest, TableAppendRowsIsAtomicOnBadRow) {
  SyntheticOptions options;
  options.rows = 100;
  auto fixture = MakeSyntheticTask(options);
  ASSERT_NE(fixture, nullptr);
  auto table = fixture->catalog.GetTable("data");
  ASSERT_TRUE(table.ok());
  const size_t before = (*table)->num_rows();
  const uint64_t generation = fixture->catalog.generation();

  // Row 1 has a string in a double column: the whole batch must be
  // rejected with row 0 NOT applied, and the generation unchanged.
  std::vector<std::vector<Value>> rows = MakeAppendRows(2, 5);
  rows[1][2] = Value("oops");
  Status appended = fixture->catalog.AppendRows("data", rows);
  EXPECT_FALSE(appended.ok());
  EXPECT_EQ((*table)->num_rows(), before);
  EXPECT_EQ(fixture->catalog.generation(), generation);

  // Width mismatch is rejected the same way.
  rows = MakeAppendRows(1, 6);
  rows[0].pop_back();
  EXPECT_FALSE(fixture->catalog.AppendRows("data", rows).ok());
  EXPECT_EQ((*table)->num_rows(), before);

  // And a good batch lands, bumping the generation once.
  ASSERT_TRUE(
      fixture->catalog.AppendRows("data", MakeAppendRows(3, 5)).ok());
  EXPECT_EQ((*table)->num_rows(), before + 3);
  EXPECT_EQ(fixture->catalog.generation(), generation + 1);

  // Unknown table / empty batch.
  EXPECT_FALSE(
      fixture->catalog.AppendRows("nope", MakeAppendRows(1, 5)).ok());
  ASSERT_TRUE(fixture->catalog.AppendRows("data", {}).ok());
  EXPECT_EQ(fixture->catalog.generation(), generation + 1);  // no-op: no bump
}

TEST(DeltaMaintenanceTest, TableAppendRowsGrowsColumnsGeometrically) {
  // The fixture reserves exactly its 10k rows, so the first append must
  // reallocate; doubling then leaves room for the other 99 one-row appends
  // instead of copying the whole column on every batch.
  SyntheticOptions options;
  options.rows = 10000;
  auto fixture = MakeSyntheticTask(options);
  ASSERT_NE(fixture, nullptr);
  auto table = fixture->catalog.GetTable("data");
  ASSERT_TRUE(table.ok());
  const Column& column = (*table)->column(0);
  const double* buffer = column.double_data().data();
  size_t moves = 0;
  for (uint64_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(
        fixture->catalog.AppendRows("data", MakeAppendRows(1, 100 + i)).ok());
    if (column.double_data().data() != buffer) {
      ++moves;
      buffer = column.double_data().data();
    }
  }
  EXPECT_EQ((*table)->num_rows(), options.rows + 100);
  EXPECT_LE(moves, 1u);
}

}  // namespace
}  // namespace acquire
