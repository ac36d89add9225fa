// Incremental delta maintenance of the cell-sorted index: rows appended to
// the relation after Prepare() are folded into the live layout by the next
// evaluate call's sync. After every sync the layer's keys, states,
// unreachable count and matrix must be byte-identical to a fresh Prepare
// over the grown relation, and so must every answer, on every query shape
// (cell probe, aligned box, off-grid scan, batched cells).

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "acquire.h"
#include "common/failpoint.h"
#include "common/random.h"
#include "test_util.h"

namespace acquire {
namespace {

using test_util::MakeSyntheticTask;
using test_util::SameBytes;
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

// A cell probe: the evaluate call that syncs appended rows in.
Status Probe(CellSortedEvaluationLayer* layer, double step) {
  return layer
      ->EvaluateBox({CellRangeForLevel(2, step), CellRangeForLevel(3, step)})
      .status();
}

// The layer's layout and matrix must equal `fresh`'s (a layer freshly
// prepared over the grown relation) byte for byte.
void ExpectSameBytes(const CellSortedEvaluationLayer& layer,
                     const CellSortedEvaluationLayer& fresh) {
  EXPECT_EQ(layer.consumed_rows(), fresh.consumed_rows());
  const CellSortedLayout& got = layer.layout();
  const CellSortedLayout& want = fresh.layout();
  EXPECT_EQ(got.unreachable_rows, want.unreachable_rows);
  EXPECT_EQ(got.state_width, want.state_width);
  EXPECT_TRUE(SameBytes(got.cell_keys, want.cell_keys));
  EXPECT_TRUE(SameBytes(got.cell_states, want.cell_states));
  const NeededMatrix& matrix = layer.matrix();
  const NeededMatrix& fresh_matrix = fresh.matrix();
  ASSERT_EQ(matrix.rows, fresh_matrix.rows);
  ASSERT_EQ(matrix.dims, fresh_matrix.dims);
  for (size_t i = 0; i < matrix.dims; ++i) {
    EXPECT_TRUE(SameBytes(matrix.needed[i], fresh_matrix.needed[i]))
        << "dimension " << i;
  }
  EXPECT_TRUE(SameBytes(matrix.agg_values, fresh_matrix.agg_values));
}

// ExpectSameBytes against a layer prepared now over the task's relation.
void ExpectSameBytesAsFreshPrepare(const CellSortedEvaluationLayer& layer,
                                   const AcqTask* task, double step) {
  CellSortedEvaluationLayer fresh(task, step);
  ASSERT_TRUE(fresh.Prepare().ok());
  ExpectSameBytes(layer, fresh);
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
// (a layer freshly prepared over the grown relation), and after the
// answers — whose first call syncs any pending rows in — so must the
// layer's layout and matrix.
void ExpectBitIdenticalAnswers(CellSortedEvaluationLayer* layer,
                               CellSortedEvaluationLayer* reference,
                               double step) {
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
  ExpectSameBytes(*layer, *reference);
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

    // One sync folds the appended rows in.
    ASSERT_TRUE(Probe(&layer, step).ok());
    EXPECT_EQ(layer.consumed_rows(), options.rows + 500);
    EXPECT_GT(layer.stats().delta_rows, 0u);
    EXPECT_EQ(layer.stats().delta_merges, 1u);
    ExpectSameBytesAsFreshPrepare(layer, &fixture->task, step);

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
  ASSERT_TRUE(Probe(&layer, step).ok());
  ExpectSameBytesAsFreshPrepare(layer, &fixture->task, step);
  EXPECT_EQ(layer.consumed_rows(), options.rows + 700);
  EXPECT_EQ(layer.stats().delta_merges, 1u);
  EXPECT_EQ(layer.consumed_rows(), fixture->task.relation->num_rows());

  CellSortedEvaluationLayer rebuilt(&fixture->task, step);
  ASSERT_TRUE(rebuilt.Prepare().ok());
  ExpectBitIdenticalAnswers(&layer, &rebuilt, step);

  // A second append round on the already-folded layer must keep matching.
  ASSERT_TRUE(AppendToFixture(fixture.get(), 300, 8).ok());
  CellSortedEvaluationLayer rebuilt2(&fixture->task, step);
  ASSERT_TRUE(rebuilt2.Prepare().ok());
  ExpectBitIdenticalAnswers(&layer, &rebuilt2, step);
  EXPECT_EQ(layer.stats().delta_merges, 2u);
}

// Every sync that finds appended rows folds them in, whatever their
// number: rows stay pending only until the next evaluate call.
TEST(DeltaMaintenanceTest, CellSortedThresholdTriggersMerge) {
  SyntheticOptions options;
  options.d = 2;
  options.rows = 6000;
  auto fixture = MakeSyntheticTask(options);
  ASSERT_NE(fixture, nullptr);
  const double step = 5.0;

  CellSortedEvaluationLayer layer(&fixture->task, step);
  ASSERT_TRUE(layer.Prepare().ok());

  ASSERT_TRUE(AppendToFixture(fixture.get(), 50, 1).ok());
  EXPECT_EQ(layer.consumed_rows(), options.rows);  // rows pending
  std::vector<PScoreRange> probe = {CellRangeForLevel(1, step),
                                    CellRangeForLevel(1, step)};
  ASSERT_TRUE(layer.EvaluateBox(probe).ok());
  EXPECT_EQ(layer.stats().delta_merges, 1u);
  EXPECT_EQ(layer.consumed_rows(), fixture->task.relation->num_rows());
  ExpectSameBytesAsFreshPrepare(layer, &fixture->task, step);

  ASSERT_TRUE(AppendToFixture(fixture.get(), 100, 2).ok());
  ASSERT_TRUE(layer.EvaluateBox(probe).ok());
  EXPECT_EQ(layer.stats().delta_merges, 2u);
  EXPECT_EQ(layer.consumed_rows(), fixture->task.relation->num_rows());
  ExpectSameBytesAsFreshPrepare(layer, &fixture->task, step);

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

  // The off-grid fallback scans the relation-order matrix, which the sync
  // in front of it has grown by the appended rows — and still matches the
  // rebuild exactly.
  std::vector<PScoreRange> off_grid = {PScoreRange{-1.0, 7.3},
                                       PScoreRange{2.1, 13.9}};
  auto got = layer.EvaluateBox(off_grid);
  ASSERT_TRUE(got.ok());
  ExpectSameBytesAsFreshPrepare(layer, &fixture->task, step);
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

  // The failpoint turns the sync into a full rebuild, which still counts
  // the sync and the reachable appended rows.
  auto& registry = FailpointRegistry::Global();
  ASSERT_TRUE(registry.Configure("index.delta_merge", "p:1").ok());
  Status synced = Probe(&layer, step);
  registry.DisarmAll();
  ASSERT_TRUE(synced.ok());
  ExpectSameBytesAsFreshPrepare(layer, &fixture->task, step);
  EXPECT_EQ(layer.consumed_rows(), options.rows + 400);
  EXPECT_EQ(layer.stats().delta_merges, 1u);
  EXPECT_GT(layer.stats().delta_rows, 0u);

  CellSortedEvaluationLayer rebuilt(&fixture->task, step);
  ASSERT_TRUE(rebuilt.Prepare().ok());
  ExpectBitIdenticalAnswers(&layer, &rebuilt, step);
}

// Many small batches, each folded in by its own sync: rows of one cell must
// continue its state in append order (SUM folds are order-sensitive), new
// cells must land in key order, and every sync must match a rebuild.
TEST(DeltaMaintenanceTest, CellSortedManySmallStagingsMatchFullRebuild) {
  SyntheticOptions options;
  options.d = 2;
  options.rows = 6000;
  options.agg = AggregateKind::kSum;
  auto fixture = MakeSyntheticTask(options);
  ASSERT_NE(fixture, nullptr);
  // A coarse grid puts rows of many batches into each cell, where a wrong
  // fold order would change the SUM folds.
  const double step = 25.0;
  CellSortedEvaluationLayer layer(&fixture->task, step);
  ASSERT_TRUE(layer.Prepare().ok());
  const size_t unreachable_before = layer.unreachable_rows();

  size_t appended = 0;
  for (int round = 0; round < 80; ++round) {
    const size_t batch = 1 + round % 9;
    ASSERT_TRUE(AppendToFixture(fixture.get(), batch, 500 + round).ok());
    appended += batch;
    ASSERT_TRUE(Probe(&layer, step).ok());
    ExpectSameBytesAsFreshPrepare(layer, &fixture->task, step);
  }
  EXPECT_EQ(layer.consumed_rows(), options.rows + appended);
  EXPECT_EQ(layer.stats().delta_merges, 80u);
  // delta_rows counts every reachable row folded in, batch after batch.
  EXPECT_EQ(layer.stats().delta_rows,
            appended - (layer.unreachable_rows() - unreachable_before));
  EXPECT_GT(layer.stats().delta_rows, 0u);

  CellSortedEvaluationLayer rebuilt(&fixture->task, step);
  ASSERT_TRUE(rebuilt.Prepare().ok());
  ExpectBitIdenticalAnswers(&layer, &rebuilt, step);
}

TEST(DeltaMaintenanceTest, AppendKeepsAmortizedCostLow) {
  // Acceptance shape: appending k rows folds just those rows in, one fold
  // per sync, never a rebuild — the charged footprint grows by the new
  // rows and cells only, so it ends equal to a fresh layer's.
  SyntheticOptions options;
  options.d = 2;
  options.rows = 20000;
  auto fixture = MakeSyntheticTask(options);
  ASSERT_NE(fixture, nullptr);
  const double step = 5.0;
  CellSortedEvaluationLayer layer(&fixture->task, step);
  MemoryBudget budget;
  layer.set_memory_budget(&budget);
  ASSERT_TRUE(layer.Prepare().ok());

  for (int round = 0; round < 10; ++round) {
    ASSERT_TRUE(AppendToFixture(fixture.get(), 50, 100 + round).ok());
    ASSERT_TRUE(Probe(&layer, step).ok());
    ExpectSameBytesAsFreshPrepare(layer, &fixture->task, step);
  }
  EXPECT_EQ(layer.stats().delta_merges, 10u);
  EXPECT_GT(layer.stats().delta_rows, 0u);
  EXPECT_EQ(layer.consumed_rows(), options.rows + 500);

  CellSortedEvaluationLayer fresh(&fixture->task, step);
  MemoryBudget fresh_budget;
  fresh.set_memory_budget(&fresh_budget);
  ASSERT_TRUE(fresh.Prepare().ok());
  EXPECT_EQ(budget.used(), fresh_budget.used());
}

// A sync whose fold fails leaves the layer unprepared: it never serves the
// half-folded layout, and the next call rebuilds and reports the same error.
TEST(DeltaMaintenanceTest, CellSortedFailedSyncLeavesLayerUnprepared) {
  // A UDA whose state outgrows its flat slot on values above 1000, which
  // only the appended row carries.
  static const bool registered = [] {
    using State = AggregateOps::State;
    return UdaRegistry::Instance()
        .Register(std::make_unique<LambdaAggregateOps>(
            "GROWS_ABOVE_1000", State{0.0},
            [](State* s, double v) {
              if (v > 1000.0) {
                s->push_back(v);
              } else {
                (*s)[0] += v;
              }
            },
            [](State* s, const State& other) { (*s)[0] += other[0]; },
            [](const State& s) { return s[0]; }))
        .ok();
  }();
  ASSERT_TRUE(registered);
  SyntheticOptions options;
  options.d = 2;
  options.agg = AggregateKind::kUda;
  options.uda_name = "GROWS_ABOVE_1000";
  auto fixture = MakeSyntheticTask(options);
  ASSERT_NE(fixture, nullptr);
  const double step = 5.0;
  CellSortedEvaluationLayer layer(&fixture->task, step);
  ASSERT_TRUE(layer.Prepare().ok());
  ASSERT_TRUE(Probe(&layer, step).ok());

  std::vector<Value> row(5, Value(10.0));
  row.emplace_back(5000.0);
  ASSERT_TRUE(fixture->catalog.AppendRows("data", {row}).ok());
  for (int call = 0; call < 2; ++call) {
    Status synced = Probe(&layer, step);
    EXPECT_EQ(synced.code(), StatusCode::kInternal) << "call " << call;
    EXPECT_EQ(synced.message(),
              "aggregate state width differs from ops.Init()");
    EXPECT_LT(layer.consumed_rows(), fixture->task.relation->num_rows());
    EXPECT_EQ(layer.consumed_rows(), 0u);
    EXPECT_EQ(layer.num_cells(), 0u);
    EXPECT_EQ(layer.matrix().rows, 0u);
  }
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
