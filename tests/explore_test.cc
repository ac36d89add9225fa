#include "core/explore.h"

#include <gtest/gtest.h>
#include <cmath>

#include "core/expand.h"
#include "index/cell_sorted.h"
#include "test_util.h"

namespace acquire {
namespace {

using test_util::MakeSyntheticTask;
using test_util::SyntheticOptions;

// The load-bearing property of the Explore phase (Section 5): the
// incremental aggregate of a grid query — assembled from one cell query
// plus stored sub-aggregates via Eq. 17 — must equal the full re-execution
// of the same refined query.
class ExploreTest : public ::testing::TestWithParam<
                        std::tuple<size_t, AggregateKind>> {};

TEST_P(ExploreTest, IncrementalEqualsFullReexecution) {
  auto [d, agg] = GetParam();
  SyntheticOptions options;
  options.d = d;
  options.agg = agg;
  options.rows = 1500;
  auto fixture = MakeSyntheticTask(options);
  ASSERT_NE(fixture, nullptr);
  AcqTask& task = fixture->task;

  RefinedSpace space(&task, 12.0, Norm::L1());
  CellSortedEvaluationLayer layer(&task, space.step());
  ASSERT_TRUE(layer.Prepare().ok());
  Explorer explorer(&space, &layer);

  DirectEvaluationLayer reference(&task);
  BfsGenerator gen(&space);
  const auto coords = test_util::DrainCoords(&gen, d, 120);
  for (size_t i = 0; i < coords.size(); ++i) {
    const GridCoord& coord = coords[i].first;
    auto incremental = explorer.ComputeAggregate(coord);
    ASSERT_TRUE(incremental.ok());
    auto full = reference.EvaluateBox(space.QueryBox(coord));
    ASSERT_TRUE(full.ok());
    double expected = task.agg.ops->Final(*full);
    EXPECT_NEAR(*incremental, expected,
                1e-9 * std::max(1.0, std::fabs(expected)))
        << "coord #" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    DimsAndAggregates, ExploreTest,
    ::testing::Combine(::testing::Values(1, 2, 3, 4),
                       ::testing::Values(AggregateKind::kCount,
                                         AggregateKind::kSum,
                                         AggregateKind::kMin,
                                         AggregateKind::kMax,
                                         AggregateKind::kAvg)),
    [](const auto& info) {
      return "d" + std::to_string(std::get<0>(info.param)) + "_" +
             AggregateKindToString(std::get<1>(info.param));
    });

TEST(ExplorerTest, OneCellExecutionPerCoordinate) {
  SyntheticOptions options;
  options.d = 2;
  auto fixture = MakeSyntheticTask(options);
  ASSERT_NE(fixture, nullptr);
  RefinedSpace space(&fixture->task, 10.0, Norm::L1());
  CellSortedEvaluationLayer layer(&fixture->task, space.step());
  Explorer explorer(&space, &layer);

  BfsGenerator gen(&space);
  size_t investigated = 0;
  for (const auto& [coord, score] : test_util::DrainCoords(&gen, 2, 50)) {
    ASSERT_TRUE(explorer.ComputeAggregate(coord).ok());
    ++investigated;
  }
  EXPECT_EQ(explorer.cell_queries(), investigated);
  EXPECT_EQ(explorer.store().size(), investigated);

  // Re-computing an already-investigated coordinate costs nothing new.
  ASSERT_TRUE(explorer.ComputeAggregate(GridCoord(2, 0)).ok());
  EXPECT_EQ(explorer.cell_queries(), investigated);
}

TEST(ExplorerTest, OutOfOrderRequestFillsPredecessorsOnce) {
  SyntheticOptions options;
  options.d = 2;
  auto fixture = MakeSyntheticTask(options);
  ASSERT_NE(fixture, nullptr);
  RefinedSpace space(&fixture->task, 10.0, Norm::L1());
  CellSortedEvaluationLayer layer(&fixture->task, space.step());
  Explorer explorer(&space, &layer);

  // Jump straight to (3, 2) without visiting anything below it.
  auto value = explorer.ComputeAggregate({3, 2});
  ASSERT_TRUE(value.ok());
  // The whole downset (4 x 3 coordinates) was filled, each exactly once.
  EXPECT_EQ(explorer.cell_queries(), 12u);
  DirectEvaluationLayer reference(&fixture->task);
  auto full = reference.EvaluateBox(space.QueryBox({3, 2}));
  ASSERT_TRUE(full.ok());
  EXPECT_NEAR(*value, fixture->task.agg.ops->Final(*full), 1e-9);
}

TEST(ExplorerTest, ShellOrderWorksDespiteInShellDependencies) {
  // (1,1) is requested before (0,1) under shell order; the explorer must
  // still produce correct values via on-demand predecessor fill.
  SyntheticOptions options;
  options.d = 2;
  auto fixture = MakeSyntheticTask(options);
  ASSERT_NE(fixture, nullptr);
  RefinedSpace space(&fixture->task, 10.0, Norm::LInf());
  CellSortedEvaluationLayer layer(&fixture->task, space.step());
  Explorer explorer(&space, &layer);
  DirectEvaluationLayer reference(&fixture->task);

  ShellGenerator gen(&space);
  for (const auto& [coord, score] : test_util::DrainCoords(&gen, 2, 60)) {
    auto incremental = explorer.ComputeAggregate(coord);
    ASSERT_TRUE(incremental.ok());
    auto full = reference.EvaluateBox(space.QueryBox(coord));
    ASSERT_TRUE(full.ok());
    EXPECT_NEAR(*incremental, fixture->task.agg.ops->Final(*full), 1e-9);
  }
}

TEST(AggregateStoreTest, InsertFindRoundTrip) {
  AggregateStore store;
  store.Configure(/*d=*/2, /*state_width=*/1);
  const int32_t key[] = {1, 2};
  const int32_t other[] = {2, 1};
  EXPECT_EQ(store.Find(key), nullptr);
  double* block = store.Append(key);
  ASSERT_NE(block, nullptr);
  // d + 1 = 3 states of width 1, zero-initialized on append.
  EXPECT_EQ(store.block_width(), 3u);
  EXPECT_DOUBLE_EQ(block[2], 0.0);
  block[0] = 1.0;
  block[1] = 2.0;
  block[2] = 3.0;
  const double* found = store.Find(key);
  ASSERT_NE(found, nullptr);
  EXPECT_DOUBLE_EQ(found[2], 3.0);
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.Find(other), nullptr);
}

TEST(AggregateStoreTest, SurvivesRehashAndArenaGrowth) {
  AggregateStore store;
  store.Configure(/*d=*/3, /*state_width=*/2);
  store.Reserve(16);  // deliberately too small for the 1000 appends below
  for (int32_t i = 0; i < 1000; ++i) {
    const int32_t key[] = {i, i % 7, i % 13};
    ASSERT_EQ(store.Find(key), nullptr) << i;
    double* block = store.Append(key);
    for (size_t j = 0; j < store.block_width(); ++j) {
      block[j] = static_cast<double>(i) + 0.25 * static_cast<double>(j);
    }
  }
  EXPECT_EQ(store.size(), 1000u);
  for (int32_t i = 0; i < 1000; ++i) {
    const int32_t key[] = {i, i % 7, i % 13};
    const double* block = store.Find(key);
    ASSERT_NE(block, nullptr) << i;
    for (size_t j = 0; j < store.block_width(); ++j) {
      EXPECT_DOUBLE_EQ(block[j],
                       static_cast<double>(i) + 0.25 * static_cast<double>(j));
    }
  }
}

// The slot table is built lazily: Append never probes or indexes, and the
// first Find after a run of appends indexes them. Runs of unprobed appends
// alternate with lookups of both earlier and just-appended keys, and the
// runs cross several table growths.
TEST(AggregateStoreTest, LazyIndexFindsUnprobedAppends) {
  AggregateStore store;
  store.Configure(/*d=*/2, /*state_width=*/1);
  auto value_of = [](int32_t i) { return 0.5 * static_cast<double>(i); };
  int32_t next = 0;
  for (int32_t run = 1; run <= 40; ++run) {
    for (int32_t k = 0; k < run * 3; ++k, ++next) {
      const int32_t key[] = {next, next % 5};
      store.Append(key)[0] = value_of(next);  // no Find before the append
    }
    // Every new key and a sample of the older ones resolve to their blocks.
    for (int32_t i = 0; i < next; i += (i < next - run * 3 ? 7 : 1)) {
      const int32_t key[] = {i, i % 5};
      const double* block = store.Find(key);
      ASSERT_NE(block, nullptr) << "run " << run << " key " << i;
      EXPECT_EQ(block[0], value_of(i)) << "run " << run << " key " << i;
    }
    const int32_t absent[] = {next, next % 5 + 1};
    EXPECT_EQ(store.Find(absent), nullptr) << "run " << run;
  }
  EXPECT_EQ(store.size(), static_cast<size_t>(next));
}

TEST(AggregateStoreTest, SlotTableGrowsOnlyWhenLookedUp) {
  AggregateStore store;
  store.Configure(/*d=*/3, /*state_width=*/1);
  store.Reserve(4096);
  const size_t reserved = store.MemoryBytes();
  for (int32_t i = 0; i < 4096; ++i) {
    const int32_t key[] = {i, 1, 2};
    store.Append(key);
  }
  // Appends within the reservation build no slot table...
  EXPECT_EQ(store.MemoryBytes(), reserved);
  // ...and the first lookup sizes it for every entry at once, counted in
  // the store's footprint.
  const int32_t last[] = {4095, 1, 2};
  ASSERT_NE(store.Find(last), nullptr);
  EXPECT_GE(store.MemoryBytes(), reserved + 4096 * sizeof(uint32_t));
}

}  // namespace
}  // namespace acquire
