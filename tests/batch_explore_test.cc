// Equivalence suite for the layer-batched Explore pipeline: RunAcquire with
// batch_explore on must produce bit-identical aggregates, identical answer
// sets, and identical cell-query counts to the sequential explorer, for
// every search order and every exact evaluation layer. The batched driver
// only reorders the independent O_1 cell executions — the Eq. 17 merges run
// in the same order either way — so even SUM/AVG must match exactly.

#include <gtest/gtest.h>
#include <cmath>
#include <memory>
#include <tuple>

#include "acquire.h"
#include "test_util.h"

namespace acquire {
namespace {

using test_util::MakeSyntheticTask;
using test_util::SyntheticOptions;

enum class LayerKind {
  kDirect,
  kCached,
  kCellSorted,
};

const char* LayerName(LayerKind kind) {
  switch (kind) {
    case LayerKind::kDirect:
      return "Direct";
    case LayerKind::kCached:
      return "Cached";
    case LayerKind::kCellSorted:
      return "CellSorted";
  }
  return "?";
}

std::unique_ptr<EvaluationLayer> MakeLayer(LayerKind kind, const AcqTask* task,
                                           double step) {
  switch (kind) {
    case LayerKind::kDirect:
      return std::make_unique<DirectEvaluationLayer>(task);
    case LayerKind::kCached:
      return std::make_unique<CachedEvaluationLayer>(task);
    case LayerKind::kCellSorted:
      return std::make_unique<CellSortedEvaluationLayer>(task, step);
  }
  return nullptr;
}

const char* OrderName(SearchOrder order) {
  switch (order) {
    case SearchOrder::kAuto:
      return "Auto";
    case SearchOrder::kBfs:
      return "Bfs";
    case SearchOrder::kShell:
      return "Shell";
    case SearchOrder::kBestFirst:
      return "BestFirst";
  }
  return "?";
}

const char* NormName(NormKind norm) {
  switch (norm) {
    case NormKind::kL1:
      return "L1";
    case NormKind::kL2:
      return "L2";
    case NormKind::kLp:
      return "Lp";
    case NormKind::kLInf:
      return "LInf";
  }
  return "?";
}

Norm MakeNorm(NormKind norm) {
  switch (norm) {
    case NormKind::kL2:
      return Norm::L2();
    case NormKind::kLInf:
      return Norm::LInf();
    case NormKind::kL1:
    case NormKind::kLp:
      break;
  }
  return Norm::L1();
}

// A registered UDA with a 2-wide state (mean of squares over {sum of
// squares, count}): it takes the flat path's virtual fallback.
constexpr const char* kMeanSquare = "MEAN_SQUARE_BATCH";

void RegisterMeanSquare() {
  static const bool registered = [] {
    using State = AggregateOps::State;
    return UdaRegistry::Instance()
        .Register(std::make_unique<LambdaAggregateOps>(
            kMeanSquare, State{0.0, 0.0},
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
  ASSERT_TRUE(registered);
}

// Per aggregate: the original predicates' bound (c_i <= bound; values
// uniform in [0, 1000]), and an equality target and tolerance the search
// reaches only after several expansion layers, under every order and norm
// (a run that stops mid-layer without a hit would execute the rest of its
// last layer in batched mode only).
struct AggregateCase {
  double bound;
  double target;
  double delta;
};

AggregateCase CaseFor(AggregateKind agg) {
  switch (agg) {
    case AggregateKind::kCount:
      return {30.0, 600.0, 0.02};
    case AggregateKind::kSum:
      return {30.0, 240000.0, 0.02};
    case AggregateKind::kMin:
      return {30.0, 6.5, 0.1};
    case AggregateKind::kMax:
      return {15.0, 990.0, 0.002};
    case AggregateKind::kAvg:
      return {30.0, 500.0, 0.002};
    case AggregateKind::kUda:
      return {30.0, 333000.0, 0.002};
  }
  return {};
}

void ExpectSameResult(const AcquireResult& seq, const AcquireResult& bat,
                      const std::string& label) {
  EXPECT_EQ(seq.satisfied, bat.satisfied) << label;
  EXPECT_EQ(seq.queries_explored, bat.queries_explored) << label;
  EXPECT_EQ(seq.cell_queries, bat.cell_queries) << label;
  EXPECT_EQ(seq.exec_stats.queries, bat.exec_stats.queries) << label;
  ASSERT_EQ(seq.queries.size(), bat.queries.size()) << label;
  for (size_t i = 0; i < seq.queries.size(); ++i) {
    EXPECT_EQ(seq.queries[i].coord, bat.queries[i].coord)
        << label << " answer " << i;
    EXPECT_EQ(seq.queries[i].pscores, bat.queries[i].pscores)
        << label << " answer " << i;
    // Bit-exact: same cell states merged in the same order.
    EXPECT_EQ(seq.queries[i].aggregate, bat.queries[i].aggregate)
        << label << " answer " << i;
    EXPECT_EQ(seq.queries[i].error, bat.queries[i].error)
        << label << " answer " << i;
    EXPECT_EQ(seq.queries[i].qscore, bat.queries[i].qscore)
        << label << " answer " << i;
  }
  EXPECT_EQ(seq.best.coord, bat.best.coord) << label;
  EXPECT_EQ(seq.best.aggregate, bat.best.aggregate) << label;
  EXPECT_EQ(seq.best.error, bat.best.error) << label;
}

// Order x layer x norm x aggregate. Under L1 a predecessor always scores
// strictly lower than its successor, so no layer ever fills one of its own
// coordinates; under L2 and LInf best-first runs of equal score can request
// a successor before its predecessor, which exercises the batched drain's
// in-layer fills. SUM is FP-sensitive (any reordering shows), MIN/MAX and
// AVG's 2-wide state take the built-in flat combine, and the UDA the
// virtual fallback.
class BatchExploreEquivalenceTest
    : public ::testing::TestWithParam<
          std::tuple<SearchOrder, LayerKind, NormKind, AggregateKind>> {};

TEST_P(BatchExploreEquivalenceTest, BatchedMatchesSequential) {
  auto [order, kind, norm, agg] = GetParam();
  SyntheticOptions topt;
  topt.d = 3;
  topt.rows = 4000;
  topt.agg = agg;
  if (agg == AggregateKind::kUda) {
    RegisterMeanSquare();
    topt.uda_name = kMeanSquare;
  }
  const AggregateCase c = CaseFor(agg);
  topt.bound = c.bound;
  topt.target = c.target;  // forces several expansion layers
  auto fixture = MakeSyntheticTask(topt);
  ASSERT_NE(fixture, nullptr);

  AcquireOptions options;
  options.gamma = 12.0;  // grid step 4.0 with d = 3
  options.delta = c.delta;
  options.order = order;
  options.norm = MakeNorm(norm);
  const double step = options.gamma / static_cast<double>(topt.d);
  const std::string label = std::string(OrderName(order)) + "/" +
                            LayerName(kind) + "/" + NormName(norm) + "/" +
                            AggregateKindToString(agg);

  auto seq_layer = MakeLayer(kind, &fixture->task, step);
  auto bat_layer = MakeLayer(kind, &fixture->task, step);
  ASSERT_NE(seq_layer, nullptr);
  ASSERT_NE(bat_layer, nullptr);

  options.batch_explore = BatchExplore::kOff;
  auto seq = RunAcquire(fixture->task, seq_layer.get(), options);
  options.batch_explore = BatchExplore::kOn;  // forced even for best-first
  auto bat = RunAcquire(fixture->task, bat_layer.get(), options);
  ASSERT_TRUE(seq.ok() && bat.ok()) << label;
  ExpectSameResult(*seq, *bat, label);
}

// Names the L1/SUM cases by order and layer alone, as before the norm and
// aggregate axes existed.
std::string EquivalenceCaseName(
    const ::testing::TestParamInfo<BatchExploreEquivalenceTest::ParamType>&
        info) {
  const auto [order, kind, norm, agg] = info.param;
  std::string name = std::string(OrderName(order)) + "_" + LayerName(kind);
  if (norm != NormKind::kL1 || agg != AggregateKind::kSum) {
    name += std::string("_") + NormName(norm) + "_" +
            AggregateKindToString(agg);
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    AllOrdersAllLayers, BatchExploreEquivalenceTest,
    ::testing::Combine(::testing::Values(SearchOrder::kAuto, SearchOrder::kBfs,
                                         SearchOrder::kShell,
                                         SearchOrder::kBestFirst),
                       ::testing::Values(LayerKind::kDirect, LayerKind::kCached,
                                         LayerKind::kCellSorted),
                       ::testing::Values(NormKind::kL1),
                       ::testing::Values(AggregateKind::kSum)),
    EquivalenceCaseName);

// The norm and aggregate axes on the batched CellSorted drain (the other
// layers reach the drain through the same EvaluateCellKeys adapter, which
// the grid above covers).
INSTANTIATE_TEST_SUITE_P(
    NormsAndAggregates, BatchExploreEquivalenceTest,
    ::testing::Combine(::testing::Values(SearchOrder::kAuto, SearchOrder::kBfs,
                                         SearchOrder::kShell,
                                         SearchOrder::kBestFirst),
                       ::testing::Values(LayerKind::kCellSorted),
                       ::testing::Values(NormKind::kL1, NormKind::kL2,
                                         NormKind::kLInf),
                       ::testing::Values(AggregateKind::kCount,
                                         AggregateKind::kSum,
                                         AggregateKind::kMin,
                                         AggregateKind::kMax,
                                         AggregateKind::kAvg,
                                         AggregateKind::kUda)),
    EquivalenceCaseName);

TEST(BatchExploreTest, CollectWithinGammaMatches) {
  // The within-gamma sweep keeps exploring past the hit layer; layer
  // accounting (stop_score at layer granularity) must agree across modes.
  SyntheticOptions topt;
  topt.d = 2;
  topt.rows = 3000;
  topt.agg = AggregateKind::kCount;
  topt.target = 900.0;
  auto fixture = MakeSyntheticTask(topt);
  ASSERT_NE(fixture, nullptr);
  CachedEvaluationLayer seq_layer(&fixture->task);
  CachedEvaluationLayer bat_layer(&fixture->task);

  AcquireOptions options;
  options.gamma = 10.0;
  options.delta = 0.03;
  options.collect_within_gamma = true;
  options.batch_explore = BatchExplore::kOff;
  auto seq = RunAcquire(fixture->task, &seq_layer, options);
  options.batch_explore = BatchExplore::kOn;
  auto bat = RunAcquire(fixture->task, &bat_layer, options);
  ASSERT_TRUE(seq.ok() && bat.ok());
  ExpectSameResult(*seq, *bat, "within_gamma");
  EXPECT_TRUE(seq->satisfied);
}

TEST(BatchExploreTest, NonIncrementalAblationMatches) {
  // With use_incremental off the batched driver batches the full-query
  // boxes instead of cell sub-queries; results must still be identical.
  SyntheticOptions topt;
  topt.d = 2;
  topt.rows = 2000;
  topt.agg = AggregateKind::kAvg;
  topt.target = 480.0;
  auto fixture = MakeSyntheticTask(topt);
  ASSERT_NE(fixture, nullptr);
  CachedEvaluationLayer seq_layer(&fixture->task);
  CachedEvaluationLayer bat_layer(&fixture->task);

  AcquireOptions options;
  options.gamma = 10.0;
  options.use_incremental = false;
  options.batch_explore = BatchExplore::kOff;
  auto seq = RunAcquire(fixture->task, &seq_layer, options);
  options.batch_explore = BatchExplore::kOn;
  auto bat = RunAcquire(fixture->task, &bat_layer, options);
  ASSERT_TRUE(seq.ok() && bat.ok());
  ExpectSameResult(*seq, *bat, "non_incremental");
  EXPECT_EQ(seq->cell_queries, 0u);
}

TEST(BatchExploreTest, BestFirstAutoBatchesAndMatchesSequential) {
  // kAuto now micro-batches the best-first order too (equal-score frontier
  // runs become tiny layers); that must stay indistinguishable from the
  // unbatched explorer.
  SyntheticOptions topt;
  topt.d = 2;
  topt.rows = 1000;
  topt.target = 600.0;
  auto fixture = MakeSyntheticTask(topt);
  ASSERT_NE(fixture, nullptr);
  AcquireOptions options;
  options.order = SearchOrder::kBestFirst;
  CachedEvaluationLayer seq_layer(&fixture->task);
  options.batch_explore = BatchExplore::kOff;
  auto seq = RunAcquire(fixture->task, &seq_layer, options);
  CachedEvaluationLayer bat_layer(&fixture->task);
  options.batch_explore = BatchExplore::kAuto;
  auto bat = RunAcquire(fixture->task, &bat_layer, options);
  ASSERT_TRUE(seq.ok() && bat.ok());
  ExpectSameResult(*seq, *bat, "best_first_auto");
}

TEST(BatchExploreTest, ContractionBatchedMatchesSequential) {
  // Overshooting equality target routes ProcessAcq into contraction; the
  // batched layer walk there must agree with the sequential one.
  SyntheticOptions topt;
  topt.d = 2;
  topt.rows = 3000;
  topt.agg = AggregateKind::kCount;
  topt.bound = 80.0;    // wide original query ...
  topt.target = 500.0;  // ... already exceeds the target: contraction
  auto fixture = MakeSyntheticTask(topt);
  ASSERT_NE(fixture, nullptr);

  AcquireOptions options;
  options.gamma = 10.0;
  options.delta = 0.02;
  options.batch_explore = BatchExplore::kOff;
  CachedEvaluationLayer seq_layer(&fixture->task);
  auto seq = ProcessAcq(fixture->task, &seq_layer, options);
  options.batch_explore = BatchExplore::kOn;
  CachedEvaluationLayer bat_layer(&fixture->task);
  auto bat = ProcessAcq(fixture->task, &bat_layer, options);
  ASSERT_TRUE(seq.ok() && bat.ok());
  ASSERT_EQ(seq->mode, AcqMode::kContracted);
  ASSERT_EQ(bat->mode, AcqMode::kContracted);
  ExpectSameResult(seq->result, bat->result, "contraction");
}

TEST(BatchExploreTest, PhaseTimingsAreReported) {
  SyntheticOptions topt;
  topt.d = 2;
  topt.rows = 2000;
  topt.target = 900.0;
  auto fixture = MakeSyntheticTask(topt);
  ASSERT_NE(fixture, nullptr);
  CachedEvaluationLayer layer(&fixture->task);
  AcquireOptions options;
  options.batch_explore = BatchExplore::kOn;
  auto result = RunAcquire(fixture->task, &layer, options);
  ASSERT_TRUE(result.ok());
  EXPECT_GE(result->exec_stats.expand_ms, 0.0);
  EXPECT_GT(result->exec_stats.explore_ms, 0.0);
  EXPECT_GE(result->exec_stats.merge_ms, 0.0);
  EXPECT_GE(result->elapsed_ms,
            0.0);  // monotonic stopwatch can never go negative
}

}  // namespace
}  // namespace acquire
