// Equivalence battery for the Explore driver. RunAcquire drives a
// BatchExplorer: each layer's cell sub-queries execute in one batch, then
// the Eq. 17 merges run in generation order. Only the independent O_1
// executions are reordered, so every drained coordinate must carry exactly
// the aggregate an unseeded, one-coordinate-at-a-time Explorer computes —
// on a second layer of the same kind and on the Direct oracle — for every
// search order, exact layer, norm and aggregate, SUM and AVG included. At
// every layer boundary the cell-query counts must agree as well. A drive
// that replays another drive's store must match a cold drive the same way.

#include <gtest/gtest.h>
#include <algorithm>
#include <cstring>
#include <memory>
#include <tuple>
#include <utility>
#include <vector>

#include "acquire.h"
#include "test_util.h"

namespace acquire {
namespace {

using test_util::ExploreOracle;
using test_util::MakeSyntheticTask;
using test_util::SyntheticOptions;

enum class LayerKind {
  kDirect,
  kCellSorted,
};

const char* LayerName(LayerKind kind) {
  switch (kind) {
    case LayerKind::kDirect:
      return "Direct";
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
// reaches on the grid only after several expansion layers, under every
// order and norm.
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

// The best and every answer of `run` that lie on the grid. Repartitioned
// answers lie off it and have no coordinate.
std::vector<const RefinedQuery*> OnGridAnswers(const AcquireResult& run) {
  std::vector<const RefinedQuery*> out;
  if (!run.best.coord.empty()) out.push_back(&run.best);
  for (const RefinedQuery& answer : run.queries) {
    if (!answer.coord.empty()) out.push_back(&answer);
  }
  return out;
}

// Every on-grid answer of `run` carries the Direct oracle's aggregate at its
// coordinate, bit for bit.
void ExpectAnswersMatchOracle(const AcquireResult& run, ExploreOracle* oracle,
                              const std::string& label) {
  for (const RefinedQuery* answer : OnGridAnswers(run)) {
    auto truth = oracle->Aggregate(answer->coord);
    ASSERT_TRUE(truth.ok()) << label << ": " << truth.status().ToString();
    EXPECT_EQ(answer->aggregate, *truth)
        << label << ": " << answer->description;
  }
}

// Order x layer x norm x aggregate. Under L1 a predecessor always scores
// strictly lower than its successor, so no layer ever fills one of its own
// coordinates; under L2 and LInf best-first runs of equal score can request
// a successor before its predecessor, which exercises the drain's in-layer
// fills. SUM is FP-sensitive (any reordering shows), MIN/MAX and AVG's
// 2-wide state take the built-in flat combine, and the UDA the virtual
// fallback.
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
  const AcqTask& task = fixture->task;

  AcquireOptions options;
  options.gamma = 12.0;  // grid step 4.0 with d = 3
  options.delta = c.delta;
  options.order = order;
  options.norm = MakeNorm(norm);
  const double step = options.gamma / static_cast<double>(topt.d);
  const std::string label = std::string(OrderName(order)) + "/" +
                            LayerName(kind) + "/" + NormName(norm) + "/" +
                            AggregateKindToString(agg);

  // The driver as RunAcquire builds it, over the generator it would build.
  auto layer = MakeLayer(kind, &task, step);
  ASSERT_NE(layer, nullptr);
  ASSERT_TRUE(layer->Prepare().ok()) << label;
  RefinedSpace space(&task, options.gamma, options.norm);
  std::unique_ptr<QueryGenerator> generator =
      MakeQueryGenerator(&space, options);
  BatchExplorer batch(&space, layer.get(), generator.get());
  batch.set_shell_drain_hint(ResolveSearchOrder(options) ==
                             SearchOrder::kShell);

  // The references: unseeded, one coordinate at a time. For the Direct
  // kind the oracle is exactly the same-kind reference (an unseeded
  // Explorer over a DirectEvaluationLayer), so it runs once and stands in
  // for both.
  std::unique_ptr<EvaluationLayer> same_kind_layer;
  std::unique_ptr<Explorer> same_kind;
  if (kind != LayerKind::kDirect) {
    same_kind_layer = MakeLayer(kind, &task, step);
    ASSERT_TRUE(same_kind_layer->Prepare().ok()) << label;
    same_kind = std::make_unique<Explorer>(&space, same_kind_layer.get());
  }
  ExploreOracle oracle(&task, options.gamma, options.norm);

  // Drain through the first layer that holds an on-grid answer; RunAcquire
  // stops there at the latest. `boundaries` records {coordinates drained,
  // cell queries} after each layer.
  std::vector<std::pair<uint64_t, uint64_t>> boundaries;
  uint64_t drained = 0;
  bool hit = false;
  GridCoord coord;
  while (!hit && batch.NextLayer()) {
    ASSERT_TRUE(batch.ExecuteLayer().ok()) << label;
    for (size_t q = 0; q < batch.layer_size(); ++q, ++drained) {
      const int32_t* key = batch.layer_key(q);
      coord.assign(key, key + topt.d);
      auto got = batch.explorer().ComputeAggregate(key);
      auto truth = oracle.Aggregate(coord);
      auto want =
          same_kind != nullptr ? same_kind->ComputeAggregate(coord) : truth;
      ASSERT_TRUE(got.ok() && want.ok() && truth.ok()) << label;
      ASSERT_EQ(*got, *want) << label << " coordinate " << drained;
      ASSERT_EQ(*got, *truth) << label << " coordinate " << drained;
      hit |= DefaultAggregateError(task.constraint, *got) <= options.delta;
    }
    const uint64_t want_cell_queries = same_kind != nullptr
                                           ? same_kind->cell_queries()
                                           : oracle.cell_queries();
    ASSERT_EQ(batch.explorer().cell_queries(), want_cell_queries)
        << label << " after " << drained << " coordinates";
    boundaries.emplace_back(drained, batch.explorer().cell_queries());
  }
  ASSERT_TRUE(hit) << label;

  // RunAcquire on the same layer: the coordinates it investigates are a
  // prefix of the drive's, and it executes whole layers, so its cell-query
  // count is the drive's at the boundary of the layer it stopped in.
  auto run = RunAcquire(task, layer.get(), options);
  ASSERT_TRUE(run.ok()) << label << ": " << run.status().ToString();
  EXPECT_TRUE(run->satisfied) << label;
  ASSERT_LE(run->queries_explored, drained) << label;
  const auto stop = std::find_if(
      boundaries.begin(), boundaries.end(),
      [&](const auto& b) { return b.first >= run->queries_explored; });
  ASSERT_NE(stop, boundaries.end()) << label;
  EXPECT_EQ(run->cell_queries, stop->second) << label;
  ExpectAnswersMatchOracle(*run, &oracle, label);
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
                       ::testing::Values(LayerKind::kDirect,
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

// --- Kept stores -----------------------------------------------------------

// Forwards to a prepared layer and counts the cell batches reaching it.
class CountingLayer : public EvaluationLayer {
 public:
  explicit CountingLayer(EvaluationLayer* inner)
      : EvaluationLayer(&inner->task()), inner_(inner) {}

  Result<AggregateOps::State> EvaluateBox(
      const std::vector<PScoreRange>& box) override {
    return inner_->EvaluateBox(box);
  }
  Status EvaluateCellKeys(const int32_t* keys, size_t count, double step,
                          std::vector<double>* states) override {
    ++batches;
    cells += count;
    return inner_->EvaluateCellKeys(keys, count, step, states);
  }

  size_t batches = 0;
  size_t cells = 0;

 private:
  EvaluationLayer* inner_;
};

// What one drive saw: every drained coordinate's aggregate in drain order
// and, after each layer, the cell-query count and the layer's cell batches.
struct Drive {
  std::vector<double> aggregates;
  std::vector<uint64_t> cell_queries;
  std::vector<size_t> batches;
  uint64_t replayed = 0;
};

// Drives `order` under `norm` over `layer` into `store` for the first
// `limit` coordinates, stopping mid-layer at the limit as max_explored
// does. `counter` (optional) is `layer` itself, wrapped.
Drive DriveInto(const AcqTask& task, EvaluationLayer* layer,
                SearchOrder order, const Norm& norm, uint64_t limit,
                AggregateStore* store, const CountingLayer* counter = nullptr) {
  AcquireOptions options;
  options.gamma = 12.0;
  options.order = order;
  options.norm = norm;
  RefinedSpace space(&task, options.gamma, options.norm);
  std::unique_ptr<QueryGenerator> generator =
      MakeQueryGenerator(&space, options);
  BatchExplorer batch(&space, layer, generator.get(), nullptr, store);
  batch.set_shell_drain_hint(ResolveSearchOrder(options) ==
                             SearchOrder::kShell);
  Drive drive;
  while (drive.aggregates.size() < limit && batch.NextLayer()) {
    const size_t batches_before = counter != nullptr ? counter->batches : 0;
    EXPECT_TRUE(batch.ExecuteLayer().ok());
    for (size_t q = 0;
         q < batch.layer_size() && drive.aggregates.size() < limit; ++q) {
      Result<double> got = batch.explorer().ComputeAggregate(batch.layer_key(q));
      EXPECT_TRUE(got.ok()) << got.status().ToString();
      drive.aggregates.push_back(got.ok() ? *got : 0.0);
    }
    drive.cell_queries.push_back(batch.explorer().cell_queries());
    drive.batches.push_back(
        counter != nullptr ? counter->batches - batches_before : 0);
  }
  drive.replayed = batch.explorer().replayed();
  return drive;
}

// Same entries in the same order, keys and blocks bit for bit.
void ExpectSameStore(const AggregateStore& got, const AggregateStore& want) {
  ASSERT_EQ(got.size(), want.size());
  if (want.size() == 0) return;
  EXPECT_EQ(std::memcmp(got.KeyAt(0), want.KeyAt(0),
                        want.size() * want.d() * sizeof(int32_t)),
            0);
  EXPECT_EQ(std::memcmp(got.BlockAt(0), want.BlockAt(0),
                        want.size() * want.block_width() * sizeof(double)),
            0);
}

// A d = 3 task whose drives run several hundred coordinates deep.
std::unique_ptr<test_util::SyntheticTask> KeptStoreTask(AggregateKind agg) {
  SyntheticOptions topt;
  topt.d = 3;
  topt.rows = 4000;
  topt.agg = agg;
  topt.target = CaseFor(agg).target;
  return MakeSyntheticTask(topt);
}

// A drive handed another drive's store (of the same order, stopped inside a
// layer) replays it: every aggregate, the cell-query count at every layer
// boundary and the store left behind are a cold drive's. Best-first under
// L2 fills predecessors inside layers, so its own store mismatches at the
// first reordered layer and is cut back there.
TEST(BatchExploreTest, KeptStoreReplaysLikeAColdDrive) {
  const std::pair<SearchOrder, Norm> orders[] = {
      {SearchOrder::kBfs, Norm::L1()},
      {SearchOrder::kShell, Norm::LInf()},
      {SearchOrder::kBestFirst, Norm::L2()}};
  for (AggregateKind agg :
       {AggregateKind::kSum, AggregateKind::kAvg, AggregateKind::kMin}) {
    auto fixture = KeptStoreTask(agg);
    ASSERT_NE(fixture, nullptr);
    const AcqTask& task = fixture->task;
    CellSortedEvaluationLayer layer(&task, 4.0);
    ASSERT_TRUE(layer.Prepare().ok());
    for (const auto& [order, norm] : orders) {
      SCOPED_TRACE(std::string(AggregateKindToString(agg)) + "/" +
                   OrderName(order));
      AggregateStore kept;
      DriveInto(task, &layer, order, norm, 300, &kept);
      ASSERT_EQ(kept.size(), 300u);
      AggregateStore cold_store;
      const Drive cold =
          DriveInto(task, &layer, order, norm, 1500, &cold_store);
      const Drive warm = DriveInto(task, &layer, order, norm, 1500, &kept);
      ASSERT_EQ(warm.aggregates.size(), cold.aggregates.size());
      for (size_t i = 0; i < cold.aggregates.size(); ++i) {
        ASSERT_EQ(warm.aggregates[i], cold.aggregates[i]) << "coordinate " << i;
      }
      EXPECT_EQ(warm.cell_queries, cold.cell_queries);
      EXPECT_EQ(cold.replayed, 0u);
      EXPECT_GT(warm.replayed, 0u);
      if (order != SearchOrder::kBestFirst) {
        EXPECT_EQ(warm.replayed, 300u);
      }
      ExpectSameStore(kept, cold_store);
    }
  }
}

// Layers the kept store holds in full never reach the evaluation layer; the
// layer the store ends in executes only its remainder.
TEST(BatchExploreTest, FullyReplayedLayersExecuteNothing) {
  auto fixture = KeptStoreTask(AggregateKind::kSum);
  ASSERT_NE(fixture, nullptr);
  const AcqTask& task = fixture->task;
  CellSortedEvaluationLayer inner(&task, 4.0);
  ASSERT_TRUE(inner.Prepare().ok());
  AggregateStore kept;
  DriveInto(task, &inner, SearchOrder::kBfs, Norm::L1(), 300, &kept);

  CountingLayer counting(&inner);
  const Drive warm = DriveInto(task, &counting, SearchOrder::kBfs,
                               Norm::L1(), 600, &kept, &counting);
  // BFS layers at d = 3 hold 1, 3, 6, ... coordinates: 286 fill layers
  // 0-10 and the store ends 14 coordinates into layer 11.
  ASSERT_GT(warm.batches.size(), 12u);
  for (size_t k = 0; k < 11; ++k) {
    EXPECT_EQ(warm.batches[k], 0u) << "layer " << k;
  }
  EXPECT_EQ(warm.batches[11], 1u);
  EXPECT_EQ(warm.replayed, 300u);
  EXPECT_EQ(counting.cells, warm.cell_queries.back() - warm.replayed);
}

// A store built in another order, or under other weights, is replayed up to
// the first layer the drains part at, cut back there, and the drive goes on
// cold: it still matches a cold drive coordinate for coordinate.
TEST(BatchExploreTest, StoreFromAnotherOrderTruncatesAndMatches) {
  auto fixture = KeptStoreTask(AggregateKind::kSum);
  ASSERT_NE(fixture, nullptr);
  AcqTask& task = fixture->task;
  CellSortedEvaluationLayer layer(&task, 4.0);
  ASSERT_TRUE(layer.Prepare().ok());
  struct Case {
    const char* name;
    SearchOrder built;
    Norm built_norm;
    SearchOrder replayed;
    Norm replayed_norm;
    std::vector<double> weights;  // applied before the replaying drive
  };
  const Case cases[] = {
      {"shell then BFS", SearchOrder::kShell, Norm::LInf(), SearchOrder::kBfs,
       Norm::L1(), {}},
      {"BFS then weighted best-first", SearchOrder::kBfs, Norm::L1(),
       SearchOrder::kBestFirst, Norm::L2(), {1.0, 3.0, 0.5}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    for (size_t i = 0; i < task.d(); ++i) task.dims[i]->set_weight(1.0);
    AggregateStore kept;
    DriveInto(task, &layer, c.built, c.built_norm, 300, &kept);
    for (size_t i = 0; i < c.weights.size(); ++i) {
      task.dims[i]->set_weight(c.weights[i]);
    }
    AggregateStore cold_store;
    const Drive cold =
        DriveInto(task, &layer, c.replayed, c.replayed_norm, 800, &cold_store);
    const Drive warm =
        DriveInto(task, &layer, c.replayed, c.replayed_norm, 800, &kept);
    ASSERT_EQ(warm.aggregates.size(), cold.aggregates.size());
    for (size_t i = 0; i < cold.aggregates.size(); ++i) {
      ASSERT_EQ(warm.aggregates[i], cold.aggregates[i]) << "coordinate " << i;
    }
    EXPECT_EQ(warm.cell_queries, cold.cell_queries);
    // The origin layer always matches; the drains part before the end.
    EXPECT_GE(warm.replayed, 1u);
    EXPECT_LT(warm.replayed, 300u);
    ExpectSameStore(kept, cold_store);
  }
}

TEST(BatchExploreTest, TruncatedStoreFindsKeptKeysOnly) {
  AggregateStore store;
  store.Configure(2, 1);
  for (int32_t i = 0; i < 10; ++i) {
    const int32_t key[2] = {i, 2 * i};
    double* block = store.Append(key);
    for (size_t j = 0; j < store.block_width(); ++j) block[j] = i + 0.5 * j;
  }
  const int32_t probe[2] = {7, 14};
  ASSERT_NE(store.Find(probe), nullptr);  // builds the slot table
  store.Truncate(6);
  EXPECT_EQ(store.size(), 6u);
  for (int32_t i = 0; i < 10; ++i) {
    const int32_t key[2] = {i, 2 * i};
    const double* block = store.Find(key);
    if (i < 6) {
      ASSERT_NE(block, nullptr) << i;
      EXPECT_EQ(block, store.BlockAt(i));
      EXPECT_EQ(block[2], i + 1.0);
    } else {
      EXPECT_EQ(block, nullptr) << i;
    }
  }
  // Appends after the cut are found again, in the freed positions.
  double* appended = store.Append(probe);
  appended[0] = 42.0;
  const double* found = store.Find(probe);
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found, store.BlockAt(6));
  EXPECT_EQ(found[0], 42.0);
}

TEST(BatchExploreTest, CollectWithinGammaMatches) {
  // The within-gamma sweep keeps exploring past the hit layer; every answer
  // it collects is still the oracle's.
  SyntheticOptions topt;
  topt.d = 2;
  topt.rows = 3000;
  topt.agg = AggregateKind::kCount;
  topt.target = 900.0;
  auto fixture = MakeSyntheticTask(topt);
  ASSERT_NE(fixture, nullptr);

  AcquireOptions options;
  options.gamma = 10.0;
  options.delta = 0.03;
  options.collect_within_gamma = true;
  CellSortedEvaluationLayer layer(&fixture->task,
                                  GridStepFor(fixture->task, options));
  auto run = RunAcquire(fixture->task, &layer, options);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_TRUE(run->satisfied);
  ExploreOracle oracle(&fixture->task, options.gamma, options.norm);
  ExpectAnswersMatchOracle(*run, &oracle, "within_gamma");
}

TEST(BatchExploreTest, NonIncrementalAblationMatches) {
  // With use_incremental off the driver batches the full-query boxes instead
  // of cell sub-queries, so each answer is its own box's aggregate.
  SyntheticOptions topt;
  topt.d = 2;
  topt.rows = 2000;
  topt.agg = AggregateKind::kAvg;
  topt.target = 480.0;
  auto fixture = MakeSyntheticTask(topt);
  ASSERT_NE(fixture, nullptr);
  DirectEvaluationLayer layer(&fixture->task);

  AcquireOptions options;
  options.gamma = 10.0;
  options.use_incremental = false;
  auto run = RunAcquire(fixture->task, &layer, options);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->cell_queries, 0u);
  RefinedSpace space(&fixture->task, options.gamma, options.norm);
  for (const RefinedQuery* answer : OnGridAnswers(*run)) {
    auto state = layer.EvaluateBox(space.QueryBox(answer->coord));
    ASSERT_TRUE(state.ok()) << state.status().ToString();
    EXPECT_EQ(answer->aggregate, fixture->task.agg.ops->Final(*state));
  }
}

TEST(BatchExploreTest, ContractionBatchedMatchesSequential) {
  // An overshooting equality target routes ProcessAcq into contraction,
  // whose layer walk evaluates full-query boxes in one batch per layer:
  // every answer is its own box's aggregate over the contraction task.
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
  CellSortedEvaluationLayer layer(&fixture->task,
                                  GridStepFor(fixture->task, options));
  auto outcome = ProcessAcq(fixture->task, &layer, options);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  ASSERT_EQ(outcome->mode, AcqMode::kContracted);
  ASSERT_TRUE(outcome->result.satisfied);
  const AcqTask& contraction = *outcome->contraction_task;
  RefinedSpace space(&contraction, options.gamma, options.norm);
  DirectEvaluationLayer reference(&contraction);
  for (const RefinedQuery& answer : outcome->result.queries) {
    // Answers report contraction amounts c; the box is over p' = 100 - c.
    std::vector<PScoreRange> box;
    if (answer.coord.empty()) {
      for (size_t i = 0; i < contraction.d(); ++i) {
        box.push_back(PScoreRange{
            -1.0, contraction.dims[i]->MaxPScore() - answer.pscores[i]});
      }
    } else {
      box = space.QueryBox(answer.coord);
    }
    auto state = reference.EvaluateBox(box);
    ASSERT_TRUE(state.ok()) << state.status().ToString();
    EXPECT_EQ(answer.aggregate, contraction.agg.ops->Final(*state))
        << answer.description;
  }
}

TEST(BatchExploreTest, PhaseTimingsAreReported) {
  SyntheticOptions topt;
  topt.d = 2;
  topt.rows = 2000;
  topt.target = 900.0;
  auto fixture = MakeSyntheticTask(topt);
  ASSERT_NE(fixture, nullptr);
  AcquireOptions options;
  CellSortedEvaluationLayer layer(&fixture->task,
                                  GridStepFor(fixture->task, options));
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
