#include "core/contract.h"

#include <gtest/gtest.h>
#include <algorithm>
#include <cmath>

#include "common/failpoint.h"
#include "core/error_fn.h"
#include "core/processor.h"
#include "core/refined_space.h"
#include "index/cell_sorted.h"
#include "test_util.h"

namespace acquire {
namespace {

using test_util::MakeSyntheticTask;
using test_util::SyntheticOptions;

// Fixture whose original query overshoots: bound 70 over [0, 100] keeps
// ~70% per dim; target asks for less.
std::unique_ptr<test_util::SyntheticTask> OvershootFixture(size_t d,
                                                           double keep) {
  SyntheticOptions options;
  options.d = d;
  options.rows = 3000;
  options.bound = 70.0;
  options.target = 1.0;
  auto fixture = MakeSyntheticTask(options);
  if (fixture == nullptr) return nullptr;
  DirectEvaluationLayer probe(&fixture->task);
  double base =
      probe.EvaluateQueryValue(std::vector<double>(d, 0.0)).value_or(0.0);
  fixture->task.constraint.target = base * keep;
  return fixture;
}

TEST(ContractionDimTest, NeededPScoreMeasuresSlackComplement) {
  auto t = std::make_shared<Table>("t", Schema({{"x", DataType::kDouble, ""}}));
  for (double v : {10.0, 50.0, 70.0, 80.0}) {
    ASSERT_TRUE(t->AppendRow({Value(v)}).ok());
  }
  // Original: x <= 70 with width 70 (domain min 0).
  ContractionDim dim("x", /*is_upper=*/true, 70.0, /*width=*/70.0);
  ASSERT_TRUE(dim.Bind(t->schema()).ok());
  // slack(10) = 60/70*100 = 85.7 -> needed' = 14.3.
  EXPECT_NEAR(dim.NeededPScore(*t, 0), 100.0 - 60.0 / 70.0 * 100.0, 1e-9);
  EXPECT_NEAR(dim.NeededPScore(*t, 1), 100.0 - 20.0 / 70.0 * 100.0, 1e-9);
  // On the bound: survives only zero contraction -> needed' = 100.
  EXPECT_DOUBLE_EQ(dim.NeededPScore(*t, 2), 100.0);
  // Outside the original query: never admitted.
  EXPECT_TRUE(std::isinf(dim.NeededPScore(*t, 3)));
}

TEST(ContractionDimTest, ContractedBoundAndDescribe) {
  ContractionDim dim("x", true, 70.0, 70.0);
  EXPECT_DOUBLE_EQ(dim.ContractedBound(100.0), 70.0);  // no contraction
  EXPECT_DOUBLE_EQ(dim.ContractedBound(0.0), 0.0);     // full contraction
  EXPECT_DOUBLE_EQ(dim.ContractedBound(50.0), 35.0);
  EXPECT_EQ(dim.DescribeAt(50.0), "x <= 35");
  EXPECT_EQ(dim.label(), "x <= 70");
}

TEST(ContractionDimTest, LowerBoundDirection) {
  auto t = std::make_shared<Table>("t", Schema({{"x", DataType::kDouble, ""}}));
  ASSERT_TRUE(t->AppendRow({Value(90.0)}).ok());
  ASSERT_TRUE(t->AppendRow({Value(20.0)}).ok());
  // Original: x >= 30 over domain [30, 100]; width 70.
  ContractionDim dim("x", /*is_upper=*/false, 30.0, 70.0);
  ASSERT_TRUE(dim.Bind(t->schema()).ok());
  EXPECT_NEAR(dim.NeededPScore(*t, 0), 100.0 - 60.0 / 70.0 * 100.0, 1e-9);
  EXPECT_TRUE(std::isinf(dim.NeededPScore(*t, 1)));
  EXPECT_DOUBLE_EQ(dim.ContractedBound(0.0), 100.0);
}

TEST(MakeContractionTaskTest, WrapsNumericDims) {
  auto fixture = OvershootFixture(2, 0.5);
  ASSERT_NE(fixture, nullptr);
  auto contract = MakeContractionTask(fixture->task);
  ASSERT_TRUE(contract.ok()) << contract.status().ToString();
  EXPECT_EQ(contract->d(), 2u);
  EXPECT_EQ(contract->relation.get(), fixture->task.relation.get());
  EXPECT_DOUBLE_EQ(contract->dims[0]->MaxPScore(), 100.0);
}

TEST(RunAcquireContractTest, ShrinksCountToTarget) {
  auto fixture = OvershootFixture(2, 0.5);
  ASSERT_NE(fixture, nullptr);
  auto contract = MakeContractionTask(fixture->task);
  ASSERT_TRUE(contract.ok());
  AcquireOptions options;
  options.gamma = 16.0;  // step 8 keeps the bounded grid small
  options.delta = 0.1;
  CellSortedEvaluationLayer layer(&*contract, GridStepFor(*contract, options));
  auto result = RunAcquireContract(*contract, &layer, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_TRUE(result->satisfied);
  for (const RefinedQuery& q : result->queries) {
    EXPECT_LE(q.error, options.delta);
    EXPECT_NEAR(q.aggregate, contract->constraint.target,
                options.delta * contract->constraint.target + 1e-9);
    // Contraction amounts are reported, and some dimension did contract.
    double total = 0.0;
    for (double c : q.pscores) {
      EXPECT_GE(c, -1e-9);
      total += c;
    }
    EXPECT_GT(total, 0.0);
  }
}

TEST(RunAcquireContractTest, MinimalContractionComesFirst) {
  auto fixture = OvershootFixture(1, 0.6);
  ASSERT_NE(fixture, nullptr);
  auto contract = MakeContractionTask(fixture->task);
  ASSERT_TRUE(contract.ok());
  AcquireOptions options;
  options.gamma = 5.0;
  options.delta = 0.1;
  CellSortedEvaluationLayer layer(&*contract, GridStepFor(*contract, options));
  auto result = RunAcquireContract(*contract, &layer, options);
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(result->satisfied);
  // The contracted bound is below the original but as high as possible:
  // contracting further than the first hit layer is never reported.
  for (size_t i = 1; i < result->queries.size(); ++i) {
    EXPECT_GE(result->queries[i].qscore, result->queries[0].qscore - 1e-9);
  }
}

TEST(RunAcquireContractTest, RepartitionRecoversFromCoarseGrid) {
  // One dimension, coarse grid: the contraction lattice jumps across the
  // equality target and the bisection inside the skipped-over band must
  // recover it.
  auto fixture = OvershootFixture(1, 0.2);  // keep only 20% of the results
  ASSERT_NE(fixture, nullptr);
  auto contract = MakeContractionTask(fixture->task);
  ASSERT_TRUE(contract.ok());
  AcquireOptions options;
  options.gamma = 25.0;  // step 25 in 1-D: guaranteed to overshoot
  options.delta = 0.02;
  options.repartition_iters = 20;
  CellSortedEvaluationLayer layer(&*contract, GridStepFor(*contract, options));
  auto result = RunAcquireContract(*contract, &layer, options);
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(result->satisfied) << result->best.ToString();
  bool has_offgrid = false;
  for (const RefinedQuery& q : result->queries) {
    EXPECT_LE(q.error, options.delta);
    has_offgrid = has_offgrid || q.coord.empty();
  }
  EXPECT_TRUE(has_offgrid);
}

TEST(RunAcquireContractTest, RejectsNonEqualityConstraints) {
  auto fixture = OvershootFixture(1, 0.5);
  ASSERT_NE(fixture, nullptr);
  auto contract = MakeContractionTask(fixture->task);
  ASSERT_TRUE(contract.ok());
  contract->constraint.op = ConstraintOp::kGe;
  CellSortedEvaluationLayer layer(&*contract, GridStepFor(*contract, {}));
  EXPECT_TRUE(RunAcquireContract(*contract, &layer, {}).status().IsUnsupported());
}

// Records every box evaluated through it, in order, over another layer.
class RecordingLayer final : public EvaluationLayer {
 public:
  explicit RecordingLayer(EvaluationLayer* inner)
      : EvaluationLayer(&inner->task()), inner_(inner) {}

  Result<AggregateOps::State> EvaluateBox(
      const std::vector<PScoreRange>& box) override {
    boxes.push_back(box);
    return inner_->EvaluateBox(box);
  }

  std::vector<std::vector<PScoreRange>> boxes;

 private:
  EvaluationLayer* inner_;
};

// A reference contraction walk that shares no code with the generators:
// appends every p' coordinate with the given component sum under per-axis
// caps to `out`, in lexicographic order.
void EnumerateLayer(const std::vector<int32_t>& caps,
                    const std::vector<int64_t>& suffix_caps, int64_t sum,
                    size_t dim, GridCoord* coord,
                    std::vector<GridCoord>* out) {
  if (dim == caps.size()) {
    if (sum == 0) out->push_back(*coord);
    return;
  }
  int64_t lo = std::max<int64_t>(0, sum - suffix_caps[dim + 1]);
  int64_t hi = std::min<int64_t>(caps[dim], sum);
  for (int64_t v = lo; v <= hi; ++v) {
    (*coord)[dim] = static_cast<int32_t>(v);
    EnumerateLayer(caps, suffix_caps, sum - v, dim + 1, coord, out);
  }
}

// The reference walk's layers, from the largest p' sum (the original
// query) down to 0.
std::vector<std::vector<GridCoord>> ReferenceWalk(const RefinedSpace& space) {
  const size_t d = space.d();
  std::vector<int64_t> suffix_caps(d + 1, 0);
  for (size_t i = d; i-- > 0;) {
    suffix_caps[i] = suffix_caps[i + 1] + space.MaxLevel(i);
  }
  std::vector<std::vector<GridCoord>> layers;
  GridCoord coord(d);
  for (int64_t sum = suffix_caps[0]; sum >= 0; --sum) {
    layers.emplace_back();
    EnumerateLayer(space.max_levels(), suffix_caps, sum, 0, &coord,
                   &layers.back());
  }
  return layers;
}

// Without repartitioning and with a target no coordinate meets, the walk
// evaluates exactly the reference walk's full-query boxes, in order, for
// every layer up to the one max_explored cuts.
TEST(RunAcquireContractTest, WalkVisitsTheReferenceOrder) {
  struct Case {
    size_t d;
    double gamma;
    uint64_t max_explored;
  };
  const Case cases[] = {{1, 10.0, 1000}, {1, 16.0, 1000}, {2, 16.0, 1000},
                        {2, 40.0, 1000}, {3, 16.0, 400},  {3, 40.0, 1000},
                        {4, 16.0, 300},  {4, 40.0, 300}};
  for (const Case& c : cases) {
    SCOPED_TRACE(testing::Message() << "d=" << c.d << " gamma=" << c.gamma);
    auto fixture = OvershootFixture(c.d, 0.5);
    ASSERT_NE(fixture, nullptr);
    auto contract = MakeContractionTask(fixture->task);
    ASSERT_TRUE(contract.ok());
    DirectEvaluationLayer probe(&*contract);
    const double base =
        probe.EvaluateQueryValue(std::vector<double>(c.d, 100.0)).value();
    // COUNT is integral, so a half-integral target is never met at delta 0.
    contract->constraint.target = std::floor(base / 2.0) + 0.5;
    AcquireOptions options;
    options.gamma = c.gamma;
    options.delta = 0.0;
    options.repartition_iters = 0;
    options.max_explored = c.max_explored;
    DirectEvaluationLayer direct(&*contract);
    RecordingLayer layer(&direct);
    auto result = RunAcquireContract(*contract, &layer, options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_FALSE(result->satisfied);

    const RefinedSpace space(&*contract, options.gamma, options.norm);
    std::vector<std::vector<PScoreRange>> expected;
    size_t coords = 0;
    for (const std::vector<GridCoord>& walked : ReferenceWalk(space)) {
      if (coords >= c.max_explored) break;
      coords += walked.size();
      for (const GridCoord& coord : walked) {
        expected.push_back(space.QueryBox(coord));
      }
    }
    EXPECT_EQ(result->queries_explored, std::min<uint64_t>(coords,
                                                           c.max_explored));
    EXPECT_EQ(result->termination, coords >= c.max_explored
                                       ? RunTermination::kTruncated
                                       : RunTermination::kCompleted);
    ASSERT_EQ(layer.boxes.size(), expected.size());
    for (size_t q = 0; q < expected.size(); ++q) {
      for (size_t i = 0; i < c.d; ++i) {
        ASSERT_EQ(layer.boxes[q][i].lo, expected[q][i].lo) << "box " << q;
        ASSERT_EQ(layer.boxes[q][i].hi, expected[q][i].hi) << "box " << q;
      }
    }
  }
}

// max_explored ending inside a layer still evaluates that whole layer (one
// batch) but visits only up to the cap.
TEST(RunAcquireContractTest, MaxExploredCutsTheWalkMidLayer) {
  auto fixture = OvershootFixture(3, 0.5);
  ASSERT_NE(fixture, nullptr);
  auto contract = MakeContractionTask(fixture->task);
  ASSERT_TRUE(contract.ok());
  contract->constraint.target = 0.5;  // below every nonempty COUNT
  AcquireOptions options;
  options.gamma = 40.0;
  options.delta = 0.0;
  options.repartition_iters = 0;
  const RefinedSpace space(&*contract, options.gamma, options.norm);
  const std::vector<std::vector<GridCoord>> layers = ReferenceWalk(space);
  ASSERT_GE(layers[3].size(), 2u);
  const size_t through_layer_2 =
      layers[0].size() + layers[1].size() + layers[2].size();
  options.max_explored = through_layer_2 + layers[3].size() / 2;
  DirectEvaluationLayer direct(&*contract);
  RecordingLayer layer(&direct);
  auto result = RunAcquireContract(*contract, &layer, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->termination, RunTermination::kTruncated);
  EXPECT_EQ(result->queries_explored, options.max_explored);
  ASSERT_EQ(layer.boxes.size(), through_layer_2 + layers[3].size());
  for (size_t q = 0; q < layers[3].size(); ++q) {
    const std::vector<PScoreRange> want = space.QueryBox(layers[3][q]);
    for (size_t i = 0; i < 3; ++i) {
      EXPECT_EQ(layer.boxes[through_layer_2 + q][i].hi, want[i].hi);
    }
  }
}

// The walk's layers come from the BFS generator, so their arenas are
// charged to the run: an injected layer-allocation failure ends a
// contracted run resource_exhausted.
TEST(RunAcquireContractTest, LayerAllocFailureExhaustsTheRun) {
  if (!FailpointRegistry::compiled_in()) {
    GTEST_SKIP() << "failpoints compiled out";
  }
  auto fixture = OvershootFixture(2, 0.5);
  ASSERT_NE(fixture, nullptr);
  AcquireOptions options;
  options.gamma = 16.0;
  options.delta = 0.1;
  RunContext ctx;
  options.run_ctx = &ctx;
  auto& registry = FailpointRegistry::Global();
  ASSERT_TRUE(registry.Configure("expand.layer_alloc", "p:1").ok());
  auto outcome = ProcessAcq(fixture->task, options);
  registry.DisarmAll();
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome->mode, AcqMode::kContracted);
  EXPECT_EQ(outcome->result.termination, RunTermination::kResourceExhausted);
  // It stopped before its first coordinate, so its best is the original
  // query: c = 0, at the aggregate and error ProcessAcq measured first.
  EXPECT_EQ(outcome->result.queries_explored, 0u);
  const RefinedQuery& best = outcome->result.best;
  EXPECT_EQ(best.aggregate, outcome->original_aggregate);
  EXPECT_EQ(best.error, DefaultAggregateError(fixture->task.constraint,
                                              outcome->original_aggregate));
  EXPECT_EQ(best.qscore, 0.0);
  EXPECT_EQ(best.pscores, std::vector<double>(2, 0.0));
  EXPECT_EQ(best.description, "c0 <= 70 AND c1 <= 70");
}

TEST(MakeContractionTaskTest, RejectsJoinDims) {
  auto fixture = OvershootFixture(1, 0.5);
  ASSERT_NE(fixture, nullptr);
  fixture->task.dims.push_back(
      std::make_unique<JoinDim>("c0", "c1", 10.0));
  ASSERT_TRUE(fixture->task.dims.back()
                  ->Bind(fixture->task.relation->schema())
                  .ok());
  EXPECT_TRUE(MakeContractionTask(fixture->task).status().IsUnsupported());
}

}  // namespace
}  // namespace acquire
