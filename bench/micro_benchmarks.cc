// Google-benchmark microbenchmarks for the hot building blocks: joins,
// evaluation-layer box queries, incremental aggregate computation, grid
// generation and the workload samplers.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "common/zipf.h"
#include "core/expand.h"
#include "core/explore.h"
#include "exec/join.h"

namespace acquire {
namespace bench {
namespace {

const Catalog& SharedCatalog() {
  static Catalog* const kCatalog = new Catalog(MakeLineitemCatalog(50000));
  return *kCatalog;
}

const AcqTask& SharedTask() {
  static const RatioTask* const kTask =
      new RatioTask(MakeLineitemTask(SharedCatalog(), 3, 0.5));
  return kTask->task;
}

void BM_HashJoin(benchmark::State& state) {
  auto supplier = SharedCatalog().GetTable("supplier").value();
  auto partsupp = SharedCatalog().GetTable("partsupp").value();
  for (auto _ : state) {
    auto joined =
        HashJoin(supplier, partsupp, "s_suppkey", "ps_suppkey", "j");
    benchmark::DoNotOptimize(joined);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(partsupp->num_rows()));
}
BENCHMARK(BM_HashJoin);

void BM_BandJoin(benchmark::State& state) {
  auto supplier = SharedCatalog().GetTable("supplier").value();
  auto partsupp = SharedCatalog().GetTable("partsupp").value();
  const double band = static_cast<double>(state.range(0));
  for (auto _ : state) {
    auto joined =
        BandJoin(supplier, partsupp, "s_suppkey", "ps_suppkey", band, "j");
    benchmark::DoNotOptimize(joined);
  }
}
BENCHMARK(BM_BandJoin)->Arg(0)->Arg(2)->Arg(8);

void BM_DirectBoxQuery(benchmark::State& state) {
  const AcqTask& task = SharedTask();
  DirectEvaluationLayer layer(&task);
  std::vector<PScoreRange> box(task.d(), PScoreRange{-1.0, 10.0});
  for (auto _ : state) {
    auto result = layer.EvaluateBox(box);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(task.relation->num_rows()));
}
BENCHMARK(BM_DirectBoxQuery);

void BM_CellSortedCellProbe(benchmark::State& state) {
  const AcqTask& task = SharedTask();
  RefinedSpace space(&task, 10.0, Norm::L1());
  CellSortedEvaluationLayer layer(&task, space.step());
  benchmark::DoNotOptimize(layer.Prepare());
  auto cell = space.CellBox({1, 2, 0});
  for (auto _ : state) {
    auto result = layer.EvaluateBox(cell);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_CellSortedCellProbe);

void BM_CellSortedBuild(benchmark::State& state) {
  const AcqTask& task = SharedTask();
  RefinedSpace space(&task, 10.0, Norm::L1());
  for (auto _ : state) {
    CellSortedEvaluationLayer layer(&task, space.step());
    benchmark::DoNotOptimize(layer.Prepare());
  }
}
BENCHMARK(BM_CellSortedBuild);

void BM_ExplorerLayerSweep(benchmark::State& state) {
  // Cost of incrementally evaluating the first N grid queries.
  const AcqTask& task = SharedTask();
  RefinedSpace space(&task, 10.0, Norm::L1());
  CellSortedEvaluationLayer layer(&task, space.step());
  benchmark::DoNotOptimize(layer.Prepare());
  const size_t n = static_cast<size_t>(state.range(0));
  const size_t d = space.d();
  std::vector<int32_t> keys;
  double score = 0.0;
  for (auto _ : state) {
    Explorer explorer(&space, &layer);
    BfsGenerator gen(&space);
    size_t done = 0;
    while (done < n && gen.NextLayer(&keys, &score)) {
      for (size_t q = 0; q < keys.size() && done < n; q += d, ++done) {
        benchmark::DoNotOptimize(explorer.ComputeAggregate(keys.data() + q));
      }
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * n));
}
BENCHMARK(BM_ExplorerLayerSweep)->Arg(100)->Arg(1000);

void BM_BfsGeneration(benchmark::State& state) {
  const AcqTask& task = SharedTask();
  RefinedSpace space(&task, 10.0, Norm::L1());
  // Whole layers until at least n coordinates; the items are the
  // coordinates generated.
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<int32_t> keys;
  double score = 0.0;
  size_t coords = 0;
  for (auto _ : state) {
    BfsGenerator gen(&space);
    size_t produced = 0;
    while (produced < n && gen.NextLayer(&keys, &score)) {
      benchmark::DoNotOptimize(keys.data());
      produced += keys.size() / space.d();
    }
    benchmark::ClobberMemory();
    coords += produced;
  }
  state.SetItemsProcessed(static_cast<int64_t>(coords));
}
BENCHMARK(BM_BfsGeneration)->Arg(1000)->Arg(10000);

void BM_ZipfSample(benchmark::State& state) {
  ZipfDistribution zipf(1000, 1.0);
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.Sample(&rng));
  }
}
BENCHMARK(BM_ZipfSample);

void BM_TopKRanking(benchmark::State& state) {
  const AcqTask& task = SharedTask();
  for (auto _ : state) {
    auto result = RunTopK(task, Norm::L1());
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(task.relation->num_rows()));
}
BENCHMARK(BM_TopKRanking);

}  // namespace
}  // namespace bench
}  // namespace acquire

BENCHMARK_MAIN();
