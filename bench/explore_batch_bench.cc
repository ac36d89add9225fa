// Layer-batched Explore, end to end: RunAcquire on the cell-sorted backend
// across dimensionalities and table sizes. The driver drains each expand
// layer and answers all of its cell sub-queries in one merged sweep over
// the sorted cells, on the run thread; the
// Eq. 17 merges stay sequential in generation order. Before a config's time
// is reported, its best answer is checked bit-exact against an unseeded,
// one-coordinate-at-a-time Explorer. Each config then runs again on the
// same layer with the aggregate store a first run left (a warm run, as a
// served ACQ on a reused layer does): its best answer, queries_explored and
// cell_queries must equal the cold run's before warm_elapsed_ms and
// warm_merge_ms are reported.
//
// Emits one line of JSON on stdout (committed as BENCH_explore_batch.json),
// with a "host" object (nproc, build type, compiler, pool width) so lines
// from different builds can be told apart; human-readable progress goes to
// stderr. ACQ_BENCH_ROWS=<n> shrinks the top table size for a quick pass;
// the default is the paper-scale 10^6.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/expand.h"
#include "index/cell_sorted.h"

namespace acquire {
namespace bench {
namespace {

struct Run {
  double elapsed_ms = 0.0;  // min over reps, Prepare excluded
  double expand_ms = 0.0;
  double explore_ms = 0.0;
  double merge_ms = 0.0;
  uint64_t queries_explored = 0;
  uint64_t cell_queries = 0;
  RefinedQuery best;
};

// `store` (optional) is handed to every rep: a store a previous run on
// `layer` left makes each rep a warm run.
Run RunReps(const AcqTask& task, EvaluationLayer* layer,
            const AcquireOptions& options, int reps,
            AggregateStore* store = nullptr) {
  Run run;
  run.elapsed_ms = 1e300;
  for (int r = 0; r < reps; ++r) {
    auto result = RunAcquire(task, layer, options, store);
    ACQ_CHECK(result.ok()) << result.status().ToString();
    if (result->elapsed_ms < run.elapsed_ms) {
      run.elapsed_ms = result->elapsed_ms;
      run.expand_ms = result->exec_stats.expand_ms;
      run.explore_ms = result->exec_stats.explore_ms;
      run.merge_ms = result->exec_stats.merge_ms;
    }
    run.queries_explored = result->queries_explored;
    run.cell_queries = result->cell_queries;
    run.best = result->best;
  }
  return run;
}

/// Number of expand layers the search consumed: replay the deterministic
/// generator over the same space, one NextLayer call per layer, until
/// `explored` coordinates have been produced. (A partially drained hit
/// layer counts as one layer, matching what the batched driver executes.)
size_t CountLayers(const AcqTask& task, const AcquireOptions& options,
                   uint64_t explored) {
  RefinedSpace space(&task, options.gamma, options.norm);
  BfsGenerator gen(&space);
  std::vector<int32_t> keys;
  double score = 0.0;
  size_t layers = 0;
  for (uint64_t produced = 0;
       produced < explored && gen.NextLayer(&keys, &score);
       produced += keys.size() / space.d()) {
    ++layers;
  }
  return layers;
}

}  // namespace

int Main() {
  const size_t top_rows = EnvRows(1000000);
  std::vector<size_t> sizes = {100000};
  if (top_rows != sizes.back()) sizes.push_back(top_rows);
  const std::vector<size_t> dims = {1, 2, 3, 4};
  const int reps = 3;

  std::string json = "{\"bench\":\"explore_batch\",\"configs\":[";
  bool first_config = true;

  TablePrinter table({"n", "d", "layers", "queries", "elapsed_ms",
                      "merge_ms", "warm_ms", "warm_merge_ms"});
  for (size_t n : sizes) {
    Catalog catalog = MakeLineitemCatalog(n);
    for (size_t d : dims) {
      RatioTask ratio = MakeLineitemTask(catalog, d, 0.3);
      const AcqTask& task = ratio.task;

      AcquireOptions options;
      options.delta = 0.05;
      // The batched pipeline earns its keep on deep searches with wide
      // layers; gamma = 12 puts the BFS hit layer at ~10d (Figure 9's
      // ~120-PScore refinement need) without making d = 4 combinatorial.
      options.gamma = 12.0;
      const double step = options.gamma / static_cast<double>(d);

      CellSortedEvaluationLayer layer(&task, step);
      Stopwatch prep;
      ACQ_CHECK(layer.Prepare().ok());
      const double prepare_ms = prep.ElapsedMillis();

      const Run run = RunReps(task, &layer, options, reps);
      // Keep the timing honest: the best answer must be Algorithm 3's, bit
      // for bit, as an unseeded one-coordinate-at-a-time Explorer computes
      // it. These tasks end on the grid, not on a repartitioned answer.
      ACQ_CHECK(!run.best.coord.empty())
          << "best answer is off the grid at n=" << n << " d=" << d;
      RefinedSpace space(&task, options.gamma, options.norm);
      Explorer reference(&space, &layer);
      Result<double> expected = reference.ComputeAggregate(run.best.coord);
      ACQ_CHECK(expected.ok() && *expected == run.best.aggregate)
          << "best answer diverged from the unseeded Explorer at n=" << n
          << " d=" << d;

      // Warm: the first run's store replays on every rep, and must change
      // nothing the run reports.
      AggregateStore store;
      ACQ_CHECK(RunAcquire(task, &layer, options, &store).ok());
      const Run warm = RunReps(task, &layer, options, reps, &store);
      ACQ_CHECK(warm.best.coord == run.best.coord &&
                warm.best.aggregate == run.best.aggregate &&
                warm.queries_explored == run.queries_explored &&
                warm.cell_queries == run.cell_queries)
          << "warm run diverged from the cold run at n=" << n << " d=" << d;

      const size_t layers = CountLayers(task, options, run.queries_explored);
      const double layers_per_sec =
          run.elapsed_ms > 0.0 ? 1000.0 * layers / run.elapsed_ms : 0.0;

      fprintf(stderr, "config n=%zu d=%zu layers=%zu elapsed=%.1fms\n", n, d,
              layers, run.elapsed_ms);
      table.AddRow({std::to_string(n), std::to_string(d),
                    std::to_string(layers),
                    std::to_string(run.queries_explored), Ms(run.elapsed_ms),
                    Ms(run.merge_ms), Ms(warm.elapsed_ms),
                    Ms(warm.merge_ms)});

      if (!first_config) json += ",";
      first_config = false;
      json += StringFormat(
          "{\"n\":%zu,\"d\":%zu,\"prepare_ms\":%.2f,\"layers\":%zu,"
          "\"queries_explored\":%llu,\"cell_queries\":%llu,"
          "\"elapsed_ms\":%.3f,\"expand_ms\":%.3f,\"explore_ms\":%.3f,"
          "\"merge_ms\":%.3f,\"layers_per_sec\":%.1f,"
          "\"warm_elapsed_ms\":%.3f,\"warm_merge_ms\":%.3f}",
          n, d, prepare_ms, layers,
          static_cast<unsigned long long>(run.queries_explored),
          static_cast<unsigned long long>(run.cell_queries), run.elapsed_ms,
          run.expand_ms, run.explore_ms, run.merge_ms, layers_per_sec,
          warm.elapsed_ms, warm.merge_ms);
    }
  }
  json += StringFormat("],\"host\":%s}", HostJson().c_str());

  table.Print();
  printf("%s\n", json.c_str());
  return 0;
}

}  // namespace bench
}  // namespace acquire

int main() { return acquire::bench::Main(); }
