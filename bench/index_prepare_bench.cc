// Index prepare: the one cell-sorted layout build, timed as its two
// phases — the needed-PScore matrix, then the one-pass keying and fold
// with the sort of the distinct cells — plus the amortized cost of live
// ingestion (append + staged delta sync + merge) against a full rebuild.
// Every delta-maintained answer must be bit-identical to a rebuilt layer
// before its time is reported — a fast wrong build is worthless.
//
// Emits one line of JSON on stdout (committed as BENCH_index_prepare.json),
// with a host block; human-readable progress goes to stderr.
// ACQ_BENCH_ROWS=<n> shrinks the catalog for a quick pass; the default is
// the paper-scale 10^6.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/random.h"
#include "exec/eval_kernel.h"
#include "exec/thread_pool.h"
#include "index/cell_sorted.h"

namespace acquire {
namespace bench {
namespace {

struct BuildTimes {
  double matrix_ms = 1e300;
  double layout_ms = 1e300;
};

// Minimum over `reps` of each phase of one build, on the shared pool as
// Prepare() runs it.
BuildTimes TimeBuild(const AcqTask& task, double step, int reps,
                     CellSortedLayout* out) {
  BuildTimes best;
  for (int r = 0; r < reps; ++r) {
    NeededMatrix raw;
    Stopwatch matrix_sw;
    ACQ_CHECK(BuildNeededMatrix(task, &ThreadPool::Shared(), &raw).ok());
    best.matrix_ms = std::min(best.matrix_ms, matrix_sw.ElapsedMillis());
    Stopwatch layout_sw;
    Status built = BuildCellSortedLayout(raw, step, *task.agg.ops, out);
    best.layout_ms = std::min(best.layout_ms, layout_sw.ElapsedMillis());
    ACQ_CHECK(built.ok()) << built.ToString();
  }
  return best;
}

// Schema-driven synthetic rows for the append path: values land inside the
// generated lineitem domains so appended rows hit populated grid regions.
std::vector<std::vector<Value>> MakeRows(const Schema& schema, size_t count,
                                         uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<Value>> rows;
  rows.reserve(count);
  for (size_t r = 0; r < count; ++r) {
    std::vector<Value> row;
    row.reserve(schema.num_fields());
    for (size_t f = 0; f < schema.num_fields(); ++f) {
      switch (schema.field(f).type) {
        case DataType::kInt64:
          row.emplace_back(rng.NextInt(1, 1000));
          break;
        case DataType::kDouble:
          row.emplace_back(rng.NextDouble(0.0, 50.0));
          break;
        case DataType::kString:
          row.emplace_back(std::string("appended"));
          break;
      }
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

}  // namespace

int Main() {
  const size_t rows = EnvRows(1000000);
  const size_t d = 3;
  const double gamma = 12.0;
  const double step = gamma / static_cast<double>(d);
  const int reps = 3;

  Catalog catalog = MakeLineitemCatalog(rows);
  RatioTask ratio = MakeLineitemTask(catalog, d, 0.3);
  const AcqTask& task = ratio.task;

  fprintf(stderr, "index_prepare_bench rows=%zu d=%zu step=%.2f\n", rows, d,
          step);

  CellSortedLayout layout;
  const BuildTimes build = TimeBuild(task, step, reps, &layout);
  const size_t cells = layout.cell_keys.size() / d;
  fprintf(stderr, "cells=%zu unreachable=%zu matrix=%.1fms layout=%.1fms\n",
          cells, layout.unreachable_rows, build.matrix_ms, build.layout_ms);
  TablePrinter table({"phase", "ms"});
  table.AddRow({"needed matrix", Ms(build.matrix_ms)});
  table.AddRow({"layout (key + fold + sort)", Ms(build.layout_ms)});

  // --- live ingestion: staged deltas vs full rebuild ----------------------
  // N small batches appended to the relation; each batch is staged by the
  // next query's delta sync instead of rebuilding. The comparison is
  // (staging all batches + one final merge) vs (a full rebuild per batch),
  // which is what a naive maintain-by-rebuild strategy would pay.
  const size_t batches = 8;
  const size_t batch_rows = std::max<size_t>(64, rows / 2000);
  // Append straight to the task's relation (which may be a NOREFINE-filtered
  // derivation of the catalog table): the delta machinery watches
  // relation->num_rows(), exactly like a served table would grow.
  Table* relation = task.relation.get();

  CellSortedEvaluationLayer layer(&task, step);
  ACQ_CHECK(layer.Prepare().ok());
  // Keep every batch below the merge threshold so the staging path (not an
  // absorb) is what gets timed.
  layer.set_delta_merge_threshold(batches * batch_rows * 2);
  const std::vector<PScoreRange> probe(d, CellRangeForLevel(1, step));

  double staging_ms = 0.0;
  for (size_t b = 0; b < batches; ++b) {
    ACQ_CHECK(relation
                  ->AppendRows(
                      MakeRows(relation->schema(), batch_rows, 1000 + b))
                  .ok());
    Stopwatch sw;
    ACQ_CHECK(layer.EvaluateBox(probe).ok());
    staging_ms += sw.ElapsedMillis();
  }
  ACQ_CHECK(layer.staged_delta_rows() == batches * batch_rows);

  Stopwatch t_merge;
  ACQ_CHECK(layer.MergeDeltas().ok());
  const double merge_ms = t_merge.ElapsedMillis();

  // One full rebuild over the grown relation — both the delta
  // correctness reference and the per-batch cost of the naive strategy.
  CellSortedEvaluationLayer rebuilt(&task, step);
  Stopwatch t_rebuild;
  ACQ_CHECK(rebuilt.Prepare().ok());
  const double rebuild_ms = t_rebuild.ElapsedMillis();
  auto got = layer.EvaluateBox(probe);
  auto expected = rebuilt.EvaluateBox(probe);
  ACQ_CHECK(got.ok() && expected.ok());
  ACQ_CHECK(*got == *expected) << "delta-maintained layer diverged";

  const double delta_total = staging_ms + merge_ms;
  const double naive_total = rebuild_ms * static_cast<double>(batches);
  const double amortized_speedup =
      delta_total > 0.0 ? naive_total / delta_total : 0.0;
  fprintf(stderr,
          "delta: %zu batches x %zu rows staging=%.2fms merge=%.2fms "
          "rebuild=%.2fms amortized_speedup=%.1f\n",
          batches, batch_rows, staging_ms, merge_ms, rebuild_ms,
          amortized_speedup);
  table.AddRow({"delta-maintain (all batches)", Ms(delta_total)});
  table.AddRow({"rebuild (one batch)", Ms(rebuild_ms)});

  const std::string json = StringFormat(
      "{\"bench\":\"index_prepare\",\"rows\":%zu,\"d\":%zu,\"cells\":%zu,"
      "\"unreachable_rows\":%zu,\"matrix_ms\":%.3f,\"layout_ms\":%.3f,"
      "\"delta\":{\"batches\":%zu,\"rows_per_batch\":%zu,"
      "\"staging_ms\":%.3f,\"merge_ms\":%.3f,\"rebuild_ms\":%.3f,"
      "\"amortized_speedup\":%.2f},\"host\":%s}",
      rows, d, cells, layout.unreachable_rows, build.matrix_ms,
      build.layout_ms, batches, batch_rows, staging_ms, merge_ms, rebuild_ms,
      amortized_speedup, HostJson().c_str());

  table.Print();
  printf("%s\n", json.c_str());
  return 0;
}

}  // namespace bench
}  // namespace acquire

int main() { return acquire::bench::Main(); }
