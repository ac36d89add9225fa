// Index prepare: the one cell-sorted layout build, timed as its two
// phases — the needed-PScore matrix, then the one-pass keying and fold
// with the sort of the distinct cells — plus the per-batch cost of live
// ingestion (the sync that folds an appended batch into the live layout)
// against a full rebuild. The delta-maintained layout and matrix must be
// byte-identical to a rebuilt layer's before any time is reported — a fast
// wrong build is worthless.
//
// Emits one line of JSON on stdout (committed as BENCH_index_prepare.json),
// with a host block; human-readable progress goes to stderr.
// ACQ_BENCH_ROWS=<n> shrinks the catalog for a quick pass; the default is
// the paper-scale 10^6.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <numeric>
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
    *out = CellSortedLayout{};  // the build folds into what `out` holds
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

  // --- live ingestion: per-batch sync vs full rebuild ---------------------
  // N small batches appended to the relation; the next query's sync folds
  // each batch into the live layout instead of rebuilding. The comparison is
  // one sync against one full rebuild over the grown relation, which is what
  // a naive maintain-by-rebuild strategy would pay per batch.
  const size_t batches = 8;
  const size_t batch_rows = std::max<size_t>(64, rows / 2000);
  // Append straight to the task's relation (which may be a NOREFINE-filtered
  // derivation of the catalog table): the delta machinery watches
  // relation->num_rows(), exactly like a served table would grow.
  Table* relation = task.relation.get();

  CellSortedEvaluationLayer layer(&task, step);
  ACQ_CHECK(layer.Prepare().ok());
  const std::vector<PScoreRange> probe(d, CellRangeForLevel(1, step));

  std::vector<double> sync_ms;
  for (size_t b = 0; b < batches; ++b) {
    ACQ_CHECK(relation
                  ->AppendRows(
                      MakeRows(relation->schema(), batch_rows, 1000 + b))
                  .ok());
    Stopwatch sw;
    ACQ_CHECK(layer.EvaluateBox(probe).ok());
    sync_ms.push_back(sw.ElapsedMillis());
  }
  ACQ_CHECK(layer.stats().delta_merges == batches);
  // The mean includes the first sync's regrowth of the matrix streams,
  // which Prepare sized exactly; the median is a steady-state sync.
  const double sync_ms_per_batch =
      std::accumulate(sync_ms.begin(), sync_ms.end(), 0.0) /
      static_cast<double>(batches);
  std::sort(sync_ms.begin(), sync_ms.end());
  const double sync_ms_p50 = sync_ms[batches / 2];

  // One full rebuild over the grown relation — both the delta
  // correctness reference and the per-batch cost of the naive strategy.
  CellSortedEvaluationLayer rebuilt(&task, step);
  Stopwatch t_rebuild;
  ACQ_CHECK(rebuilt.Prepare().ok());
  const double rebuild_ms = t_rebuild.ElapsedMillis();
  const CellSortedLayout& got = layer.layout();
  const CellSortedLayout& want = rebuilt.layout();
  bool same = got.cell_keys == want.cell_keys &&
              got.unreachable_rows == want.unreachable_rows &&
              got.cell_states.size() == want.cell_states.size() &&
              std::memcmp(got.cell_states.data(), want.cell_states.data(),
                          got.cell_states.size() * sizeof(double)) == 0 &&
              layer.matrix().rows == rebuilt.matrix().rows &&
              std::memcmp(layer.matrix().agg_values.data(),
                          rebuilt.matrix().agg_values.data(),
                          layer.matrix().rows * sizeof(double)) == 0;
  for (size_t i = 0; same && i < d; ++i) {
    same = std::memcmp(layer.matrix().dim(i), rebuilt.matrix().dim(i),
                       layer.matrix().rows * sizeof(double)) == 0;
  }
  ACQ_CHECK(same) << "delta-maintained layer diverged from a rebuild";

  const double speedup =
      sync_ms_per_batch > 0.0 ? rebuild_ms / sync_ms_per_batch : 0.0;
  fprintf(stderr,
          "delta: %zu batches x %zu rows sync=%.3fms/batch (p50 %.3fms) "
          "rebuild=%.2fms speedup=%.1f\n",
          batches, batch_rows, sync_ms_per_batch, sync_ms_p50, rebuild_ms,
          speedup);
  table.AddRow({"sync (one batch)", Ms(sync_ms_per_batch)});
  table.AddRow({"rebuild (one batch)", Ms(rebuild_ms)});

  const std::string json = StringFormat(
      "{\"bench\":\"index_prepare\",\"rows\":%zu,\"d\":%zu,\"cells\":%zu,"
      "\"unreachable_rows\":%zu,\"matrix_ms\":%.3f,\"layout_ms\":%.3f,"
      "\"delta\":{\"batches\":%zu,\"rows_per_batch\":%zu,"
      "\"sync_ms_per_batch\":%.3f,\"sync_ms_p50\":%.3f,\"rebuild_ms\":%.3f,"
      "\"speedup\":%.2f},\"host\":%s}",
      rows, d, cells, layout.unreachable_rows, build.matrix_ms,
      build.layout_ms, batches, batch_rows, sync_ms_per_batch, sync_ms_p50,
      rebuild_ms, speedup, HostJson().c_str());

  table.Print();
  printf("%s\n", json.c_str());
  return 0;
}

}  // namespace bench
}  // namespace acquire

int main() { return acquire::bench::Main(); }
