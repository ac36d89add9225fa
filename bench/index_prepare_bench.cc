// Index prepare: one fresh cell-sorted layout build per task, timed as its
// two phases — the needed-PScore matrix, then the one-pass grouping and fold
// — each in wall time and in process CPU time (the matrix fill runs on the
// shared pool, so its wall time hides its CPU), plus the per-batch cost of
// live ingestion (the sync that folds an
// appended batch into the live layout) against a full rebuild. The
// delta-maintained layout and matrix must be byte-identical to a rebuilt
// layer's before any time is reported — a fast wrong build is worthless.
//
// A fresh build groups rows by dense cell id when the ids span P <= 2n and
// by first-seen id otherwise (index/cell_sorted.h). The three tasks are
// chosen so both paths run at 2,000 rows and at 10^6: d = 2 (step 8) is
// dense at both, d = 3 (step 4, prepare_bound's shape) is first-seen at
// 2,000 and dense at 10^6, and d = 4 (step 3, search_bound's layout) is
// first-seen at both. The bench prints n, P, the cell count and the path of
// each build, and exits non-zero unless both paths ran.
//
// Emits one line of JSON on stdout (committed as BENCH_index_prepare.json),
// with a host block; human-readable progress goes to stderr.
// ACQ_BENCH_ROWS=<n> shrinks the catalog for a quick pass; the default is
// the paper-scale 10^6.

#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/random.h"
#include "exec/eval_kernel.h"
#include "index/cell_sorted.h"

namespace acquire {
namespace bench {
namespace {

// CPU time of every thread of the process so far, in ms.
double ProcessCpuMillis() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

struct BuildTimes {
  double matrix_ms = 1e300;
  double matrix_cpu_ms = 1e300;
  double layout_ms = 1e300;
  double layout_cpu_ms = 1e300;
};

// Minimum over `reps` of each phase of one fresh build, in wall and in
// process CPU time, on the shared pool as Prepare() runs it; `raw` keeps the
// last matrix.
BuildTimes TimeBuild(const AcqTask& task, double step, int reps,
                     NeededMatrix* raw, CellSortedLayout* out) {
  BuildTimes best;
  for (int r = 0; r < reps; ++r) {
    *raw = NeededMatrix{};
    double cpu = ProcessCpuMillis();
    Stopwatch matrix_sw;
    ACQ_CHECK(BuildNeededMatrix(task, raw).ok());
    best.matrix_ms = std::min(best.matrix_ms, matrix_sw.ElapsedMillis());
    best.matrix_cpu_ms = std::min(best.matrix_cpu_ms, ProcessCpuMillis() - cpu);
    *out = CellSortedLayout{};  // the build folds into what `out` holds
    cpu = ProcessCpuMillis();
    Stopwatch layout_sw;
    Status built = BuildCellSortedLayout(*raw, step, *task.agg.ops, out);
    best.layout_ms = std::min(best.layout_ms, layout_sw.ElapsedMillis());
    best.layout_cpu_ms = std::min(best.layout_cpu_ms, ProcessCpuMillis() - cpu);
    ACQ_CHECK(built.ok()) << built.ToString();
  }
  return best;
}

// The span P of the cell ids a fresh build of `raw` at `step` keys by: the
// product over dimensions of one more than the level of the largest finite
// needed value. The build groups by dense id when P <= 2n.
double DenseIdSpan(const NeededMatrix& raw, double step) {
  double span = 1.0;
  for (size_t i = 0; i < raw.dims; ++i) {
    double top = 0.0;
    for (size_t row = 0; row < raw.rows; ++row) {
      if (std::isfinite(raw.dim(i)[row])) top = std::max(top, raw.dim(i)[row]);
    }
    span *= static_cast<double>(PScoreLevel(top, step) + 1);
  }
  return span;
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
  const int reps = 3;
  struct Shape {
    size_t d;
    double gamma;
  };
  const Shape shapes[] = {{2, 16.0}, {3, 12.0}, {4, 12.0}};
  const size_t delta_shape = 1;  // d = 3 also times syncs against a rebuild

  Catalog catalog = MakeLineitemCatalog(rows);
  fprintf(stderr, "index_prepare_bench rows=%zu\n", rows);
  TablePrinter table({"build", "P", "cells", "path", "matrix ms",
                      "matrix cpu ms", "layout ms", "layout cpu ms"});
  std::vector<std::string> builds;
  bool dense_ran = false;
  bool first_seen_ran = false;
  for (const Shape& shape : shapes) {
    RatioTask ratio = MakeLineitemTask(catalog, shape.d, 0.3);
    const double step = shape.gamma / static_cast<double>(shape.d);
    NeededMatrix raw;
    CellSortedLayout layout;
    const BuildTimes build =
        TimeBuild(ratio.task, step, reps, &raw, &layout);
    const double span = DenseIdSpan(raw, step);
    const bool dense = span <= 2.0 * static_cast<double>(raw.rows);
    (dense ? dense_ran : first_seen_ran) = true;
    const char* path = dense ? "dense" : "first_seen";
    const size_t cells = layout.cell_keys.size() / shape.d;
    fprintf(stderr,
            "d=%zu step=%.2f n=%zu P=%.0f cells=%zu unreachable=%zu "
            "path=%s matrix=%.1fms (cpu %.1fms) layout=%.1fms (cpu %.1fms)\n",
            shape.d, step, raw.rows, span, cells, layout.unreachable_rows,
            path, build.matrix_ms, build.matrix_cpu_ms, build.layout_ms,
            build.layout_cpu_ms);
    table.AddRow({StringFormat("d=%zu step=%.2f", shape.d, step),
                  StringFormat("%.0f", span), std::to_string(cells), path,
                  Ms(build.matrix_ms), Ms(build.matrix_cpu_ms),
                  Ms(build.layout_ms), Ms(build.layout_cpu_ms)});
    builds.push_back(StringFormat(
        "{\"d\":%zu,\"step\":%.3f,\"n\":%zu,\"span\":%.0f,\"cells\":%zu,"
        "\"unreachable_rows\":%zu,\"path\":\"%s\",\"matrix_ms\":%.3f,"
        "\"matrix_cpu_ms\":%.3f,\"layout_ms\":%.3f,\"layout_cpu_ms\":%.3f}",
        shape.d, step, raw.rows, span, cells, layout.unreachable_rows, path,
        build.matrix_ms, build.matrix_cpu_ms, build.layout_ms,
        build.layout_cpu_ms));
  }
  table.Print();

  const size_t d = shapes[delta_shape].d;
  const double step = shapes[delta_shape].gamma / static_cast<double>(d);
  RatioTask ratio = MakeLineitemTask(catalog, d, 0.3);
  const AcqTask& task = ratio.task;

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
  TablePrinter delta({"phase", "ms"});
  delta.AddRow({StringFormat("sync (one batch, d=%zu)", d),
                Ms(sync_ms_per_batch)});
  delta.AddRow({"rebuild (one batch)", Ms(rebuild_ms)});
  delta.Print();

  const std::string json = StringFormat(
      "{\"bench\":\"index_prepare\",\"rows\":%zu,\"builds\":[%s],"
      "\"delta\":{\"d\":%zu,\"batches\":%zu,\"rows_per_batch\":%zu,"
      "\"sync_ms_per_batch\":%.3f,\"sync_ms_p50\":%.3f,\"rebuild_ms\":%.3f,"
      "\"speedup\":%.2f},\"host\":%s}",
      rows, Join(builds, ",").c_str(), d, batches, batch_rows,
      sync_ms_per_batch, sync_ms_p50, rebuild_ms, speedup,
      HostJson().c_str());
  printf("%s\n", json.c_str());
  if (!dense_ran || !first_seen_ran) {
    fprintf(stderr, "index_prepare_bench: only the %s path ran at %zu rows\n",
            dense_ran ? "dense" : "first-seen", rows);
    return 1;
  }
  return 0;
}

}  // namespace bench
}  // namespace acquire

int main() { return acquire::bench::Main(); }
