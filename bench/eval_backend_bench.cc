// Evaluation-backend shootout: Direct / Cached / CellSorted over
// TPC-H-shaped lineitem data, across table sizes and dimensionalities, on
// the three workloads ACQUIRE actually issues (cell queries, aligned
// boxes, off-grid repartition probes).
//
// Emits one line of JSON on stdout (committed as BENCH_eval_backend.json);
// human-readable progress goes to stderr. ACQ_BENCH_FULL=1 raises the top
// table size to 10^6 rows.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "index/backend_factory.h"

namespace acquire {
namespace bench {
namespace {

std::vector<std::vector<PScoreRange>> MakeWorkload(const std::string& kind,
                                                   size_t d, double step,
                                                   size_t count,
                                                   uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<PScoreRange>> boxes;
  boxes.reserve(count);
  for (size_t q = 0; q < count; ++q) {
    std::vector<PScoreRange> box(d);
    for (auto& r : box) {
      if (kind == "aligned_cell") {
        r = CellRangeForLevel(static_cast<int64_t>(rng.NextBounded(8)), step);
      } else if (kind == "aligned_box") {
        // From level 0 through a random level: the shape Algorithm 3's
        // shell expansion asks when it merges whole sub-grids.
        int64_t hi = 1 + static_cast<int64_t>(rng.NextBounded(6));
        r = PScoreRange{-1.0, static_cast<double>(hi) * step};
      } else {  // unaligned_box: off-grid repartition probe
        double hi = rng.NextDouble(step, 5.0 * step) + 0.37;
        r = PScoreRange{rng.NextBool(0.5) ? -1.0 : hi / 3.0, hi};
      }
    }
    boxes.push_back(std::move(box));
  }
  return boxes;
}

/// Per-query time of `layer` on `boxes`, in milliseconds.
double TimePerQueryMs(EvaluationLayer* layer,
                      const std::vector<std::vector<PScoreRange>>& boxes) {
  double checksum = 0.0;
  Stopwatch sw;
  for (const auto& box : boxes) {
    auto state = layer->EvaluateBox(box);
    ACQ_CHECK(state.ok()) << state.status().ToString();
    checksum += state->empty() ? 0.0 : (*state)[0];
  }
  double ms = sw.ElapsedMillis();
  if (checksum == 12345.6789) fprintf(stderr, "~");  // defeat DCE
  return ms / static_cast<double>(boxes.size());
}

size_t RepsFor(EvalBackend backend, const std::string& workload, size_t n) {
  if (backend == EvalBackend::kDirect) return 4;  // scans + recomputes
  if (backend == EvalBackend::kCellSorted && workload != "unaligned_box") {
    return n >= 500000 ? 500 : 200;
  }
  return n >= 500000 ? 12 : 40;  // matrix-scan cost per query
}

struct BackendRun {
  double prepare_ms = 0.0;
  std::map<std::string, double> per_query_ms;  // workload -> ms
};

}  // namespace

int Main() {
  const size_t top_rows = EnvRows(200000);
  std::vector<size_t> sizes = {10000, 100000};
  if (top_rows > 100000) sizes.push_back(top_rows);
  const std::vector<size_t> dims = {1, 2, 3, 4};
  const std::vector<std::string> workloads = {"aligned_cell", "aligned_box",
                                              "unaligned_box"};
  const std::vector<EvalBackend> backends = {
      EvalBackend::kDirect, EvalBackend::kCached, EvalBackend::kCellSorted};

  std::string json = "{\"bench\":\"eval_backend\",\"configs\":[";
  bool first_config = true;
  double cached_cell_ms = 0.0, cached_box_ms = 0.0;
  double sorted_cell_ms = 0.0, sorted_box_ms = 0.0;

  for (size_t n : sizes) {
    Catalog catalog = MakeLineitemCatalog(n);
    for (size_t d : dims) {
      RatioTask ratio = MakeLineitemTask(catalog, d, 0.5);
      const AcqTask& task = ratio.task;
      const double step = 10.0 / static_cast<double>(d);
      fprintf(stderr, "config n=%zu d=%zu\n", n, d);

      if (!first_config) json += ",";
      first_config = false;
      json += StringFormat("{\"n\":%zu,\"d\":%zu,\"backends\":{", n, d);

      bool first_backend = true;
      for (EvalBackend backend : backends) {
        BackendOptions options;
        options.grid_step = step;
        auto layer = MakeEvaluationLayer(&task, backend, options);
        ACQ_CHECK(layer.ok()) << layer.status().ToString();
        Stopwatch prep;
        ACQ_CHECK((*layer)->Prepare().ok());
        BackendRun run;
        run.prepare_ms = prep.ElapsedMillis();
        for (const std::string& workload : workloads) {
          auto boxes = MakeWorkload(workload, d, step,
                                    RepsFor(backend, workload, n),
                                    n * 31 + d * 7);
          run.per_query_ms[workload] = TimePerQueryMs(layer->get(), boxes);
        }
        if (n == sizes.back() && d == 3) {
          if (backend == EvalBackend::kCached) {
            cached_cell_ms = run.per_query_ms["aligned_cell"];
            cached_box_ms = run.per_query_ms["aligned_box"];
          } else if (backend == EvalBackend::kCellSorted) {
            sorted_cell_ms = run.per_query_ms["aligned_cell"];
            sorted_box_ms = run.per_query_ms["aligned_box"];
          }
        }
        if (!first_backend) json += ",";
        first_backend = false;
        json += StringFormat(
            "\"%s\":{\"prepare_ms\":%.3f,\"aligned_cell_ms\":%.6f,"
            "\"aligned_box_ms\":%.6f,\"unaligned_box_ms\":%.6f}",
            EvalBackendToString(backend), run.prepare_ms,
            run.per_query_ms["aligned_cell"], run.per_query_ms["aligned_box"],
            run.per_query_ms["unaligned_box"]);
      }
      json += "}}";
    }
  }

  const double cell_speedup =
      sorted_cell_ms > 0.0 ? cached_cell_ms / sorted_cell_ms : 0.0;
  const double box_speedup =
      sorted_box_ms > 0.0 ? cached_box_ms / sorted_box_ms : 0.0;
  json += StringFormat(
      "],\"speedup_cellsorted_vs_cached_cell\":%.2f,"
      "\"speedup_cellsorted_vs_cached_box\":%.2f,"
      "\"speedup_cellsorted_vs_cached\":%.2f}",
      cell_speedup, box_speedup, std::min(cell_speedup, box_speedup));
  printf("%s\n", json.c_str());
  return 0;
}

}  // namespace bench
}  // namespace acquire

int main() { return acquire::bench::Main(); }
