#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

// In-process replay of one ACQ through the engine's public functions, the
// same sequence a served SUBMIT runs: Binder::PlanSql, MakeEvaluationLayer
// plus an explicit Prepare, ProcessAcq, BuildReportJson.

#include <cstdint>
#include <string>

#include "common/result.h"
#include "server/json.h"
#include "storage/catalog.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

struct ReplayResult {
  acquire::JsonValue report;  // rendered with wall_ms = 0
  uint64_t queries_explored = 0;
  uint64_t cell_queries = 0;
  double total_ms = 0.0;  // outer span (or wall time when untraced)
  // Filled only by a traced replay.
  double plan_ms = 0.0;
  double prepare_ms = 0.0;
  double search_ms = 0.0;
  double render_ms = 0.0;
  double self_ms = 0.0;   // search minus the exec spans it covers
  double cells_ms = 0.0;  // summed exec.cells spans
  uint64_t cell_calls = 0;
  uint64_t cells = 0;
  uint64_t box_calls = 0;
  uint64_t tuples_scanned = 0;  // by the search, origin query excluded
  double merge_ms = 0.0;        // from the result's ExecStats
  double expand_ms = 0.0;
};

/// Runs `request` on `catalog`. With a tracer, each step gets a span under
/// one "acq" root with id `acq`, and the layer is wrapped in a TimedLayer;
/// without one, nothing is wrapped or recorded.
acquire::Result<ReplayResult> ReplayAcq(const acquire::Catalog& catalog,
                                        const AcqRequest& request,
                                        Tracer* tracer, uint64_t acq);

/// Empty when the compared report fields (mode, termination, satisfied,
/// original_aggregate, best, answers) are identical; else the first
/// difference. Ids and timings are not compared.
std::string DiffReports(const acquire::JsonValue& got,
                        const acquire::JsonValue& want);

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
