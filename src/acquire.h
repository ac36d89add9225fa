#ifndef ACQUIRE_ACQUIRE_H_
#define ACQUIRE_ACQUIRE_H_

/// Umbrella header for the ACQUIRE library: everything a typical user
/// needs to plan and process Aggregation Constrained Queries.
///
///   #include "acquire.h"
///
///   acquire::Catalog catalog;                  // data
///   acquire::Binder binder(&catalog);          // ACQ SQL front end
///   auto task = binder.PlanSql("SELECT * ...CONSTRAINT...NOREFINE...");
///   auto outcome = acquire::ProcessAcq(*task);  // CellSorted layer
///
/// Individual subsystem headers remain includable on their own.

#include "core/acquire.h"               // RunAcquire + options/result
#include "core/contract.h"              // contraction mode (Section 7.2)
#include "core/processor.h"             // ProcessAcq front door (Figure 2)
#include "core/report.h"                // change reports + Pareto filtering
#include "exec/approx_evaluation.h"     // sampling / histogram layers
#include "exec/backend.h"               // evaluation backend selection
#include "exec/materialize.h"           // refined-query result tuples
#include "exec/planner.h"               // programmatic QuerySpec API
#include "exec/thread_pool.h"           // persistent worker pool
#include "expr/custom_metric_dim.h"     // user-defined refinement metrics
#include "expr/ontology.h"              // categorical roll-ups (Section 7.3)
#include "index/backend_factory.h"      // EvalBackend -> layer
#include "index/cell_sorted.h"          // cell-sorted grid index backend
#include "sql/binder.h"                 // SQL -> AcqTask
#include "sql/explain.h"                // plan introspection
#include "sql/printer.h"                // refined-query SQL rendering
#include "storage/catalog.h"
#include "storage/csv.h"
#include "storage/persistence.h"
#include "workload/tpch_gen.h"
#include "workload/users_gen.h"
#include "workload/workload.h"

namespace acquire {

/// Library version (major.minor.patch).
inline constexpr int kVersionMajor = 1;
inline constexpr int kVersionMinor = 0;
inline constexpr int kVersionPatch = 0;
inline constexpr const char* kVersionString = "1.0.0";

}  // namespace acquire

#endif  // ACQUIRE_ACQUIRE_H_
