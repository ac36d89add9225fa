#ifndef ACQUIRE_EXEC_BACKEND_H_
#define ACQUIRE_EXEC_BACKEND_H_

#include <string>

#include "common/result.h"

namespace acquire {

/// Which evaluation-layer implementation answers box queries for a task.
/// kAuto lets the driver pick (currently the cell-sorted backend: grid
/// queries — the only queries Algorithm 3 issues — are cell-aligned, and
/// the sorted cell layout answers those in O(log cells) instead of
/// O(n * d)).
enum class EvalBackend {
  kAuto,
  kDirect,     // scan + recompute per call ("Postgres mode")
  kCellSorted, // Section 7.4 grid index: binary search + per-cell state
};

const char* EvalBackendToString(EvalBackend backend);

/// Parses the names EvalBackendToString emits (case-insensitive);
/// InvalidArgument otherwise.
Result<EvalBackend> EvalBackendFromString(const std::string& name);

}  // namespace acquire

#endif  // ACQUIRE_EXEC_BACKEND_H_
