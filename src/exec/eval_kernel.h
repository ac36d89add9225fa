#ifndef ACQUIRE_EXEC_EVAL_KERNEL_H_
#define ACQUIRE_EXEC_EVAL_KERNEL_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "exec/acq_task.h"
#include "exec/evaluation.h"

namespace acquire {

/// Builds the matrix for `task` in one pass over the relation. This fill is
/// the one evaluation step that runs on the shared pool: row chunks of at
/// least 4,096 rows are filled in parallel, so a slice under 8,192 rows runs
/// inline on the calling thread. A chunk is one RefinementDim::NeededPScores
/// call per dimension stream and one AcqTask::AggValues call. Each
/// dimension's internal memoization is pre-resolved first
/// (RefinementDim::PrecomputeNeeded), so the concurrent calls are
/// read-only. Every row's values are the same bytes at every pool width.
Status BuildNeededMatrix(const AcqTask& task, NeededMatrix* out);

/// Row-range variant for incremental index maintenance: builds the matrix of
/// relation rows [begin, end) only (out->rows == end - begin, row r of the
/// output is relation row begin + r). Per-dimension values are bit-identical
/// to the corresponding rows of a full BuildNeededMatrix — PrecomputeNeeded
/// is re-run first, so dimensions whose memoization depends on the relation
/// see the appended rows too.
Status BuildNeededMatrixRows(const AcqTask& task, size_t begin, size_t end,
                             NeededMatrix* out);

/// The one branchless predicate kernel behind every scanning layer.
/// Narrows a selection vector by one dimension: select[k] &= range admits
/// needed[k]. Callers start from an all-ones vector and apply each
/// dimension's stream in turn.
inline void RefineSelection(const double* needed, size_t count,
                            const PScoreRange& range, uint8_t* select) {
  const double lo = range.lo;
  const double hi = range.hi;
  for (size_t k = 0; k < count; ++k) {
    select[k] &= static_cast<uint8_t>((needed[k] > lo) & (needed[k] <= hi));
  }
}

/// Folds the selected rows' aggregate inputs into `state`.
inline void FoldSelected(const AggregateOps& ops, const double* values,
                         const uint8_t* select, size_t count,
                         AggregateOps::State* state) {
  for (size_t k = 0; k < count; ++k) {
    if (select[k]) ops.Add(state, values[k]);
  }
}

/// Evaluates one box query over the whole matrix: the selection kernel over
/// each dimension stream, then a fold of the selected rows in row order.
/// The cell-sorted layer answers off-grid boxes with this call; the direct
/// layer runs the same kernel over freshly computed streams, so their
/// answers agree bit for bit.
Result<AggregateOps::State> ScanBoxOverMatrix(
    const AggregateOps& ops, const NeededMatrix& matrix,
    const std::vector<PScoreRange>& box);

}  // namespace acquire

#endif  // ACQUIRE_EXEC_EVAL_KERNEL_H_
