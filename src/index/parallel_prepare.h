#ifndef ACQUIRE_INDEX_PARALLEL_PREPARE_H_
#define ACQUIRE_INDEX_PARALLEL_PREPARE_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "exec/acq_task.h"
#include "exec/evaluation.h"
#include "exec/thread_pool.h"

namespace acquire {

/// How a cell-sorted layout build is executed. Every mode produces the SAME
/// layout bit for bit — the layout is canonical (cells sorted
/// lexicographically, payload rows in relation order within each cell,
/// per-cell states folded in payload order), so the choice only trades off
/// build time and is deliberately absent from the task fingerprint.
enum class PrepareMode {
  /// Parallel when the row count and the pool justify it (see
  /// BuildCellSortedLayout for the exact rule), else sequential.
  kAuto,
  /// Always the sequential reference build.
  kSequential,
  /// Always the sharded parallel build (even on a 1-worker pool, so
  /// single-core CI can still exercise the parallel code path).
  kParallel,
};

/// The cell-sorted CSR layout (see index/cell_sorted.h for field semantics):
/// the build result is separated from the layer so the sequential and
/// parallel builders, the delta merge, and the benches can all produce and
/// compare the same structure.
struct CellSortedLayout {
  size_t unreachable_rows = 0;
  NeededMatrix matrix;                 // permuted to cell order
  std::vector<int32_t> cell_keys;      // m * d, cell-major, sorted
  std::vector<uint32_t> cell_offsets;  // m + 1
  size_t state_width = 0;              // doubles per aggregate state
  std::vector<double> cell_states;     // m * state_width, cell-major

  size_t num_cells() const {
    return cell_offsets.empty() ? 0 : cell_offsets.size() - 1;
  }
};

/// How the build actually ran (for stats/tests/benches).
struct PrepareBuildInfo {
  bool parallel = false;  // the sharded path ran (vs the sequential one)
  size_t buckets = 0;     // range-partition buckets used (parallel only)
};

/// Builds the cell-sorted layout of `raw` (a needed-PScore matrix in
/// relation row order) at grid step `step`, folding per-cell states with
/// `ops`.
///
/// Sequential reference: first-seen cell ids over one row scan (an
/// open-addressed table over flat d-int32 keys), sort the distinct cells,
/// counting-sort the rows into cell order, fold each cell's contiguous
/// payload into its flat state. A UDA whose fold changes the state's width
/// fails the build with Internal.
///
/// Sharded parallel build (two-phase): (A) per-row cell coordinates are
/// computed over row chunks on the pool; (B) rows are range-partitioned by
/// cell coordinate into per-worker buckets using deterministic sample-based
/// splitters (all rows of one cell land in one bucket; per-chunk counts +
/// prefix sums keep each bucket's rows in relation order), each bucket then
/// runs the sequential reference on its slice in parallel (phase C, with the
/// same first-seen-cell table), and the bucket layouts concatenate into the
/// global CSR arrays. Because every cell lives in exactly one bucket and
/// buckets are ordered by the splitters, the concatenation IS the sorted
/// order, and each cell's payload/fold order matches the reference exactly —
/// the parallel build is bit-identical by construction, not by luck.
///
/// kAuto falls back to sequential below ~32k rows or when the pool cannot
/// produce two buckets; the `index.parallel_prepare` failpoint forces the
/// (result-identical) sequential path on builds that would have run
/// parallel. `pool` = nullptr uses the process-wide shared pool.
Status BuildCellSortedLayout(const NeededMatrix& raw, double step,
                             const AggregateOps& ops, ThreadPool* pool,
                             PrepareMode mode, CellSortedLayout* out,
                             PrepareBuildInfo* info = nullptr);

/// True when two layouts are identical bit for bit (keys, offsets, permuted
/// matrix, states, unreachable count) — the invariant the parallel build
/// guarantees; exposed for tests and the prepare bench.
bool LayoutsBitIdentical(const CellSortedLayout& a, const CellSortedLayout& b);

}  // namespace acquire

#endif  // ACQUIRE_INDEX_PARALLEL_PREPARE_H_
