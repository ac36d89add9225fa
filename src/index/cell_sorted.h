#ifndef ACQUIRE_INDEX_CELL_SORTED_H_
#define ACQUIRE_INDEX_CELL_SORTED_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "exec/evaluation.h"
#include "exec/thread_pool.h"

namespace acquire {

/// The cell-sorted layout of a needed-PScore matrix at one grid step:
/// Section 7.4's grid index reduced to what Algorithm 3's cell and aligned
/// box queries read.
struct CellSortedLayout {
  size_t unreachable_rows = 0;      // rows no box admits (needed == inf)
  std::vector<int32_t> cell_keys;   // m * d, cell-major, sorted
  size_t state_width = 0;           // doubles per aggregate state
  std::vector<double> cell_states;  // m * state_width, cell-major
};

/// Builds the cell-sorted layout of `raw` (a needed-PScore matrix in
/// relation row order) at grid step `step`, in one pass over the rows: each
/// reachable row is keyed through an open-addressed first-seen table over
/// flat d-int32 keys and its aggregate input is folded into that cell's
/// flat state on the spot. Then the m distinct cells are sorted
/// lexicographically and their keys and states permuted into that order.
///
/// The layout is canonical: rows reach their cell in relation order, so
/// each cell's state is Init() followed by ops.Add over its rows in
/// relation order — the fold a GROUP BY cell ORDER BY cell over the
/// relation computes, whatever builds it. A UDA whose fold changes the
/// state's width fails the build with Internal.
Status BuildCellSortedLayout(const NeededMatrix& raw, double step,
                             const AggregateOps& ops, CellSortedLayout* out);

/// Cell-sorted evaluation backend: the needed-PScore matrix is built once
/// (in parallel, dimension-major) and kept in relation order, and the
/// reachable rows are grouped into refined-space grid cells —
///
///   cell_keys_    m x d grid coordinates, lexicographically sorted
///   cell_states_  m x w flat per-cell OSP aggregate states (w doubles each,
///                 the fold of the cell's rows in relation order)
///   matrix_       needed matrix + aggregate inputs in relation order,
///                 unreachable rows included (what CachedEvaluationLayer
///                 holds)
///
/// so the queries Algorithm 3 actually issues are no longer scans:
///  * a cell query is one binary search over the sorted keys plus a
///    precomputed state (O(log m)),
///  * a grid-aligned box query walks only the key range whose first
///    coordinate overlaps the box, merging per-cell states in sorted key
///    order (deterministic), instead of visiting every populated cell,
///  * an off-grid box (repartition probes) is the shared branchless kernel
///    scan over the matrix — the call CachedEvaluationLayer makes, so the
///    answer equals the cached and direct answers bit for bit.
///
/// Incremental maintenance: rows appended to the task's relation after
/// Prepare() are discovered lazily at the next evaluate call and staged in a
/// sorted delta buffer. Every query path answers base + staged rows exactly
/// as a full rebuild would — per-cell answers continue the base fold with
/// the delta rows' Adds in append order, which is the precise operation
/// sequence a rebuild runs (a rebuilt cell folds its old rows in relation
/// order, then the appended ones). Once the buffer reaches the merge
/// threshold — or an off-grid probe needs the whole matrix — the staged
/// rows are absorbed: one O(m + dm) two-pointer merge of keys and states,
/// and the staged rows appended to the matrix in relation order, instead of
/// a rebuild.
///
/// `step` must match the refined space's grid step (gamma / d) for the
/// aligned fast paths to fire; any other step is still correct, just slow.
class CellSortedEvaluationLayer final : public EvaluationLayer {
 public:
  /// `pool` = nullptr uses the process-wide shared pool.
  CellSortedEvaluationLayer(const AcqTask* task, double step,
                            ThreadPool* pool = nullptr);

  /// Builds the matrix, then the cell layout over it.
  Status Prepare() override;

  Result<AggregateOps::State> EvaluateBox(
      const std::vector<PScoreRange>& box) override;

  /// Native batched cell queries: the requested keys are sorted and
  /// answered in forward sweeps over the sorted key array — a
  /// binary-search start, then galloping advances, so a layer of k cells
  /// costs O(k log(m/k)) key comparisons instead of k independent O(log m)
  /// searches. Large batches sweep deterministic contiguous chunks of the
  /// sorted order in parallel on the pool (bit-identical results; every
  /// answer is a copy of the precomputed flat per-cell state, plus the
  /// staged delta rows of that cell folded in append order). Falls back to
  /// the generic path when `step` differs from the layout step.
  Status EvaluateCellKeys(const int32_t* keys, size_t count, double step,
                          std::vector<double>* states) override;

  /// EvaluateCellKeys behind the per-coordinate interface.
  Result<std::vector<AggregateOps::State>> EvaluateCells(
      const GridCoord* coords, size_t count, double step) override;

  /// Keys, states and matrix are read-only once built — but only while no
  /// appended rows are pending: staging (and a possible absorb) mutates the
  /// layer, so concurrent fan-out is withheld until the next serial
  /// evaluate call has synced the deltas.
  bool SupportsConcurrentEvaluate() const override {
    return prepared_ && delta_agg_.empty() &&
           task_->relation->num_rows() == consumed_rows_;
  }

  double step() const { return step_; }
  size_t num_cells() const {
    const size_t d = task_->d();
    return d == 0 ? 0 : cell_keys_.size() / d;
  }
  /// Rows no cell holds because some dimension can never admit them
  /// (needed == inf admits no box).
  size_t unreachable_rows() const { return unreachable_rows_; }

  /// Relation rows already reflected in the layer (main layout + staged
  /// deltas); rows at or past this index are picked up by the next sync.
  size_t consumed_rows() const { return consumed_rows_; }
  /// Reachable appended rows currently staged in the delta buffer.
  size_t staged_delta_rows() const { return delta_order_.size(); }

  /// Staged-row count that triggers an automatic merge into the main
  /// layout; 0 restores the default max(4096, matrix rows / 8). Exposed so
  /// tests and the prepare bench can force or forbid merges.
  void set_delta_merge_threshold(size_t threshold) {
    delta_merge_threshold_ = threshold;
  }
  size_t delta_merge_threshold() const;

  /// Stages any unconsumed relation rows, then absorbs every staged row
  /// into the main layout now. The merge is the two-pointer merge described
  /// above and produces exactly the layer a full rebuild would (bit for
  /// bit); the `index.delta_merge` failpoint downgrades it to that full
  /// rebuild, which is therefore result-preserving by the same argument.
  Status MergeDeltas();

  /// True when every range in `box` is exactly one grid cell at this
  /// layer's step (exposed for tests).
  bool IsCellAligned(const std::vector<PScoreRange>& box,
                     GridCoord* coord) const;

 private:
  /// Index of the first cell whose key is lexicographically >= `key`
  /// (d() leading entries used); num_cells() when none.
  size_t LowerBoundCell(const int32_t* key) const;

  /// LowerBoundCell restricted to [from, num_cells()): gallops forward from
  /// `from` (exponential probe, then binary search in the bracket), so a
  /// run of nearby lookups in sorted order costs O(log gap) each.
  size_t GallopLowerBound(size_t from, const int32_t* key) const;

  size_t delta_num_cells() const {
    return delta_offsets_.empty() ? 0 : delta_offsets_.size() - 1;
  }
  /// First staged cell whose key is lexicographically >= `key`.
  size_t LowerBoundDeltaCell(const int32_t* key) const;
  /// Continues the flat `state` with staged cell `t`'s rows in append
  /// order; false when a UDA changed the state's width.
  bool FoldDeltaCellAt(const FlatAggregate& flat, size_t t,
                       double* state) const;
  /// Continues `state` with the staged rows of cell `key` (no-op when the
  /// cell has none) — the exact Add continuation a full rebuild would run.
  bool FoldDeltaCell(const FlatAggregate& flat, const int32_t* key,
                     double* state) const;
  /// Writes cell `key`'s effective state (base fold continued with its
  /// staged rows; the identity when it has neither), given its lower-bound
  /// position `s` in the main key array.
  bool CellStateAt(const FlatAggregate& flat, size_t s, const int32_t* key,
                   double* state) const;

  /// Moves relation rows [consumed_rows_, num_rows()) into the staged delta
  /// buffer, merges the reachable ones into its sorted order (O(k) plus a
  /// sort of only the new rows) and rebuilds its CSR view.
  Status StageNewRows();
  /// StageNewRows + threshold-triggered absorb; serial-entry only.
  Status SyncDeltas();
  /// Merges the staged rows into the main layout and appends them to the
  /// matrix (or rebuilds from scratch under the `index.delta_merge`
  /// failpoint).
  Status AbsorbStagedDeltas();
  void ClearDeltaBuffer();

  double step_;
  ThreadPool* pool_;
  bool prepared_ = false;
  size_t unreachable_rows_ = 0;
  size_t consumed_rows_ = 0;
  size_t delta_merge_threshold_ = 0;  // 0 = auto
  NeededMatrix matrix_;               // relation order, unreachable rows too
  std::vector<int32_t> cell_keys_;    // m * d, cell-major, sorted
  std::vector<double> cell_states_;   // m * state width, cell-major

  // Every appended row not yet absorbed, in append order (row-major; an
  // unreachable row's key is never read, as delta_order_ leaves it out),
  // plus a sorted CSR view over the reachable ones, extended on every sync
  // (k stays small — at most the merge threshold).
  std::vector<int32_t> delta_coords_;     // k * d, row-major
  std::vector<double> delta_needed_;      // k * d, row-major
  std::vector<double> delta_agg_;         // k
  std::vector<uint32_t> delta_order_;     // reachable rows in stable key order
  std::vector<int32_t> delta_cell_keys_;  // dm * d, sorted
  std::vector<uint32_t> delta_offsets_;   // dm + 1, into delta_order_
};

}  // namespace acquire

#endif  // ACQUIRE_INDEX_CELL_SORTED_H_
