#ifndef ACQUIRE_INDEX_CELL_SORTED_H_
#define ACQUIRE_INDEX_CELL_SORTED_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "exec/evaluation.h"

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

/// Folds the rows of `raw` (a needed-PScore matrix, in relation row order)
/// into `out`, the cell-sorted layout at grid step `step` of the rows before
/// them: empty for a fresh build, the live layout for appended rows. It
/// groups the slice's reachable rows one of two ways, chosen from the data:
///
///  * Dense ids, for a fold into an empty layout whose cell ids span at most
///    2n (n = the slice's rows). Each dimension's radix is one more than the
///    level of its largest finite needed value, dimension 0 most
///    significant, so id order is lexicographic key order. The ids are
///    built one dimension stream at a time, least significant first, and
///    each pass takes its stream's radix too; once the radixes' product
///    passes 2n the build stops keying and groups by first-seen id. The
///    ids are marked in a table of that span and numbered in ascending
///    order (the cells, sorted without a comparison), and every reachable
///    row is folded into its cell's state in relation order.
///  * First-seen, for every other fold: a row whose cell `out` already holds
///    continues that cell's state; every other reachable row is keyed
///    through an open-addressed first-seen table over flat d-int32 keys and
///    folded into its new cell's flat state on the spot. The new cells are
///    then sorted lexicographically and merged in from the back, so each run
///    of existing cells moves once.
///
/// Both paths allocate their temporaries inside the call, sized by the
/// slice. The layout is canonical: rows reach their cell in relation order,
/// so each cell's state is Init() followed by ops.Add over its rows in
/// relation order — the fold a GROUP BY cell ORDER BY cell over the
/// relation computes, whichever path runs and however the relation is
/// sliced into calls. A reachable row whose level exceeds the int32 key
/// range fails with InvalidArgument, and a UDA whose fold changes the
/// state's width with Internal; either may leave `out` half-folded.
Status BuildCellSortedLayout(const NeededMatrix& raw, double step,
                             const AggregateOps& ops, CellSortedLayout* out);

/// Cell-sorted evaluation backend: the needed-PScore matrix is built once
/// (filled on the shared pool, dimension-major) and kept in relation order,
/// and the reachable rows are grouped into refined-space grid cells —
///
///   layout_.cell_keys    m x d grid coordinates, lexicographically sorted
///   layout_.cell_states  m x w flat per-cell OSP aggregate states (w
///                        doubles each, the fold of the cell's rows in
///                        relation order)
///   matrix_              needed matrix + aggregate inputs in relation
///                        order, unreachable rows included
///
/// so the queries Algorithm 3 actually issues are no longer scans:
///  * a cell query is one binary search over the sorted keys plus a
///    precomputed state (O(log m)),
///  * a grid-aligned box query walks only the key range whose first
///    coordinate overlaps the box, merging per-cell states in sorted key
///    order (deterministic), instead of visiting every populated cell,
///  * an off-grid box (repartition probes) is the shared branchless kernel
///    scan over the matrix — the kernel DirectEvaluationLayer runs over
///    the same needed values, so the answer equals the direct answer bit
///    for bit.
///
/// Every query is answered on the calling thread; only the matrix fill of a
/// build or sync runs on the pool.
///
/// Incremental maintenance: rows appended to the task's relation after
/// Prepare() are discovered at the next evaluate call, which syncs them in
/// before it answers: BuildCellSortedLayout folds them into the live layout
/// and the matrix grows by their rows. After every sync the keys, states,
/// unreachable count and matrix are byte-identical to a fresh Prepare over
/// the grown relation. A sync that fails leaves the layer unprepared, so the
/// next call rebuilds (and reports the same error) instead of serving a
/// half-folded layout.
///
/// `step` must match the refined space's grid step (gamma / d) for the
/// aligned fast paths to fire; any other step is still correct, just slow.
class CellSortedEvaluationLayer final : public EvaluationLayer {
 public:
  CellSortedEvaluationLayer(const AcqTask* task, double step)
      : EvaluationLayer(task), step_(step) {}

  /// Builds the matrix, then the cell layout over it.
  Status Prepare() override;

  Result<AggregateOps::State> EvaluateBox(
      const std::vector<PScoreRange>& box) override;

  /// Native batched cell queries: the requested keys are sorted and
  /// answered in one forward sweep over the sorted key array with galloping
  /// advances, so a layer of k cells costs O(k log(m/k)) key comparisons
  /// instead of k independent O(log m) searches. Every answer is a copy of
  /// the precomputed flat per-cell state. Falls back to the generic path
  /// when `step` differs from the layout step.
  Status EvaluateCellKeys(const int32_t* keys, size_t count, double step,
                          std::vector<double>* states) override;

  /// EvaluateCellKeys behind the per-coordinate interface.
  Result<std::vector<AggregateOps::State>> EvaluateCells(
      const GridCoord* coords, size_t count, double step) override;

  double step() const { return step_; }
  size_t num_cells() const { return layout_.cell_keys.size() / task_->d(); }
  /// Rows no cell holds because some dimension can never admit them
  /// (needed == inf admits no box).
  size_t unreachable_rows() const { return layout_.unreachable_rows; }

  /// Relation rows already folded into the layer; rows at or past this
  /// index are folded in by the next sync.
  size_t consumed_rows() const { return consumed_rows_; }

  /// The layout and the relation-order matrix (exposed for tests and the
  /// prepare bench).
  const CellSortedLayout& layout() const { return layout_; }
  const NeededMatrix& matrix() const { return matrix_; }

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

  /// Writes cell `key`'s state (the identity when no row lies in it), given
  /// its lower-bound position `s` in the key array.
  void CellStateAt(const FlatAggregate& flat, size_t s, const int32_t* key,
                   double* state) const;

  /// Folds relation rows [consumed_rows_, end) into the layout and appends
  /// them to the matrix, charging their footprint.
  Status FoldRows(size_t end);
  /// Prepares the layer, or folds in the rows appended since the last sync
  /// (a full rebuild under the `index.delta_merge` failpoint, which the
  /// canonical layout makes result-preserving).
  Status Sync();
  /// Drops everything built: the layer is unprepared.
  void Reset();

  double step_;
  bool prepared_ = false;
  size_t consumed_rows_ = 0;
  NeededMatrix matrix_;  // relation order, unreachable rows too
  CellSortedLayout layout_;
};

}  // namespace acquire

#endif  // ACQUIRE_INDEX_CELL_SORTED_H_
