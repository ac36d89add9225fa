#ifndef ACQUIRE_EXEC_EVALUATION_H_
#define ACQUIRE_EXEC_EVALUATION_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "common/memory_budget.h"
#include "common/result.h"
#include "exec/acq_task.h"

namespace acquire {

/// Grid coordinate in the refined space (one refinement level per
/// dimension; Section 4's grid queries).
using GridCoord = std::vector<int32_t>;

/// Hash of a grid coordinate stored as `d` contiguous int32 levels.
/// Multiply-xor per lane plus a final avalanche. Plain FNV-1a (the previous
/// hash) leaves the high bits almost untouched for the small dense levels
/// the expand phase actually produces (0..k on every axis), so
/// power-of-two tables saw clustered buckets and long probe chains; the
/// final mix spreads every input bit across the whole word.
inline uint64_t HashGridCoordSpan(const int32_t* v, size_t d) {
  uint64_t h = 0x9E3779B97F4A7C15ULL ^ static_cast<uint64_t>(d);
  for (size_t i = 0; i < d; ++i) {
    h = (h ^ static_cast<uint32_t>(v[i])) * 0x9DDFEA08EB382D69ULL;
    h ^= h >> 29;
  }
  h *= 0xC4CEB9FE1A85EC53ULL;
  h ^= h >> 32;
  return h;
}

struct GridCoordHash {
  size_t operator()(const GridCoord& c) const {
    return static_cast<size_t>(HashGridCoordSpan(c.data(), c.size()));
  }
};

/// Half-open-below PScore range on one dimension: admits tuples whose
/// needed PScore lies in (lo, hi]. lo < 0 means "from 0 inclusive", so
/// {-1, p} is the full refined predicate at PScore p and
/// {(u-1)*s, u*s} is grid cell u at step s.
struct PScoreRange {
  double lo = -1.0;
  double hi = 0.0;

  bool Admits(double needed) const { return needed > lo && needed <= hi; }
};

/// The shared needed-PScore materialization every prepared evaluation layer
/// sits on: a dimension-major (structure-of-arrays) tuple x dimension
/// matrix plus the per-row aggregate input. Dimension-major because every
/// box-query kernel walks one dimension across all rows at a time, so each
/// dimension is one contiguous stream, held in its own vector so appended
/// rows extend every stream in amortized O(rows). Built by
/// BuildNeededMatrix (exec/eval_kernel.h), filled on the shared pool.
struct NeededMatrix {
  size_t rows = 0;
  size_t dims = 0;
  std::vector<std::vector<double>> needed;  // dims streams of rows each
  std::vector<double> agg_values;           // rows

  /// Sizes the matrix to `r` rows of `d` dimensions.
  void Resize(size_t r, size_t d) {
    rows = r;
    dims = d;
    needed.resize(d);
    for (std::vector<double>& stream : needed) stream.resize(r);
    agg_values.resize(r);
  }

  /// Appends `tail`'s rows (same dims) after this matrix's, in order.
  void Append(const NeededMatrix& tail) {
    for (size_t i = 0; i < dims; ++i) {
      needed[i].insert(needed[i].end(), tail.needed[i].begin(),
                       tail.needed[i].end());
    }
    agg_values.insert(agg_values.end(), tail.agg_values.begin(),
                      tail.agg_values.end());
    rows += tail.rows;
  }

  /// The bytes held: rows x (dims + 1) doubles.
  uint64_t bytes() const { return rows * (dims + 1) * sizeof(double); }

  const double* dim(size_t i) const { return needed[i].data(); }
  double* mutable_dim(size_t i) { return needed[i].data(); }
};

/// The paper's modular evaluation layer (Section 3): the component that
/// actually executes (sub-)queries against the data. ACQUIRE, the baselines
/// and the repartitioner all talk to it through box queries in PScore space.
///
/// Implementations (see exec/backend.h for driver-level selection):
///  * DirectEvaluationLayer — recomputes per-tuple refinement distances on
///    every call; each call models one SQL execution in the paper's
///    Postgres back end (cost: one full scan of the base relation).
///  * CellSortedEvaluationLayer (index/cell_sorted.h) — Section 7.4's grid
///    index: rows grouped into grid cells in one pass, so a cell query is
///    one binary search over sorted keys plus a precomputed per-cell state,
///    an aligned box merges per-cell states in sorted key order, and an
///    off-grid box runs the direct layer's selection kernel over a
///    relation-order needed matrix built once.
///
/// Every layer answers on the calling thread, one call at a time: a cell
/// query on a prepared index is a copy of a stored state, so there is
/// nothing to spread. Only Prepare's needed-matrix fill runs on the pool.
class EvaluationLayer {
 public:
  struct ExecStats {
    uint64_t queries = 0;         // box queries executed
    uint64_t tuples_scanned = 0;  // tuples touched while answering them

    /// Per-phase driver timings, filled by RunAcquire / RunAcquireContract
    /// (never by the layer itself): generator time, cell/box execution
    /// time, and the per-coordinate drain (Eq. 17 merges plus the search's
    /// bookkeeping). The phases run one after another on the run thread.
    double expand_ms = 0.0;
    double explore_ms = 0.0;
    double merge_ms = 0.0;

    /// Index build cost, filled by the layer itself: wall time spent
    /// building the index and folding appended rows into it (0 for layers
    /// with a no-op Prepare), the reachable appended rows folded in, and
    /// how many syncs folded appended rows in (index/cell_sorted). All three
    /// count work done since the layer was built or last Rebind()-ed, so a
    /// reused layer reports only its current run's work. Survives
    /// ResetStats — Prepare happens before RunAcquire resets the per-run
    /// query counters.
    double prepare_ms = 0.0;
    uint64_t delta_rows = 0;
    uint64_t delta_merges = 0;
  };

  explicit EvaluationLayer(const AcqTask* task) : task_(task) {}
  virtual ~EvaluationLayer() = default;

  EvaluationLayer(const EvaluationLayer&) = delete;
  EvaluationLayer& operator=(const EvaluationLayer&) = delete;

  /// One-time setup (no-op for the direct layer).
  virtual Status Prepare() { return Status::OK(); }

  /// Aggregate state over tuples whose needed-PScore vector lies in `box`
  /// (one range per dimension, task->d() entries).
  virtual Result<AggregateOps::State> EvaluateBox(
      const std::vector<PScoreRange>& box) = 0;

  /// Batch cell-query API for the Explore phase: the aggregate states of
  /// `count` grid cells at grid step `step`, where cell `u` covers
  /// ((u_i - 1) * step, u_i * step] on every dimension (CellRangeForLevel;
  /// identical to RefinedSpace::CellBox). Results are in input order and
  /// bit-identical to calling EvaluateBox on each cell box, which is what
  /// the base implementation does; indexed backends override it to answer
  /// the whole batch natively (CellSortedEvaluationLayer sweeps its sorted
  /// key array once).
  virtual Result<std::vector<AggregateOps::State>> EvaluateCells(
      const GridCoord* coords, size_t count, double step);

  /// Flat batch cell-query API, the one the Explore phase drives: `keys`
  /// holds `count` cells as d-strided int32 levels, and `states` is resized
  /// to count * w doubles (w = ops.Init().size()), cell q's state at q * w.
  /// Answers are those of EvaluateCells. The base implementation adapts
  /// through the virtual EvaluateCells — so a wrapper that overrides only
  /// that still sees every batch — and raises Internal when a state's width
  /// differs from ops.Init()'s. CellSortedEvaluationLayer answers natively
  /// from its flat per-cell states.
  virtual Status EvaluateCellKeys(const int32_t* keys, size_t count,
                                  double step, std::vector<double>* states);

  /// Evaluates independent box queries one EvaluateBox call after another,
  /// results in input order (contraction walks and non-incremental runs
  /// evaluate a whole layer this way before they visit it).
  Result<std::vector<AggregateOps::State>> EvaluateBoxes(
      const std::vector<std::vector<PScoreRange>>& boxes);

  /// Always false, and nothing in the engine asks: every layer answers on
  /// the calling thread. Declared only because perfbench/trace.h's
  /// TimedLayer overrides it; it goes when that wrapper does.
  virtual bool SupportsConcurrentEvaluate() const { return false; }

  /// Full refined query at per-dimension PScores `pscores`: box
  /// (-inf, pscores_i]. Returns the *final* aggregate value.
  Result<double> EvaluateQueryValue(const std::vector<double>& pscores);

  /// Attaches the memory budget this layer's materializations and per-call
  /// scratch are charged against (nullptr detaches). Charges accumulated
  /// while no budget was attached — e.g. a lazy Prepare() triggered by the
  /// processor's origin evaluation before the driver resolved the run's
  /// budget — are flushed to the new budget immediately, so the prepared
  /// footprint is never lost to attachment order.
  void set_memory_budget(MemoryBudget* budget) {
    budget_ = budget;
    if (budget_ != nullptr && pending_budget_bytes_ > 0) {
      budget_->Charge(pending_budget_bytes_);
      pending_budget_bytes_ = 0;
    }
  }

  const AcqTask& task() const { return *task_; }
  ExecStats stats() const { return stats_; }
  void ResetStats() {
    stats_.queries = 0;
    stats_.tuples_scanned = 0;
  }

  /// Re-points this layer at `task` for another run (prepared-layer reuse,
  /// DESIGN.md §6). `task` must lay its rows out exactly as the current task
  /// does — same relation object, dimensions with identical NeededPScore
  /// constants, aggregate and grid step (an equal LayoutKey,
  /// core/fingerprint.h) — and must outlive the layer's use. Zeroes every
  /// counter ExecStats reports, build tallies included, so the new run sees
  /// only its own work. The memory budget stays as attached; callers detach
  /// the finished run's budget with set_memory_budget(nullptr).
  void Rebind(const AcqTask* task) {
    task_ = task;
    stats_ = ExecStats{};
  }

 protected:
  /// Shared argument check for EvaluateBox implementations.
  Status CheckBox(const std::vector<PScoreRange>& box) const;

  /// Copies `count` coordinates into d-strided `keys`; InvalidArgument when
  /// one has the wrong dimensionality.
  Status FlattenCoords(const GridCoord* coords, size_t count,
                       std::vector<int32_t>* keys) const;

  /// The generic cell path: every cell's box through EvaluateBoxes.
  Result<std::vector<AggregateOps::State>> EvaluateCellsAsBoxes(
      const int32_t* keys, size_t count, double step);

  /// Copies per-cell states into the flat `out`; Internal when one's width
  /// differs from ops.Init()'s.
  Status FlattenStates(const std::vector<AggregateOps::State>& states,
                       std::vector<double>* out) const;

  /// Tallies `bytes` of layer-owned memory (prepared materializations,
  /// selection scratch) against the attached budget, or defers the charge
  /// until set_memory_budget attaches one. Never fails: exhaustion latches
  /// in the budget and the driver stops at its next poll.
  void ChargeBudget(uint64_t bytes) {
    if (bytes == 0) return;
    if (budget_ != nullptr) {
      budget_->Charge(bytes);
    } else {
      pending_budget_bytes_ += bytes;
    }
  }

  const AcqTask* task_;
  /// The layer's own counters: queries, tuples_scanned and the build
  /// tallies (the driver's phase timings stay 0 here).
  ExecStats stats_;
  MemoryBudget* budget_ = nullptr;
  uint64_t pending_budget_bytes_ = 0;
};

/// Scan-per-call layer; see EvaluationLayer docs.
class DirectEvaluationLayer final : public EvaluationLayer {
 public:
  explicit DirectEvaluationLayer(const AcqTask* task)
      : EvaluationLayer(task) {}

  Result<AggregateOps::State> EvaluateBox(
      const std::vector<PScoreRange>& box) override;

 private:
  bool scratch_charged_ = false;  // per-call vectors, charged once
};

/// Computes the needed-PScore vector of `row` under `task` (helper shared
/// by evaluation layers, baselines and tests).
void ComputeNeeded(const AcqTask& task, size_t row, std::vector<double>* out);

/// Grid level of a needed PScore at step `step` (> 0): level 0 admits
/// exactly the tuples the original predicate admits (needed <= 0); level
/// u > 0 covers needed in ((u-1)*step, u*step], so u = ceil(needed / step),
/// saturated to 2^62 for quotients at or above it. Returns -1 for
/// unreachable tuples: needed infinite or NaN, which no PScoreRange admits.
/// Inline and without a libm call: every layout build calls it d times per
/// row.
inline int64_t PScoreLevel(double needed, double step) {
  constexpr int64_t kSaturated = int64_t{1} << 62;
  if (!(std::fabs(needed) < std::numeric_limits<double>::infinity())) {
    return -1;
  }
  // Clamping needed <= 0 to 0 (level 0) instead of branching on it keeps
  // the common mix of zero and positive values free of mispredictions.
  const double q = std::max(needed, 0.0) / step;
  if (!(q < static_cast<double>(kSaturated))) return kSaturated;
  // ceil(q) for 0 <= q < 2^62: truncation is exact in range, and rounds up
  // when it dropped a fraction.
  const int64_t level = static_cast<int64_t>(q);
  return level + (static_cast<double>(level) < q ? 1 : 0);
}

/// The cell box of grid level `level` at step `step` on one dimension
/// (the inverse of PScoreLevel).
PScoreRange CellRangeForLevel(int64_t level, double step);

/// If `v` is (approximately) a non-negative integer multiple of `step`,
/// returns that multiple; otherwise -1.
int64_t AlignedGridMultiple(double v, double step);

/// Decomposes `box` into inclusive grid-level bounds per dimension when
/// every boundary is aligned to the `step` grid: dimension i covers levels
/// lo[i]..hi[i]. Returns false (outputs unspecified) when any boundary is
/// off-grid. A box that is exactly one cell yields lo == hi.
bool AlignedLevelBounds(const std::vector<PScoreRange>& box, double step,
                        std::vector<int64_t>* lo, std::vector<int64_t>* hi);

}  // namespace acquire

#endif  // ACQUIRE_EXEC_EVALUATION_H_
