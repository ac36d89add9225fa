#include "index/cell_sorted.h"

#include <algorithm>
#include <atomic>
#include <numeric>

#include "common/failpoint.h"
#include "common/stopwatch.h"
#include "exec/eval_kernel.h"

namespace acquire {

namespace {

/// First-seen ids of the distinct grid cells of a row scan, keyed by flat
/// d-int32 runs: linear probing over a power-of-two slot table, each cell's
/// key stored by id, so grouping allocates nothing per cell.
class FirstSeenCells {
 public:
  explicit FirstSeenCells(size_t d) : d_(d) {}

  const int32_t* key(uint32_t id) const { return keys_.data() + id * d_; }

  /// Id of the cell `key`; a cell not seen before gets the next id.
  uint32_t Add(const int32_t* key) {
    if ((size_ + 1) * 2 > slots_.size()) Grow();
    const size_t mask = slots_.size() - 1;
    size_t i = static_cast<size_t>(HashGridCoordSpan(key, d_)) & mask;
    while (slots_[i] != 0) {
      const uint32_t id = slots_[i] - 1;
      if (std::equal(key, key + d_, this->key(id))) return id;
      i = (i + 1) & mask;
    }
    const uint32_t id = static_cast<uint32_t>(size_++);
    slots_[i] = id + 1;
    keys_.insert(keys_.end(), key, key + d_);
    return id;
  }

  /// The ids in lexicographic key order.
  std::vector<uint32_t> SortedIds() const {
    std::vector<uint32_t> order(size_);
    std::iota(order.begin(), order.end(), 0u);
    std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
      return std::lexicographical_compare(key(a), key(a) + d_, key(b),
                                          key(b) + d_);
    });
    return order;
  }

 private:
  void Grow() {
    slots_.assign(std::max<size_t>(1024, slots_.size() * 2), 0u);
    const size_t mask = slots_.size() - 1;
    for (size_t id = 0; id < size_; ++id) {
      size_t i = static_cast<size_t>(
                     HashGridCoordSpan(key(static_cast<uint32_t>(id)), d_)) &
                 mask;
      while (slots_[i] != 0) i = (i + 1) & mask;
      slots_[i] = static_cast<uint32_t>(id + 1);
    }
  }

  size_t d_;
  size_t size_ = 0;
  std::vector<uint32_t> slots_;  // id + 1; 0 = empty
  std::vector<int32_t> keys_;    // id-major, d levels per cell
};

}  // namespace

Status BuildCellSortedLayout(const NeededMatrix& raw, double step,
                             const AggregateOps& ops, CellSortedLayout* out) {
  if (step <= 0.0) {
    return Status::InvalidArgument("cell-sorted layout requires a positive "
                                   "step");
  }
  const size_t d = raw.dims;
  const FlatAggregate flat(ops);
  const size_t w = flat.width();

  // Key every row and fold it into its cell's state (by first-seen id) in
  // the same pass. Unreachable rows (needed == inf on some dimension) are
  // only counted: no PScoreRange admits infinity.
  FirstSeenCells cells(d);
  std::vector<double> states;
  std::vector<int32_t> coord(d);
  size_t unreachable = 0;
  for (size_t row = 0; row < raw.rows; ++row) {
    bool reachable = true;
    for (size_t i = 0; i < d; ++i) {
      const int64_t level = PScoreLevel(raw.dim(i)[row], step);
      if (level < 0) {
        reachable = false;
        break;
      }
      coord[i] = static_cast<int32_t>(level);
    }
    if (!reachable) {
      ++unreachable;
      continue;
    }
    const size_t id = cells.Add(coord.data());
    if (id * w == states.size()) {
      states.resize(states.size() + w);
      flat.Init(states.data() + id * w);
    }
    if (!flat.FoldRange(states.data() + id * w, &raw.agg_values[row], 1)) {
      return FlatAggregate::WidthError();
    }
  }

  // Sort the m distinct cells and permute their keys and states.
  const std::vector<uint32_t> order = cells.SortedIds();
  out->unreachable_rows = unreachable;
  out->state_width = w;
  out->cell_keys.resize(order.size() * d);
  out->cell_states.resize(order.size() * w);
  for (size_t s = 0; s < order.size(); ++s) {
    std::copy_n(cells.key(order[s]), d, out->cell_keys.data() + s * d);
    std::copy_n(states.data() + size_t{order[s]} * w, w,
                out->cell_states.data() + s * w);
  }
  return Status::OK();
}

CellSortedEvaluationLayer::CellSortedEvaluationLayer(const AcqTask* task,
                                                     double step,
                                                     ThreadPool* pool)
    : EvaluationLayer(task),
      step_(step),
      pool_(pool != nullptr ? pool : &ThreadPool::Shared()) {}

Status CellSortedEvaluationLayer::Prepare() {
  if (prepared_) return Status::OK();
  if (step_ <= 0.0) {
    return Status::InvalidArgument("cell-sorted layer requires a positive step");
  }
  Stopwatch prepare_sw;
  // Snapshot the row count first: rows appended between here and the first
  // evaluate call are picked up by the delta sync, never double-counted.
  const size_t relation_rows = task_->relation->num_rows();
  NeededMatrix matrix;
  ACQ_RETURN_IF_ERROR(
      BuildNeededMatrixRows(*task_, 0, relation_rows, pool_, &matrix));
  CellSortedLayout layout;
  ACQ_RETURN_IF_ERROR(
      BuildCellSortedLayout(matrix, step_, *task_->agg.ops, &layout));
  unreachable_rows_ = layout.unreachable_rows;
  matrix_ = std::move(matrix);
  cell_keys_ = std::move(layout.cell_keys);
  cell_states_ = std::move(layout.cell_states);
  consumed_rows_ = relation_rows;
  // Retained footprint: the matrix, the sorted keys and per-cell states.
  ChargeBudget((matrix_.needed.size() + matrix_.agg_values.size()) *
                   sizeof(double) +
               cell_keys_.size() * sizeof(int32_t) +
               cell_states_.size() * sizeof(double));
  prepare_ms_ += prepare_sw.ElapsedMillis();
  prepared_ = true;
  return Status::OK();
}

size_t CellSortedEvaluationLayer::delta_merge_threshold() const {
  if (delta_merge_threshold_ != 0) return delta_merge_threshold_;
  return std::max<size_t>(4096, matrix_.rows / 8);
}

Status CellSortedEvaluationLayer::StageNewRows() {
  const size_t relation_rows = task_->relation->num_rows();
  if (relation_rows <= consumed_rows_) return Status::OK();
  Stopwatch stage_sw;
  const size_t d = task_->d();
  const size_t staged_before = delta_order_.size();
  // The appended rows' needed values are bit-identical to the rows a full
  // rebuild would compute (BuildNeededMatrixRows re-runs PrecomputeNeeded,
  // so value-memoizing dimensions see the new rows too).
  NeededMatrix fresh;
  ACQ_RETURN_IF_ERROR(BuildNeededMatrixRows(*task_, consumed_rows_,
                                            relation_rows, /*pool=*/nullptr,
                                            &fresh));
  for (size_t row = 0; row < fresh.rows; ++row) {
    const uint32_t r = static_cast<uint32_t>(delta_agg_.size());
    bool reachable = true;
    for (size_t i = 0; i < d; ++i) {
      const int64_t level = PScoreLevel(fresh.dim(i)[row], step_);
      reachable &= level >= 0;
      delta_coords_.push_back(static_cast<int32_t>(level));
      delta_needed_.push_back(fresh.dim(i)[row]);
    }
    delta_agg_.push_back(fresh.agg_values[row]);
    if (reachable) {
      delta_order_.push_back(r);
    } else {
      ++unreachable_rows_;
    }
  }
  const size_t appended = delta_order_.size() - staged_before;
  consumed_rows_ = relation_rows;

  // Extend the sorted order: stable-sort only the new rows, then merge them
  // after the already-sorted ones. Both steps are stable, and inplace_merge
  // puts the earlier range first among equal keys, so rows of one cell stay
  // in append order — the same permutation a stable sort of the whole buffer
  // gives, which is what makes the per-cell fold continuation identical to a
  // rebuild.
  auto key_less = [&](uint32_t a, uint32_t b) {
    const int32_t* ka = delta_coords_.data() + a * d;
    const int32_t* kb = delta_coords_.data() + b * d;
    return std::lexicographical_compare(ka, ka + d, kb, kb + d);
  };
  const auto fresh_begin = delta_order_.begin() + staged_before;
  std::stable_sort(fresh_begin, delta_order_.end(), key_less);
  std::inplace_merge(delta_order_.begin(), fresh_begin, delta_order_.end(),
                     key_less);
  const size_t k = delta_order_.size();
  delta_cell_keys_.clear();
  delta_offsets_.assign(1, 0);
  const int32_t* prev = nullptr;
  for (size_t r = 0; r < k; ++r) {
    const int32_t* key = delta_coords_.data() + delta_order_[r] * d;
    if (prev == nullptr || !std::equal(key, key + d, prev)) {
      delta_cell_keys_.insert(delta_cell_keys_.end(), key, key + d);
      if (r > 0) delta_offsets_.push_back(static_cast<uint32_t>(r));
    }
    prev = key;
  }
  delta_offsets_.push_back(static_cast<uint32_t>(k));
  delta_rows_ += appended;
  ChargeBudget(fresh.rows * ((d + 1) * sizeof(double) + d * sizeof(int32_t)) +
               appended * sizeof(uint32_t));
  prepare_ms_ += stage_sw.ElapsedMillis();
  return Status::OK();
}

Status CellSortedEvaluationLayer::SyncDeltas() {
  ACQ_RETURN_IF_ERROR(StageNewRows());
  if (staged_delta_rows() >= delta_merge_threshold()) {
    return AbsorbStagedDeltas();
  }
  return Status::OK();
}

Status CellSortedEvaluationLayer::MergeDeltas() {
  if (!prepared_) return Prepare();
  ACQ_RETURN_IF_ERROR(StageNewRows());
  return AbsorbStagedDeltas();
}

void CellSortedEvaluationLayer::ClearDeltaBuffer() {
  delta_coords_.clear();
  delta_needed_.clear();
  delta_agg_.clear();
  delta_order_.clear();
  delta_cell_keys_.clear();
  delta_offsets_.clear();
}

Status CellSortedEvaluationLayer::AbsorbStagedDeltas() {
  const size_t k = delta_agg_.size();
  if (k == 0) return Status::OK();
  ++delta_merges_;
  if (ACQ_FAILPOINT("index.delta_merge")) {
    // Result-preserving fault: fall back to the full rebuild the
    // incremental merge exists to avoid. The layout is canonical, so the
    // rebuild produces the exact bytes the merge would have.
    prepared_ = false;
    unreachable_rows_ = 0;
    consumed_rows_ = 0;
    matrix_ = NeededMatrix{};
    cell_keys_.clear();
    cell_states_.clear();
    ClearDeltaBuffer();
    return Prepare();
  }
  Stopwatch merge_sw;
  const size_t d = task_->d();
  const size_t m = num_cells();
  const size_t dm = delta_num_cells();
  const FlatAggregate flat(*task_->agg.ops);
  const size_t w = flat.width();

  // Keys and states: a two-pointer merge of the main and staged cells. A
  // staged cell continues its base state (or the identity) with its rows'
  // Adds in append order — the rebuild's exact fold order.
  std::vector<int32_t> keys;
  keys.reserve((m + dm) * d);
  std::vector<double> states;
  states.reserve((m + dm) * w);
  bool width_ok = true;
  size_t s = 0;
  size_t t = 0;
  while (s < m || t < dm) {
    int cmp;
    if (s == m) {
      cmp = 1;
    } else if (t == dm) {
      cmp = -1;
    } else {
      const int32_t* ka = cell_keys_.data() + s * d;
      const int32_t* kb = delta_cell_keys_.data() + t * d;
      cmp = std::lexicographical_compare(ka, ka + d, kb, kb + d)    ? -1
            : std::lexicographical_compare(kb, kb + d, ka, ka + d) ? 1
                                                                   : 0;
    }
    if (cmp <= 0) {
      keys.insert(keys.end(), cell_keys_.begin() + s * d,
                  cell_keys_.begin() + (s + 1) * d);
      states.insert(states.end(), cell_states_.begin() + s * w,
                    cell_states_.begin() + (s + 1) * w);
      ++s;
    } else {
      keys.insert(keys.end(), delta_cell_keys_.begin() + t * d,
                  delta_cell_keys_.begin() + (t + 1) * d);
      states.resize(states.size() + w);
      flat.Init(states.data() + states.size() - w);
    }
    if (cmp >= 0) {
      width_ok &=
          FoldDeltaCellAt(flat, t++, states.data() + states.size() - w);
    }
  }
  if (!width_ok) return FlatAggregate::WidthError();

  // The matrix: every staged row, unreachable ones too, appended after the
  // absorbed rows in relation order.
  NeededMatrix grown;
  grown.rows = matrix_.rows + k;
  grown.dims = d;
  grown.needed.resize(grown.rows * d);
  grown.agg_values.resize(grown.rows);
  for (size_t i = 0; i < d; ++i) {
    double* col = grown.mutable_dim(i);
    std::copy_n(matrix_.dim(i), matrix_.rows, col);
    for (size_t r = 0; r < k; ++r) {
      col[matrix_.rows + r] = delta_needed_[r * d + i];
    }
  }
  std::copy(matrix_.agg_values.begin(), matrix_.agg_values.end(),
            grown.agg_values.begin());
  std::copy(delta_agg_.begin(), delta_agg_.end(),
            grown.agg_values.begin() + matrix_.rows);

  matrix_ = std::move(grown);
  cell_keys_ = std::move(keys);
  cell_states_ = std::move(states);
  ClearDeltaBuffer();
  // The staged rows were charged at staging time; only the keys and states
  // of brand-new cells are charged here.
  const size_t new_cells = num_cells();
  if (new_cells > m) {
    ChargeBudget((new_cells - m) * (d * sizeof(int32_t) + w * sizeof(double)));
  }
  prepare_ms_ += merge_sw.ElapsedMillis();
  return Status::OK();
}

size_t CellSortedEvaluationLayer::LowerBoundCell(const int32_t* key) const {
  const size_t d = task_->d();
  size_t lo = 0;
  size_t hi = num_cells();
  while (lo < hi) {
    const size_t mid = (lo + hi) / 2;
    const int32_t* cell = cell_keys_.data() + mid * d;
    if (std::lexicographical_compare(cell, cell + d, key, key + d)) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

size_t CellSortedEvaluationLayer::LowerBoundDeltaCell(
    const int32_t* key) const {
  const size_t d = task_->d();
  size_t lo = 0;
  size_t hi = delta_num_cells();
  while (lo < hi) {
    const size_t mid = (lo + hi) / 2;
    const int32_t* cell = delta_cell_keys_.data() + mid * d;
    if (std::lexicographical_compare(cell, cell + d, key, key + d)) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

bool CellSortedEvaluationLayer::FoldDeltaCellAt(const FlatAggregate& flat,
                                                size_t t,
                                                double* state) const {
  const uint32_t begin = delta_offsets_[t];
  return flat.Fold(state, delta_offsets_[t + 1] - begin,
                   [&](size_t k) { return delta_agg_[delta_order_[begin + k]]; });
}

bool CellSortedEvaluationLayer::FoldDeltaCell(const FlatAggregate& flat,
                                              const int32_t* key,
                                              double* state) const {
  const size_t dm = delta_num_cells();
  if (dm == 0) return true;
  const size_t d = task_->d();
  const size_t t = LowerBoundDeltaCell(key);
  if (t < dm &&
      std::equal(key, key + d, delta_cell_keys_.data() + t * d)) {
    return FoldDeltaCellAt(flat, t, state);
  }
  return true;
}

bool CellSortedEvaluationLayer::CellStateAt(const FlatAggregate& flat,
                                            size_t s, const int32_t* key,
                                            double* state) const {
  const size_t d = task_->d();
  const size_t w = flat.width();
  if (s < num_cells() &&
      std::equal(key, key + d, cell_keys_.data() + s * d)) {
    std::copy_n(cell_states_.data() + s * w, w, state);
  } else {
    flat.Init(state);
  }
  return FoldDeltaCell(flat, key, state);
}

size_t CellSortedEvaluationLayer::GallopLowerBound(size_t from,
                                                   const int32_t* key) const {
  const size_t d = task_->d();
  const size_t m = num_cells();
  auto less = [&](size_t s) {
    const int32_t* cell = cell_keys_.data() + s * d;
    return std::lexicographical_compare(cell, cell + d, key, key + d);
  };
  if (from >= m || !less(from)) return from;
  // Exponential probe: bracket the answer in (from + step/2, from + step].
  size_t step = 1;
  size_t lo = from;
  while (from + step < m && less(from + step)) {
    lo = from + step;
    step *= 2;
  }
  size_t hi = std::min(from + step, m);
  ++lo;  // cells at or before `lo` all compare less
  while (lo < hi) {
    const size_t mid = (lo + hi) / 2;
    if (less(mid)) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

Status CellSortedEvaluationLayer::EvaluateCellKeys(
    const int32_t* keys, size_t count, double step,
    std::vector<double>* states) {
  if (!prepared_) ACQ_RETURN_IF_ERROR(Prepare());
  ACQ_RETURN_IF_ERROR(SyncDeltas());
  // A foreign step means the requested cells are not this layout's cells;
  // the generic path decomposes them into box queries as usual. The
  // failpoint injects the same (bit-identical) fallback on native batches.
  if (step != step_ || ACQ_FAILPOINT("index.batch_eval")) {
    ACQ_ASSIGN_OR_RETURN(std::vector<AggregateOps::State> boxed,
                         EvaluateCellsAsBoxes(keys, count, step));
    return FlattenStates(boxed, states);
  }
  const size_t d = task_->d();
  const FlatAggregate flat(*task_->agg.ops);
  const size_t w = flat.width();
  states->resize(count * w);
  if (count == 0) return Status::OK();
  stats_.queries.fetch_add(count, std::memory_order_relaxed);
  stats_.tuples_scanned.fetch_add(count, std::memory_order_relaxed);

  // Answer the whole batch in merged sweeps: visit the requests in sorted
  // key order, advancing a cursor over the sorted CSR keys with galloping
  // lower bounds (never rewinding, never restarting the binary search from
  // the top). Large batches split into deterministic contiguous chunks of
  // the sorted order across the pool — each chunk sweeps independently with
  // its own cursor, and every answer is a copy of the per-cell fold from
  // Prepare() (continued with the cell's staged delta rows in append order,
  // exactly as a rebuild would fold them), so the result is bit-identical
  // to a single sweep over a freshly rebuilt layout.
  auto key_of = [&](uint32_t q) { return keys + size_t{q} * d; };
  auto key_less = [&](uint32_t a, uint32_t b) {
    return std::lexicographical_compare(key_of(a), key_of(a) + d, key_of(b),
                                        key_of(b) + d);
  };
  std::vector<uint32_t> req(count);
  std::iota(req.begin(), req.end(), 0u);
  // BFS layers arrive in descending key order (canonical-predecessor
  // enumeration), so detect the two already-sorted cases in O(count * d)
  // before paying for a comparison sort.
  bool ascending = true;
  bool descending = true;
  for (uint32_t q = 1; q < count && (ascending || descending); ++q) {
    if (key_less(q - 1, q)) {
      descending = false;
    } else if (key_less(q, q - 1)) {
      ascending = false;
    }
  }
  if (descending && !ascending) {
    std::reverse(req.begin(), req.end());
  } else if (!ascending) {
    std::sort(req.begin(), req.end(), key_less);
  }
  double* out = states->data();
  std::atomic<bool> width_error{false};
  auto sweep = [&](size_t, size_t begin, size_t end) {
    if (begin >= end) return;
    // Seed this worker's cursor at its own slice of the key array with one
    // binary search, instead of galloping across the whole prefix that
    // earlier chunks own.
    size_t cursor = begin == 0 ? 0 : LowerBoundCell(key_of(req[begin]));
    const int32_t* prev_key = nullptr;
    uint32_t prev_qi = 0;
    for (size_t r = begin; r < end; ++r) {
      const uint32_t qi = req[r];
      const int32_t* key = key_of(qi);
      double* state = out + size_t{qi} * w;
      if (prev_key != nullptr && std::equal(key, key + d, prev_key)) {
        // Duplicate request: reuse the previous answer.
        std::copy_n(out + size_t{prev_qi} * w, w, state);
      } else {
        cursor = GallopLowerBound(cursor, key);
        if (!CellStateAt(flat, cursor, key, state)) {
          width_error.store(true, std::memory_order_relaxed);
        }
        prev_key = key;
      }
      prev_qi = qi;
    }
  };
  // A single-worker pool would still split the sweep in two and pay the
  // queue hand-off for no concurrency; one full sweep is strictly cheaper.
  if (pool_->num_threads() > 1) {
    pool_->ParallelFor(count, /*min_chunk=*/128, sweep);
  } else {
    sweep(0, 0, count);
  }
  if (width_error.load(std::memory_order_relaxed)) {
    return FlatAggregate::WidthError();
  }
  return Status::OK();
}

Result<std::vector<AggregateOps::State>>
CellSortedEvaluationLayer::EvaluateCells(const GridCoord* coords, size_t count,
                                         double step) {
  std::vector<int32_t> keys;
  ACQ_RETURN_IF_ERROR(FlattenCoords(coords, count, &keys));
  std::vector<double> flat_states;
  ACQ_RETURN_IF_ERROR(EvaluateCellKeys(keys.data(), count, step, &flat_states));
  const size_t w = FlatAggregate(*task_->agg.ops).width();
  std::vector<AggregateOps::State> states(count);
  for (size_t q = 0; q < count; ++q) {
    states[q].assign(flat_states.begin() + q * w,
                     flat_states.begin() + (q + 1) * w);
  }
  return states;
}

bool CellSortedEvaluationLayer::IsCellAligned(
    const std::vector<PScoreRange>& box, GridCoord* coord) const {
  std::vector<int64_t> lo, hi;
  if (!AlignedLevelBounds(box, step_, &lo, &hi)) return false;
  coord->resize(box.size());
  for (size_t i = 0; i < box.size(); ++i) {
    if (lo[i] != hi[i]) return false;
    (*coord)[i] = static_cast<int32_t>(hi[i]);
  }
  return true;
}

Result<AggregateOps::State> CellSortedEvaluationLayer::EvaluateBox(
    const std::vector<PScoreRange>& box) {
  if (!prepared_) ACQ_RETURN_IF_ERROR(Prepare());
  ACQ_RETURN_IF_ERROR(SyncDeltas());
  ACQ_RETURN_IF_ERROR(CheckBox(box));
  stats_.queries.fetch_add(1, std::memory_order_relaxed);
  const AggregateOps& ops = *task_->agg.ops;
  const FlatAggregate flat(ops);
  const size_t w = flat.width();
  const size_t d = task_->d();
  const size_t m = num_cells();

  std::vector<int64_t> lo_level, hi_level;
  if (AlignedLevelBounds(box, step_, &lo_level, &hi_level)) {
    // Clamp to int32 key space (coordinates were stored as int32).
    std::vector<int32_t> lo32(d), hi32(d);
    bool single_cell = true;
    for (size_t i = 0; i < d; ++i) {
      lo32[i] = static_cast<int32_t>(
          std::min<int64_t>(lo_level[i], INT32_MAX));
      hi32[i] = static_cast<int32_t>(
          std::min<int64_t>(hi_level[i], INT32_MAX));
      single_cell &= lo_level[i] == hi_level[i];
    }
    if (single_cell) {
      // One binary search; the payload fold happened once in Prepare().
      stats_.tuples_scanned.fetch_add(1, std::memory_order_relaxed);
      AggregateOps::State state(w);
      if (!CellStateAt(flat, LowerBoundCell(lo32.data()), lo32.data(),
                       state.data())) {
        return FlatAggregate::WidthError();
      }
      return state;
    }
    // Aligned box: only the sorted key range whose leading coordinate lies
    // in [lo, hi] can intersect the box; walk it, filtering the remaining
    // dimensions and merging per-cell states in key order (deterministic).
    // With staged deltas the walk is a two-cursor merge over the main and
    // delta key arrays — the union in sorted order is exactly the rebuilt
    // layout's key order, and each cell's effective state (base fold
    // continued with its delta rows) is exactly the rebuilt cell state, so
    // the merge sequence matches a rebuild bit for bit.
    std::vector<int32_t> first(d, 0);
    first[0] = lo32[0];  // smallest possible key in range
    AggregateOps::State state(w);
    flat.Init(state.data());
    AggregateOps::State cell_state(w);  // a cell continued with its deltas
    bool width_ok = true;
    uint64_t cells_walked = 0;
    const size_t dm = delta_num_cells();
    size_t s = LowerBoundCell(first.data());
    size_t t = dm == 0 ? 0 : LowerBoundDeltaCell(first.data());
    auto inside_box = [&](const int32_t* cell) {
      bool inside = cell[0] >= lo32[0];
      for (size_t i = 1; inside && i < d; ++i) {
        inside = cell[i] >= lo32[i] && cell[i] <= hi32[i];
      }
      return inside;
    };
    while (s < m || t < dm) {
      int cmp;
      if (s == m) {
        cmp = 1;
      } else if (t == dm) {
        cmp = -1;
      } else {
        const int32_t* ka = cell_keys_.data() + s * d;
        const int32_t* kb = delta_cell_keys_.data() + t * d;
        cmp = std::lexicographical_compare(ka, ka + d, kb, kb + d)    ? -1
              : std::lexicographical_compare(kb, kb + d, ka, ka + d) ? 1
                                                                     : 0;
      }
      const int32_t* cell = cmp <= 0 ? cell_keys_.data() + s * d
                                     : delta_cell_keys_.data() + t * d;
      if (cell[0] > hi32[0]) break;
      ++cells_walked;
      if (inside_box(cell)) {
        if (cmp < 0) {
          width_ok &= flat.Merge(state.data(), cell_states_.data() + s * w);
        } else {
          if (cmp == 0) {
            std::copy_n(cell_states_.data() + s * w, w, cell_state.data());
          } else {
            flat.Init(cell_state.data());
          }
          width_ok &= FoldDeltaCellAt(flat, t, cell_state.data());
          width_ok &= flat.Merge(state.data(), cell_state.data());
        }
      }
      if (cmp <= 0) ++s;
      if (cmp >= 0) ++t;
    }
    stats_.tuples_scanned.fetch_add(cells_walked, std::memory_order_relaxed);
    if (!width_ok) return FlatAggregate::WidthError();
    return state;
  }

  // Off-grid box: the kernel scan over the relation-order matrix, the call
  // CachedEvaluationLayer makes, so both answer bit for bit alike. Staged
  // rows are absorbed first so the matrix holds every consumed row.
  if (!delta_agg_.empty()) {
    ACQ_RETURN_IF_ERROR(AbsorbStagedDeltas());
  }
  stats_.tuples_scanned.fetch_add(matrix_.rows, std::memory_order_relaxed);
  return ScanBoxOverMatrix(ops, matrix_, box);
}

}  // namespace acquire
