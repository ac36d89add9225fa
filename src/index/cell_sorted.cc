#include "index/cell_sorted.h"

#include <algorithm>
#include <limits>
#include <numeric>

#include "common/failpoint.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
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

/// Index of the first of the `count` d-int32 keys at `keys` (sorted) that
/// is lexicographically >= `key`; `count` when none.
size_t LowerBoundKey(const int32_t* keys, size_t d, size_t count,
                     const int32_t* key) {
  size_t lo = 0;
  size_t hi = count;
  while (lo < hi) {
    const size_t mid = (lo + hi) / 2;
    const int32_t* cell = keys + mid * d;
    if (std::lexicographical_compare(cell, cell + d, key, key + d)) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

/// A reachable row's level must fit its int32 key slot.
Status LevelOverflow(size_t dim, double step) {
  return Status::InvalidArgument(StringFormat(
      "grid level on dimension %zu exceeds the int32 key range at step %g "
      "(gamma too small for the domain)",
      dim, step));
}

/// The dense id of a row no cell holds (needed == inf or NaN on some
/// dimension). Dense ids of reachable rows stay below 2^31.
constexpr uint32_t kUnreachableId = std::numeric_limits<uint32_t>::max();

/// Keys every row of a fresh build by its mixed-radix cell id, one dimension
/// stream at a time, least significant first: the pass over dimension i adds
/// level_i * (radix_{i+1} * ... * radix_{d-1}) to each row's id (Horner's
/// rule expanded) and takes the stream's top level in the same read, so
/// radix_i, one more than that level, is known when the pass ends
/// (PScoreLevel is monotone, so no row's level exceeds it). Dimension 0 is
/// most significant, so id order is lexicographic key order. A row
/// unreachable on any dimension is set to kUnreachableId, which later passes
/// keep. Returns the ids' span P, the product of the radixes, or 0 as soon
/// as that product passes `limit`: a pass whose 32-bit arithmetic wrapped
/// always does, so a wrapped id is never used.
uint64_t DenseCellIds(const NeededMatrix& raw, double step, uint64_t limit,
                      std::vector<uint32_t>* ids,
                      std::vector<uint32_t>* radix) {
  ids->assign(raw.rows, 0);
  radix->resize(raw.dims);
  uint32_t* id = ids->data();
  uint64_t span = 1;
  for (size_t i = raw.dims; i-- > 0;) {
    const double* needed = raw.dim(i);
    const uint32_t weight = static_cast<uint32_t>(span);
    int64_t top = 0;
    for (size_t row = 0; row < raw.rows; ++row) {
      const int64_t level = PScoreLevel(needed[row], step);
      top = std::max(top, level);
      const uint32_t keyed = id[row] + static_cast<uint32_t>(level) * weight;
      id[row] = (level < 0) | (id[row] == kUnreachableId) ? kUnreachableId
                                                          : keyed;
    }
    const uint64_t levels = static_cast<uint64_t>(top) + 1;
    if (levels > limit / span) return 0;
    span *= levels;
    (*radix)[i] = static_cast<uint32_t>(levels);
  }
  return span;
}

/// A fresh build whose cell ids span at most twice the rows: marks every
/// row's id in a table of span + 1 slots (an unreachable row marks the sink
/// slot at `span`, so marking takes no branch), numbers the marked ids in
/// ascending order (the cells, already sorted; each key decoded from its id)
/// and folds every reachable row in relation order into its cell's state.
/// Both temporaries are sized by the slice: the caller's 4n bytes of ids and
/// a table of at most 8n + 4 bytes.
Status GroupByDenseId(const NeededMatrix& raw,
                      const std::vector<uint32_t>& ids,
                      const std::vector<uint32_t>& radix, size_t span,
                      const FlatAggregate& flat, CellSortedLayout* out) {
  const size_t d = raw.dims;
  const size_t w = flat.width();

  std::vector<uint32_t> cell_of(span + 1, 0);  // marks, then cell numbers
  size_t unreachable = 0;
  for (const uint32_t id : ids) {
    const bool sink = id == kUnreachableId;
    cell_of[sink ? span : id] = 1;
    unreachable += sink;
  }
  out->unreachable_rows += unreachable;
  const size_t m = static_cast<size_t>(
      std::count(cell_of.begin(), cell_of.begin() + span, 1u));

  // Walk the ids in order with their digits (an odometer over the radixes),
  // so each marked id's key is copied, not divided out.
  out->cell_keys.resize(m * d);
  int32_t* key = out->cell_keys.data();
  std::vector<int32_t> digits(d, 0);
  uint32_t cell = 0;
  for (size_t id = 0; id < span; ++id) {
    if (cell_of[id] != 0) {
      cell_of[id] = cell++;
      key = std::copy(digits.begin(), digits.end(), key);
    }
    for (size_t i = d; i-- > 0;) {
      if (static_cast<uint32_t>(++digits[i]) < radix[i]) break;
      digits[i] = 0;
    }
  }

  out->cell_states.resize(m * w);
  double* states = out->cell_states.data();
  for (size_t c = 0; c < m; ++c) flat.Init(states + c * w);
  for (size_t row = 0; row < raw.rows; ++row) {
    if (ids[row] == kUnreachableId) continue;
    if (!flat.FoldRange(states + size_t{cell_of[ids[row]]} * w,
                        &raw.agg_values[row], 1)) {
      return FlatAggregate::WidthError();
    }
  }
  return Status::OK();
}

/// Every other fold: a row of a cell `out` holds continues that cell's state;
/// any other row is keyed by first-seen id and folded into its new cell's
/// state in the same pass. The new cells are then sorted and merged in.
Status GroupByFirstSeen(const NeededMatrix& raw, double step,
                        const FlatAggregate& flat, CellSortedLayout* out) {
  const size_t d = raw.dims;
  const size_t w = flat.width();
  const size_t m = out->cell_keys.size() / d;
  const int32_t* held_keys = out->cell_keys.data();
  double* held_states = out->cell_states.data();
  FirstSeenCells cells(d);
  std::vector<double> states;  // new cells', by first-seen id
  std::vector<int32_t> coord(d);
  size_t unreachable = 0;
  for (size_t row = 0; row < raw.rows; ++row) {
    bool reachable = true;
    bool too_high = false;
    for (size_t i = 0; i < d; ++i) {
      const int64_t level = PScoreLevel(raw.dim(i)[row], step);
      if (level < 0) {
        reachable = false;
        break;
      }
      too_high |= level > std::numeric_limits<int32_t>::max();
      coord[i] = static_cast<int32_t>(level);
    }
    if (!reachable) {
      ++unreachable;
      continue;
    }
    if (too_high) {
      size_t i = 0;
      while (PScoreLevel(raw.dim(i)[row], step) <=
             std::numeric_limits<int32_t>::max()) {
        ++i;
      }
      return LevelOverflow(i, step);
    }
    // A fresh build holds no cells, so it skips the search: its per-row
    // cost stays that of the first-seen table alone.
    double* state = nullptr;
    if (m > 0) {
      const size_t s = LowerBoundKey(held_keys, d, m, coord.data());
      if (s < m && std::equal(coord.begin(), coord.end(), held_keys + s * d)) {
        state = held_states + s * w;
      }
    }
    if (state == nullptr) {
      const size_t id = cells.Add(coord.data());
      if (id * w == states.size()) {
        states.resize(states.size() + w);
        flat.Init(states.data() + id * w);
      }
      state = states.data() + id * w;
    }
    if (!flat.FoldRange(state, &raw.agg_values[row], 1)) {
      return FlatAggregate::WidthError();
    }
  }
  out->unreachable_rows += unreachable;

  // Merge the new cells, sorted, in from the back: with t new cells still
  // to place, the existing cells above the largest of them shift up by t
  // slots, straight to their final place, and it lands just below them.
  const std::vector<uint32_t> order = cells.SortedIds();
  out->cell_keys.resize((m + order.size()) * d);
  out->cell_states.resize((m + order.size()) * w);
  int32_t* keys = out->cell_keys.data();
  double* cell_states = out->cell_states.data();
  size_t below = m;  // existing cells [0, below) not yet moved
  for (size_t t = order.size(); t > 0; --t) {
    const int32_t* key = cells.key(order[t - 1]);
    const size_t pos = LowerBoundKey(keys, d, below, key);
    std::copy_backward(keys + pos * d, keys + below * d,
                       keys + (below + t) * d);
    std::copy_backward(cell_states + pos * w, cell_states + below * w,
                       cell_states + (below + t) * w);
    std::copy_n(key, d, keys + (pos + t - 1) * d);
    std::copy_n(states.data() + size_t{order[t - 1]} * w, w,
                cell_states + (pos + t - 1) * w);
    below = pos;
  }
  return Status::OK();
}

}  // namespace

Status BuildCellSortedLayout(const NeededMatrix& raw, double step,
                             const AggregateOps& ops, CellSortedLayout* out) {
  if (!(step > 0.0)) {
    return Status::InvalidArgument("cell-sorted layout requires a positive "
                                   "step");
  }
  const FlatAggregate flat(ops);
  out->state_width = flat.width();
  // Unreachable rows (needed == inf on some dimension) are only counted: no
  // PScoreRange admits infinity. A build into an empty layout groups by
  // dense cell id when the ids span at most 2n (n = the slice's rows): the
  // table is then no larger than one needed-matrix stream, and every id
  // fits an int32 level. Every other fold takes the first-seen path, a
  // sparse fresh build after the keying passes that found it sparse.
  if (out->cell_keys.empty()) {
    const uint64_t limit =
        std::min<uint64_t>(2 * static_cast<uint64_t>(raw.rows),
                           std::numeric_limits<int32_t>::max());
    std::vector<uint32_t> ids;
    std::vector<uint32_t> radix;
    if (const uint64_t span = DenseCellIds(raw, step, limit, &ids, &radix)) {
      return GroupByDenseId(raw, ids, radix, span, flat, out);
    }
  }
  return GroupByFirstSeen(raw, step, flat, out);
}

Status CellSortedEvaluationLayer::Prepare() {
  if (prepared_) return Status::OK();
  if (step_ <= 0.0) {
    return Status::InvalidArgument("cell-sorted layer requires a positive step");
  }
  // Snapshot the row count first: rows appended between here and the first
  // evaluate call are folded in by the next sync, never double-counted.
  Status built = FoldRows(task_->relation->num_rows());
  if (!built.ok()) Reset();
  prepared_ = built.ok();
  return built;
}

Status CellSortedEvaluationLayer::FoldRows(size_t end) {
  Stopwatch fold_sw;
  const size_t d = task_->d();
  const size_t cells_before = num_cells();
  // The rows' needed values are bit-identical to the ones a full build
  // computes (BuildNeededMatrixRows re-runs PrecomputeNeeded, so
  // value-memoizing dimensions see appended rows too).
  NeededMatrix rows;
  ACQ_RETURN_IF_ERROR(BuildNeededMatrixRows(*task_, consumed_rows_, end, &rows));
  ACQ_RETURN_IF_ERROR(
      BuildCellSortedLayout(rows, step_, *task_->agg.ops, &layout_));
  // Retained footprint: the rows' matrix bytes, and the new cells' keys and
  // states.
  const size_t cell_bytes =
      d * sizeof(int32_t) + layout_.state_width * sizeof(double);
  ChargeBudget(rows.bytes() + (num_cells() - cells_before) * cell_bytes);
  if (matrix_.rows == 0) {
    matrix_ = std::move(rows);
  } else {
    matrix_.Append(rows);
  }
  consumed_rows_ = end;
  stats_.prepare_ms += fold_sw.ElapsedMillis();
  return Status::OK();
}

Status CellSortedEvaluationLayer::Sync() {
  if (!prepared_) return Prepare();
  const size_t relation_rows = task_->relation->num_rows();
  if (relation_rows <= consumed_rows_) return Status::OK();
  const size_t appended = relation_rows - consumed_rows_;
  const size_t unreachable_before = layout_.unreachable_rows;
  ++stats_.delta_merges;
  Status synced;
  if (ACQ_FAILPOINT("index.delta_merge")) {
    // Result-preserving fault: fall back to the full rebuild the fold
    // exists to avoid. The layout is canonical, so the rebuild produces the
    // exact bytes the fold would have.
    Reset();
    synced = Prepare();
  } else {
    synced = FoldRows(relation_rows);
  }
  if (!synced.ok()) {
    Reset();
    return synced;
  }
  stats_.delta_rows +=
      appended - (layout_.unreachable_rows - unreachable_before);
  return Status::OK();
}

void CellSortedEvaluationLayer::Reset() {
  prepared_ = false;
  consumed_rows_ = 0;
  matrix_ = NeededMatrix{};
  layout_ = CellSortedLayout{};
}

size_t CellSortedEvaluationLayer::LowerBoundCell(const int32_t* key) const {
  return LowerBoundKey(layout_.cell_keys.data(), task_->d(), num_cells(), key);
}

void CellSortedEvaluationLayer::CellStateAt(const FlatAggregate& flat,
                                            size_t s, const int32_t* key,
                                            double* state) const {
  const size_t d = task_->d();
  const size_t w = flat.width();
  if (s < num_cells() &&
      std::equal(key, key + d, layout_.cell_keys.data() + s * d)) {
    std::copy_n(layout_.cell_states.data() + s * w, w, state);
  } else {
    flat.Init(state);
  }
}

size_t CellSortedEvaluationLayer::GallopLowerBound(size_t from,
                                                   const int32_t* key) const {
  const size_t d = task_->d();
  const size_t m = num_cells();
  auto less = [&](size_t s) {
    const int32_t* cell = layout_.cell_keys.data() + s * d;
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
  ACQ_RETURN_IF_ERROR(Sync());
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
  stats_.queries += count;
  stats_.tuples_scanned += count;

  // Answer the whole batch in one merged sweep: visit the requests in sorted
  // key order, advancing a cursor over the sorted keys with galloping
  // lower bounds (never rewinding, never restarting the binary search from
  // the top).
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
  size_t cursor = 0;
  const int32_t* prev_key = nullptr;
  uint32_t prev_qi = 0;
  for (const uint32_t qi : req) {
    const int32_t* key = key_of(qi);
    double* state = out + size_t{qi} * w;
    if (prev_key != nullptr && std::equal(key, key + d, prev_key)) {
      // Duplicate request: reuse the previous answer.
      std::copy_n(out + size_t{prev_qi} * w, w, state);
    } else {
      cursor = GallopLowerBound(cursor, key);
      CellStateAt(flat, cursor, key, state);
      prev_key = key;
    }
    prev_qi = qi;
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
  ACQ_RETURN_IF_ERROR(Sync());
  ACQ_RETURN_IF_ERROR(CheckBox(box));
  ++stats_.queries;
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
      // One binary search; the payload fold happened when the rows were
      // folded in.
      ++stats_.tuples_scanned;
      AggregateOps::State state(w);
      CellStateAt(flat, LowerBoundCell(lo32.data()), lo32.data(),
                  state.data());
      return state;
    }
    // Aligned box: only the sorted key range whose leading coordinate lies
    // in [lo, hi] can intersect the box; walk it, filtering the remaining
    // dimensions and merging per-cell states in key order (deterministic).
    std::vector<int32_t> first(d, 0);
    first[0] = lo32[0];  // smallest possible key in range
    AggregateOps::State state(w);
    flat.Init(state.data());
    bool width_ok = true;
    uint64_t cells_walked = 0;
    for (size_t s = LowerBoundCell(first.data()); s < m; ++s) {
      const int32_t* cell = layout_.cell_keys.data() + s * d;
      if (cell[0] > hi32[0]) break;
      ++cells_walked;
      bool inside = true;
      for (size_t i = 1; inside && i < d; ++i) {
        inside = cell[i] >= lo32[i] && cell[i] <= hi32[i];
      }
      if (inside) {
        width_ok &=
            flat.Merge(state.data(), layout_.cell_states.data() + s * w);
      }
    }
    stats_.tuples_scanned += cells_walked;
    if (!width_ok) return FlatAggregate::WidthError();
    return state;
  }

  // Off-grid box: the kernel scan over the relation-order matrix, the
  // kernel DirectEvaluationLayer runs, so both answer bit for bit alike.
  stats_.tuples_scanned += matrix_.rows;
  return ScanBoxOverMatrix(ops, matrix_, box);
}

}  // namespace acquire
