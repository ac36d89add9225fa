#include "index/parallel_prepare.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <numeric>

#include "common/failpoint.h"

namespace acquire {

namespace {

// Below this many rows per bucket the partition/scatter overhead beats the
// win of a second worker (same ballpark as the eval kernel's chunking).
constexpr size_t kMinRowsPerBucket = 8192;
// kAuto stays sequential below this row count outright.
constexpr size_t kMinParallelRows = 32768;

constexpr uint32_t kUnreachable = UINT32_MAX;

/// First-seen ids of the distinct grid cells of a row scan, keyed by flat
/// d-int32 runs: linear probing over a power-of-two slot table, each cell's
/// key and row count stored by id. The sequential build and every bucket of
/// the sharded build's phase C share it, so neither allocates per cell.
class FirstSeenCells {
 public:
  explicit FirstSeenCells(size_t d) : d_(d) {}

  /// Forgets every cell, keeping the allocations.
  void Clear() {
    std::fill(slots_.begin(), slots_.end(), 0u);
    keys_.clear();
    counts_.clear();
  }

  /// Id of the cell `key` (first-seen order), counting one more row in it.
  uint32_t Add(const int32_t* key) {
    if ((counts_.size() + 1) * 2 > slots_.size()) Grow();
    const size_t mask = slots_.size() - 1;
    size_t i = static_cast<size_t>(HashGridCoordSpan(key, d_)) & mask;
    while (slots_[i] != 0) {
      const uint32_t id = slots_[i] - 1;
      if (std::equal(key, key + d_, keys_.data() + id * d_)) {
        ++counts_[id];
        return id;
      }
      i = (i + 1) & mask;
    }
    const uint32_t id = static_cast<uint32_t>(counts_.size());
    slots_[i] = id + 1;
    keys_.insert(keys_.end(), key, key + d_);
    counts_.push_back(1);
    return id;
  }

  /// Lays the cells out in lexicographic key order: the sorted keys
  /// (m * d), CSR offsets from the row counts (m + 1), and, by id, the
  /// payload position of the cell's first row (the counting-sort cursor).
  void LayOut(std::vector<int32_t>* keys, std::vector<uint32_t>* offsets,
              std::vector<uint32_t>* cursor) const {
    const size_t m = counts_.size();
    std::vector<uint32_t> order(m);
    std::iota(order.begin(), order.end(), 0u);
    std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
      const int32_t* ka = keys_.data() + a * d_;
      const int32_t* kb = keys_.data() + b * d_;
      return std::lexicographical_compare(ka, ka + d_, kb, kb + d_);
    });
    keys->resize(m * d_);
    offsets->assign(m + 1, 0);
    cursor->resize(m);
    for (size_t s = 0; s < m; ++s) {
      const uint32_t id = order[s];
      std::copy_n(keys_.data() + id * d_, d_, keys->data() + s * d_);
      (*cursor)[id] = (*offsets)[s];
      (*offsets)[s + 1] = (*offsets)[s] + counts_[id];
    }
  }

 private:
  void Grow() {
    slots_.assign(std::max<size_t>(1024, slots_.size() * 2), 0u);
    const size_t mask = slots_.size() - 1;
    for (size_t id = 0; id < counts_.size(); ++id) {
      size_t i = static_cast<size_t>(
                     HashGridCoordSpan(keys_.data() + id * d_, d_)) &
                 mask;
      while (slots_[i] != 0) i = (i + 1) & mask;
      slots_[i] = static_cast<uint32_t>(id + 1);
    }
  }

  size_t d_;
  std::vector<uint32_t> slots_;   // id + 1; 0 = empty
  std::vector<int32_t> keys_;     // id-major, d levels per cell
  std::vector<uint32_t> counts_;  // rows per cell, by id
};

/// Folds each cell's contiguous payload (`agg_values` at the cell's
/// offsets) into its flat state; false when a UDA changed the width.
bool FoldCells(const FlatAggregate& flat, const double* agg_values,
               const std::vector<uint32_t>& offsets, double* states) {
  const size_t w = flat.width();
  for (size_t s = 0; s + 1 < offsets.size(); ++s) {
    double* state = states + s * w;
    flat.Init(state);
    if (!flat.FoldRange(state, agg_values + offsets[s],
                        offsets[s + 1] - offsets[s])) {
      return false;
    }
  }
  return true;
}

/// The sequential reference build (the pre-refactor CellSorted Prepare body,
/// operating on an already-built matrix).
Status BuildSequential(const NeededMatrix& raw, double step,
                       const FlatAggregate& flat, CellSortedLayout* out) {
  const size_t n = raw.rows;
  const size_t d = raw.dims;

  // Assign every row its grid cell; first-seen cell ids are temporary and
  // replaced by the sorted order below. Unreachable rows (needed == inf on
  // some dimension) are dropped: no PScoreRange admits infinity.
  FirstSeenCells cells(d);
  std::vector<uint32_t> row_cell(n, kUnreachable);
  std::vector<int32_t> coord(d);
  out->unreachable_rows = 0;
  for (size_t row = 0; row < n; ++row) {
    bool reachable = true;
    for (size_t i = 0; i < d; ++i) {
      int64_t level = PScoreLevel(raw.dim(i)[row], step);
      if (level < 0) {
        reachable = false;
        break;
      }
      coord[i] = static_cast<int32_t>(level);
    }
    if (!reachable) {
      ++out->unreachable_rows;
      continue;
    }
    row_cell[row] = cells.Add(coord.data());
  }

  // Sort the (small) set of distinct cells lexicographically, then
  // counting-sort the rows into that order: prefix offsets + scatter.
  std::vector<uint32_t> cursor;
  cells.LayOut(&out->cell_keys, &out->cell_offsets, &cursor);
  const size_t reachable = n - out->unreachable_rows;
  out->matrix.rows = reachable;
  out->matrix.dims = d;
  out->matrix.needed.resize(reachable * d);
  out->matrix.agg_values.resize(reachable);
  for (size_t row = 0; row < n; ++row) {
    if (row_cell[row] == kUnreachable) continue;
    const uint32_t p = cursor[row_cell[row]]++;
    for (size_t i = 0; i < d; ++i) {
      out->matrix.mutable_dim(i)[p] = raw.dim(i)[row];
    }
    out->matrix.agg_values[p] = raw.agg_values[row];
  }

  // Per-cell aggregate states: fold each contiguous payload range.
  out->state_width = flat.width();
  out->cell_states.resize(out->num_cells() * flat.width());
  if (!FoldCells(flat, out->matrix.agg_values.data(), out->cell_offsets,
                 out->cell_states.data())) {
    return FlatAggregate::WidthError();
  }
  return Status::OK();
}

/// One bucket's piece of the layout, concatenated by the caller.
struct BucketCells {
  std::vector<int32_t> keys;      // m_b * d, sorted
  std::vector<uint32_t> offsets;  // m_b + 1, relative to the bucket start
  std::vector<double> states;     // m_b * state_width
};

/// The sharded build. Sets *buckets_out to 0 (with *out untouched) when the
/// input yields no usable splitter sample — the caller then runs the
/// sequential reference instead.
Status BuildParallel(const NeededMatrix& raw, double step,
                     const FlatAggregate& flat, ThreadPool* pool,
                     CellSortedLayout* out, size_t* buckets_out) {
  const size_t n = raw.rows;
  const size_t d = raw.dims;
  const size_t chunks = pool->NumChunks(n, kMinRowsPerBucket);
  const size_t num_buckets = chunks;
  *buckets_out = 0;
  if (n == 0 || num_buckets == 0) return Status::OK();

  // Deterministic range-partition splitters: a strided sample of row cell
  // coordinates, sorted, cut at even quantiles. The bucket of a row depends
  // only on its cell coordinate, so a cell can never straddle buckets, and
  // splitter order makes bucket order agree with lexicographic cell order —
  // concatenating the per-bucket sorted layouts IS the global sorted layout.
  std::vector<GridCoord> sample;
  {
    const size_t target = std::max<size_t>(256, num_buckets * 32);
    const size_t stride = std::max<size_t>(1, n / target);
    GridCoord c(d);
    for (size_t row = 0; row < n; row += stride) {
      bool ok = true;
      for (size_t i = 0; i < d; ++i) {
        int64_t level = PScoreLevel(raw.dim(i)[row], step);
        if (level < 0) {
          ok = false;
          break;
        }
        c[i] = static_cast<int32_t>(level);
      }
      if (ok) sample.push_back(c);
    }
  }
  if (sample.empty()) return Status::OK();
  std::sort(sample.begin(), sample.end());
  std::vector<GridCoord> splitters;
  splitters.reserve(num_buckets - 1);
  for (size_t k = 1; k < num_buckets; ++k) {
    splitters.push_back(sample[k * sample.size() / num_buckets]);
  }
  // bucket(key) = number of splitters lexicographically <= key, in
  // [0, num_buckets).
  auto bucket_of = [&](const int32_t* key) -> uint32_t {
    size_t lo = 0;
    size_t hi = splitters.size();
    while (lo < hi) {
      const size_t mid = (lo + hi) / 2;
      const GridCoord& s = splitters[mid];
      if (std::lexicographical_compare(key, key + d, s.data(),
                                       s.data() + d)) {
        hi = mid;  // splitter > key
      } else {
        lo = mid + 1;
      }
    }
    return static_cast<uint32_t>(lo);
  };

  // Phase A: per-row cell coordinates, reachability and bucket assignment
  // over deterministic row chunks, with per-chunk bucket histograms.
  std::vector<int32_t> levels(n * d);  // row-major scratch
  std::vector<uint8_t> reachable(n);
  std::vector<uint32_t> row_bucket(n);
  std::vector<uint32_t> counts(chunks * num_buckets, 0);
  std::vector<uint32_t> chunk_unreachable(chunks, 0);
  pool->ParallelFor(n, kMinRowsPerBucket,
                    [&](size_t chunk, size_t begin, size_t end) {
                      uint32_t* my = counts.data() + chunk * num_buckets;
                      uint32_t bad = 0;
                      for (size_t row = begin; row < end; ++row) {
                        int32_t* c = levels.data() + row * d;
                        bool ok = true;
                        for (size_t i = 0; i < d; ++i) {
                          int64_t level = PScoreLevel(raw.dim(i)[row], step);
                          if (level < 0) {
                            ok = false;
                            break;
                          }
                          c[i] = static_cast<int32_t>(level);
                        }
                        reachable[row] = ok ? 1 : 0;
                        if (!ok) {
                          ++bad;
                          continue;
                        }
                        const uint32_t b = bucket_of(c);
                        row_bucket[row] = b;
                        ++my[b];
                      }
                      chunk_unreachable[chunk] = bad;
                    });
  const size_t unreachable_rows =
      std::accumulate(chunk_unreachable.begin(), chunk_unreachable.end(),
                      size_t{0});
  const size_t reachable_rows = n - unreachable_rows;

  // Prefix sums: bucket payload ranges, and each (chunk, bucket) write
  // cursor — chunk-major within a bucket, so a bucket's rows end up ordered
  // by (chunk, row) == relation row order.
  std::vector<uint32_t> bucket_start(num_buckets + 1, 0);
  for (size_t b = 0; b < num_buckets; ++b) {
    uint32_t rows = 0;
    for (size_t c = 0; c < chunks; ++c) rows += counts[c * num_buckets + b];
    bucket_start[b + 1] = bucket_start[b] + rows;
  }
  std::vector<uint32_t> cursors(chunks * num_buckets);
  for (size_t b = 0; b < num_buckets; ++b) {
    uint32_t cur = bucket_start[b];
    for (size_t c = 0; c < chunks; ++c) {
      cursors[c * num_buckets + b] = cur;
      cur += counts[c * num_buckets + b];
    }
  }

  // Phase B: scatter row indices into bucket order (disjoint slices, no
  // synchronization; identical chunking to phase A).
  std::vector<uint32_t> rows_by_bucket(reachable_rows);
  pool->ParallelFor(n, kMinRowsPerBucket,
                    [&](size_t chunk, size_t begin, size_t end) {
                      uint32_t* cur = cursors.data() + chunk * num_buckets;
                      for (size_t row = begin; row < end; ++row) {
                        if (!reachable[row]) continue;
                        rows_by_bucket[cur[row_bucket[row]]++] =
                            static_cast<uint32_t>(row);
                      }
                    });

  // Phase C: each bucket runs the sequential reference on its slice —
  // first-seen distinct cells in row order, sort, counting scatter into the
  // bucket's global payload range, per-cell folds. Buckets are independent.
  out->unreachable_rows = unreachable_rows;
  out->matrix.rows = reachable_rows;
  out->matrix.dims = d;
  out->matrix.needed.resize(reachable_rows * d);
  out->matrix.agg_values.resize(reachable_rows);
  const size_t w = flat.width();
  std::vector<BucketCells> bucket_cells(num_buckets);
  std::atomic<bool> width_error{false};
  pool->ParallelFor(
      num_buckets, 1, [&](size_t, size_t bucket_begin, size_t bucket_end) {
        FirstSeenCells cells(d);
        std::vector<uint32_t> row_cell;
        std::vector<uint32_t> cursor;
        for (size_t b = bucket_begin; b < bucket_end; ++b) {
          BucketCells& bc = bucket_cells[b];
          const uint32_t base = bucket_start[b];
          const uint32_t count = bucket_start[b + 1] - base;
          bc.offsets.assign(1, 0);
          if (count == 0) continue;
          cells.Clear();
          row_cell.resize(count);
          for (uint32_t r = 0; r < count; ++r) {
            const uint32_t row = rows_by_bucket[base + r];
            row_cell[r] = cells.Add(levels.data() + size_t{row} * d);
          }
          cells.LayOut(&bc.keys, &bc.offsets, &cursor);
          for (uint32_t r = 0; r < count; ++r) {
            const uint32_t row = rows_by_bucket[base + r];
            const uint32_t p = base + cursor[row_cell[r]]++;
            for (size_t i = 0; i < d; ++i) {
              out->matrix.mutable_dim(i)[p] = raw.dim(i)[row];
            }
            out->matrix.agg_values[p] = raw.agg_values[row];
          }
          bc.states.resize((bc.offsets.size() - 1) * w);
          if (!FoldCells(flat, out->matrix.agg_values.data() + base,
                         bc.offsets, bc.states.data())) {
            width_error.store(true, std::memory_order_relaxed);
          }
        }
      });
  if (width_error.load(std::memory_order_relaxed)) {
    return FlatAggregate::WidthError();
  }

  // Assembly: concatenate the per-bucket layouts (the distinct-cell count is
  // small next to n, so this stays sequential).
  size_t m_total = 0;
  for (const BucketCells& bc : bucket_cells) m_total += bc.offsets.size() - 1;
  out->cell_keys.clear();
  out->cell_keys.reserve(m_total * d);
  out->cell_offsets.clear();
  out->cell_offsets.reserve(m_total + 1);
  out->cell_offsets.push_back(0);
  out->state_width = w;
  out->cell_states.clear();
  out->cell_states.reserve(m_total * w);
  for (size_t b = 0; b < num_buckets; ++b) {
    const BucketCells& bc = bucket_cells[b];
    const uint32_t base = bucket_start[b];
    out->cell_keys.insert(out->cell_keys.end(), bc.keys.begin(),
                          bc.keys.end());
    for (size_t s = 0; s + 1 < bc.offsets.size(); ++s) {
      out->cell_offsets.push_back(base + bc.offsets[s + 1]);
    }
    out->cell_states.insert(out->cell_states.end(), bc.states.begin(),
                            bc.states.end());
  }
  *buckets_out = num_buckets;
  return Status::OK();
}

}  // namespace

Status BuildCellSortedLayout(const NeededMatrix& raw, double step,
                             const AggregateOps& ops, ThreadPool* pool,
                             PrepareMode mode, CellSortedLayout* out,
                             PrepareBuildInfo* info) {
  if (step <= 0.0) {
    return Status::InvalidArgument("cell-sorted layout requires a positive "
                                   "step");
  }
  if (pool == nullptr) pool = &ThreadPool::Shared();
  bool parallel = false;
  switch (mode) {
    case PrepareMode::kSequential:
      break;
    case PrepareMode::kParallel:
      parallel = true;
      break;
    case PrepareMode::kAuto:
      parallel = raw.rows >= kMinParallelRows &&
                 pool->NumChunks(raw.rows, kMinRowsPerBucket) >= 2;
      break;
  }
  // Result-preserving fault injection: a build that would have sharded runs
  // the sequential reference instead (identical layout by construction).
  if (parallel && ACQ_FAILPOINT("index.parallel_prepare")) parallel = false;
  const FlatAggregate flat(ops);
  size_t buckets = 0;
  if (parallel) {
    ACQ_RETURN_IF_ERROR(BuildParallel(raw, step, flat, pool, out, &buckets));
    // Degenerate input (no reachable sample rows): build sequentially.
    parallel = buckets > 0;
  }
  if (!parallel) {
    ACQ_RETURN_IF_ERROR(BuildSequential(raw, step, flat, out));
  }
  if (info != nullptr) {
    info->parallel = parallel;
    info->buckets = buckets;
  }
  return Status::OK();
}

bool LayoutsBitIdentical(const CellSortedLayout& a,
                         const CellSortedLayout& b) {
  auto bytes_equal = [](const auto& x, const auto& y) {
    using T = typename std::decay_t<decltype(x)>::value_type;
    return x.size() == y.size() &&
           (x.empty() ||
            std::memcmp(x.data(), y.data(), x.size() * sizeof(T)) == 0);
  };
  if (a.unreachable_rows != b.unreachable_rows) return false;
  if (a.matrix.rows != b.matrix.rows || a.matrix.dims != b.matrix.dims) {
    return false;
  }
  if (!bytes_equal(a.matrix.needed, b.matrix.needed)) return false;
  if (!bytes_equal(a.matrix.agg_values, b.matrix.agg_values)) return false;
  if (!bytes_equal(a.cell_keys, b.cell_keys)) return false;
  if (!bytes_equal(a.cell_offsets, b.cell_offsets)) return false;
  return a.state_width == b.state_width &&
         bytes_equal(a.cell_states, b.cell_states);
}

}  // namespace acquire
