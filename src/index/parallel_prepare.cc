#include "index/parallel_prepare.h"

#include <algorithm>
#include <cstring>
#include <numeric>
#include <unordered_map>

#include "common/failpoint.h"
#include "exec/eval_kernel.h"

namespace acquire {

namespace {

// Below this many rows per bucket the partition/scatter overhead beats the
// win of a second worker (same ballpark as the eval kernel's chunking).
constexpr size_t kMinRowsPerBucket = 8192;
// kAuto stays sequential below this row count outright.
constexpr size_t kMinParallelRows = 32768;

/// The sequential reference build (the pre-refactor CellSorted Prepare body,
/// operating on an already-built matrix).
Status BuildSequential(const NeededMatrix& raw, double step,
                       const AggregateOps& ops, CellSortedLayout* out) {
  const size_t n = raw.rows;
  const size_t d = raw.dims;

  // Assign every row its grid cell; first-seen cell ids are temporary and
  // replaced by the sorted order below. Unreachable rows (needed == inf on
  // some dimension) are dropped: no PScoreRange admits infinity.
  constexpr uint32_t kUnreachable = UINT32_MAX;
  std::unordered_map<GridCoord, uint32_t, GridCoordHash> cell_ids;
  std::vector<GridCoord> coords;  // by temporary cell id
  std::vector<uint32_t> counts;   // by temporary cell id
  std::vector<uint32_t> row_cell(n, kUnreachable);
  GridCoord coord(d);
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
    auto [it, inserted] =
        cell_ids.try_emplace(coord, static_cast<uint32_t>(coords.size()));
    if (inserted) {
      coords.push_back(coord);
      counts.push_back(0);
    }
    row_cell[row] = it->second;
    ++counts[it->second];
  }

  // Sort the (small) set of distinct cells lexicographically, then
  // counting-sort the rows into that order: prefix offsets + scatter.
  const size_t m = coords.size();
  std::vector<uint32_t> order(m);
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return coords[a] < coords[b];
  });
  std::vector<uint32_t> sorted_pos(m);
  for (size_t s = 0; s < m; ++s) {
    sorted_pos[order[s]] = static_cast<uint32_t>(s);
  }

  out->cell_keys.resize(m * d);
  out->cell_offsets.assign(m + 1, 0);
  for (size_t s = 0; s < m; ++s) {
    const GridCoord& c = coords[order[s]];
    std::copy(c.begin(), c.end(), out->cell_keys.begin() + s * d);
    out->cell_offsets[s + 1] = out->cell_offsets[s] + counts[order[s]];
  }

  const size_t reachable = n - out->unreachable_rows;
  out->matrix.rows = reachable;
  out->matrix.dims = d;
  out->matrix.needed.resize(reachable * d);
  out->matrix.agg_values.resize(reachable);
  std::vector<uint32_t> cursor(out->cell_offsets.begin(),
                               out->cell_offsets.end() - 1);
  for (size_t row = 0; row < n; ++row) {
    if (row_cell[row] == kUnreachable) continue;
    const uint32_t p = cursor[sorted_pos[row_cell[row]]]++;
    for (size_t i = 0; i < d; ++i) {
      out->matrix.mutable_dim(i)[p] = raw.dim(i)[row];
    }
    out->matrix.agg_values[p] = raw.agg_values[row];
  }

  // Per-cell aggregate states: fold each contiguous payload range.
  out->cell_states.resize(m);
  for (size_t s = 0; s < m; ++s) {
    out->cell_states[s] = ops.Init();
    FoldRange(ops, out->matrix.agg_values.data() + out->cell_offsets[s],
              out->cell_offsets[s + 1] - out->cell_offsets[s],
              &out->cell_states[s]);
  }
  return Status::OK();
}

/// One bucket's piece of the layout, concatenated by the caller.
struct BucketCells {
  std::vector<int32_t> keys;      // m_b * d, sorted
  std::vector<uint32_t> offsets;  // m_b + 1, relative to the bucket start
  std::vector<AggregateOps::State> states;
};

/// The sharded build. Returns false (with *out untouched) when the input
/// yields no usable splitter sample — the caller then runs the sequential
/// reference instead.
bool BuildParallel(const NeededMatrix& raw, double step,
                   const AggregateOps& ops, ThreadPool* pool,
                   CellSortedLayout* out, size_t* buckets_out) {
  const size_t n = raw.rows;
  const size_t d = raw.dims;
  const size_t chunks = pool->NumChunks(n, kMinRowsPerBucket);
  const size_t num_buckets = chunks;
  if (n == 0 || num_buckets == 0) return false;

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
  if (sample.empty()) return false;
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
  std::vector<BucketCells> bucket_cells(num_buckets);
  pool->ParallelFor(
      num_buckets, 1, [&](size_t, size_t bucket_begin, size_t bucket_end) {
        std::unordered_map<GridCoord, uint32_t, GridCoordHash> ids;
        GridCoord c(d);
        for (size_t b = bucket_begin; b < bucket_end; ++b) {
          BucketCells& bc = bucket_cells[b];
          const uint32_t base = bucket_start[b];
          const uint32_t count = bucket_start[b + 1] - base;
          bc.offsets.assign(1, 0);
          if (count == 0) continue;
          ids.clear();
          std::vector<GridCoord> coords;
          std::vector<uint32_t> cell_counts;
          std::vector<uint32_t> row_cell(count);
          for (uint32_t r = 0; r < count; ++r) {
            const uint32_t row = rows_by_bucket[base + r];
            c.assign(levels.begin() + row * d, levels.begin() + (row + 1) * d);
            auto [it, inserted] =
                ids.try_emplace(c, static_cast<uint32_t>(coords.size()));
            if (inserted) {
              coords.push_back(c);
              cell_counts.push_back(0);
            }
            row_cell[r] = it->second;
            ++cell_counts[it->second];
          }
          const size_t m = coords.size();
          std::vector<uint32_t> order(m);
          std::iota(order.begin(), order.end(), 0u);
          std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b2) {
            return coords[a] < coords[b2];
          });
          std::vector<uint32_t> sorted_pos(m);
          for (size_t s = 0; s < m; ++s) {
            sorted_pos[order[s]] = static_cast<uint32_t>(s);
          }
          bc.keys.resize(m * d);
          bc.offsets.assign(m + 1, 0);
          for (size_t s = 0; s < m; ++s) {
            const GridCoord& coord = coords[order[s]];
            std::copy(coord.begin(), coord.end(), bc.keys.begin() + s * d);
            bc.offsets[s + 1] = bc.offsets[s] + cell_counts[order[s]];
          }
          std::vector<uint32_t> cursor(bc.offsets.begin(),
                                       bc.offsets.end() - 1);
          for (uint32_t r = 0; r < count; ++r) {
            const uint32_t row = rows_by_bucket[base + r];
            const uint32_t p = base + cursor[sorted_pos[row_cell[r]]]++;
            for (size_t i = 0; i < d; ++i) {
              out->matrix.mutable_dim(i)[p] = raw.dim(i)[row];
            }
            out->matrix.agg_values[p] = raw.agg_values[row];
          }
          bc.states.resize(m);
          for (size_t s = 0; s < m; ++s) {
            bc.states[s] = ops.Init();
            FoldRange(ops, out->matrix.agg_values.data() + base + bc.offsets[s],
                      bc.offsets[s + 1] - bc.offsets[s], &bc.states[s]);
          }
        }
      });

  // Assembly: concatenate the per-bucket layouts (the distinct-cell count is
  // small next to n, so this stays sequential).
  size_t m_total = 0;
  for (const BucketCells& bc : bucket_cells) m_total += bc.offsets.size() - 1;
  out->cell_keys.clear();
  out->cell_keys.reserve(m_total * d);
  out->cell_offsets.clear();
  out->cell_offsets.reserve(m_total + 1);
  out->cell_offsets.push_back(0);
  out->cell_states.clear();
  out->cell_states.reserve(m_total);
  for (size_t b = 0; b < num_buckets; ++b) {
    BucketCells& bc = bucket_cells[b];
    const uint32_t base = bucket_start[b];
    out->cell_keys.insert(out->cell_keys.end(), bc.keys.begin(),
                          bc.keys.end());
    for (size_t s = 0; s + 1 < bc.offsets.size(); ++s) {
      out->cell_offsets.push_back(base + bc.offsets[s + 1]);
    }
    for (AggregateOps::State& state : bc.states) {
      out->cell_states.push_back(std::move(state));
    }
  }
  if (buckets_out != nullptr) *buckets_out = num_buckets;
  return true;
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
  size_t buckets = 0;
  if (parallel && !BuildParallel(raw, step, ops, pool, out, &buckets)) {
    parallel = false;  // degenerate input (no reachable sample rows)
  }
  if (!parallel) {
    ACQ_RETURN_IF_ERROR(BuildSequential(raw, step, ops, out));
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
  if (a.cell_states.size() != b.cell_states.size()) return false;
  for (size_t s = 0; s < a.cell_states.size(); ++s) {
    if (!bytes_equal(a.cell_states[s], b.cell_states[s])) return false;
  }
  return true;
}

}  // namespace acquire
