#include "core/expand.h"

#include <algorithm>

#include "common/failpoint.h"

namespace acquire {

namespace {
// Saturated number of cells in the whole grid: prod_i (MaxLevel(i) + 1).
size_t TotalCells(const RefinedSpace& space, size_t cap) {
  size_t total = 1;
  for (size_t i = 0; i < space.d(); ++i) {
    const size_t levels = static_cast<size_t>(space.MaxLevel(i)) + 1;
    if (total >= cap / levels) return cap;
    total *= levels;
  }
  return total;
}

// Upper bound on the cardinality of BFS layer k (coordinate sum == k) in d
// dimensions, ignoring the per-axis caps: C(k + d - 1, d - 1), saturated.
size_t LayerCardinalityBound(int64_t k, size_t d, size_t cap) {
  double c = 1.0;
  for (size_t i = 1; i < d; ++i) {
    c *= static_cast<double>(k + static_cast<int64_t>(i)) /
         static_cast<double>(i);
    if (c >= static_cast<double>(cap)) return cap;
  }
  return static_cast<size_t>(c);
}

// Generation's stop poll (QueryGenerator): true once per 256 coordinates
// produced, when the run's context says stop. Polling only after a full
// stride keeps a cut shell or best-first layer nonempty, so the cut never
// reads as exhaustion.
bool StopAfter(size_t produced, const RunContext* ctx) {
  return (produced & 0xFF) == 0 && ctx != nullptr && ctx->ShouldStop();
}

}  // namespace

BfsGenerator::BfsGenerator(const RefinedSpace* space, RunContext* ctx)
    : space_(space), ctx_(ctx) {
  total_cells_ = TotalCells(*space_, size_t{1} << 26);
  layer_.assign(space_->d(), 0);  // the origin
  ChargeGrowth();
}

void BfsGenerator::ChargeGrowth() {
  const size_t bytes =
      (layer_.capacity() + next_.capacity()) * sizeof(int32_t);
  if (bytes <= charged_bytes_) return;
  const size_t delta = bytes - charged_bytes_;
  charged_bytes_ = bytes;
  if (ctx_ == nullptr) return;
  ctx_->budget().Charge(delta);
  if (ACQ_FAILPOINT("expand.layer_alloc")) ctx_->budget().MarkExhausted();
}

bool BfsGenerator::NextLayer(std::vector<int32_t>* keys, double* score) {
  if (layer_.empty()) return false;
  const size_t d = space_->d();
  // next_ holds the caller's previous layer; clearing keeps its capacity.
  next_.clear();
  next_.reserve(d * std::min(LayerCardinalityBound(
                                 static_cast<int64_t>(score_) + 1, d,
                                 total_cells_),
                             total_cells_));
  ChargeGrowth();
  const size_t n = layer_.size() / d;
  for (size_t q = 0; q < n; ++q) {
    const int32_t* cur = layer_.data() + q * d;
    // Canonical-predecessor expansion: only increment dimensions at or after
    // the last nonzero one, so each successor is generated exactly once (see
    // the class comment) and no visited set is needed.
    size_t first = 0;
    for (size_t i = d; i-- > 0;) {
      if (cur[i] > 0) {
        first = i;
        break;
      }
    }
    for (size_t i = first; i < d; ++i) {
      if (cur[i] >= space_->MaxLevel(i)) continue;
      next_.insert(next_.end(), cur, cur + d);
      ++next_[next_.size() - d + i];
    }
    if (StopAfter(q + 1, ctx_)) break;
  }
  ChargeGrowth();  // reserve underestimates occasionally force a regrow
  *score = score_;
  score_ += 1.0;
  keys->swap(layer_);
  layer_.swap(next_);
  return true;
}

ShellGenerator::ShellGenerator(const RefinedSpace* space, RunContext* ctx)
    : space_(space), ctx_(ctx) {
  for (size_t i = 0; i < space_->d(); ++i) {
    max_shell_ = std::max(max_shell_, space_->MaxLevel(i));
  }
}

bool ShellGenerator::NextLayer(std::vector<int32_t>* keys, double* score) {
  if (k_ > max_shell_) return false;
  const size_t d = space_->d();
  const int32_t k = k_++;
  *score = static_cast<double>(k);
  if (k == 0) {
    keys->assign(d, 0);  // shell 0 is the origin alone
    return true;
  }
  keys->clear();
  size_t produced = 0;
  // Pinned groups in DESCENDING order (see the class comment: this makes
  // the shell topological for the Explore phase's predecessor cursors).
  for (size_t p = d; p-- > 0;) {
    if (space_->MaxLevel(p) < k) continue;
    keys->resize(keys->size() + d, 0);  // the group's first coordinate
    (*keys)[keys->size() - d + p] = k;
    for (;;) {
      if (StopAfter(++produced, ctx_)) return true;
      // Advance an odometer over the free dimensions (last varies fastest)
      // from the previous coordinate. Dimensions before the pinned one stay
      // below k so each coordinate is enumerated exactly once (under its
      // first k-valued dimension).
      const int32_t* prev = keys->data() + keys->size() - d;
      size_t bump = d;
      for (size_t j = d; j-- > 0;) {
        if (j != p && prev[j] < std::min(j < p ? k - 1 : k,
                                         space_->MaxLevel(j))) {
          bump = j;
          break;
        }
      }
      if (bump == d) break;  // group exhausted
      const size_t at = keys->size();
      keys->resize(at + d);
      int32_t* u = keys->data() + at;
      std::copy_n(u - d, d, u);
      ++u[bump];
      for (size_t m = bump + 1; m < d; ++m) {
        if (m != p) u[m] = 0;
      }
    }
  }
  return true;
}

BestFirstGenerator::BestFirstGenerator(const RefinedSpace* space,
                                       RunContext* ctx)
    : space_(space), ctx_(ctx) {
  seen_.reserve(std::min(TotalCells(*space_, size_t{1} << 26), size_t{4096}));
  GridCoord origin(space_->d(), 0);
  seen_.insert(origin);
  heap_.push(Entry{0.0, std::move(origin)});
}

bool BestFirstGenerator::NextLayer(std::vector<int32_t>* keys,
                                   double* score) {
  if (heap_.empty()) return false;
  keys->clear();
  *score = heap_.top().qscore;
  size_t produced = 0;
  do {
    Entry top = heap_.top();
    heap_.pop();
    for (size_t i = 0; i < top.coord.size(); ++i) {
      if (top.coord[i] >= space_->MaxLevel(i)) continue;
      GridCoord next = top.coord;
      ++next[i];
      if (seen_.insert(next).second) {
        double q = space_->QScoreOf(next);
        heap_.push(Entry{q, std::move(next)});
      }
    }
    if (ctx_ != nullptr && seen_.size() > charged_coords_) {
      // Each frontier coordinate lives once in seen_ and (while queued) once
      // in the heap: roughly two d-length int32 vectors plus bucket overhead.
      const size_t per_coord =
          2 * (sizeof(GridCoord) + top.coord.size() * sizeof(int32_t)) +
          2 * sizeof(void*);
      ctx_->budget().Charge((seen_.size() - charged_coords_) * per_coord);
      charged_coords_ = seen_.size();
      if (ACQ_FAILPOINT("expand.layer_alloc")) ctx_->budget().MarkExhausted();
    }
    keys->insert(keys->end(), top.coord.begin(), top.coord.end());
  } while (!StopAfter(++produced, ctx_) && !heap_.empty() &&
           heap_.top().qscore == *score);
  return true;
}

}  // namespace acquire
