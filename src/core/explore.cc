#include "core/explore.h"

#include <algorithm>

#include "common/failpoint.h"
#include "common/stopwatch.h"
#include "common/string_util.h"

namespace acquire {

namespace {

size_t NextPowerOfTwo(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

void AggregateStore::Configure(size_t d, size_t state_width) {
  d_ = d;
  state_width_ = state_width;
  block_width_ = (d + 1) * state_width;
}

void AggregateStore::Reserve(size_t coords) {
  if (coords == 0) return;
  // Grow geometrically: reserving "just enough" on every per-layer call
  // would reallocate — and copy the whole arena — once per layer.
  if (coords * d_ > keys_.capacity()) {
    keys_.reserve(std::max(coords * d_, keys_.capacity() * 2));
  }
  if (coords * block_width_ > arena_.capacity()) {
    arena_.reserve(std::max(coords * block_width_, arena_.capacity() * 2));
  }
  ChargeGrowth();
}

void AggregateStore::ChargeGrowth() {
  const size_t bytes = MemoryBytes();
  if (bytes <= charged_bytes_) return;
  const size_t delta = bytes - charged_bytes_;
  charged_bytes_ = bytes;
  if (budget_ == nullptr) return;
  budget_->Charge(delta);
  // Injected allocation failure on the growth path: indistinguishable from
  // a real budget overrun downstream (best-so-far kResourceExhausted).
  if (ACQ_FAILPOINT("explore.arena_grow")) budget_->MarkExhausted();
}

size_t AggregateStore::ProbeSlot(const int32_t* key) const {
  const size_t mask = slots_.size() - 1;
  size_t i = static_cast<size_t>(HashGridCoordSpan(key, d_)) & mask;
  while (true) {
    const uint32_t e = slots_[i];
    if (e == 0) return i;
    // Open-coded compare: d is 1..4 in practice, below memcmp's call cost.
    const int32_t* entry = keys_.data() + (e - 1) * d_;
    size_t j = 0;
    while (j < d_ && entry[j] == key[j]) ++j;
    if (j == d_) return i;
    i = (i + 1) & mask;
  }
}

void AggregateStore::IndexEntry(size_t e) {
  const size_t mask = slots_.size() - 1;
  size_t i = static_cast<size_t>(HashGridCoordSpan(KeyAt(e), d_)) & mask;
  while (slots_[i] != 0) i = (i + 1) & mask;
  slots_[i] = static_cast<uint32_t>(e + 1);
}

void AggregateStore::CatchUpIndex() {
  const size_t wanted = NextPowerOfTwo(num_entries_ * 4 / 3 + 1);
  if (wanted > slots_.size()) {
    // Both are powers of two, so this at least doubles the table.
    slots_.assign(std::max<size_t>(wanted, 64), 0);
    indexed_ = 0;
  }
  for (size_t e = indexed_; e < num_entries_; ++e) IndexEntry(e);
  indexed_ = num_entries_;
  ChargeGrowth();
}

const double* AggregateStore::Find(const int32_t* key) {
  if (indexed_ < num_entries_) CatchUpIndex();
  if (slots_.empty()) return nullptr;
  const uint32_t e = slots_[ProbeSlot(key)];
  return e == 0 ? nullptr : arena_.data() + (e - 1) * block_width_;
}

void AggregateStore::Truncate(size_t n) {
  if (n >= num_entries_) return;
  num_entries_ = n;
  keys_.resize(n * d_);
  arena_.resize(n * block_width_);
  slots_.clear();
  indexed_ = 0;
}

double* AggregateStore::Append(const int32_t* key) {
  keys_.insert(keys_.end(), key, key + d_);
  const size_t offset = num_entries_ * block_width_;
  arena_.resize(offset + block_width_, 0.0);
  ++num_entries_;
  ChargeGrowth();
  return arena_.data() + offset;
}

Explorer::Explorer(const RefinedSpace* space, EvaluationLayer* layer,
                   MemoryBudget* budget, AggregateStore* store)
    : space_(space),
      layer_(layer),
      flat_(*space->task().agg.ops),
      store_(store != nullptr ? *store : own_store_) {
  if (store_.d() != space_->d() || store_.state_width() != flat_.width()) {
    store_ = AggregateStore();
    store_.Configure(space_->d(), flat_.width());
  }
  store_.set_budget(budget);
  scratch_.resize((space_->d() + 1) * flat_.width());
  pred_blocks_.resize(space_->d());
}

Result<double> Explorer::ComputeAggregate(const int32_t* key) {
  const double* block = nullptr;
  if (replay_next_ < replay_end_ &&
      std::equal(key, key + space_->d(), store_.KeyAt(replay_next_))) {
    block = store_.BlockAt(replay_next_++);
  } else {
    ACQ_RETURN_IF_ERROR(EnsureComputed(key, &block));
  }
  // O_{d+1} is the whole refined query (Eq. 8).
  return flat_.Final(block + space_->d() * store_.state_width());
}

Result<double> Explorer::ComputeAggregate(const GridCoord& coord) {
  if (coord.size() != space_->d()) {
    return Status::InvalidArgument(
        StringFormat("grid coordinate has %zu levels, space has %zu "
                     "dimensions", coord.size(), space_->d()));
  }
  return ComputeAggregate(coord.data());
}

void Explorer::SeedCellStates(const int32_t* keys, size_t count,
                              std::vector<double>* states) {
  seed_states_.swap(*states);
  seed_keys_.assign(keys, keys + count * space_->d());
  seed_taken_.assign(count, 0);
  seed_cursor_ = 0;
  seed_index_built_ = false;
  seeds_fresh_ = true;
  // The evaluation layer executed these in the batch; count them now so
  // cell_queries() matches the layer's own query counter.
  cell_queries_ += count;
}

void Explorer::ReplayStored(size_t lo, size_t count) {
  replay_next_ = lo;
  replay_end_ = lo + count;
  cell_queries_ += count;
  replayed_ += count;
}

void Explorer::TruncateStore(size_t n) {
  store_.Truncate(n);
  replay_next_ = 0;
  replay_end_ = 0;
}

void Explorer::BuildSeedIndex() {
  const size_t d = space_->d();
  const size_t count = seed_taken_.size();
  seed_slots_.assign(std::max<size_t>(16, NextPowerOfTwo(count * 2)), 0);
  const size_t mask = seed_slots_.size() - 1;
  for (size_t e = 0; e < count; ++e) {
    size_t i =
        static_cast<size_t>(HashGridCoordSpan(seed_keys_.data() + e * d, d)) &
        mask;
    while (seed_slots_[i] != 0) i = (i + 1) & mask;
    seed_slots_[i] = static_cast<uint32_t>(e + 1);
  }
  seed_index_built_ = true;
}

bool Explorer::SeedAtCursor(const int32_t* key) {
  const size_t count = seed_taken_.size();
  while (seed_cursor_ < count && seed_taken_[seed_cursor_]) ++seed_cursor_;
  if (seed_cursor_ == count) return false;
  const size_t d = space_->d();
  const int32_t* seed = seed_keys_.data() + seed_cursor_ * d;
  size_t j = 0;
  while (j < d && seed[j] == key[j]) ++j;
  return j == d;
}

bool Explorer::TakeSeed(const int32_t* key, double* out) {
  if (seed_taken_.empty()) return false;
  size_t e = 0;
  if (SeedAtCursor(key)) {
    e = seed_cursor_;
  } else {
    if (!seed_index_built_) BuildSeedIndex();
    const size_t d = space_->d();
    const size_t mask = seed_slots_.size() - 1;
    size_t i = static_cast<size_t>(HashGridCoordSpan(key, d)) & mask;
    while (true) {
      const uint32_t entry = seed_slots_[i];
      if (entry == 0) return false;
      const int32_t* seed = seed_keys_.data() + (entry - 1) * d;
      size_t j = 0;
      while (j < d && seed[j] == key[j]) ++j;
      if (j == d) {
        if (seed_taken_[entry - 1]) return false;  // consumed
        e = entry - 1;
        break;
      }
      i = (i + 1) & mask;
    }
  }
  const size_t w = store_.state_width();
  std::copy_n(seed_states_.data() + e * w, w, out);
  seed_taken_[e] = 1;
  return true;
}

void Explorer::BeginLayerDrain(size_t lo, size_t hi) {
  pred_lo_ = lo;
  pred_hi_ = hi;
  pred_cursor_.assign(space_->d(), lo);
  shell_drain_ = false;
}

void Explorer::BeginShellDrain(size_t lo) {
  pred_lo_ = 0;
  pred_hi_ = 0;
  shell_drain_ = true;
  shell_lo_ = lo;
  shell_group_lo_ = lo;
  shell_cursor_.assign(space_->d(), lo);
}

void Explorer::NoteShellInsert() {
  const size_t n = store_.size();
  if (n < shell_lo_ + 2) return;
  const size_t d = space_->d();
  const int32_t* prev = store_.KeyAt(n - 2);
  const int32_t* cur = store_.KeyAt(n - 1);
  if (std::lexicographical_compare(cur, cur + d, prev, prev + d)) {
    // Keys ascend within a pinned group; a lex restart is the next group.
    shell_group_lo_ = n - 1;
  }
}

const double* Explorer::FindShellPred(size_t j, const int32_t* key) {
  const size_t d = space_->d();
  const size_t hi = store_.size();
  // A group restart re-bases every cursor to the new group's first entry.
  size_t e = std::max(shell_cursor_[j], shell_group_lo_);
  while (e < hi) {
    const int32_t* entry = store_.KeyAt(e);
    size_t i = 0;
    while (i < d && entry[i] == key[i]) ++i;
    if (i == d) {
      shell_cursor_[j] = e + 1;
      return store_.BlockAt(e);
    }
    if (entry[i] > key[i]) break;  // keys ascend: a later entry only grows
    ++e;  // lex-smaller entries can never match a future key of this group
  }
  shell_cursor_[j] = e;
  return nullptr;
}

const double* Explorer::FindPredInRange(size_t j, const int32_t* key) {
  const size_t d = space_->d();
  size_t e = pred_cursor_[j];
  while (e < pred_hi_) {
    const int32_t* entry = store_.KeyAt(e);
    size_t i = 0;
    while (i < d && entry[i] == key[i]) ++i;
    if (i == d) {
      // The next predecessor along j is strictly smaller, so this entry
      // can never match again.
      pred_cursor_[j] = e + 1;
      return store_.BlockAt(e);
    }
    // Entries at or below `key` stay candidates for the (descending)
    // future keys; entries above it never match again and are skipped for
    // good, which bounds the total scan per layer at d * |range|.
    if (entry[i] < key[i]) break;
    ++e;
  }
  pred_cursor_[j] = e;
  return nullptr;
}

Status Explorer::EnsureComputed(const int32_t* key, const double** block) {
  // One presence probe at most: the next seed of a layer with no fill yet
  // is proven absent (SeedCellStates); anything else is looked up once.
  if (!(seeds_fresh_ && SeedAtCursor(key))) {
    if (const double* found = store_.Find(key)) {
      *block = found;
      return Status::OK();
    }
  }
  const size_t d = space_->d();
  const size_t w = store_.state_width();

  // Every coordinate on the dependency stack is absent when it pops, so no
  // pop is probed: it was pushed on a miss, and what is pushed above it and
  // stored before it pops is a sibling (another missing predecessor of the
  // same coordinate) or has a strictly smaller level sum.
  stack_.assign(key, key + d);
  while (!stack_.empty()) {
    cur_.assign(stack_.end() - d, stack_.end());
    stack_.resize(stack_.size() - d);
    // Every predecessor cur - e_j must be available first; probe each by
    // decrementing cur in place. The lookups double as the merge inputs: a
    // found block pointer stays valid through the merges below because
    // nothing appends to the store before then.
    bool missing = false;
    for (size_t j = 0; j < d; ++j) {
      pred_blocks_[j] = nullptr;
      if (cur_[j] == 0) continue;
      --cur_[j];
      const double* prev_block = nullptr;
      if (pred_lo_ < pred_hi_) {
        prev_block = FindPredInRange(j, cur_.data());
      } else if (shell_drain_) {
        prev_block = FindShellPred(j, cur_.data());
      }
      if (prev_block == nullptr) prev_block = store_.Find(cur_.data());
      if (prev_block != nullptr) {
        pred_blocks_[j] = prev_block;
      } else {
        if (!missing) {
          missing = true;
          ++cur_[j];
          // Revisit once the predecessors resolve.
          stack_.insert(stack_.end(), cur_.begin(), cur_.end());
          --cur_[j];
        }
        // The missing predecessor itself.
        stack_.insert(stack_.end(), cur_.begin(), cur_.end());
      }
      ++cur_[j];
    }
    if (missing) {
      // The fill may store a later seed of this layer ahead of its turn.
      seeds_fresh_ = false;
      continue;
    }

    // Algorithm 3. O_1 = the cell sub-query — taken from the batch seed
    // when one exists, executed for real otherwise; O_{i+1} via Eq. 17.
    double* states = scratch_.data();
    if (!TakeSeed(cur_.data(), states)) {
      ACQ_ASSIGN_OR_RETURN(AggregateOps::State cell,
                           layer_->EvaluateBox(space_->CellBox(cur_)));
      ++cell_queries_;
      if (cell.size() != w) return FlatAggregate::WidthError();
      std::copy(cell.begin(), cell.end(), states);
    }
    for (size_t i = 1; i <= d; ++i) {
      double* state = states + i * w;
      std::copy_n(state - w, w, state);
      const double* prev_block = pred_blocks_[i - 1];
      if (prev_block == nullptr) continue;  // O_i(u - e_{i-1}) is empty
      if (!flat_.Merge(state, prev_block + i * w)) {
        return FlatAggregate::WidthError();
      }
    }
    double* appended = store_.Append(cur_.data());
    std::copy(scratch_.begin(), scratch_.end(), appended);
    if (shell_drain_) NoteShellInsert();
    // `key` sits at the bottom of the dependency stack, so the append that
    // empties the stack is its own block.
    *block = appended;
  }
  return Status::OK();
}

BatchExplorer::BatchExplorer(const RefinedSpace* space, EvaluationLayer* layer,
                             QueryGenerator* generator, RunContext* ctx,
                             AggregateStore* store)
    : space_(space),
      layer_(layer),
      generator_(generator),
      explorer_(space, layer, ctx != nullptr ? &ctx->budget() : nullptr,
                store),
      replay_end_(explorer_.store().size()) {}

bool BatchExplorer::NextLayer() {
  Stopwatch sw;
  // The generator reuses layer_keys_' capacity, so steady-state layer
  // turnover allocates only when a layer outgrows the previous ones.
  const bool more = generator_->NextLayer(&layer_keys_, &layer_score_);
  expand_ms_ += sw.ElapsedMillis();
  layer_executed_ = false;
  return more;
}

Status BatchExplorer::ExecuteLayer() {
  Stopwatch sw;
  const size_t d = space_->d();
  const size_t n = layer_size();
  // Replay. A cold BFS or shell drive stores coordinates in generation
  // order, so when this layer's keys equal the kept entries at
  // [drained_total_, ...), one sequential compare proves them investigated:
  // the explorer hands their blocks out with no execution and no Eq. 17
  // combine. Only the part of the layer past the kept store's end runs. At
  // the first layer that differs (another order, norm or weights, or a
  // best-first store whose fills reordered it) the store is cut back to
  // the drained entries, which is exactly what a cold drive holds here.
  size_t replayed = 0;
  if (!layer_executed_ && drained_total_ < replay_end_) {
    const size_t kept = std::min(n, replay_end_ - drained_total_);
    if (std::equal(layer_keys_.data(), layer_keys_.data() + kept * d,
                   explorer_.store().KeyAt(drained_total_))) {
      replayed = kept;
      explorer_.ReplayStored(drained_total_, replayed);
    } else {
      explorer_.TruncateStore(drained_total_);
      replay_end_ = drained_total_;
    }
  }
  // Past the kept entries the store holds only handed-out coordinates
  // (predecessor fills resolve within the layers drained so far), so when
  // its size equals the count handed out before the rest of this layer,
  // nothing of that rest can be stored and it is used in place. Any
  // mismatch — a caller re-running or abandoning a layer, or exploring
  // around the drain — runs the per-coordinate filter, keeping "at most one
  // execution per coordinate" unconditional. Either way the seeds are
  // absent, which is what lets the drain append them without a probe.
  const bool in_sync = !layer_executed_ &&
                       explorer_.store().size() == drained_total_ + replayed;
  layer_executed_ = true;
  const int32_t* keys = layer_key(replayed);
  size_t count = n - replayed;
  if (!in_sync) {
    batch_.clear();
    for (size_t q = replayed; q < n; ++q) {
      const int32_t* key = layer_key(q);
      if (!explorer_.IsStored(key)) {
        batch_.insert(batch_.end(), key, key + d);
      }
    }
    keys = batch_.data();
    count = batch_.size() / d;
  }
  // In sync, store entries [drained_total_ - prev_layer_size_,
  // drained_total_) are exactly the previous layer in drain order — arm
  // the explorer's sequential predecessor cursors over that range. Shell
  // layers arm the growing-region shell cursors instead: their same-shell
  // predecessors live in the current layer's inserts, not the previous
  // layer's.
  if (in_sync && shell_hint_) {
    explorer_.BeginShellDrain(drained_total_);
  } else if (in_sync) {
    explorer_.BeginLayerDrain(drained_total_ - prev_layer_size_,
                              drained_total_);
  } else {
    explorer_.BeginLayerDrain(0, 0);
  }
  prev_layer_size_ = n;
  drained_total_ += n;
  explorer_.ReserveAdditional(count);
  batch_states_.clear();
  if (count > 0) {
    ACQ_RETURN_IF_ERROR(layer_->EvaluateCellKeys(keys, count, space_->step(),
                                                 &batch_states_));
  }
  explorer_.SeedCellStates(keys, count, &batch_states_);
  batch_ms_ += sw.ElapsedMillis();
  return Status::OK();
}

}  // namespace acquire
