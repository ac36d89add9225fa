#ifndef ACQUIRE_CORE_EXPLORE_H_
#define ACQUIRE_CORE_EXPLORE_H_

#include <cstdint>
#include <vector>

#include "core/expand.h"
#include "core/refined_space.h"
#include "core/run_context.h"
#include "exec/evaluation.h"

namespace acquire {

/// Stores, per investigated grid query, the aggregate states of its d+1
/// sub-queries O_1..O_{d+1} (cell, pillar, wall, ..., block; Eqs. 5-8).
/// Only aggregate states are retained, never result tuples, exactly as in
/// Section 5.1.1.
///
/// Layout: entry e's key lives at keys_[e*d..] and its d+1 fixed-width
/// sub-aggregate states live contiguously at arena_[e*block_width..] — one
/// flat int32 array and one flat double array for the whole store. An
/// open-addressed (linear probing, power-of-two) slot table maps a key to
/// its entry, but lazily: Append never touches it, and the first Find after
/// some appends indexes them. A drain whose predecessors all resolve through
/// the explorer's sequential cursors never builds the table at all.
class AggregateStore {
 public:
  /// Must be called before any Append/Find. `state_width` is the fixed
  /// number of doubles per aggregate state (== ops.Init().size()).
  void Configure(size_t d, size_t state_width);

  /// Charges the store's capacity growth (keys, arena, slot table) against
  /// `budget` (not owned; may be nullptr). Growth past the budget — or an
  /// injected "explore.arena_grow" failpoint hit — latches the budget's
  /// exhausted flag; the store itself keeps functioning (soft enforcement,
  /// see MemoryBudget) so the driver can stop cleanly at its next poll.
  void set_budget(MemoryBudget* budget) { budget_ = budget; }

  /// Current reserved footprint in bytes (capacity, not size).
  size_t MemoryBytes() const {
    return keys_.capacity() * sizeof(int32_t) +
           arena_.capacity() * sizeof(double) +
           slots_.capacity() * sizeof(uint32_t);
  }

  /// Pre-sizes the key and state arrays for `coords` total entries. The
  /// slot table grows only when a Find needs it.
  void Reserve(size_t coords);

  /// The (d+1)*state_width doubles of the d-level key's sub-aggregates —
  /// state j (sub-query O_{j+1}) at offset j*state_width. nullptr when the
  /// coordinate has not been investigated. Indexes every entry appended
  /// since the previous Find first.
  const double* Find(const int32_t* key);

  /// Appends a new entry and returns its zero-initialized block. The key
  /// must be absent: Append never probes.
  double* Append(const int32_t* key);

  size_t size() const { return num_entries_; }
  size_t d() const { return d_; }
  size_t state_width() const { return state_width_; }
  size_t block_width() const { return block_width_; }

  /// Entry `e`'s key / block by insertion order (e < size()). Indices are
  /// stable until a Truncate below them; block pointers are stable until
  /// the next Append.
  const int32_t* KeyAt(size_t e) const { return keys_.data() + e * d_; }
  const double* BlockAt(size_t e) const {
    return arena_.data() + e * block_width_;
  }

  /// Drops entries [n, size()) and the slot table, which the next Find
  /// rebuilds over the entries kept. Capacity is kept.
  void Truncate(size_t n);

 private:
  /// Slot holding the key, or the empty slot where it would go.
  size_t ProbeSlot(const int32_t* key) const;
  /// Puts entry `e` (known absent from the table) into its first free slot.
  void IndexEntry(size_t e);
  /// Indexes entries [indexed_, size()), growing the table to keep its load
  /// factor under 3/4.
  void CatchUpIndex();
  /// Charges any capacity growth since the last call against budget_.
  void ChargeGrowth();

  size_t d_ = 0;
  size_t state_width_ = 0;
  size_t block_width_ = 0;  // (d + 1) * state_width
  size_t num_entries_ = 0;
  size_t indexed_ = 0;           // entries [0, indexed_) are in slots_
  std::vector<uint32_t> slots_;  // entry index + 1; 0 = empty
  std::vector<int32_t> keys_;    // num_entries * d, entry-major
  std::vector<double> arena_;    // num_entries * block_width
  MemoryBudget* budget_ = nullptr;  // not owned; nullptr = untracked
  size_t charged_bytes_ = 0;        // capacity bytes already charged
};

/// The Explore phase (Section 5): Incremental Aggregate Computation.
///
/// For each grid query only the cell sub-query O_1 is executed against the
/// evaluation layer; the remaining sub-aggregates follow from the
/// recurrence O_i(u) = O_{i-1}(u) + O_i(u - e_{i-1}) (Eq. 17) in d
/// constant-time merges, so a query is executed at most once no matter how
/// many refined queries contain it.
///
/// Algorithm 3 assumes predecessors were investigated first; BFS order
/// guarantees that (Theorem 3), and the shell generator's descending
/// pinned-group order makes every same-shell predecessor precede its
/// successors too, but best-first order can still request a coordinate
/// before an equal-score predecessor, so missing predecessors are filled
/// on demand (memoized, still at most one cell execution per coordinate).
///
/// BatchExplorer drives one, seeded with each layer's batch-executed cell
/// states. Unseeded, it executes every cell query on demand, one coordinate
/// at a time: Algorithm 3 as written, which the tests use as the reference.
class Explorer {
 public:
  /// `budget` (optional, not owned) meters the aggregate store's arena
  /// growth — see AggregateStore::set_budget. `store` (optional, not owned)
  /// is investigated into instead of the explorer's own and keeps the
  /// entries when the explorer goes: it must be empty or hold only entries
  /// computed on this layout over the same rows (a kept store; see
  /// BatchExplorer). One of another shape is cleared first.
  Explorer(const RefinedSpace* space, EvaluationLayer* layer,
           MemoryBudget* budget = nullptr, AggregateStore* store = nullptr);

  /// Detaches the budget from the store, which may outlive the run.
  ~Explorer() { store_.set_budget(nullptr); }

  Explorer(const Explorer&) = delete;
  Explorer& operator=(const Explorer&) = delete;

  /// Final aggregate value of the grid query whose d levels start at `key`
  /// (Algorithm 3).
  Result<double> ComputeAggregate(const int32_t* key);
  /// Same for a coordinate, which must have d levels (InvalidArgument).
  Result<double> ComputeAggregate(const GridCoord& coord);

  /// Records cell sub-query states that were already executed against the
  /// layer in a batch (EvaluateCellKeys): `count` d-strided keys and their
  /// flat O_1 states, state q at q * state_width. The states are swapped
  /// out of `states`, which gets the previous seed buffer back for reuse.
  /// ComputeAggregate consumes a seeded state instead of issuing the cell
  /// query again. Counts toward cell_queries() immediately — the layer did
  /// execute them. Already-investigated coordinates must not be seeded, so
  /// a request for the next unconsumed seed is appended without probing the
  /// store — up to the layer's first predecessor fill, which may store a
  /// later seed early (best-first orders can put an equal-score predecessor
  /// after its successor). Each call replaces the previous layer's seeds
  /// wholesale (fills never reach a later layer, so seeds are consumed
  /// within their own layer unless the search stops first).
  void SeedCellStates(const int32_t* keys, size_t count,
                      std::vector<double>* states);

  bool IsStored(const int32_t* key) { return store_.Find(key) != nullptr; }

  /// Pre-sizes the store for `additional` more coordinates.
  void ReserveAdditional(size_t additional) {
    store_.Reserve(store_.size() + additional);
  }

  /// Arms the layer-drain predecessor fast path: the coordinates about to
  /// be investigated form one equi-score layer whose Eq. 17 predecessors
  /// all live in store entries [lo, hi) (the previous layer). In a BFS
  /// drain both the layer and, per dimension j, its predecessor sequence
  /// u - e_j descend lexicographically, so d forward cursors over that
  /// contiguous entry range resolve predecessors with short sequential
  /// scans of warm memory instead of random hash probes. Any miss falls
  /// back to the hash table, so shell/best-first orders (and predecessor
  /// fills) stay correct — the cursors are a locality hint, never an
  /// authority. Pass lo == hi to disarm. Disarms any shell drain.
  void BeginLayerDrain(size_t lo, size_t hi);

  /// Arms the shell-order predecessor fast path instead: the layer being
  /// investigated is one L-inf shell whose same-shell predecessors live in
  /// the store region [lo, size()) that grows as the drain inserts. The
  /// shell generator emits pinned groups in descending pinned order (see
  /// ShellGenerator), each group ascending lexicographically, so d forward
  /// cursors over the current group resolve the same-group predecessors
  /// (every dimension but the pinned one) with warm sequential scans; a
  /// group restart is detected from the inserts themselves (a key ordering
  /// below its predecessor entry) and re-bases the cursors. Cross-group and
  /// previous-shell predecessors fall back to the hash table — the cursors
  /// only ever answer exact matches. Disarms any BFS layer drain.
  void BeginShellDrain(size_t lo);

  /// Arms the replay cursor: store entries [lo, lo + count) hold exactly
  /// the next `count` coordinates the caller will request, in order (the
  /// caller compared their keys). ComputeAggregate hands their blocks out
  /// without executing or merging anything. Counts toward cell_queries()
  /// and replayed() immediately, as the layer batch they replace would.
  void ReplayStored(size_t lo, size_t count);

  /// Cuts the store back to its first `n` entries (AggregateStore::Truncate)
  /// and disarms the replay cursor.
  void TruncateStore(size_t n);

  /// Cell queries the run accounts for: executed ones plus replayed ones,
  /// so it equals what a run without a kept store executes (store().size()
  /// past the kept entries plus any seeded-but-not-yet-consumed batch
  /// states). The layer's own query counter shows the physical work.
  uint64_t cell_queries() const { return cell_queries_; }

  /// Coordinates answered from kept store entries (ReplayStored).
  uint64_t replayed() const { return replayed_; }

  const AggregateStore& store() const { return store_; }

 private:
  /// Ensures store_ holds the sub-aggregates of `key` (iterative
  /// dependency-stack fill) and sets `block` to its stored block.
  Status EnsureComputed(const int32_t* key, const double** block);

  /// True when `key` is the first unconsumed seed. Layer drains consume
  /// seeds in seeding order, so this rolling cursor answers them without
  /// hashing.
  bool SeedAtCursor(const int32_t* key);
  /// Copies the seeded O_1 state of `key` into `out` (true) or leaves it
  /// untouched (false). Out-of-order consumption (shell/best-first
  /// predecessor fills) falls back to a lazily built probe table over the
  /// seed keys.
  bool TakeSeed(const int32_t* key, double* out);
  void BuildSeedIndex();

  /// Looks for `key` at or after pred_cursor_[j] within the armed entry
  /// range, advancing the cursor past entries that order above the key.
  /// nullptr on a miss (caller falls back to store_.Find).
  const double* FindPredInRange(size_t j, const int32_t* key);

  /// Shell-drain counterpart: looks for `key` at or after
  /// shell_cursor_[j] within the current pinned group's stored entries
  /// (ascending), skipping lex-smaller entries for good. nullptr on a miss.
  const double* FindShellPred(size_t j, const int32_t* key);
  /// Called after each insert while the shell drain is armed: a key that
  /// orders below the previous entry starts the next pinned group.
  void NoteShellInsert();

  const RefinedSpace* space_;
  EvaluationLayer* layer_;
  FlatAggregate flat_;  // the task's combine and final, resolved once
  AggregateStore own_store_;  // unused when the caller passes a store
  AggregateStore& store_;
  uint64_t cell_queries_ = 0;
  uint64_t replayed_ = 0;
  size_t replay_next_ = 0;  // next entry ReplayStored hands out
  size_t replay_end_ = 0;   // one past the last
  /// Batch-executed cell states awaiting their Eq. 17 merges, flat and
  /// replaced per layer with no per-coordinate allocation.
  std::vector<double> seed_states_;   // seed e's state at e * state_width
  std::vector<int32_t> seed_keys_;    // seed e's key at e * d
  std::vector<uint8_t> seed_taken_;   // 1 once seed e is consumed
  std::vector<uint32_t> seed_slots_;  // seed index + 1; 0 = empty
  size_t seed_cursor_ = 0;            // first possibly-unconsumed seed
  bool seed_index_built_ = false;     // seed_slots_ populated (lazy)
  bool seeds_fresh_ = false;          // no predecessor fill since seeding
  // Layer-drain predecessor cursors (see BeginLayerDrain).
  size_t pred_lo_ = 0;
  size_t pred_hi_ = 0;
  std::vector<size_t> pred_cursor_;  // per dimension, in [pred_lo_, pred_hi_]
  // Shell-drain predecessor cursors (see BeginShellDrain).
  bool shell_drain_ = false;
  size_t shell_lo_ = 0;        // first entry of the current shell
  size_t shell_group_lo_ = 0;  // first entry of the current pinned group
  std::vector<size_t> shell_cursor_;  // per dimension, >= shell_group_lo_
  // Reused scratch: the O_1..O_{d+1} states of the coordinate being
  // computed ((d + 1) * state_width doubles), the d-strided dependency
  // stack, the coordinate being computed, and the predecessor block
  // pointers found during the availability check (valid only until the
  // next store_ append).
  std::vector<double> scratch_;
  std::vector<int32_t> stack_;
  GridCoord cur_;
  std::vector<const double*> pred_blocks_;
};

/// The Explore driver: takes one equi-score layer at a time from the
/// Expand generator (QueryGenerator::NextLayer), executes all of the layer's
/// outstanding cell sub-queries in one EvaluateCellKeys batch (natively
/// merged or box by box, per the evaluation layer), then lets the caller run
/// Algorithm 3 over the layer's coordinates in generation order. The Eq. 17
/// predecessor merges stay sequential in that order, so aggregates are
/// bit-identical to an unseeded, one-coordinate-at-a-time Explorer
/// (Theorem 3's ordering is preserved; only O_1 executions are reordered,
/// and those are independent), and at every layer boundary so is the
/// cell-query count.
///
/// A store kept from an earlier run on the same layout and rows is replayed
/// instead of recomputed: every entry depends only on the layout, and runs in
/// one search order drain the same coordinate sequence, each stopping at a
/// different layer (see ExecuteLayer). Aggregates, cell_queries() at every
/// layer boundary and the store left behind are those of a cold drive.
class BatchExplorer {
 public:
  /// `ctx` (optional, not owned) supplies the memory budget that meters the
  /// explorer's store. The stop poll is not here: the generator polls the
  /// same context while it builds a layer and cuts the layer short once it
  /// says stop (QueryGenerator), and the driver polls it before it takes
  /// each layer, so at most a cut prefix of one layer is investigated
  /// before the run ends interrupted.
  /// `store` (optional, not owned) is the explorer's store (see Explorer):
  /// the entries it holds on entry are replayed, and it holds the drive's
  /// store afterwards.
  BatchExplorer(const RefinedSpace* space, EvaluationLayer* layer,
                QueryGenerator* generator, RunContext* ctx = nullptr,
                AggregateStore* store = nullptr);

  BatchExplorer(const BatchExplorer&) = delete;
  BatchExplorer& operator=(const BatchExplorer&) = delete;

  /// Has the generator build its next equi-score layer and hands it out.
  /// False once the space is exhausted. Does not execute anything.
  bool NextLayer();

  /// Score shared by every coordinate of the current layer.
  double layer_score() const { return layer_score_; }

  /// The current layer's coordinates in generation order: layer_size()
  /// keys of d levels each, one flat array.
  size_t layer_size() const { return layer_keys_.size() / space_->d(); }
  const int32_t* layer_key(size_t q) const {
    return layer_keys_.data() + q * space_->d();
  }

  /// Executes the cell sub-queries of every not-yet-investigated
  /// coordinate of the current layer in one batch and seeds the explorer;
  /// a prefix that matches the kept store is replayed instead.
  Status ExecuteLayer();

  /// Tells ExecuteLayer which predecessor fast path to arm on in-sync
  /// layers: the shell drain (BeginShellDrain) instead of the descending
  /// BFS window. Set once by the driver for shell search order.
  void set_shell_drain_hint(bool shell) { shell_hint_ = shell; }

  Explorer& explorer() { return explorer_; }

  /// Cumulative generator time (NextLayer) and batch execution time
  /// (ExecuteLayer), for per-phase driver stats.
  double expand_ms() const { return expand_ms_; }
  double batch_ms() const { return batch_ms_; }

 private:
  const RefinedSpace* space_;
  EvaluationLayer* layer_;
  QueryGenerator* generator_;
  Explorer explorer_;
  std::vector<int32_t> layer_keys_;  // d-strided, generation order
  bool layer_executed_ = false;      // ExecuteLayer ran on this layer
  double layer_score_ = 0.0;
  std::vector<int32_t> batch_;         // scratch: keys needing execution
  std::vector<double> batch_states_;   // scratch: their O_1 states
  size_t drained_total_ = 0;      // coords handed out in previous layers
  // Store entries [drained_total_, replay_end_) were kept from an earlier
  // run and not yet matched by a layer.
  size_t replay_end_ = 0;
  size_t prev_layer_size_ = 0;    // size of the layer drained before this one
  bool shell_hint_ = false;       // arm the shell drain on in-sync layers
  double expand_ms_ = 0.0;
  double batch_ms_ = 0.0;
};

}  // namespace acquire

#endif  // ACQUIRE_CORE_EXPLORE_H_
