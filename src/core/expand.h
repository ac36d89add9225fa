#ifndef ACQUIRE_CORE_EXPAND_H_
#define ACQUIRE_CORE_EXPAND_H_

#include <queue>
#include <unordered_set>
#include <vector>

#include "core/refined_space.h"
#include "core/run_context.h"

namespace acquire {

/// The Expand phase (Section 4): produces the refined space one equi-score
/// layer at a time, in nondecreasing score order. Implementations guarantee
/// Theorem 2's property — every query of score k is produced before any
/// query of score > k — which the driver uses to stop as soon as the layer
/// containing the first hit is exhausted.
///
/// `ctx` (optional, not owned) is the run's context. Generation polls it
/// once per 256 coordinates and, once it says stop, cuts the layer it is
/// building short: from then on every layer may be a prefix of the full
/// one, so the caller polls the context too before it takes each layer
/// (BatchExplorer). BFS and best-first also meter their frontiers against
/// its budget.
class QueryGenerator {
 public:
  virtual ~QueryGenerator() = default;

  /// Writes the next layer into `keys` as d-strided grid levels in
  /// generation order, replacing its contents, and the layer's score into
  /// `score`: the BFS/shell layer index, or the exact QScore for the
  /// best-first generator. False once the space is exhausted.
  virtual bool NextLayer(std::vector<int32_t>* keys, double* score) = 0;
};

/// Algorithm 1: breadth-first search over the refined-space grid graph.
/// Layers are sets of constant coordinate sum; for the (default) L1 norm a
/// layer is exactly an equi-QScore plane.
///
/// The frontier needs no visited set: every coordinate u with sum k + 1 has
/// exactly one canonical predecessor, u minus one on its last nonzero
/// dimension, so generating cur + e_i only for i >= last_nonzero(cur)
/// produces each coordinate exactly once (the per-axis caps preserve this —
/// the canonical predecessor of an in-cap coordinate is itself in cap).
/// That keeps expansion allocation-free per coordinate: layers live in flat
/// d-strided int32 arenas pre-sized from the layer-cardinality estimate.
/// NextLayer expands the held layer k into the arena for layer k + 1, then
/// swaps layer k out to the caller, whose vector comes back as the next
/// arena — so a stop seen while expanding cuts layer k + 1, which the
/// following call hands out.
class BfsGenerator final : public QueryGenerator {
 public:
  /// In high dimensions a single BFS layer can dwarf the aggregate store, so
  /// arena growth past ctx's budget (or an injected "expand.layer_alloc"
  /// failpoint hit) latches budget exhaustion for the driver to observe.
  explicit BfsGenerator(const RefinedSpace* space, RunContext* ctx = nullptr);

  bool NextLayer(std::vector<int32_t>* keys, double* score) override;

 private:
  /// Charges layer-arena capacity growth since the last call.
  void ChargeGrowth();

  const RefinedSpace* space_;
  RunContext* ctx_;             // not owned; nullptr = no poll, untracked
  std::vector<int32_t> layer_;  // layer score_, d-strided, generation order
  std::vector<int32_t> next_;   // layer score_ + 1 while expanding
  double score_ = 0.0;
  size_t total_cells_ = 0;      // saturated grid cardinality (reserve cap)
  size_t charged_bytes_ = 0;    // arena capacity bytes already charged
};

/// Algorithm 2: explicit enumeration of the L-shaped equi-L∞ shells
/// max_i(u_i) = k, in increasing k, one shell per layer. Within a shell,
/// coordinates are grouped by the FIRST dimension pinned at k (dimensions
/// before the pin stay below k) and enumerated lexicographically; NextLayer
/// walks the groups in DESCENDING pin order (d-1 down to 0). That order
/// makes every shell topological for Eq. 17: a predecessor u - e_p of a
/// group-p coordinate either drops to shell k-1 or re-pins on a later
/// dimension (an earlier-emitted group), and a predecessor along a free
/// dimension is lexicographically earlier in the same group — so the
/// Explore phase's shell-drain cursors (Explorer::BeginShellDrain) always
/// find predecessors already stored, with no on-demand fills.
class ShellGenerator final : public QueryGenerator {
 public:
  explicit ShellGenerator(const RefinedSpace* space,
                          RunContext* ctx = nullptr);

  bool NextLayer(std::vector<int32_t>* keys, double* score) override;

 private:
  const RefinedSpace* space_;
  RunContext* ctx_;  // not owned; nullptr = no poll
  int32_t k_ = 0;    // the next shell
  int32_t max_shell_ = 0;
};

/// Best-first variant (an ablation, not in the paper): pops coordinates in
/// exact QScore order using a priority queue; a layer is a run of pops with
/// equal QScore. For non-L1 norms this visits strictly fewer queries than
/// BFS before the first hit, at the cost of a heap.
class BestFirstGenerator final : public QueryGenerator {
 public:
  /// Meters the heap + visited set against ctx's budget, since they grow
  /// with the explored frontier like the BFS layer arenas do.
  explicit BestFirstGenerator(const RefinedSpace* space,
                              RunContext* ctx = nullptr);

  bool NextLayer(std::vector<int32_t>* keys, double* score) override;

 private:
  struct Entry {
    double qscore;
    GridCoord coord;
    bool operator>(const Entry& other) const { return qscore > other.qscore; }
  };

  const RefinedSpace* space_;
  RunContext* ctx_;           // not owned; nullptr = no poll, untracked
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> heap_;
  std::unordered_set<GridCoord, GridCoordHash> seen_;
  size_t charged_coords_ = 0; // frontier coordinates already charged
};

}  // namespace acquire

#endif  // ACQUIRE_CORE_EXPAND_H_
