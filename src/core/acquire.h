#ifndef ACQUIRE_CORE_ACQUIRE_H_
#define ACQUIRE_CORE_ACQUIRE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/error_fn.h"
#include "core/expand.h"
#include "core/explore.h"
#include "core/norms.h"
#include "core/refined_query.h"
#include "core/run_context.h"
#include "exec/evaluation.h"

namespace acquire {

/// Which Expand-phase generator drives the search.
enum class SearchOrder {
  kAuto,       // shells for the L-infinity norm, BFS otherwise (the paper)
  kBfs,        // Algorithm 1
  kShell,      // Algorithm 2
  kBestFirst,  // exact-QScore priority order (ablation; not in the paper)
};

/// Tunables of Algorithm 4 plus the extensions of Section 7.
struct AcquireOptions {
  /// Refinement threshold gamma (Definition 1b): answers are guaranteed
  /// within gamma of the optimal QScore; grid step = gamma / d (Theorem 1).
  double gamma = 10.0;

  /// Aggregate error threshold delta (Definition 1a).
  double delta = 0.05;

  /// Norm for QScore (Eq. 3); dimension weights come from the task's dims.
  Norm norm = Norm::L1();

  SearchOrder order = SearchOrder::kAuto;

  /// Repartitioning depth b for cells that overshoot an equality constraint
  /// (Section 6); 0 disables repartitioning.
  int repartition_iters = 8;

  /// Keep exploring past the first hit layer and return every answer whose
  /// QScore is within gamma of the best (Definition 1b's full answer set);
  /// off by default, matching Algorithm 4, which stops with the hit layer.
  bool collect_within_gamma = false;

  /// Incremental Aggregate Computation on/off (ablation). When off, every
  /// grid query is fully re-executed against the evaluation layer.
  bool use_incremental = true;

  /// Hard cap on investigated grid queries (safety valve).
  uint64_t max_explored = 2'000'000;

  /// Soft cap on the search-side working set (aggregate-store arena plus
  /// expand layer arenas), in bytes; 0 = unlimited. Enforcement is
  /// cooperative (see MemoryBudget): the run stops at the next poll after
  /// growth crosses the limit and returns termination = kResourceExhausted
  /// with the best-so-far partial answer — never an allocation failure.
  /// When run_ctx is provided its budget is used (and this limit is applied
  /// to it if the context has none); otherwise an internal context is used.
  uint64_t memory_budget_bytes = 0;

  /// After this many consecutive completed layers whose best error got
  /// strictly worse, the search concludes the aggregate is diverging from
  /// the target (e.g. the origin already overshot an equality constraint)
  /// and stops. Needed because UDAs make monotonicity unknowable in
  /// general. Applies to the discrete-layer generators (BFS, shell).
  int divergence_patience = 3;

  /// Hard stall guard for every search order: stop when this many grid
  /// queries in a row failed to improve the best error seen so far.
  uint64_t stall_limit = 100000;

  /// Aggregate error function; DefaultAggregateError when unset.
  ErrorFn error_fn;

  /// Optional cooperative deadline / cancellation token (core/run_context.h).
  /// Not owned; must outlive the run. When set, the drivers poll it once per
  /// layer (and the Expand generators once per 256 coordinates they
  /// generate) and stop early with AcquireResult::termination =
  /// kDeadlineExceeded / kCancelled, returning the best-so-far partial
  /// result instead of an error.
  RunContext* run_ctx = nullptr;
};

/// InvalidArgument unless gamma is finite and positive and delta is finite
/// and non-negative. ProcessAcq, RunAcquire and RunAcquireContract check
/// this before anything else, and so does the server before it admits a
/// SUBMIT.
Status CheckAcquireOptions(const AcquireOptions& options);

/// The order `options` searches in: kAuto resolved to shells for the
/// L-infinity norm and BFS otherwise; never kAuto.
SearchOrder ResolveSearchOrder(const AcquireOptions& options);

/// The Expand generator RunAcquire drives for `options` over `space` (not
/// owned; must outlive the generator). `ctx` (optional, not owned) is the
/// run's context: generation polls it, and its budget meters the BFS and
/// best-first frontiers (QueryGenerator).
std::unique_ptr<QueryGenerator> MakeQueryGenerator(
    const RefinedSpace* space, const AcquireOptions& options,
    RunContext* ctx = nullptr);

/// Outcome of one ACQUIRE run.
struct AcquireResult {
  /// Refined queries meeting the constraint within delta, sorted by QScore.
  /// Per Algorithm 4 these are all hits in the first layer containing one
  /// (plus any repartitioned answers), or the full within-gamma set when
  /// collect_within_gamma is on.
  std::vector<RefinedQuery> queries;

  /// False when the space was exhausted (or a stopping rule fired) without
  /// reaching the constraint; `best` then carries the closest query found.
  bool satisfied = false;

  /// Why the search stopped. kCompleted covers the search's own stopping
  /// rules (hit layer exhausted, space exhausted, divergence/stall);
  /// kTruncated means options.max_explored ran out — i.e. "budget
  /// exhausted", not "no answer" — and kDeadlineExceeded / kCancelled /
  /// kResourceExhausted mean the run context (deadline, cancellation, or
  /// memory budget) interrupted the run, with everything below holding the
  /// best-so-far partial answer.
  RunTermination termination = RunTermination::kCompleted;

  /// Closest query found overall (minimum error, ties by QScore).
  RefinedQuery best;

  uint64_t queries_explored = 0;  // grid queries investigated

  /// Cell sub-queries the search accounts for: what a run without a kept
  /// store executes. Explore executes a whole layer at a time, so a run
  /// that stops mid-layer counts the rest of that layer too. Coordinates
  /// replayed from a kept store count as the layer batch they replace
  /// would; exec_stats.queries is the physical count.
  uint64_t cell_queries = 0;

  /// Coordinates answered from a kept aggregate store (RunAcquire's
  /// `store`) instead of executed and merged; part of cell_queries.
  uint64_t store_replayed = 0;

  /// Evaluation-layer counters plus the driver's per-phase timings
  /// (expand_ms / explore_ms / merge_ms; see ExecStats).
  EvaluationLayer::ExecStats exec_stats;

  /// Monotonic wall time of the search itself (steady clock), excluding
  /// EvaluationLayer::Prepare so runs against pre-prepared and lazily
  /// prepared layers report comparable numbers.
  double elapsed_ms = 0.0;
};

/// Runs ACQUIRE (Algorithm 4) for `task` against `layer`.
///
/// The evaluation layer is modular (Section 3): pass a
/// DirectEvaluationLayer to model per-query DBMS execution, or a
/// CellSortedEvaluationLayer (Section 7.4's grid index) for O(log cells)
/// cell queries. The layer must wrap the same task.
///
/// `store` (optional, in/out, not owned) is the Eq. 17 aggregate store the
/// search investigates into. It must be empty or hold a store an earlier
/// run built on this layout over the same rows; those entries are replayed
/// (BatchExplorer), and afterwards it holds this run's store for the next.
/// The result is byte-identical to a run without one. The run's memory
/// budget meters the store's growth during the run only.
Result<AcquireResult> RunAcquire(const AcqTask& task, EvaluationLayer* layer,
                                 const AcquireOptions& options = {},
                                 AggregateStore* store = nullptr);

}  // namespace acquire

#endif  // ACQUIRE_CORE_ACQUIRE_H_
