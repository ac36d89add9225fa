#ifndef ACQUIRE_CORE_RUN_FRAME_H_
#define ACQUIRE_CORE_RUN_FRAME_H_

#include <optional>
#include <vector>

#include "common/stopwatch.h"
#include "core/acquire.h"

namespace acquire {

/// What RunAcquire and RunAcquireContract share around their search loops,
/// which stay apart because their hit, repartition, answer and stopping
/// rules differ. Internal to core/, not library API; defined in acquire.cc.
class RunFrame {
 public:
  RunFrame(const AcqTask& task, EvaluationLayer* layer,
           const AcquireOptions& options);

  /// Checks the options, that the task has dimensions and that the layer
  /// wraps it. Then resolves the run's context and budget, before Prepare so
  /// that the layer's materialization is charged to the run, prepares the
  /// layer, resets its query counters and starts the search stopwatch:
  /// elapsed_ms times the search itself.
  Status Begin();

  const RefinedSpace& space() const { return *space_; }
  const ErrorFn& error_fn() const { return error_fn_; }
  /// options.run_ctx, a local context for a budget-only run, or nullptr.
  RunContext* ctx() const { return ctx_; }
  AcquireResult& result() { return result_; }

  /// Cooperative interruption poll: true stops the search, with the reason
  /// in result().termination; the best-so-far is still returned.
  bool Interrupted();

  /// Layer-drain hook (RunContext::LayerDrained). When a frame emits, fills
  /// its elapsed_ms and the layer's counters, and `fill_best` adds the
  /// driver's best-so-far.
  template <typename FillBest>
  void LayerDrained(FillBest&& fill_best) {
    if (ctx_ == nullptr) return;
    ctx_->LayerDrained([&](ProgressSnapshot* snap) {
      snap->elapsed_ms = sw_.ElapsedMillis();
      fill_best(snap);
      const EvaluationLayer::ExecStats stats = layer_->stats();
      snap->eval_queries = stats.queries;
      snap->tuples_scanned = stats.tuples_scanned;
      snap->prepare_ms = stats.prepare_ms;
      snap->delta_rows = stats.delta_rows;
      snap->delta_merges = stats.delta_merges;
    });
  }

  /// The full-query states (RefinedSpace::QueryBox) of `count` grid keys of
  /// d levels each, one EvaluateBoxes batch; its time goes to explore_ms.
  Result<std::vector<AggregateOps::State>> EvaluateQueries(
      const int32_t* keys, size_t count);

  /// One full query at off-grid PScores: its aggregate value and error.
  struct Probe {
    std::vector<double> pscores;
    double value = 0.0;
    double error = 0.0;
  };

  /// Repartitioning of a cell that jumped across an equality target
  /// (Section 6): diagonal bisection between the cell's lower and upper
  /// PScore corners, options.repartition_iters full-query probes. The
  /// lowest-error probe when it is within delta, else none.
  Result<std::optional<Probe>> RepartitionCell(std::vector<double> lo,
                                               std::vector<double> hi);

  /// The epilogue: satisfied, answers sorted by QScore, the layer's
  /// ExecStats with the phase timings below, and elapsed_ms.
  AcquireResult Finish();

  /// Per-phase driver timings (ExecStats): generator, sub-query execution,
  /// and the per-coordinate drain.
  double expand_ms = 0.0;
  double explore_ms = 0.0;
  double merge_ms = 0.0;

 private:
  const AcqTask& task_;
  EvaluationLayer* layer_;
  const AcquireOptions& options_;
  const ErrorFn error_fn_;
  std::optional<RefinedSpace> space_;  // set by Begin
  RunContext local_ctx_;
  RunContext* ctx_ = nullptr;
  Stopwatch sw_;
  AcquireResult result_;
};

/// The answer at grid coordinate `coord` of `space`.
RefinedQuery MakeGridAnswer(const RefinedSpace& space, const GridCoord& coord,
                            double aggregate, double error);

}  // namespace acquire

#endif  // ACQUIRE_CORE_RUN_FRAME_H_
