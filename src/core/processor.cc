#include "core/processor.h"

#include <algorithm>
#include <memory>
#include <vector>

#include "core/run_frame.h"
#include "index/backend_factory.h"

namespace acquire {

namespace {

BackendOptions BackendOptionsFor(const AcqTask& task,
                                 const AcquireOptions& options) {
  BackendOptions backend_options;
  backend_options.grid_step = GridStepFor(task, options);
  return backend_options;
}

// Adds `layer`'s index-build tallies to `stats`: the layer that answered
// the origin query did index work (a build, or on a reused layer folding
// appended rows in) even when the search ran on another layer or not
// at all.
void AddBuildStats(const EvaluationLayer& layer,
                   EvaluationLayer::ExecStats* stats) {
  const EvaluationLayer::ExecStats built = layer.stats();
  stats->prepare_ms += built.prepare_ms;
  stats->delta_rows += built.delta_rows;
  stats->delta_merges += built.delta_merges;
}

}  // namespace

double GridStepFor(const AcqTask& task, const AcquireOptions& options) {
  return options.gamma / static_cast<double>(std::max<size_t>(task.d(), 1));
}

const char* AcqModeToString(AcqMode mode) {
  switch (mode) {
    case AcqMode::kOriginalSatisfies:
      return "original-satisfies";
    case AcqMode::kExpanded:
      return "expanded";
    case AcqMode::kContracted:
      return "contracted";
  }
  return "?";
}

Result<AcqOutcome> ProcessAcq(const AcqTask& task, EvaluationLayer* layer,
                              const AcquireOptions& options,
                              AggregateStore* store) {
  ACQ_RETURN_IF_ERROR(CheckAcquireOptions(options));
  if (layer == nullptr || &layer->task() != &task) {
    return Status::InvalidArgument(
        "evaluation layer must wrap the same AcqTask");
  }
  const ErrorFn error_fn =
      options.error_fn ? options.error_fn : ErrorFn(DefaultAggregateError);

  // --- Step 1 (Figure 2): estimate Aactual of the original query. ---
  AcqOutcome outcome;
  std::vector<double> origin(task.d(), 0.0);
  ACQ_ASSIGN_OR_RETURN(outcome.original_aggregate,
                       layer->EvaluateQueryValue(origin));
  double origin_error = error_fn(task.constraint, outcome.original_aggregate);

  if (origin_error <= options.delta) {
    outcome.mode = AcqMode::kOriginalSatisfies;
    RefinedQuery q = MakeGridAnswer(
        RefinedSpace(&task, options.gamma, options.norm),
        GridCoord(task.d(), 0), outcome.original_aggregate, origin_error);
    outcome.result.satisfied = true;
    outcome.result.queries = {q};
    outcome.result.best = std::move(q);
    outcome.result.queries_explored = 1;
    AddBuildStats(*layer, &outcome.result.exec_stats);
    return outcome;
  }

  if (OvershootsBeyondDelta(task.constraint, outcome.original_aggregate,
                            options.delta)) {
    // --- Too many results: contraction mode (Section 7.2). ---
    outcome.mode = AcqMode::kContracted;
    ACQ_ASSIGN_OR_RETURN(AcqTask contraction, MakeContractionTask(task));
    outcome.contraction_task =
        std::make_shared<AcqTask>(std::move(contraction));
    ACQ_ASSIGN_OR_RETURN(
        std::unique_ptr<EvaluationLayer> contraction_layer,
        MakeEvaluationLayer(
            outcome.contraction_task.get(),
            outcome.contraction_task->eval_backend,
            BackendOptionsFor(*outcome.contraction_task, options)));
    ACQ_ASSIGN_OR_RETURN(
        outcome.result,
        RunAcquireContract(*outcome.contraction_task,
                           contraction_layer.get(), options));
    if (outcome.result.queries_explored == 0) {
      // Stopped before its first coordinate: the best so far is the
      // original query (c = 0), whose aggregate step 1 measured, as
      // RunAcquire answers the origin.
      const AcqTask& contracted = *outcome.contraction_task;
      std::vector<double> original(contracted.d());
      for (size_t i = 0; i < contracted.d(); ++i) {
        original[i] = contracted.dims[i]->MaxPScore();
      }
      RefinedQuery& best = outcome.result.best;
      best.pscores.assign(contracted.d(), 0.0);
      best.qscore = 0.0;
      best.aggregate = outcome.original_aggregate;
      best.error = origin_error;
      best.description =
          RefinedSpace(&contracted, options.gamma, options.norm)
              .DescribePScores(original);
    }
    AddBuildStats(*layer, &outcome.result.exec_stats);
    return outcome;
  }

  // --- Too few results: expansion (Algorithm 4). ---
  outcome.mode = AcqMode::kExpanded;
  ACQ_ASSIGN_OR_RETURN(outcome.result,
                       RunAcquire(task, layer, options, store));
  return outcome;
}

Result<AcqOutcome> ProcessAcq(const AcqTask& task,
                              const AcquireOptions& options) {
  ACQ_ASSIGN_OR_RETURN(
      std::unique_ptr<EvaluationLayer> layer,
      MakeEvaluationLayer(&task, task.eval_backend,
                          BackendOptionsFor(task, options)));
  return ProcessAcq(task, layer.get(), options);
}

}  // namespace acquire
