#ifndef ACQUIRE_CORE_PROCESSOR_H_
#define ACQUIRE_CORE_PROCESSOR_H_

#include <memory>

#include "core/acquire.h"
#include "core/contract.h"

namespace acquire {

/// How ProcessAcq resolved an ACQ (Figure 2's control flow).
enum class AcqMode {
  kOriginalSatisfies,  // step 1: Aactual already within delta of Aexp
  kExpanded,           // undershoot: ACQUIRE expansion (Algorithm 4)
  kContracted,         // overshoot of an equality target: Section 7.2
};

const char* AcqModeToString(AcqMode mode);

struct AcqOutcome {
  AcqMode mode = AcqMode::kOriginalSatisfies;
  /// Aactual of the original (unrefined) query, measured in step 1.
  double original_aggregate = 0.0;
  /// Search outcome. For kOriginalSatisfies it holds the original query as
  /// the single (zero-refinement) answer.
  AcquireResult result;
  /// Set when mode == kContracted: the transformed task whose dimensions
  /// the result's coordinates refer to (needed e.g. to materialize).
  std::shared_ptr<AcqTask> contraction_task;
};

/// The refined-space grid step a run of `task` under `options` cuts cells
/// at (gamma / d); cell-sorted layers are built at this step so the
/// cell-aligned fast paths fire.
double GridStepFor(const AcqTask& task, const AcquireOptions& options);

/// The system front door (Figure 2): estimate the original query's
/// aggregate value; if it already meets the constraint within
/// options.delta, return it; if it undershoots, run ACQUIRE expansion on
/// `layer`; if it overshoots an equality target, build the contraction
/// task (Section 7.2) and search contractions instead (over a layer of the
/// task's backend built for the contraction task, since `layer` wraps the
/// expansion task).
/// The result's build tallies (ExecStats prepare_ms, delta_rows,
/// delta_merges) include `layer`'s in every mode, since it answered the
/// origin query. `store` (optional, in/out) is handed to RunAcquire on
/// expansion and left untouched otherwise.
Result<AcqOutcome> ProcessAcq(const AcqTask& task, EvaluationLayer* layer,
                              const AcquireOptions& options = {},
                              AggregateStore* store = nullptr);

/// Backend-driven front door: constructs the evaluation layer the task
/// asks for (task.eval_backend via index/backend_factory.h, grid step
/// options.gamma / d so cell-aligned fast paths fire) and runs ProcessAcq
/// on it. This is what the SQL shell and drivers call.
Result<AcqOutcome> ProcessAcq(const AcqTask& task,
                              const AcquireOptions& options = {});

}  // namespace acquire

#endif  // ACQUIRE_CORE_PROCESSOR_H_
