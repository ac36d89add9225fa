#include "index/backend_factory.h"

#include <algorithm>

#include "index/cell_sorted.h"

namespace acquire {

namespace {

double ResolveStep(const AcqTask& task, const BackendOptions& options) {
  if (options.grid_step > 0.0) return options.grid_step;
  return 10.0 / static_cast<double>(std::max<size_t>(task.d(), 1));
}

}  // namespace

Result<std::unique_ptr<EvaluationLayer>> MakeEvaluationLayer(
    const AcqTask* task, EvalBackend backend, const BackendOptions& options) {
  if (task == nullptr) {
    return Status::InvalidArgument("backend factory needs a task");
  }
  switch (backend) {
    case EvalBackend::kDirect:
      return std::unique_ptr<EvaluationLayer>(
          new DirectEvaluationLayer(task));
    case EvalBackend::kAuto:
    case EvalBackend::kCellSorted:
      return std::unique_ptr<EvaluationLayer>(new CellSortedEvaluationLayer(
          task, ResolveStep(*task, options)));
  }
  return Status::InvalidArgument("unknown evaluation backend");
}

}  // namespace acquire
