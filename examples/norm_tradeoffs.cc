// Section 7.1 in action: how the choice of QScore norm and per-predicate
// weights steers *which* refinement ACQUIRE recommends for the same task.
//   - L1 minimizes total refinement (may pile it all on one predicate),
//   - L-infinity minimizes the worst single predicate's refinement
//     (spreads the change evenly),
//   - weights make individual predicates reluctant to move.
//
// Run:  ./build/examples/norm_tradeoffs

#include <cstdio>

#include "acquire.h"
#include "core/report.h"

using namespace acquire;  // NOLINT — brevity in example code

namespace {

void RunWith(const char* label, const AcqTask& task_template,
             const Catalog& catalog, Norm norm, double weight0) {
  // Re-plan per run: dims carry weights and the driver mutates nothing,
  // but separate tasks keep the runs independent.
  QuerySpec spec;
  spec.tables = {"lineitem"};
  spec.predicates.push_back(SelectPredicateSpec{
      "l_quantity", CompareOp::kLe, 10.0, true, weight0, {}});
  spec.predicates.push_back(SelectPredicateSpec{
      "l_shipdays", CompareOp::kLe, 500.0, true, 1.0, {}});
  spec.agg_kind = AggregateKind::kCount;
  spec.constraint_op = ConstraintOp::kEq;
  spec.target = task_template.constraint.target;
  auto task = PlanAcqTask(catalog, spec);
  if (!task.ok()) {
    fprintf(stderr, "%s\n", task.status().ToString().c_str());
    return;
  }
  task->constraint.target = task_template.constraint.target;

  AcquireOptions options;
  options.norm = norm;
  options.order = SearchOrder::kBestFirst;  // exact order for every norm
  options.delta = 0.05;
  CellSortedEvaluationLayer layer(&*task, GridStepFor(*task, options));
  auto result = RunAcquire(*task, &layer, options);
  if (!result.ok() || !result->satisfied) {
    printf("%s: no answer\n", label);
    return;
  }
  printf("--- %s ---\n%s\n", label,
         RefinementReport(*task, result->queries.front()).c_str());
}

}  // namespace

int main() {
  Catalog catalog;
  TpchOptions tpch;
  tpch.lineitems = 50000;
  if (Status s = GenerateTpch(tpch, &catalog); !s.ok()) {
    fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }

  // Fix the target once so every configuration chases the same constraint.
  QuerySpec probe_spec;
  probe_spec.tables = {"lineitem"};
  probe_spec.predicates.push_back(SelectPredicateSpec{
      "l_quantity", CompareOp::kLe, 10.0, true, 1.0, {}});
  probe_spec.predicates.push_back(SelectPredicateSpec{
      "l_shipdays", CompareOp::kLe, 500.0, true, 1.0, {}});
  probe_spec.agg_kind = AggregateKind::kCount;
  probe_spec.target = 1.0;
  auto probe_task = PlanAcqTask(catalog, probe_spec);
  if (!probe_task.ok()) {
    fprintf(stderr, "%s\n", probe_task.status().ToString().c_str());
    return 1;
  }
  DirectEvaluationLayer probe(&*probe_task);
  double base = probe.EvaluateQueryValue({0.0, 0.0}).value_or(0.0);
  probe_task->constraint.target = base * 2.5;
  printf("Task: COUNT %g -> %g (both predicates refinable)\n\n", base,
         probe_task->constraint.target);

  RunWith("L1 (minimize total refinement)", *probe_task, catalog, Norm::L1(),
          1.0);
  RunWith("L-infinity (minimize the worst predicate)", *probe_task, catalog,
          Norm::LInf(), 1.0);
  RunWith("L1, l_quantity weighted 5x (keep quantity tight)", *probe_task,
          catalog, Norm::L1(), 5.0);
  return 0;
}
