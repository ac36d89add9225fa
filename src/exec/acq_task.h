#ifndef ACQUIRE_EXEC_ACQ_TASK_H_
#define ACQUIRE_EXEC_ACQ_TASK_H_

#include <string>
#include <vector>

#include "exec/aggregate.h"
#include "exec/backend.h"
#include "expr/refinement_dim.h"
#include "storage/table.h"

namespace acquire {

/// A fully planned Aggregation Constrained Query, the unit of work every
/// technique (ACQUIRE and the baselines) consumes.
///
/// `relation` is the materialized base relation: the joined tables with all
/// NOREFINE predicates applied and refinable predicates *removed* — it
/// contains every tuple any refinement could admit. `dims` are the axes of
/// the refined space; a tuple belongs to the refined query at PScore vector
/// p iff NeededPScore_i <= p_i for every dimension i.
struct AcqTask {
  TablePtr relation;
  std::vector<RefinementDimPtr> dims;
  AggregateSpec agg;
  Constraint constraint;
  /// Display forms of the NOREFINE predicates already folded into
  /// `relation` (used when rendering complete refined queries).
  std::vector<std::string> fixed_predicate_labels;
  /// FROM-clause table names of the original query (display only).
  std::vector<std::string> table_names;
  /// Which evaluation backend the driver should run this task on
  /// (index/backend_factory.h resolves it; kAuto lets the driver pick).
  EvalBackend eval_backend = EvalBackend::kAuto;

  /// Number of refinable predicates d (the refined-space dimensionality).
  size_t d() const { return dims.size(); }

  /// The aggregate-column value fed to AggregateOps::Add for `row`
  /// (0 for COUNT(*), whose Add ignores it).
  double AggValue(size_t row) const {
    return agg.col_index < 0
               ? 0.0
               : relation->column(static_cast<size_t>(agg.col_index))
                     .GetDouble(row);
  }

  /// AggValue of rows [begin, end) written to out[0, end - begin), the same
  /// bytes, as one typed loop over the aggregate column (zeros for
  /// COUNT(*)).
  void AggValues(size_t begin, size_t end, double* out) const;

  /// Human-readable description of the original (unrefined) query.
  std::string ToString() const;
};

}  // namespace acquire

#endif  // ACQUIRE_EXEC_ACQ_TASK_H_
