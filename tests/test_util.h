#ifndef ACQUIRE_TESTS_TEST_UTIL_H_
#define ACQUIRE_TESTS_TEST_UTIL_H_

// Shared helpers for tests: small synthetic tasks with controllable
// dimensionality, aggregate and constraint, and a comparator for server
// replies.

#include <memory>

#include "common/random.h"
#include "exec/planner.h"
#include "server/json.h"
#include "storage/catalog.h"

namespace acquire {
namespace test_util {

struct SyntheticTask {
  Catalog catalog;  // owns the data; must outlive `task`
  AcqTask task;
};

struct SyntheticOptions {
  size_t rows = 2000;
  size_t d = 2;  // at most 5
  double target = 100.0;
  ConstraintOp op = ConstraintOp::kEq;
  AggregateKind agg = AggregateKind::kCount;
  double bound = 30.0;  // per-dim predicate: c_i <= bound over [0, 100]
  uint64_t seed = 1;
};

// A d-predicate COUNT/SUM/... task over a uniform table: columns c0..c4 in
// [0, 100], aggregate column "val" in [0, 1000].
inline std::unique_ptr<SyntheticTask> MakeSyntheticTask(
    const SyntheticOptions& options) {
  auto out = std::make_unique<SyntheticTask>();
  std::vector<Field> fields;
  for (size_t i = 0; i < 5; ++i) {
    fields.push_back({"c" + std::to_string(i), DataType::kDouble, ""});
  }
  fields.push_back({"val", DataType::kDouble, ""});
  auto table = std::make_shared<Table>("data", Schema(std::move(fields)));
  Rng rng(options.seed);
  table->ReserveRows(options.rows);
  for (size_t r = 0; r < options.rows; ++r) {
    for (size_t c = 0; c < 5; ++c) {
      table->mutable_column(c).AppendDouble(rng.NextDouble(0.0, 100.0));
    }
    table->mutable_column(5).AppendDouble(rng.NextDouble(0.0, 1000.0));
  }
  if (!table->FinalizeAppend().ok()) return nullptr;
  if (!out->catalog.AddTable(table).ok()) return nullptr;

  QuerySpec spec;
  spec.tables = {"data"};
  for (size_t i = 0; i < options.d; ++i) {
    spec.predicates.push_back(SelectPredicateSpec{
        "c" + std::to_string(i), CompareOp::kLe, options.bound, true, 1.0,
        {}});
  }
  spec.agg_kind = options.agg;
  if (options.agg != AggregateKind::kCount) spec.agg_column = "val";
  spec.constraint_op = options.op;
  spec.target = options.target;
  auto task = PlanAcqTask(out->catalog, spec);
  if (!task.ok()) return nullptr;
  out->task = std::move(task).value();
  return out;
}

/// Recursively drops the fields that legitimately differ between two runs
/// of the same task: the session id and wall-clock timings. Everything
/// else — mode, termination, aggregates, errors, rendered SQL, counters —
/// must match to the byte.
inline JsonValue StripIdAndTiming(const JsonValue& value) {
  if (value.is_object()) {
    JsonValue out = JsonValue::Object();
    for (const auto& [key, member] : value.Members()) {
      if (key == "id" || key == "elapsed_ms" || key == "wall_ms") continue;
      out.Set(key, StripIdAndTiming(member));
    }
    return out;
  }
  if (value.is_array()) {
    JsonValue out = JsonValue::Array();
    for (const JsonValue& element : value.AsArray()) {
      out.Append(StripIdAndTiming(element));
    }
    return out;
  }
  return value;
}

}  // namespace test_util
}  // namespace acquire

#endif  // ACQUIRE_TESTS_TEST_UTIL_H_
