#ifndef ACQUIRE_TESTS_TEST_UTIL_H_
#define ACQUIRE_TESTS_TEST_UTIL_H_

// Shared helpers for tests: small synthetic tasks with controllable
// dimensionality, aggregate and constraint, a generator drain, the
// reference Explore oracle, the reference cell grouping, a byte comparator
// for flat arrays, a comparator for server replies and seeded doubles for
// number-formatting checks.

#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "core/explore.h"
#include "core/norms.h"
#include "core/refined_space.h"
#include "exec/evaluation.h"
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
  std::string uda_name;  // a registered UDA when agg == kUda
  double bound = 30.0;  // per-dim predicate: c_i <= bound over [0, 100]
  uint64_t seed = 1;
};

// The first `limit` coordinates a generator over a d-dimensional space
// emits, in order, each with its layer's score.
inline std::vector<std::pair<GridCoord, double>> DrainCoords(
    QueryGenerator* gen, size_t d, size_t limit) {
  std::vector<std::pair<GridCoord, double>> out;
  std::vector<int32_t> keys;
  double score = 0.0;
  while (out.size() < limit && gen->NextLayer(&keys, &score)) {
    for (auto it = keys.begin(); it != keys.end() && out.size() < limit;
         it += d) {
      out.emplace_back(GridCoord(it, it + d), score);
    }
  }
  return out;
}

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
  spec.uda_name = options.uda_name;
  if (options.agg != AggregateKind::kCount) spec.agg_column = "val";
  spec.constraint_op = options.op;
  spec.target = options.target;
  auto task = PlanAcqTask(out->catalog, spec);
  if (!task.ok()) return nullptr;
  out->task = std::move(task).value();
  return out;
}

/// The reference Explore: an unseeded Explorer over a DirectEvaluationLayer.
/// It runs Algorithm 3 one coordinate at a time, executing each cell query
/// on demand as a fresh scan, so nothing it answers depends on batching,
/// seeding, drain cursors or an index. Any driver's aggregate at a grid
/// coordinate must equal its answer bit for bit.
class ExploreOracle {
 public:
  /// The grid of `task` at `gamma` under `norm`: the same space the run
  /// under test searches. `task` must outlive the oracle.
  ExploreOracle(const AcqTask* task, double gamma, const Norm& norm)
      : space_(task, gamma, norm), layer_(task), explorer_(&space_, &layer_) {}

  Result<double> Aggregate(const GridCoord& coord) {
    return explorer_.ComputeAggregate(coord);
  }

  /// Cell sub-queries the oracle has executed so far.
  uint64_t cell_queries() const { return explorer_.cell_queries(); }

 private:
  RefinedSpace space_;
  DirectEvaluationLayer layer_;
  Explorer explorer_;
};

/// The reference grouping of a task's rows into grid cells at `step`.
struct ReferenceLayout {
  std::map<GridCoord, AggregateOps::State> cells;  // lexicographic order
  size_t unreachable_rows = 0;
};

/// Groups `task`'s relation row by row: each row's cell from ComputeNeeded
/// and PScoreLevel, and each cell's state from ops.Init() and ops.Add over
/// its reachable rows in relation order. It shares no code with the
/// cell-sorted build, whose keys, states and unreachable count must equal
/// it byte for byte.
inline ReferenceLayout ReferenceCellLayout(const AcqTask& task, double step) {
  ReferenceLayout out;
  const AggregateOps& ops = *task.agg.ops;
  std::vector<double> needed;
  for (size_t row = 0; row < task.relation->num_rows(); ++row) {
    ComputeNeeded(task, row, &needed);
    GridCoord coord(task.d());
    bool reachable = true;
    for (size_t i = 0; i < task.d() && reachable; ++i) {
      const int64_t level = PScoreLevel(needed[i], step);
      reachable = level >= 0;
      coord[i] = static_cast<int32_t>(level);
    }
    if (!reachable) {
      ++out.unreachable_rows;
      continue;
    }
    auto [cell, inserted] = out.cells.try_emplace(coord);
    if (inserted) cell->second = ops.Init();
    ops.Add(&cell->second, task.AggValue(row));
  }
  return out;
}

/// True when `a` and `b` hold the same elements byte for byte (memcmp, so
/// signed zeros and NaN payloads count).
template <typename T>
bool SameBytes(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
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

/// `count` seeded doubles for number-formatting identity checks: specials
/// (signed zeros, infinities, NaN, the extremes, 999999999999999.9), every
/// 0.125 step within 10 of +-1e15, 50 ulp neighbours of three values in
/// each of 40 decades, then one part denormals, two parts short decimals
/// (the shape of most aggregates and predicate bounds) and one part random
/// bit patterns.
inline std::vector<double> NumberProbes(uint64_t seed, size_t count) {
  using Limits = std::numeric_limits<double>;
  std::vector<double> out = {
      0.0, -0.0, Limits::infinity(), -Limits::infinity(), Limits::quiet_NaN(),
      -Limits::quiet_NaN(), Limits::denorm_min(), Limits::min(), Limits::max(),
      Limits::lowest(), Limits::epsilon(), 999999999999999.9,
      -999999999999999.9, 0.1, 1.0 / 3.0};
  for (double center : {1e15, -1e15}) {
    for (int k = -80; k <= 80; ++k) out.push_back(center + k * 0.125);
  }
  Rng rng(seed);
  for (int e = -20; e < 20; ++e) {
    const double decade = std::pow(10.0, e);
    const double third = rng.NextDouble(1.0, 10.0) * decade;
    for (double v : {decade, 1.5 * decade, third}) {
      double up = v;
      double down = v;
      for (int k = 0; k < 50; ++k) {
        out.push_back(up);
        out.push_back(-down);
        up = std::nextafter(up, Limits::infinity());
        down = std::nextafter(down, 0.0);
      }
    }
  }
  while (out.size() < count) {
    const uint64_t bits = rng.Next();
    switch (rng.NextBounded(4)) {
      case 0:  // zero exponent: a denormal
        out.push_back(std::bit_cast<double>(bits & 0x800FFFFFFFFFFFFFULL));
        break;
      case 1:
      case 2:
        out.push_back(static_cast<double>(rng.NextInt(-10000000, 10000000)) /
                      std::pow(10.0, static_cast<double>(rng.NextInt(0, 8))));
        break;
      default:
        out.push_back(std::bit_cast<double>(bits));
    }
  }
  return out;
}

}  // namespace test_util
}  // namespace acquire

#endif  // ACQUIRE_TESTS_TEST_UTIL_H_
