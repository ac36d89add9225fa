#ifndef ACQUIRE_EXEC_AGGREGATE_H_
#define ACQUIRE_EXEC_AGGREGATE_H_

#include <algorithm>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "storage/schema.h"

namespace acquire {

/// Aggregates supported directly. AVG decomposes into SUM and COUNT
/// (Section 2.6); kUda is a user-defined aggregate registered with
/// UdaRegistry and required to satisfy the Optimal Substructure Property.
enum class AggregateKind { kCount, kSum, kMin, kMax, kAvg, kUda };

const char* AggregateKindToString(AggregateKind kind);

/// Comparison operator of the CONSTRAINT clause. The paper focuses on
/// expansion, so only =, >= and > are admitted (Section 2.1).
enum class ConstraintOp { kEq, kGe, kGt };

const char* ConstraintOpToString(ConstraintOp op);

/// Type-erased OSP aggregate: states of disjoint tuple sets can be merged
/// into the state of their union without revisiting tuples. This is exactly
/// the property (Section 2.6) that makes the Explore phase's sub-query
/// recurrences (Eq. 17) valid.
class AggregateOps {
 public:
  /// Small inline state; e.g. {count}, {sum}, {min}, or {sum, count} for AVG.
  using State = std::vector<double>;

  virtual ~AggregateOps() = default;

  /// Identity state (aggregate of the empty set).
  virtual State Init() const = 0;

  /// Folds one tuple's aggregate-column value into `state`. COUNT ignores
  /// `value`.
  virtual void Add(State* state, double value) const = 0;

  /// OSP combine: `state` becomes the aggregate of the union of the two
  /// disjoint tuple sets.
  virtual void Merge(State* state, const State& other) const = 0;

  /// Final scalar (e.g. sum/count for AVG). Empty-set conventions: COUNT
  /// and SUM yield 0, MIN/MAX yield +/-infinity, AVG yields 0.
  virtual double Final(const State& state) const = 0;

  virtual const char* name() const = 0;
};

/// Built-in OSP implementations; singletons with static lifetime.
const AggregateOps& CountOps();
const AggregateOps& SumOps();
const AggregateOps& MinOps();
const AggregateOps& MaxOps();
const AggregateOps& AvgOps();

/// Resolves a non-UDA kind to its ops.
const AggregateOps& GetBuiltinOps(AggregateKind kind);

/// The OSP operations of one aggregate over flat states: each state is
/// width() contiguous doubles. The built-in COUNT/SUM/MIN/MAX/AVG resolve
/// once, at construction, to non-virtual inline code over raw doubles with
/// the exact operand order of their AggregateOps (so results stay
/// bit-identical); a UDA keeps its virtuals, round-tripping through a
/// temporary State. Fold and Merge return false when a UDA changed the
/// state's width, which a flat buffer cannot hold.
class FlatAggregate {
 public:
  explicit FlatAggregate(const AggregateOps& ops);

  /// The error a flat buffer raises for a state of the wrong width.
  static Status WidthError() {
    return Status::Internal("aggregate state width differs from ops.Init()");
  }

  size_t width() const { return width_; }

  /// Writes the identity state.
  void Init(double* state) const {
    switch (kind_) {
      case Kind::kMin:
        state[0] = std::numeric_limits<double>::infinity();
        return;
      case Kind::kMax:
        state[0] = -std::numeric_limits<double>::infinity();
        return;
      case Kind::kAvg:
        state[1] = 0.0;
        [[fallthrough]];
      case Kind::kCount:
      case Kind::kSum:
        state[0] = 0.0;
        return;
      case Kind::kUda:
        InitUda(state);
        return;
    }
  }

  /// Folds `count` values, value_at(0) .. value_at(count - 1), in order.
  template <typename ValueAt>
  bool Fold(double* state, size_t count, ValueAt value_at) const {
    switch (kind_) {
      case Kind::kCount:
        for (size_t k = 0; k < count; ++k) state[0] += 1.0;
        return true;
      case Kind::kSum:
        for (size_t k = 0; k < count; ++k) state[0] += value_at(k);
        return true;
      case Kind::kMin:
        for (size_t k = 0; k < count; ++k) {
          state[0] = std::min(state[0], value_at(k));
        }
        return true;
      case Kind::kMax:
        for (size_t k = 0; k < count; ++k) {
          state[0] = std::max(state[0], value_at(k));
        }
        return true;
      case Kind::kAvg:
        for (size_t k = 0; k < count; ++k) {
          state[0] += value_at(k);
          state[1] += 1.0;
        }
        return true;
      case Kind::kUda:
        break;
    }
    AggregateOps::State uda(state, state + width_);
    for (size_t k = 0; k < count; ++k) ops_->Add(&uda, value_at(k));
    return StoreUda(uda, state);
  }

  /// Folds a contiguous run of values.
  bool FoldRange(double* state, const double* values, size_t count) const {
    return Fold(state, count, [values](size_t k) { return values[k]; });
  }

  /// OSP combine: `state` becomes the aggregate of the union.
  bool Merge(double* state, const double* other) const {
    switch (kind_) {
      case Kind::kCount:
      case Kind::kSum:
        state[0] += other[0];
        return true;
      case Kind::kMin:
        state[0] = std::min(state[0], other[0]);
        return true;
      case Kind::kMax:
        state[0] = std::max(state[0], other[0]);
        return true;
      case Kind::kAvg:
        state[0] += other[0];
        state[1] += other[1];
        return true;
      case Kind::kUda:
        break;
    }
    return MergeUda(state, other);
  }

  double Final(const double* state) const {
    switch (kind_) {
      case Kind::kCount:
      case Kind::kSum:
      case Kind::kMin:
      case Kind::kMax:
        return state[0];
      case Kind::kAvg:
        return state[1] == 0.0 ? 0.0 : state[0] / state[1];
      case Kind::kUda:
        break;
    }
    return ops_->Final(AggregateOps::State(state, state + width_));
  }

 private:
  enum class Kind { kCount, kSum, kMin, kMax, kAvg, kUda };

  void InitUda(double* state) const;
  bool MergeUda(double* state, const double* other) const;
  /// Copies a UDA state back into its flat slot; false on a width change.
  bool StoreUda(const AggregateOps::State& uda, double* state) const;

  const AggregateOps* ops_;
  Kind kind_ = Kind::kUda;
  size_t width_ = 0;
};

/// AggregateOps assembled from lambdas; the easiest way to define a UDA.
class LambdaAggregateOps final : public AggregateOps {
 public:
  LambdaAggregateOps(std::string name, State init,
                     std::function<void(State*, double)> add,
                     std::function<void(State*, const State&)> merge,
                     std::function<double(const State&)> final_fn);

  State Init() const override { return init_; }
  void Add(State* state, double value) const override { add_(state, value); }
  void Merge(State* state, const State& other) const override {
    merge_(state, other);
  }
  double Final(const State& state) const override { return final_(state); }
  const char* name() const override { return name_.c_str(); }

 private:
  std::string name_;
  State init_;
  std::function<void(State*, double)> add_;
  std::function<void(State*, const State&)> merge_;
  std::function<double(const State&)> final_;
};

/// Process-wide registry for user-defined OSP aggregates.
class UdaRegistry {
 public:
  static UdaRegistry& Instance();

  Status Register(std::unique_ptr<AggregateOps> ops);
  Result<const AggregateOps*> Lookup(const std::string& name) const;

 private:
  UdaRegistry() = default;
  std::vector<std::unique_ptr<AggregateOps>> udas_;
};

/// The CONSTRAINT clause: AGG(column) op target (Section 2.1). Bind()
/// resolves the column against the base relation's schema.
struct AggregateSpec {
  AggregateKind kind = AggregateKind::kCount;
  std::string column;    // empty for COUNT(*)
  std::string uda_name;  // set when kind == kUda

  // Filled by Bind().
  const AggregateOps* ops = nullptr;
  int col_index = -1;  // -1 for COUNT(*)

  Status Bind(const Schema& schema);

  /// e.g. "SUM(ps_availqty)" or "COUNT(*)".
  std::string ToString() const;
};

/// Target side of the CONSTRAINT clause.
struct Constraint {
  ConstraintOp op = ConstraintOp::kEq;
  double target = 0.0;  // Aexp

  /// True when `actual` satisfies the comparison exactly (before applying
  /// the delta tolerance, which is the error function's job).
  bool SatisfiedExactly(double actual) const;

  std::string ToString() const;
};

}  // namespace acquire

#endif  // ACQUIRE_EXEC_AGGREGATE_H_
