#include "exec/aggregate.h"

#include <algorithm>
#include <limits>

#include "common/logging.h"
#include "common/string_util.h"

namespace acquire {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

class CountOpsImpl final : public AggregateOps {
 public:
  State Init() const override { return {0.0}; }
  void Add(State* state, double) const override { (*state)[0] += 1.0; }
  void Merge(State* state, const State& other) const override {
    (*state)[0] += other[0];
  }
  double Final(const State& state) const override { return state[0]; }
  const char* name() const override { return "COUNT"; }
};

class SumOpsImpl final : public AggregateOps {
 public:
  State Init() const override { return {0.0}; }
  void Add(State* state, double value) const override { (*state)[0] += value; }
  void Merge(State* state, const State& other) const override {
    (*state)[0] += other[0];
  }
  double Final(const State& state) const override { return state[0]; }
  const char* name() const override { return "SUM"; }
};

class MinOpsImpl final : public AggregateOps {
 public:
  State Init() const override { return {kInf}; }
  void Add(State* state, double value) const override {
    (*state)[0] = std::min((*state)[0], value);
  }
  void Merge(State* state, const State& other) const override {
    (*state)[0] = std::min((*state)[0], other[0]);
  }
  double Final(const State& state) const override { return state[0]; }
  const char* name() const override { return "MIN"; }
};

class MaxOpsImpl final : public AggregateOps {
 public:
  State Init() const override { return {-kInf}; }
  void Add(State* state, double value) const override {
    (*state)[0] = std::max((*state)[0], value);
  }
  void Merge(State* state, const State& other) const override {
    (*state)[0] = std::max((*state)[0], other[0]);
  }
  double Final(const State& state) const override { return state[0]; }
  const char* name() const override { return "MAX"; }
};

// AVG = SUM/COUNT, each of which satisfies the OSP (Section 2.6).
class AvgOpsImpl final : public AggregateOps {
 public:
  State Init() const override { return {0.0, 0.0}; }
  void Add(State* state, double value) const override {
    (*state)[0] += value;
    (*state)[1] += 1.0;
  }
  void Merge(State* state, const State& other) const override {
    (*state)[0] += other[0];
    (*state)[1] += other[1];
  }
  double Final(const State& state) const override {
    return state[1] == 0.0 ? 0.0 : state[0] / state[1];
  }
  const char* name() const override { return "AVG"; }
};

}  // namespace

const char* AggregateKindToString(AggregateKind kind) {
  switch (kind) {
    case AggregateKind::kCount:
      return "COUNT";
    case AggregateKind::kSum:
      return "SUM";
    case AggregateKind::kMin:
      return "MIN";
    case AggregateKind::kMax:
      return "MAX";
    case AggregateKind::kAvg:
      return "AVG";
    case AggregateKind::kUda:
      return "UDA";
  }
  return "?";
}

const char* ConstraintOpToString(ConstraintOp op) {
  switch (op) {
    case ConstraintOp::kEq:
      return "=";
    case ConstraintOp::kGe:
      return ">=";
    case ConstraintOp::kGt:
      return ">";
  }
  return "?";
}

const AggregateOps& CountOps() {
  static const CountOpsImpl* const kOps = new CountOpsImpl();
  return *kOps;
}
const AggregateOps& SumOps() {
  static const SumOpsImpl* const kOps = new SumOpsImpl();
  return *kOps;
}
const AggregateOps& MinOps() {
  static const MinOpsImpl* const kOps = new MinOpsImpl();
  return *kOps;
}
const AggregateOps& MaxOps() {
  static const MaxOpsImpl* const kOps = new MaxOpsImpl();
  return *kOps;
}
const AggregateOps& AvgOps() {
  static const AvgOpsImpl* const kOps = new AvgOpsImpl();
  return *kOps;
}

const AggregateOps& GetBuiltinOps(AggregateKind kind) {
  switch (kind) {
    case AggregateKind::kCount:
      return CountOps();
    case AggregateKind::kSum:
      return SumOps();
    case AggregateKind::kMin:
      return MinOps();
    case AggregateKind::kMax:
      return MaxOps();
    case AggregateKind::kAvg:
      return AvgOps();
    case AggregateKind::kUda:
      break;  // resolved via UdaRegistry in AggregateSpec::Bind
  }
  ACQ_CHECK(false) << "kUda has no builtin ops; use UdaRegistry";
  return AvgOps();  // unreachable
}

FlatAggregate::FlatAggregate(const AggregateOps& ops) : ops_(&ops) {
  // The built-ins are singletons, so identity picks their inline code; any
  // other ops object (including a UDA that reuses a built-in name) is a UDA.
  if (&ops == &CountOps()) {
    kind_ = Kind::kCount;
  } else if (&ops == &SumOps()) {
    kind_ = Kind::kSum;
  } else if (&ops == &MinOps()) {
    kind_ = Kind::kMin;
  } else if (&ops == &MaxOps()) {
    kind_ = Kind::kMax;
  } else if (&ops == &AvgOps()) {
    kind_ = Kind::kAvg;
  } else {
    kind_ = Kind::kUda;
  }
  width_ = kind_ == Kind::kAvg   ? 2
           : kind_ == Kind::kUda ? ops.Init().size()
                                 : 1;
}

void FlatAggregate::InitUda(double* state) const {
  const AggregateOps::State init = ops_->Init();
  std::copy_n(init.begin(), std::min(init.size(), width_), state);
}

bool FlatAggregate::MergeUda(double* state, const double* other) const {
  AggregateOps::State uda(state, state + width_);
  ops_->Merge(&uda, AggregateOps::State(other, other + width_));
  return StoreUda(uda, state);
}

bool FlatAggregate::StoreUda(const AggregateOps::State& uda,
                             double* state) const {
  if (uda.size() != width_) return false;
  std::copy(uda.begin(), uda.end(), state);
  return true;
}

LambdaAggregateOps::LambdaAggregateOps(
    std::string name, State init, std::function<void(State*, double)> add,
    std::function<void(State*, const State&)> merge,
    std::function<double(const State&)> final_fn)
    : name_(std::move(name)),
      init_(std::move(init)),
      add_(std::move(add)),
      merge_(std::move(merge)),
      final_(std::move(final_fn)) {}

UdaRegistry& UdaRegistry::Instance() {
  static UdaRegistry* const kInstance = new UdaRegistry();
  return *kInstance;
}

Status UdaRegistry::Register(std::unique_ptr<AggregateOps> ops) {
  if (ops == nullptr) return Status::InvalidArgument("null UDA");
  for (const auto& existing : udas_) {
    if (std::string(existing->name()) == ops->name()) {
      return Status::AlreadyExists(std::string("UDA already registered: ") +
                                   ops->name());
    }
  }
  udas_.push_back(std::move(ops));
  return Status::OK();
}

Result<const AggregateOps*> UdaRegistry::Lookup(const std::string& name) const {
  for (const auto& ops : udas_) {
    if (name == ops->name()) return ops.get();
  }
  return Status::NotFound("no such UDA: " + name);
}

Status AggregateSpec::Bind(const Schema& schema) {
  if (kind == AggregateKind::kUda) {
    ACQ_ASSIGN_OR_RETURN(ops, UdaRegistry::Instance().Lookup(uda_name));
  } else {
    ops = &GetBuiltinOps(kind);
  }
  if (kind == AggregateKind::kCount && column.empty()) {
    col_index = -1;
    return Status::OK();
  }
  if (column.empty()) {
    return Status::InvalidArgument(std::string(AggregateKindToString(kind)) +
                                   " requires a column argument");
  }
  ACQ_ASSIGN_OR_RETURN(size_t idx, schema.FieldIndex(column));
  if (!IsNumeric(schema.field(idx).type)) {
    return Status::TypeError("aggregate over non-numeric column: " + column);
  }
  col_index = static_cast<int>(idx);
  return Status::OK();
}

std::string AggregateSpec::ToString() const {
  const char* fn =
      kind == AggregateKind::kUda ? uda_name.c_str() : AggregateKindToString(kind);
  return StringFormat("%s(%s)", fn, column.empty() ? "*" : column.c_str());
}

bool Constraint::SatisfiedExactly(double actual) const {
  switch (op) {
    case ConstraintOp::kEq:
      return actual == target;
    case ConstraintOp::kGe:
      return actual >= target;
    case ConstraintOp::kGt:
      return actual > target;
  }
  return false;
}

std::string Constraint::ToString() const {
  return StringFormat("%s %g", ConstraintOpToString(op), target);
}

}  // namespace acquire
