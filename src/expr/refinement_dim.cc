#include "expr/refinement_dim.h"

#include <algorithm>
#include <cmath>

#include "common/string_util.h"

namespace acquire {

namespace {
// Smallest positive PScore; assigned to tuples sitting exactly on a strict
// bound, which need *some* (arbitrarily small) refinement to be admitted.
constexpr double kEpsilonPScore = 1e-9;

// A NumericDim's needed PScore for column value `v` (Eq. 1): 0 when the
// predicate admits v, kEpsilonPScore exactly on a strict bound, the percent
// refinement violation / width * 100 otherwise, and kUnreachable above
// `max_pscore`. A NaN value fails every comparison and yields NaN. Written
// as selects, not early returns, so the column loop below runs without a
// data-dependent branch; NeededPScore and NeededPScores both evaluate it.
template <bool kUpper, bool kStrict>
inline double NumericNeeded(double v, double bound, double width,
                            double max_pscore) {
  const bool admitted = kUpper ? (kStrict ? v < bound : v <= bound)
                               : (kStrict ? v > bound : v >= bound);
  const double violation = kUpper ? v - bound : bound - v;
  const double pscore = violation / width * 100.0;
  const double capped =
      pscore > max_pscore ? RefinementDim::kUnreachable : pscore;
  const double refined = violation == 0.0 ? kEpsilonPScore : capped;
  return admitted ? 0.0 : refined;
}

template <bool kUpper, bool kStrict, typename T>
void NumericNeededLoop(const T* values, size_t count, double bound,
                       double width, double max_pscore, double* out) {
  for (size_t k = 0; k < count; ++k) {
    out[k] = NumericNeeded<kUpper, kStrict>(static_cast<double>(values[k]),
                                            bound, width, max_pscore);
  }
}

template <typename T>
void NumericNeededLoop(const T* values, size_t count, bool upper, bool strict,
                       double bound, double width, double max_pscore,
                       double* out) {
  if (upper) {
    strict ? NumericNeededLoop<true, true>(values, count, bound, width,
                                           max_pscore, out)
           : NumericNeededLoop<true, false>(values, count, bound, width,
                                            max_pscore, out);
  } else {
    strict ? NumericNeededLoop<false, true>(values, count, bound, width,
                                            max_pscore, out)
           : NumericNeededLoop<false, false>(values, count, bound, width,
                                             max_pscore, out);
  }
}
}  // namespace

NumericDim::NumericDim(std::string column, bool is_upper, double bound,
                       bool strict, double domain_lo, double domain_hi)
    : column_(std::move(column)),
      is_upper_(is_upper),
      bound_(bound),
      strict_(strict),
      domain_lo_(domain_lo),
      domain_hi_(domain_hi) {
  // Eq. 1 denominator: the base predicate interval width. For `x < b` over
  // domain [lo, hi] the interval is (lo, b); for `x > a` it is (a, hi).
  width_ = is_upper_ ? (bound_ - domain_lo_) : (domain_hi_ - bound_);
  if (width_ <= 0.0) {
    // Degenerate interval (bound at or outside the data domain). Fall back
    // to a bound-relative denominator so PScore stays a sane percentage.
    width_ = std::max(1.0, std::fabs(bound_));
  }
}

Status NumericDim::Bind(const Schema& schema) {
  ACQ_ASSIGN_OR_RETURN(size_t idx, schema.FieldIndex(column_));
  if (!IsNumeric(schema.field(idx).type)) {
    return Status::TypeError("refinable predicate on non-numeric column: " +
                             column_);
  }
  col_index_ = static_cast<int>(idx);
  return Status::OK();
}

double NumericDim::NeededPScore(const Table& table, size_t row) const {
  const double v =
      table.column(static_cast<size_t>(col_index_)).GetDouble(row);
  const double cap = MaxPScore();
  if (is_upper_) {
    return strict_ ? NumericNeeded<true, true>(v, bound_, width_, cap)
                   : NumericNeeded<true, false>(v, bound_, width_, cap);
  }
  return strict_ ? NumericNeeded<false, true>(v, bound_, width_, cap)
                 : NumericNeeded<false, false>(v, bound_, width_, cap);
}

void NumericDim::NeededPScores(const Table& table, size_t begin, size_t end,
                               double* out) const {
  if (begin >= end) return;
  const Column& column = table.column(static_cast<size_t>(col_index_));
  const double cap = MaxPScore();
  if (column.type() == DataType::kInt64) {
    NumericNeededLoop(column.int64_data().data() + begin, end - begin,
                      is_upper_, strict_, bound_, width_, cap, out);
  } else {
    NumericNeededLoop(column.double_data().data() + begin, end - begin,
                      is_upper_, strict_, bound_, width_, cap, out);
  }
}

double NumericDim::MaxPScore() const {
  double slack = is_upper_ ? (domain_hi_ - bound_) : (bound_ - domain_lo_);
  double domain_cap = std::max(0.0, slack / width_ * 100.0);
  return std::min(domain_cap, user_cap_);
}

double NumericDim::RefinedBound(double pscore) const {
  double delta = pscore / 100.0 * width_;
  return is_upper_ ? bound_ + delta : bound_ - delta;
}

std::string NumericDim::DescribeAt(double pscore) const {
  if (pscore <= 0.0) return label();
  // Refined intervals are closed on the refined side.
  return StringFormat("%s %s %g", column_.c_str(), is_upper_ ? "<=" : ">=",
                      RefinedBound(pscore));
}

std::string NumericDim::label() const {
  const char* op = is_upper_ ? (strict_ ? "<" : "<=") : (strict_ ? ">" : ">=");
  return StringFormat("%s %s %g", column_.c_str(), op, bound_);
}

std::optional<std::string> NumericDim::CanonicalForm() const {
  // %.17g round-trips every double, so one ulp apart is a different form.
  // width_ derives from the bound and the domain, so it needs no field.
  return StringFormat("num{%s;col=%d;upper=%d;strict=%d;bound=%.17g;"
                      "domain=%.17g,%.17g;cap=%.17g}",
                      column_.c_str(), col_index_, is_upper_ ? 1 : 0,
                      strict_ ? 1 : 0, bound_, domain_lo_, domain_hi_,
                      user_cap_);
}

JoinDim::JoinDim(std::string left_column, std::string right_column,
                 double band_cap)
    : left_column_(std::move(left_column)),
      right_column_(std::move(right_column)),
      band_cap_(band_cap) {}

Status JoinDim::Bind(const Schema& schema) {
  ACQ_ASSIGN_OR_RETURN(size_t l, schema.FieldIndex(left_column_));
  ACQ_ASSIGN_OR_RETURN(size_t r, schema.FieldIndex(right_column_));
  if (!IsNumeric(schema.field(l).type) || !IsNumeric(schema.field(r).type)) {
    return Status::TypeError("refinable join on non-numeric columns: " +
                             label());
  }
  left_index_ = static_cast<int>(l);
  right_index_ = static_cast<int>(r);
  return Status::OK();
}

double JoinDim::NeededPScore(const Table& table, size_t row) const {
  double l = table.column(static_cast<size_t>(left_index_)).GetDouble(row);
  double r = table.column(static_cast<size_t>(right_index_)).GetDouble(row);
  // Section 2.4: equi-join PScore denominator is 100, so the score equals
  // the band width |left - right| in value units.
  double band = std::fabs(l - r);
  return band > band_cap_ ? kUnreachable : band;
}

std::string JoinDim::DescribeAt(double pscore) const {
  if (pscore <= 0.0) return label();
  return StringFormat("ABS(%s - %s) <= %g", left_column_.c_str(),
                      right_column_.c_str(), pscore);
}

std::string JoinDim::label() const {
  return left_column_ + " = " + right_column_;
}

ExprDim::ExprDim(ExprPtr function, bool is_upper, double bound, bool strict,
                 double domain_lo, double domain_hi,
                 double pscore_denominator)
    : function_(std::move(function)),
      is_upper_(is_upper),
      bound_(bound),
      strict_(strict),
      domain_lo_(domain_lo),
      domain_hi_(domain_hi) {
  if (pscore_denominator > 0.0) {
    width_ = pscore_denominator;  // join semantics: fixed denominator
  } else {
    width_ = is_upper_ ? (bound_ - domain_lo_) : (domain_hi_ - bound_);
    if (width_ <= 0.0) {
      width_ = std::max(1.0, std::fabs(bound_));
    }
  }
}

Status ExprDim::Bind(const Schema& schema) {
  if (function_ == nullptr) {
    return Status::InvalidArgument("ExprDim with null predicate function");
  }
  return function_->Bind(schema);
}

double ExprDim::NeededPScore(const Table& table, size_t row) const {
  auto value = function_->Eval(table, row);
  if (!value.ok()) return kUnreachable;  // e.g. division by zero
  auto v = value->AsDouble();
  if (!v.ok()) return kUnreachable;
  double violation;
  if (is_upper_) {
    if (strict_ ? *v < bound_ : *v <= bound_) return 0.0;
    violation = *v - bound_;
  } else {
    if (strict_ ? *v > bound_ : *v >= bound_) return 0.0;
    violation = bound_ - *v;
  }
  if (violation == 0.0) return kEpsilonPScore;
  double pscore = violation / width_ * 100.0;
  return pscore > MaxPScore() ? kUnreachable : pscore;
}

double ExprDim::MaxPScore() const {
  double slack = is_upper_ ? (domain_hi_ - bound_) : (bound_ - domain_lo_);
  double domain_cap = std::max(0.0, slack / width_ * 100.0);
  return std::min(domain_cap, user_cap_);
}

double ExprDim::RefinedBound(double pscore) const {
  double delta = pscore / 100.0 * width_;
  return is_upper_ ? bound_ + delta : bound_ - delta;
}

std::string ExprDim::DescribeAt(double pscore) const {
  if (pscore <= 0.0) return label();
  return StringFormat("%s %s %g", function_->ToString().c_str(),
                      is_upper_ ? "<=" : ">=", RefinedBound(pscore));
}

std::string ExprDim::label() const {
  const char* op = is_upper_ ? (strict_ ? "<" : "<=") : (strict_ ? ">" : ">=");
  return StringFormat("%s %s %g", function_->ToString().c_str(), op, bound_);
}

}  // namespace acquire
