#ifndef ACQUIRE_EXPR_REFINEMENT_DIM_H_
#define ACQUIRE_EXPR_REFINEMENT_DIM_H_

#include <limits>
#include <memory>
#include <optional>
#include <string>

#include "common/result.h"
#include "expr/expr.h"
#include "storage/table.h"

namespace acquire {

/// One axis of the Refined Space (Section 4): a refinable predicate
/// decomposed into its predicate function and interval. A dimension maps a
/// tuple to the minimum PScore (Eq. 1, percent refinement) at which the
/// refined predicate admits the tuple, and can render the refined predicate
/// at any PScore.
///
/// Concrete dimensions: NumericDim (one-sided select predicate), JoinDim
/// (equi/band join, Section 2.4), CategoricalDim (ontology roll-up,
/// Section 7.3, in expr/ontology.h).
class RefinementDim {
 public:
  /// NeededPScore result for tuples no refinement of this predicate admits.
  static constexpr double kUnreachable = std::numeric_limits<double>::infinity();

  virtual ~RefinementDim() = default;

  /// Resolves column references against the (joined) base-relation schema.
  virtual Status Bind(const Schema& schema) = 0;

  /// Minimum PScore this dimension must be refined by for `row` to satisfy
  /// the refined predicate; 0 when the original predicate already holds.
  virtual double NeededPScore(const Table& table, size_t row) const = 0;

  /// Writes the needed PScores of rows [begin, end) to out[0, end - begin):
  /// the same bytes as one NeededPScore call per row. The needed-matrix fill
  /// and the direct layer's scan make one call per dimension and row range.
  /// Default: that per-row loop. NumericDim overrides it with a typed loop
  /// over its column's storage.
  virtual void NeededPScores(const Table& table, size_t begin, size_t end,
                             double* out) const {
    for (size_t row = begin; row < end; ++row) {
      *out++ = NeededPScore(table, row);
    }
  }

  /// Pre-resolves any internal memoization for every row of `table` so that
  /// subsequent NeededPScore and NeededPScores calls over those rows are
  /// read-only and safe to issue from multiple threads (the needed-matrix
  /// fill calls NeededPScores on concurrent row chunks). Default: no-op —
  /// the numeric dimensions are stateless.
  virtual Status PrecomputeNeeded(const Table& table) const {
    (void)table;
    return Status::OK();
  }

  /// Largest meaningful PScore (further refinement cannot admit more
  /// tuples), bounded by the data domain and any user-set refinement cap.
  virtual double MaxPScore() const = 0;

  /// SQL fragment of the predicate refined by `pscore` (0 = original).
  virtual std::string DescribeAt(double pscore) const = 0;

  /// The original predicate's display form, e.g. "s_acctbal < 2000".
  virtual std::string label() const = 0;

  /// Exact spelling of every constant NeededPScore and MaxPScore read, such
  /// that two dimensions with equal forms bound to the same relation give
  /// every row bit-identical needed PScores. Keys prepared-layer reuse
  /// (LayoutKey, core/fingerprint.h); weights are left out, since they never
  /// change which cell a row lands in. Default: no canonical form, which
  /// makes every task using the dimension build its own layer.
  virtual std::optional<std::string> CanonicalForm() const {
    return std::nullopt;
  }

  /// Weight for LWp weighted-norm preferences (Section 7.1).
  double weight() const { return weight_; }
  void set_weight(double w) { weight_ = w; }

 private:
  double weight_ = 1.0;
};

using RefinementDimPtr = std::unique_ptr<RefinementDim>;

/// One-sided numeric select predicate: `column <op> bound` where <op> is one
/// of <, <=, >, >=. Range predicates are two NumericDims (Section 2.2).
class NumericDim final : public RefinementDim {
 public:
  /// `is_upper`: true for "< / <=" predicates (the upper bound relaxes
  /// upward), false for "> / >=" (the lower bound relaxes downward).
  /// `domain_lo`/`domain_hi` are the column's data bounds: they set the
  /// PScore denominator (interval width) and the refinement cap.
  /// `strict` marks < / > (vs <= / >=).
  NumericDim(std::string column, bool is_upper, double bound, bool strict,
             double domain_lo, double domain_hi);

  Status Bind(const Schema& schema) override;
  double NeededPScore(const Table& table, size_t row) const override;
  /// One typed loop over the column's int64 or double storage per
  /// (upper, strict) combination, with MaxPScore() hoisted.
  void NeededPScores(const Table& table, size_t begin, size_t end,
                     double* out) const override;
  double MaxPScore() const override;
  std::string DescribeAt(double pscore) const override;
  std::string label() const override;
  std::optional<std::string> CanonicalForm() const override;

  /// The refined bound value at `pscore` (used by the SQL printer and by
  /// the baselines, which search in bound space).
  double RefinedBound(double pscore) const;

  /// Caps MaxPScore below the domain-derived limit (Section 7.1 user limit).
  void set_max_refinement(double pscore_cap) { user_cap_ = pscore_cap; }

  const std::string& column() const { return column_; }
  bool is_upper() const { return is_upper_; }
  double bound() const { return bound_; }
  double width() const { return width_; }

 private:
  std::string column_;
  int col_index_ = -1;
  bool is_upper_;
  double bound_;
  bool strict_;
  double domain_lo_;
  double domain_hi_;
  double width_;     // PScore denominator (Eq. 1)
  double user_cap_ = kUnreachable;
};

/// Join predicate `left = right` (or a pre-widened band). Refinement widens
/// the accepted |left - right| band; per Section 2.4 the PScore denominator
/// is fixed at 100, so PScore equals the band width in value units.
class JoinDim final : public RefinementDim {
 public:
  /// `band_cap` bounds how far the band may widen (MaxPScore).
  JoinDim(std::string left_column, std::string right_column, double band_cap);

  Status Bind(const Schema& schema) override;
  double NeededPScore(const Table& table, size_t row) const override;
  double MaxPScore() const override { return band_cap_; }
  std::string DescribeAt(double pscore) const override;
  std::string label() const override;

  const std::string& left_column() const { return left_column_; }
  const std::string& right_column() const { return right_column_; }

 private:
  std::string left_column_;
  std::string right_column_;
  int left_index_ = -1;
  int right_index_ = -1;
  double band_cap_;
};

/// One-sided predicate over an arbitrary numeric *predicate function*
/// (Section 2.2: P_F is any monotonic function on the relations'
/// attributes): `function(t) <op> bound`. This covers arithmetic select
/// predicates ("l_quantity * l_extendedprice < 5000") and, with the
/// join-semantics denominator, non-equi join predicates ("2*A.x < 3*B.x",
/// Section 2.4: P_F = delta(f1, f2), denominator fixed at 100 so the
/// PScore is the band width in value units).
class ExprDim final : public RefinementDim {
 public:
  /// `domain_lo`/`domain_hi` bound the function's values over the data
  /// (the planner measures them). `pscore_denominator` overrides Eq. 1's
  /// interval-width denominator when positive — pass 100 for join
  /// semantics; 0 derives it from bound and domain like NumericDim.
  ExprDim(ExprPtr function, bool is_upper, double bound, bool strict,
          double domain_lo, double domain_hi, double pscore_denominator = 0.0);

  Status Bind(const Schema& schema) override;
  double NeededPScore(const Table& table, size_t row) const override;
  double MaxPScore() const override;
  std::string DescribeAt(double pscore) const override;
  std::string label() const override;

  double RefinedBound(double pscore) const;
  void set_max_refinement(double pscore_cap) { user_cap_ = pscore_cap; }

  const ExprPtr& function() const { return function_; }
  double bound() const { return bound_; }
  double width() const { return width_; }

 private:
  ExprPtr function_;
  bool is_upper_;
  double bound_;
  bool strict_;
  double domain_lo_;
  double domain_hi_;
  double width_;
  double user_cap_ = kUnreachable;
};

}  // namespace acquire

#endif  // ACQUIRE_EXPR_REFINEMENT_DIM_H_
