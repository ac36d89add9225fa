#ifndef ACQUIRE_CORE_CONTRACT_H_
#define ACQUIRE_CORE_CONTRACT_H_

#include "core/acquire.h"
#include "exec/acq_task.h"

namespace acquire {

/// Contraction dimension (Section 7.2): measures how much a one-sided
/// numeric predicate has been *tightened* rather than relaxed.
///
/// The contraction search is mapped onto the expansion machinery by a
/// change of variable. Let slack(t) be the PScore distance between tuple
/// t's value and the predicate bound, measured inward: tuple t survives a
/// contraction of c PScore units iff slack(t) >= c. With
/// needed'(t) = 100 - slack(t) and p' = 100 - c this is needed'(t) <= p',
/// the standard admission test, and the refined space over p' is bounded:
/// p' = 100 is the original query Q, p' = 0 is Q'_min with every predicate
/// collapsed onto its bound. The search over it is literally the
/// expansion's: RunAcquireContract walks the BFS generator over grid
/// contraction amounts c, evaluating p'_i = MaxLevel(i) - c_i, and shares
/// RunAcquire's run frame and cell bisection.
class ContractionDim final : public RefinementDim {
 public:
  /// `width` is the original predicate's interval width (the NumericDim's
  /// PScore denominator), so full contraction (bound moved to the opposite
  /// end of the interval) is 100 units.
  ContractionDim(std::string column, bool is_upper, double bound,
                 double width);

  Status Bind(const Schema& schema) override;
  double NeededPScore(const Table& table, size_t row) const override;
  double MaxPScore() const override { return 100.0; }
  std::string DescribeAt(double pscore) const override;
  std::string label() const override;

  /// The predicate bound after contracting by c = 100 - pscore units.
  double ContractedBound(double pscore) const;

 private:
  std::string column_;
  int col_index_ = -1;
  bool is_upper_;
  double bound_;
  double width_;
};

/// Builds the contraction counterpart of an expansion task: every
/// NumericDim becomes a ContractionDim over the same relation, aggregate
/// and constraint. Tasks containing join or categorical dimensions are
/// rejected (bands cannot shrink below equality; drill-down is future
/// work, as in the paper).
Result<AcqTask> MakeContractionTask(const AcqTask& task);

/// ACQUIRE for queries that *overshoot* the constraint (Section 7.2):
/// searches contractions of `task` (which must come from
/// MakeContractionTask) in order of increasing contraction, i.e. from the
/// original query Q toward Q'_min, and returns the minimum-contraction
/// queries meeting the constraint within options.delta. The walk takes
/// BfsGenerator layers, so it polls options.run_ctx every 256 coordinates
/// and charges its layer arenas to the run's budget, as expansion does.
///
/// Reported RefinedQuery::pscores are *contraction* amounts c (distance
/// from Q), and qscore is their norm, mirroring the expansion semantics.
Result<AcquireResult> RunAcquireContract(const AcqTask& task,
                                         EvaluationLayer* layer,
                                         const AcquireOptions& options = {});

}  // namespace acquire

#endif  // ACQUIRE_CORE_CONTRACT_H_
