#ifndef ACQUIRE_CORE_REFINED_SPACE_H_
#define ACQUIRE_CORE_REFINED_SPACE_H_

#include <string>
#include <vector>

#include "core/norms.h"
#include "exec/acq_task.h"
#include "exec/evaluation.h"

namespace acquire {

/// The Refined Space RS(Q) of Section 4: a d-dimensional grid whose origin
/// is the original query and whose axes measure per-predicate refinement in
/// PScore units. The grid step on every axis is gamma/d, which by Theorem 1
/// guarantees that some grid query lies within the proximity threshold
/// gamma of the optimal refined query.
class RefinedSpace {
 public:
  /// `gamma` is the refinement threshold of Definition 1.
  RefinedSpace(const AcqTask* task, double gamma, Norm norm);

  size_t d() const { return task_->d(); }
  double gamma() const { return gamma_; }
  double step() const { return step_; }
  const Norm& norm() const { return norm_; }

  /// Highest useful grid level on dimension `dim`: the first level whose
  /// refined predicate already covers the whole data domain.
  int32_t MaxLevel(size_t dim) const { return max_levels_[dim]; }
  const std::vector<int32_t>& max_levels() const { return max_levels_; }

  /// The per-dimension PScores of grid query `coord` (u_i * step, capped at
  /// the dimension's MaxPScore so rendered predicates stay inside the data
  /// domain).
  std::vector<double> CoordPScores(const GridCoord& coord) const;

  /// QScore(Q, Q') of the grid query, using the configured norm and the
  /// dimensions' preference weights.
  double QScoreOf(const GridCoord& coord) const;

  /// QScore of an off-grid refinement vector (repartitioned answers).
  double QScoreOfPScores(const std::vector<double>& pscores) const;

  /// Renders the refined predicates of a refinement vector, on the grid or
  /// off it, as a SQL conjunction.
  std::string DescribePScores(const std::vector<double>& pscores) const;

  /// The cell sub-query box O_1 of `coord` (Eq. 5): tuples whose needed
  /// PScore lies in ((u_i - 1) * step, u_i * step] on every dimension.
  std::vector<PScoreRange> CellBox(const GridCoord& coord) const;

  /// The full refined query box O_{d+1} (Eq. 8): needed_i <= u_i * step.
  std::vector<PScoreRange> QueryBox(const GridCoord& coord) const;

  /// Grid level a tuple with the given needed PScore falls into.
  int64_t LevelFor(double needed) const { return PScoreLevel(needed, step_); }

  /// Renders the refined predicates of `coord` as a SQL conjunction.
  std::string Describe(const GridCoord& coord) const;

  const AcqTask& task() const { return *task_; }

 private:
  const AcqTask* task_;
  double gamma_;
  double step_;
  Norm norm_;
  std::vector<int32_t> max_levels_;
  std::vector<double> weights_;
};

}  // namespace acquire

#endif  // ACQUIRE_CORE_REFINED_SPACE_H_
