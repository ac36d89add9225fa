#include "core/refined_space.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace acquire {

namespace {
// Levels are stored as int32; spaces needing more are pathological
// (gamma chosen far too small for the domain).
constexpr int64_t kLevelCap = 1 << 24;
}  // namespace

RefinedSpace::RefinedSpace(const AcqTask* task, double gamma, Norm norm)
    : task_(task), gamma_(gamma), norm_(norm) {
  ACQ_CHECK(task != nullptr && task->d() > 0) << "task must have dimensions";
  ACQ_CHECK(gamma > 0.0) << "gamma must be positive";
  step_ = gamma_ / static_cast<double>(task_->d());
  max_levels_.reserve(task_->d());
  weights_.reserve(task_->d());
  for (const RefinementDimPtr& dim : task_->dims) {
    double max_pscore = dim->MaxPScore();
    int64_t levels = std::isinf(max_pscore)
                         ? kLevelCap
                         : PScoreLevel(max_pscore, step_);
    max_levels_.push_back(static_cast<int32_t>(std::min(levels, kLevelCap)));
    weights_.push_back(dim->weight());
  }
}

std::vector<double> RefinedSpace::CoordPScores(const GridCoord& coord) const {
  std::vector<double> pscores(coord.size());
  for (size_t i = 0; i < coord.size(); ++i) {
    pscores[i] =
        std::min(static_cast<double>(coord[i]) * step_, task_->dims[i]->MaxPScore());
  }
  return pscores;
}

double RefinedSpace::QScoreOf(const GridCoord& coord) const {
  return norm_.QScore(CoordPScores(coord), weights_);
}

double RefinedSpace::QScoreOfPScores(const std::vector<double>& pscores) const {
  return norm_.QScore(pscores, weights_);
}

std::string RefinedSpace::DescribePScores(
    const std::vector<double>& pscores) const {
  std::string out;
  for (size_t i = 0; i < pscores.size(); ++i) {
    if (i > 0) out += " AND ";
    out += task_->dims[i]->DescribeAt(pscores[i]);
  }
  return out;
}

std::vector<PScoreRange> RefinedSpace::CellBox(const GridCoord& coord) const {
  std::vector<PScoreRange> box(coord.size());
  for (size_t i = 0; i < coord.size(); ++i) {
    box[i] = CellRangeForLevel(coord[i], step_);
  }
  return box;
}

std::vector<PScoreRange> RefinedSpace::QueryBox(const GridCoord& coord) const {
  std::vector<PScoreRange> box(coord.size());
  for (size_t i = 0; i < coord.size(); ++i) {
    box[i] = PScoreRange{-1.0, static_cast<double>(coord[i]) * step_};
  }
  return box;
}

std::string RefinedSpace::Describe(const GridCoord& coord) const {
  return DescribePScores(CoordPScores(coord));
}

}  // namespace acquire
