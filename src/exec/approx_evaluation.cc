#include "exec/approx_evaluation.h"

#include <algorithm>
#include <cmath>

#include "common/random.h"
#include "common/string_util.h"
#include "exec/eval_kernel.h"

namespace acquire {

SamplingEvaluationLayer::SamplingEvaluationLayer(const AcqTask* task,
                                                 double rate, uint64_t seed)
    : EvaluationLayer(task), rate_(rate), seed_(seed) {}

Status SamplingEvaluationLayer::Prepare() {
  if (prepared_) return Status::OK();
  if (rate_ <= 0.0 || rate_ > 1.0) {
    return Status::InvalidArgument("sampling rate must lie in (0, 1]");
  }
  if (task_->agg.kind == AggregateKind::kUda) {
    return Status::Unsupported(
        "sampling layer cannot extrapolate user-defined aggregates");
  }
  Rng rng(seed_);
  const size_t n = task_->relation->num_rows();
  const size_t d = task_->d();
  for (size_t row = 0; row < n; ++row) {
    if (rng.NextBool(rate_)) sampled_rows_.push_back(static_cast<uint32_t>(row));
  }
  matrix_.Resize(sampled_rows_.size(), d);
  for (size_t i = 0; i < d; ++i) {
    const RefinementDim& dim = *task_->dims[i];
    double* col = matrix_.mutable_dim(i);
    for (size_t k = 0; k < sampled_rows_.size(); ++k) {
      col[k] = dim.NeededPScore(*task_->relation, sampled_rows_[k]);
    }
  }
  for (size_t k = 0; k < sampled_rows_.size(); ++k) {
    matrix_.agg_values[k] = task_->AggValue(sampled_rows_[k]);
  }
  prepared_ = true;
  return Status::OK();
}

Result<AggregateOps::State> SamplingEvaluationLayer::EvaluateBox(
    const std::vector<PScoreRange>& box) {
  if (!prepared_) ACQ_RETURN_IF_ERROR(Prepare());
  ACQ_RETURN_IF_ERROR(CheckBox(box));
  ++stats_.queries;
  stats_.tuples_scanned += sampled_rows_.size();
  ACQ_ASSIGN_OR_RETURN(AggregateOps::State state,
                       ScanBoxOverMatrix(*task_->agg.ops, matrix_, box));
  // Horvitz-Thompson scale-up for extrapolatable aggregates. AVG scales
  // both numerator and denominator (a no-op on the final value but keeps
  // the embedded COUNT meaningful); MIN/MAX cannot be extrapolated.
  switch (task_->agg.kind) {
    case AggregateKind::kCount:
    case AggregateKind::kSum:
    case AggregateKind::kAvg:
      for (double& component : state) component /= rate_;
      break;
    case AggregateKind::kMin:
    case AggregateKind::kMax:
    case AggregateKind::kUda:
      break;
  }
  return state;
}

HistogramEvaluationLayer::HistogramEvaluationLayer(const AcqTask* task,
                                                   size_t buckets_per_dim)
    : EvaluationLayer(task), buckets_(buckets_per_dim) {}

Status HistogramEvaluationLayer::Prepare() {
  if (prepared_) return Status::OK();
  if (buckets_ == 0) {
    return Status::InvalidArgument("need at least one histogram bucket");
  }
  if (task_->agg.kind != AggregateKind::kCount) {
    return Status::Unsupported(
        "histogram estimation supports COUNT constraints only");
  }
  const size_t n = task_->relation->num_rows();
  const size_t d = task_->d();
  total_rows_ = n;

  // Pass 1: per-dimension maxima of the finite needed PScores.
  std::vector<double> max_needed(d, 0.0);
  std::vector<std::vector<double>> all_needed(d);
  std::vector<double> row_needed;
  for (size_t row = 0; row < n; ++row) {
    ComputeNeeded(*task_, row, &row_needed);
    for (size_t i = 0; i < d; ++i) {
      if (std::isfinite(row_needed[i])) {
        max_needed[i] = std::max(max_needed[i], row_needed[i]);
        all_needed[i].push_back(row_needed[i]);
      }
    }
  }
  bucket_width_.assign(d, 1.0);
  counts_.assign(d, std::vector<double>(buckets_, 0.0));
  zero_counts_.assign(d, 0.0);
  for (size_t i = 0; i < d; ++i) {
    bucket_width_[i] =
        max_needed[i] > 0.0 ? max_needed[i] / static_cast<double>(buckets_)
                            : 1.0;
    for (double needed : all_needed[i]) {
      if (needed <= 0.0) {
        zero_counts_[i] += 1.0;
        continue;
      }
      // Bucket b covers (b*w, (b+1)*w].
      size_t b = static_cast<size_t>(std::ceil(needed / bucket_width_[i])) - 1;
      counts_[i][std::min(b, buckets_ - 1)] += 1.0;
    }
  }
  prepared_ = true;
  return Status::OK();
}

double HistogramEvaluationLayer::Selectivity(size_t dim,
                                             const PScoreRange& range) const {
  double mass = 0.0;
  if (range.lo < 0.0) mass += zero_counts_[dim];
  const double w = bucket_width_[dim];
  const double lo = std::max(range.lo, 0.0);
  for (size_t b = 0; b < buckets_; ++b) {
    double b_lo = static_cast<double>(b) * w;
    double b_hi = b_lo + w;
    double overlap = std::min(range.hi, b_hi) - std::max(lo, b_lo);
    if (overlap <= 0.0) continue;
    mass += counts_[dim][b] * std::min(1.0, overlap / w);
  }
  return total_rows_ == 0 ? 0.0 : mass / static_cast<double>(total_rows_);
}

Result<AggregateOps::State> HistogramEvaluationLayer::EvaluateBox(
    const std::vector<PScoreRange>& box) {
  if (!prepared_) ACQ_RETURN_IF_ERROR(Prepare());
  if (box.size() != task_->d()) {
    return Status::InvalidArgument(
        StringFormat("box has %zu ranges, task has %zu dimensions",
                     box.size(), task_->d()));
  }
  ++stats_.queries;
  stats_.tuples_scanned += buckets_ * task_->d();  // bucket reads
  double fraction = 1.0;
  for (size_t i = 0; i < task_->d(); ++i) {
    fraction *= Selectivity(i, box[i]);
  }
  return AggregateOps::State{fraction * static_cast<double>(total_rows_)};
}

}  // namespace acquire
