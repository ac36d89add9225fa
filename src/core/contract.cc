#include "core/contract.h"

#include <algorithm>
#include <limits>
#include <optional>
#include <utility>

#include "common/stopwatch.h"
#include "common/string_util.h"
#include "core/run_frame.h"

namespace acquire {

ContractionDim::ContractionDim(std::string column, bool is_upper,
                               double bound, double width)
    : column_(std::move(column)),
      is_upper_(is_upper),
      bound_(bound),
      width_(width) {}

Status ContractionDim::Bind(const Schema& schema) {
  ACQ_ASSIGN_OR_RETURN(size_t idx, schema.FieldIndex(column_));
  if (!IsNumeric(schema.field(idx).type)) {
    return Status::TypeError("contraction predicate on non-numeric column: " +
                             column_);
  }
  col_index_ = static_cast<int>(idx);
  return Status::OK();
}

double ContractionDim::NeededPScore(const Table& table, size_t row) const {
  double v = table.column(static_cast<size_t>(col_index_)).GetDouble(row);
  // Tuples outside the original predicate are never admitted — contraction
  // only shrinks the query.
  double slack = (is_upper_ ? bound_ - v : v - bound_) / width_ * 100.0;
  if (slack < 0.0) return kUnreachable;
  slack = std::min(slack, 100.0);
  return 100.0 - slack;
}

double ContractionDim::ContractedBound(double pscore) const {
  double contraction = 100.0 - std::clamp(pscore, 0.0, 100.0);
  double delta = contraction / 100.0 * width_;
  return is_upper_ ? bound_ - delta : bound_ + delta;
}

std::string ContractionDim::DescribeAt(double pscore) const {
  std::string out = column_;
  out += is_upper_ ? " <= " : " >= ";
  AppendG(ContractedBound(pscore), &out);
  return out;
}

std::string ContractionDim::label() const { return DescribeAt(100.0); }

Result<AcqTask> MakeContractionTask(const AcqTask& task) {
  AcqTask out;
  out.relation = task.relation;
  out.agg = task.agg;
  out.constraint = task.constraint;
  out.eval_backend = task.eval_backend;
  for (const RefinementDimPtr& dim : task.dims) {
    const auto* numeric = dynamic_cast<const NumericDim*>(dim.get());
    if (numeric == nullptr) {
      return Status::Unsupported(
          "contraction supports numeric select predicates only (join bands "
          "cannot shrink below equality; categorical drill-down is future "
          "work): " +
          dim->label());
    }
    auto contraction = std::make_unique<ContractionDim>(
        numeric->column(), numeric->is_upper(), numeric->bound(),
        numeric->width());
    contraction->set_weight(dim->weight());
    out.dims.push_back(std::move(contraction));
  }
  for (const RefinementDimPtr& dim : out.dims) {
    ACQ_RETURN_IF_ERROR(dim->Bind(out.relation->schema()));
  }
  return out;
}

Result<AcquireResult> RunAcquireContract(const AcqTask& task,
                                         EvaluationLayer* layer,
                                         const AcquireOptions& options) {
  if (task.constraint.op != ConstraintOp::kEq) {
    return Status::Unsupported(
        "contraction targets equality constraints that overshoot");
  }
  RunFrame frame(task, layer, options);
  ACQ_RETURN_IF_ERROR(frame.Begin());
  const ErrorFn& error_fn = frame.error_fn();
  const RefinedSpace& space = frame.space();
  RunContext* const ctx = frame.ctx();
  AcquireResult& result = frame.result();
  const size_t d = task.d();
  double best_error = std::numeric_limits<double>::infinity();
  bool layer_hit = false;  // the layer being visited holds an answer

  // Converts a p'-space refinement into user-facing contraction terms.
  auto make_answer = [&](const std::vector<double>& pprime, double aggregate,
                         double err) {
    RefinedQuery q;
    q.pscores.resize(d);
    for (size_t i = 0; i < d; ++i) {
      q.pscores[i] = task.dims[i]->MaxPScore() - pprime[i];  // contraction c
    }
    q.qscore = space.QScoreOfPScores(q.pscores);
    q.aggregate = aggregate;
    q.error = err;
    q.description = space.DescribePScores(pprime);
    return q;
  };
  auto make_grid_answer = [&](const int32_t* key, double aggregate,
                              double err) {
    GridCoord coord(key, key + d);
    RefinedQuery q = make_answer(space.CoordPScores(coord), aggregate, err);
    q.coord = std::move(coord);
    return q;
  };

  // Per-coordinate body over p' levels `key`, whose full-query aggregate is
  // already evaluated. False stops the walk.
  auto visit = [&](const int32_t* key, double aggregate) -> Result<bool> {
    ++result.queries_explored;
    if (ctx != nullptr) {
      ctx->queries_explored.store(result.queries_explored,
                                  std::memory_order_relaxed);
    }
    double err = error_fn(task.constraint, aggregate);
    if (err < best_error) {
      best_error = err;
      result.best = make_grid_answer(key, aggregate, err);
    }
    if (err <= options.delta) {
      layer_hit = true;
      result.queries.push_back(make_grid_answer(key, aggregate, err));
    } else if (options.repartition_iters > 0 &&
               aggregate < task.constraint.target * (1.0 - options.delta)) {
      // Contracted past the target: the answer lies between this
      // coordinate and one grid step less contraction, the cell
      // [p' * step, min(p' * step + step, MaxPScore)]. Repartitioning
      // (Section 6) runs per coordinate, in walk order.
      std::vector<double> lo = space.CoordPScores(GridCoord(key, key + d));
      std::vector<double> hi(d);
      for (size_t i = 0; i < d; ++i) {
        hi[i] = std::min(lo[i] + space.step(), task.dims[i]->MaxPScore());
      }
      ACQ_ASSIGN_OR_RETURN(std::optional<RunFrame::Probe> probe,
                           frame.RepartitionCell(std::move(lo), std::move(hi)));
      if (probe.has_value()) {
        RefinedQuery answer = make_answer(probe->pscores, probe->value,
                                          probe->error);
        if (answer.error < best_error) {
          best_error = answer.error;
          result.best = answer;
        }
        layer_hit = true;
        result.queries.push_back(std::move(answer));
      }
    }
    if (result.queries_explored < options.max_explored) return true;
    result.termination = RunTermination::kTruncated;
    return false;
  };

  auto fill_best = [&](ProgressSnapshot* snap) {
    if (best_error < std::numeric_limits<double>::infinity()) {
      snap->has_best = true;
      snap->best_error = result.best.error;
      snap->best_qscore = result.best.qscore;
      snap->best_aggregate = result.best.aggregate;
      snap->best_description = result.best.description;
    }
  };

  // The walk is the expansion's BFS over contraction amounts c, read as
  // p'_i = MaxLevel(i) - c_i: its layers run from the original query
  // (c = 0) toward Q'_min in order of increasing total contraction, each in
  // descending lexicographic c order, which is ascending p' order. Each
  // layer's full-query boxes are evaluated in one batch and visited in that
  // order; the walk stops with the first layer that contains an answer.
  BfsGenerator generator(&space, ctx);
  std::vector<int32_t> keys;
  double layer_score = 0.0;
  while (!frame.Interrupted()) {
    Stopwatch t_expand;
    if (!generator.NextLayer(&keys, &layer_score)) break;
    for (size_t k = 0; k < keys.size(); ++k) {
      keys[k] = space.MaxLevel(k % d) - keys[k];
    }
    frame.expand_ms += t_expand.ElapsedMillis();

    const size_t n = keys.size() / d;
    ACQ_ASSIGN_OR_RETURN(std::vector<AggregateOps::State> states,
                         frame.EvaluateQueries(keys.data(), n));

    Stopwatch t_merge;
    bool keep_going = true;
    for (size_t q = 0; q < n && keep_going; ++q) {
      ACQ_ASSIGN_OR_RETURN(
          keep_going,
          visit(keys.data() + q * d, task.agg.ops->Final(states[q])));
    }
    frame.merge_ms += t_merge.ElapsedMillis();
    // Every coordinate of this layer was visited: a drain point.
    if (keep_going) frame.LayerDrained(fill_best);
    if (layer_hit || !keep_going) break;
  }
  return frame.Finish();
}

}  // namespace acquire
