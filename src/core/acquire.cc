#include "core/acquire.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <optional>
#include <utility>

#include "common/stopwatch.h"
#include "core/run_frame.h"

namespace acquire {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

RefinedQuery MakeOffGridAnswer(const RefinedSpace& space,
                               const RunFrame::Probe& probe) {
  RefinedQuery q;
  q.pscores = probe.pscores;
  q.qscore = space.QScoreOfPScores(probe.pscores);
  q.aggregate = probe.value;
  q.error = probe.error;
  q.description = space.DescribePScores(probe.pscores);
  return q;
}

}  // namespace

Status CheckAcquireOptions(const AcquireOptions& options) {
  if (!std::isfinite(options.gamma) || options.gamma <= 0.0) {
    return Status::InvalidArgument("gamma must be finite and positive");
  }
  if (!std::isfinite(options.delta) || options.delta < 0.0) {
    return Status::InvalidArgument("delta must be finite and non-negative");
  }
  return Status::OK();
}

RunFrame::RunFrame(const AcqTask& task, EvaluationLayer* layer,
                   const AcquireOptions& options)
    : task_(task),
      layer_(layer),
      options_(options),
      error_fn_(options.error_fn ? options.error_fn
                                 : ErrorFn(DefaultAggregateError)) {}

Status RunFrame::Begin() {
  ACQ_RETURN_IF_ERROR(CheckAcquireOptions(options_));
  if (task_.d() == 0) {
    return Status::InvalidArgument("task has no refinable predicates");
  }
  if (layer_ == nullptr || &layer_->task() != &task_) {
    return Status::InvalidArgument(
        "evaluation layer must wrap the same AcqTask");
  }
  space_.emplace(&task_, options_.gamma, options_.norm);
  // The layer charges its materialization (and any charges deferred from a
  // lazy Prepare the processor triggered earlier) to the budget attached
  // when it prepares. A memory budget needs a context to latch exhaustion
  // into, so budget-only runs get a local one.
  ctx_ = options_.run_ctx;
  if (ctx_ == nullptr && options_.memory_budget_bytes > 0) ctx_ = &local_ctx_;
  if (ctx_ != nullptr && options_.memory_budget_bytes > 0 &&
      ctx_->budget().limit() == 0) {
    ctx_->budget().set_limit(options_.memory_budget_bytes);
  }
  if (ctx_ != nullptr) layer_->set_memory_budget(&ctx_->budget());
  ACQ_RETURN_IF_ERROR(layer_->Prepare());
  layer_->ResetStats();
  sw_.Restart();
  return Status::OK();
}

bool RunFrame::Interrupted() {
  if (ctx_ == nullptr || !ctx_->ShouldStop()) return false;
  result_.termination = ctx_->Interruption();
  return result_.termination != RunTermination::kCompleted;
}

Result<std::vector<AggregateOps::State>> RunFrame::EvaluateQueries(
    const int32_t* keys, size_t count) {
  Stopwatch sw;
  const size_t d = task_.d();
  std::vector<std::vector<PScoreRange>> boxes;
  boxes.reserve(count);
  GridCoord coord;
  for (size_t q = 0; q < count; ++q) {
    coord.assign(keys + q * d, keys + (q + 1) * d);
    boxes.push_back(space_->QueryBox(coord));
  }
  Result<std::vector<AggregateOps::State>> states =
      layer_->EvaluateBoxes(boxes);
  explore_ms += sw.ElapsedMillis();
  return states;
}

Result<std::optional<RunFrame::Probe>> RunFrame::RepartitionCell(
    std::vector<double> lo, std::vector<double> hi) {
  const Constraint& constraint = task_.constraint;
  std::optional<Probe> best;
  std::vector<double> mid(lo.size());
  for (int iter = 0; iter < options_.repartition_iters; ++iter) {
    for (size_t i = 0; i < mid.size(); ++i) mid[i] = 0.5 * (lo[i] + hi[i]);
    ACQ_ASSIGN_OR_RETURN(double value, layer_->EvaluateQueryValue(mid));
    const double err = error_fn_(constraint, value);
    if (!best.has_value() || err < best->error) best = Probe{mid, value, err};
    if (err <= options_.delta) break;
    if (value < constraint.target) {
      lo = mid;  // too few: move toward the cell's upper corner
    } else {
      hi = mid;
    }
  }
  if (best.has_value() && best->error <= options_.delta) return best;
  return std::optional<Probe>();
}

AcquireResult RunFrame::Finish() {
  result_.satisfied = !result_.queries.empty();
  std::sort(result_.queries.begin(), result_.queries.end(),
            [](const RefinedQuery& a, const RefinedQuery& b) {
              return a.qscore < b.qscore;
            });
  result_.exec_stats = layer_->stats();
  result_.exec_stats.expand_ms = expand_ms;
  result_.exec_stats.explore_ms = explore_ms;
  result_.exec_stats.merge_ms = merge_ms;
  result_.elapsed_ms = sw_.ElapsedMillis();
  return std::move(result_);
}

RefinedQuery MakeGridAnswer(const RefinedSpace& space, const GridCoord& coord,
                            double aggregate, double error) {
  RefinedQuery q;
  q.coord = coord;
  q.pscores = space.CoordPScores(coord);
  q.qscore = space.QScoreOfPScores(q.pscores);
  q.aggregate = aggregate;
  q.error = error;
  q.description = space.DescribePScores(q.pscores);
  return q;
}

SearchOrder ResolveSearchOrder(const AcquireOptions& options) {
  if (options.order != SearchOrder::kAuto) return options.order;
  return options.norm.kind() == NormKind::kLInf ? SearchOrder::kShell
                                                : SearchOrder::kBfs;
}

std::unique_ptr<QueryGenerator> MakeQueryGenerator(
    const RefinedSpace* space, const AcquireOptions& options,
    RunContext* ctx) {
  switch (ResolveSearchOrder(options)) {
    case SearchOrder::kShell:
      return std::make_unique<ShellGenerator>(space, ctx);
    case SearchOrder::kBestFirst:
      return std::make_unique<BestFirstGenerator>(space, ctx);
    case SearchOrder::kAuto:
    case SearchOrder::kBfs:
      break;
  }
  return std::make_unique<BfsGenerator>(space, ctx);
}

Result<AcquireResult> RunAcquire(const AcqTask& task, EvaluationLayer* layer,
                                 const AcquireOptions& options,
                                 AggregateStore* store) {
  RunFrame frame(task, layer, options);
  ACQ_RETURN_IF_ERROR(frame.Begin());
  const ErrorFn& error_fn = frame.error_fn();
  const RefinedSpace& space = frame.space();
  RunContext* const ctx = frame.ctx();
  AcquireResult& result = frame.result();

  const SearchOrder order = ResolveSearchOrder(options);
  std::unique_ptr<QueryGenerator> generator =
      MakeQueryGenerator(&space, options, ctx);
  // Per-layer divergence detection only makes sense when the generator
  // emits discrete layers; best-first scores are (nearly) unique per coord.
  const bool discrete_layers = order != SearchOrder::kBestFirst;

  // Algorithm 4's minRefLayer, in generator-score units. Once a hit occurs,
  // the rest of its layer is examined and the search stops — or, with
  // collect_within_gamma, continues for another gamma's worth of layers.
  double stop_score = kInf;
  // The extra score budget gamma buys: for BFS/shell each layer adds one
  // grid step to the L1 refinement, so gamma ~= d layers; for best-first the
  // score *is* the QScore.
  const double gamma_bonus = order == SearchOrder::kBestFirst
                                 ? options.gamma
                                 : options.gamma / space.step();

  // Divergence detection across completed layers (see AcquireOptions).
  double last_score = 0.0;
  double layer_min_error = kInf;
  double prev_layer_min_error = kInf;
  int worse_layers = 0;

  // Best-so-far (materialized lazily at the end).
  GridCoord best_coord;
  double best_error = kInf;
  double best_aggregate = 0.0;
  bool best_is_offgrid = false;
  RefinedQuery best_offgrid;
  uint64_t stall = 0;  // queries since the best error last improved

  // Layer-boundary bookkeeping (divergence detection across completed
  // layers; see AcquireOptions). False stops the search.
  auto close_layer = [&](double score) {
    if (stop_score == kInf) {
      if (layer_min_error > prev_layer_min_error) {
        ++worse_layers;
      } else if (layer_min_error < prev_layer_min_error) {
        worse_layers = 0;
      }
      if (worse_layers >= options.divergence_patience) return false;
    }
    prev_layer_min_error = layer_min_error;
    layer_min_error = kInf;
    last_score = score;
    return true;
  };

  // The per-coordinate body: record the aggregate of the coordinate whose d
  // levels start at `key`, repartition on an overshoot, apply the
  // stall/max_explored stopping rules. False stops the search.
  auto investigate = [&](const int32_t* key, double score,
                         double aggregate) -> Result<bool> {
    ++result.queries_explored;
    if (ctx != nullptr) {
      ctx->queries_explored.store(result.queries_explored,
                                  std::memory_order_relaxed);
    }
    const double err = error_fn(task.constraint, aggregate);
    layer_min_error = std::min(layer_min_error, err);

    if (err < best_error) {
      best_error = err;
      best_coord.assign(key, key + task.d());
      best_aggregate = aggregate;
      best_is_offgrid = false;
      stall = 0;
    } else if (++stall > options.stall_limit && stop_score == kInf) {
      return false;
    }

    if (err <= options.delta) {
      result.queries.push_back(MakeGridAnswer(
          space, GridCoord(key, key + task.d()), aggregate, err));
      if (stop_score == kInf) {
        stop_score =
            options.collect_within_gamma ? score + gamma_bonus : score;
      }
    } else if (options.repartition_iters > 0 &&
               OvershootsBeyondDelta(task.constraint, aggregate,
                                     options.delta)) {
      // The cell ((u - 1) * step, u * step], with 0 as its lower corner at
      // level 0.
      std::vector<double> lo(task.d()), hi(task.d());
      for (size_t i = 0; i < task.d(); ++i) {
        hi[i] = static_cast<double>(key[i]) * space.step();
        lo[i] = key[i] > 0 ? hi[i] - space.step() : 0.0;
      }
      ACQ_ASSIGN_OR_RETURN(std::optional<RunFrame::Probe> probe,
                           frame.RepartitionCell(std::move(lo), std::move(hi)));
      if (probe.has_value()) {
        RefinedQuery repartitioned = MakeOffGridAnswer(space, *probe);
        if (repartitioned.error < best_error) {
          best_error = repartitioned.error;
          best_offgrid = repartitioned;
          best_is_offgrid = true;
        }
        result.queries.push_back(std::move(repartitioned));
        if (stop_score == kInf) {
          stop_score =
              options.collect_within_gamma ? score + gamma_bonus : score;
        }
      }
    }

    if (result.queries_explored >= options.max_explored) {
      // Budget exhausted, not a verdict about the space: report distinctly
      // so callers can tell "no answer found" from "ran out of budget".
      result.termination = RunTermination::kTruncated;
      return false;
    }
    return true;
  };

  // The progress frame's best-so-far. It only runs for frames that actually
  // emit, so the Describe() rendering costs nothing on throttle-coalesced
  // drains.
  auto fill_best = [&](ProgressSnapshot* snap) {
    if (best_is_offgrid) {
      snap->has_best = true;
      snap->best_error = best_offgrid.error;
      snap->best_qscore = best_offgrid.qscore;
      snap->best_aggregate = best_offgrid.aggregate;
      snap->best_description = best_offgrid.description;
    } else if (!best_coord.empty() || result.queries_explored > 0) {
      const GridCoord bc =
          best_coord.empty() ? GridCoord(task.d(), 0) : best_coord;
      snap->has_best = true;
      snap->best_error = best_error;
      snap->best_qscore = space.QScoreOf(bc);
      snap->best_aggregate = best_aggregate;
      snap->best_description = space.Describe(bc);
    }
  };

  // Prepare alone can exhaust a tight budget (the materialized matrix is
  // charged there). Still answer the origin — the original query, one box —
  // so the caller gets a meaningful best-so-far instead of an empty report,
  // then stop with the budget verdict.
  if (ctx != nullptr && ctx->budget().exhausted()) {
    const GridCoord origin(task.d(), 0);
    ACQ_ASSIGN_OR_RETURN(AggregateOps::State state,
                         layer->EvaluateBox(space.QueryBox(origin)));
    ACQ_ASSIGN_OR_RETURN(
        const bool keep_unused,
        investigate(origin.data(), 0.0, task.agg.ops->Final(state)));
    (void)keep_unused;
    result.termination = ctx->Interruption();
  } else {
    BatchExplorer batch(&space, layer, generator.get(), ctx, store);
    // Shell order's whole shell drains as one layer with intra-layer
    // predecessors, resolved by the shell cursors instead of the
    // previous-layer window.
    batch.set_shell_drain_hint(order == SearchOrder::kShell);
    std::vector<AggregateOps::State> layer_states;  // non-incremental mode
    bool running = true;
    while (running && !frame.Interrupted() && batch.NextLayer()) {
      const double score = batch.layer_score();
      if (score > stop_score) break;
      if (discrete_layers && score != last_score && !close_layer(score)) {
        break;
      }

      // Execute the whole layer's sub-queries up front (one batch), then
      // drain in generation order.
      if (options.use_incremental) {
        ACQ_RETURN_IF_ERROR(batch.ExecuteLayer());
      } else {
        ACQ_ASSIGN_OR_RETURN(layer_states, frame.EvaluateQueries(
                                               batch.layer_key(0),
                                               batch.layer_size()));
      }

      // Algorithm 3 per coordinate, in generation order: the Eq. 17 merges
      // stay sequential (DESIGN.md §5).
      Stopwatch t_merge;
      for (size_t q = 0; q < batch.layer_size(); ++q) {
        const int32_t* key = batch.layer_key(q);
        double aggregate;
        if (options.use_incremental) {
          ACQ_ASSIGN_OR_RETURN(aggregate,
                               batch.explorer().ComputeAggregate(key));
        } else {
          aggregate = task.agg.ops->Final(layer_states[q]);
        }
        ACQ_ASSIGN_OR_RETURN(const bool keep,
                             investigate(key, score, aggregate));
        if (!keep) {
          running = false;
          break;
        }
      }
      frame.merge_ms += t_merge.ElapsedMillis();
      if (ctx != nullptr) {
        ctx->cell_queries.store(batch.explorer().cell_queries(),
                                std::memory_order_relaxed);
      }
      // This equi-score layer is fully investigated: a drain point.
      if (running) frame.LayerDrained(fill_best);
    }
    result.cell_queries = batch.explorer().cell_queries();
    result.store_replayed = batch.explorer().replayed();
    frame.expand_ms += batch.expand_ms();
    frame.explore_ms += batch.batch_ms();
  }

  if (best_is_offgrid) {
    result.best = best_offgrid;
  } else if (!best_coord.empty() || result.queries_explored > 0) {
    result.best =
        MakeGridAnswer(space, best_coord.empty() ? GridCoord(task.d(), 0)
                                                 : best_coord,
                       best_aggregate, best_error);
  }
  return frame.Finish();
}

}  // namespace acquire
