#include "replay.h"

#include <algorithm>
#include <memory>
#include <vector>

#include "core/processor.h"
#include "index/backend_factory.h"
#include "server/result_cache.h"
#include "sql/binder.h"

namespace perfbench {

namespace {

using acquire::AcqOutcome;
using acquire::AcqTask;
using acquire::EvaluationLayer;
using acquire::Result;
using acquire::Status;

acquire::AcquireOptions OptionsFor(const AcqRequest& request) {
  acquire::AcquireOptions options;
  options.gamma = request.gamma;
  options.delta = request.delta;
  return options;
}

/// The grid step the engine's backend-driven ProcessAcq gives the layer it
/// builds (core/processor.cc), so replayed layouts match served ones.
acquire::BackendOptions BackendFor(const AcqTask& task,
                                   const acquire::AcquireOptions& options) {
  acquire::BackendOptions backend;
  backend.grid_step =
      options.gamma / static_cast<double>(std::max<size_t>(task.d(), 1));
  return backend;
}

void FillCounts(const AcqOutcome& outcome, ReplayResult* out) {
  out->queries_explored = outcome.result.queries_explored;
  out->cell_queries = outcome.result.cell_queries;
  out->merge_ms = outcome.result.exec_stats.merge_ms;
  out->expand_ms = outcome.result.exec_stats.expand_ms;
}

Result<ReplayResult> ReplayUntraced(const acquire::Catalog& catalog,
                                    const AcqRequest& request) {
  const int64_t start = NowNs();
  const acquire::AcquireOptions options = OptionsFor(request);
  acquire::Binder binder(&catalog);
  Result<AcqTask> task = binder.PlanSql(request.sql);
  if (!task.ok()) return task.status();
  ACQ_ASSIGN_OR_RETURN(
      std::unique_ptr<EvaluationLayer> layer,
      acquire::MakeEvaluationLayer(&*task, task->eval_backend,
                                   BackendFor(*task, options)));
  ACQ_RETURN_IF_ERROR(layer->Prepare());
  ACQ_ASSIGN_OR_RETURN(AcqOutcome outcome,
                       acquire::ProcessAcq(*task, layer.get(), options));
  ReplayResult out;
  out.report = acquire::BuildReportJson(outcome, &*task, 0.0);
  out.total_ms = static_cast<double>(NowNs() - start) / 1e6;
  FillCounts(outcome, &out);
  return out;
}

}  // namespace

Result<ReplayResult> ReplayAcq(const acquire::Catalog& catalog,
                               const AcqRequest& request, Tracer* tracer,
                               uint64_t acq) {
  if (tracer == nullptr) return ReplayUntraced(catalog, request);

  const acquire::AcquireOptions options = OptionsFor(request);
  acquire::Binder binder(&catalog);
  const int64_t root = tracer->Open("acq", acq, -1);

  Result<AcqTask> task = Status::Internal("not planned");
  {
    ScopedSpan span(tracer, "sql.plan", acq, root);
    task = binder.PlanSql(request.sql);
  }
  if (!task.ok()) return task.status();

  std::unique_ptr<EvaluationLayer> layer;
  {
    ScopedSpan span(tracer, "index.prepare", acq, root);
    Result<std::unique_ptr<EvaluationLayer>> made =
        acquire::MakeEvaluationLayer(&*task, task->eval_backend,
                                     BackendFor(*task, options));
    if (!made.ok()) return made.status();
    layer = std::move(*made);
    ACQ_RETURN_IF_ERROR(layer->Prepare());
  }

  Result<AcqOutcome> outcome = Status::Internal("not run");
  ReplayResult out;
  {
    ScopedSpan span(tracer, "core.search", acq, root);
    TimedLayer timed(layer.get(), tracer, acq, span.id());
    outcome = acquire::ProcessAcq(*task, &timed, options);
    out.tuples_scanned = timed.tuples_scanned();
  }
  if (!outcome.ok()) return outcome.status();

  {
    ScopedSpan span(tracer, "server.render", acq, root);
    out.report = acquire::BuildReportJson(*outcome, &*task, 0.0);
  }
  tracer->Close(root);

  FillCounts(*outcome, &out);
  Interval search_span;
  std::vector<Interval> exec;
  for (const Span& s : tracer->SpansOf(acq)) {
    if (s.name == "acq") out.total_ms = s.ms();
    if (s.name == "sql.plan") out.plan_ms = s.ms();
    if (s.name == "index.prepare") out.prepare_ms = s.ms();
    if (s.name == "server.render") out.render_ms = s.ms();
    if (s.name == "core.search") {
      out.search_ms = s.ms();
      search_span = {s.start_ns, s.end_ns};
    }
    if (s.name == "exec.cells") {
      out.cells_ms += s.ms();
      ++out.cell_calls;
      out.cells += s.items;
    }
    if (s.name == "exec.box") ++out.box_calls;
    if (s.name == "exec.cells" || s.name == "exec.box") {
      exec.push_back({s.start_ns, s.end_ns});
    }
  }
  out.self_ms = static_cast<double>(SelfNs(search_span, exec)) / 1e6;
  return out;
}

std::string DiffReports(const acquire::JsonValue& got,
                        const acquire::JsonValue& want) {
  static const char* const kFields[] = {"mode",      "termination",
                                        "satisfied", "original_aggregate",
                                        "best",      "answers"};
  for (const char* field : kFields) {
    const acquire::JsonValue* a = got.Get(field);
    const acquire::JsonValue* b = want.Get(field);
    if (a == nullptr || b == nullptr) {
      return std::string(field) + ": missing";
    }
    const std::string da = a->Dump();
    const std::string db = b->Dump();
    if (da != db) {
      return std::string(field) + ": got " + da.substr(0, 200) + " want " +
             db.substr(0, 200);
    }
  }
  return "";
}

}  // namespace perfbench
