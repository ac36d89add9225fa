// Ablation: approximate evaluation layers (Section 3's estimation/sampling
// modularity). ACQUIRE runs on Bernoulli samples of varying rate and on the
// histogram estimator; every recommended query is then validated against
// the full data to expose the estimation error the user would actually
// see. The 1K-row point of Figure 10(a) is the paper's own nod to
// sample-based deployment.

#include <cstdio>

#include "bench_util.h"
#include "core/processor.h"
#include "exec/approx_evaluation.h"

namespace acquire {
namespace bench {
namespace {

void Run() {
  const size_t rows = EnvRows(100000);
  printf("Ablation: sampling/estimation evaluation layers (rows=%zu, d=3, "
         "ratio=0.4, COUNT)\n\n", rows);
  Catalog catalog = MakeLineitemCatalog(rows);
  RatioTask rt = MakeLineitemTask(catalog, /*d=*/3, /*ratio=*/0.4);
  AcquireOptions options;
  options.delta = 0.05;

  DirectEvaluationLayer truth(&rt.task);
  TablePrinter table({"layer", "time_ms", "claimed_err", "true_err",
                      "satisfied"});

  auto run = [&](const char* name, EvaluationLayer* layer) {
    Stopwatch sw;
    Status prep = layer->Prepare();
    ACQ_CHECK(prep.ok()) << prep.ToString();
    auto result = RunAcquire(rt.task, layer, options);
    ACQ_CHECK(result.ok()) << result.status().ToString();
    double elapsed = sw.ElapsedMillis();
    const RefinedQuery& answer = result->queries.empty()
                                     ? result->best
                                     : result->queries.front();
    double true_value =
        truth.EvaluateQueryValue(answer.pscores).value_or(0.0);
    double true_err =
        DefaultAggregateError(rt.task.constraint, true_value);
    table.AddRow({name, Ms(elapsed), Err(answer.error), Err(true_err),
                  result->satisfied ? "yes" : "no"});
  };

  CellSortedEvaluationLayer exact(&rt.task, GridStepFor(rt.task, options));
  run("exact (cell-sorted)", &exact);
  for (double rate : {0.2, 0.05, 0.01}) {
    SamplingEvaluationLayer sampled(&rt.task, rate);
    run(StringFormat("sample %.0f%%", rate * 100).c_str(), &sampled);
  }
  HistogramEvaluationLayer hist64(&rt.task, 64);
  run("histogram (64 buckets, AVI)", &hist64);
  HistogramEvaluationLayer hist512(&rt.task, 512);
  run("histogram (512 buckets, AVI)", &hist512);

  table.Print();
  printf("\nclaimed_err is what the approximate layer believes; true_err "
         "re-evaluates the recommended query on the full data.\n");
}

}  // namespace
}  // namespace bench
}  // namespace acquire

int main() {
  acquire::bench::Run();
  return 0;
}
