// Example 2 from the paper: HybridCars Co. must order 100,000 units of a
// part, i.e. SUM(ps_availqty) over the matching supplier/part/partsupp
// join must reach 0.1M. Join predicates and part specs are NOREFINE;
// wholesale price and account balance bounds may be refined (query Q2').
//
// Run:  ./build/examples/supply_chain

#include <cstdio>

#include "core/acquire.h"
#include "core/processor.h"
#include "index/cell_sorted.h"
#include "sql/binder.h"
#include "sql/printer.h"
#include "workload/tpch_gen.h"

using namespace acquire;  // NOLINT — brevity in example code

int main() {
  Catalog catalog;
  TpchOptions options;
  options.suppliers = 1000;
  options.parts = 2000;
  options.suppliers_per_part = 4;
  if (Status s = GenerateTpch(options, &catalog); !s.ok()) {
    fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }

  // Q2' adapted to the generator's data: p_size <= 10 keeps a realistic
  // fraction of parts (exact equality on a synthetic int works too but
  // keeps very few suppliers).
  const char* sql =
      "SELECT * FROM supplier, part, partsupp "
      "CONSTRAINT SUM(ps_availqty) >= 0.5M "
      "WHERE (s_suppkey = ps_suppkey) NOREFINE "
      "AND (p_partkey = ps_partkey) NOREFINE "
      "AND (p_retailprice < 1000) AND (s_acctbal < 2000) "
      "AND (p_size <= 10) NOREFINE";

  Binder binder(&catalog);
  auto task = binder.PlanSql(sql);
  if (!task.ok()) {
    fprintf(stderr, "planning failed: %s\n", task.status().ToString().c_str());
    return 1;
  }
  printf("Procurement ACQ:\n%s\n\n", RenderOriginalSql(*task).c_str());

  AcquireOptions acq;
  acq.delta = 0.05;
  CellSortedEvaluationLayer layer(&*task, GridStepFor(*task, acq));
  double available =
      layer.EvaluateQueryValue(std::vector<double>(task->d(), 0.0))
          .value_or(0.0);
  printf("Units available under the original query: %.0f "
         "(need 500000)\n\n", available);

  auto result = RunAcquire(*task, &layer, acq);
  if (!result.ok()) {
    fprintf(stderr, "ACQUIRE failed: %s\n",
            result.status().ToString().c_str());
    return 1;
  }
  if (!result->satisfied) {
    printf("No refinement reaches 500K units; closest:\n  %s\n",
           result->best.ToString().c_str());
    return 0;
  }
  printf("Refined procurement queries meeting the order size "
         "(%.1f ms):\n\n", result->elapsed_ms);
  size_t shown = 0;
  for (const RefinedQuery& q : result->queries) {
    printf("  units=%.0f  refinement=%.2f\n  %s\n\n", q.aggregate, q.qscore,
           RenderRefinedSql(*task, q).c_str());
    if (++shown == 3) break;
  }
  return 0;
}
