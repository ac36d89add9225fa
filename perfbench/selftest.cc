// Self-tests of the benchmark's own arithmetic and of the timing wrapper.
// They run at the start of every benchmark run (a failure marks the run
// incorrect) and alone with `acq_perfbench --selftest`.

#include "selftest.h"

#include <cmath>
#include <vector>

#include "common/string_util.h"
#include "replay.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

namespace {

#define SELFTEST_EXPECT(cond)                                             \
  do {                                                                    \
    if (!(cond)) {                                                        \
      *failure = acquire::StringFormat("%s:%d: %s", __FILE__, __LINE__,   \
                                       #cond);                            \
      return false;                                                       \
    }                                                                     \
  } while (0)

std::vector<double> Range(int lo, int hi) {
  std::vector<double> v;
  for (int i = hi; i >= lo; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

bool TestPercentiles(std::string* failure) {
  const Summary s100 = Summarize(Range(1, 100));
  SELFTEST_EXPECT(s100.count == 100);
  SELFTEST_EXPECT(s100.p50 == 50.0);
  SELFTEST_EXPECT(s100.p90 == 90.0);
  SELFTEST_EXPECT(s100.beyond_p90 == 10);
  // 99 samples leave only 9 beyond p90: too few for a p90 claim.
  const Summary s99 = Summarize(Range(1, 99));
  SELFTEST_EXPECT(s99.p90 == 90.0);
  SELFTEST_EXPECT(s99.beyond_p90 == 9);
  const Summary s200 = Summarize(Range(1, 200));
  SELFTEST_EXPECT(s200.p50 == 100.0 && s200.p90 == 180.0);
  SELFTEST_EXPECT(s200.beyond_p90 == 20);
  const Summary one = Summarize({7.5});
  SELFTEST_EXPECT(one.p50 == 7.5 && one.p90 == 7.5 && one.beyond_p90 == 0);
  const Summary none = Summarize({});
  SELFTEST_EXPECT(none.count == 0 && none.p50 == 0.0);
  // Ties at the percentile are not "beyond" it.
  const Summary ties = Summarize(std::vector<double>(40, 3.0));
  SELFTEST_EXPECT(ties.p90 == 3.0 && ties.beyond_p90 == 0);
  return true;
}

bool TestSelfTime(std::string* failure) {
  const Interval parent{0, 100};
  // Overlapping children (concurrent calls) count once; parts outside the
  // parent are clipped.
  const std::vector<Interval> children = {
      {10, 20}, {15, 30}, {50, 60}, {90, 120}, {150, 160}};
  SELFTEST_EXPECT(CoveredNs(parent, children) == 40);
  SELFTEST_EXPECT(SelfNs(parent, children) == 60);
  SELFTEST_EXPECT(SelfNs(parent, {}) == 100);
  SELFTEST_EXPECT(SelfNs(parent, {{0, 100}, {20, 40}}) == 0);
  SELFTEST_EXPECT(SelfNs(parent, {{-50, 5}}) == 95);
  return true;
}

/// The wrapped layer must not change what the search computes: answers,
/// queries_explored and cell_queries are compared bit for bit with the
/// unwrapped layer at d = 2..4.
bool TestWrapperIdentity(std::string* failure) {
  WorkloadSpec spec;
  spec.rows = 20000;
  acquire::Catalog catalog;
  const acquire::Status generated = GenerateCatalog(spec, &catalog);
  SELFTEST_EXPECT(generated.ok());
  const char* const columns[] = {"l_quantity", "l_shipdays",
                                 "l_extendedprice", "l_discount"};
  const double lo[] = {1.0, 1.0, 900.0, 0.0};
  const double hi[] = {50.0, 2557.0, 104950.0, 0.10};
  Tracer tracer;
  for (size_t d = 2; d <= 4; ++d) {
    const double q = std::pow(0.1, 1.0 / static_cast<double>(d));
    std::string where;
    for (size_t i = 0; i < d; ++i) {
      if (i > 0) where += " AND ";
      where += acquire::StringFormat("%s <= %.6f", columns[i],
                                     lo[i] + q * (hi[i] - lo[i]));
    }
    for (const char* agg : {"COUNT(*)", "SUM(l_extendedprice)"}) {
      const double base = agg[0] == 'C' ? 2000.0 : 2000.0 * 52925.0;
      AcqRequest request;
      request.sql = acquire::StringFormat(
          "SELECT * FROM lineitem CONSTRAINT %s >= %.0f WHERE %s", agg,
          base * 1.8, where.c_str());
      acquire::Result<ReplayResult> plain =
          ReplayAcq(catalog, request, nullptr, 0);
      acquire::Result<ReplayResult> timed =
          ReplayAcq(catalog, request, &tracer, d);
      SELFTEST_EXPECT(plain.ok() && timed.ok());
      SELFTEST_EXPECT(DiffReports(timed->report, plain->report).empty());
      SELFTEST_EXPECT(timed->queries_explored == plain->queries_explored);
      SELFTEST_EXPECT(timed->cell_queries == plain->cell_queries);
      SELFTEST_EXPECT(timed->queries_explored > 1);
      SELFTEST_EXPECT(timed->box_calls + timed->cell_calls > 0);
    }
  }
  return true;
}

}  // namespace

bool RunSelfTests(std::string* failure) {
  return TestPercentiles(failure) && TestSelfTime(failure) &&
         TestWrapperIdentity(failure);
}

}  // namespace perfbench
