#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/random.h"
#include "common/string_util.h"
#include "workload/tpch_gen.h"

namespace perfbench {

namespace {

using acquire::Rng;
using acquire::StringFormat;

// prepare_bound: every request draws its own predicate constants, so no two
// share a layout and each pays a full index prepare at 5e5 rows.
// search_bound: one fixed layout at 1e5 rows, d = 4, gamma = 12 and distinct
// ratio targets, so the Explore search dominates.
// ingest_mix: a template pool on one layout (repeats hit the result cache)
// with APPEND batches interleaved, so writes invalidate it.
// Each workload has one client, so only one request is ever in flight and
// the process CPU time spent during a call is that request's own.
const WorkloadSpec kWorkloads[] = {
    {"prepare_bound", 500000, 0, 0},
    {"search_bound", 100000, 0, 0},
    {"ingest_mix", 200000, 2, 64},
};

constexpr size_t kTemplates = 4;

/// lineitem column domains, as workload/tpch_gen.cc draws them (uniform).
struct Domain {
  const char* column;
  double lo;
  double hi;
  double At(double quantile) const { return lo + quantile * (hi - lo); }
};
constexpr Domain kQuantity{"l_quantity", 1.0, 50.0};
constexpr Domain kPrice{"l_extendedprice", 900.0, 104950.0};
constexpr Domain kDiscount{"l_discount", 0.0, 0.10};
constexpr Domain kTax{"l_tax", 0.0, 0.08};
constexpr Domain kShipdays{"l_shipdays", 1.0, 2557.0};

uint64_t Mix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// `kind` keeps the generators (predicates, targets, rows...) independent.
Rng StreamRng(uint64_t seed, uint64_t kind, uint64_t stream,
              uint64_t index) {
  return Rng(Mix(Mix(Mix(seed) ^ kind) ^ stream) ^ index);
}

/// "a <= x AND b <= y ..." over the given bounds.
std::string Where(const std::vector<Domain>& dims,
                  const std::vector<double>& bounds) {
  std::string where;
  for (size_t i = 0; i < dims.size(); ++i) {
    if (i > 0) where += " AND ";
    where += StringFormat("%s <= %.6f", dims[i].column, bounds[i]);
  }
  return where;
}

AcqRequest PrepareBoundAcq(const WorkloadSpec& spec, uint64_t seed,
                           size_t stream, size_t index) {
  Rng rng = StreamRng(seed, 1, stream, index);
  const std::vector<Domain> dims = {kQuantity, kPrice, kShipdays};
  std::vector<double> bounds;
  double selectivity = 1.0;
  for (const Domain& dim : dims) {
    const double q = rng.NextDouble(0.25, 0.45);
    bounds.push_back(dim.At(q));
    selectivity *= q;
  }
  const double target = std::round(static_cast<double>(spec.rows) *
                                   selectivity * rng.NextDouble(1.3, 1.6));
  AcqRequest req;
  req.sql = StringFormat(
      "SELECT * FROM lineitem CONSTRAINT COUNT(*) >= %.0f WHERE %s", target,
      Where(dims, bounds).c_str());
  return req;
}

AcqRequest SearchBoundAcq(const WorkloadSpec& spec, uint64_t seed,
                          size_t stream, size_t index) {
  const std::vector<Domain> dims = {kQuantity, kPrice, kShipdays, kDiscount};
  // Selectivity 0.05 spread evenly over d = 4, as explore_batch_bench does.
  const double q = std::pow(0.05, 0.25);
  std::vector<double> bounds;
  for (const Domain& dim : dims) bounds.push_back(dim.At(q));
  // Ratio 0.35-0.39 of the ~5% base. Targets are distinct by construction:
  // request j maps to slot (j' * 1009 + 17) mod 3500, a bijection on
  // [0, 3500) because 1009 is prime and does not divide 3500. j' permutes j
  // within blocks of 16 by a seed-drawn order, so every seed covers the
  // same slots and runs differ in order, not in how hard their targets are.
  // The warm-up stream sits half a slot off the measured one.
  const double base = 0.05 * static_cast<double>(spec.rows);
  const bool warmup = stream != kMeasuredStream;
  const uint64_t j = index;
  std::vector<uint64_t> order(16);
  for (uint64_t k = 0; k < order.size(); ++k) order[k] = k;
  Rng block_rng = StreamRng(seed, 6, 0, j / 16);
  block_rng.Shuffle(&order);
  const uint64_t permuted = j / 16 * 16 + order[j % 16];
  const double slot =
      static_cast<double>((permuted * 1009 + 17) % 3500) +
      (warmup ? 0.5 : 0.0);
  const double target =
      base / 0.39 + slot * (base / 0.35 - base / 0.39) / 3500.0;
  AcqRequest req;
  req.gamma = 12.0;
  req.sql = StringFormat(
      "SELECT * FROM lineitem CONSTRAINT COUNT(*) >= %.2f WHERE %s", target,
      Where(dims, bounds).c_str());
  return req;
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

std::string AcqRequest::Key() const {
  return StringFormat("%s|%.17g|%.17g", sql.c_str(), gamma, delta);
}

std::vector<AcqRequest> Templates(const WorkloadSpec& spec, uint64_t seed) {
  if (spec.name != "ingest_mix") return {};
  Rng rng = StreamRng(seed, 3, 0, 0);
  const std::vector<Domain> dims = {kQuantity, kDiscount, kShipdays};
  std::vector<double> bounds;
  double selectivity = 1.0;
  for (const Domain& dim : dims) {
    const double q = rng.NextDouble(0.28, 0.32);
    bounds.push_back(dim.At(q));
    selectivity *= q;
  }
  const double base_sum = static_cast<double>(spec.rows) * selectivity *
                          0.5 * (kPrice.lo + kPrice.hi);
  std::vector<AcqRequest> templates;
  for (size_t k = 0; k < kTemplates; ++k) {
    AcqRequest req;
    req.sql = StringFormat(
        "SELECT * FROM lineitem CONSTRAINT SUM(l_extendedprice) >= %.0f "
        "WHERE %s",
        std::round(base_sum * (1.3 + 0.1 * static_cast<double>(k))),
        Where(dims, bounds).c_str());
    templates.push_back(std::move(req));
  }
  return templates;
}

AcqRequest MakeAcq(const WorkloadSpec& spec, uint64_t seed, size_t stream,
                   size_t index) {
  if (spec.name == "prepare_bound") {
    return PrepareBoundAcq(spec, seed, stream, index);
  }
  if (spec.name == "search_bound") {
    return SearchBoundAcq(spec, seed, stream, index);
  }
  const std::vector<AcqRequest> templates = Templates(spec, seed);
  Rng rng = StreamRng(seed, 2, stream, index);
  return templates[rng.NextBounded(templates.size())];
}

std::vector<std::vector<acquire::Value>> MakeAppendBatch(
    const WorkloadSpec& spec, uint64_t seed, size_t index) {
  Rng rng = StreamRng(seed, 4, 0, index);
  std::vector<std::vector<acquire::Value>> rows;
  for (size_t r = 0; r < spec.append_batch_rows; ++r) {
    const int64_t orderkey =
        static_cast<int64_t>(spec.rows / 4 + 1 + rng.NextBounded(1000000));
    rows.push_back({acquire::Value(orderkey),
                    acquire::Value(rng.NextDouble(kQuantity.lo, kQuantity.hi)),
                    acquire::Value(rng.NextDouble(kPrice.lo, kPrice.hi)),
                    acquire::Value(rng.NextDouble(kDiscount.lo, kDiscount.hi)),
                    acquire::Value(rng.NextDouble(kTax.lo, kTax.hi)),
                    acquire::Value(rng.NextDouble(kShipdays.lo, kShipdays.hi))});
  }
  return rows;
}

acquire::Status GenerateCatalog(const WorkloadSpec& spec,
                                acquire::Catalog* catalog) {
  acquire::TpchOptions options;
  options.lineitems = spec.rows;
  options.suppliers = std::max<size_t>(100, spec.rows / 200);
  options.parts = std::max<size_t>(200, spec.rows / 100);
  options.seed = 42;
  return acquire::GenerateTpch(options, catalog);
}

}  // namespace perfbench
