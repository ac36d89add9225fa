#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

// The benchmark's three workloads and their seeded input generators. The
// server only ever sees what these produce: ACQ SQL text with its gamma and
// delta, and APPEND row batches. Every generated value is a pure function of
// (seed, stream, index), so a reply can be re-derived and checked later.

#include <cstdint>
#include <string>
#include <vector>

#include "storage/catalog.h"
#include "storage/value.h"

namespace perfbench {

struct WorkloadSpec {
  std::string name;
  size_t rows = 0;  // lineitem rows in the generated TPC-H catalog
  /// The client sends one APPEND after this many SUBMITs; 0 = read-only.
  /// Only a workload that appends runs with the WAL on (fsync "batch").
  size_t submits_per_append = 0;
  size_t append_batch_rows = 0;
};

/// The workload named `name`, or nullptr.
const WorkloadSpec* FindWorkload(const std::string& name);

struct AcqRequest {
  std::string sql;
  double gamma = 10.0;
  double delta = 0.05;
  /// Equal keys mean an identical task: the cache may answer a repeat.
  std::string Key() const;
};

/// Request streams: the measured one, and the warm-up one, which never
/// overlaps it.
constexpr size_t kMeasuredStream = 0;
constexpr size_t kWarmupStream = 1;

/// The i-th ACQ of request stream `stream`.
AcqRequest MakeAcq(const WorkloadSpec& spec, uint64_t seed, size_t stream,
                   size_t index);

/// The ingest_mix template pool (one shared layout); empty elsewhere.
std::vector<AcqRequest> Templates(const WorkloadSpec& spec, uint64_t seed);

/// The i-th APPEND batch: lineitem rows drawn from the generator's column
/// domains.
std::vector<std::vector<acquire::Value>> MakeAppendBatch(
    const WorkloadSpec& spec, uint64_t seed, size_t index);

/// The TPC-H catalog every server and reference run is built on. Its data
/// is fixed (generator seed 42), like a standard dataset: --seed varies the
/// requests and appended rows, not the table they run against.
acquire::Status GenerateCatalog(const WorkloadSpec& spec,
                                acquire::Catalog* catalog);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
