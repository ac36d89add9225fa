#ifndef ACQUIRE_CORE_FINGERPRINT_H_
#define ACQUIRE_CORE_FINGERPRINT_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/result.h"
#include "core/acquire.h"
#include "exec/planner.h"
#include "storage/catalog.h"

namespace acquire {

/// Canonical 128-bit identity of one ACQ task: "would two submissions
/// produce bit-identical results?" Equal fingerprints are the result
/// cache's hit condition, so the key must cover exactly the inputs the
/// deterministic refinement search depends on:
///
///   - the catalog identity (generation counter, load parameters, and each
///     referenced table's name / row count / schema — not table contents,
///     which the generation counter stands in for),
///   - the bound plan (the full QuerySpec: predicates, joins, categorical
///     roll-ups, fixed filters, aggregate and constraint — canonicalized,
///     so two SQL spellings that bind identically share a key), and
///   - every result-affecting AcquireOptions field, with kAuto choices
///     resolved to their effective value so e.g. order=auto and order=bfs
///     on an L1 task hit the same entry.
///
/// Excluded on purpose (they change *whether/when* a run finishes, never
/// what a completed run returns): deadlines / run_ctx, memory budgets, and
/// failpoints. The cache only stores completed runs, so a task that would
/// have been interrupted simply misses.
struct TaskFingerprint {
  uint64_t hi = 0;
  uint64_t lo = 0;

  bool operator==(const TaskFingerprint& other) const {
    return hi == other.hi && lo == other.lo;
  }
  bool operator!=(const TaskFingerprint& other) const {
    return !(*this == other);
  }
  bool operator<(const TaskFingerprint& other) const {
    return hi != other.hi ? hi < other.hi : lo < other.lo;
  }

  /// 32 lowercase hex digits, hi first.
  std::string ToHex() const;
};

struct TaskFingerprintHash {
  size_t operator()(const TaskFingerprint& fp) const {
    return static_cast<size_t>(fp.lo ^ (fp.hi * 0x9e3779b97f4a7c15ULL));
  }
};

/// The human-readable serialization the fingerprint hashes — exposed so
/// tests can assert exactly which fields are covered. Fails with
/// kUnimplemented for tasks whose semantics the key cannot capture (a
/// custom options.error_fn, UDA aggregates) and propagates catalog lookup
/// errors for unknown tables; callers treat any failure as "uncacheable"
/// and fall back to a fresh run.
Result<std::string> CanonicalTaskKey(const Catalog& catalog,
                                     const QuerySpec& spec,
                                     const AcquireOptions& options);

/// Hashes CanonicalTaskKey into the 128-bit fingerprint.
Result<TaskFingerprint> FingerprintTask(const Catalog& catalog,
                                        const QuerySpec& spec,
                                        const AcquireOptions& options);

/// Identity of a prepared cell-sorted layout: "would a layer built for one
/// task answer every cell of another bit for bit?" Equal keys let a server
/// hand one task's prepared layer to the next run (Rebind) instead of
/// rebuilding it. The key covers exactly what decides where each row lands
/// and what each cell folds:
///
///   - the relation object itself (rows appended to it since the layer's
///     last use are folded in by delta maintenance, so row counts stay out),
///   - each dimension's RefinementDim::CanonicalForm, in order,
///   - the aggregate kind and column, and
///   - the grid step gamma / d.
///
/// The target, delta, norm, weights and search order never enter: they
/// steer the search over the layout, not the layout.
struct LayoutKey {
  const Table* relation = nullptr;
  /// Grid step the layout is cut at (GridStepFor); also spelled in `form`.
  double step = 0.0;
  /// Exact serialization of the dimensions, aggregate and step.
  std::string form;

  bool operator==(const LayoutKey& other) const {
    return relation == other.relation && form == other.form;
  }
  bool operator!=(const LayoutKey& other) const { return !(*this == other); }
};

/// Fails with kNotImplemented when the layout has no canonical form: a
/// dimension without one (RefinementDim::CanonicalForm) or a UDA aggregate.
/// Callers treat failure as "not reusable" and build a layer of their own.
Result<LayoutKey> ComputeLayoutKey(const AcqTask& task,
                                   const AcquireOptions& options);

}  // namespace acquire

#endif  // ACQUIRE_CORE_FINGERPRINT_H_
