#ifndef ACQUIRE_SERVER_RESULT_CACHE_H_
#define ACQUIRE_SERVER_RESULT_CACHE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "common/status.h"
#include "core/fingerprint.h"
#include "core/processor.h"
#include "server/json.h"

namespace acquire {

/// Renders the protocol "report" object for a terminal outcome — the one
/// serializer behind every reply's report and the result cache. `task` is
/// the session's planned task (may be null when planning never ran);
/// contracted outcomes render against their contraction task so the answer
/// SQL is runnable.
JsonValue BuildReportJson(const AcqOutcome& outcome, const AcqTask* task,
                          double wall_ms);

/// One finished run's report, rendered once on the run thread and shared
/// by its session's every reply and, for a completed cacheable run, by the
/// cache and every later hit: the shared bytes (wall_ms and elapsed_ms
/// included) make cached replies bit-exact. Immutable after construction.
struct CachedResult {
  std::string report;  // one Dump() line, spliced into replies verbatim
  /// The seeding run's RunContext progress counters — cache-served sessions
  /// adopt them so the reply envelope matches the fresh one too.
  uint64_t queries_explored = 0;
  uint64_t cell_queries = 0;
  /// Retained footprint (the report's length + 64), charged against the
  /// byte limit.
  size_t bytes = 0;
  /// Catalog generation the seeding run planned against. The fingerprint
  /// already folds the generation in, so lookups can never cross
  /// generations; this copy exists for persistence (LoadFromFile drops
  /// entries whose generation no longer matches the live catalog).
  uint64_t generation = 0;
};
using CachedResultPtr = std::shared_ptr<const CachedResult>;

struct ResultCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t entries = 0;
  uint64_t bytes = 0;
  uint64_t limit_bytes = 0;
};

/// Byte-bounded LRU cache over completed-run replies, keyed by the 128-bit
/// task fingerprint (core/fingerprint.h). Thread-safe: one mutex guards the
/// recency list, its index and the counters, and entries are immutable
/// shared_ptrs, so a Lookup winner keeps its result alive across a
/// concurrent Clear or eviction. While the entries' bytes exceed the limit,
/// the least recently used entry is evicted, so any entry that fits the
/// limit is kept until newer ones crowd it out.
///
/// A limit of 0 disables the cache entirely: Lookup always misses (without
/// counting), Insert is a no-op, and nothing is retained. Shrinking the
/// limit evicts immediately.
class ResultCache {
 public:
  explicit ResultCache(uint64_t limit_bytes = 0);

  bool enabled() const {
    return limit_.load(std::memory_order_relaxed) > 0;
  }
  uint64_t limit_bytes() const {
    return limit_.load(std::memory_order_relaxed);
  }
  /// 0 clears and disables. Shrinking evicts down to the new limit.
  void set_limit_bytes(uint64_t bytes);

  /// Counted hit (entry moved to the front of the recency list) or miss.
  CachedResultPtr Lookup(const TaskFingerprint& fp);

  /// Inserts/refreshes at the front of the recency list, then evicts from
  /// its tail while over the byte limit. No-op when disabled.
  void Insert(const TaskFingerprint& fp, CachedResultPtr result);

  /// Drops every entry. Monotonic counters (hits/misses/evictions) survive;
  /// cleared entries do not count as evictions.
  void Clear();

  ResultCacheStats stats() const;

  /// Writes every entry to `path` in the versioned "acq-cache-v3" text
  /// format. Crash-safe: the snapshot is staged at `path`.tmp, fsynced and
  /// renamed into place, and carries a trailing CRC line over the body so
  /// LoadFromFile can reject a torn or bit-rotted file outright. Entries are
  /// written least recently used first, so a reload that inserts them in
  /// file order restores the recency order. Concurrent inserts may or may
  /// not land.
  Status SaveToFile(const std::string& path) const;

  /// Loads a SaveToFile snapshot, inserting entries via the normal Insert
  /// path (so the byte limit applies). The header, the trailing CRC and
  /// every entry are checked before anything is inserted — a truncated,
  /// torn or corrupted snapshot, or one in an older format version, is
  /// rejected whole (ParseError), never half-loaded. Entries recorded under a catalog
  /// generation other than `current_generation` are stale — the data they
  /// answered for has changed identity — and are dropped. Returns the count
  /// of loaded entries via `loaded`/`dropped` when non-null. NotFound when
  /// `path` does not exist (cold start), IOError/ParseError on corruption.
  Status LoadFromFile(const std::string& path, uint64_t current_generation,
                      size_t* loaded = nullptr, size_t* dropped = nullptr);

 private:
  struct Entry {
    TaskFingerprint fp;
    CachedResultPtr result;
  };
  /// Requires mu_. Evicts least recently used entries while over budget.
  void EvictLocked();

  std::atomic<uint64_t> limit_{0};
  mutable std::mutex mu_;
  std::list<Entry> lru_;  // front = most recently used
  std::unordered_map<TaskFingerprint, std::list<Entry>::iterator,
                     TaskFingerprintHash>
      index_;
  uint64_t bytes_ = 0;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t evictions_ = 0;
};

}  // namespace acquire

#endif  // ACQUIRE_SERVER_RESULT_CACHE_H_
