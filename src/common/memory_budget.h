#ifndef ACQUIRE_COMMON_MEMORY_BUDGET_H_
#define ACQUIRE_COMMON_MEMORY_BUDGET_H_

#include <atomic>
#include <cstdint>

namespace acquire {

/// Cooperative memory budget for one run's working set: the search-side
/// structures that grow with the explored space (aggregate-store arena,
/// expand layer arenas) and the evaluation layer's prepared footprint and
/// scratch (needed-PScore matrix, sorted cell layout, per-call selection
/// vectors).
///
/// Enforcement is soft: Charge never blocks an allocation, it latches
/// exhausted() once the running total would cross the limit (or a fault is
/// injected), and the drivers poll that flag at the same granularity as
/// deadlines, stopping with RunTermination::kResourceExhausted and the
/// best-so-far partial answer. The overshoot is therefore bounded by one
/// geometric growth step plus one poll interval — never an OOM abort.
///
/// Lives in common/ (not core/) so the evaluation layers — which sit below
/// core in the module graph — can charge their scratch without a layering
/// inversion; core/run_context.h embeds one per run.
class MemoryBudget {
 public:
  /// 0 means unlimited (charges are still tallied). Set before the run.
  void set_limit(uint64_t bytes) { limit_ = bytes; }
  uint64_t limit() const { return limit_; }

  /// Bytes charged so far. Thread-safe.
  uint64_t used() const { return used_.load(std::memory_order_relaxed); }

  bool exhausted() const {
    return exhausted_.load(std::memory_order_relaxed);
  }

  /// Latches exhaustion directly (failpoints and external monitors).
  void MarkExhausted() { exhausted_.store(true, std::memory_order_relaxed); }

  /// Tallies `bytes` of additional reservation; false (latching
  /// exhausted()) when a limit is set and the total crosses it.
  bool Charge(uint64_t bytes) {
    const uint64_t total =
        used_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
    if (limit_ != 0 && total > limit_) {
      MarkExhausted();
      return false;
    }
    return true;
  }

 private:
  uint64_t limit_ = 0;
  std::atomic<uint64_t> used_{0};
  std::atomic<bool> exhausted_{false};
};

}  // namespace acquire

#endif  // ACQUIRE_COMMON_MEMORY_BUDGET_H_
