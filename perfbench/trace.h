#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

// Sample summaries, in-memory spans and the timing EvaluationLayer wrapper.
// Spans are recorded only from the benchmark's own code, around its calls
// into the engine's public functions; nothing inside the engine is touched.

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "exec/evaluation.h"

namespace perfbench {

// ---------------------------------------------------------------- samples

/// Nearest-rank percentile: the smallest sample with at least `q` of the
/// samples at or below it. `q` in (0, 1]; 0 for an empty sample.
inline double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(q * static_cast<double>(samples.size()));
  const size_t index = static_cast<size_t>(std::max(rank, 1.0)) - 1;
  return samples[std::min(index, samples.size() - 1)];
}

/// A run's median and 90th percentile. p90 is the highest percentile a run
/// of 100 samples supports with ten beyond it, and with one client at a
/// time the runs collect between 100 and 350.
struct Summary {
  double p50 = 0.0;
  double p90 = 0.0;
  size_t count = 0;
  size_t beyond_p90 = 0;  // samples strictly above p90
};

inline Summary Summarize(const std::vector<double>& samples) {
  Summary s;
  s.count = samples.size();
  s.p50 = Percentile(samples, 0.50);
  s.p90 = Percentile(samples, 0.90);
  s.beyond_p90 = static_cast<size_t>(
      std::count_if(samples.begin(), samples.end(),
                    [&](double v) { return v > s.p90; }));
  return s;
}

// ------------------------------------------------------------------ spans

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// CPU time of the whole process, every thread. On a guest kernel with
/// paravirtual steal accounting it excludes the time the hypervisor ran
/// other guests on this guest's vCPUs, which wall-clock time includes.
inline int64_t ProcessCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

struct Span {
  std::string name;
  int64_t parent = -1;  // index of the causing span, -1 for a root
  uint64_t acq = 0;     // spans of one ACQ share this id
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t items = 0;  // work count at this boundary (cells in a batch)
  double ms() const { return static_cast<double>(end_ns - start_ns) / 1e6; }
};

/// Append-only span store, safe to record into from pool threads (a
/// wrapped layer may be called concurrently by EvaluateBoxes).
class Tracer {
 public:
  int64_t Open(std::string name, uint64_t acq, int64_t parent,
               uint64_t items = 0) {
    Span span{std::move(name), parent, acq, NowNs(), 0, items};
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(std::move(span));
    return static_cast<int64_t>(spans_.size()) - 1;
  }
  void Close(int64_t id) {
    const int64_t now = NowNs();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<size_t>(id)].end_ns = now;
  }
  /// Copy of every span recorded so far; call once recording has stopped.
  std::vector<Span> spans() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }
  std::vector<Span> SpansOf(uint64_t acq) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<Span> out;
    for (const Span& span : spans_) {
      if (span.acq == acq) out.push_back(span);
    }
    return out;
  }

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string name, uint64_t acq, int64_t parent,
             uint64_t items = 0)
      : tracer_(tracer),
        id_(tracer->Open(std::move(name), acq, parent, items)) {}
  ~ScopedSpan() { tracer_->Close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int64_t id() const { return id_; }

 private:
  Tracer* tracer_;
  int64_t id_;
};

struct Interval {
  int64_t start = 0;
  int64_t end = 0;
};

/// Length of `parent` covered by the union of `children` (clipped to the
/// parent), so overlapping children from concurrent calls count once.
inline int64_t CoveredNs(const Interval& parent,
                         std::vector<Interval> children) {
  std::sort(children.begin(), children.end(),
            [](const Interval& a, const Interval& b) {
              return a.start < b.start;
            });
  int64_t covered = 0;
  int64_t reach = parent.start;
  for (const Interval& child : children) {
    const int64_t lo = std::max(child.start, reach);
    const int64_t hi = std::min(child.end, parent.end);
    if (hi > lo) {
      covered += hi - lo;
      reach = hi;
    }
  }
  return covered;
}

/// A span's self time: its duration minus what its children cover.
inline int64_t SelfNs(const Interval& parent,
                      const std::vector<Interval>& children) {
  return (parent.end - parent.start) - CoveredNs(parent, children);
}

// ------------------------------------------------------------ timed layer

/// Forwards every evaluation call to `inner` and records an "exec.cells" /
/// "exec.box" span around each one as a child of `parent`. Results come from
/// `inner` untouched; tuple counters stay on `inner`.
class TimedLayer final : public acquire::EvaluationLayer {
 public:
  TimedLayer(EvaluationLayer* inner, Tracer* tracer, uint64_t acq,
             int64_t parent)
      : EvaluationLayer(&inner->task()),
        inner_(inner),
        tracer_(tracer),
        acq_(acq),
        parent_(parent) {}

  /// The search calls Prepare and then ResetStats, which is not virtual and
  /// so clears only this wrapper's counters: note the inner count here.
  acquire::Status Prepare() override {
    scanned_at_prepare_ = inner_->stats().tuples_scanned;
    return inner_->Prepare();
  }

  /// Tuples the inner layer scanned since the last Prepare, which leaves out
  /// the origin query ProcessAcq evaluates before its search starts, as the
  /// served STATS tuples_scanned does.
  uint64_t tuples_scanned() const {
    return inner_->stats().tuples_scanned - scanned_at_prepare_;
  }

  acquire::Result<acquire::AggregateOps::State> EvaluateBox(
      const std::vector<acquire::PScoreRange>& box) override {
    ScopedSpan span(tracer_, "exec.box", acq_, parent_, 1);
    return inner_->EvaluateBox(box);
  }

  acquire::Result<std::vector<acquire::AggregateOps::State>> EvaluateCells(
      const acquire::GridCoord* coords, size_t count, double step) override {
    ScopedSpan span(tracer_, "exec.cells", acq_, parent_, count);
    return inner_->EvaluateCells(coords, count, step);
  }

  bool SupportsConcurrentEvaluate() const override {
    return inner_->SupportsConcurrentEvaluate();
  }

 private:
  EvaluationLayer* inner_;
  Tracer* tracer_;
  uint64_t acq_;
  int64_t parent_;
  uint64_t scanned_at_prepare_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
