#ifndef ACQUIRE_SERVER_SESSION_H_
#define ACQUIRE_SERVER_SESSION_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "core/fingerprint.h"
#include "core/processor.h"
#include "core/run_context.h"
#include "server/result_cache.h"
#include "storage/catalog.h"

namespace acquire {

/// Lifecycle of one submitted ACQ. Terminal states are kDone (a report is
/// available — including deadline-exceeded and truncated runs, whose
/// reports are partial; see AcquireResult::termination), kCancelled (a
/// CANCEL was observed, queued or mid-run; a mid-run cancel still carries
/// the partial report) and kFailed (bind/plan/execution error).
enum class SessionState { kQueued, kRunning, kDone, kCancelled, kFailed };

const char* SessionStateToString(SessionState state);

/// One admitted ACQ request: the SQL text, the per-run options, the
/// RunContext the drivers poll, and — once terminal — the rendered reply.
/// State transitions happen under `mu` and are announced on `cv`.
class Session {
 public:
  Session(std::string id, std::string sql, AcquireOptions options);

  const std::string& id() const { return id_; }
  const std::string& sql() const { return sql_; }

  /// Thread-safe snapshot accessors.
  SessionState state() const;
  /// Blocks until the session reaches a terminal state.
  void WaitDone();

  /// Requests cooperative cancellation; the run (if any) observes it at
  /// its next poll. Returns false when the session was already terminal.
  bool RequestCancel();

  /// Client-driven early stop (the STOP verb): the run observes it at its
  /// next poll and finishes kDone with termination "client_satisfied" and a
  /// well-formed best-so-far report — unlike RequestCancel, whose report is
  /// the error-shaped "cancelled". Returns false when already terminal.
  bool RequestClientStop();

  /// Consistent copy for protocol rendering: terminal details (error /
  /// reply) plus live progress counters, which are meaningful for running
  /// sessions too.
  struct View {
    SessionState state = SessionState::kQueued;
    Status error;
    /// The report rendered once at the run's end (or the entry a cache hit
    /// was served from), shared by every reply about the run. Null until
    /// then, and for failed runs and cancels that won while queued.
    CachedResultPtr reply;
    uint64_t queries_explored = 0;
    uint64_t cell_queries = 0;
  };
  View Snapshot() const;

  RunContext& ctx() { return ctx_; }

 private:
  friend class SessionManager;

  const std::string id_;
  const std::string sql_;
  AcquireOptions options_;  // run_ctx is pointed at ctx_ before the run
  EvalBackend backend_ = EvalBackend::kAuto;
  RunContext ctx_;
  const RunContext::Clock::time_point submitted_at_;

  /// Task fingerprint, computed at admission when the result cache is
  /// enabled and the task is cacheable; keys the cache. Immutable after
  /// Submit. `fp_generation_` is the catalog generation the fingerprint was
  /// computed under: a session that runs after an APPEND moved the catalog
  /// past it computes a fresh answer but must NOT seed the cache under the
  /// stale fingerprint.
  TaskFingerprint fp_{};
  bool has_fp_ = false;
  uint64_t fp_generation_ = 0;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  SessionState state_ = SessionState::kQueued;
  Status error_;           // when kFailed
  CachedResultPtr reply_;  // rendered report (see View)
};

using SessionPtr = std::shared_ptr<Session>;

/// Server-wide monotonic counters, readable while serving (STATS verb).
/// Cache hits bump only `submitted` (plus the cache's hit counter): the
/// termination counters count executed runs.
struct ServerCounters {
  uint64_t submitted = 0;
  uint64_t rejected = 0;   // admission queue full
  uint64_t completed = 0;  // kDone with termination == completed
  uint64_t truncated = 0;  // kDone with termination == truncated
  uint64_t deadline_exceeded = 0;
  uint64_t cancelled = 0;
  uint64_t client_satisfied = 0;  // kDone with termination == client_satisfied
  uint64_t resource_exhausted = 0;  // kDone with termination == resource_exhausted
  uint64_t failed = 0;
  /// PROGRESS frames emitted by this manager's runs (throttle-passed layer
  /// drains handed to the session's progress callback; a frame the server
  /// later drops via the server.progress_emit failpoint still counts here).
  uint64_t progress_frames = 0;
  /// Per-run ExecStats / result counters folded together across finished
  /// runs — the serving system's cumulative work.
  uint64_t queries_explored = 0;
  uint64_t cell_queries = 0;
  uint64_t eval_queries = 0;    // evaluation-layer box queries
  uint64_t tuples_scanned = 0;
  uint64_t run_micros = 0;      // summed AcquireResult::elapsed_ms
  /// Index-build work folded across finished runs (ExecStats::prepare_ms in
  /// microseconds) plus delta-maintenance activity (reachable appended rows
  /// folded into a reused layer's index, and the syncs that folded rows
  /// in), each counting only work done during the run — a reused layer's
  /// earlier build is not re-counted. STATS-only.
  uint64_t prepare_micros = 0;
  uint64_t delta_rows = 0;
  uint64_t delta_merges = 0;
  /// Prepared-layer reuse (DESIGN.md §6), one tally per executed run: the
  /// run found the tenant's idle layer under its layout key (hit); it could
  /// reuse one but built its own — no idle layer, a different layout, or the
  /// idle one checked out by a concurrent run (miss); or reuse does not
  /// apply to it — a joined or filtered relation, a backend other than
  /// CellSorted, a layout without canonical form, a memory limit (bypassed).
  uint64_t layer_hits = 0;
  uint64_t layer_misses = 0;
  uint64_t layer_bypassed = 0;
  /// The Eq. 17 store kept with the idle layer: coordinates runs answered
  /// from it instead of executing and merging them (part of cell_queries,
  /// absent from eval_queries), and the idle store's entries and reserved
  /// bytes right now (gauges, 0 while no store is idle).
  uint64_t store_replayed = 0;
  uint64_t store_entries = 0;
  uint64_t store_bytes = 0;
  /// Live ingestion through SessionManager::AppendRows: successful APPEND
  /// batches and the rows they landed.
  uint64_t appends = 0;
  uint64_t append_rows = 0;
};

class ResourceGovernor;

/// Write-ahead durability seam for live ingestion (implemented by
/// TenantDurability in server/durability.h; null = no durability). Both
/// methods run under the manager's exclusive data lock, already serialized
/// against every append and catalog read, so implementations need no
/// locking of their own against the append path.
class DurabilityHook {
 public:
  virtual ~DurabilityHook() = default;

  /// Called after the batch validated (Catalog::ValidateAppend passed) and
  /// before it applies. An error fails the APPEND with nothing applied and
  /// nothing retained in the log — kResourceExhausted is the disk-quota
  /// rejection. `catalog` is the pre-apply state (its generation + 1 is the
  /// generation the batch will create).
  virtual Status LogAppend(const Catalog& catalog, const std::string& table,
                           const std::vector<std::vector<Value>>& rows) = 0;

  /// Called after the batch applied and the generation bumped. Must not
  /// fail the append (it already happened); implementations checkpoint here
  /// when their append interval elapses.
  virtual void CommitApplied(const Catalog& catalog) = 0;
};

/// Streaming opt-in for one submission (SUBMIT "progress":{...}): when
/// `enabled`, the manager arms the session context's throttled ProgressSink
/// before launch, so frames cover the run from its first drained layer. The
/// callback runs on the run thread between layers — it must be fast and must
/// not call back into the manager (it may touch the session it is given).
/// Cache hits execute nothing and therefore stream nothing: the final reply
/// is their only frame.
struct SessionProgress {
  std::function<void(const Session&, const ProgressSnapshot&)> callback;
  double interval_ms = 0.0;  // <= 0: one frame per drained layer
  bool enabled = false;
};

struct SessionManagerOptions {
  /// Admitted-but-not-yet-running bound; beyond it SUBMIT is rejected
  /// with kUnavailable (backpressure instead of unbounded memory).
  size_t max_queued = 64;
  /// Result-cache byte limit. 0 (the default) disables the cache,
  /// preserving the pre-cache serving behavior exactly.
  uint64_t cache_bytes = 0;
  /// Session-id prefix ("s-" yields the historical ids; tenants use
  /// "<tenant>-s-"), so ids stay unique — and routable — across managers.
  std::string session_prefix = "s-";
  /// When set, AppendRows follows write-ahead discipline: validate, log
  /// through the hook (fsynced per its policy), apply, ack — so every acked
  /// batch is recoverable and a rejected one leaves the log byte-identical.
  /// Must outlive the manager. Null (the default) = in-memory only.
  DurabilityHook* durability = nullptr;
};

/// Binds sessions against a shared Catalog and schedules them
/// onto the process-wide persistent ThreadPool with bounded admission:
/// run slots are granted by the ResourceGovernor (global fair-share across
/// every manager registered with it), queued sessions are dispatched by its
/// weighted schedule, and per-run memory budgets are clamped to the
/// tenant's carved share. At most `max_queued` admitted requests wait for a
/// slot, and everything beyond that is rejected immediately.
///
/// Finished sessions stay findable (STATUS) until kKeptFinishedSessions
/// more have finished after them; then they are forgotten, oldest first,
/// and their ids answer NotFound. Queued and running sessions are never
/// forgotten.
///
/// Catalog mutation: with the const-catalog constructor the catalog must
/// not be mutated while a manager serves from it. The mutable-catalog
/// constructor additionally enables AppendRows (live ingestion), which is
/// the ONLY permitted mutation: it takes the manager's data lock
/// exclusively, so it serializes against every catalog-reading section
/// (admission fingerprinting and run bodies, which hold the lock shared).
/// Each successful append bumps the catalog generation, so fingerprinted
/// cache entries from before the append can never be served afterwards.
///
/// With cache_bytes > 0 admission additionally consults a fingerprinted
/// result cache: a submission matching a completed run finishes immediately
/// from the cached reply (no slot, no queue). Every other submission runs,
/// including an identical one submitted while the first is still in
/// flight. Only completed runs on a current catalog generation are
/// inserted, before their terminal publish, so a repeat sent after the
/// reply hits.
class SessionManager {
 public:
  /// `governor` must outlive the manager, and the manager must be
  /// Register()ed with it before serving.
  SessionManager(const Catalog* catalog, ResourceGovernor* governor,
                 SessionManagerOptions options);

  /// Mutable-catalog overload: identical serving behavior, plus AppendRows
  /// becomes available.
  SessionManager(Catalog* catalog, ResourceGovernor* governor,
                 SessionManagerOptions options);

  /// Cancels everything and waits for in-flight runs to drain.
  ~SessionManager();

  SessionManager(const SessionManager&) = delete;
  SessionManager& operator=(const SessionManager&) = delete;

  /// Admission: schedules or queues the request, or fails with
  /// kUnavailable when the queue is full. `options.run_ctx` is overwritten
  /// to point at the session's own context. `backend` (when not kAuto)
  /// overrides the planned task's evaluation backend. `progress` (when
  /// enabled) streams throttled per-layer ProgressSnapshots to its callback
  /// while the run executes (see SessionProgress).
  Result<SessionPtr> Submit(std::string sql, AcquireOptions options,
                            double timeout_ms,
                            EvalBackend backend = EvalBackend::kAuto,
                            SessionProgress progress = {});

  /// How many finished sessions a manager keeps findable.
  static constexpr size_t kKeptFinishedSessions = 1024;

  /// NotFound for unknown and forgotten ids.
  Result<SessionPtr> Find(const std::string& id) const;

  /// Cancels a session by id: a queued session finishes as kCancelled
  /// without running; a running one is interrupted at its next poll.
  Result<SessionPtr> Cancel(const std::string& id);

  /// Client-driven early stop by id ("good enough"): a running session is
  /// interrupted at its next poll and finishes kDone with termination
  /// "client_satisfied" and its best-so-far report; a queued one resolves
  /// the same way with an empty report, without running. NotFound for
  /// unknown ids; a terminal session is returned unchanged.
  Result<SessionPtr> Stop(const std::string& id);

  /// Cancels every non-terminal session and blocks until no session is
  /// queued or running (pool tasks all returned — nothing leaks).
  void Shutdown();

  ServerCounters counters() const;
  size_t num_running() const;
  size_t num_queued() const;

  /// Governed dispatch (called by the ResourceGovernor only, never with
  /// the governor lock held): launches the oldest queued session on the
  /// slot the governor just granted. False when the queue is empty — the
  /// caller rolls the tentative grant back. Must not be called while any
  /// lock of this manager is held.
  bool DispatchOneQueued();

  /// Appends `rows` to `table` atomically under the exclusive data lock:
  /// no fingerprint is computed and no run plans/executes while the catalog
  /// moves. Unsupported when the manager was constructed over a const
  /// catalog; otherwise forwards Catalog::AppendRows (all-or-nothing per
  /// batch) and, on success, bumps the appends / append_rows counters.
  /// Running sessions finish against the snapshot they started from; the
  /// generation bump makes their cached renders unseedable (stale) and
  /// invalidates prior cache entries for future submissions.
  Status AppendRows(const std::string& table,
                    const std::vector<std::vector<Value>>& rows);

  const Catalog& catalog() const { return *catalog_; }

  /// The result cache (disabled when cache_bytes was 0; see ResultCache).
  ResultCache& cache() { return cache_; }

 private:
  /// Requires mu_. Mints the next session id under options_.session_prefix.
  std::string NextIdLocked();

  /// Requires mu_. Records session `id` as finished; once more than
  /// kKeptFinishedSessions are kept, erases the oldest from sessions_ and
  /// returns it (else null). The caller drops it after releasing mu_: its
  /// progress sink may hold the last reference to this manager's tenant.
  SessionPtr RecordFinishLocked(const std::string& id);

  /// Parses/binds `sql` and fingerprints the task. False (leaving *fp
  /// untouched) when the SQL does not parse/bind or the task is
  /// uncacheable — the submission then takes the plain uncached path.
  bool ComputeFingerprint(const std::string& sql,
                          const AcquireOptions& options, EvalBackend backend,
                          TaskFingerprint* fp) const;

  /// Publishes `session` terminal kDone served from `cached` (counters
  /// adopted, waiters notified). Touches only the session.
  void PublishFromCache(const SessionPtr& session,
                        const CachedResultPtr& cached);

  /// Submits a pool task that runs `session` on the slot it was granted.
  void Launch(SessionPtr session);
  /// Runs one session to its terminal state. Releases the run slot BEFORE
  /// publishing the terminal state, so a waiter released by the notify
  /// observes it already accounted for in num_running()/num_queued().
  void RunSession(const SessionPtr& session);

  /// Releases the run slot of a finishing (or enqueue-failed) session `id`:
  /// it goes back to the governor — which re-dispatches across every
  /// tenant — and then running_ is decremented and the finish recorded.
  /// Takes mu_ and calls the governor, so mu_ must not be held on entry.
  /// After it returns the manager may be destroyed by Shutdown: callers may
  /// touch only sessions past that point.
  void FinishSlot(const std::string& id);

  /// Requires data_mu_ (shared). True, with the layout key, when a run of
  /// `task` may use a kept prepared layer: its relation is the catalog's
  /// live table, its backend is CellSorted, its layout has a canonical form
  /// and no memory limit is set.
  bool ReusableLayout(const AcqTask& task, const AcquireOptions& options,
                      LayoutKey* key) const;
  /// Requires data_mu_ (shared). ProcessAcq for `task`, on the idle
  /// prepared layer when its key matches (a hit skips Prepare; rows appended
  /// since its last use are folded in by delta maintenance), else on a fresh
  /// layer — built after the stale idle one is dropped — that a successful
  /// run hands back as the new idle layer. A hit over unchanged rows also
  /// takes the idle Eq. 17 store, which the run replays and extends and a
  /// successful run parks with its layer. Runs that fail ReusableLayout
  /// call ProcessAcq exactly as before. Tallies the layer_* counters.
  Result<AcqOutcome> ProcessReusingLayer(const std::shared_ptr<AcqTask>& task,
                                         const AcquireOptions& options);

  const Catalog* catalog_;
  /// Non-null only via the mutable-catalog constructor; aliases catalog_.
  Catalog* mutable_catalog_ = nullptr;
  const SessionManagerOptions options_;
  ResourceGovernor* const governor_;

  /// Reader/writer gate between catalog readers and AppendRows. Shared:
  /// Submit's fingerprint section and RunSession's
  /// plan/run/render section. Exclusive: AppendRows. Lock order: data_mu_
  /// strictly before mu_ / counters_mu_; nothing acquires data_mu_ while
  /// holding either.
  mutable std::shared_mutex data_mu_;

  ResultCache cache_;

  mutable std::mutex mu_;
  std::condition_variable idle_cv_;  // signalled when running+queued drops
  uint64_t next_id_ = 1;
  size_t running_ = 0;
  bool shutdown_ = false;
  std::deque<SessionPtr> queue_;
  std::map<std::string, SessionPtr> sessions_;
  std::deque<std::string> finished_;  // kept finished ids, in finish order

  mutable std::mutex counters_mu_;
  ServerCounters counters_;

  /// The tenant's one idle prepared layer (DESIGN.md §6), with the key it
  /// was laid out under and the task it is bound to — held so the idle layer
  /// never points at a freed task and its relation's address cannot be
  /// recycled under the key — and the last run's Eq. 17 store with the
  /// relation row count it was computed at. A run takes it out exclusively;
  /// `layer` is null while none is idle. A leaf lock: nothing else is
  /// acquired under it.
  struct IdleLayer {
    LayoutKey key;
    std::shared_ptr<const AcqTask> task;
    std::unique_ptr<EvaluationLayer> layer;
    AggregateStore store;
    size_t store_rows = 0;
  };
  mutable std::mutex layer_mu_;
  IdleLayer idle_layer_;  // under layer_mu_
};

}  // namespace acquire

#endif  // ACQUIRE_SERVER_SESSION_H_
