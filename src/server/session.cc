#include "server/session.h"

#include <chrono>
#include <utility>

#include "common/failpoint.h"
#include "common/string_util.h"
#include "exec/thread_pool.h"
#include "index/backend_factory.h"
#include "server/tenant.h"
#include "sql/binder.h"
#include "sql/parser.h"

namespace acquire {

namespace {

using Clock = std::chrono::steady_clock;

bool IsTerminal(SessionState state) {
  return state == SessionState::kDone || state == SessionState::kCancelled ||
         state == SessionState::kFailed;
}

double MillisSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

}  // namespace

const char* SessionStateToString(SessionState state) {
  switch (state) {
    case SessionState::kQueued:
      return "queued";
    case SessionState::kRunning:
      return "running";
    case SessionState::kDone:
      return "done";
    case SessionState::kCancelled:
      return "cancelled";
    case SessionState::kFailed:
      return "failed";
  }
  return "unknown";
}

Session::Session(std::string id, std::string sql, AcquireOptions options)
    : id_(std::move(id)),
      sql_(std::move(sql)),
      options_(std::move(options)),
      submitted_at_(Clock::now()) {
  options_.run_ctx = &ctx_;
}

SessionState Session::state() const {
  std::lock_guard<std::mutex> lock(mu_);
  return state_;
}

void Session::WaitDone() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] { return IsTerminal(state_); });
}

bool Session::RequestCancel() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (IsTerminal(state_)) return false;
  }
  ctx_.RequestCancel();
  return true;
}

bool Session::RequestClientStop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (IsTerminal(state_)) return false;
  }
  ctx_.RequestClientStop();
  return true;
}

Session::View Session::Snapshot() const {
  View view;
  {
    std::lock_guard<std::mutex> lock(mu_);
    view.state = state_;
    view.error = error_;
    view.reply = reply_;
  }
  view.queries_explored = ctx_.queries_explored.load(std::memory_order_relaxed);
  view.cell_queries = ctx_.cell_queries.load(std::memory_order_relaxed);
  return view;
}

SessionManager::SessionManager(const Catalog* catalog,
                               ResourceGovernor* governor,
                               SessionManagerOptions options)
    : catalog_(catalog),
      options_(options),
      governor_(governor),
      cache_(options.cache_bytes) {}

SessionManager::SessionManager(Catalog* catalog, ResourceGovernor* governor,
                               SessionManagerOptions options)
    : SessionManager(static_cast<const Catalog*>(catalog), governor,
                     options) {
  mutable_catalog_ = catalog;
}

SessionManager::~SessionManager() { Shutdown(); }

std::string SessionManager::NextIdLocked() {
  return StringFormat("%s%llu", options_.session_prefix.c_str(),
                      static_cast<unsigned long long>(next_id_++));
}

SessionPtr SessionManager::RecordFinishLocked(const std::string& id) {
  finished_.push_back(id);
  if (finished_.size() <= kKeptFinishedSessions) return nullptr;
  auto it = sessions_.find(finished_.front());
  finished_.pop_front();
  SessionPtr forgotten = std::move(it->second);
  sessions_.erase(it);
  return forgotten;
}

Status SessionManager::AppendRows(
    const std::string& table, const std::vector<std::vector<Value>>& rows) {
  if (mutable_catalog_ == nullptr) {
    return Status::Unsupported(
        "catalog is read-only (manager was constructed over a const "
        "catalog)");
  }
  {
    // Exclusive against every catalog-reading shared section: no admission
    // fingerprint and no run body observes a half-applied batch, and a
    // batch never lands between a run's execution and its cache render.
    std::unique_lock<std::shared_mutex> data_lock(data_mu_);
    if (rows.empty() || options_.durability == nullptr) {
      // Empty batches change nothing (no generation bump), so they are
      // never logged; an empty-batch APPEND before and after leaves the
      // log byte-identical.
      ACQ_RETURN_IF_ERROR(mutable_catalog_->AppendRows(table, rows));
    } else {
      // Write-ahead discipline: validate -> log (synced per policy) ->
      // apply -> ack. A batch that fails validation or the log never
      // touches the catalog and leaves the log byte-identical; a logged
      // batch cannot fail to apply (ValidateAppend passed under this same
      // exclusive lock).
      ACQ_RETURN_IF_ERROR(mutable_catalog_->ValidateAppend(table, rows));
      ACQ_RETURN_IF_ERROR(
          options_.durability->LogAppend(*mutable_catalog_, table, rows));
      ACQ_RETURN_IF_ERROR(mutable_catalog_->AppendRows(table, rows));
      options_.durability->CommitApplied(*mutable_catalog_);
    }
  }
  std::lock_guard<std::mutex> clock(counters_mu_);
  ++counters_.appends;
  counters_.append_rows += rows.size();
  return Status::OK();
}

Result<SessionPtr> SessionManager::Submit(std::string sql,
                                          AcquireOptions options,
                                          double timeout_ms,
                                          EvalBackend backend,
                                          SessionProgress progress) {
  if (ACQ_FAILPOINT("server.admit")) {
    std::lock_guard<std::mutex> clock(counters_mu_);
    ++counters_.rejected;
    return Status::Unavailable(
        "injected admission rejection (failpoint server.admit)");
  }
  // Injected fair-share admission rejection: models the governor denying a
  // tenant under cross-tenant pressure; the reply surfaces as a well-formed
  // ResourceExhausted error.
  if (ACQ_FAILPOINT("server.tenant_admission")) {
    std::lock_guard<std::mutex> clock(counters_mu_);
    ++counters_.rejected;
    return Status::ResourceExhausted(
        "injected tenant admission rejection "
        "(failpoint server.tenant_admission)");
  }

  // The catalog-reading part of admission — the fingerprint and the
  // generation it was computed under — runs inside the shared data lock so
  // a concurrent AppendRows can't move the catalog mid-read (fingerprint
  // folds the generation in; tearing the two apart would let a stale
  // fingerprint carry a fresh generation or vice versa). It runs before
  // mu_: parsing/binding is pure and touches only the catalog. Any failure
  // just means "uncacheable" and the submission proceeds exactly as it did
  // before the cache existed.
  TaskFingerprint fp;
  bool has_fp = false;
  uint64_t fp_generation = 0;
  if (cache_.enabled()) {
    std::shared_lock<std::shared_mutex> data_lock(data_mu_);
    has_fp = ComputeFingerprint(sql, options, backend, &fp);
    fp_generation = catalog_->generation();
  }

  // Cache hit: finish immediately from the stored reply — no running slot,
  // no queue entry, no deadline (the work is already done).
  if (has_fp) {
    if (CachedResultPtr cached = cache_.Lookup(fp)) {
      SessionPtr session;
      SessionPtr forgotten;  // dropped after mu_ (RecordFinishLocked)
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (shutdown_) return Status::Unavailable("session manager shut down");
        session = std::make_shared<Session>(NextIdLocked(), std::move(sql),
                                            std::move(options));
        session->backend_ = backend;
        session->fp_ = fp;
        session->has_fp_ = true;
        session->fp_generation_ = fp_generation;
        sessions_.emplace(session->id(), session);
        forgotten = RecordFinishLocked(session->id());
      }
      {
        std::lock_guard<std::mutex> clock(counters_mu_);
        ++counters_.submitted;
      }
      PublishFromCache(session, cached);
      return session;
    }
  }

  // Governed memory carve-up: clamp this run's budget to the tenant's
  // share before the session captures its options. Fingerprints exclude
  // budgets, so the clamp never perturbs cache keys.
  options.memory_budget_bytes =
      governor_->GovernMemoryBudget(this, options.memory_budget_bytes);

  // Slot acquisition happens before mu_ (the governor lock is taken while
  // holding no manager lock, never the other way around) and strictly after
  // the cache-hit path above, so cache hits keep consuming no slot. Only
  // slot-holding paths increment running_.
  const bool slot = governor_->TryAcquireRunSlot(this);

  SessionPtr session;
  bool launch = false;
  bool queued = false;
  Status reject;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_) {
      reject = Status::Unavailable("session manager shut down");
    } else {
      if (!slot && queue_.size() >= options_.max_queued) {
        std::lock_guard<std::mutex> clock(counters_mu_);
        ++counters_.rejected;
        reject = Status::Unavailable(
            StringFormat("admission queue full (%zu running, %zu queued)",
                         running_, queue_.size()));
      } else {
        session = std::make_shared<Session>(NextIdLocked(), std::move(sql),
                                            std::move(options));
        session->backend_ = backend;
        if (has_fp) {
          session->fp_ = fp;
          session->has_fp_ = true;
          session->fp_generation_ = fp_generation;
        }
        // The deadline clock starts at admission, so queue wait counts
        // against the caller's budget -- a request that waited out its
        // deadline in the queue finishes immediately as kDeadlineExceeded
        // instead of running.
        if (timeout_ms > 0.0) session->ctx_.SetTimeoutMillis(timeout_ms);
        // Arm streaming before the session can launch (or even queue): the
        // sink must cover the run from its first drained layer. The manager
        // interposes only to tally the frame; emission happens on the run
        // thread strictly before RunSession's terminal publish, so by the
        // time WaitDone returns no further frame can be in flight — the
        // final reply is always the last line of a streaming exchange.
        if (progress.enabled && progress.callback) {
          Session* raw = session.get();
          session->ctx_.ArmProgressSink(
              [this, raw, cb = std::move(progress.callback)](
                  const ProgressSnapshot& snap) {
                {
                  std::lock_guard<std::mutex> clock(counters_mu_);
                  ++counters_.progress_frames;
                }
                cb(*raw, snap);
              },
              progress.interval_ms);
        }
        sessions_.emplace(session->id(), session);
        if (slot) {
          ++running_;
          launch = true;
        } else {
          queue_.push_back(session);
          queued = true;
        }
      }
    }
  }
  // An acquired slot that didn't launch (shutdown, or a reject — impossible
  // with a slot, but harmless) goes back to the governor, which may hand it
  // straight to a queued tenant.
  if (slot && !launch) governor_->ReleaseRunSlot(this);
  if (!reject.ok()) return reject;
  {
    std::lock_guard<std::mutex> clock(counters_mu_);
    ++counters_.submitted;
  }
  if (launch) {
    Launch(session);
  } else if (queued) {
    // Closes the enqueue/dispatch race: a slot freed between our failed
    // TryAcquire and the push_back above would have scanned an empty queue.
    governor_->NotifyQueued(this);
  }
  return session;
}

bool SessionManager::DispatchOneQueued() {
  SessionPtr session;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (queue_.empty()) return false;
    session = queue_.front();
    queue_.pop_front();
    ++running_;
  }
  // During shutdown the session still launches: its runner observes the
  // cancel request immediately and publishes kCancelled, which is exactly
  // how queued sessions drain (Shutdown waits for running_ to hit zero).
  Launch(std::move(session));
  return true;
}

bool SessionManager::ComputeFingerprint(const std::string& sql,
                                        const AcquireOptions& options,
                                        EvalBackend backend,
                                        TaskFingerprint* fp) const {
  Result<AstQuery> ast = ParseAcqSql(sql);
  if (!ast.ok()) return false;
  Binder binder(catalog_);
  Result<QuerySpec> spec = binder.BindQuery(*ast);
  if (!spec.ok()) return false;
  // A SUBMIT-level backend override beats the spec's choice at run time
  // (RunSession applies it to the planned task), so it must key the cache.
  if (backend != EvalBackend::kAuto) spec->eval_backend = backend;
  Result<TaskFingerprint> result = FingerprintTask(*catalog_, *spec, options);
  if (!result.ok()) return false;
  *fp = *result;
  return true;
}

void SessionManager::PublishFromCache(const SessionPtr& session,
                                      const CachedResultPtr& cached) {
  // Adopt the seeding run's progress counters first, so a STATUS racing the
  // notify never reports done with zero progress.
  session->ctx_.queries_explored.store(cached->queries_explored,
                                       std::memory_order_relaxed);
  session->ctx_.cell_queries.store(cached->cell_queries,
                                   std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(session->mu_);
  if (IsTerminal(session->state_)) return;
  session->state_ = SessionState::kDone;
  session->reply_ = cached;
  session->cv_.notify_all();
}

void SessionManager::FinishSlot(const std::string& id) {
  // Hand the slot back first — the governor's dispatch may deal it to any
  // tenant's queue (including this one) — and only then decrement
  // running_. Shutdown (and therefore manager destruction) waits on
  // running_ == 0, so the governor call lands strictly before teardown can
  // begin; after the decrement only sessions may be touched.
  governor_->ReleaseRunSlot(this);
  SessionPtr forgotten;  // dropped after mu_ (RecordFinishLocked)
  std::lock_guard<std::mutex> lock(mu_);
  --running_;
  forgotten = RecordFinishLocked(id);
  idle_cv_.notify_all();
}

Result<SessionPtr> SessionManager::Find(const std::string& id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sessions_.find(id);
  if (it == sessions_.end()) {
    return Status::NotFound(StringFormat("no session '%s'", id.c_str()));
  }
  return it->second;
}

Result<SessionPtr> SessionManager::Cancel(const std::string& id) {
  ACQ_ASSIGN_OR_RETURN(SessionPtr session, Find(id));
  session->RequestCancel();
  return session;
}

Result<SessionPtr> SessionManager::Stop(const std::string& id) {
  ACQ_ASSIGN_OR_RETURN(SessionPtr session, Find(id));
  session->RequestClientStop();
  return session;
}

void SessionManager::Shutdown() {
  std::vector<SessionPtr> to_cancel;
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
    to_cancel.reserve(sessions_.size());
    for (const auto& [id, session] : sessions_) to_cancel.push_back(session);
  }
  for (const SessionPtr& session : to_cancel) session->RequestCancel();
  // The queue drains through governor dispatch (each dispatched session
  // observes its cancel immediately). Nudge once in case every slot was
  // idle when the last request queued.
  governor_->NotifyQueued(this);
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return running_ == 0 && queue_.empty(); });
  // Nothing runs any more, so no frame can be emitted. Drop the progress
  // sinks: the server's sink holds the tenant, which owns this manager and
  // its sessions, and that cycle would keep all of them alive forever.
  for (const auto& [id, session] : sessions_) {
    session->ctx_.ArmProgressSink(nullptr, 0.0);
  }
}

ServerCounters SessionManager::counters() const {
  ServerCounters counters;
  {
    std::lock_guard<std::mutex> lock(counters_mu_);
    counters = counters_;
  }
  std::lock_guard<std::mutex> lock(layer_mu_);
  counters.store_entries = idle_layer_.store.size();
  counters.store_bytes = idle_layer_.store.MemoryBytes();
  return counters;
}

size_t SessionManager::num_running() const {
  std::lock_guard<std::mutex> lock(mu_);
  return running_;
}

size_t SessionManager::num_queued() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

void SessionManager::Launch(SessionPtr session) {
  // Injected enqueue failure: the pool refused the run task, so the session
  // fails terminally without running — with the same bookkeeping order as
  // RunSession's tail (counters, then slot release, then terminal publish).
  if (ACQ_FAILPOINT("server.pool_enqueue")) {
    {
      std::lock_guard<std::mutex> clock(counters_mu_);
      ++counters_.failed;
    }
    // After releasing the slot, Shutdown may destroy the manager: only the
    // session may be touched past this point.
    FinishSlot(session->id());
    std::lock_guard<std::mutex> lock(session->mu_);
    session->state_ = SessionState::kFailed;
    session->error_ = Status::Unavailable(
        "injected thread-pool enqueue failure "
        "(failpoint server.pool_enqueue)");
    session->cv_.notify_all();
    return;
  }
  ThreadPool::Shared().Submit(
      [this, session = std::move(session)] { RunSession(session); });
}

bool SessionManager::ReusableLayout(const AcqTask& task,
                                    const AcquireOptions& options,
                                    LayoutKey* key) const {
  // A joined or filtered relation is materialized per plan, so only the
  // catalog's own table can match a kept layer. Direct keeps no layout to
  // fold appended rows into. A warm run charges no prepare footprint, so with
  // a memory limit set its budget verdict could differ from a cold run's.
  if (task.table_names.size() != 1 || options.memory_budget_bytes > 0 ||
      task.eval_backend == EvalBackend::kDirect) {
    return false;
  }
  Result<TablePtr> live = catalog_->GetTable(task.table_names.front());
  if (!live.ok() || live->get() != task.relation.get()) return false;
  Result<LayoutKey> computed = ComputeLayoutKey(task, options);
  if (!computed.ok()) return false;
  *key = std::move(*computed);
  return true;
}

Result<AcqOutcome> SessionManager::ProcessReusingLayer(
    const std::shared_ptr<AcqTask>& task, const AcquireOptions& options) {
  LayoutKey key;
  if (!ReusableLayout(*task, options, &key)) {
    {
      std::lock_guard<std::mutex> clock(counters_mu_);
      ++counters_.layer_bypassed;
    }
    return ProcessAcq(*task, options);
  }
  IdleLayer idle;
  {
    std::lock_guard<std::mutex> lock(layer_mu_);
    idle = std::exchange(idle_layer_, IdleLayer{});
  }
  const bool hit = idle.layer != nullptr && idle.key == key;
  std::unique_ptr<EvaluationLayer> layer;
  // An entry depends only on the layout and the rows, and the relation only
  // grows, so an unchanged row count means no APPEND since the store's run.
  const size_t rows = task->relation->num_rows();
  AggregateStore store;
  if (hit) {
    layer = std::move(idle.layer);
    layer->Rebind(task.get());
    if (idle.store_rows == rows) std::swap(store, idle.store);
  }
  // Drop a stale layout before building and a stale store before the run
  // grows its own, so the tenant never holds two of either.
  idle = IdleLayer{};
  if (!hit) {
    BackendOptions backend_options;
    backend_options.grid_step = key.step;
    ACQ_ASSIGN_OR_RETURN(
        layer,
        MakeEvaluationLayer(task.get(), task->eval_backend, backend_options));
  }
  {
    std::lock_guard<std::mutex> clock(counters_mu_);
    ++(hit ? counters_.layer_hits : counters_.layer_misses);
  }
  Result<AcqOutcome> ran = ProcessAcq(*task, layer.get(), options, &store);
  // The budget lives in this run's RunContext; the next run's origin query
  // must not charge its sync to it. (The run's explorer already detached
  // it from the store.)
  layer->set_memory_budget(nullptr);
  if (ran.ok()) {
    // The most recently finished run's layer and store win the idle slot;
    // ones a concurrent run returned first are dropped after the unlock.
    IdleLayer back{std::move(key), task, std::move(layer), std::move(store),
                   rows};
    std::lock_guard<std::mutex> lock(layer_mu_);
    std::swap(idle_layer_, back);
  }
  return ran;
}

void SessionManager::RunSession(const SessionPtr& session) {
  const Clock::time_point start = session->submitted_at_;

  SessionState state = SessionState::kFailed;
  Status error;
  bool has_outcome = false;
  AcqOutcome outcome;
  std::shared_ptr<AcqTask> task;
  bool interrupted_in_queue = false;

  // A cancel (or manager shutdown) that arrived while queued wins without
  // running; a STOP or a deadline that expired in the queue likewise
  // resolves here with an empty partial report (the cancel-beats-stop
  // precedence matches RunContext::Interruption).
  if (session->ctx_.ShouldStop()) {
    interrupted_in_queue = true;
    const bool was_cancel = session->ctx_.cancel_requested();
    const bool was_stop =
        !was_cancel && session->ctx_.client_stop_requested();
    {
      std::lock_guard<std::mutex> clock(counters_mu_);
      if (was_cancel) {
        ++counters_.cancelled;
      } else if (was_stop) {
        ++counters_.client_satisfied;
      } else {
        ++counters_.deadline_exceeded;
      }
    }
    if (!was_cancel) {
      outcome.result.termination = was_stop
                                       ? RunTermination::kClientSatisfied
                                       : RunTermination::kDeadlineExceeded;
      has_outcome = true;
    }
    state = was_cancel ? SessionState::kCancelled : SessionState::kDone;
  }

  // The run body and the cache-render decision sit inside one shared hold
  // of the data lock: the catalog cannot move between planning, executing
  // and deciding whether the answer may seed the cache. An APPEND therefore
  // waits for in-flight runs (they finish against their snapshot) and no
  // result computed on post-append data is ever stored under a pre-append
  // fingerprint, or vice versa.
  std::shared_lock<std::shared_mutex> data_lock(data_mu_, std::defer_lock);

  if (!interrupted_in_queue) {
    {
      std::lock_guard<std::mutex> lock(session->mu_);
      session->state_ = SessionState::kRunning;
    }
    data_lock.lock();

    // Bind + plan against the shared catalog, then run. The task lives only
    // until the report below is rendered: it goes when this run ends, with
    // any relation its plan materialized. The failpoint sits in front of
    // the whole body: a `sleep:` spec stretches the run (holding it in
    // flight while tests race other requests against it) and a failure spec
    // fails it.
    Binder binder(catalog_);
    Result<AcqTask> planned =
        ACQ_FAILPOINT("server.run")
            ? Result<AcqTask>(Status::Unavailable(
                  "injected run failure (failpoint server.run)"))
            : binder.PlanSql(session->sql());
    if (!planned.ok()) {
      error = planned.status();
    } else {
      task = std::make_shared<AcqTask>(std::move(*planned));
      if (session->backend_ != EvalBackend::kAuto) {
        task->eval_backend = session->backend_;
      }
      Result<AcqOutcome> ran = ProcessReusingLayer(task, session->options_);
      if (!ran.ok()) {
        error = ran.status();
      } else {
        outcome = std::move(*ran);
        has_outcome = true;
        state = outcome.result.termination == RunTermination::kCancelled
                    ? SessionState::kCancelled
                    : SessionState::kDone;
      }
    }

    // Counters first: a waiter released by the notify below must already
    // see this run reflected in STATS.
    {
      std::lock_guard<std::mutex> clock(counters_mu_);
      if (!has_outcome) {
        ++counters_.failed;
      } else {
        switch (outcome.result.termination) {
          case RunTermination::kCompleted:
            ++counters_.completed;
            break;
          case RunTermination::kTruncated:
            ++counters_.truncated;
            break;
          case RunTermination::kDeadlineExceeded:
            ++counters_.deadline_exceeded;
            break;
          case RunTermination::kCancelled:
            ++counters_.cancelled;
            break;
          case RunTermination::kClientSatisfied:
            ++counters_.client_satisfied;
            break;
          case RunTermination::kResourceExhausted:
            ++counters_.resource_exhausted;
            break;
        }
        const AcquireResult& result = outcome.result;
        counters_.queries_explored += result.queries_explored;
        counters_.cell_queries += result.cell_queries;
        counters_.store_replayed += result.store_replayed;
        counters_.eval_queries += result.exec_stats.queries;
        counters_.tuples_scanned += result.exec_stats.tuples_scanned;
        counters_.prepare_micros +=
            static_cast<uint64_t>(result.exec_stats.prepare_ms * 1000.0);
        counters_.delta_rows += result.exec_stats.delta_rows;
        counters_.delta_merges += result.exec_stats.delta_merges;
        counters_.run_micros +=
            static_cast<uint64_t>(result.elapsed_ms * 1000.0);
      }
    }
  }

  // One wall-clock reading and, for every run with an outcome, one report
  // render to bytes that every reply about the run splices. A completed
  // cacheable run inserts the same entry BEFORE the terminal publish, so
  // each later hit replies with these exact bytes and a repeat sent after
  // the reply finds it.
  const double wall_ms = MillisSince(start);
  CachedResultPtr reply;
  if (has_outcome) {
    auto entry = std::make_shared<CachedResult>();
    entry->report = BuildReportJson(outcome, task.get(), wall_ms).Dump();
    entry->queries_explored =
        session->ctx_.queries_explored.load(std::memory_order_relaxed);
    entry->cell_queries =
        session->ctx_.cell_queries.load(std::memory_order_relaxed);
    entry->bytes = entry->report.size() + 64;
    entry->generation = session->fp_generation_;
    reply = std::move(entry);
  }
  // Stale-generation guard: a session fingerprinted at generation G but run
  // after an APPEND moved the catalog to G' computed its answer on data the
  // fingerprint does not describe. Its reply is correct for the caller, but
  // it must not seed the cache.
  const bool generation_current =
      data_lock.owns_lock() &&
      catalog_->generation() == session->fp_generation_;
  if (session->has_fp_ && state == SessionState::kDone && has_outcome &&
      outcome.result.termination == RunTermination::kCompleted &&
      generation_current) {
    cache_.Insert(session->fp_, reply);
  }
  if (data_lock.owns_lock()) data_lock.unlock();

  // Slot release before the terminal publish: a waiter released by the
  // notify below must see the slot already back with the governor in
  // num_running()/num_queued(). The idle_cv_ notify inside FinishSlot can
  // let Shutdown (and the manager destructor) proceed, so from here on only
  // sessions themselves may be touched.
  FinishSlot(session->id());

  {
    std::lock_guard<std::mutex> lock(session->mu_);
    session->state_ = state;
    session->error_ = error;
    session->reply_ = std::move(reply);
    session->cv_.notify_all();
  }
}

}  // namespace acquire
