#include "server/server.h"

#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <limits>
#include <thread>
#include <utility>

#include "common/failpoint.h"
#include "common/string_util.h"
#include "core/processor.h"
#include "exec/thread_pool.h"
#include "server/result_cache.h"

namespace acquire {

namespace {

JsonValue ErrorResponse(const Status& status) {
  JsonValue response = JsonValue::Object();
  response.Set("ok", JsonValue::Bool(false));
  response.Set("code", JsonValue::Str(StatusCodeToString(status.code())));
  response.Set("error", JsonValue::Str(status.message()));
  return response;
}

JsonValue ErrorResponse(Status (*factory)(std::string), std::string message) {
  return ErrorResponse(factory(std::move(message)));
}

/// Largest integer magnitude a JSON number (a double) holds exactly.
constexpr double kMaxExactInteger = 9007199254740992.0;  // 2^53
constexpr double kMaxInt =
    static_cast<double>(std::numeric_limits<int>::max());

/// Reads the optional count field `key` of `request` into *out, leaving *out
/// untouched when the field is absent. A present value must be an integral
/// number in [0, max], so the cast below is exact and defined.
template <typename T>
Status ReadCount(const JsonValue& request, const char* key, T* out,
                 double max = kMaxExactInteger) {
  const JsonValue* field = request.Get(key);
  if (field == nullptr) return Status::OK();
  const double v = field->is_number() ? field->AsDouble() : -1.0;
  if (v < 0.0 || v > max || v != std::floor(v)) {
    return Status::InvalidArgument(
        StringFormat("'%s' must be an integer in [0, %.0f]", key, max));
  }
  *out = static_cast<T>(v);
  return Status::OK();
}

Result<SearchOrder> ParseOrder(const std::string& name) {
  const std::string lower = ToLower(name);
  if (lower == "auto") return SearchOrder::kAuto;
  if (lower == "bfs") return SearchOrder::kBfs;
  if (lower == "shell") return SearchOrder::kShell;
  if (lower == "best_first" || lower == "best-first") {
    return SearchOrder::kBestFirst;
  }
  return Status::InvalidArgument(
      StringFormat("unknown order '%s' (auto|bfs|shell|best_first)",
                   name.c_str()));
}

/// The terminal (or in-flight) state of one session as a protocol object.
JsonValue SessionToJson(const Session& session) {
  const Session::View view = session.Snapshot();
  JsonValue out = JsonValue::Object();
  out.Set("ok", JsonValue::Bool(true));
  out.Set("id", JsonValue::Str(session.id()));
  out.Set("state", JsonValue::Str(SessionStateToString(view.state)));
  out.Set("queries_explored",
          JsonValue::Number(static_cast<double>(view.queries_explored)));
  out.Set("cell_queries",
          JsonValue::Number(static_cast<double>(view.cell_queries)));
  if (view.state == SessionState::kFailed) {
    out.Set("code", JsonValue::Str(StatusCodeToString(view.error.code())));
    out.Set("error", JsonValue::Str(view.error.message()));
    return out;
  }
  // The report bytes rendered once at the run's end, spliced verbatim: the
  // same for every reply about the run and, when it seeded the cache, for
  // every hit; only the outer "id" differs.
  if (view.reply != nullptr) {
    out.Set("report", JsonValue::Raw(view.reply->report));
  }
  return out;
}

/// One PROGRESS frame as a protocol line. "progress":true is the frame
/// marker clients key on (the terminal reply carries "ok" instead, never
/// "progress"), so the two line kinds can never be confused. The governor
/// object reports the session's *own tenant* admission state — its active
/// slots, its slot limit, its carved memory share — plus the tenant's
/// running/queued depth, never the global pool's totals.
JsonValue ProgressFrameJson(const Session& session,
                            const ProgressSnapshot& snap,
                            const std::string& tenant_id,
                            SessionManager* manager,
                            ResourceGovernor* governor) {
  JsonValue frame = JsonValue::Object();
  frame.Set("progress", JsonValue::Bool(true));
  frame.Set("id", JsonValue::Str(session.id()));
  frame.Set("tenant", JsonValue::Str(tenant_id));
  auto num = [](uint64_t v) {
    return JsonValue::Number(static_cast<double>(v));
  };
  frame.Set("layers_drained", num(snap.layers_drained));
  frame.Set("queries_explored", num(snap.queries_explored));
  frame.Set("cell_queries", num(snap.cell_queries));
  frame.Set("elapsed_ms", JsonValue::Number(snap.elapsed_ms));
  if (snap.has_best) {
    JsonValue best = JsonValue::Object();
    best.Set("qscore", JsonValue::Number(snap.best_qscore));
    best.Set("aggregate", JsonValue::Number(snap.best_aggregate));
    best.Set("error", JsonValue::Number(snap.best_error));
    best.Set("refined", JsonValue::Str(snap.best_description));
    frame.Set("best", std::move(best));
  } else {
    frame.Set("best", JsonValue::Null());
  }
  frame.Set("eval_queries", num(snap.eval_queries));
  frame.Set("tuples_scanned", num(snap.tuples_scanned));
  frame.Set("prepare_ms", JsonValue::Number(snap.prepare_ms));
  frame.Set("delta_rows", num(snap.delta_rows));
  frame.Set("delta_merges", num(snap.delta_merges));
  JsonValue gov = JsonValue::Object();
  ResourceGovernor::TenantUsage usage;
  if (governor->Usage(manager, &usage)) {
    gov.Set("active_slots", num(usage.active_slots));
    gov.Set("slot_limit", num(governor->total_slots()));
    gov.Set("memory_share_bytes", num(usage.memory_share_bytes));
  }
  gov.Set("running", num(manager->num_running()));
  gov.Set("queued", num(manager->num_queued()));
  frame.Set("governor", std::move(gov));
  return frame;
}

/// Suppresses SIGPIPE for writes to `fd`, in preference order: per-call
/// MSG_NOSIGNAL (Linux), per-socket SO_NOSIGPIPE (BSD/macOS), and a
/// process-wide SIGPIPE ignore as the last resort — a dead peer must
/// surface as an EPIPE errno, never as a process-killing signal.
void SuppressSigpipe(int fd) {
#ifdef MSG_NOSIGNAL
  (void)fd;  // handled per send() call
#elif defined(SO_NOSIGPIPE)
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_NOSIGPIPE, &one, sizeof(one));
#else
  (void)fd;
  ::signal(SIGPIPE, SIG_IGN);
#endif
}

bool SendAll(int fd, const std::string& data, int* error_out) {
  size_t sent = 0;
  while (sent < data.size()) {
    ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
#ifdef MSG_NOSIGNAL
                       MSG_NOSIGNAL
#else
                       0
#endif
    );
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      if (error_out != nullptr) *error_out = n < 0 ? errno : EPIPE;
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  return true;
}

}  // namespace

namespace {

ResourceGovernor::Options GovernorOptions(const ServerOptions& options) {
  ResourceGovernor::Options governor;
  // The global slot pool matches the historical single-tenant max_running
  // resolution, so attaching tenants shares the same process-wide
  // concurrency instead of multiplying it.
  governor.total_run_slots = options.max_running;
  governor.global_memory_budget_bytes = options.global_memory_budget_bytes;
  return governor;
}

SessionManagerOptions BaseManagerOptions(const ServerOptions& options) {
  SessionManagerOptions manager;
  manager.max_queued = options.max_queued;
  manager.cache_bytes = options.cache_bytes;
  return manager;
}

/// Never fails and never returns null: an unopenable wal_dir degrades to a
/// disabled instance (stderr-noted) rather than refusing to serve.
std::unique_ptr<ServerDurability> OpenDurability(const ServerOptions& options) {
  DurabilityOptions durability;
  durability.dir = options.wal_dir;
  durability.fsync = options.fsync;
  durability.checkpoint_interval_appends = options.checkpoint_interval_appends;
  Result<std::unique_ptr<ServerDurability>> opened =
      ServerDurability::Open(std::move(durability));
  if (opened.ok()) return std::move(*opened);
  std::fprintf(stderr, "durability disabled (wal_dir '%s'): %s\n",
               options.wal_dir.c_str(), opened.status().ToString().c_str());
  Result<std::unique_ptr<ServerDurability>> disabled =
      ServerDurability::Open(DurabilityOptions{});
  return std::move(*disabled);
}

}  // namespace

AcqServer::AcqServer(const Catalog* catalog, ServerOptions options)
    : options_(options),
      governor_(GovernorOptions(options)),
      durability_(OpenDurability(options)),
      registry_(&governor_, BaseManagerOptions(options), durability_.get()),
      default_tenant_(registry_.AdoptDefault(catalog)) {
  RecoverTenants();
}

AcqServer::AcqServer(Catalog* catalog, ServerOptions options)
    : options_(options),
      governor_(GovernorOptions(options)),
      durability_(OpenDurability(options)),
      registry_(&governor_, BaseManagerOptions(options), durability_.get()),
      default_tenant_(registry_.AdoptDefault(catalog)) {
  RecoverTenants();
}

void AcqServer::RecoverTenants() {
  if (!durability_->enabled()) return;
  // Re-attach every tenant the manifest records as live. Each rebuilds its
  // base catalog from the logged load params, then recovers its checkpoint
  // and WAL on top. A tenant that fails (e.g. its loaddb directory is gone)
  // is noted and skipped — the rest of the server still starts.
  for (const AttachParams& params : durability_->recovered_tenants()) {
    Result<TenantPtr> attached = registry_.Attach(params,
                                                  /*from_recovery=*/true);
    if (!attached.ok()) {
      std::fprintf(stderr, "recovery: re-attach of tenant '%s' failed: %s\n",
                   params.id.c_str(), attached.status().ToString().c_str());
    }
  }
}

AcqServer::~AcqServer() { Stop(); }

Status AcqServer::Start() {
  if (started_) return Status::InvalidArgument("server already started");
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::IOError(StringFormat("socket: %s", std::strerror(errno)));
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    Status status = Status::IOError(
        StringFormat("bind 127.0.0.1:%d: %s", options_.port,
                     std::strerror(errno)));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  if (::listen(listen_fd_, 64) < 0) {
    Status status =
        Status::IOError(StringFormat("listen: %s", std::strerror(errno)));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
  started_ = true;
  accept_thread_ = std::thread(&AcqServer::AcceptLoop, this);
  return Status::OK();
}

void AcqServer::Drain(double timeout_ms) {
  {
    std::lock_guard<std::mutex> stop_lock(stop_mu_);
    if (stopped_) return;
    stopping_.store(true);
    if (listen_fd_ >= 0) {
      // No new connections; existing ones keep being served until Stop().
      ::shutdown(listen_fd_, SHUT_RDWR);
    }
    if (accept_thread_.joinable()) accept_thread_.join();
  }
  const auto deadline = RunContext::DeadlineAfterMillis(timeout_ms);
  for (;;) {
    size_t in_flight = 0;
    for (const TenantPtr& tenant : registry_.List()) {
      in_flight +=
          tenant->manager().num_running() + tenant->manager().num_queued();
    }
    if (in_flight == 0) return;
    if (std::chrono::steady_clock::now() >= deadline) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

void AcqServer::Stop() {
  // Serializes concurrent/repeat Stop calls (e.g. the destructor after an
  // explicit Stop): the second caller waits for the first to finish joining
  // and then returns.
  std::lock_guard<std::mutex> stop_lock(stop_mu_);
  if (stopped_) return;
  stopped_ = true;
  stopping_.store(true);
  if (listen_fd_ >= 0) {
    // Unblocks accept(); the listening fd is closed after the join.
    ::shutdown(listen_fd_, SHUT_RDWR);
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    for (int fd : conn_fds_) {
      if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
    }
  }
  for (std::thread& thread : conn_threads_) {
    if (thread.joinable()) thread.join();
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  // Drain every tenant (connection threads are already joined, so no new
  // submissions can race the shutdowns). Deregistration from the governor
  // happens in the registry destructor.
  for (const TenantPtr& tenant : registry_.List()) {
    tenant->manager().Shutdown();
  }
  // Clean shutdown checkpoints each durable tenant: restart then recovers
  // from the snapshot alone, with an empty WAL. A checkpoint that fails
  // falls back to flushing the log — the WAL already holds everything.
  for (const TenantPtr& tenant : registry_.List()) {
    TenantDurability* durability = tenant->durability();
    if (durability == nullptr) continue;
    Status status = durability->Checkpoint(tenant->manager().catalog());
    if (!status.ok()) {
      std::fprintf(stderr, "shutdown checkpoint for '%s' failed: %s\n",
                   tenant->id().c_str(), status.ToString().c_str());
      status = durability->Flush();
      if (!status.ok()) {
        std::fprintf(stderr, "shutdown flush for '%s' failed: %s\n",
                     tenant->id().c_str(), status.ToString().c_str());
      }
    }
  }
}

void AcqServer::AcceptLoop() {
  for (;;) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (stopping_.load()) return;
      if (errno == EINTR) continue;
      return;
    }
    if (stopping_.load()) {
      ::close(fd);
      return;
    }
    std::lock_guard<std::mutex> lock(conn_mu_);
    size_t slot = conn_fds_.size();
    conn_fds_.push_back(fd);
    conn_threads_.emplace_back(&AcqServer::ServeConnection, this, slot, fd);
  }
}

bool AcqServer::SendLine(int fd, const std::string& line) {
  if (ACQ_FAILPOINT("server.send")) {
    io_errors_.fetch_add(1, std::memory_order_relaxed);
    return false;  // simulated transport failure: drop the connection
  }
  int err = 0;
  if (SendAll(fd, line + "\n", &err)) return true;
  // EPIPE / ECONNRESET is the peer hanging up mid-reply — a clean teardown
  // of this connection, not a server fault.
  if (err != EPIPE && err != ECONNRESET) {
    io_errors_.fetch_add(1, std::memory_order_relaxed);
  }
  return false;
}

void AcqServer::ServeConnection(size_t slot, int fd) {
  SuppressSigpipe(fd);
  if (options_.idle_timeout_ms > 0.0) {
    timeval tv{};
    const long total_us = static_cast<long>(options_.idle_timeout_ms * 1000.0);
    tv.tv_sec = total_us / 1000000;
    tv.tv_usec = total_us % 1000000;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  }
  const size_t max_line = options_.max_line_bytes;
  std::string buffer;
  char chunk[4096];
  bool open = true;
  while (open) {
    ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      // SO_RCVTIMEO expired: the peer went quiet mid-frame (or forever).
      idle_disconnects_.fetch_add(1, std::memory_order_relaxed);
      break;
    }
    if (n <= 0) break;
    if (ACQ_FAILPOINT("server.recv")) break;  // simulated read failure
    buffer.append(chunk, static_cast<size_t>(n));
    size_t pos;
    while (open && (pos = buffer.find('\n')) != std::string::npos) {
      std::string line = buffer.substr(0, pos);
      buffer.erase(0, pos + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (Trim(line).empty()) continue;
      if (max_line != 0 && line.size() > max_line) {
        oversize_lines_.fetch_add(1, std::memory_order_relaxed);
        SendLine(fd, ErrorResponse(Status::InvalidArgument,
                                   StringFormat(
                                       "request line exceeds %zu bytes",
                                       max_line))
                         .Dump());
        open = false;
        break;
      }
      // Streaming SUBMITs push PROGRESS frames through this sink while the
      // connection thread is blocked inside HandleRequestLine (the protocol
      // is lockstep, so the run thread is the only writer on `fd` during
      // that window — frames are whole SendLine calls, never torn).
      open = SendLine(fd, HandleRequestLine(line, [this, fd](
                                                     const std::string& f) {
                        return SendLine(fd, f);
                      }));
    }
    // A partial line may never see its newline; bound it too so a client
    // streaming newline-free garbage cannot grow the buffer without limit.
    if (open && max_line != 0 && buffer.size() > max_line) {
      oversize_lines_.fetch_add(1, std::memory_order_relaxed);
      SendLine(fd, ErrorResponse(Status::InvalidArgument,
                                 StringFormat(
                                     "request line exceeds %zu bytes",
                                     max_line))
                       .Dump());
      open = false;
    }
  }
  std::lock_guard<std::mutex> lock(conn_mu_);
  ::close(fd);
  conn_fds_[slot] = -1;
}

std::string AcqServer::HandleRequestLine(const std::string& line,
                                         const LineSink& sink) {
  if (ACQ_FAILPOINT("server.parse")) {
    // Injected decoder fault: the response must still be a well-formed
    // protocol error so the client's retry logic sees a normal rejection.
    return ErrorResponse(Status::ParseError,
                         "injected parse failure (failpoint server.parse)")
        .Dump();
  }
  Result<JsonValue> parsed = JsonValue::Parse(line);
  if (!parsed.ok()) return ErrorResponse(parsed.status()).Dump();
  if (!parsed->is_object()) {
    return ErrorResponse(Status::InvalidArgument,
                         "request must be a JSON object")
        .Dump();
  }
  return Dispatch(*parsed, sink).Dump();
}

JsonValue AcqServer::Dispatch(const JsonValue& request, const LineSink& sink) {
  const std::string cmd = ToUpper(request.GetString("cmd"));
  if (cmd == "SUBMIT") return HandleSubmit(request, sink);
  if (cmd == "STATUS") return HandleStatus(request);
  if (cmd == "CANCEL") return HandleCancel(request);
  if (cmd == "STOP") return HandleStop(request);
  if (cmd == "STATS") return HandleStats(request);
  if (cmd == "FAILPOINT") return HandleFailpoint(request);
  if (cmd == "CACHE") return HandleCache(request);
  if (cmd == "APPEND") return HandleAppend(request);
  if (cmd == "ATTACH") return HandleAttach(request);
  if (cmd == "DETACH") return HandleDetach(request);
  if (cmd == "TENANTS") return HandleTenants();
  return ErrorResponse(
      Status::InvalidArgument,
      StringFormat("unknown cmd '%s' "
                   "(SUBMIT|STATUS|CANCEL|STOP|STATS|FAILPOINT|CACHE|APPEND|"
                   "ATTACH|DETACH|TENANTS)",
                   cmd.c_str()));
}

Result<TenantPtr> AcqServer::ResolveTenant(const JsonValue& request) {
  const JsonValue* tenant = request.Get("tenant");
  if (tenant == nullptr) return default_tenant_;
  if (!tenant->is_string() || tenant->AsString().empty()) {
    return Status::InvalidArgument("'tenant' must be a non-empty string");
  }
  return registry_.Find(tenant->AsString());
}

Result<TenantPtr> AcqServer::ResolveTenantForSession(
    const JsonValue& request, const std::string& session_id) {
  if (request.Get("tenant") != nullptr) return ResolveTenant(request);
  if (TenantPtr tenant = registry_.FindBySession(session_id)) return tenant;
  return default_tenant_;
}

JsonValue AcqServer::HandleSubmit(const JsonValue& request,
                                  const LineSink& sink) {
  Result<TenantPtr> tenant = ResolveTenant(request);
  if (!tenant.ok()) return ErrorResponse(tenant.status());
  SessionManager& manager = (*tenant)->manager();
  const JsonValue* sql = request.Get("sql");
  if (sql == nullptr || !sql->is_string() || sql->AsString().empty()) {
    return ErrorResponse(Status::InvalidArgument,
                         "SUBMIT requires a non-empty string field 'sql'");
  }

  AcquireOptions options;
  options.gamma = request.GetNumber("gamma", options.gamma);
  options.delta = request.GetNumber("delta", options.delta);
  options.collect_within_gamma =
      request.GetBool("collect_within_gamma", options.collect_within_gamma);
  options.memory_budget_bytes = options_.default_memory_budget_bytes;
  for (const Status& status :
       {ReadCount(request, "max_explored", &options.max_explored),
        ReadCount(request, "stall_limit", &options.stall_limit),
        ReadCount(request, "memory_budget_bytes",
                  &options.memory_budget_bytes),
        ReadCount(request, "repartition_iters", &options.repartition_iters,
                  kMaxInt),
        ReadCount(request, "divergence_patience",
                  &options.divergence_patience, kMaxInt)}) {
    if (!status.ok()) return ErrorResponse(status);
  }
  if (Status checked = CheckAcquireOptions(options); !checked.ok()) {
    return ErrorResponse(checked);
  }
  if (const JsonValue* order = request.Get("order"); order != nullptr) {
    if (!order->is_string()) {
      return ErrorResponse(Status::InvalidArgument,
                           "'order' must be a string");
    }
    Result<SearchOrder> parsed = ParseOrder(order->AsString());
    if (!parsed.ok()) return ErrorResponse(parsed.status());
    options.order = *parsed;
  }
  EvalBackend backend = EvalBackend::kAuto;
  if (const JsonValue* b = request.Get("backend"); b != nullptr) {
    if (!b->is_string()) {
      return ErrorResponse(Status::InvalidArgument,
                           "'backend' must be a string");
    }
    Result<EvalBackend> parsed = EvalBackendFromString(b->AsString());
    if (!parsed.ok()) return ErrorResponse(parsed.status());
    backend = *parsed;
  }
  const double timeout_ms =
      request.GetNumber("timeout_ms", options_.default_timeout_ms);
  if (!std::isfinite(timeout_ms)) {
    return ErrorResponse(Status::InvalidArgument,
                         "'timeout_ms' must be finite");
  }

  // Streaming opt-in: "progress":{"interval_ms":N} (integral ms >= 0; 0 =
  // one frame per drained layer) or the shorthand "progress":true. The
  // interval is capped — a frame an hour is indistinguishable from no
  // streaming, so an oversize value is almost certainly a units mistake.
  constexpr double kMaxProgressIntervalMs = 3600000.0;  // one hour
  bool streaming = false;
  double interval_ms = 0.0;
  if (const JsonValue* progress = request.Get("progress");
      progress != nullptr) {
    if (progress->is_bool()) {
      streaming = progress->AsBool();
    } else if (progress->is_object()) {
      streaming = true;
      if (const JsonValue* interval = progress->Get("interval_ms");
          interval != nullptr) {
        if (!interval->is_number()) {
          return ErrorResponse(Status::InvalidArgument,
                               "'progress.interval_ms' must be a number");
        }
        const double v = interval->AsDouble();
        if (v < 0.0 || v != std::floor(v)) {
          return ErrorResponse(
              Status::InvalidArgument,
              "'progress.interval_ms' must be a non-negative integral "
              "millisecond count");
        }
        if (v > kMaxProgressIntervalMs) {
          return ErrorResponse(
              Status::InvalidArgument,
              StringFormat("'progress.interval_ms' exceeds the maximum %g ms",
                           kMaxProgressIntervalMs));
        }
        interval_ms = v;
      }
    } else {
      return ErrorResponse(
          Status::InvalidArgument,
          "'progress' must be a bool or an object {\"interval_ms\":N}");
    }
  }
  if (streaming) {
    if (const JsonValue* w = request.Get("wait");
        w != nullptr && w->is_bool() && !w->AsBool()) {
      return ErrorResponse(Status::InvalidArgument,
                           "'progress' streaming implies \"wait\":true "
                           "(frames precede the terminal reply on this "
                           "connection)");
    }
  }

  SessionProgress progress_opt;
  if (streaming && sink) {
    progress_opt.enabled = true;
    progress_opt.interval_ms = interval_ms;
    // Runs on the run thread between layers. The frame's governor snapshot
    // is the tenant's own admission state; the shared_ptr capture keeps the
    // tenant alive even if it is detached mid-run.
    progress_opt.callback = [this, sink, tenant = *tenant](
                                const Session& session,
                                const ProgressSnapshot& snap) {
      if (ACQ_FAILPOINT("server.progress_emit")) {
        // Injected frame drop: the frame vanishes, the run and its final
        // report are unaffected, and the protocol stream stays well-formed
        // (frames carry no sequence numbers a gap could corrupt).
        progress_drops_.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      if (!sink(ProgressFrameJson(session, snap, tenant->id(),
                                  &tenant->manager(), &governor_)
                    .Dump())) {
        progress_drops_.fetch_add(1, std::memory_order_relaxed);
      }
    };
  }

  Result<SessionPtr> submitted =
      manager.Submit(sql->AsString(), std::move(options), timeout_ms, backend,
                     std::move(progress_opt));
  if (!submitted.ok()) return ErrorResponse(submitted.status());
  const SessionPtr& session = *submitted;
  if (request.GetBool("wait", false) || streaming) session->WaitDone();
  return SessionToJson(*session);
}

JsonValue AcqServer::HandleStatus(const JsonValue& request) {
  const std::string id = request.GetString("id");
  Result<TenantPtr> tenant = ResolveTenantForSession(request, id);
  if (!tenant.ok()) return ErrorResponse(tenant.status());
  Result<SessionPtr> session = (*tenant)->manager().Find(id);
  if (!session.ok()) return ErrorResponse(session.status());
  if (request.GetBool("wait", false)) (*session)->WaitDone();
  return SessionToJson(**session);
}

JsonValue AcqServer::HandleCancel(const JsonValue& request) {
  const std::string id = request.GetString("id");
  Result<TenantPtr> tenant = ResolveTenantForSession(request, id);
  if (!tenant.ok()) return ErrorResponse(tenant.status());
  Result<SessionPtr> session = (*tenant)->manager().Cancel(id);
  if (!session.ok()) return ErrorResponse(session.status());
  if (request.GetBool("wait", false)) (*session)->WaitDone();
  return SessionToJson(**session);
}

JsonValue AcqServer::HandleStop(const JsonValue& request) {
  const std::string id = request.GetString("id");
  Result<TenantPtr> tenant = ResolveTenantForSession(request, id);
  if (!tenant.ok()) return ErrorResponse(tenant.status());
  Result<SessionPtr> session = (*tenant)->manager().Stop(id);
  if (!session.ok()) return ErrorResponse(session.status());
  if (request.GetBool("wait", false)) (*session)->WaitDone();
  return SessionToJson(**session);
}

JsonValue AcqServer::HandleStats(const JsonValue& request) {
  Result<TenantPtr> resolved = ResolveTenant(request);
  if (!resolved.ok()) return ErrorResponse(resolved.status());
  SessionManager& manager = (*resolved)->manager();
  const ServerCounters counters = manager.counters();
  JsonValue stats = JsonValue::Object();
  auto set = [&stats](const char* key, uint64_t value) {
    stats.Set(key, JsonValue::Number(static_cast<double>(value)));
  };
  set("submitted", counters.submitted);
  set("rejected", counters.rejected);
  set("completed", counters.completed);
  set("truncated", counters.truncated);
  set("deadline_exceeded", counters.deadline_exceeded);
  set("cancelled", counters.cancelled);
  set("client_satisfied", counters.client_satisfied);
  set("resource_exhausted", counters.resource_exhausted);
  set("failed", counters.failed);
  // Streaming: frames this tenant's runs emitted (throttle-passed layer
  // drains) and frames the server then dropped (server.progress_emit
  // failpoint or a dead connection; the drop tally is server-wide).
  set("progress_frames", counters.progress_frames);
  set("progress_drops", progress_drops_.load(std::memory_order_relaxed));
  set("queries_explored", counters.queries_explored);
  set("cell_queries", counters.cell_queries);
  set("eval_queries", counters.eval_queries);
  set("tuples_scanned", counters.tuples_scanned);
  // Index-build and live-ingestion tallies, folded across finished runs.
  // STATS-only: reports/envelopes never carry them, so cached replies stay
  // byte-identical. Cumulative prepare wall time, appended rows folded into
  // reused indexes, the syncs that folded them, and APPEND activity.
  stats.Set("prepare_ms",
            JsonValue::Number(static_cast<double>(counters.prepare_micros) /
                              1000.0));
  set("delta_rows", counters.delta_rows);
  set("delta_merges", counters.delta_merges);
  // Prepared-layer reuse per executed run, so a fallback to per-run index
  // builds is never silent.
  set("layer_hits", counters.layer_hits);
  set("layer_misses", counters.layer_misses);
  set("layer_bypassed", counters.layer_bypassed);
  // The Eq. 17 store kept with the idle layer: coordinates replayed from
  // it (logical cell_queries that never reached eval_queries) and its size.
  set("store_replayed", counters.store_replayed);
  set("store_entries", counters.store_entries);
  set("store_bytes", counters.store_bytes);
  set("appends", counters.appends);
  set("append_rows", counters.append_rows);
  set("catalog_generation", manager.catalog().generation());
  stats.Set("run_ms",
            JsonValue::Number(static_cast<double>(counters.run_micros) /
                              1000.0));
  set("running", manager.num_running());
  set("queued", manager.num_queued());
  set("pool_threads", ThreadPool::Shared().num_threads());
  // Result-cache state (all zero while cache_bytes is 0 / disabled).
  const ResultCacheStats cache = manager.cache().stats();
  set("cache_hits", cache.hits);
  set("cache_misses", cache.misses);
  set("cache_evictions", cache.evictions);
  set("cache_entries", cache.entries);
  set("cache_bytes", cache.bytes);
  set("cache_limit_bytes", cache.limit_bytes);
  // Connection-hardening and fault-injection counters.
  set("oversize_lines", oversize_lines_.load(std::memory_order_relaxed));
  set("idle_disconnects", idle_disconnects_.load(std::memory_order_relaxed));
  set("io_errors", io_errors_.load(std::memory_order_relaxed));
  stats.Set("failpoints_enabled",
            JsonValue::Bool(FailpointRegistry::compiled_in()));
  set("failpoint_hits", FailpointRegistry::Global().TotalHits());
  // Durability: whether this tenant logs at all, live WAL/checkpoint state
  // and what startup recovery replayed. All stable across cached replies —
  // STATS is never cached.
  const TenantDurability* durability = (*resolved)->durability();
  stats.Set("wal_enabled", JsonValue::Bool(durability != nullptr));
  if (durability != nullptr) {
    const TenantDurability::Stats wal = durability->stats();
    set("wal_records", wal.wal_records);
    set("wal_bytes", wal.wal_bytes);
    set("wal_syncs", wal.wal_syncs);
    set("wal_checkpoints", wal.checkpoints);
    set("disk_bytes", wal.disk_bytes);
    set("disk_limit_bytes", wal.disk_limit_bytes);
    set("wal_quota_rejections", wal.quota_rejections);
    const TenantDurability::Recovery& recovery = durability->recovery();
    stats.Set("recovery_checkpoint_loaded",
              JsonValue::Bool(recovery.checkpoint_loaded));
    set("recovery_checkpoint_generation", recovery.checkpoint_generation);
    set("recovery_wal_records", recovery.wal_records);
    set("recovery_wal_rows", recovery.wal_rows);
    set("recovery_wal_skipped", recovery.wal_skipped);
    stats.Set("recovery_torn_tail", JsonValue::Bool(recovery.wal_torn_tail));
  }
  // Tenancy and governor state. "tenant" names whose counters these are;
  // the slot/budget fields are global (shared across every tenant).
  stats.Set("tenant", JsonValue::Str((*resolved)->id()));
  set("tenants", registry_.size());
  set("total_run_slots", governor_.total_slots());
  set("used_run_slots", governor_.used_slots());
  set("global_memory_budget_bytes", governor_.global_memory_budget_bytes());
  JsonValue out = JsonValue::Object();
  out.Set("ok", JsonValue::Bool(true));
  out.Set("stats", std::move(stats));
  return out;
}

JsonValue AcqServer::HandleFailpoint(const JsonValue& request) {
  if (const JsonValue* set = request.Get("set"); set != nullptr) {
    if (!set->is_string()) {
      return ErrorResponse(Status::InvalidArgument,
                           "'set' must be a string \"name=spec;...\"");
    }
    if (!FailpointRegistry::compiled_in()) {
      return ErrorResponse(Status::Unsupported,
                           "failpoints compiled out "
                           "(-DACQUIRE_FAILPOINTS_ENABLED=OFF)");
    }
    Status status =
        FailpointRegistry::Global().ConfigureFromSpec(set->AsString());
    if (!status.ok()) return ErrorResponse(status);
  }
  if (const JsonValue* clear = request.Get("clear"); clear != nullptr) {
    if (clear->is_string()) {
      Status status = FailpointRegistry::Global().Configure(
          clear->AsString(), "off");
      if (!status.ok()) return ErrorResponse(status);
    } else if (clear->is_bool() && clear->AsBool()) {
      FailpointRegistry::Global().DisarmAll();
    } else {
      return ErrorResponse(Status::InvalidArgument,
                           "'clear' must be true or a site name");
    }
  }
  JsonValue out = JsonValue::Object();
  out.Set("ok", JsonValue::Bool(true));
  out.Set("enabled", JsonValue::Bool(FailpointRegistry::compiled_in()));
  JsonValue sites = JsonValue::Array();
  for (const FailpointRegistry::SiteInfo& info :
       FailpointRegistry::Global().List()) {
    JsonValue site = JsonValue::Object();
    site.Set("name", JsonValue::Str(info.name));
    site.Set("spec", JsonValue::Str(info.spec));
    site.Set("hits", JsonValue::Number(static_cast<double>(info.hits)));
    site.Set("evaluations",
             JsonValue::Number(static_cast<double>(info.evaluations)));
    sites.Append(std::move(site));
  }
  out.Set("sites", std::move(sites));
  out.Set("total_hits",
          JsonValue::Number(
              static_cast<double>(FailpointRegistry::Global().TotalHits())));
  return out;
}

JsonValue AcqServer::HandleCache(const JsonValue& request) {
  Result<TenantPtr> tenant = ResolveTenant(request);
  if (!tenant.ok()) return ErrorResponse(tenant.status());
  SessionManager& manager = (*tenant)->manager();
  ResultCache& cache = manager.cache();
  if (request.Get("limit") != nullptr) {
    uint64_t limit = 0;
    Status status = ReadCount(request, "limit", &limit);
    if (!status.ok()) return ErrorResponse(status);
    cache.set_limit_bytes(limit);
  }
  if (const JsonValue* clear = request.Get("clear"); clear != nullptr) {
    if (!clear->is_bool()) {
      return ErrorResponse(Status::InvalidArgument, "'clear' must be a bool");
    }
    if (clear->AsBool()) cache.Clear();
  }
  const ResultCacheStats stats = cache.stats();
  JsonValue out = JsonValue::Object();
  out.Set("ok", JsonValue::Bool(true));
  out.Set("tenant", JsonValue::Str((*tenant)->id()));
  out.Set("enabled", JsonValue::Bool(cache.enabled()));
  JsonValue body = JsonValue::Object();
  auto set = [&body](const char* key, uint64_t value) {
    body.Set(key, JsonValue::Number(static_cast<double>(value)));
  };
  set("hits", stats.hits);
  set("misses", stats.misses);
  set("evictions", stats.evictions);
  set("entries", stats.entries);
  set("bytes", stats.bytes);
  set("limit_bytes", stats.limit_bytes);
  out.Set("cache", std::move(body));
  return out;
}

JsonValue AcqServer::HandleAppend(const JsonValue& request) {
  Result<TenantPtr> tenant = ResolveTenant(request);
  if (!tenant.ok()) return ErrorResponse(tenant.status());
  SessionManager& manager = (*tenant)->manager();
  const JsonValue* table = request.Get("table");
  if (table == nullptr || !table->is_string() || table->AsString().empty()) {
    return ErrorResponse(Status::InvalidArgument,
                         "APPEND requires a non-empty string field 'table'");
  }
  const JsonValue* rows = request.Get("rows");
  if (rows == nullptr || !rows->is_array()) {
    return ErrorResponse(Status::InvalidArgument,
                         "APPEND requires an array field 'rows'");
  }
  // Schema lookup for coercion only — APPEND never adds or removes tables,
  // so the name->table map is stable while serving and this read needs no
  // data lock. The append itself goes through the manager's exclusive lock.
  Result<TablePtr> resolved = manager.catalog().GetTable(table->AsString());
  if (!resolved.ok()) return ErrorResponse(resolved.status());
  const Schema& schema = (*resolved)->schema();

  std::vector<std::vector<Value>> parsed;
  parsed.reserve(rows->AsArray().size());
  for (size_t r = 0; r < rows->AsArray().size(); ++r) {
    const JsonValue& row = rows->AsArray()[r];
    if (!row.is_array()) {
      return ErrorResponse(
          Status::InvalidArgument,
          StringFormat("row %zu: must be an array of values", r));
    }
    if (row.AsArray().size() != schema.num_fields()) {
      return ErrorResponse(
          Status::InvalidArgument,
          StringFormat("row %zu has %zu values, table %s has %zu columns", r,
                       row.AsArray().size(), table->AsString().c_str(),
                       schema.num_fields()));
    }
    std::vector<Value> values;
    values.reserve(row.AsArray().size());
    for (size_t i = 0; i < row.AsArray().size(); ++i) {
      const JsonValue& cell = row.AsArray()[i];
      const DataType type = schema.field(i).type;
      switch (type) {
        case DataType::kInt64: {
          // JSON numbers are doubles; an int64 column only accepts values
          // that are exactly representable integers, so ingestion cannot
          // silently round.
          if (!cell.is_number()) {
            return ErrorResponse(
                Status::TypeError,
                StringFormat("row %zu column %zu: expected an integer", r,
                             i));
          }
          const double v = cell.AsDouble();
          if (v != std::floor(v) || v < -kMaxExactInteger ||
              v > kMaxExactInteger) {
            return ErrorResponse(
                Status::TypeError,
                StringFormat(
                    "row %zu column %zu: %g is not an exact integer", r, i,
                    v));
          }
          values.emplace_back(static_cast<int64_t>(v));
          break;
        }
        case DataType::kDouble:
          if (!cell.is_number()) {
            return ErrorResponse(
                Status::TypeError,
                StringFormat("row %zu column %zu: expected a number", r, i));
          }
          values.emplace_back(cell.AsDouble());
          break;
        case DataType::kString:
          if (!cell.is_string()) {
            return ErrorResponse(
                Status::TypeError,
                StringFormat("row %zu column %zu: expected a string", r, i));
          }
          values.emplace_back(cell.AsString());
          break;
      }
    }
    parsed.push_back(std::move(values));
  }

  Status status = manager.AppendRows(table->AsString(), parsed);
  if (!status.ok()) return ErrorResponse(status);
  JsonValue out = JsonValue::Object();
  out.Set("ok", JsonValue::Bool(true));
  out.Set("table", JsonValue::Str(table->AsString()));
  out.Set("appended",
          JsonValue::Number(static_cast<double>(parsed.size())));
  out.Set("num_rows", JsonValue::Number(
                          static_cast<double>((*resolved)->num_rows())));
  out.Set("generation",
          JsonValue::Number(
              static_cast<double>(manager.catalog().generation())));
  return out;
}

JsonValue AcqServer::HandleAttach(const JsonValue& request) {
  AttachParams params;
  params.id = request.GetString("tenant");
  params.generator = request.GetString("gen");
  params.loaddb_dir = request.GetString("loaddb");
  params.weight = request.GetNumber("weight", 1.0);
  for (const Status& status :
       {ReadCount(request, "rows", &params.rows),
        ReadCount(request, "seed", &params.seed),
        ReadCount(request, "max_queued", &params.max_queued),
        ReadCount(request, "cache_bytes", &params.cache_bytes),
        ReadCount(request, "disk_bytes", &params.disk_bytes)}) {
    if (!status.ok()) return ErrorResponse(status);
  }
  Result<TenantPtr> attached = registry_.Attach(params);
  if (!attached.ok()) return ErrorResponse(attached.status());
  const TenantPtr& tenant = *attached;
  JsonValue out = JsonValue::Object();
  out.Set("ok", JsonValue::Bool(true));
  out.Set("tenant", JsonValue::Str(tenant->id()));
  out.Set("weight", JsonValue::Number(tenant->weight()));
  JsonValue tables = JsonValue::Array();
  for (const std::string& name :
       tenant->manager().catalog().TableNames()) {
    tables.Append(JsonValue::Str(name));
  }
  out.Set("tables", std::move(tables));
  out.Set("generation",
          JsonValue::Number(static_cast<double>(
              tenant->manager().catalog().generation())));
  return out;
}

JsonValue AcqServer::HandleDetach(const JsonValue& request) {
  const JsonValue* tenant = request.Get("tenant");
  if (tenant == nullptr || !tenant->is_string() ||
      tenant->AsString().empty()) {
    return ErrorResponse(Status::InvalidArgument,
                         "DETACH requires a non-empty string field 'tenant'");
  }
  Status status = registry_.Detach(tenant->AsString());
  if (!status.ok()) return ErrorResponse(status);
  JsonValue out = JsonValue::Object();
  out.Set("ok", JsonValue::Bool(true));
  out.Set("tenant", JsonValue::Str(tenant->AsString()));
  return out;
}

JsonValue AcqServer::HandleTenants() {
  JsonValue out = JsonValue::Object();
  out.Set("ok", JsonValue::Bool(true));
  JsonValue list = JsonValue::Array();
  for (const TenantPtr& tenant : registry_.List()) {
    SessionManager& manager = tenant->manager();
    JsonValue entry = JsonValue::Object();
    entry.Set("tenant", JsonValue::Str(tenant->id()));
    entry.Set("weight", JsonValue::Number(tenant->weight()));
    entry.Set("running", JsonValue::Number(
                             static_cast<double>(manager.num_running())));
    entry.Set("queued", JsonValue::Number(
                            static_cast<double>(manager.num_queued())));
    entry.Set("generation",
              JsonValue::Number(static_cast<double>(
                  manager.catalog().generation())));
    const ServerCounters counters = manager.counters();
    entry.Set("submitted", JsonValue::Number(
                               static_cast<double>(counters.submitted)));
    entry.Set("completed", JsonValue::Number(
                               static_cast<double>(counters.completed)));
    entry.Set("rejected", JsonValue::Number(
                              static_cast<double>(counters.rejected)));
    // Streaming/early-stop admission metrics (mirrored per-frame in the
    // PROGRESS "governor" object): how many of this tenant's runs were
    // client-stopped and how many frames its runs have emitted.
    entry.Set("client_satisfied",
              JsonValue::Number(
                  static_cast<double>(counters.client_satisfied)));
    entry.Set("progress_frames",
              JsonValue::Number(
                  static_cast<double>(counters.progress_frames)));
    entry.Set("layer_hits",
              JsonValue::Number(static_cast<double>(counters.layer_hits)));
    entry.Set("layer_misses",
              JsonValue::Number(static_cast<double>(counters.layer_misses)));
    entry.Set("layer_bypassed",
              JsonValue::Number(
                  static_cast<double>(counters.layer_bypassed)));
    entry.Set("store_replayed",
              JsonValue::Number(
                  static_cast<double>(counters.store_replayed)));
    entry.Set("store_entries",
              JsonValue::Number(static_cast<double>(counters.store_entries)));
    entry.Set("store_bytes",
              JsonValue::Number(static_cast<double>(counters.store_bytes)));
    const ResultCacheStats cache = manager.cache().stats();
    entry.Set("cache_entries",
              JsonValue::Number(static_cast<double>(cache.entries)));
    entry.Set("cache_bytes",
              JsonValue::Number(static_cast<double>(cache.bytes)));
    entry.Set("cache_limit_bytes",
              JsonValue::Number(static_cast<double>(cache.limit_bytes)));
    if (const TenantDurability* durability = tenant->durability();
        durability != nullptr) {
      const TenantDurability::Stats wal = durability->stats();
      entry.Set("disk_bytes",
                JsonValue::Number(static_cast<double>(wal.disk_bytes)));
      entry.Set("disk_limit_bytes",
                JsonValue::Number(static_cast<double>(wal.disk_limit_bytes)));
    }
    ResourceGovernor::TenantUsage usage;
    if (governor_.Usage(&manager, &usage)) {
      entry.Set("active_slots", JsonValue::Number(
                                    static_cast<double>(usage.active_slots)));
      entry.Set("slot_limit", JsonValue::Number(static_cast<double>(
                                  governor_.total_slots())));
      entry.Set("memory_share_bytes",
                JsonValue::Number(
                    static_cast<double>(usage.memory_share_bytes)));
    }
    list.Append(std::move(entry));
  }
  out.Set("tenants", std::move(list));
  out.Set("total_run_slots",
          JsonValue::Number(static_cast<double>(governor_.total_slots())));
  out.Set("used_run_slots",
          JsonValue::Number(static_cast<double>(governor_.used_slots())));
  out.Set("global_memory_budget_bytes",
          JsonValue::Number(static_cast<double>(
              governor_.global_memory_budget_bytes())));
  return out;
}

}  // namespace acquire
