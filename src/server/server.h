#ifndef ACQUIRE_SERVER_SERVER_H_
#define ACQUIRE_SERVER_SERVER_H_

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "server/durability.h"
#include "server/json.h"
#include "server/session.h"
#include "server/tenant.h"
#include "storage/wal.h"

namespace acquire {

struct ServerOptions {
  /// TCP port on 127.0.0.1; 0 binds an ephemeral port (read it back with
  /// port() after Start).
  int port = 0;
  /// Admission control: concurrent runs across every tenant (0 sizes to
  /// half the shared thread pool, at least 1; see ResourceGovernor) and the
  /// per-tenant queue bound (see SessionManagerOptions).
  size_t max_running = 0;
  size_t max_queued = 64;
  /// Deadline applied to SUBMITs that carry no timeout_ms of their own;
  /// 0 means such requests run without a deadline.
  double default_timeout_ms = 0.0;
  /// Memory budget applied to SUBMITs that carry no memory_budget_bytes of
  /// their own; 0 means such runs are unmetered.
  uint64_t default_memory_budget_bytes = 0;
  /// Result-cache byte limit (see SessionManagerOptions::cache_bytes);
  /// 0 (the default) disables the cache.
  uint64_t cache_bytes = 0;
  /// A request line (or a partial line with no newline yet) longer than
  /// this is answered with kInvalidArgument and the connection is closed —
  /// a client streaming garbage can no longer grow the line buffer without
  /// bound. 0 disables the cap.
  size_t max_line_bytes = size_t{1} << 20;
  /// Per-connection read deadline (SO_RCVTIMEO): a connection idle for
  /// longer than this between bytes is closed (counted as idle_disconnect
  /// in STATS), so abandoned half-open connections cannot pin their
  /// serving threads forever. 0 disables the deadline.
  double idle_timeout_ms = 0.0;
  /// Global memory budget carved into per-tenant soft shares by the
  /// ResourceGovernor (weight-proportional, idle shares lent to active
  /// tenants, split across a tenant's concurrent runs). 0 disables memory
  /// governance; explicit per-request memory_budget_bytes are then used
  /// as-is, and otherwise they are clamped to the carved share.
  uint64_t global_memory_budget_bytes = 0;
  /// Durability root (<dir>/MANIFEST + one subdirectory per tenant with a
  /// write-ahead log and checkpoints). Empty (the default) disables
  /// durability: APPENDs are acked from memory only and ATTACH/DETACH do
  /// not survive a restart. Requires the mutable-catalog constructor to
  /// recover APPENDs into the default tenant.
  std::string wal_dir;
  /// When and how often logged records reach stable storage (see
  /// storage/wal.h): never, batch (default) or always.
  FsyncPolicy fsync = FsyncPolicy::kBatch;
  /// Checkpoint (snapshot + WAL trim) a tenant automatically after this
  /// many logged appends; 0 checkpoints only at clean shutdown.
  uint64_t checkpoint_interval_appends = 0;
};

/// TCP front end for the ACQ engine: a newline-delimited JSON protocol over
/// a shared Catalog. One JSON object per line in, one per line
/// out; requests are dispatched by their "cmd" field:
///
///   SUBMIT  {"cmd":"SUBMIT","sql":"...ACQ SQL...",
///            "gamma":?, "delta":?, "order":"auto|bfs|shell|best_first",
///            "backend":"auto|direct|cellsorted",
///            "max_explored":?, "timeout_ms":?, "wait":bool,
///            "progress":{"interval_ms":N} | true}
///           -> {"ok":true,"id":"s-1","state":...}; with "wait":true the
///           response is the terminal STATUS report instead. The count
///           fields max_explored, stall_limit, memory_budget_bytes (at
///           most 2^53) and repartition_iters, divergence_patience (at most
///           INT32_MAX) must be non-negative integral numbers.
///           "timeout_ms" is the run's deadline in milliseconds from
///           admission, queue wait included; it must be finite, a value
///           <= 0 runs without one (as does an absent field when
///           default_timeout_ms is 0), and one past the steady clock's
///           range arms a deadline that never comes. With the
///           result cache enabled (cache_bytes > 0), a SUBMIT matching a
///           completed run is answered from the cache (no slot consumed,
///           report byte-identical to the seeding reply); every other
///           SUBMIT runs, even one identical to a run still in flight.
///           "progress" opts into streaming: while the run executes, the
///           server pushes {"progress":true,"id":...,...} PROGRESS frames
///           (one JSON object per line; schema in DESIGN.md §11) on this
///           connection, throttled to at most one per interval_ms
///           (integral, >= 0; 0 = one frame per drained layer; true is
///           shorthand for {"interval_ms":0}), before the single terminal
///           reply. Frames are emitted on the run thread strictly before
///           the terminal publish, so the final report is always the last
///           line of the exchange — never interleaved, never torn.
///           Streaming implies "wait" semantics; "wait":false alongside
///           "progress" is rejected. Cache hits run nothing and stream
///           nothing: their reply is the whole exchange. Fields SUBMIT
///           does not read are ignored, so clients may keep sending
///           retired ones.
///   STATUS  {"cmd":"STATUS","id":"s-1"} -> state, live progress counters
///           and, once terminal, the run report (mode, termination,
///           satisfied, answers as runnable SQL, timings). A tenant keeps
///           its last SessionManager::kKeptFinishedSessions finished
///           sessions; an older id answers NotFound.
///   CANCEL  {"cmd":"CANCEL","id":"s-1"} -> requests cooperative
///           cancellation; the run stops at its next poll with a partial
///           report.
///   STOP    {"cmd":"STOP","id":"s-1"} -> client-driven early stop ("good
///           enough"): the run stops at its next poll and finishes kDone
///           with termination "client_satisfied" and a well-formed
///           best-so-far report (a queued session resolves the same way
///           with an empty report). Unlike CANCEL the result is a success,
///           not an error; like CANCEL it accepts "wait":true to return
///           the terminal report. NotFound for unknown ids; a session
///           that is already terminal is returned unchanged.
///   STATS   {"cmd":"STATS"} -> server-wide counters and admission state.
///   FAILPOINT {"cmd":"FAILPOINT"} -> lists fault-injection sites;
///           {"cmd":"FAILPOINT","set":"name=spec;..."} arms sites (spec
///           grammar in common/failpoint.h), {"cmd":"FAILPOINT",
///           "clear":true} / {"clear":"name"} disarms. kUnsupported when
///           the build compiled failpoints out.
///   CACHE   {"cmd":"CACHE"} -> result-cache stats (hits, misses,
///           evictions, entries, bytes, limit_bytes); {"cmd":"CACHE",
///           "clear":true} drops every entry, {"cmd":"CACHE","limit":N}
///           resizes the byte limit (an integral N in [0, 2^53]; 0 clears
///           and disables). A cache over its limit evicts its least
///           recently used entries.
///   APPEND  {"cmd":"APPEND","table":"t","rows":[[v,...],...]} -> appends
///           rows to a catalog table (live ingestion). Values are coerced
///           against the table schema (int64 columns require integral JSON
///           numbers); the batch is all-or-nothing. Requires the
///           mutable-catalog constructor — kUnsupported otherwise. Each
///           successful batch bumps the catalog generation, so cached
///           results from before the append are never served afterwards.
///   ATTACH  {"cmd":"ATTACH","tenant":"t1","gen":"users","rows":N,
///            "seed":S, "weight":W, "cache_bytes":N, "max_queued":N,
///            "disk_bytes":N} (rows, seed, max_queued, cache_bytes and
///           disk_bytes: non-negative integral numbers, at most 2^53) or
///           {"cmd":"ATTACH","tenant":"t1","loaddb":"dir"} -> attaches a
///           new tenant with its own catalog (generated, or restored from
///           a SaveCatalog directory), session manager, admission queue
///           and result-cache partition, registered with the global
///           ResourceGovernor at the given fair-share weight.
///   DETACH  {"cmd":"DETACH","tenant":"t1"} -> drains the tenant's
///           in-flight runs through the cancellation path and removes it.
///           The default tenant cannot be detached.
///   TENANTS {"cmd":"TENANTS"} -> per-tenant admission/cache/governor
///           usage plus the global slot and memory-budget state.
///
/// Multi-tenancy: SUBMIT, STATUS, CANCEL, STOP, STATS, CACHE and APPEND
/// accept an optional "tenant" field routing them to that tenant's catalog
/// and manager; absent, they address the default tenant (full wire
/// compatibility with single-tenant clients), except STATUS/CANCEL/STOP,
/// which first resolve the session id across all tenants ("t1-s-3" ids
/// carry their tenant). Each tenant's result cache is a private partition —
/// a reply can never be served across tenant ids.
///
/// Failures are {"ok":false,"code":"InvalidArgument",...,"error":"..."};
/// admission rejections use code "Unavailable" and budget-stopped runs
/// report termination "resource_exhausted". Connections are served by
/// one thread each; the runs themselves execute on the shared ThreadPool
/// under the SessionManager's admission policy.
class AcqServer {
 public:
  /// The catalog must outlive the server and must not be mutated while
  /// serving (the APPEND verb answers kUnsupported on this constructor).
  explicit AcqServer(const Catalog* catalog, ServerOptions options = {});

  /// Mutable-catalog overload: identical serving behavior, plus the APPEND
  /// verb mutates the catalog through the SessionManager's data lock. All
  /// other external mutation remains forbidden while serving.
  explicit AcqServer(Catalog* catalog, ServerOptions options = {});
  ~AcqServer();

  AcqServer(const AcqServer&) = delete;
  AcqServer& operator=(const AcqServer&) = delete;

  /// Binds 127.0.0.1:port, starts the accept loop. IOError when the socket
  /// cannot be bound.
  Status Start();

  /// Graceful half of shutdown: stops accepting new connections, then
  /// waits up to `timeout_ms` for every tenant's queued and running
  /// sessions to finish naturally (0 = no wait). Call before Stop() to let
  /// in-flight work complete instead of being cancelled.
  void Drain(double timeout_ms);

  /// Stops accepting, shuts down live connections, cancels and drains all
  /// sessions; with durability enabled, checkpoints every tenant so a
  /// clean shutdown restarts from snapshots alone. Idempotent; also run by
  /// the destructor.
  void Stop();

  /// The bound port (meaningful after Start; resolves port 0 requests).
  int port() const { return port_; }

  /// Receives PROGRESS frame lines (no trailing newline) while a streaming
  /// SUBMIT executes. Returning false signals a dead transport; frames are
  /// then dropped but the run is unaffected. An empty LineSink disables
  /// streaming for the request (frames have nowhere to go, so the sink is
  /// simply never armed).
  using LineSink = std::function<bool(const std::string&)>;

  /// Protocol entry without a socket: handles one request line and returns
  /// the response line (no trailing newline). This is exactly what each
  /// connection thread calls per line; tests use it to exercise the
  /// protocol deterministically — passing a `sink` captures the PROGRESS
  /// frames a streaming SUBMIT pushes before its terminal reply.
  std::string HandleRequestLine(const std::string& line,
                                const LineSink& sink = {});

  /// The default tenant's manager (wire-compatible single-tenant view).
  SessionManager& sessions() { return default_tenant_->manager(); }

  TenantRegistry& tenants() { return registry_; }
  ResourceGovernor& governor() { return governor_; }

 private:
  /// Replays the manifest's surviving ATTACH set at construction.
  void RecoverTenants();
  void AcceptLoop();
  void ServeConnection(size_t slot, int fd);
  /// EPIPE-safe framed send (MSG_NOSIGNAL / SO_NOSIGPIPE / SIGPIPE-ignore
  /// fallback): false closes the connection. A peer that vanished mid-reply
  /// (EPIPE/ECONNRESET) is a clean teardown; other errors count as
  /// io_errors in STATS.
  bool SendLine(int fd, std::string line);

  /// Routes a request to its tenant: the "tenant" field when present, the
  /// default tenant otherwise. NotFound for unknown / detached tenants.
  Result<TenantPtr> ResolveTenant(const JsonValue& request);
  /// STATUS/CANCEL routing: explicit "tenant" field, else resolve the
  /// session id across every tenant, else the default tenant (whose Find
  /// produces the NotFound the caller expects).
  Result<TenantPtr> ResolveTenantForSession(const JsonValue& request,
                                            const std::string& session_id);

  JsonValue Dispatch(const JsonValue& request, const LineSink& sink);
  JsonValue HandleSubmit(const JsonValue& request, const LineSink& sink);
  JsonValue HandleStatus(const JsonValue& request);
  JsonValue HandleCancel(const JsonValue& request);
  JsonValue HandleStop(const JsonValue& request);
  JsonValue HandleStats(const JsonValue& request);
  JsonValue HandleFailpoint(const JsonValue& request);
  JsonValue HandleCache(const JsonValue& request);
  JsonValue HandleAppend(const JsonValue& request);
  JsonValue HandleAttach(const JsonValue& request);
  JsonValue HandleDetach(const JsonValue& request);
  JsonValue HandleTenants();

  const ServerOptions options_;
  /// Destruction order: the governor must outlive the registry (every
  /// manager deregisters during registry teardown), and the durability
  /// manifest must outlive every tenant's log, so both are declared before
  /// the registry.
  ResourceGovernor governor_;
  /// Never null once constructed; disabled (enabled() == false) when
  /// wal_dir is empty or the directory could not be opened.
  std::unique_ptr<ServerDurability> durability_;
  TenantRegistry registry_;
  TenantPtr default_tenant_;

  /// Connection-level hardening counters (the session-level ones live in
  /// ServerCounters); surfaced by STATS.
  std::atomic<uint64_t> oversize_lines_{0};
  std::atomic<uint64_t> idle_disconnects_{0};
  std::atomic<uint64_t> io_errors_{0};
  /// PROGRESS frames dropped by the server.progress_emit failpoint or a
  /// dead sink — the run and its final report are unaffected either way.
  std::atomic<uint64_t> progress_drops_{0};

  std::atomic<bool> stopping_{false};
  std::mutex stop_mu_;
  bool stopped_ = false;  // under stop_mu_
  bool started_ = false;
  int listen_fd_ = -1;
  int port_ = 0;
  std::thread accept_thread_;

  std::mutex conn_mu_;
  std::vector<int> conn_fds_;  // slot -> fd; -1 once the owner closed it
  std::vector<std::thread> conn_threads_;
};

}  // namespace acquire

#endif  // ACQUIRE_SERVER_SERVER_H_
