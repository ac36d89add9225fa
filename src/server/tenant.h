#ifndef ACQUIRE_SERVER_TENANT_H_
#define ACQUIRE_SERVER_TENANT_H_

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "common/result.h"
#include "server/session.h"
#include "storage/catalog.h"

namespace acquire {

class ServerDurability;
class TenantDurability;

/// Global fair-share arbiter for every SessionManager the server runs —
/// one per tenant. Three resources are governed process-wide:
///
///   Run slots. The governor owns `total_run_slots` (the old process-wide
///   max_running) and grants them across tenants. A Submit that finds a
///   free slot runs immediately — the governor is work-conserving. When
///   slots are contended, admitted requests wait in their tenant's own
///   bounded queue and freed slots are dealt out by stride scheduling (each
///   dispatch advances the tenant's pass by 1/weight; the lowest pass goes
///   next), so a tenant flooding its queue gets exactly its weighted share
///   and can never starve the others.
///
///   Memory. A single global byte budget is carved into per-tenant soft
///   shares proportional to weight. A run's cap is its tenant's share —
///   plus the shares of currently idle tenants (borrow-back of idle
///   headroom) — divided across the tenant's active runs. The cap only
///   ever tightens an explicit per-request budget, never loosens it.
///
///   Cache. Partitioning needs no arbitration: each tenant's manager owns
///   a private ResultCache with its own byte limit and recency lists, so
///   one tenant's working set cannot evict another's and a reply can never
///   be served across tenant ids.
///
/// Lock discipline: the governor's mutex is a leaf with one exception —
/// the dispatch loop releases it around SessionManager::DispatchOneQueued
/// (which takes the manager's own lock). No SessionManager lock is ever
/// held while calling ReleaseRunSlot / NotifyQueued (their dispatch may
/// re-enter a manager); TryAcquireRunSlot and GovernMemoryBudget touch
/// only the governor mutex and are safe anywhere. Every method tolerates
/// an unregistered manager (no-op / deny), so a manager racing its own
/// Deregister stays safe.
class ResourceGovernor {
 public:
  struct Options {
    /// Process-wide concurrent run bound shared by all tenants. 0 sizes to
    /// half the shared ThreadPool (at least 1): a run's index build fills
    /// its needed matrix across the same pool, so saturating it with run
    /// bodies would leave no workers for that fill.
    size_t total_run_slots = 0;
    /// Global memory budget carved into per-tenant shares; 0 leaves every
    /// run's budget exactly as requested (no memory governance).
    uint64_t global_memory_budget_bytes = 0;
  };

  explicit ResourceGovernor(Options options);

  ResourceGovernor(const ResourceGovernor&) = delete;
  ResourceGovernor& operator=(const ResourceGovernor&) = delete;

  /// Adds `manager` to the schedule with the given weight (> 0; clamped to
  /// a small positive minimum). The new tenant starts at the current
  /// minimum pass so it is next in line but owes no retroactive service.
  void Register(SessionManager* manager, double weight);

  /// Removes `manager` from the schedule. Blocks until no dispatch is in
  /// flight against it; the caller must have drained the manager first
  /// (Shutdown), so no slots are outstanding.
  void Deregister(SessionManager* manager);

  /// Grants a run slot to `manager` when one is free. False = the caller
  /// must queue
  /// (or reject when its queue is full). Advances the stride pass, so
  /// uncontended traffic still accrues fair-share history.
  bool TryAcquireRunSlot(SessionManager* manager);

  /// Returns a slot and deals freed capacity out to queued work across all
  /// tenants (stride order, see above). Never called with any
  /// SessionManager lock held.
  void ReleaseRunSlot(SessionManager* manager);

  /// A request was queued on `manager`: dispatch if capacity is free.
  /// Closes the race where a Submit enqueues just after a release scan
  /// found every queue empty. Never called with a manager lock held.
  void NotifyQueued(SessionManager* manager);

  /// The memory carve-up (see class comment). Returns the budget the run
  /// should use: `requested` untouched when memory governance is off or
  /// the manager is unknown; otherwise min(requested, cap) with cap >= 1
  /// so a governed run is never accidentally unmetered (0 = unlimited in
  /// AcquireOptions).
  uint64_t GovernMemoryBudget(SessionManager* manager, uint64_t requested);

  /// Point-in-time per-tenant view for TENANTS / STATS.
  struct TenantUsage {
    double weight = 1.0;
    size_t active_slots = 0;
    /// This tenant's weighted share of the global budget (0 when memory
    /// governance is off).
    uint64_t memory_share_bytes = 0;
  };
  /// False when `manager` is not registered.
  bool Usage(const SessionManager* manager, TenantUsage* out) const;

  size_t total_slots() const { return total_slots_; }
  size_t used_slots() const;
  uint64_t global_memory_budget_bytes() const { return global_memory_; }

 private:
  struct Entry {
    SessionManager* manager = nullptr;
    double weight = 1.0;
    size_t active = 0;  // slots currently granted
    /// Stride-scheduling pass: advanced by 1/weight per granted slot; the
    /// runnable entry with the lowest pass is dispatched next.
    double pass = 0.0;
    /// A dispatch against this entry is in flight outside the governor
    /// lock; Deregister waits for it and the dispatch loop skips it.
    bool busy = false;
  };

  Entry* FindEntryLocked(const SessionManager* manager);
  const Entry* FindEntryLocked(const SessionManager* manager) const;
  /// Deals free slots to queued work until slots run out or every
  /// non-busy tenant's queue is dry. Requires `lock` held; temporarily
  /// releases it around each DispatchOneQueued call.
  void DispatchLocked(std::unique_lock<std::mutex>& lock);

  const size_t total_slots_;
  const uint64_t global_memory_;

  mutable std::mutex mu_;
  std::condition_variable busy_cv_;  // signalled when an entry's busy clears
  std::vector<Entry> entries_;
  size_t used_slots_ = 0;
};

/// One attached tenant: a wire-level id bound to its own Catalog and its
/// own SessionManager (and therefore its own result-cache partition,
/// counters and admission queue). The catalog is owned for ATTACHed
/// tenants and merely adopted for the default tenant (the server's
/// constructor catalog, which must outlive the registry).
class Tenant {
 public:
  Tenant();
  ~Tenant();

  const std::string& id() const { return id_; }
  double weight() const { return weight_; }
  SessionManager& manager() { return *manager_; }
  const SessionManager& manager() const { return *manager_; }

  /// This tenant's WAL/checkpoint state; null when durability is off (no
  /// --wal-dir) or the tenant's catalog is read-only.
  TenantDurability* durability() { return durability_.get(); }
  const TenantDurability* durability() const { return durability_.get(); }

 private:
  friend class TenantRegistry;
  std::string id_;
  double weight_ = 1.0;
  std::unique_ptr<Catalog> owned_catalog_;  // null for the default tenant
  /// Declared before the manager: the manager's options point at it (the
  /// DurabilityHook), so it must outlive the manager's destruction.
  std::unique_ptr<TenantDurability> durability_;
  std::unique_ptr<SessionManager> manager_;
};

using TenantPtr = std::shared_ptr<Tenant>;

/// ATTACH parameters: the same load/generator surface the shell exposes.
/// Exactly one data source must be set — a generator kind or a \loaddb
/// directory.
struct AttachParams {
  std::string id;
  /// "tpch" | "users" | "patients"; empty when loading from a directory.
  std::string generator;
  size_t rows = 0;    // 0 = the generator's default size
  uint64_t seed = 0;  // 0 = the generator's default seed
  /// SaveCatalog directory to restore (alternative to `generator`).
  std::string loaddb_dir;
  /// Fair-share weight (> 0) for the governor's stride schedule and the
  /// memory carve-up.
  double weight = 1.0;
  /// Per-tenant admission-queue bound; 0 inherits the server default.
  size_t max_queued = 0;
  /// Per-tenant result-cache byte limit; negative inherits the server
  /// default, 0 disables the partition.
  int64_t cache_bytes = -1;
  /// Disk quota over the tenant's WAL + checkpoint bytes; APPENDs beyond
  /// it answer kResourceExhausted. 0 = unlimited. Only meaningful when the
  /// server runs with durability (--wal-dir).
  uint64_t disk_bytes = 0;
};

/// Wire-level tenant id -> Tenant. The default tenant ("default") adopts
/// the server's constructor catalog at construction time and cannot be
/// detached; every other tenant owns a catalog built by Attach and is torn
/// down by Detach (drain in-flight runs via the manager's cancellation
/// path, then deregister from the governor, then destroy).
///
/// Thread safety: all methods are safe to call concurrently. Detach
/// removes the tenant from the map first (no new requests can route to
/// it), then drains outside the registry lock, so lookups never block
/// behind a drain. Callers may hold a TenantPtr across a concurrent
/// Detach: the manager answers Unavailable once shut down and the tenant
/// is destroyed when the last reference drops.
class TenantRegistry {
 public:
  static constexpr const char* kDefaultId = "default";

  /// `governor` must outlive the registry and every TenantPtr handed out.
  /// `base_options` seeds per-tenant SessionManagerOptions (max_queued,
  /// cache_bytes); every tenant's manager is governed by
  /// `governor`. `durability` (optional; must outlive
  /// the registry) adds write-ahead logging: each mutable-catalog tenant
  /// gets its own recovered TenantDurability and ATTACH/DETACH hit the
  /// server manifest.
  TenantRegistry(ResourceGovernor* governor, SessionManagerOptions base_options,
                 ServerDurability* durability = nullptr);

  /// Shuts down and deregisters every tenant.
  ~TenantRegistry();

  TenantRegistry(const TenantRegistry&) = delete;
  TenantRegistry& operator=(const TenantRegistry&) = delete;

  /// Installs the default tenant over an adopted catalog (not owned; must
  /// outlive the registry). The mutable overload enables APPEND. Sessions
  /// keep the historical bare "s-<n>" ids for wire compatibility.
  TenantPtr AdoptDefault(Catalog* catalog, double weight = 1.0);
  TenantPtr AdoptDefault(const Catalog* catalog, double weight = 1.0);

  /// Builds the tenant's catalog (generator or loaddb), stamps the tenant
  /// id into its load_params (so two tenants generated with identical
  /// parameters still fingerprint apart — defense in depth on top of the
  /// per-tenant cache partitions), registers with the governor and
  /// publishes the tenant. AlreadyExists when the id is taken,
  /// InvalidArgument for a malformed id or params.
  ///
  /// With durability: a fresh attach wipes any leftover durability
  /// directory for the id and logs ATTACH to the manifest before
  /// publishing; `from_recovery` (the server's manifest replay) instead
  /// recovers the tenant's checkpoint + WAL into the rebuilt catalog and
  /// logs nothing.
  Result<TenantPtr> Attach(const AttachParams& params,
                           bool from_recovery = false);

  /// Drains and removes tenant `id`: unroutes it, cancels in-flight runs
  /// through SessionManager::Shutdown, deregisters from the governor.
  /// InvalidArgument for the default tenant, NotFound for unknown ids.
  Status Detach(const std::string& id);

  Result<TenantPtr> Find(const std::string& id) const;

  /// Resolves a session id ("t1-s-3", or bare "s-3" for the default
  /// tenant) to the tenant serving it; null when no tenant knows the id.
  TenantPtr FindBySession(const std::string& session_id) const;

  /// Snapshot of all tenants in id order (default first — map order is
  /// lexicographic and ids may sort around it, so callers should not rely
  /// on position).
  std::vector<TenantPtr> List() const;

  size_t size() const;

 private:
  TenantPtr MakeTenantLocked(std::string id, double weight,
                             std::unique_ptr<Catalog> owned,
                             Catalog* mutable_catalog,
                             const Catalog* const_catalog,
                             std::unique_ptr<TenantDurability> durability,
                             SessionManagerOptions options);

  ResourceGovernor* const governor_;
  const SessionManagerOptions base_options_;
  /// Null or disabled = no durability; owned by the server.
  ServerDurability* const durability_;

  mutable std::mutex mu_;
  std::map<std::string, TenantPtr> tenants_;
  /// Ids mid-Attach (catalog build + durability recovery happen outside
  /// mu_): claimed up front so a concurrent duplicate ATTACH can never wipe
  /// a directory another attach is populating.
  std::set<std::string> attaching_;
};

/// A valid wire-level tenant id: 1..64 chars of [A-Za-z0-9_.-], so ids
/// embed cleanly in session ids, JSON and shell commands.
bool IsValidTenantId(const std::string& id);

}  // namespace acquire

#endif  // ACQUIRE_SERVER_TENANT_H_
