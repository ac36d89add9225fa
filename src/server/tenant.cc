#include "server/tenant.h"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <utility>

#include "common/string_util.h"
#include "exec/thread_pool.h"
#include "server/durability.h"
#include "storage/persistence.h"
#include "workload/tpch_gen.h"
#include "workload/users_gen.h"

namespace acquire {

namespace {

constexpr double kMinWeight = 1e-3;

size_t ResolveTotalSlots(size_t requested) {
  if (requested != 0) return requested;
  return std::max<size_t>(1, ThreadPool::Shared().num_threads() / 2);
}

}  // namespace

ResourceGovernor::ResourceGovernor(Options options)
    : total_slots_(ResolveTotalSlots(options.total_run_slots)),
      global_memory_(options.global_memory_budget_bytes) {}

ResourceGovernor::Entry* ResourceGovernor::FindEntryLocked(
    const SessionManager* manager) {
  for (Entry& entry : entries_) {
    if (entry.manager == manager) return &entry;
  }
  return nullptr;
}

const ResourceGovernor::Entry* ResourceGovernor::FindEntryLocked(
    const SessionManager* manager) const {
  for (const Entry& entry : entries_) {
    if (entry.manager == manager) return &entry;
  }
  return nullptr;
}

void ResourceGovernor::Register(SessionManager* manager, double weight) {
  std::unique_lock<std::mutex> lock(mu_);
  if (FindEntryLocked(manager) != nullptr) return;
  Entry entry;
  entry.manager = manager;
  entry.weight = std::max(weight, kMinWeight);
  // Join at the current minimum pass: next in line, but owed nothing for
  // the time before it existed (a fresh pass of 0 would let a re-attached
  // tenant monopolize slots until it caught up with the incumbents).
  double min_pass = std::numeric_limits<double>::infinity();
  for (const Entry& e : entries_) min_pass = std::min(min_pass, e.pass);
  entry.pass = entries_.empty() ? 0.0 : min_pass;
  entries_.push_back(entry);
}

void ResourceGovernor::Deregister(SessionManager* manager) {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    Entry* entry = FindEntryLocked(manager);
    if (entry == nullptr) return;
    if (!entry->busy) {
      used_slots_ -= std::min(used_slots_, entry->active);
      entries_.erase(entries_.begin() + (entry - entries_.data()));
      return;
    }
    busy_cv_.wait(lock);
  }
}

bool ResourceGovernor::TryAcquireRunSlot(SessionManager* manager) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry* entry = FindEntryLocked(manager);
  if (entry == nullptr) return false;
  if (used_slots_ >= total_slots_) return false;
  ++used_slots_;
  ++entry->active;
  entry->pass += 1.0 / entry->weight;
  return true;
}

void ResourceGovernor::ReleaseRunSlot(SessionManager* manager) {
  std::unique_lock<std::mutex> lock(mu_);
  Entry* entry = FindEntryLocked(manager);
  if (entry != nullptr && entry->active > 0) {
    --entry->active;
    if (used_slots_ > 0) --used_slots_;
  }
  DispatchLocked(lock);
}

void ResourceGovernor::NotifyQueued(SessionManager* manager) {
  (void)manager;
  std::unique_lock<std::mutex> lock(mu_);
  DispatchLocked(lock);
}

void ResourceGovernor::DispatchLocked(std::unique_lock<std::mutex>& lock) {
  // Tenants whose queue came up dry this round; they only regain work via
  // a Submit, and that Submit calls TryAcquireRunSlot / NotifyQueued
  // itself, so skipping them here loses nothing.
  std::vector<const SessionManager*> dry;
  while (used_slots_ < total_slots_) {
    Entry* pick = nullptr;
    for (Entry& entry : entries_) {
      if (entry.busy) continue;
      if (std::find(dry.begin(), dry.end(), entry.manager) != dry.end()) {
        continue;
      }
      if (pick == nullptr || entry.pass < pick->pass) pick = &entry;
    }
    if (pick == nullptr) return;

    // Tentatively charge the grant, then probe the tenant's queue outside
    // the governor lock (DispatchOneQueued takes the manager's own lock).
    // `busy` pins the entry: Deregister waits on it and concurrent
    // dispatch loops skip it, so the raw pointer stays valid across the
    // unlocked window.
    SessionManager* manager = pick->manager;
    ++used_slots_;
    ++pick->active;
    pick->busy = true;
    lock.unlock();
    const bool launched = manager->DispatchOneQueued();
    lock.lock();
    Entry* entry = FindEntryLocked(manager);  // entries_ may have moved
    if (entry != nullptr) {
      entry->busy = false;
      if (launched) {
        entry->pass += 1.0 / entry->weight;
      } else {
        if (entry->active > 0) --entry->active;
        if (used_slots_ > 0) --used_slots_;
      }
    } else if (!launched && used_slots_ > 0) {
      --used_slots_;
    }
    busy_cv_.notify_all();
    if (!launched) dry.push_back(manager);
  }
}

uint64_t ResourceGovernor::GovernMemoryBudget(SessionManager* manager,
                                              uint64_t requested) {
  std::lock_guard<std::mutex> lock(mu_);
  if (global_memory_ == 0) return requested;
  const Entry* self = FindEntryLocked(manager);
  if (self == nullptr) return requested;
  double total_weight = 0.0;
  for (const Entry& entry : entries_) total_weight += entry.weight;
  const double budget = static_cast<double>(global_memory_);
  double available = budget * self->weight / total_weight;
  // Borrow-back: idle tenants' shares are lent to the active ones instead
  // of sitting reserved; the moment an idle tenant submits, its next run
  // reclaims its share from this same formula.
  for (const Entry& entry : entries_) {
    if (entry.manager != manager && entry.active == 0) {
      available += budget * entry.weight / total_weight;
    }
  }
  // The caller acquires its slot after this, so active runs = active + 1.
  uint64_t cap = static_cast<uint64_t>(
      available / static_cast<double>(self->active + 1));
  if (cap == 0) cap = 1;  // 0 would mean "unmetered" downstream
  return requested == 0 ? cap : std::min(requested, cap);
}

bool ResourceGovernor::Usage(const SessionManager* manager,
                             TenantUsage* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  const Entry* entry = FindEntryLocked(manager);
  if (entry == nullptr) return false;
  out->weight = entry->weight;
  out->active_slots = entry->active;
  if (global_memory_ != 0) {
    double total_weight = 0.0;
    for (const Entry& e : entries_) total_weight += e.weight;
    out->memory_share_bytes = static_cast<uint64_t>(
        static_cast<double>(global_memory_) * entry->weight / total_weight);
  } else {
    out->memory_share_bytes = 0;
  }
  return true;
}

size_t ResourceGovernor::used_slots() const {
  std::lock_guard<std::mutex> lock(mu_);
  return used_slots_;
}

bool IsValidTenantId(const std::string& id) {
  if (id.empty() || id.size() > 64) return false;
  for (char c : id) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '.' ||
                    c == '-';
    if (!ok) return false;
  }
  return true;
}

Tenant::Tenant() = default;
Tenant::~Tenant() = default;

TenantRegistry::TenantRegistry(ResourceGovernor* governor,
                               SessionManagerOptions base_options,
                               ServerDurability* durability)
    : governor_(governor),
      base_options_(base_options),
      durability_(durability != nullptr && durability->enabled() ? durability
                                                                 : nullptr) {}

TenantRegistry::~TenantRegistry() {
  std::vector<TenantPtr> all;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [id, tenant] : tenants_) all.push_back(tenant);
    tenants_.clear();
  }
  for (const TenantPtr& tenant : all) {
    tenant->manager().Shutdown();
    governor_->Deregister(&tenant->manager());
  }
}

TenantPtr TenantRegistry::MakeTenantLocked(
    std::string id, double weight, std::unique_ptr<Catalog> owned,
    Catalog* mutable_catalog, const Catalog* const_catalog,
    std::unique_ptr<TenantDurability> durability,
    SessionManagerOptions options) {
  auto tenant = std::make_shared<Tenant>();
  tenant->id_ = std::move(id);
  tenant->weight_ = weight;
  tenant->owned_catalog_ = std::move(owned);
  tenant->durability_ = std::move(durability);
  options.durability = tenant->durability_.get();
  if (mutable_catalog != nullptr) {
    tenant->manager_ =
        std::make_unique<SessionManager>(mutable_catalog, governor_, options);
  } else {
    tenant->manager_ =
        std::make_unique<SessionManager>(const_catalog, governor_, options);
  }
  // Register before publishing: once the tenant is findable, every Submit
  // expects the governor to know its manager.
  governor_->Register(tenant->manager_.get(), weight);
  tenants_.emplace(tenant->id_, tenant);
  return tenant;
}

TenantPtr TenantRegistry::AdoptDefault(Catalog* catalog, double weight) {
  // Recovery happens before the manager exists, so no lock ordering issues:
  // the checkpoint replaces the catalog's tables and the WAL replays the
  // appends the pre-crash process acked after the snapshot.
  std::unique_ptr<TenantDurability> durability;
  if (durability_ != nullptr) {
    Result<std::unique_ptr<TenantDurability>> opened = durability_->OpenTenant(
        kDefaultId, /*disk_bytes=*/0, catalog, /*fresh=*/false);
    if (opened.ok()) {
      durability = std::move(*opened);
    } else {
      // Durability is degraded (e.g. the directory is unwritable) but the
      // server still starts — the never-refuse rule.
      std::fprintf(stderr, "durability for '%s' disabled: %s\n", kDefaultId,
                   opened.status().ToString().c_str());
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  SessionManagerOptions options = base_options_;
  options.session_prefix = "s-";  // historical bare ids: wire compatibility
  return MakeTenantLocked(kDefaultId, weight, nullptr, catalog, catalog,
                          std::move(durability), options);
}

TenantPtr TenantRegistry::AdoptDefault(const Catalog* catalog, double weight) {
  std::lock_guard<std::mutex> lock(mu_);
  SessionManagerOptions options = base_options_;
  options.session_prefix = "s-";
  // A read-only catalog accepts no appends, so there is nothing to log or
  // recover: no TenantDurability.
  return MakeTenantLocked(kDefaultId, weight, nullptr, nullptr, catalog,
                          nullptr, options);
}

Result<TenantPtr> TenantRegistry::Attach(const AttachParams& params,
                                         bool from_recovery) {
  if (!IsValidTenantId(params.id)) {
    return Status::InvalidArgument(StringFormat(
        "invalid tenant id '%s' (1..64 chars of [A-Za-z0-9_.-])",
        params.id.c_str()));
  }
  if (params.id == kDefaultId) {
    return Status::InvalidArgument(
        "tenant id 'default' is reserved for the adopted server catalog");
  }
  if (params.weight <= 0.0) {
    return Status::InvalidArgument("tenant weight must be positive");
  }
  const bool has_gen = !params.generator.empty();
  const bool has_dir = !params.loaddb_dir.empty();
  if (has_gen == has_dir) {
    return Status::InvalidArgument(
        "ATTACH needs exactly one data source: a generator "
        "(gen tpch|users|patients) or a loaddb directory");
  }

  // Claim the id before any slow or destructive work: the fresh-attach path
  // wipes <wal_dir>/<id>, which must never hit a live tenant's log or a
  // directory a concurrent ATTACH of the same id is populating.
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (tenants_.count(params.id) != 0 || !attaching_.insert(params.id).second) {
      return Status::AlreadyExists(
          StringFormat("tenant '%s' is already attached", params.id.c_str()));
    }
  }
  struct ClaimGuard {
    TenantRegistry* registry;
    const std::string& id;
    ~ClaimGuard() {
      std::lock_guard<std::mutex> lock(registry->mu_);
      registry->attaching_.erase(id);
    }
  } claim_guard{this, params.id};

  // Build the catalog before taking the registry lock: generation can be
  // slow and must not block lookups or other attaches.
  auto catalog = std::make_unique<Catalog>();
  if (has_gen) {
    const std::string kind = ToLower(params.generator);
    if (kind == "tpch") {
      TpchOptions options;
      if (params.rows != 0) {
        options.lineitems = params.rows;
        options.suppliers = std::max<size_t>(100, params.rows / 200);
        options.parts = std::max<size_t>(200, params.rows / 100);
      }
      if (params.seed != 0) options.seed = params.seed;
      ACQ_RETURN_IF_ERROR(GenerateTpch(options, catalog.get()));
    } else if (kind == "users") {
      UsersOptions options;
      if (params.rows != 0) options.users = params.rows;
      if (params.seed != 0) options.seed = params.seed;
      ACQ_RETURN_IF_ERROR(GenerateUsers(options, catalog.get()));
    } else if (kind == "patients") {
      PatientsOptions options;
      if (params.rows != 0) options.patients = params.rows;
      if (params.seed != 0) options.seed = params.seed;
      ACQ_RETURN_IF_ERROR(GeneratePatients(options, catalog.get()));
    } else {
      return Status::InvalidArgument(StringFormat(
          "unknown generator '%s' (tpch|users|patients)", kind.c_str()));
    }
  } else {
    ACQ_RETURN_IF_ERROR(LoadCatalog(params.loaddb_dir, catalog.get()));
  }
  // Tenant identity folded into the catalog's provenance: the fingerprint
  // covers load_params, so two tenants built from identical generator
  // parameters still key the (already separate) caches apart.
  catalog->AppendLoadParams(StringFormat("tenant=%s", params.id.c_str()));

  // Durability, before the tenant is publishable. A fresh ATTACH starts
  // from a wiped directory and is logged to the manifest; a manifest-replay
  // re-attach instead recovers the tenant's checkpoint + WAL on top of the
  // deterministically rebuilt base catalog, and must not re-log itself.
  std::unique_ptr<TenantDurability> durability;
  if (durability_ != nullptr) {
    Result<std::unique_ptr<TenantDurability>> opened = durability_->OpenTenant(
        params.id, params.disk_bytes, catalog.get(),
        /*fresh=*/!from_recovery);
    if (!opened.ok()) return opened.status();
    durability = std::move(*opened);
    if (!from_recovery) {
      Status logged = durability_->LogAttach(params);
      if (!logged.ok()) {
        // An unlogged tenant would silently vanish on restart; fail the
        // ATTACH instead and leave nothing behind.
        durability.reset();
        durability_->RemoveTenant(params.id);
        return logged;
      }
    }
  }

  // The attaching_ claim guarantees exclusivity for this id until the guard
  // releases it, so no duplicate re-check is needed under the lock.
  std::lock_guard<std::mutex> lock(mu_);
  SessionManagerOptions options = base_options_;
  options.session_prefix = params.id + "-s-";
  if (params.max_queued != 0) options.max_queued = params.max_queued;
  if (params.cache_bytes >= 0) {
    options.cache_bytes = static_cast<uint64_t>(params.cache_bytes);
  }
  Catalog* mutable_catalog = catalog.get();  // ATTACHed tenants allow APPEND
  return MakeTenantLocked(params.id, params.weight, std::move(catalog),
                          mutable_catalog, nullptr, std::move(durability),
                          options);
}

Status TenantRegistry::Detach(const std::string& id) {
  if (id == kDefaultId) {
    return Status::InvalidArgument("the default tenant cannot be detached");
  }
  TenantPtr tenant;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = tenants_.find(id);
    if (it == tenants_.end()) {
      return Status::NotFound(
          StringFormat("no tenant '%s' attached", id.c_str()));
    }
    // Log before unpublishing, while still holding the lock: if the
    // manifest append fails the tenant stays attached, and a success means
    // a crash anywhere past this point can no longer resurrect it.
    if (durability_ != nullptr) {
      ACQ_RETURN_IF_ERROR(durability_->LogDetach(id));
    }
    tenant = std::move(it->second);
    tenants_.erase(it);
  }
  // Unrouted above; now drain outside the registry lock. Shutdown cancels
  // every queued and running session through the RunContext cancellation
  // path and returns once nothing runs, after which no slot is
  // outstanding and the governor entry can go.
  tenant->manager().Shutdown();
  governor_->Deregister(&tenant->manager());
  // The TenantDurability stays owned by the (possibly still referenced)
  // Tenant; deleting the directory under its open log fd is safe — any
  // straggler append lands in an unlinked file.
  if (durability_ != nullptr) durability_->RemoveTenant(id);
  return Status::OK();
}

Result<TenantPtr> TenantRegistry::Find(const std::string& id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tenants_.find(id);
  if (it == tenants_.end()) {
    return Status::NotFound(
        StringFormat("no tenant '%s' attached", id.c_str()));
  }
  return it->second;
}

TenantPtr TenantRegistry::FindBySession(const std::string& session_id) const {
  std::vector<TenantPtr> all = List();
  for (const TenantPtr& tenant : all) {
    if (tenant->manager().Find(session_id).ok()) return tenant;
  }
  return nullptr;
}

std::vector<TenantPtr> TenantRegistry::List() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<TenantPtr> out;
  out.reserve(tenants_.size());
  for (const auto& [id, tenant] : tenants_) out.push_back(tenant);
  return out;
}

size_t TenantRegistry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return tenants_.size();
}

}  // namespace acquire
