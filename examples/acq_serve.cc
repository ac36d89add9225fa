// ACQ service daemon: serves the newline-delimited JSON protocol of
// server/server.h over a catalog that is generated or loaded at startup
// and then treated as read-only.
//
//   ./build/examples/acq_serve --gen users --rows 50000
//   ./build/examples/acq_serve --loaddb /path/to/db --port 7411
//
// Talk to it with anything that speaks line-delimited JSON, e.g.:
//
//   printf '%s\n' '{"cmd":"SUBMIT","wait":true,"sql":"SELECT * FROM users
//     CONSTRAINT COUNT(*) >= 2000 WHERE age <= 30 AND income >= 60000;"}'
//     | nc 127.0.0.1 7411            (one line, pipe into nc)
//
// Flags:
//   --port N               listen port (default 7411; 0 = ephemeral)
//   --gen tpch|users|patients   generate a synthetic catalog
//   --rows N               generator size (default 20000)
//
// The catalog is mutable while serving through the APPEND verb only (live
// ingestion; every batch bumps the catalog generation and invalidates
// cached results).
//   --loaddb DIR           load a catalog saved by acq_shell's \savedb
//   --max-running N        concurrent runs admitted (default: half the pool)
//   --max-queue N          queued requests beyond that (default 64)
//   --default-timeout-ms N deadline for SUBMITs without one (default: none)
//   --memory-budget-bytes N  soft per-run memory budget for SUBMITs without
//                          one; budget-stopped runs report resource_exhausted
//   --global-memory-budget-bytes N  process-wide budget carved into
//                          weight-proportional per-tenant shares by the
//                          resource governor (idle shares lent to active
//                          tenants); 0 = no memory governance
//   --cache-bytes N        result-cache byte limit; repeat SUBMITs of a
//                          completed task answer from the cache
//                          (default 0 = cache off)
//   --cache-file PATH      persist the result cache: loaded at startup
//                          (entries whose catalog generation no longer
//                          matches are dropped) and saved on clean
//                          shutdown. Needs --cache-bytes > 0.
//   --idle-timeout-ms N    close connections idle longer than this (default:
//                          never)
//   --max-line-bytes N     reject request lines longer than this (default
//                          1 MiB; 0 = unbounded)
//   --failpoints SPEC      arm fault-injection sites, e.g.
//                          "server.recv=p:0.05;server.admit=every:100"
//                          (also honours the ACQUIRE_FAILPOINTS env var)
//   --wal-dir DIR          durability root: APPENDs are write-ahead logged
//                          (and ATTACH/DETACH manifest-logged) under DIR
//                          before they are acked, and a restart recovers
//                          exactly the acked state — checkpoints first,
//                          then the per-tenant logs, truncating any torn
//                          tail left by a crash (default: no durability)
//   --fsync never|batch|always   when logged records reach stable storage
//                          (default batch; see storage/wal.h)
//   --checkpoint-interval-appends N   snapshot + trim a tenant's log every
//                          N logged appends (default 0: checkpoint only at
//                          clean shutdown)
//   --drain-timeout-ms N   on SIGTERM/SIGINT, wait up to this long for
//                          in-flight runs to finish before cancelling the
//                          remainder (default 5000)
//
// Exit status: 0 clean shutdown, 1 startup error, 4 when any run ended
// resource_exhausted (so harnesses notice budget-degraded service).

#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/failpoint.h"
#include "server/server.h"
#include "storage/persistence.h"
#include "workload/tpch_gen.h"
#include "workload/users_gen.h"

using namespace acquire;  // NOLINT — brevity in example code

namespace {

volatile std::sig_atomic_t g_stop = 0;

void HandleSignal(int) { g_stop = 1; }

int Fail(const std::string& message) {
  std::fprintf(stderr, "acq_serve: %s\n", message.c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  ServerOptions options;
  options.port = 7411;
  std::string gen;
  std::string loaddb;
  std::string cache_file;
  size_t rows = 20000;
  double drain_timeout_ms = 5000.0;

  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* value = nullptr;
    if (flag == "--port" && (value = next())) {
      options.port = std::atoi(value);
    } else if (flag == "--gen" && (value = next())) {
      gen = value;
    } else if (flag == "--rows" && (value = next())) {
      rows = static_cast<size_t>(std::atoll(value));
    } else if (flag == "--loaddb" && (value = next())) {
      loaddb = value;
    } else if (flag == "--max-running" && (value = next())) {
      options.max_running = static_cast<size_t>(std::atoll(value));
    } else if (flag == "--max-queue" && (value = next())) {
      options.max_queued = static_cast<size_t>(std::atoll(value));
    } else if (flag == "--default-timeout-ms" && (value = next())) {
      options.default_timeout_ms = std::atof(value);
    } else if (flag == "--memory-budget-bytes" && (value = next())) {
      options.default_memory_budget_bytes =
          static_cast<uint64_t>(std::atoll(value));
    } else if (flag == "--global-memory-budget-bytes" && (value = next())) {
      options.global_memory_budget_bytes =
          static_cast<uint64_t>(std::atoll(value));
    } else if (flag == "--cache-bytes" && (value = next())) {
      options.cache_bytes = static_cast<uint64_t>(std::atoll(value));
    } else if (flag == "--cache-file" && (value = next())) {
      cache_file = value;
    } else if (flag == "--idle-timeout-ms" && (value = next())) {
      options.idle_timeout_ms = std::atof(value);
    } else if (flag == "--max-line-bytes" && (value = next())) {
      options.max_line_bytes = static_cast<size_t>(std::atoll(value));
    } else if (flag == "--wal-dir" && (value = next())) {
      options.wal_dir = value;
    } else if (flag == "--fsync" && (value = next())) {
      Result<FsyncPolicy> policy = FsyncPolicyFromString(value);
      if (!policy.ok()) return Fail(policy.status().ToString());
      options.fsync = *policy;
    } else if (flag == "--checkpoint-interval-appends" && (value = next())) {
      options.checkpoint_interval_appends =
          static_cast<uint64_t>(std::atoll(value));
    } else if (flag == "--drain-timeout-ms" && (value = next())) {
      drain_timeout_ms = std::atof(value);
    } else if (flag == "--failpoints" && (value = next())) {
      if (!FailpointRegistry::compiled_in()) {
        return Fail("--failpoints: this build compiled failpoints out "
                    "(-DACQUIRE_FAILPOINTS_ENABLED=OFF)");
      }
      Status armed = FailpointRegistry::Global().ConfigureFromSpec(value);
      if (!armed.ok()) return Fail(armed.ToString());
    } else {
      return Fail("unknown or incomplete flag: " + flag +
                  " (see the header of acq_serve.cc)");
    }
  }
  if (gen.empty() == loaddb.empty()) {
    return Fail("exactly one of --gen or --loaddb is required");
  }

  Catalog catalog;
  Status load = Status::OK();
  if (!loaddb.empty()) {
    load = LoadCatalog(loaddb, &catalog);
  } else if (gen == "tpch") {
    TpchOptions tpch;
    tpch.lineitems = rows;
    tpch.suppliers = std::max<size_t>(100, rows / 200);
    tpch.parts = std::max<size_t>(200, rows / 100);
    load = GenerateTpch(tpch, &catalog);
  } else if (gen == "users") {
    UsersOptions users;
    users.users = rows;
    load = GenerateUsers(users, &catalog);
  } else if (gen == "patients") {
    PatientsOptions patients;
    patients.patients = rows;
    load = GeneratePatients(patients, &catalog);
  } else {
    return Fail("unknown generator '" + gen + "' (tpch|users|patients)");
  }
  if (!load.ok()) return Fail(load.ToString());
  for (const std::string& name : catalog.TableNames()) {
    auto table = catalog.GetTable(name);
    std::printf("table %s: %zu rows\n", name.c_str(), (*table)->num_rows());
  }

  if (!cache_file.empty() && options.cache_bytes == 0) {
    return Fail("--cache-file needs --cache-bytes > 0");
  }

  AcqServer server(&catalog, options);
  if (!options.wal_dir.empty()) {
    // One line per durable tenant, so harnesses (and people) can see what
    // recovery replayed before the listening line appears.
    for (const TenantPtr& tenant : server.tenants().List()) {
      const TenantDurability* durability = tenant->durability();
      if (durability == nullptr) continue;
      const TenantDurability::Recovery& rec = durability->recovery();
      std::printf(
          "recovery %s: checkpoint=%s gen=%llu wal_records=%zu wal_rows=%zu "
          "skipped=%zu torn_tail=%s\n",
          tenant->id().c_str(), rec.checkpoint_loaded ? "yes" : "no",
          static_cast<unsigned long long>(rec.checkpoint_generation),
          rec.wal_records, rec.wal_rows, rec.wal_skipped,
          rec.wal_torn_tail ? "yes" : "no");
    }
  }
  if (!cache_file.empty()) {
    size_t loaded = 0, dropped = 0;
    Status warm = server.sessions().cache().LoadFromFile(
        cache_file, catalog.generation(), &loaded, &dropped);
    if (warm.ok()) {
      std::printf("cache file %s: %zu entries loaded, %zu stale dropped\n",
                  cache_file.c_str(), loaded, dropped);
    } else if (warm.code() == StatusCode::kNotFound) {
      std::printf("cache file %s: absent, starting cold\n",
                  cache_file.c_str());
    } else {
      // A corrupt snapshot must not block serving; it is simply ignored
      // (and overwritten on shutdown).
      std::printf("cache file %s: ignored (%s)\n", cache_file.c_str(),
                  warm.ToString().c_str());
    }
  }
  Status started = server.Start();
  if (!started.ok()) return Fail(started.ToString());
  std::printf("acq_serve listening on 127.0.0.1:%d\n", server.port());
  std::fflush(stdout);

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  while (g_stop == 0) pause();
  std::printf("shutting down\n");
  // Graceful: let in-flight runs finish (bounded), then stop — which also
  // checkpoints every durable tenant so restart recovers from snapshots.
  server.Drain(drain_timeout_ms);
  server.Stop();
  if (!cache_file.empty()) {
    Status saved = server.sessions().cache().SaveToFile(cache_file);
    if (saved.ok()) {
      std::printf("cache saved to %s\n", cache_file.c_str());
    } else {
      std::printf("cache save failed: %s\n", saved.ToString().c_str());
    }
  }

  const ServerCounters counters = server.sessions().counters();
  std::printf(
      "served: %llu submitted, %llu completed, %llu truncated, "
      "%llu deadline_exceeded, %llu cancelled, %llu resource_exhausted, "
      "%llu failed, %llu rejected\n",
      static_cast<unsigned long long>(counters.submitted),
      static_cast<unsigned long long>(counters.completed),
      static_cast<unsigned long long>(counters.truncated),
      static_cast<unsigned long long>(counters.deadline_exceeded),
      static_cast<unsigned long long>(counters.cancelled),
      static_cast<unsigned long long>(counters.resource_exhausted),
      static_cast<unsigned long long>(counters.failed),
      static_cast<unsigned long long>(counters.rejected));
  if (options.cache_bytes > 0) {
    const ResultCacheStats cache = server.sessions().cache().stats();
    std::printf(
        "cache: %llu hits, %llu misses, %llu evictions, "
        "%llu entries / %llu bytes retained\n",
        static_cast<unsigned long long>(cache.hits),
        static_cast<unsigned long long>(cache.misses),
        static_cast<unsigned long long>(cache.evictions),
        static_cast<unsigned long long>(cache.entries),
        static_cast<unsigned long long>(cache.bytes));
  }
  if (FailpointRegistry::compiled_in()) {
    const uint64_t hits = FailpointRegistry::Global().TotalHits();
    if (hits > 0) {
      std::printf("failpoint hits: %llu\n",
                  static_cast<unsigned long long>(hits));
    }
  }
  // Distinct exit status when service degraded under its memory budget, so
  // wrapping harnesses can tell "served everything" from "shed load".
  return counters.resource_exhausted > 0 ? 4 : 0;
}
