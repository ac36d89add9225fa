// The fingerprinted result cache (server/result_cache.h + the admission
// integration in server/session.cc), proven bit-exact by a differential
// battery: a repeat SUBMIT of any completed task must come back from the
// cache byte-identical to the freshly computed wire reply (only the outer
// session "id" may differ), across every search order and batch mode, over
// hundreds of randomized tasks. Plus unit coverage of the LRU itself and of
// the canonical key: every result-affecting knob flips the fingerprint,
// while fields that only decide *whether* a run finishes (deadlines, memory
// budgets) never do.

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <random>
#include <string>
#include <vector>

#include "core/fingerprint.h"
#include "core/run_context.h"
#include "common/string_util.h"
#include "gtest/gtest.h"
#include "server/result_cache.h"
#include "server/server.h"
#include "sql/binder.h"
#include "sql/parser.h"
#include "workload/users_gen.h"

namespace acquire {
namespace {

Catalog* SharedCatalog() {
  static Catalog* catalog = [] {
    auto* c = new Catalog();
    UsersOptions options;
    options.users = 2000;
    EXPECT_TRUE(GenerateUsers(options, c).ok());
    return c;
  }();
  return catalog;
}

JsonValue MustParse(const std::string& line) {
  Result<JsonValue> parsed = JsonValue::Parse(line);
  EXPECT_TRUE(parsed.ok()) << line;
  return parsed.ok() ? *parsed : JsonValue::Null();
}

// The wire reply with the outer session "id" removed — the only field a
// cache-served reply is allowed to differ in. Member order is preserved, so
// string equality of the dumps is byte-identity of everything else.
std::string DumpWithoutId(const JsonValue& response) {
  JsonValue out = JsonValue::Object();
  for (const auto& [key, value] : response.Members()) {
    if (key != "id") out.Set(key, JsonValue(value));
  }
  return out.Dump();
}

double StatsNumber(AcqServer* server, const char* field) {
  JsonValue stats = MustParse(server->HandleRequestLine("{\"cmd\":\"STATS\"}"));
  const JsonValue* counters = stats.Get("stats");
  return counters != nullptr ? counters->GetNumber(field, -1.0) : -1.0;
}

// --- the differential battery -------------------------------------------

// >= 200 randomized tasks, cycling through all four search orders. Each
// task is SUBMITted twice; the second reply must be a cache hit (no new
// run: "completed" stays put) and byte-identical to the first — including
// wall_ms and elapsed_ms, which only survive a repeat because the report is
// rendered once and replayed.
TEST(ResultCacheDifferentialTest, RepeatSubmitIsByteIdenticalAcrossTheGrid) {
  ServerOptions options;
  options.cache_bytes = 64ull << 20;
  AcqServer server(SharedCatalog(), options);
  const char* orders[] = {"bfs", "shell", "best_first", "auto"};
  std::mt19937 rng(0xac01f5e1u);
  constexpr int kTasks = 208;  // 52 per order
  for (int i = 0; i < kTasks; ++i) {
    const int age = 22 + static_cast<int>(rng() % 18);
    const int income = 40000 + static_cast<int>(rng() % 40) * 1000;
    const int target = 1 + static_cast<int>(rng() % 400);
    JsonValue request = JsonValue::Object();
    request.Set("cmd", JsonValue::Str("SUBMIT"));
    request.Set("sql", JsonValue::Str(StringFormat(
                           "SELECT * FROM users CONSTRAINT COUNT(*) >= %d "
                           "WHERE age <= %d AND income >= %d",
                           target, age, income)));
    request.Set("order", JsonValue::Str(orders[i % 4]));
    request.Set("wait", JsonValue::Bool(true));
    const std::string line = request.Dump();

    JsonValue fresh = MustParse(server.HandleRequestLine(line));
    ASSERT_TRUE(fresh.GetBool("ok", false)) << fresh.Dump();
    ASSERT_EQ(fresh.GetString("state"), "done") << fresh.Dump();
    const JsonValue* report = fresh.Get("report");
    ASSERT_NE(report, nullptr) << fresh.Dump();
    // These small d=2 tasks always finish their search; anything else is a
    // bug worth failing on (an uncached termination would also make the
    // repeat a fresh run with a different wall_ms).
    ASSERT_EQ(report->GetString("termination"), "completed") << fresh.Dump();

    const double hits_before = StatsNumber(&server, "cache_hits");
    const double completed_before = StatsNumber(&server, "completed");
    JsonValue cached = MustParse(server.HandleRequestLine(line));
    ASSERT_TRUE(cached.GetBool("ok", false)) << cached.Dump();
    EXPECT_EQ(DumpWithoutId(cached), DumpWithoutId(fresh)) << line;
    EXPECT_NE(cached.GetString("id"), fresh.GetString("id"));
    EXPECT_EQ(StatsNumber(&server, "cache_hits"), hits_before + 1) << line;
    // The hit ran nothing: the terminal-run tally did not move.
    EXPECT_EQ(StatsNumber(&server, "completed"), completed_before) << line;
  }
  EXPECT_EQ(StatsNumber(&server, "cache_hits"), static_cast<double>(kTasks));
}

// The acceptance bar stated directly: with the lone admission slot pinned by
// a long run and the queue full, a repeat SUBMIT of a completed task is still
// answered immediately from the cache — it consumes no session slot — while
// a novel task is rejected Unavailable.
TEST(ResultCacheTest, CacheHitConsumesNoSessionSlot) {
  ServerOptions options;
  options.cache_bytes = 16ull << 20;
  options.max_running = 1;
  options.max_queued = 0;
  AcqServer server(SharedCatalog(), options);

  const char* sql =
      "SELECT * FROM users CONSTRAINT COUNT(*) >= 200 "
      "WHERE age <= 30 AND income >= 60000";
  JsonValue seed = JsonValue::Object();
  seed.Set("cmd", JsonValue::Str("SUBMIT"));
  seed.Set("sql", JsonValue::Str(sql));
  seed.Set("wait", JsonValue::Bool(true));
  JsonValue seeded = MustParse(server.HandleRequestLine(seed.Dump()));
  ASSERT_EQ(seeded.GetString("state"), "done") << seeded.Dump();

  // Pin the only slot with an unreachable-target run.
  JsonValue slow = JsonValue::Object();
  slow.Set("cmd", JsonValue::Str("SUBMIT"));
  slow.Set("sql", JsonValue::Str(
                      "SELECT * FROM users CONSTRAINT COUNT(*) >= 1000000000 "
                      "WHERE age <= 20 AND income <= 30000 AND "
                      "engagement <= 1.0 AND account_age_days <= 100"));
  slow.Set("stall_limit", JsonValue::Number(1e15));
  slow.Set("divergence_patience", JsonValue::Number(1000000));
  slow.Set("max_explored", JsonValue::Number(4e9));
  slow.Set("timeout_ms", JsonValue::Number(30000.0));
  JsonValue pinned = MustParse(server.HandleRequestLine(slow.Dump()));
  ASSERT_TRUE(pinned.GetBool("ok", false)) << pinned.Dump();

  // Saturated for new work…
  JsonValue novel = JsonValue::Object();
  novel.Set("cmd", JsonValue::Str("SUBMIT"));
  novel.Set("sql", JsonValue::Str(
                       "SELECT * FROM users CONSTRAINT COUNT(*) >= 50 "
                       "WHERE age <= 44 AND income >= 41000"));
  JsonValue rejected = MustParse(server.HandleRequestLine(novel.Dump()));
  EXPECT_FALSE(rejected.GetBool("ok", true)) << rejected.Dump();
  EXPECT_EQ(rejected.GetString("code"), "Unavailable");

  // …but the cached task sails through without a slot.
  JsonValue hit = MustParse(server.HandleRequestLine(seed.Dump()));
  ASSERT_TRUE(hit.GetBool("ok", false)) << hit.Dump();
  EXPECT_EQ(hit.GetString("state"), "done");
  EXPECT_EQ(DumpWithoutId(hit), DumpWithoutId(seeded));
  EXPECT_EQ(StatsNumber(&server, "cache_hits"), 1.0);
  EXPECT_EQ(StatsNumber(&server, "completed"), 1.0);

  JsonValue cancelled = MustParse(server.HandleRequestLine(StringFormat(
      "{\"cmd\":\"CANCEL\",\"id\":\"%s\",\"wait\":true}",
      pinned.GetString("id").c_str())));
  EXPECT_EQ(cancelled.GetString("state"), "cancelled") << cancelled.Dump();
}

// The CACHE verb: stats/limit/clear round-trip over the wire.
TEST(ResultCacheTest, CacheVerbReportsClearsAndRelimits) {
  ServerOptions options;
  options.cache_bytes = 16ull << 20;
  AcqServer server(SharedCatalog(), options);
  JsonValue request = JsonValue::Object();
  request.Set("cmd", JsonValue::Str("SUBMIT"));
  request.Set("sql", JsonValue::Str(
                         "SELECT * FROM users CONSTRAINT COUNT(*) >= 10 "
                         "WHERE age <= 35 AND income >= 50000"));
  request.Set("wait", JsonValue::Bool(true));
  ASSERT_EQ(MustParse(server.HandleRequestLine(request.Dump()))
                .GetString("state"),
            "done");

  JsonValue stats = MustParse(server.HandleRequestLine("{\"cmd\":\"CACHE\"}"));
  ASSERT_TRUE(stats.GetBool("ok", false)) << stats.Dump();
  EXPECT_TRUE(stats.GetBool("enabled", false));
  const JsonValue* body = stats.Get("cache");
  ASSERT_NE(body, nullptr) << stats.Dump();
  EXPECT_EQ(body->GetNumber("entries", -1.0), 1.0);
  EXPECT_GT(body->GetNumber("bytes", -1.0), 0.0);
  EXPECT_EQ(body->GetNumber("limit_bytes", -1.0),
            static_cast<double>(16ull << 20));

  JsonValue cleared =
      MustParse(server.HandleRequestLine("{\"cmd\":\"CACHE\",\"clear\":true}"));
  ASSERT_TRUE(cleared.GetBool("ok", false)) << cleared.Dump();
  EXPECT_EQ(cleared.Get("cache")->GetNumber("entries", -1.0), 0.0);

  JsonValue relimited = MustParse(
      server.HandleRequestLine("{\"cmd\":\"CACHE\",\"limit\":0}"));
  ASSERT_TRUE(relimited.GetBool("ok", false)) << relimited.Dump();
  EXPECT_FALSE(relimited.GetBool("enabled", true));

  JsonValue bad = MustParse(
      server.HandleRequestLine("{\"cmd\":\"CACHE\",\"limit\":\"big\"}"));
  EXPECT_FALSE(bad.GetBool("ok", true)) << bad.Dump();
  JsonValue huge = MustParse(
      server.HandleRequestLine("{\"cmd\":\"CACHE\",\"limit\":1e300}"));
  EXPECT_FALSE(huge.GetBool("ok", true)) << huge.Dump();
}

// --- ResultCache unit coverage ------------------------------------------

CachedResultPtr MakeEntry(size_t bytes) {
  auto entry = std::make_shared<CachedResult>();
  JsonValue report = JsonValue::Object();
  report.Set("bytes", JsonValue::Number(static_cast<double>(bytes)));
  entry->report = report.Dump();
  entry->bytes = bytes;
  return entry;
}

TaskFingerprint Fp(uint64_t n) { return TaskFingerprint{n, n}; }

TEST(ResultCacheUnitTest, DisabledCacheStoresNothingAndCountsNothing) {
  ResultCache cache;  // limit 0
  EXPECT_FALSE(cache.enabled());
  cache.Insert(Fp(1), MakeEntry(100));
  EXPECT_EQ(cache.Lookup(Fp(1)), nullptr);
  const ResultCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);  // disabled lookups are not counted misses
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.bytes, 0u);
}

TEST(ResultCacheUnitTest, HitAndMissCountersTally) {
  ResultCache cache(1 << 20);
  cache.Insert(Fp(1), MakeEntry(100));
  EXPECT_NE(cache.Lookup(Fp(1)), nullptr);
  EXPECT_EQ(cache.Lookup(Fp(2)), nullptr);
  const ResultCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.bytes, 100u);
}

TEST(ResultCacheUnitTest, EvictionIsLeastRecentlyUsed) {
  // Two 60-byte entries fit in 130 bytes, a third forces one eviction — of
  // the least recently *used*, not least recently inserted.
  ResultCache cache(130);
  cache.Insert(Fp(1), MakeEntry(60));
  cache.Insert(Fp(2), MakeEntry(60));
  EXPECT_NE(cache.Lookup(Fp(1)), nullptr);  // refresh 1: now 2 is the tail
  cache.Insert(Fp(3), MakeEntry(60));
  EXPECT_NE(cache.Lookup(Fp(1)), nullptr);
  EXPECT_NE(cache.Lookup(Fp(3)), nullptr);
  EXPECT_EQ(cache.Lookup(Fp(2)), nullptr);
  EXPECT_EQ(cache.stats().evictions, 1u);
}

// Any entry that fits the limit is kept: a reply a quarter of the limit's
// size stays beside a second one.
TEST(ResultCacheUnitTest, EntryWithinTheLimitIsKept) {
  ResultCache cache(1000);
  cache.Insert(Fp(1), MakeEntry(250));
  cache.Insert(Fp(2), MakeEntry(100));
  EXPECT_NE(cache.Lookup(Fp(1)), nullptr);
  EXPECT_NE(cache.Lookup(Fp(2)), nullptr);
  const ResultCacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.bytes, 350u);
  EXPECT_EQ(stats.evictions, 0u);
}

TEST(ResultCacheUnitTest, OversizedEntryIsEvictedImmediately) {
  ResultCache cache(8 * 130);
  cache.Insert(Fp(1), MakeEntry(10'000));
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(ResultCacheUnitTest, ReinsertRefreshesBytes) {
  ResultCache cache(1 << 20);
  cache.Insert(Fp(1), MakeEntry(60));
  cache.Insert(Fp(1), MakeEntry(80));
  const ResultCacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.bytes, 80u);
}

TEST(ResultCacheUnitTest, ClearKeepsMonotonicCounters) {
  ResultCache cache(1 << 20);
  cache.Insert(Fp(1), MakeEntry(60));
  EXPECT_NE(cache.Lookup(Fp(1)), nullptr);
  EXPECT_EQ(cache.Lookup(Fp(2)), nullptr);
  cache.Clear();
  const ResultCacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.bytes, 0u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.evictions, 0u);  // cleared entries are not "evictions"
}

TEST(ResultCacheUnitTest, RepeatedHitsRaiseSurvivalPriority) {
  // Same size everywhere, but entry 1's hits move it to the front of the
  // recency list, so the untouched entry 2 is the victim despite 1 being
  // older.
  ResultCache cache(130);
  cache.Insert(Fp(1), MakeEntry(60));
  cache.Insert(Fp(2), MakeEntry(60));
  EXPECT_NE(cache.Lookup(Fp(1)), nullptr);
  EXPECT_NE(cache.Lookup(Fp(1)), nullptr);
  cache.Insert(Fp(3), MakeEntry(60));
  EXPECT_NE(cache.Lookup(Fp(1)), nullptr);
  EXPECT_EQ(cache.Lookup(Fp(2)), nullptr);
}

// Failed runs are never cached: SQL that fails to bind is planned, and
// fails, afresh on every SUBMIT, each time with the same error.
TEST(ResultCacheTest, RepeatedBadSqlFailsEveryTime) {
  ServerOptions options;
  options.cache_bytes = 1 << 20;
  AcqServer server(SharedCatalog(), options);
  JsonValue request = JsonValue::Object();
  request.Set("cmd", JsonValue::Str("SUBMIT"));
  request.Set("sql", JsonValue::Str(
                         "SELECT * FROM users CONSTRAINT COUNT(*) >= 10 "
                         "WHERE no_such_column <= 30"));
  request.Set("wait", JsonValue::Bool(true));
  const std::string line = request.Dump();

  std::string first_error;
  for (int i = 0; i < 3; ++i) {
    JsonValue reply = MustParse(server.HandleRequestLine(line));
    EXPECT_EQ(reply.GetString("state"), "failed") << reply.Dump();
    const std::string error = reply.GetString("error");
    EXPECT_FALSE(error.empty());
    if (i == 0) {
      first_error = error;
    } else {
      EXPECT_EQ(error, first_error);
    }
  }
  EXPECT_EQ(StatsNumber(&server, "failed"), 3.0);
}

TEST(ResultCacheUnitTest, TruncatedSnapshotIsRejectedWhole) {
  // A crash mid-save used to be unobservable: the old format had no
  // integrity check, so a torn snapshot could half-load. Since v2 the format
  // carries a whole-file CRC — any truncation point must reject the file
  // outright with ParseError and insert nothing.
  const std::string path = testing::TempDir() + "/acq_cache_torn.snapshot";
  std::remove(path.c_str());
  {
    ResultCache cache(1 << 20);
    cache.Insert(Fp(1), MakeEntry(200));
    cache.Insert(Fp(2), MakeEntry(300));
    ASSERT_TRUE(cache.SaveToFile(path).ok());
  }
  std::string full;
  {
    std::ifstream in(path, std::ios::binary);
    full.assign(std::istreambuf_iterator<char>(in),
                std::istreambuf_iterator<char>());
  }
  ASSERT_GT(full.size(), 20u);
  // Intact file loads both entries.
  {
    ResultCache cache(1 << 20);
    size_t loaded = 0;
    ASSERT_TRUE(cache.LoadFromFile(path, 0, &loaded).ok());
    EXPECT_EQ(loaded, 2u);
  }
  // Every truncation past the header must be rejected whole — including
  // cuts that land between entries, where the old line-based parser saw a
  // well-formed prefix and loaded half the cache.
  for (size_t keep : {full.size() - 1, full.size() - 9, full.size() / 2,
                      full.size() / 4}) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(full.data(), static_cast<std::streamsize>(keep));
    out.close();
    ResultCache cache(1 << 20);
    size_t loaded = 0, dropped = 0;
    Status status = cache.LoadFromFile(path, 0, &loaded, &dropped);
    EXPECT_FALSE(status.ok()) << "keep=" << keep;
    EXPECT_EQ(cache.stats().entries, 0u)
        << "keep=" << keep << ": torn snapshot half-loaded";
    EXPECT_EQ(loaded, 0u);
  }
  // A single flipped bit in the body is caught by the CRC too.
  {
    std::string flipped = full;
    flipped[full.size() / 2] ^= 0x40;
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << flipped;
    out.close();
    ResultCache cache(1 << 20);
    EXPECT_FALSE(cache.LoadFromFile(path, 0).ok());
    EXPECT_EQ(cache.stats().entries, 0u);
  }
  // An older format's snapshot is rejected whole as well, and the error
  // names both formats; only a file with no header is called headerless.
  const std::string body = full.substr(full.find('\n') + 1);
  for (const std::string head : {"acq-cache-v2\n", "1 2 3 4 5 6\n"}) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << head << body;
    out.close();
    ResultCache cache(1 << 20);
    size_t loaded = 0;
    Status status = cache.LoadFromFile(path, 0, &loaded);
    EXPECT_TRUE(status.IsParseError()) << status.ToString();
    EXPECT_EQ(loaded, 0u);
    EXPECT_EQ(cache.stats().entries, 0u);
    const bool older = head == "acq-cache-v2\n";
    EXPECT_EQ(status.message().find("missing") == std::string::npos, older)
        << status.ToString();
    EXPECT_EQ(status.message().find("'acq-cache-v2'") != std::string::npos,
              older)
        << status.ToString();
    EXPECT_NE(status.message().find("'acq-cache-v3'"), std::string::npos)
        << status.ToString();
  }
  std::remove(path.c_str());
  // SaveToFile staged through `path`.tmp; no residue may remain.
  EXPECT_NE(::access((path + ".tmp").c_str(), F_OK), 0);
}

// A snapshot keeps the recency order: reloaded into a cache that holds only
// two of its three entries, the two most recently used survive.
TEST(ResultCacheUnitTest, ReloadKeepsRecencyOrder) {
  const std::string path = testing::TempDir() + "/acq_cache_order.snapshot";
  std::remove(path.c_str());
  {
    ResultCache cache(1 << 20);
    cache.Insert(Fp(1), MakeEntry(60));
    cache.Insert(Fp(2), MakeEntry(60));
    cache.Insert(Fp(3), MakeEntry(60));
    EXPECT_NE(cache.Lookup(Fp(1)), nullptr);  // recency: 1, 3, 2
    ASSERT_TRUE(cache.SaveToFile(path).ok());
  }
  ResultCache restored(130);
  size_t loaded = 0;
  ASSERT_TRUE(restored.LoadFromFile(path, 0, &loaded).ok());
  EXPECT_EQ(loaded, 3u);
  EXPECT_EQ(restored.stats().entries, 2u);
  EXPECT_EQ(restored.Lookup(Fp(2)), nullptr);
  EXPECT_NE(restored.Lookup(Fp(3)), nullptr);
  EXPECT_NE(restored.Lookup(Fp(1)), nullptr);
  std::remove(path.c_str());
}

TEST(ResultCacheUnitTest, ZeroLimitClearsAndDisables) {
  ResultCache cache(1 << 20);
  cache.Insert(Fp(1), MakeEntry(60));
  cache.set_limit_bytes(0);
  EXPECT_FALSE(cache.enabled());
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.Lookup(Fp(1)), nullptr);
}

// --- fingerprint sensitivity --------------------------------------------

QuerySpec MustBind(const std::string& sql) {
  Result<AstQuery> ast = ParseAcqSql(sql);
  EXPECT_TRUE(ast.ok()) << ast.status().ToString();
  Binder binder(SharedCatalog());
  Result<QuerySpec> spec = binder.BindQuery(*ast);
  EXPECT_TRUE(spec.ok()) << spec.status().ToString();
  return spec.ok() ? *spec : QuerySpec{};
}

TaskFingerprint MustFingerprint(const Catalog& catalog, const QuerySpec& spec,
                                const AcquireOptions& options) {
  Result<TaskFingerprint> fp = FingerprintTask(catalog, spec, options);
  EXPECT_TRUE(fp.ok()) << fp.status().ToString();
  return fp.ok() ? *fp : TaskFingerprint{};
}

constexpr const char* kBaseSql =
    "SELECT * FROM users CONSTRAINT COUNT(*) >= 500 "
    "WHERE age <= 30 AND income >= 60000";

TEST(FingerprintTest, EveryResultAffectingOptionFlipsTheKey) {
  const QuerySpec spec = MustBind(kBaseSql);
  const TaskFingerprint base =
      MustFingerprint(*SharedCatalog(), spec, AcquireOptions{});
  struct Case {
    const char* what;
    void (*mutate)(AcquireOptions*);
  } cases[] = {
      {"gamma", [](AcquireOptions* o) { o->gamma = 11.0; }},
      {"delta", [](AcquireOptions* o) { o->delta = 0.1; }},
      {"norm", [](AcquireOptions* o) { o->norm = Norm::L2(); }},
      {"norm_p", [](AcquireOptions* o) { o->norm = Norm::Lp(3.0); }},
      {"order", [](AcquireOptions* o) { o->order = SearchOrder::kShell; }},
      {"repartition_iters",
       [](AcquireOptions* o) { o->repartition_iters = 3; }},
      {"collect_within_gamma",
       [](AcquireOptions* o) { o->collect_within_gamma = true; }},
      {"use_incremental",
       [](AcquireOptions* o) { o->use_incremental = false; }},
      {"max_explored", [](AcquireOptions* o) { o->max_explored = 999; }},
      {"divergence_patience",
       [](AcquireOptions* o) { o->divergence_patience = 5; }},
      {"stall_limit", [](AcquireOptions* o) { o->stall_limit = 7; }},
  };
  for (const Case& c : cases) {
    AcquireOptions mutated;
    c.mutate(&mutated);
    EXPECT_NE(MustFingerprint(*SharedCatalog(), spec, mutated), base)
        << c.what;
  }
}

TEST(FingerprintTest, CompletionOnlyFieldsDoNotFlipTheKey) {
  const QuerySpec spec = MustBind(kBaseSql);
  const TaskFingerprint base =
      MustFingerprint(*SharedCatalog(), spec, AcquireOptions{});
  AcquireOptions budgeted;
  budgeted.memory_budget_bytes = 1 << 20;
  EXPECT_EQ(MustFingerprint(*SharedCatalog(), spec, budgeted), base);
  RunContext ctx;
  ctx.SetTimeoutMillis(1.0);
  AcquireOptions deadlined;
  deadlined.run_ctx = &ctx;
  EXPECT_EQ(MustFingerprint(*SharedCatalog(), spec, deadlined), base);
}

TEST(FingerprintTest, AutoChoicesResolveToTheirEffectiveValue) {
  const QuerySpec spec = MustBind(kBaseSql);
  // L1 norm: order auto resolves to bfs.
  AcquireOptions auto_order;  // order = kAuto, norm = L1
  AcquireOptions bfs_order;
  bfs_order.order = SearchOrder::kBfs;
  EXPECT_EQ(MustFingerprint(*SharedCatalog(), spec, auto_order),
            MustFingerprint(*SharedCatalog(), spec, bfs_order));
  // LInf norm: order auto resolves to shell.
  AcquireOptions auto_linf;
  auto_linf.norm = Norm::LInf();
  AcquireOptions shell_linf;
  shell_linf.norm = Norm::LInf();
  shell_linf.order = SearchOrder::kShell;
  EXPECT_EQ(MustFingerprint(*SharedCatalog(), spec, auto_linf),
            MustFingerprint(*SharedCatalog(), spec, shell_linf));
  // Backend auto resolves to cell_sorted.
  QuerySpec cell = spec;
  cell.eval_backend = EvalBackend::kCellSorted;
  EXPECT_EQ(MustFingerprint(*SharedCatalog(), cell, AcquireOptions{}),
            MustFingerprint(*SharedCatalog(), spec, AcquireOptions{}));
  QuerySpec direct = spec;
  direct.eval_backend = EvalBackend::kDirect;
  EXPECT_NE(MustFingerprint(*SharedCatalog(), direct, AcquireOptions{}),
            MustFingerprint(*SharedCatalog(), spec, AcquireOptions{}));
}

TEST(FingerprintTest, PlanAndCatalogIdentityFlipTheKey) {
  const QuerySpec spec = MustBind(kBaseSql);
  const TaskFingerprint base =
      MustFingerprint(*SharedCatalog(), spec, AcquireOptions{});
  // A different constraint target or predicate bound is a different task.
  EXPECT_NE(MustFingerprint(*SharedCatalog(),
                            MustBind("SELECT * FROM users CONSTRAINT "
                                     "COUNT(*) >= 501 WHERE age <= 30 AND "
                                     "income >= 60000"),
                            AcquireOptions{}),
            base);
  EXPECT_NE(MustFingerprint(*SharedCatalog(),
                            MustBind("SELECT * FROM users CONSTRAINT "
                                     "COUNT(*) >= 500 WHERE age <= 31 AND "
                                     "income >= 60000"),
                            AcquireOptions{}),
            base);
  // …while a re-spelling that binds identically shares the key.
  EXPECT_EQ(MustFingerprint(*SharedCatalog(),
                            MustBind("SELECT   *   FROM users CONSTRAINT "
                                     "COUNT(*) >= 500 WHERE age <= 30 "
                                     "AND income >= 60000"),
                            AcquireOptions{}),
            base);
  // Any catalog mutation bumps the generation and invalidates the key.
  Catalog local;
  UsersOptions gen;
  gen.users = 300;
  ASSERT_TRUE(GenerateUsers(gen, &local).ok());
  Binder binder(&local);
  Result<AstQuery> ast = ParseAcqSql(kBaseSql);
  ASSERT_TRUE(ast.ok());
  Result<QuerySpec> local_spec = binder.BindQuery(*ast);
  ASSERT_TRUE(local_spec.ok());
  const TaskFingerprint before =
      MustFingerprint(local, *local_spec, AcquireOptions{});
  Result<TablePtr> users = local.GetTable("users");
  ASSERT_TRUE(users.ok());
  local.PutTable(*users);  // same table, but the generation moved
  EXPECT_NE(MustFingerprint(local, *local_spec, AcquireOptions{}), before);
}

TEST(FingerprintTest, ExpressionLiteralsAreKeyedExactly) {
  // NOREFINE lowers a predicate to a fixed filter, and a predicate over an
  // arithmetic expression keeps that expression; the key spells both as
  // expressions. Literals that agree to six significant digits are still
  // different tasks...
  auto bind = [](const std::string& clause) {
    return MustBind(
        "SELECT * FROM users CONSTRAINT COUNT(*) >= 500 "
        "WHERE age <= 30 AND income >= 60000 AND " + clause);
  };
  auto key = [&](const std::string& clause) {
    return MustFingerprint(*SharedCatalog(), bind(clause), AcquireOptions{});
  };
  const TaskFingerprint filter = key("engagement <= 0.05000001 NOREFINE");
  EXPECT_NE(key("engagement <= 0.05000002 NOREFINE"), filter);
  const TaskFingerprint expr = key("income * 0.05000001 <= 3000");
  EXPECT_NE(key("income * 0.05000002 <= 3000"), expr);
  // ...while a re-spelling that binds to the same double shares the key.
  EXPECT_EQ(key("engagement <= 0.0500000100 NOREFINE"), filter);
  EXPECT_EQ(key("engagement <= 5.000001e-2 NOREFINE"), filter);
  EXPECT_EQ(key("income * 5.000001e-2 <= 3000"), expr);
}

TEST(FingerprintTest, UncacheableTasksAreRejectedNotMiskeyed) {
  const QuerySpec spec = MustBind(kBaseSql);
  AcquireOptions custom_error;
  custom_error.error_fn = [](const Constraint& c, double actual) {
    return actual - c.target;
  };
  Result<TaskFingerprint> with_error =
      FingerprintTask(*SharedCatalog(), spec, custom_error);
  EXPECT_FALSE(with_error.ok());
  QuerySpec uda = spec;
  uda.agg_kind = AggregateKind::kUda;
  Result<TaskFingerprint> with_uda =
      FingerprintTask(*SharedCatalog(), uda, AcquireOptions{});
  EXPECT_FALSE(with_uda.ok());
}

TEST(FingerprintTest, CanonicalKeyIsReadable) {
  const QuerySpec spec = MustBind(kBaseSql);
  Result<std::string> key =
      CanonicalTaskKey(*SharedCatalog(), spec, AcquireOptions{});
  ASSERT_TRUE(key.ok()) << key.status().ToString();
  EXPECT_EQ(key->rfind("acq-fp-v1|catalog{gen=", 0), 0u) << *key;
  EXPECT_NE(key->find("|table{users;"), std::string::npos) << *key;
  EXPECT_NE(key->find("|agg{"), std::string::npos) << *key;
  EXPECT_NE(key->find("|opts{backend=cellsorted;"), std::string::npos)
      << *key;
  // The exclusions really are absent.
  EXPECT_EQ(key->find("budget"), std::string::npos) << *key;
  EXPECT_EQ(key->find("deadline"), std::string::npos) << *key;
  // And the hex spelling round-trips the 128 bits.
  TaskFingerprint fp = MustFingerprint(*SharedCatalog(), spec,
                                       AcquireOptions{});
  EXPECT_EQ(fp.ToHex().size(), 32u);
  EXPECT_NE(fp, TaskFingerprint{});
}

}  // namespace
}  // namespace acquire
