// Live ingestion through the service layer: the APPEND verb, its type
// coercion and atomicity rules, generation-driven invalidation of cached
// results, and the result cache's SaveToFile/LoadFromFile persistence
// (stale-generation entries dropped on load).

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/string_util.h"
#include "gtest/gtest.h"
#include "server/result_cache.h"
#include "server/server.h"
#include "storage/wal.h"
#include "workload/users_gen.h"

namespace acquire {
namespace {

JsonValue MustParse(const std::string& line) {
  Result<JsonValue> parsed = JsonValue::Parse(line);
  EXPECT_TRUE(parsed.ok()) << line;
  return parsed.ok() ? *parsed : JsonValue::Null();
}

double StatsNumber(AcqServer* server, const char* field) {
  JsonValue stats = MustParse(server->HandleRequestLine("{\"cmd\":\"STATS\"}"));
  const JsonValue* counters = stats.Get("stats");
  return counters != nullptr ? counters->GetNumber(field, -1.0) : -1.0;
}

// Each test gets its own catalog: APPEND mutates it, so sharing one across
// tests (the usual server_test idiom) would couple their row counts.
void MakeUsersCatalog(Catalog* catalog, size_t rows = 2000) {
  UsersOptions options;
  options.users = rows;
  ASSERT_TRUE(GenerateUsers(options, catalog).ok());
}

// One users row matching the 9-column schema: user_id(i64), age(i64),
// income(d), engagement(d), account_age_days(i64), city/gender/education/
// interest (strings).
JsonValue UsersRow(double user_id, double age, double income) {
  JsonValue row = JsonValue::Array();
  row.Append(JsonValue::Number(user_id));
  row.Append(JsonValue::Number(age));
  row.Append(JsonValue::Number(income));
  row.Append(JsonValue::Number(0.5));
  row.Append(JsonValue::Number(120));
  row.Append(JsonValue::Str("nyc"));
  row.Append(JsonValue::Str("f"));
  row.Append(JsonValue::Str("msc"));
  row.Append(JsonValue::Str("gadgets"));
  return row;
}

// UsersRow with cell `index` replaced — for type-mismatch cases (the
// JsonValue array accessor is const, so rebuild instead of patching).
JsonValue UsersRowWithCell(size_t index, JsonValue bad) {
  const JsonValue good = UsersRow(90001, 25, 1000.0);
  JsonValue row = JsonValue::Array();
  for (size_t i = 0; i < good.size(); ++i) {
    row.Append(i == index ? std::move(bad) : JsonValue(good.AsArray()[i]));
  }
  return row;
}

std::string AppendRequest(const std::string& table,
                          std::vector<JsonValue> rows) {
  JsonValue request = JsonValue::Object();
  request.Set("cmd", JsonValue::Str("APPEND"));
  request.Set("table", JsonValue::Str(table));
  JsonValue array = JsonValue::Array();
  for (auto& row : rows) array.Append(std::move(row));
  request.Set("rows", std::move(array));
  return request.Dump();
}

constexpr char kSql[] =
    "SELECT * FROM users CONSTRAINT COUNT(*) >= 200 WHERE age <= 30 AND "
    "income >= 60000";

std::string SubmitLine() {
  JsonValue request = JsonValue::Object();
  request.Set("cmd", JsonValue::Str("SUBMIT"));
  request.Set("sql", JsonValue::Str(kSql));
  request.Set("wait", JsonValue::Bool(true));
  return request.Dump();
}

TEST(ServerAppendTest, AppendsRowsAndBumpsGeneration) {
  Catalog catalog;
  MakeUsersCatalog(&catalog);
  AcqServer server(&catalog);
  auto table = catalog.GetTable("users");
  ASSERT_TRUE(table.ok());
  const size_t before = (*table)->num_rows();
  const uint64_t generation = catalog.generation();

  JsonValue reply = MustParse(server.HandleRequestLine(AppendRequest(
      "users", {UsersRow(90001, 25, 70000.0), UsersRow(90002, 61, 90000.0)})));
  ASSERT_TRUE(reply.GetBool("ok", false)) << reply.Dump();
  EXPECT_EQ(reply.GetString("table"), "users");
  EXPECT_EQ(reply.GetNumber("appended", -1.0), 2.0);
  EXPECT_EQ(reply.GetNumber("num_rows", -1.0),
            static_cast<double>(before + 2));
  EXPECT_EQ(reply.GetNumber("generation", -1.0),
            static_cast<double>(generation + 1));
  EXPECT_EQ((*table)->num_rows(), before + 2);
  EXPECT_EQ(catalog.generation(), generation + 1);

  EXPECT_EQ(StatsNumber(&server, "appends"), 1.0);
  EXPECT_EQ(StatsNumber(&server, "append_rows"), 2.0);
  EXPECT_EQ(StatsNumber(&server, "catalog_generation"),
            static_cast<double>(generation + 1));
}

TEST(ServerAppendTest, RejectsMalformedAppends) {
  Catalog catalog;
  MakeUsersCatalog(&catalog, 500);
  AcqServer server(&catalog);
  auto table = catalog.GetTable("users");
  ASSERT_TRUE(table.ok());
  const size_t before = (*table)->num_rows();

  struct Case {
    std::string line;
    const char* why;
  };
  std::vector<Case> cases;
  cases.push_back({"{\"cmd\":\"APPEND\"}", "missing table"});
  cases.push_back({"{\"cmd\":\"APPEND\",\"table\":\"users\"}", "missing rows"});
  cases.push_back({"{\"cmd\":\"APPEND\",\"table\":\"users\",\"rows\":7}",
                   "rows not an array"});
  cases.push_back(
      {AppendRequest("nope", {UsersRow(1, 25, 1000.0)}), "unknown table"});
  {
    // Wrong arity.
    JsonValue short_row = JsonValue::Array();
    short_row.Append(JsonValue::Number(1));
    cases.push_back({AppendRequest("users", {std::move(short_row)}),
                     "wrong column count"});
  }
  {
    // Fractional value into the int64 age column must not silently round.
    cases.push_back({AppendRequest("users", {UsersRow(90001, 25.5, 1000.0)}),
                     "non-integral int64"});
  }
  {
    // String into a double column (income).
    JsonValue row = UsersRowWithCell(2, JsonValue::Str("oops"));
    cases.push_back(
        {AppendRequest("users", {std::move(row)}), "string in double column"});
  }
  {
    // A bad row anywhere rejects the whole batch (all-or-nothing).
    JsonValue bad = UsersRowWithCell(1, JsonValue::Str("thirty"));
    cases.push_back(
        {AppendRequest("users", {UsersRow(90002, 30, 1000.0), std::move(bad)}),
         "bad second row"});
  }

  const uint64_t generation = catalog.generation();
  for (const Case& c : cases) {
    JsonValue reply = MustParse(server.HandleRequestLine(c.line));
    EXPECT_FALSE(reply.GetBool("ok", true)) << c.why << ": " << reply.Dump();
    EXPECT_EQ((*table)->num_rows(), before) << c.why;
    EXPECT_EQ(catalog.generation(), generation) << c.why;
  }
  EXPECT_EQ(StatsNumber(&server, "appends"), 0.0);
}

TEST(ServerAppendTest, ConstCatalogServerRefusesAppend) {
  Catalog catalog;
  MakeUsersCatalog(&catalog, 500);
  // The read-only ctor: APPEND must answer Unsupported, not crash or write.
  AcqServer server(static_cast<const Catalog*>(&catalog));
  JsonValue reply = MustParse(
      server.HandleRequestLine(AppendRequest("users", {UsersRow(1, 25, 1.0)})));
  EXPECT_FALSE(reply.GetBool("ok", true)) << reply.Dump();
  EXPECT_EQ(reply.GetString("code"), "Unsupported") << reply.Dump();
}

// The headline invalidation guarantee: a cached result must stop being
// served the moment an APPEND lands, because the answer may have changed.
TEST(ServerAppendTest, AppendInvalidatesCachedResults) {
  Catalog catalog;
  MakeUsersCatalog(&catalog);
  ServerOptions options;
  options.cache_bytes = 16ull << 20;
  AcqServer server(&catalog, options);

  JsonValue first = MustParse(server.HandleRequestLine(SubmitLine()));
  ASSERT_TRUE(first.GetBool("ok", false)) << first.Dump();
  ASSERT_EQ(first.GetString("state"), "done") << first.Dump();

  // Warm: the repeat answers from the cache.
  MustParse(server.HandleRequestLine(SubmitLine()));
  EXPECT_EQ(StatsNumber(&server, "cache_hits"), 1.0);
  const double completed_before = StatsNumber(&server, "completed");

  // Ingest a row that the constraint region could include.
  JsonValue appended = MustParse(server.HandleRequestLine(
      AppendRequest("users", {UsersRow(90001, 22, 80000.0)})));
  ASSERT_TRUE(appended.GetBool("ok", false)) << appended.Dump();

  // The same SQL now fingerprints against the new generation: no hit, a
  // fresh run, and the new reply reflects the grown table.
  JsonValue after = MustParse(server.HandleRequestLine(SubmitLine()));
  ASSERT_TRUE(after.GetBool("ok", false)) << after.Dump();
  EXPECT_EQ(StatsNumber(&server, "cache_hits"), 1.0);  // unchanged
  EXPECT_EQ(StatsNumber(&server, "completed"), completed_before + 1);

  // And the post-append task caches independently.
  MustParse(server.HandleRequestLine(SubmitLine()));
  EXPECT_EQ(StatsNumber(&server, "cache_hits"), 2.0);
}

// --- cache persistence ----------------------------------------------------

CachedResultPtr MakeEntry(size_t bytes, uint64_t generation,
                          const char* tag) {
  auto entry = std::make_shared<CachedResult>();
  JsonValue report = JsonValue::Object();
  report.Set("tag", JsonValue::Str(tag));
  report.Set("wall_ms", JsonValue::Number(12.25));
  entry->report = report.Dump();
  entry->queries_explored = 42;
  entry->cell_queries = 7;
  entry->bytes = bytes;
  entry->generation = generation;
  return entry;
}

TaskFingerprint Fp(uint64_t n) { return TaskFingerprint{n * 8, ~n}; }

std::string TempPath(const char* name) {
  return testing::TempDir() + "/" + name;
}

TEST(ResultCachePersistenceTest, RoundTripsAndDropsStaleGenerations) {
  const std::string path = TempPath("acq_cache_roundtrip.snapshot");
  std::remove(path.c_str());
  {
    ResultCache cache(1 << 20);
    cache.Insert(Fp(1), MakeEntry(400, 5, "current-a"));
    cache.Insert(Fp(2), MakeEntry(500, 5, "current-b"));
    cache.Insert(Fp(3), MakeEntry(600, 4, "stale"));
    ASSERT_TRUE(cache.SaveToFile(path).ok());
  }

  ResultCache restored(1 << 20);
  size_t loaded = 0, dropped = 0;
  ASSERT_TRUE(restored.LoadFromFile(path, 5, &loaded, &dropped).ok());
  EXPECT_EQ(loaded, 2u);
  EXPECT_EQ(dropped, 1u);

  CachedResultPtr a = restored.Lookup(Fp(1));
  ASSERT_NE(a, nullptr);
  Result<JsonValue> report = JsonValue::Parse(a->report);
  ASSERT_TRUE(report.ok()) << a->report;
  EXPECT_EQ(report->GetString("tag"), "current-a");
  EXPECT_EQ(report->GetNumber("wall_ms", -1.0), 12.25);
  EXPECT_EQ(a->queries_explored, 42u);
  EXPECT_EQ(a->cell_queries, 7u);
  EXPECT_EQ(a->bytes, 400u);
  EXPECT_EQ(a->generation, 5u);
  EXPECT_NE(restored.Lookup(Fp(2)), nullptr);
  EXPECT_EQ(restored.Lookup(Fp(3)), nullptr);  // stale: dropped on load
  std::remove(path.c_str());
}

TEST(ResultCachePersistenceTest, MissingFileIsNotFound) {
  ResultCache cache(1 << 20);
  const std::string path = TempPath("acq_cache_never_written.snapshot");
  std::remove(path.c_str());
  Status loaded = cache.LoadFromFile(path, 0);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.code(), StatusCode::kNotFound);
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(ResultCachePersistenceTest, CorruptFileIsRejectedWithoutPartialLoad) {
  const std::string path = TempPath("acq_cache_corrupt.snapshot");
  {
    std::ofstream out(path);
    out << "not-the-header\n1 2 3\n";
  }
  ResultCache cache(1 << 20);
  EXPECT_FALSE(cache.LoadFromFile(path, 0).ok());
  EXPECT_EQ(cache.stats().entries, 0u);

  // Right header, garbage entry metadata.
  {
    std::ofstream out(path);
    out << "acq-cache-v1\nnot numbers at all\n{}\n";
  }
  EXPECT_FALSE(cache.LoadFromFile(path, 0).ok());

  // A well-formed snapshot of the previous format (v2, whose metadata line
  // carried a cost field) with a valid checksum: the version alone rejects
  // it, so the server starts cold.
  {
    const std::string body = "8 1 0 42 7 400 3.5\n{\"tag\":\"v2\"}\n";
    std::ofstream out(path);
    out << "acq-cache-v2\n"
        << body
        << StringFormat("crc %08x\n", Crc32c(body.data(), body.size()));
  }
  EXPECT_FALSE(cache.LoadFromFile(path, 0).ok());
  EXPECT_EQ(cache.stats().entries, 0u);
  std::remove(path.c_str());
}

// A snapshot whose checksum holds but whose second entry does not parse is
// rejected whole: the first entry, read before the bad one, is not kept.
TEST(ResultCachePersistenceTest, BadEntryAfterGoodOnesLoadsNothing) {
  const std::string path = TempPath("acq_cache_bad_entry.snapshot");
  for (const char* second : {"16 2 0 42 7 400\n{\"tag\":\n",
                             "16 2 0 42\n{\"tag\":\"b\"}\n"}) {
    const std::string body =
        std::string("8 1 0 42 7 400\n{\"tag\":\"a\"}\n") + second;
    {
      std::ofstream out(path);
      out << "acq-cache-v3\n"
          << body
          << StringFormat("crc %08x\n", Crc32c(body.data(), body.size()));
    }
    ResultCache cache(1 << 20);
    size_t loaded = 7;
    Status status = cache.LoadFromFile(path, 0, &loaded);
    EXPECT_EQ(status.code(), StatusCode::kParseError) << second;
    EXPECT_EQ(loaded, 0u) << second;
    EXPECT_EQ(cache.stats().entries, 0u) << second;
  }
  std::remove(path.c_str());
}

TEST(ResultCachePersistenceTest, LoadRespectsByteLimit) {
  const std::string path = TempPath("acq_cache_limit.snapshot");
  std::remove(path.c_str());
  {
    ResultCache cache(1 << 20);
    for (uint64_t n = 1; n <= 8; ++n) {
      cache.Insert(Fp(n), MakeEntry(130, 1, "entry"));
    }
    ASSERT_TRUE(cache.SaveToFile(path).ok());
  }
  // The restoring cache is much smaller: Insert's normal eviction applies,
  // so the load succeeds but retains only what fits.
  ResultCache small(8 * 130);
  size_t loaded = 0, dropped = 0;
  ASSERT_TRUE(small.LoadFromFile(path, 1, &loaded, &dropped).ok());
  EXPECT_EQ(loaded, 8u);
  EXPECT_EQ(dropped, 0u);
  EXPECT_LE(small.stats().bytes, 8u * 130u);
  std::remove(path.c_str());
}

TEST(ResultCachePersistenceTest, ServerWarmStartServesFromSnapshot) {
  // End-to-end: run against a server, snapshot its cache, load it into a
  // second server over the same catalog, and the reply must be served from
  // the warmed cache byte-identically (modulo the session id).
  Catalog catalog;
  MakeUsersCatalog(&catalog);
  ServerOptions options;
  options.cache_bytes = 16ull << 20;
  const std::string path = TempPath("acq_cache_warm.snapshot");
  std::remove(path.c_str());

  std::string fresh_reply;
  {
    AcqServer server(&catalog, options);
    JsonValue fresh = MustParse(server.HandleRequestLine(SubmitLine()));
    ASSERT_TRUE(fresh.GetBool("ok", false)) << fresh.Dump();
    fresh_reply = fresh.Dump();
    ASSERT_TRUE(server.sessions().cache().SaveToFile(path).ok());
  }

  AcqServer warmed(&catalog, options);
  size_t loaded = 0, dropped = 0;
  ASSERT_TRUE(warmed.sessions()
                  .cache()
                  .LoadFromFile(path, catalog.generation(), &loaded, &dropped)
                  .ok());
  ASSERT_EQ(loaded, 1u);
  EXPECT_EQ(dropped, 0u);

  JsonValue cached = MustParse(warmed.HandleRequestLine(SubmitLine()));
  ASSERT_TRUE(cached.GetBool("ok", false)) << cached.Dump();
  EXPECT_EQ(StatsNumber(&warmed, "cache_hits"), 1.0);
  EXPECT_EQ(StatsNumber(&warmed, "completed"), 0.0);  // no run needed

  // Byte-identity of everything except the outer session id.
  JsonValue fresh = MustParse(fresh_reply);
  auto without_id = [](const JsonValue& response) {
    JsonValue out = JsonValue::Object();
    for (const auto& [key, value] : response.Members()) {
      if (key != "id") out.Set(key, JsonValue(value));
    }
    return out.Dump();
  };
  EXPECT_EQ(without_id(cached), without_id(fresh));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace acquire
