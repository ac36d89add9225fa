// Prepared-layer reuse across served runs: a SUBMIT whose layout matches the
// tenant's idle cell-sorted layer runs on it (rebound, not re-prepared; rows
// appended since its last use are folded into it by the next sync) instead of
// building a fresh one, and replays the Eq. 17 store the last run left with
// it while no APPEND intervened. Every warm reply must equal, after
// StripIdAndTiming, the report a cold ProcessAcq renders on a mirror catalog
// that received the same APPEND batches. Runs reuse does not apply to must
// bypass it, and the layout key must change exactly when the layout does.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "common/random.h"
#include "common/string_util.h"
#include "core/fingerprint.h"
#include "core/processor.h"
#include "gtest/gtest.h"
#include "server/client.h"
#include "server/result_cache.h"
#include "server/server.h"
#include "sql/binder.h"
#include "test_util.h"
#include "workload/tpch_gen.h"
#include "workload/users_gen.h"

namespace acquire {
namespace {

JsonValue MustParse(const std::string& line) {
  Result<JsonValue> parsed = JsonValue::Parse(line);
  EXPECT_TRUE(parsed.ok()) << line;
  return parsed.ok() ? *parsed : JsonValue::Null();
}

double Stat(AcqServer* server, const char* field) {
  JsonValue stats = MustParse(server->HandleRequestLine("{\"cmd\":\"STATS\"}"));
  const JsonValue* counters = stats.Get("stats");
  return counters != nullptr ? counters->GetNumber(field, -1.0) : -1.0;
}

const char* OrderName(SearchOrder order) {
  switch (order) {
    case SearchOrder::kBfs:
      return "bfs";
    case SearchOrder::kShell:
      return "shell";
    case SearchOrder::kBestFirst:
      return "best_first";
    case SearchOrder::kAuto:
      break;
  }
  return "auto";
}

// One SUBMIT and the options a cold ProcessAcq of it runs with. The norm and
// max_explored reach only runs submitted through the session manager
// (LayerReuseTest::Serve): the wire request carries neither.
struct Query {
  std::string sql;
  double gamma = 10.0;
  double delta = 0.05;
  SearchOrder order = SearchOrder::kAuto;
  Norm norm = Norm::L1();
  uint64_t max_explored = 0;  // 0: the default

  JsonValue Request() const {
    JsonValue request = JsonValue::Object();
    request.Set("cmd", JsonValue::Str("SUBMIT"));
    request.Set("sql", JsonValue::Str(sql));
    request.Set("gamma", JsonValue::Number(gamma));
    request.Set("delta", JsonValue::Number(delta));
    request.Set("order", JsonValue::Str(OrderName(order)));
    request.Set("wait", JsonValue::Bool(true));
    return request;
  }
  AcquireOptions Options() const {
    AcquireOptions options;
    options.gamma = gamma;
    options.delta = delta;
    options.order = order;
    options.norm = norm;
    if (max_explored > 0) options.max_explored = max_explored;
    return options;
  }
};

// A users row inside the generated data's range on every predicate column
// (age 18..~67, income 15000..~245000), so it never moves a column's min or
// max and therefore never changes a layout key.
std::vector<Value> InRangeUsersRow(Rng* rng, int64_t id) {
  return {Value(id),
          Value(rng->NextInt(25, 50)),
          Value(rng->NextDouble(30000.0, 150000.0)),
          Value(rng->NextDouble(5.0, 95.0)),
          Value(rng->NextInt(0, 5000)),
          Value("nyc"),
          Value("f"),
          Value("msc"),
          Value("gadgets")};
}

JsonValue ToJson(const Value& value) {
  if (value.is_int64()) {
    return JsonValue::Number(static_cast<double>(value.int64()));
  }
  if (value.is_double()) return JsonValue::Number(value.dbl());
  return JsonValue::Str(value.str());
}

// A mutable-catalog server over a users table, plus a mirror catalog that
// receives the same APPEND batches in the same order, so every served reply
// has a cold reference.
class LayerReuseTest : public ::testing::Test {
 protected:
  void SetUp() override {
    UsersOptions users;
    users.users = 2000;
    ASSERT_TRUE(GenerateUsers(users, &served_).ok());
    ASSERT_TRUE(GenerateUsers(users, &mirror_).ok());
    server_ = std::make_unique<AcqServer>(&served_);
  }

  void AppendRows(const std::vector<std::vector<Value>>& rows) {
    JsonValue request = JsonValue::Object();
    request.Set("cmd", JsonValue::Str("APPEND"));
    request.Set("table", JsonValue::Str("users"));
    JsonValue array = JsonValue::Array();
    for (const std::vector<Value>& row : rows) {
      JsonValue cells = JsonValue::Array();
      for (const Value& value : row) cells.Append(ToJson(value));
      array.Append(std::move(cells));
    }
    request.Set("rows", std::move(array));
    JsonValue reply = MustParse(server_->HandleRequestLine(request.Dump()));
    ASSERT_TRUE(reply.GetBool("ok", false)) << reply.Dump();
    ASSERT_TRUE(mirror_.AppendRows("users", rows).ok());
  }

  void AppendInRange(size_t count) {
    std::vector<std::vector<Value>> rows;
    for (size_t i = 0; i < count; ++i) {
      rows.push_back(InRangeUsersRow(&rng_, next_id_++));
    }
    AppendRows(rows);
  }

  // The report a cold run of `query` renders on the mirror, stripped.
  std::string ColdReport(const Query& query) {
    Binder binder(&mirror_);
    Result<AcqTask> task = binder.PlanSql(query.sql);
    EXPECT_TRUE(task.ok()) << task.status().ToString();
    if (!task.ok()) return "";
    Result<AcqOutcome> outcome = ProcessAcq(*task, query.Options());
    EXPECT_TRUE(outcome.ok()) << outcome.status().ToString();
    if (!outcome.ok()) return "";
    return test_util::StripIdAndTiming(BuildReportJson(*outcome, &*task, 0.0))
        .Dump();
  }

  // The stripped report of a served reply, which must have completed.
  static std::string ServedReport(const JsonValue& reply) {
    EXPECT_TRUE(reply.GetBool("ok", false)) << reply.Dump();
    EXPECT_EQ(reply.GetString("state"), "done") << reply.Dump();
    const JsonValue* report = reply.Get("report");
    EXPECT_NE(report, nullptr) << reply.Dump();
    if (report == nullptr) return "";
    EXPECT_EQ(report->GetString("termination"), "completed") << reply.Dump();
    return test_util::StripIdAndTiming(*report).Dump();
  }

  void ExpectWarmMatchesCold(const Query& query) {
    JsonValue reply =
        MustParse(server_->HandleRequestLine(query.Request().Dump()));
    EXPECT_EQ(ServedReport(reply), ColdReport(query))
        << query.sql << " order=" << OrderName(query.order);
  }

  double Stat(const char* field) { return acquire::Stat(server_.get(), field); }

  // A served run as its reply reports it. The fixture serves one run at a
  // time, so the run's store_replayed is the STATS delta around it.
  struct Served {
    JsonValue report;  // null when the run rendered none
    std::string mode;
    std::string termination;
    uint64_t queries_explored = 0;
    uint64_t cell_queries = 0;
    uint64_t store_replayed = 0;
  };

  // A served run of `query` through the tenant's session manager, which
  // takes every option of it; the wire splices the report it rendered.
  Served Serve(const Query& query, double timeout_ms = 0.0,
               SessionProgress progress = {}) {
    const double replayed_before = Stat("store_replayed");
    Result<SessionPtr> session = server_->sessions().Submit(
        query.sql, query.Options(), timeout_ms, EvalBackend::kAuto,
        std::move(progress));
    EXPECT_TRUE(session.ok()) << session.status().ToString();
    if (!session.ok()) return {};
    (*session)->WaitDone();
    Session::View view = (*session)->Snapshot();
    EXPECT_EQ(view.state, SessionState::kDone) << view.error.ToString();
    Served served;
    served.store_replayed =
        static_cast<uint64_t>(Stat("store_replayed") - replayed_before);
    if (view.reply == nullptr) return served;
    served.report = MustParse(view.reply->report);
    served.mode = served.report.GetString("mode");
    served.termination = served.report.GetString("termination");
    served.queries_explored = static_cast<uint64_t>(
        served.report.GetNumber("queries_explored", 0.0));
    served.cell_queries =
        static_cast<uint64_t>(served.report.GetNumber("cell_queries", 0.0));
    return served;
  }

  // Serves `query`, expects its report to equal the cold one, and returns
  // the served run.
  Served ExpectServedMatchesCold(const Query& query) {
    Served served = Serve(query);
    if (!served.report.is_object()) {
      ADD_FAILURE() << query.sql << ": no report";
      return served;
    }
    EXPECT_EQ(test_util::StripIdAndTiming(served.report).Dump(),
              ColdReport(query))
        << query.sql << " order=" << OrderName(query.order)
        << " norm=" << query.norm.ToString();
    return served;
  }

  Catalog served_;
  Catalog mirror_;
  std::unique_ptr<AcqServer> server_;
  Rng rng_{20261017};
  int64_t next_id_ = 900000;
};

// The battery: per aggregate, a seeded sequence of SUBMITs on one layout
// (targets, delta and search order vary; none of them is in the key)
// interleaved with APPENDs of 1 to 3500 rows, each folded into the reused
// layer by the next run's sync. Every aggregate switch changes the layout,
// so each sequence starts with one miss; everything after it is a hit.
TEST_F(LayerReuseTest, WarmRepliesMatchColdAcrossAggregatesAndOrders) {
  struct Template {
    const char* constraint;  // aggregate and operator; the target follows
    double lo;
    double hi;
  };
  const Template templates[] = {
      {"COUNT(*) >=", 300.0, 1500.0},
      {"SUM(engagement) >=", 2e4, 8e4},
      {"AVG(engagement) =", 45.0, 55.0},
      {"MIN(engagement) =", 0.01, 1.0},
      {"MAX(income) =", 82000.0, 120000.0},
  };
  const SearchOrder orders[] = {SearchOrder::kBfs, SearchOrder::kShell,
                                SearchOrder::kBestFirst};
  const size_t appends[] = {50, 3, 700, 1, 3500, 20, 64};
  size_t submits = 0;
  size_t staged = 0;
  for (const Template& t : templates) {
    for (size_t step = 0; step <= std::size(appends); ++step) {
      Query query;
      query.sql = StringFormat(
          "SELECT * FROM users CONSTRAINT %s %.3f WHERE age <= 30 AND "
          "income <= 80000",
          t.constraint, rng_.NextDouble(t.lo, t.hi));
      query.order = orders[submits % std::size(orders)];
      query.delta = submits % 2 == 0 ? 0.05 : 0.02;
      ExpectWarmMatchesCold(query);
      ++submits;
      if (step < std::size(appends)) {
        AppendInRange(appends[step]);
        staged += appends[step];  // the next run reuses the layer
      }
    }
  }
  const double layouts = static_cast<double>(std::size(templates));
  EXPECT_EQ(Stat("layer_misses"), layouts);
  EXPECT_EQ(Stat("layer_hits"), static_cast<double>(submits) - layouts);
  EXPECT_EQ(Stat("layer_bypassed"), 0.0);
  // Every layout's appends were folded in by at least one sync.
  EXPECT_GE(Stat("delta_merges"), layouts);
  // Every appended row is folded in by exactly one warm run's sync: counted
  // once, never re-counted while the layer carries it.
  EXPECT_EQ(Stat("delta_rows"), static_cast<double>(staged));
}

// The kept Eq. 17 store: the idle slot keeps the last run's store with the
// layer, and a hit over unchanged rows replays it. Per aggregate, a seeded
// sequence on one layout: rising targets extend the store and falling ones
// replay it; BFS, shell and best-first runs under L1, L2 and L-inf
// interleave, so a run in another order cuts the store back at its first
// differing layer; a max_explored stop leaves a partial last layer and a
// deadline stop an early one, each followed by a deeper run; an APPEND
// drops the store; and the index.delta_merge failpoint rebuilds the layer
// under a run.
TEST_F(LayerReuseTest, KeptStoreRepliesMatchColdAcrossOrdersAndNorms) {
  struct Template {
    const char* constraint;
    double lo;
    double hi;
  };
  // Targets past the original query's aggregate (COUNT 862, SUM 64805,
  // AVG 51.1, MIN 0.185, MAX 79992 before any APPEND), so most runs expand;
  // the MIN ones can never rise to their target and drain the whole space.
  const Template templates[] = {
      {"COUNT(*) >=", 900.0, 1800.0},
      {"SUM(engagement) >=", 6.6e4, 9.5e4},
      {"AVG(engagement) =", 54.0, 58.0},
      {"MIN(engagement) =", 0.2, 1.0},
      {"MAX(income) =", 82000.0, 120000.0},
  };
  const SearchOrder orders[] = {SearchOrder::kBfs, SearchOrder::kShell,
                                SearchOrder::kBestFirst};
  const Norm norms[] = {Norm::L1(), Norm::L2(), Norm::LInf()};
  constexpr uint64_t kPartialStop = 12;  // inside a d=2 BFS layer
  uint64_t replayed = 0;
  for (const Template& t : templates) {
    SCOPED_TRACE(t.constraint);
    auto query_at = [&](double target, SearchOrder order, const Norm& norm) {
      Query query;
      query.sql = StringFormat(
          "SELECT * FROM users CONSTRAINT %s %.3f WHERE age <= 30 AND "
          "income <= 80000",
          t.constraint, target);
      query.order = order;
      query.norm = norm;
      return query;
    };
    auto run = [&](const Query& query) {
      Served served = ExpectServedMatchesCold(query);
      EXPECT_LE(served.store_replayed, served.cell_queries);
      replayed += served.store_replayed;
      return served;
    };
    auto expanded = [](const Served& served) {
      return served.mode == AcqModeToString(AcqMode::kExpanded);
    };

    // Rising targets extend the store; falling ones then find every layer
    // they drain stored, in their own order.
    std::vector<double> targets;
    for (int i = 0; i < 4; ++i) targets.push_back(rng_.NextDouble(t.lo, t.hi));
    std::sort(targets.begin(), targets.end());
    Served deepest;
    for (double target : targets) {
      deepest = run(query_at(target, SearchOrder::kBfs, Norm::L1()));
    }
    for (int i = 0; i < 2; ++i) {
      const Served shallower = run(query_at(
          rng_.NextDouble(t.lo, targets.front()), SearchOrder::kBfs,
          Norm::L1()));
      if (expanded(shallower) && expanded(deepest) &&
          shallower.queries_explored <= deepest.queries_explored) {
        EXPECT_EQ(shallower.store_replayed, shallower.cell_queries);
      }
    }

    // Every order under every norm, then the last one again: each switch
    // truncates the store where the drains part, and the repeat replays.
    for (SearchOrder order : orders) {
      for (const Norm& norm : norms) {
        run(query_at(rng_.NextDouble(t.lo, t.hi), order, norm));
      }
    }
    const Served repeat = run(query_at(rng_.NextDouble(t.lo, t.hi),
                                       orders[2], norms[2]));
    if (expanded(repeat)) {
      EXPECT_GT(repeat.store_replayed, 0u);
    }

    // An APPEND drops the store; a max_explored stop then leaves a partial
    // last layer, whose stored prefix the deeper run after it replays
    // before it executes the rest.
    AppendInRange(20);
    Query partial = query_at(t.hi, SearchOrder::kBfs, Norm::L1());
    partial.max_explored = kPartialStop;
    const Served stopped = run(partial);
    EXPECT_EQ(stopped.store_replayed, 0u);
    const Served deeper = run(query_at(t.hi, SearchOrder::kBfs, Norm::L1()));
    if (stopped.termination ==
            RunTerminationToString(RunTermination::kTruncated) &&
        deeper.queries_explored > kPartialStop) {
      EXPECT_EQ(deeper.store_replayed, kPartialStop);
    }

    // A deadline that passes while the second layer's frame is handled:
    // the run stops at its next poll and parks the store it built, which
    // the next run replays.
    SessionProgress progress;
    progress.enabled = true;
    progress.callback = [](const Session&, const ProgressSnapshot& snap) {
      if (snap.layers_drained == 2) {
        std::this_thread::sleep_for(std::chrono::milliseconds(300));
      }
    };
    const Served cut =
        Serve(query_at(t.hi, SearchOrder::kShell, Norm::LInf()), 200.0,
              std::move(progress));
    ASSERT_TRUE(cut.report.is_object());
    if (cut.termination != RunTerminationToString(RunTermination::kCompleted)) {
      EXPECT_EQ(cut.termination,
                RunTerminationToString(RunTermination::kDeadlineExceeded));
    }
    replayed += cut.store_replayed;
    run(query_at(rng_.NextDouble(t.lo, t.hi), SearchOrder::kShell,
                 Norm::LInf()));

    // Under the failpoint the sync of these rows rebuilds the layer instead
    // of folding them in, and the store is dropped all the same.
    if (FailpointRegistry::compiled_in()) {
      AppendInRange(4200);
      FailpointRegistry& registry = FailpointRegistry::Global();
      ASSERT_TRUE(registry.Configure("index.delta_merge", "p:1").ok());
      const Served rebuilt =
          run(query_at(t.hi, SearchOrder::kBfs, Norm::L2()));
      registry.DisarmAll();
      EXPECT_EQ(rebuilt.store_replayed, 0u);
      const Served after = run(query_at(rng_.NextDouble(t.lo, t.hi),
                                        SearchOrder::kBfs, Norm::L2()));
      if (expanded(rebuilt) && expanded(after)) {
        EXPECT_GT(after.store_replayed, 0u);
      }
    }
  }
  const double layouts = static_cast<double>(std::size(templates));
  EXPECT_EQ(Stat("layer_misses"), layouts);
  EXPECT_EQ(Stat("layer_bypassed"), 0.0);
  EXPECT_GT(replayed, 0u);
  EXPECT_EQ(Stat("store_replayed"), static_cast<double>(replayed));
  EXPECT_GT(Stat("store_entries"), 0.0);
  EXPECT_GT(Stat("store_bytes"), 0.0);
}

// Equality targets on a coarse grid overshoot inside a cell, so the search
// repartitions it with off-grid probes; an off-grid probe scans the
// relation-order matrix, so the layer first syncs the rows appended since
// its last use.
TEST_F(LayerReuseTest, RepartitionProbeAbsorbsStagedRows) {
  for (int i = 0; i < 8; ++i) {
    Query query;
    query.sql = StringFormat(
        "SELECT * FROM users CONSTRAINT COUNT(*) = %d WHERE age <= 30 AND "
        "income <= 80000",
        static_cast<int>(rng_.NextInt(1000, 1400)));
    query.gamma = 40.0;
    query.delta = 0.01;
    ExpectWarmMatchesCold(query);
    AppendInRange(40);
  }
  EXPECT_EQ(Stat("layer_hits"), 7.0);
  // The warm runs synced the appended rows in before answering, off-grid
  // probes included.
  EXPECT_GE(Stat("delta_merges"), 1.0);
}

// An APPEND that moves a predicate column's max moves that dimension's
// domain, and with it its refinement cap, so the key changes: the next run
// must miss, drop the idle layer and build a new one, and still match the
// cold run exactly.
TEST_F(LayerReuseTest, AppendExtendingAPredicateDomainMisses) {
  Query query;
  query.sql =
      "SELECT * FROM users CONSTRAINT COUNT(*) >= 900 WHERE age <= 30 AND "
      "income <= 80000";
  ExpectWarmMatchesCold(query);
  AppendInRange(30);
  ExpectWarmMatchesCold(query);
  EXPECT_EQ(Stat("layer_hits"), 1.0);
  EXPECT_EQ(Stat("layer_misses"), 1.0);

  std::vector<Value> older = InRangeUsersRow(&rng_, next_id_++);
  older[1] = Value(int64_t{95});  // beyond every generated age
  AppendRows({older});
  ExpectWarmMatchesCold(query);
  EXPECT_EQ(Stat("layer_misses"), 2.0);
  EXPECT_EQ(Stat("layer_hits"), 1.0);

  AppendInRange(30);
  ExpectWarmMatchesCold(query);
  EXPECT_EQ(Stat("layer_hits"), 2.0);
}

// Under the index.delta_merge failpoint a sync degrades to a full rebuild of
// the reused layer, which must be just as exact.
TEST_F(LayerReuseTest, DeltaMergeFailpointKeepsWarmRepliesExact) {
  if (!FailpointRegistry::compiled_in()) {
    GTEST_SKIP() << "failpoints compiled out";
  }
  Query query;
  query.sql =
      "SELECT * FROM users CONSTRAINT SUM(income) >= 100000000 WHERE age "
      "<= 30 AND income <= 80000";
  ExpectWarmMatchesCold(query);
  AppendInRange(4200);  // the next sync folds these in, or rebuilds
  FailpointRegistry& registry = FailpointRegistry::Global();
  ASSERT_TRUE(registry.Configure("index.delta_merge", "p:1").ok());
  const uint64_t hits_before = registry.TotalHits();
  JsonValue reply =
      MustParse(server_->HandleRequestLine(query.Request().Dump()));
  const uint64_t injected = registry.TotalHits() - hits_before;
  registry.DisarmAll();
  EXPECT_EQ(ServedReport(reply), ColdReport(query));
  EXPECT_GE(injected, 1u);
  EXPECT_EQ(Stat("layer_hits"), 1.0);

  AppendInRange(25);
  ExpectWarmMatchesCold(query);
  EXPECT_EQ(Stat("layer_hits"), 2.0);
}

// Two clients on one layout: exclusive checkout means at most one run holds
// the idle layer, the other builds its own, and both reply exactly.
TEST_F(LayerReuseTest, ConcurrentClientsOnOneLayout) {
  ASSERT_TRUE(server_->Start().ok());
  constexpr int kClients = 2;
  constexpr int kRounds = 4;
  constexpr int kPerRound = 3;
  int submitted = 0;
  for (int round = 0; round < kRounds; ++round) {
    std::vector<std::vector<Query>> queries(kClients);
    for (int c = 0; c < kClients; ++c) {
      for (int i = 0; i < kPerRound; ++i) {
        Query query;
        query.sql = StringFormat(
            "SELECT * FROM users CONSTRAINT COUNT(*) >= %d WHERE age <= 30 "
            "AND income <= 80000",
            static_cast<int>(rng_.NextInt(400, 1600)));
        query.order = i % 2 == 0 ? SearchOrder::kBfs : SearchOrder::kShell;
        queries[c].push_back(query);
      }
    }
    std::vector<std::vector<JsonValue>> replies(kClients);
    std::vector<Status> failures(kClients);
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        LineClient client;
        failures[c] = client.Connect("127.0.0.1", server_->port());
        for (const Query& query : queries[c]) {
          if (!failures[c].ok()) return;
          Result<JsonValue> reply = client.Call(query.Request());
          if (!reply.ok()) {
            failures[c] = reply.status();
            return;
          }
          replies[c].push_back(std::move(*reply));
        }
      });
    }
    for (std::thread& t : clients) t.join();
    for (int c = 0; c < kClients; ++c) {
      ASSERT_TRUE(failures[c].ok()) << failures[c].ToString();
      ASSERT_EQ(replies[c].size(), queries[c].size());
      for (size_t i = 0; i < replies[c].size(); ++i) {
        EXPECT_EQ(ServedReport(replies[c][i]), ColdReport(queries[c][i]))
            << queries[c][i].sql;
      }
      submitted += kPerRound;
    }
    AppendInRange(100);
  }
  EXPECT_EQ(Stat("layer_hits") + Stat("layer_misses"),
            static_cast<double>(submitted));
  EXPECT_GE(Stat("layer_hits"), 1.0);
  EXPECT_EQ(Stat("layer_bypassed"), 0.0);
  server_->Stop();
}

// Runs whose layer reuse cannot keep exact stay on their own per-run build:
// a NOREFINE filter and a join (relations materialized per plan), the
// direct backend (it never syncs appended rows) and a memory limit (a warm
// run would charge no prepare), which a server with a global memory budget
// sets on every run. Two of each must leave layer_hits at 0; the plain
// control on the same table shows reuse was available.
TEST(LayerReuseBypassTest, BypassCasesNeverHit) {
  Catalog catalog;
  TpchOptions tpch;
  tpch.suppliers = 200;
  tpch.parts = 400;
  tpch.lineitems = 4000;
  ASSERT_TRUE(GenerateTpch(tpch, &catalog).ok());
  AcqServer server(&catalog);

  auto submit = [&](const std::string& sql, const char* field,
                    JsonValue value) {
    JsonValue request = JsonValue::Object();
    request.Set("cmd", JsonValue::Str("SUBMIT"));
    request.Set("sql", JsonValue::Str(sql));
    if (field != nullptr) request.Set(field, std::move(value));
    request.Set("wait", JsonValue::Bool(true));
    JsonValue reply = MustParse(server.HandleRequestLine(request.Dump()));
    EXPECT_TRUE(reply.GetBool("ok", false)) << reply.Dump();
    EXPECT_EQ(reply.GetString("state"), "done") << reply.Dump();
  };
  const std::string lineitem =
      "SELECT * FROM lineitem CONSTRAINT COUNT(*) >= 400 WHERE l_quantity < "
      "10 AND l_discount < 0.03";
  for (int repeat = 0; repeat < 2; ++repeat) {
    submit(
        "SELECT * FROM lineitem CONSTRAINT COUNT(*) >= 400 WHERE l_quantity "
        "< 10 AND l_discount <= 0.05 NOREFINE",
        nullptr, JsonValue::Null());
    submit(
        "SELECT * FROM supplier, partsupp CONSTRAINT COUNT(*) >= 100 WHERE "
        "s_suppkey = ps_suppkey NOREFINE AND s_acctbal < 2000",
        nullptr, JsonValue::Null());
    submit(lineitem, "backend", JsonValue::Str("direct"));
    submit(lineitem, "memory_budget_bytes", JsonValue::Number(1 << 30));
  }
  EXPECT_EQ(Stat(&server, "layer_hits"), 0.0);
  EXPECT_EQ(Stat(&server, "layer_misses"), 0.0);
  EXPECT_EQ(Stat(&server, "layer_bypassed"), 8.0);

  submit(lineitem, nullptr, JsonValue::Null());
  submit(lineitem, nullptr, JsonValue::Null());
  EXPECT_EQ(Stat(&server, "layer_misses"), 1.0);
  EXPECT_EQ(Stat(&server, "layer_hits"), 1.0);

  JsonValue tenants =
      MustParse(server.HandleRequestLine("{\"cmd\":\"TENANTS\"}"));
  const JsonValue* list = tenants.Get("tenants");
  ASSERT_NE(list, nullptr) << tenants.Dump();
  ASSERT_EQ(list->size(), 1u) << tenants.Dump();
  const JsonValue& entry = list->AsArray()[0];
  EXPECT_EQ(entry.GetNumber("layer_hits", -1.0), 1.0);
  EXPECT_EQ(entry.GetNumber("layer_misses", -1.0), 1.0);
  EXPECT_EQ(entry.GetNumber("layer_bypassed", -1.0), 8.0);
  // The control's second run replayed the store its first one parked.
  EXPECT_GT(entry.GetNumber("store_replayed", -1.0), 0.0);
  EXPECT_GT(entry.GetNumber("store_entries", -1.0), 0.0);
  EXPECT_GT(entry.GetNumber("store_bytes", -1.0), 0.0);

  // A governed server gives every run a nonzero share of its global memory
  // budget, so it never keeps an idle layer, nor a store with it.
  ServerOptions governed;
  governed.global_memory_budget_bytes = uint64_t{1} << 30;
  AcqServer governed_server(&catalog, governed);
  for (int repeat = 0; repeat < 2; ++repeat) {
    JsonValue request = JsonValue::Object();
    request.Set("cmd", JsonValue::Str("SUBMIT"));
    request.Set("sql", JsonValue::Str(lineitem));
    request.Set("wait", JsonValue::Bool(true));
    JsonValue reply =
        MustParse(governed_server.HandleRequestLine(request.Dump()));
    EXPECT_EQ(reply.GetString("state"), "done") << reply.Dump();
  }
  EXPECT_EQ(Stat(&governed_server, "layer_hits"), 0.0);
  EXPECT_EQ(Stat(&governed_server, "layer_misses"), 0.0);
  EXPECT_EQ(Stat(&governed_server, "layer_bypassed"), 2.0);
  EXPECT_EQ(Stat(&governed_server, "store_entries"), 0.0);
}

// --- LayoutKey -----------------------------------------------------------

class LayoutKeyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    UsersOptions users;
    users.users = 500;
    ASSERT_TRUE(GenerateUsers(users, &catalog_).ok());
  }

  // SUM(engagement) under age <= 30 AND income >= 60000.
  static QuerySpec BaseSpec() {
    QuerySpec spec;
    spec.tables = {"users"};
    spec.predicates.push_back(
        SelectPredicateSpec{"age", CompareOp::kLe, 30.0, true, 1.0, {}});
    spec.predicates.push_back(
        SelectPredicateSpec{"income", CompareOp::kGe, 60000.0, true, 1.0, {}});
    spec.agg_kind = AggregateKind::kSum;
    spec.agg_column = "engagement";
    spec.constraint_op = ConstraintOp::kGe;
    spec.target = 5000.0;
    return spec;
  }

  Result<LayoutKey> Key(const QuerySpec& spec,
                        const AcquireOptions& options = {}) {
    ACQ_ASSIGN_OR_RETURN(AcqTask task, PlanAcqTask(catalog_, spec));
    return ComputeLayoutKey(task, options);
  }

  Catalog catalog_;
};

TEST_F(LayoutKeyTest, ChangesWhenTheLayoutDoes) {
  Result<LayoutKey> base = Key(BaseSpec());
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  EXPECT_EQ(base->step, 10.0 / 2);

  std::vector<std::pair<const char*, QuerySpec>> variants;
  QuerySpec ulp = BaseSpec();
  ulp.predicates[0].bound =
      std::nextafter(30.0, std::numeric_limits<double>::infinity());
  variants.emplace_back("bound + 1 ulp", ulp);
  QuerySpec strict = BaseSpec();
  strict.predicates[0].op = CompareOp::kLt;
  variants.emplace_back("strictness", strict);
  QuerySpec capped = BaseSpec();
  capped.predicates[1].max_refinement = 50.0;
  variants.emplace_back("max-refinement cap", capped);
  QuerySpec column = BaseSpec();
  column.agg_column = "income";
  variants.emplace_back("aggregate column", column);
  QuerySpec kind = BaseSpec();
  kind.agg_kind = AggregateKind::kAvg;
  variants.emplace_back("aggregate kind", kind);
  for (const auto& [why, spec] : variants) {
    Result<LayoutKey> key = Key(spec);
    ASSERT_TRUE(key.ok()) << why << ": " << key.status().ToString();
    EXPECT_NE(*key, *base) << why;
  }

  AcquireOptions gamma;
  gamma.gamma = 12.0;
  Result<LayoutKey> regridded = Key(BaseSpec(), gamma);
  ASSERT_TRUE(regridded.ok());
  EXPECT_NE(*regridded, *base) << "gamma";

  // Same SQL over another (identical) catalog: a different relation object.
  Catalog other;
  UsersOptions users;
  users.users = 500;
  ASSERT_TRUE(GenerateUsers(users, &other).ok());
  Result<AcqTask> elsewhere = PlanAcqTask(other, BaseSpec());
  ASSERT_TRUE(elsewhere.ok());
  Result<LayoutKey> relation = ComputeLayoutKey(*elsewhere, {});
  ASSERT_TRUE(relation.ok());
  EXPECT_EQ(relation->form, base->form);
  EXPECT_NE(*relation, *base) << "relation";
}

TEST_F(LayoutKeyTest, IgnoresWhatOnlySteersTheSearch) {
  Result<LayoutKey> base = Key(BaseSpec());
  ASSERT_TRUE(base.ok()) << base.status().ToString();

  QuerySpec target = BaseSpec();
  target.target = 7777.0;
  target.constraint_op = ConstraintOp::kEq;
  QuerySpec weights = BaseSpec();
  weights.predicates[0].weight = 3.0;
  for (const QuerySpec& spec : {target, weights}) {
    Result<LayoutKey> key = Key(spec);
    ASSERT_TRUE(key.ok());
    EXPECT_EQ(*key, *base);
  }

  AcquireOptions delta;
  delta.delta = 0.2;
  AcquireOptions norm;
  norm.norm = Norm::L2();
  AcquireOptions order;
  order.order = SearchOrder::kBestFirst;
  for (const AcquireOptions& options : {delta, norm, order}) {
    Result<LayoutKey> key = Key(BaseSpec(), options);
    ASSERT_TRUE(key.ok());
    EXPECT_EQ(*key, *base);
  }
}

TEST_F(LayoutKeyTest, NoCanonicalFormMeansNoKey) {
  // A predicate-function dimension keeps the default: no canonical form.
  Binder binder(&catalog_);
  Result<AcqTask> expr = binder.PlanSql(
      "SELECT * FROM users CONSTRAINT COUNT(*) >= 100 WHERE age * 2 <= 60");
  ASSERT_TRUE(expr.ok()) << expr.status().ToString();
  EXPECT_FALSE(ComputeLayoutKey(*expr, {}).ok());

  Result<AcqTask> plain = binder.PlanSql(
      "SELECT * FROM users CONSTRAINT COUNT(*) >= 100 WHERE age <= 30");
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  EXPECT_TRUE(ComputeLayoutKey(*plain, {}).ok());
}

}  // namespace
}  // namespace acquire
