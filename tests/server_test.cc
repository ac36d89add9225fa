// The ACQ service layer end to end: protocol grammar, session lifecycle,
// admission control, deadlines/cancellation, and — the core guarantee —
// that answers served over the wire are bit-identical to direct ProcessAcq
// runs against the same catalog, including under concurrent clients.

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/failpoint.h"
#include "common/string_util.h"
#include "core/processor.h"
#include "gtest/gtest.h"
#include "server/client.h"
#include "server/server.h"
#include "sql/binder.h"
#include "sql/printer.h"
#include "test_util.h"
#include "workload/users_gen.h"

namespace acquire {
namespace {

// One catalog for the whole suite: the server treats it as read-only, so
// sharing it across tests mirrors production use.
Catalog* SharedCatalog() {
  static Catalog* catalog = [] {
    auto* c = new Catalog();
    UsersOptions options;
    options.users = 3000;
    EXPECT_TRUE(GenerateUsers(options, c).ok());
    return c;
  }();
  return catalog;
}

// A query whose expansion can never satisfy its constraint; with the stall
// guard effectively disabled it keeps exploring until interrupted. The
// 30s deadline is a backstop so a broken cancel fails the test instead of
// hanging it.
JsonValue SlowSubmit() {
  JsonValue request = JsonValue::Object();
  request.Set("cmd", JsonValue::Str("SUBMIT"));
  request.Set("sql", JsonValue::Str(
                         "SELECT * FROM users CONSTRAINT COUNT(*) >= "
                         "1000000000 WHERE age <= 20 AND income <= 30000 "
                         "AND engagement <= 1.0 AND "
                         "account_age_days <= 100"));
  request.Set("stall_limit", JsonValue::Number(1e15));
  request.Set("divergence_patience", JsonValue::Number(1000000));
  request.Set("max_explored", JsonValue::Number(4e9));
  request.Set("timeout_ms", JsonValue::Number(30000.0));
  return request;
}

JsonValue MustParse(const std::string& line) {
  Result<JsonValue> parsed = JsonValue::Parse(line);
  EXPECT_TRUE(parsed.ok()) << line;
  return parsed.ok() ? *parsed : JsonValue::Null();
}

// Runs the same SQL directly (no server) with default options.
Result<AcqOutcome> DirectRun(const std::string& sql,
                             std::shared_ptr<AcqTask>* task_out) {
  Binder binder(SharedCatalog());
  ACQ_ASSIGN_OR_RETURN(AcqTask task, binder.PlanSql(sql));
  auto task_ptr = std::make_shared<AcqTask>(std::move(task));
  ACQ_ASSIGN_OR_RETURN(AcqOutcome outcome,
                       ProcessAcq(*task_ptr, AcquireOptions{}));
  *task_out = task_ptr;
  return outcome;
}

// Asserts the server's report is bit-identical to the direct outcome:
// same mode/termination/satisfied, exactly equal doubles, and the same
// rendered SQL for every answer.
void ExpectReportMatchesDirect(const JsonValue& response,
                               const AcqOutcome& direct,
                               const AcqTask& direct_task) {
  ASSERT_TRUE(response.GetBool("ok", false)) << response.Dump();
  const JsonValue* report = response.Get("report");
  ASSERT_NE(report, nullptr) << response.Dump();
  EXPECT_EQ(report->GetString("mode"), AcqModeToString(direct.mode));
  EXPECT_EQ(report->GetString("termination"),
            RunTerminationToString(direct.result.termination));
  EXPECT_EQ(report->GetBool("satisfied", !direct.result.satisfied),
            direct.result.satisfied);
  EXPECT_EQ(report->GetNumber("original_aggregate", -1.0),
            direct.original_aggregate);
  EXPECT_EQ(report->GetNumber("queries_explored", -1.0),
            static_cast<double>(direct.result.queries_explored));
  EXPECT_EQ(report->GetNumber("cell_queries", -1.0),
            static_cast<double>(direct.result.cell_queries));
  const AcqTask& display_task = direct.mode == AcqMode::kContracted
                                    ? *direct.contraction_task
                                    : direct_task;
  const JsonValue* answers = report->Get("answers");
  ASSERT_NE(answers, nullptr);
  ASSERT_TRUE(answers->is_array());
  ASSERT_EQ(answers->size(), direct.result.queries.size());
  for (size_t i = 0; i < direct.result.queries.size(); ++i) {
    const RefinedQuery& expected = direct.result.queries[i];
    const JsonValue& got = answers->AsArray()[i];
    EXPECT_EQ(got.GetString("sql"),
              RenderRefinedSql(display_task, expected));
    EXPECT_EQ(got.GetString("predicates"), expected.description);
    EXPECT_EQ(got.GetNumber("aggregate", -1.0), expected.aggregate);
    EXPECT_EQ(got.GetNumber("qscore", -1.0), expected.qscore);
    EXPECT_EQ(got.GetNumber("error", -1.0), expected.error);
  }
  const JsonValue* best = report->Get("best");
  ASSERT_NE(best, nullptr);
  EXPECT_EQ(best->GetNumber("aggregate", -1.0), direct.result.best.aggregate);
  EXPECT_EQ(best->GetNumber("qscore", -1.0), direct.result.best.qscore);
}

TEST(ServerProtocolTest, RejectsMalformedRequests) {
  AcqServer server(SharedCatalog());
  struct Case {
    const char* line;
    const char* code;
  } cases[] = {
      {"this is not json", "ParseError"},
      {"[1,2,3]", "InvalidArgument"},
      {"{\"cmd\":\"NOPE\"}", "InvalidArgument"},
      {"{\"cmd\":\"SUBMIT\"}", "InvalidArgument"},
      {"{\"cmd\":\"SUBMIT\",\"sql\":42}", "InvalidArgument"},
      {"{\"cmd\":\"SUBMIT\",\"sql\":\"SELECT * FROM users CONSTRAINT "
       "COUNT(*) >= 1 WHERE age <= 30\",\"gamma\":-1}",
       "InvalidArgument"},
      // 1e999 parses to +inf.
      {"{\"cmd\":\"SUBMIT\",\"sql\":\"SELECT * FROM users CONSTRAINT "
       "COUNT(*) >= 1 WHERE age <= 30\",\"gamma\":1e999}",
       "InvalidArgument"},
      {"{\"cmd\":\"SUBMIT\",\"sql\":\"SELECT * FROM users CONSTRAINT "
       "COUNT(*) >= 1 WHERE age <= 30\",\"delta\":1e999}",
       "InvalidArgument"},
      {"{\"cmd\":\"SUBMIT\",\"sql\":\"SELECT * FROM users CONSTRAINT "
       "COUNT(*) >= 1 WHERE age <= 30\",\"timeout_ms\":1e999}",
       "InvalidArgument"},
      {"{\"cmd\":\"SUBMIT\",\"sql\":\"x\",\"order\":\"sideways\"}",
       "InvalidArgument"},
      {"{\"cmd\":\"SUBMIT\",\"sql\":\"x\",\"backend\":\"abacus\"}",
       "InvalidArgument"},
      {"{\"cmd\":\"STATUS\",\"id\":\"s-999\"}", "NotFound"},
      {"{\"cmd\":\"CANCEL\",\"id\":\"nope\"}", "NotFound"},
      // Count fields: integral, non-negative, within the target type.
      {"{\"cmd\":\"SUBMIT\",\"sql\":\"x\",\"max_explored\":-1}",
       "InvalidArgument"},
      {"{\"cmd\":\"SUBMIT\",\"sql\":\"x\",\"stall_limit\":1e300}",
       "InvalidArgument"},
      {"{\"cmd\":\"SUBMIT\",\"sql\":\"x\",\"repartition_iters\":2.5}",
       "InvalidArgument"},
      {"{\"cmd\":\"SUBMIT\",\"sql\":\"x\",\"divergence_patience\":1e12}",
       "InvalidArgument"},
      {"{\"cmd\":\"SUBMIT\",\"sql\":\"x\",\"memory_budget_bytes\":\"lots\"}",
       "InvalidArgument"},
      {"{\"cmd\":\"ATTACH\",\"tenant\":\"t-bad\",\"gen\":\"users\","
       "\"rows\":100,\"max_queued\":1e300}",
       "InvalidArgument"},
      {"{\"cmd\":\"ATTACH\",\"tenant\":\"t-bad\",\"gen\":\"users\","
       "\"rows\":100.5}",
       "InvalidArgument"},
  };
  for (const Case& c : cases) {
    JsonValue response = MustParse(server.HandleRequestLine(c.line));
    EXPECT_FALSE(response.GetBool("ok", true)) << c.line;
    EXPECT_EQ(response.GetString("code"), c.code) << c.line;
    EXPECT_FALSE(response.GetString("error").empty()) << c.line;
  }
}

TEST(ServerProtocolTest, PlanningErrorFailsSession) {
  AcqServer server(SharedCatalog());
  JsonValue request = JsonValue::Object();
  request.Set("cmd", JsonValue::Str("SUBMIT"));
  request.Set("sql", JsonValue::Str("SELECT * FROM missing_table "
                                    "CONSTRAINT COUNT(*) >= 1 "
                                    "WHERE x <= 1"));
  request.Set("wait", JsonValue::Bool(true));
  JsonValue response = MustParse(server.HandleRequestLine(request.Dump()));
  EXPECT_TRUE(response.GetBool("ok", false));
  EXPECT_EQ(response.GetString("state"), "failed");
  EXPECT_FALSE(response.GetString("error").empty());
}

// One SUBMIT fits 20,000 nested parentheses in about 40 KB, far under the
// line limit. The parser's depth bound fails the run with a ParseError
// instead of recursing once per parenthesis, so the server keeps serving.
TEST(ServerTest, DeeplyNestedSqlFailsTheRunAndServerKeepsServing) {
  AcqServer server(SharedCatalog());
  JsonValue request = JsonValue::Object();
  request.Set("cmd", JsonValue::Str("SUBMIT"));
  request.Set("sql", JsonValue::Str(
                         "SELECT * FROM users CONSTRAINT COUNT(*) >= 2000 "
                         "WHERE age <= " + std::string(20000, '(') + "30" +
                         std::string(20000, ')')));
  request.Set("wait", JsonValue::Bool(true));
  JsonValue response = MustParse(server.HandleRequestLine(request.Dump()));
  EXPECT_EQ(response.GetString("state"), "failed") << response.Dump();
  EXPECT_EQ(response.GetString("code"), "ParseError") << response.Dump();
  JsonValue stats = MustParse(server.HandleRequestLine("{\"cmd\":\"STATS\"}"));
  EXPECT_TRUE(stats.GetBool("ok", false)) << stats.Dump();
}

TEST(ServerTest, SubmitWaitMatchesDirectRun) {
  // Learn the original aggregate cheaply, then target 20% above it so the
  // run actually expands.
  std::shared_ptr<AcqTask> probe_task;
  auto probe = DirectRun(
      "SELECT * FROM users CONSTRAINT COUNT(*) >= 1 "
      "WHERE age <= 30 AND income >= 60000",
      &probe_task);
  ASSERT_TRUE(probe.ok()) << probe.status().ToString();
  const int target =
      static_cast<int>(probe->original_aggregate * 1.2) + 1;
  const std::string sql = StringFormat(
      "SELECT * FROM users CONSTRAINT COUNT(*) >= %d "
      "WHERE age <= 30 AND income >= 60000",
      target);
  std::shared_ptr<AcqTask> task;
  auto direct = DirectRun(sql, &task);
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();

  AcqServer server(SharedCatalog());
  JsonValue request = JsonValue::Object();
  request.Set("cmd", JsonValue::Str("SUBMIT"));
  request.Set("sql", JsonValue::Str(sql));
  request.Set("wait", JsonValue::Bool(true));
  JsonValue response = MustParse(server.HandleRequestLine(request.Dump()));
  EXPECT_EQ(response.GetString("state"), "done");
  ExpectReportMatchesDirect(response, *direct, *task);
}

// SUBMIT accepts any positive gamma, and one small enough puts a reachable
// row's grid level past the int32 key range. The layout build refuses it, so
// the run fails like any failed session instead of filing the row under a
// wrapped key and answering from the wrong cell.
TEST(ServerTest, GammaPastTheKeyRangeFailsTheRun) {
  AcqServer server(SharedCatalog());
  JsonValue request = JsonValue::Object();
  request.Set("cmd", JsonValue::Str("SUBMIT"));
  request.Set("sql", JsonValue::Str(
                         "SELECT * FROM users CONSTRAINT COUNT(*) >= 2000 "
                         "WHERE age <= 30 AND income <= 40000"));
  request.Set("gamma", JsonValue::Number(1e-8));
  request.Set("wait", JsonValue::Bool(true));
  JsonValue response = MustParse(server.HandleRequestLine(request.Dump()));
  EXPECT_EQ(response.GetString("state"), "failed") << response.Dump();
  EXPECT_EQ(response.GetString("code"), "InvalidArgument");
  EXPECT_NE(response.GetString("error").find("int32 key range"),
            std::string::npos)
      << response.Dump();
  EXPECT_EQ(response.Get("report"), nullptr);
}

TEST(ServerTest, EightConcurrentClientsBitIdenticalOverTcp) {
  constexpr int kClients = 8;
  // Distinct queries per client, solved directly first (serially).
  std::vector<std::string> sqls;
  std::vector<AcqOutcome> direct(kClients);
  std::vector<std::shared_ptr<AcqTask>> tasks(kClients);
  for (int i = 0; i < kClients; ++i) {
    sqls.push_back(StringFormat(
        "SELECT * FROM users CONSTRAINT COUNT(*) >= %d "
        "WHERE age <= %d AND income >= %d",
        200 + 25 * i, 24 + i, 55000 + 1000 * i));
    auto outcome = DirectRun(sqls.back(), &tasks[i]);
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    direct[i] = std::move(*outcome);
  }

  AcqServer server(SharedCatalog());
  ASSERT_TRUE(server.Start().ok());
  std::vector<JsonValue> responses(kClients);
  std::vector<Status> failures(kClients);
  std::vector<std::thread> clients;
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] {
      LineClient client;
      Status connected = client.Connect("127.0.0.1", server.port());
      if (!connected.ok()) {
        failures[i] = connected;
        return;
      }
      JsonValue request = JsonValue::Object();
      request.Set("cmd", JsonValue::Str("SUBMIT"));
      request.Set("sql", JsonValue::Str(sqls[i]));
      request.Set("wait", JsonValue::Bool(true));
      Result<JsonValue> response = client.Call(request);
      if (!response.ok()) {
        failures[i] = response.status();
        return;
      }
      responses[i] = std::move(*response);
    });
  }
  for (std::thread& t : clients) t.join();
  server.Stop();
  for (int i = 0; i < kClients; ++i) {
    ASSERT_TRUE(failures[i].ok()) << failures[i].ToString();
    EXPECT_EQ(responses[i].GetString("state"), "done") << sqls[i];
    ExpectReportMatchesDirect(responses[i], direct[i], *tasks[i]);
  }
}

TEST(ServerTest, CancelMidExploreReturnsPartialReport) {
  AcqServer server(SharedCatalog());
  JsonValue submitted =
      MustParse(server.HandleRequestLine(SlowSubmit().Dump()));
  ASSERT_TRUE(submitted.GetBool("ok", false)) << submitted.Dump();
  const std::string id = submitted.GetString("id");
  ASSERT_FALSE(id.empty());

  // Wait until the run is demonstrably mid-Explore.
  JsonValue status;
  for (int i = 0; i < 2000; ++i) {
    status = MustParse(server.HandleRequestLine(
        StringFormat("{\"cmd\":\"STATUS\",\"id\":\"%s\"}", id.c_str())));
    if (status.GetString("state") == "running" &&
        status.GetNumber("queries_explored", 0.0) > 0.0) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(status.GetString("state"), "running") << status.Dump();

  JsonValue cancelled = MustParse(server.HandleRequestLine(StringFormat(
      "{\"cmd\":\"CANCEL\",\"id\":\"%s\",\"wait\":true}", id.c_str())));
  ASSERT_TRUE(cancelled.GetBool("ok", false)) << cancelled.Dump();
  EXPECT_EQ(cancelled.GetString("state"), "cancelled");
  const JsonValue* report = cancelled.Get("report");
  ASSERT_NE(report, nullptr) << cancelled.Dump();
  EXPECT_EQ(report->GetString("termination"), "cancelled");
  EXPECT_FALSE(report->GetBool("satisfied", true));
  EXPECT_GT(report->GetNumber("queries_explored", 0.0), 0.0);

  // The run released its admission slot and pool task.
  for (int i = 0; i < 2000 && server.sessions().num_running() != 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(server.sessions().num_running(), 0u);
}

TEST(ServerTest, AdmissionRejectsWhenSaturated) {
  ServerOptions options;
  options.max_running = 1;
  options.max_queued = 1;
  AcqServer server(SharedCatalog(), options);
  JsonValue first = MustParse(server.HandleRequestLine(SlowSubmit().Dump()));
  JsonValue second = MustParse(server.HandleRequestLine(SlowSubmit().Dump()));
  JsonValue third = MustParse(server.HandleRequestLine(SlowSubmit().Dump()));
  ASSERT_TRUE(first.GetBool("ok", false));
  ASSERT_TRUE(second.GetBool("ok", false));
  EXPECT_FALSE(third.GetBool("ok", true));
  EXPECT_EQ(third.GetString("code"), "Unavailable");

  for (const JsonValue* response : {&first, &second}) {
    const std::string id = response->GetString("id");
    JsonValue cancelled = MustParse(server.HandleRequestLine(StringFormat(
        "{\"cmd\":\"CANCEL\",\"id\":\"%s\",\"wait\":true}", id.c_str())));
    EXPECT_EQ(cancelled.GetString("state"), "cancelled") << cancelled.Dump();
  }

  JsonValue stats = MustParse(server.HandleRequestLine("{\"cmd\":\"STATS\"}"));
  const JsonValue* counters = stats.Get("stats");
  ASSERT_NE(counters, nullptr);
  EXPECT_EQ(counters->GetNumber("submitted", -1.0), 2.0);
  EXPECT_EQ(counters->GetNumber("rejected", -1.0), 1.0);
  EXPECT_EQ(counters->GetNumber("cancelled", -1.0), 2.0);
}

TEST(ServerTest, DeadlineOverServerReturnsPartialDone) {
  AcqServer server(SharedCatalog());
  JsonValue request = SlowSubmit();
  request.Set("timeout_ms", JsonValue::Number(1.0));
  request.Set("wait", JsonValue::Bool(true));
  JsonValue response = MustParse(server.HandleRequestLine(request.Dump()));
  ASSERT_TRUE(response.GetBool("ok", false)) << response.Dump();
  EXPECT_EQ(response.GetString("state"), "done");
  const JsonValue* report = response.Get("report");
  ASSERT_NE(report, nullptr);
  EXPECT_EQ(report->GetString("termination"), "deadline_exceeded");
  EXPECT_FALSE(report->GetBool("satisfied", true));
}

// A finite timeout past the steady clock's range arms a deadline that
// never comes: the run completes instead of stopping at its first poll.
TEST(ServerTest, HugeTimeoutNeverExpires) {
  AcqServer server(SharedCatalog());
  JsonValue request = JsonValue::Object();
  request.Set("cmd", JsonValue::Str("SUBMIT"));
  request.Set("sql", JsonValue::Str(
                         "SELECT * FROM users CONSTRAINT COUNT(*) >= 1500 "
                         "WHERE age <= 30 AND income <= 40000"));
  request.Set("timeout_ms", JsonValue::Number(1e300));
  request.Set("wait", JsonValue::Bool(true));
  JsonValue response = MustParse(server.HandleRequestLine(request.Dump()));
  ASSERT_TRUE(response.GetBool("ok", false)) << response.Dump();
  EXPECT_EQ(response.GetString("state"), "done");
  const JsonValue* report = response.Get("report");
  ASSERT_NE(report, nullptr) << response.Dump();
  EXPECT_EQ(report->GetString("termination"), "completed");
  EXPECT_GT(report->GetNumber("queries_explored", 0.0), 0.0);
}

// A manager keeps its last kKeptFinishedSessions finished sessions. Cache
// hits finish at admission, so repeat SUBMITs push the first runs out: their
// ids answer NotFound, while the latest still serves the first reply's
// report bytes.
TEST(ServerTest, OldestFinishedSessionsAreForgotten) {
  ServerOptions options;
  options.cache_bytes = 16ull << 20;
  AcqServer server(SharedCatalog(), options);
  JsonValue request = JsonValue::Object();
  request.Set("cmd", JsonValue::Str("SUBMIT"));
  request.Set("sql", JsonValue::Str(
                         "SELECT * FROM users CONSTRAINT COUNT(*) >= 1500 "
                         "WHERE age <= 30 AND income <= 40000"));
  request.Set("wait", JsonValue::Bool(true));
  const size_t submits = SessionManager::kKeptFinishedSessions + 2;
  std::vector<std::string> ids;
  std::string first_report;
  for (size_t i = 0; i < submits; ++i) {
    const JsonValue reply =
        MustParse(server.HandleRequestLine(request.Dump()));
    ASSERT_EQ(reply.GetString("state"), "done") << reply.Dump();
    ASSERT_NE(reply.Get("report"), nullptr) << reply.Dump();
    if (i == 0) first_report = reply.Get("report")->Dump();
    ids.push_back(reply.GetString("id"));
  }
  auto status = [&](const std::string& id) {
    JsonValue line = JsonValue::Object();
    line.Set("cmd", JsonValue::Str("STATUS"));
    line.Set("id", JsonValue::Str(id));
    return MustParse(server.HandleRequestLine(line.Dump()));
  };
  const JsonValue forgotten = status(ids.front());
  EXPECT_FALSE(forgotten.GetBool("ok", true)) << forgotten.Dump();
  EXPECT_EQ(forgotten.GetString("code"), "NotFound") << forgotten.Dump();
  const JsonValue kept = status(ids.back());
  ASSERT_TRUE(kept.GetBool("ok", false)) << kept.Dump();
  EXPECT_EQ(kept.GetString("state"), "done");
  ASSERT_NE(kept.Get("report"), nullptr) << kept.Dump();
  EXPECT_EQ(kept.Get("report")->Dump(), first_report);
}

TEST(ServerTest, StatsAggregateAcrossRuns) {
  AcqServer server(SharedCatalog());
  JsonValue request = JsonValue::Object();
  request.Set("cmd", JsonValue::Str("SUBMIT"));
  request.Set("sql", JsonValue::Str(
                         "SELECT * FROM users CONSTRAINT COUNT(*) >= 1 "
                         "WHERE age <= 40"));
  request.Set("wait", JsonValue::Bool(true));
  JsonValue response = MustParse(server.HandleRequestLine(request.Dump()));
  ASSERT_TRUE(response.GetBool("ok", false)) << response.Dump();
  EXPECT_EQ(response.GetString("state"), "done");

  JsonValue stats = MustParse(server.HandleRequestLine("{\"cmd\":\"STATS\"}"));
  ASSERT_TRUE(stats.GetBool("ok", false));
  const JsonValue* counters = stats.Get("stats");
  ASSERT_NE(counters, nullptr);
  EXPECT_EQ(counters->GetNumber("submitted", -1.0), 1.0);
  EXPECT_EQ(counters->GetNumber("completed", -1.0), 1.0);
  EXPECT_EQ(counters->GetNumber("running", -1.0), 0.0);
  EXPECT_EQ(counters->GetNumber("queued", -1.0), 0.0);
  EXPECT_GE(counters->GetNumber("pool_threads", 0.0), 1.0);
}

TEST(ServerTest, SubmitWithMemoryBudgetReportsResourceExhausted) {
  AcqServer server(SharedCatalog());
  JsonValue request = SlowSubmit();
  // A budget far below the search's working set: the run must degrade to a
  // well-formed resource_exhausted report, never crash or hang.
  request.Set("memory_budget_bytes", JsonValue::Number(64 * 1024));
  request.Set("wait", JsonValue::Bool(true));
  JsonValue response = MustParse(server.HandleRequestLine(request.Dump()));
  ASSERT_TRUE(response.GetBool("ok", false)) << response.Dump();
  EXPECT_EQ(response.GetString("state"), "done");
  const JsonValue* report = response.Get("report");
  ASSERT_NE(report, nullptr) << response.Dump();
  EXPECT_EQ(report->GetString("termination"), "resource_exhausted");
  EXPECT_FALSE(report->GetBool("satisfied", true));
  EXPECT_GE(report->GetNumber("queries_explored", 0.0), 1.0);
  ASSERT_NE(report->Get("best"), nullptr);

  JsonValue stats = MustParse(server.HandleRequestLine("{\"cmd\":\"STATS\"}"));
  const JsonValue* counters = stats.Get("stats");
  ASSERT_NE(counters, nullptr);
  EXPECT_EQ(counters->GetNumber("resource_exhausted", -1.0), 1.0);
}

TEST(ServerTest, NegativeMemoryBudgetRejected) {
  AcqServer server(SharedCatalog());
  JsonValue request = SlowSubmit();
  request.Set("memory_budget_bytes", JsonValue::Number(-1.0));
  JsonValue response = MustParse(server.HandleRequestLine(request.Dump()));
  EXPECT_FALSE(response.GetBool("ok", true));
  EXPECT_EQ(response.GetString("code"), "InvalidArgument");
}

TEST(ServerProtocolTest, FailpointVerbListsArmsAndClears) {
  AcqServer server(SharedCatalog());
  JsonValue listed =
      MustParse(server.HandleRequestLine("{\"cmd\":\"FAILPOINT\"}"));
  ASSERT_TRUE(listed.GetBool("ok", false)) << listed.Dump();
  EXPECT_EQ(listed.GetBool("enabled", false),
            FailpointRegistry::compiled_in());
  ASSERT_NE(listed.Get("sites"), nullptr);

  if (!FailpointRegistry::compiled_in()) {
    JsonValue armed = MustParse(server.HandleRequestLine(
        "{\"cmd\":\"FAILPOINT\",\"set\":\"server.admit=count:1\"}"));
    EXPECT_EQ(armed.GetString("code"), "Unsupported");
    return;
  }
  JsonValue armed = MustParse(server.HandleRequestLine(
      "{\"cmd\":\"FAILPOINT\",\"set\":\"server.admit=count:1\"}"));
  ASSERT_TRUE(armed.GetBool("ok", false)) << armed.Dump();

  // The armed admission site rejects exactly the next SUBMIT.
  JsonValue rejected = MustParse(server.HandleRequestLine(SlowSubmit().Dump()));
  EXPECT_FALSE(rejected.GetBool("ok", true));
  EXPECT_EQ(rejected.GetString("code"), "Unavailable");

  JsonValue bad_spec = MustParse(server.HandleRequestLine(
      "{\"cmd\":\"FAILPOINT\",\"set\":\"server.admit=p:7\"}"));
  EXPECT_FALSE(bad_spec.GetBool("ok", true));
  EXPECT_EQ(bad_spec.GetString("code"), "InvalidArgument");

  JsonValue cleared = MustParse(
      server.HandleRequestLine("{\"cmd\":\"FAILPOINT\",\"clear\":true}"));
  ASSERT_TRUE(cleared.GetBool("ok", false)) << cleared.Dump();
  JsonValue accepted = MustParse(server.HandleRequestLine(SlowSubmit().Dump()));
  ASSERT_TRUE(accepted.GetBool("ok", false)) << accepted.Dump();
  JsonValue cancelled = MustParse(server.HandleRequestLine(StringFormat(
      "{\"cmd\":\"CANCEL\",\"id\":\"%s\",\"wait\":true}",
      accepted.GetString("id").c_str())));
  EXPECT_EQ(cancelled.GetString("state"), "cancelled");

  // STATS surfaces the injected-failure tally.
  JsonValue stats = MustParse(server.HandleRequestLine("{\"cmd\":\"STATS\"}"));
  const JsonValue* counters = stats.Get("stats");
  ASSERT_NE(counters, nullptr);
  EXPECT_GE(counters->GetNumber("failpoint_hits", -1.0), 1.0);
}

TEST(ServerTest, OversizedLineRejectedAndConnectionClosed) {
  ServerOptions options;
  options.max_line_bytes = 1024;
  AcqServer server(SharedCatalog(), options);
  ASSERT_TRUE(server.Start().ok());
  LineClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  auto raw = client.CallRaw(std::string(4096, 'x'));
  ASSERT_TRUE(raw.ok()) << raw.status().ToString();
  JsonValue response = MustParse(*raw);
  EXPECT_FALSE(response.GetBool("ok", true));
  EXPECT_EQ(response.GetString("code"), "InvalidArgument");
  // The server closes after the rejection: the next call fails.
  EXPECT_FALSE(client.Call(JsonValue::Object()).ok());
  server.Stop();
}

TEST(ServerTest, NewlineFreeGarbageCannotGrowBufferUnbounded) {
  ServerOptions options;
  options.max_line_bytes = 1024;
  AcqServer server(SharedCatalog(), options);
  ASSERT_TRUE(server.Start().ok());
  LineClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  // Binary garbage with no terminating newline: the server must cap its
  // partial-line buffer, answer once, and drop the connection.
  std::string garbage(8192, '\0');
  for (size_t i = 0; i < garbage.size(); ++i) {
    garbage[i] = static_cast<char>(i * 131 + 7);
    if (garbage[i] == '\n') garbage[i] = ' ';
  }
  auto raw = client.CallRaw(garbage.substr(0, garbage.size() - 1));
  // CallRaw appends '\n' itself; either the rejection line came back or the
  // server already closed mid-send. Both are acceptable; a hang is not.
  if (raw.ok()) {
    JsonValue response = MustParse(*raw);
    EXPECT_FALSE(response.GetBool("ok", true));
  }
  server.Stop();
}

TEST(ServerTest, HalfOpenConnectionDoesNotWedgeServer) {
  AcqServer server(SharedCatalog());
  ASSERT_TRUE(server.Start().ok());
  {
    // Connect, send half a frame, vanish without the newline.
    LineClient half;
    ASSERT_TRUE(half.Connect("127.0.0.1", server.port()).ok());
    // (CallRaw would block on the response; just drop the connection.)
    half.Close();
  }
  // The server keeps serving new connections afterwards.
  LineClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  JsonValue stats_request = JsonValue::Object();
  stats_request.Set("cmd", JsonValue::Str("STATS"));
  auto stats = client.Call(stats_request);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_TRUE(stats->GetBool("ok", false));
  server.Stop();
}

TEST(ServerTest, IdleConnectionReapedByReadDeadline) {
  ServerOptions options;
  options.idle_timeout_ms = 50.0;
  AcqServer server(SharedCatalog(), options);
  ASSERT_TRUE(server.Start().ok());
  LineClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  // Go quiet past the deadline; the server must reap the connection.
  std::this_thread::sleep_for(std::chrono::milliseconds(250));
  JsonValue stats_request = JsonValue::Object();
  stats_request.Set("cmd", JsonValue::Str("STATS"));
  // Either the send fails outright or the response never comes (the recv
  // sees the server's close). A fresh connection then shows the reap.
  (void)client.Call(stats_request);
  LineClient fresh;
  ASSERT_TRUE(fresh.Connect("127.0.0.1", server.port()).ok());
  auto stats = fresh.Call(stats_request);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  const JsonValue* counters = stats->Get("stats");
  ASSERT_NE(counters, nullptr);
  EXPECT_GE(counters->GetNumber("idle_disconnects", 0.0), 1.0);
  fresh.Close();
  server.Stop();
}

TEST(ServerTest, DisconnectBetweenSubmitAndStatus) {
  AcqServer server(SharedCatalog());
  ASSERT_TRUE(server.Start().ok());
  std::string id;
  {
    LineClient submitter;
    ASSERT_TRUE(submitter.Connect("127.0.0.1", server.port()).ok());
    auto submitted = submitter.Call(SlowSubmit());
    ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
    ASSERT_TRUE(submitted->GetBool("ok", false)) << submitted->Dump();
    id = submitted->GetString("id");
    submitter.Close();  // vanish with the run still going
  }
  // Sessions survive their submitting connection: a different client can
  // observe and cancel the run.
  LineClient observer;
  ASSERT_TRUE(observer.Connect("127.0.0.1", server.port()).ok());
  auto cancelled = observer.Call(MustParse(StringFormat(
      "{\"cmd\":\"CANCEL\",\"id\":\"%s\",\"wait\":true}", id.c_str())));
  ASSERT_TRUE(cancelled.ok()) << cancelled.status().ToString();
  EXPECT_EQ(cancelled->GetString("state"), "cancelled");
  observer.Close();
  server.Stop();
}

TEST(ServerTest, WrongTypedFieldsRejectedNotCrashed) {
  AcqServer server(SharedCatalog());
  const char* cases[] = {
      "{\"cmd\":\"SUBMIT\",\"sql\":[1,2]}",
      "{\"cmd\":\"SUBMIT\",\"sql\":{\"a\":1}}",
      "{\"cmd\":\"SUBMIT\",\"sql\":true}",
      "{\"cmd\":\"SUBMIT\",\"sql\":\"x\",\"order\":7}",
      "{\"cmd\":\"SUBMIT\",\"sql\":\"x\",\"backend\":[]}",
      "{\"cmd\":\"FAILPOINT\",\"set\":42}",
      "{\"cmd\":\"FAILPOINT\",\"clear\":1.5}",
      "{\"cmd\":3}",
  };
  for (const char* line : cases) {
    JsonValue response = MustParse(server.HandleRequestLine(line));
    EXPECT_FALSE(response.GetBool("ok", true)) << line;
    EXPECT_FALSE(response.GetString("error").empty()) << line;
  }
}

TEST(ClientTest, RetriesReconnectAfterServerSideDrop) {
  if (!FailpointRegistry::compiled_in()) GTEST_SKIP();
  AcqServer server(SharedCatalog());
  ASSERT_TRUE(server.Start().ok());
  // Drop the next server->client send mid-protocol; the client's retry
  // must reconnect and complete.
  ASSERT_TRUE(FailpointRegistry::Global()
                  .Configure("server.send", "count:1")
                  .ok());
  LineClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  JsonValue stats_request = JsonValue::Object();
  stats_request.Set("cmd", JsonValue::Str("STATS"));
  auto stats = client.CallWithRetry(stats_request);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_TRUE(stats->GetBool("ok", false));
  EXPECT_GE(client.retries(), 1u);
  FailpointRegistry::Global().DisarmAll();
  client.Close();
  server.Stop();
}

TEST(ClientTest, RetriesUnavailableUntilAdmitted) {
  if (!FailpointRegistry::compiled_in()) GTEST_SKIP();
  AcqServer server(SharedCatalog());
  ASSERT_TRUE(server.Start().ok());
  // Two injected admission rejections, then the SUBMIT goes through.
  ASSERT_TRUE(FailpointRegistry::Global()
                  .Configure("server.admit", "count:2")
                  .ok());
  LineClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  JsonValue request = JsonValue::Object();
  request.Set("cmd", JsonValue::Str("SUBMIT"));
  request.Set("sql", JsonValue::Str(
                         "SELECT * FROM users CONSTRAINT COUNT(*) >= 1 "
                         "WHERE age <= 40"));
  request.Set("wait", JsonValue::Bool(true));
  auto response = client.CallWithRetry(request);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ASSERT_TRUE(response->GetBool("ok", false)) << response->Dump();
  EXPECT_EQ(response->GetString("state"), "done");
  EXPECT_GE(client.retries(), 2u);
  FailpointRegistry::Global().DisarmAll();
  client.Close();
  server.Stop();
}

// Decorrelated retry jitter: backoff sleeps are randomized within
// [initial, 3*previous] capped at max_backoff_ms, so a fleet of clients
// rejected by the same admission burst doesn't re-collide on a shared
// deterministic schedule. The total sleep across attempts is therefore
// bounded: at least one initial backoff, at most attempts*max (plus
// call overhead), both of which this test pins with wide margins.
TEST(ClientTest, JitteredBackoffStaysWithinConfiguredBounds) {
  if (!FailpointRegistry::compiled_in()) GTEST_SKIP();
  AcqServer server(SharedCatalog());
  ASSERT_TRUE(server.Start().ok());
  // Every attempt is rejected: the call exhausts max_attempts, sleeping
  // between each, and returns the final Unavailable reply.
  ASSERT_TRUE(FailpointRegistry::Global()
                  .Configure("server.admit", "count:100")
                  .ok());
  LineClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  JsonValue request = JsonValue::Object();
  request.Set("cmd", JsonValue::Str("SUBMIT"));
  request.Set("sql", JsonValue::Str(
                         "SELECT * FROM users CONSTRAINT COUNT(*) >= 1 "
                         "WHERE age <= 40"));
  RetryOptions retry;
  retry.max_attempts = 5;
  retry.initial_backoff_ms = 4.0;
  retry.max_backoff_ms = 40.0;
  retry.jitter_seed = 12345;  // deterministic draw for the test
  const auto start = std::chrono::steady_clock::now();
  auto response = client.CallWithRetry(request, retry);
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start)
          .count();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->GetString("code"), "Unavailable") << response->Dump();
  EXPECT_EQ(client.retries(), 4u);
  // 4 sleeps, each in [4ms, 40ms]: the floor proves sleeping happened at
  // all, the ceiling (with slack for 5 round trips) proves the cap held.
  EXPECT_GE(elapsed_ms, 4.0);
  EXPECT_LE(elapsed_ms, 4 * 40.0 + 2000.0);
  FailpointRegistry::Global().DisarmAll();
  client.Close();
  server.Stop();
}

// jitter=false preserves the historical deterministic schedule for tests
// and tools that rely on exact sleep sequences; the retry loop still
// recovers from admission rejections either way.
TEST(ClientTest, JitterDisabledStillRetriesDeterministically) {
  if (!FailpointRegistry::compiled_in()) GTEST_SKIP();
  AcqServer server(SharedCatalog());
  ASSERT_TRUE(server.Start().ok());
  ASSERT_TRUE(FailpointRegistry::Global()
                  .Configure("server.admit", "count:2")
                  .ok());
  LineClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  JsonValue request = JsonValue::Object();
  request.Set("cmd", JsonValue::Str("SUBMIT"));
  request.Set("sql", JsonValue::Str(
                         "SELECT * FROM users CONSTRAINT COUNT(*) >= 1 "
                         "WHERE age <= 40"));
  request.Set("wait", JsonValue::Bool(true));
  RetryOptions retry;
  retry.jitter = false;
  retry.initial_backoff_ms = 1.0;
  retry.max_backoff_ms = 8.0;
  auto response = client.CallWithRetry(request, retry);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ASSERT_TRUE(response->GetBool("ok", false)) << response->Dump();
  EXPECT_EQ(response->GetString("state"), "done");
  EXPECT_GE(client.retries(), 2u);
  FailpointRegistry::Global().DisarmAll();
  client.Close();
  server.Stop();
}

double StatsNumber(AcqServer* server, const char* field) {
  Result<JsonValue> stats =
      JsonValue::Parse(server->HandleRequestLine("{\"cmd\":\"STATS\"}"));
  EXPECT_TRUE(stats.ok());
  const JsonValue* counters = stats.ok() ? stats->Get("stats") : nullptr;
  return counters != nullptr ? counters->GetNumber(field, -1.0) : -1.0;
}

// With the cache on, identical SUBMITs that arrive while the first is still
// running are not merged: a sleep: failpoint holds the first run in flight
// while three duplicates arrive, and all four run. Their replies agree
// modulo id and timing, they leave one cache entry, and a repeat sent after
// the replies is answered from it.
TEST(ServerTest, ConcurrentDuplicateSubmitsEachRunAndAgree) {
  if (!FailpointRegistry::compiled_in()) GTEST_SKIP();
  auto& registry = FailpointRegistry::Global();
  registry.DisarmAll();
  ServerOptions options;
  options.cache_bytes = 16ull << 20;
  AcqServer server(SharedCatalog(), options);
  ASSERT_TRUE(registry.Configure("server.run", "sleep:400").ok());

  JsonValue request = JsonValue::Object();
  request.Set("cmd", JsonValue::Str("SUBMIT"));
  request.Set("sql", JsonValue::Str(
                         "SELECT * FROM users CONSTRAINT COUNT(*) >= 300 "
                         "WHERE age <= 30 AND income >= 60000"));
  JsonValue first = MustParse(server.HandleRequestLine(request.Dump()));
  ASSERT_TRUE(first.GetBool("ok", false)) << first.Dump();
  const std::string first_id = first.GetString("id");

  constexpr int kDuplicates = 3;
  request.Set("wait", JsonValue::Bool(true));
  std::vector<JsonValue> replies(kDuplicates);
  std::vector<std::thread> clients;
  for (int i = 0; i < kDuplicates; ++i) {
    clients.emplace_back([&, i] {
      replies[i] = MustParse(server.HandleRequestLine(request.Dump()));
    });
  }
  for (std::thread& t : clients) t.join();
  registry.DisarmAll();

  JsonValue done = MustParse(server.HandleRequestLine(StringFormat(
      "{\"cmd\":\"STATUS\",\"id\":\"%s\",\"wait\":true}", first_id.c_str())));
  ASSERT_EQ(done.GetString("state"), "done") << done.Dump();
  const std::string want = test_util::StripIdAndTiming(done).Dump();
  for (const JsonValue& reply : replies) {
    ASSERT_TRUE(reply.GetBool("ok", false)) << reply.Dump();
    EXPECT_EQ(reply.GetString("state"), "done") << reply.Dump();
    EXPECT_EQ(test_util::StripIdAndTiming(reply).Dump(), want);
  }
  EXPECT_EQ(StatsNumber(&server, "submitted"), 4.0);
  EXPECT_EQ(StatsNumber(&server, "completed"), 4.0);
  EXPECT_EQ(StatsNumber(&server, "cache_hits"), 0.0);
  EXPECT_EQ(StatsNumber(&server, "cache_entries"), 1.0);

  JsonValue repeat = MustParse(server.HandleRequestLine(request.Dump()));
  ASSERT_EQ(repeat.GetString("state"), "done") << repeat.Dump();
  EXPECT_EQ(test_util::StripIdAndTiming(repeat).Dump(), want);
  EXPECT_EQ(StatsNumber(&server, "cache_hits"), 1.0);
  EXPECT_EQ(StatsNumber(&server, "completed"), 4.0);
}

TEST(ServerProtocolTest, RejectsMalformedProgressFields) {
  AcqServer server(SharedCatalog());
  const char* sql_prefix =
      "{\"cmd\":\"SUBMIT\",\"sql\":\"SELECT * FROM users CONSTRAINT "
      "COUNT(*) >= 1 WHERE age <= 30\",";
  struct Case {
    const char* progress_tail;  // appended after the shared prefix
    const char* why;
  } cases[] = {
      {"\"progress\":{\"interval_ms\":-1}}", "negative interval"},
      {"\"progress\":{\"interval_ms\":1.5}}", "non-integral interval"},
      {"\"progress\":{\"interval_ms\":\"fast\"}}", "non-number interval"},
      {"\"progress\":{\"interval_ms\":3600001}}", "oversize interval"},
      {"\"progress\":5}", "progress is neither bool nor object"},
      {"\"progress\":[true]}", "progress is an array"},
      {"\"progress\":true,\"wait\":false}", "streaming contradicts wait"},
  };
  for (const Case& c : cases) {
    const std::string line = std::string(sql_prefix) + c.progress_tail;
    JsonValue response = MustParse(server.HandleRequestLine(line));
    EXPECT_FALSE(response.GetBool("ok", true)) << c.why << ": " << line;
    EXPECT_EQ(response.GetString("code"), "InvalidArgument")
        << c.why << ": " << response.Dump();
  }
  // interval_ms 0 is NOT malformed: it means one frame per drained layer.
  const std::string ok_line =
      std::string(sql_prefix) +
      "\"progress\":{\"interval_ms\":0},\"wait\":true}";
  JsonValue response = MustParse(server.HandleRequestLine(ok_line));
  EXPECT_TRUE(response.GetBool("ok", false)) << response.Dump();
}

TEST(ServerProtocolTest, StopOnUnknownAndFinishedSessions) {
  AcqServer server(SharedCatalog());
  // Unknown session: NotFound, same contract as CANCEL/STATUS.
  JsonValue missing =
      MustParse(server.HandleRequestLine("{\"cmd\":\"STOP\",\"id\":\"s-99\"}"));
  EXPECT_FALSE(missing.GetBool("ok", true));
  EXPECT_EQ(missing.GetString("code"), "NotFound");

  // Finished session: STOP is a harmless no-op that returns the terminal
  // state unchanged — the report stays the completed one.
  JsonValue submit = JsonValue::Object();
  submit.Set("cmd", JsonValue::Str("SUBMIT"));
  submit.Set("sql", JsonValue::Str(
                        "SELECT * FROM users CONSTRAINT COUNT(*) >= 700 "
                        "WHERE age <= 30 AND income >= 60000"));
  submit.Set("wait", JsonValue::Bool(true));
  JsonValue done = MustParse(server.HandleRequestLine(submit.Dump()));
  ASSERT_TRUE(done.GetBool("ok", false)) << done.Dump();
  ASSERT_EQ(done.GetString("state"), "done") << done.Dump();
  const std::string id = done.GetString("id");

  JsonValue stop = JsonValue::Object();
  stop.Set("cmd", JsonValue::Str("STOP"));
  stop.Set("id", JsonValue::Str(id));
  JsonValue stopped = MustParse(server.HandleRequestLine(stop.Dump()));
  ASSERT_TRUE(stopped.GetBool("ok", false)) << stopped.Dump();
  EXPECT_EQ(stopped.GetString("state"), "done");
  const JsonValue* report = stopped.Get("report");
  ASSERT_NE(report, nullptr) << stopped.Dump();
  EXPECT_EQ(report->GetString("termination"), "completed");
  EXPECT_EQ(StatsNumber(&server, "client_satisfied"), 0.0);
}

TEST(ServerTest, MultipleRequestsOnOneConnection) {
  AcqServer server(SharedCatalog());
  ASSERT_TRUE(server.Start().ok());
  LineClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());

  // Malformed line gets an error response, connection stays usable.
  auto raw = client.CallRaw("{{{{");
  ASSERT_TRUE(raw.ok()) << raw.status().ToString();
  JsonValue error = MustParse(*raw);
  EXPECT_FALSE(error.GetBool("ok", true));

  JsonValue stats_request = JsonValue::Object();
  stats_request.Set("cmd", JsonValue::Str("STATS"));
  auto stats = client.Call(stats_request);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_TRUE(stats->GetBool("ok", false));
  client.Close();
  server.Stop();
}

// SUBMIT once took "merge_strategy" and "batch_explore" fields. The Eq. 17
// merge is always sequential and Explore always batched now, and both
// fields are ignored like any other the server does not read, so older
// clients keep working: valid or not, they change no byte of the reply.
TEST(ServerTest, SubmitIgnoresRetiredFields) {
  AcqServer server(SharedCatalog());
  auto submit = [&](const char* field, const JsonValue& value) {
    JsonValue request = JsonValue::Object();
    request.Set("cmd", JsonValue::Str("SUBMIT"));
    request.Set("sql", JsonValue::Str(
                           "SELECT * FROM users CONSTRAINT COUNT(*) >= 900 "
                           "WHERE age <= 30 AND income >= 60000"));
    request.Set("wait", JsonValue::Bool(true));
    if (field != nullptr) request.Set(field, value);
    return MustParse(server.HandleRequestLine(request.Dump()));
  };
  const JsonValue plain = submit(nullptr, JsonValue::Null());
  ASSERT_TRUE(plain.GetBool("ok", false)) << plain.Dump();
  ASSERT_EQ(plain.GetString("state"), "done") << plain.Dump();
  const std::pair<const char*, JsonValue> retired[] = {
      {"merge_strategy", JsonValue::Str("radix")},
      {"merge_strategy", JsonValue::Str("bogus")},
      {"batch_explore", JsonValue::Bool(false)},
      {"batch_explore", JsonValue::Str("off")},
      {"batch_explore", JsonValue::Str("on")},
      {"batch_explore", JsonValue::Str("bogus")},
  };
  for (const auto& [field, value] : retired) {
    const JsonValue reply = submit(field, value);
    EXPECT_TRUE(reply.GetBool("ok", false))
        << field << "=" << value.Dump() << ": " << reply.Dump();
    EXPECT_EQ(test_util::StripIdAndTiming(reply).Dump(),
              test_util::StripIdAndTiming(plain).Dump())
        << field << "=" << value.Dump();
  }
}

TEST(ServerTest, SubmitRetiredBackendNamesAreRejected) {
  // "gridindex", "parallel" and "cached" name deleted backends. A SUBMIT
  // naming one is rejected like any unknown name, not mapped to another
  // backend.
  AcqServer server(SharedCatalog());
  for (const char* retired : {"gridindex", "parallel", "cached"}) {
    JsonValue request = JsonValue::Object();
    request.Set("cmd", JsonValue::Str("SUBMIT"));
    request.Set("sql", JsonValue::Str(
                           "SELECT * FROM users CONSTRAINT SUM(income) >= 3e8 "
                           "WHERE age <= 30 AND income <= 40000"));
    request.Set("backend", JsonValue::Str(retired));
    request.Set("wait", JsonValue::Bool(true));
    const JsonValue reply = MustParse(server.HandleRequestLine(request.Dump()));
    EXPECT_FALSE(reply.GetBool("ok", true)) << retired << ": " << reply.Dump();
    EXPECT_EQ(reply.GetString("code"), "InvalidArgument")
        << retired << ": " << reply.Dump();
  }
}

// A finished session keeps its rendered reply, not its outcome or planned
// task, so once a run ends nothing it planned still holds the relation.
// Direct never parks a layer (and its task) in the tenant's idle slot.
TEST(ServerTest, FinishedSessionsDoNotPinTheirRelation) {
  Catalog catalog;
  UsersOptions users;
  users.users = 500;
  ASSERT_TRUE(GenerateUsers(users, &catalog).ok());
  Result<TablePtr> table = catalog.GetTable("users");
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  const long baseline = table->use_count();

  AcqServer server(&catalog);
  for (int i = 0; i < 4; ++i) {
    JsonValue request = JsonValue::Object();
    request.Set("cmd", JsonValue::Str("SUBMIT"));
    request.Set("sql", JsonValue::Str(StringFormat(
                           "SELECT * FROM users CONSTRAINT COUNT(*) >= %d "
                           "WHERE age <= 30 AND income <= 40000",
                           100 + 50 * i)));
    request.Set("backend", JsonValue::Str("direct"));
    request.Set("wait", JsonValue::Bool(true));
    const JsonValue reply =
        MustParse(server.HandleRequestLine(request.Dump()));
    ASSERT_EQ(reply.GetString("state"), "done") << reply.Dump();
    ASSERT_NE(reply.Get("report"), nullptr) << reply.Dump();
  }
  // The run thread drops its own reference just after the terminal publish
  // that released the waiting SUBMIT.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (table->use_count() != baseline &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(table->use_count(), baseline);
}

}  // namespace
}  // namespace acquire
