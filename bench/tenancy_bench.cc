// Two-tenant interference micro-bench: a light tenant's request latency
// with and without a heavy co-tenant flooding its own admission queue,
// over a single shared run slot. The governor's stride scheduling promises
// the fair-share bound — at equal weights a light probe waits for at most
// the in-flight task plus its own run, so its p99 must stay within ~2x of
// the solo p99 (plus a small scheduling floor). The bench measures both
// phases, asserts the bound, and emits one line of JSON on stdout
// (committed as BENCH_tenancy.json), with a "host" object; progress goes to
// stderr.
//
// ACQ_BENCH_ROWS=<n> resizes the per-tenant catalogs for a quick pass.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/stopwatch.h"
#include "server/server.h"
#include "workload/users_gen.h"

namespace acquire {
namespace bench {
namespace {

// An unreachable constraint with a fixed exploration cap: every submission
// costs the same bounded amount of search work, so solo and contended
// phases time identical tasks.
std::string ProbeSql() {
  return "SELECT * FROM users CONSTRAINT COUNT(*) >= 1000000000 "
         "WHERE age <= 25 AND income >= 50000";
}

std::string SubmitLine(const char* tenant, bool wait) {
  JsonValue request = JsonValue::Object();
  request.Set("cmd", JsonValue::Str("SUBMIT"));
  request.Set("sql", JsonValue::Str(ProbeSql()));
  request.Set("tenant", JsonValue::Str(tenant));
  request.Set("max_explored", JsonValue::Number(2000.0));
  request.Set("wait", JsonValue::Bool(wait));
  return request.Dump();
}

double Percentile(std::vector<double> samples, double p) {
  std::sort(samples.begin(), samples.end());
  if (samples.empty()) return 0.0;
  const size_t index = std::min(
      samples.size() - 1,
      static_cast<size_t>(p * static_cast<double>(samples.size() - 1)));
  return samples[index];
}

double TenantStat(AcqServer* server, const char* tenant, const char* field) {
  JsonValue request = JsonValue::Object();
  request.Set("cmd", JsonValue::Str("STATS"));
  request.Set("tenant", JsonValue::Str(tenant));
  Result<JsonValue> stats =
      JsonValue::Parse(server->HandleRequestLine(request.Dump()));
  ACQ_CHECK(stats.ok() && stats->GetBool("ok", false));
  return stats->Get("stats")->GetNumber(field, -1.0);
}

// One light probe, timed end to end (admission wait included — that IS the
// interference being measured).
double TimedProbe(AcqServer* server) {
  Stopwatch sw;
  Result<JsonValue> reply =
      JsonValue::Parse(server->HandleRequestLine(SubmitLine("light", true)));
  const double ms = sw.ElapsedMillis();
  ACQ_CHECK(reply.ok() && reply->GetBool("ok", false)) << "probe failed";
  ACQ_CHECK(reply->GetString("state") == "done") << reply->Dump();
  return ms;
}

}  // namespace

int Main() {
  const size_t rows = EnvRows(20000);
  const int probes = 25;

  ServerOptions options;
  options.max_running = 1;  // one shared slot: contention is the point
  options.max_queued = 4;
  const Catalog idle;  // the default tenant never serves in this bench
  AcqServer server(&idle, options);
  // The two measured tenants attach with identical catalogs and equal
  // fair-share weights.
  for (const char* tenant : {"light", "heavy"}) {
    JsonValue attach = JsonValue::Object();
    attach.Set("cmd", JsonValue::Str("ATTACH"));
    attach.Set("tenant", JsonValue::Str(tenant));
    attach.Set("gen", JsonValue::Str("users"));
    attach.Set("rows", JsonValue::Number(static_cast<double>(rows)));
    Result<JsonValue> reply =
        JsonValue::Parse(server.HandleRequestLine(attach.Dump()));
    ACQ_CHECK(reply.ok() && reply->GetBool("ok", false))
        << "ATTACH " << tenant << " failed";
  }

  // --- phase 1: solo ------------------------------------------------------
  TimedProbe(&server);  // warm-up (index build happens on first touch)
  std::vector<double> solo;
  for (int i = 0; i < probes; ++i) solo.push_back(TimedProbe(&server));
  const double solo_p50 = Percentile(solo, 0.5);
  const double solo_p99 = Percentile(solo, 0.99);
  fprintf(stderr, "solo: p50=%.2fms p99=%.2fms (%d probes)\n", solo_p50,
          solo_p99, probes);

  // --- phase 2: heavy co-tenant flooding its queue ------------------------
  std::atomic<bool> stop{false};
  std::thread flood([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      // Fire-and-forget; queue-full rejections are expected and fine — the
      // point is to keep the heavy queue saturated.
      server.HandleRequestLine(SubmitLine("heavy", false));
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  // Wait until the heavy backlog actually exists before probing.
  while (TenantStat(&server, "heavy", "queued") < 2.0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  std::vector<double> contended;
  for (int i = 0; i < probes; ++i) contended.push_back(TimedProbe(&server));
  stop.store(true, std::memory_order_relaxed);
  flood.join();
  const double contended_p50 = Percentile(contended, 0.5);
  const double contended_p99 = Percentile(contended, 0.99);
  const double heavy_completed = TenantStat(&server, "heavy", "completed");
  fprintf(stderr,
          "contended: p50=%.2fms p99=%.2fms (heavy completed %.0f runs)\n",
          contended_p50, contended_p99, heavy_completed);

  // Fair-share bound: waiting out one in-flight heavy task plus running the
  // probe itself is at most ~2x the solo latency; the additive floor
  // absorbs scheduler noise at millisecond task sizes.
  const double bound_ms = 2.0 * solo_p99 + 250.0;
  const bool bound_ok = contended_p99 <= bound_ms;
  ACQ_CHECK(bound_ok) << "fair-share bound violated: contended p99 "
                      << contended_p99 << "ms > " << bound_ms << "ms";
  // The heavy tenant made real progress — the bench measured sharing, not
  // a starved co-tenant.
  ACQ_CHECK(heavy_completed > 0.0) << "heavy tenant never ran";

  printf(
      "{\"bench\":\"tenancy\",\"rows\":%zu,\"probes\":%d,"
      "\"solo\":{\"p50_ms\":%.3f,\"p99_ms\":%.3f},"
      "\"contended\":{\"p50_ms\":%.3f,\"p99_ms\":%.3f},"
      "\"heavy_completed\":%.0f,"
      "\"fair_share_bound_ms\":%.3f,\"bound_ok\":%s,\"host\":%s}\n",
      rows, probes, solo_p50, solo_p99, contended_p50, contended_p99,
      heavy_completed, bound_ms, bound_ok ? "true" : "false",
      HostJson().c_str());
  return 0;
}

}  // namespace bench
}  // namespace acquire

int main() { return acquire::bench::Main(); }
