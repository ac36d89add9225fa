// End-to-end ACQ benchmark.
//
//   acq_perfbench --workload <prepare_bound|search_bound|ingest_mix>
//                 --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]
//   acq_perfbench --selftest
//
// One run: set up (generate the TPC-H catalog, start an in-process AcqServer
// on loopback, connect the client, warm up) five times and keep the last;
// drive the workload as a closed loop for --seconds; check every reply
// against an in-process reference outside the timed window; with --trace 1
// also replay ACQs in process with spans around each engine layer. The last
// stdout line is the result object; the lines before it name every metric
// with its unit, the sample counts, the wall-clock figures and the host.
//
// Bounded timings are process CPU time, not wall-clock time: on a shared
// virtual machine the hypervisor's steal moves wall-clock latency by more
// than any bound a regression check could use, and CPU time leaves it out.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/string_util.h"
#include "exec/thread_pool.h"
#include "replay.h"
#include "selftest.h"
#include "server/client.h"
#include "server/server.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

using acquire::JsonValue;
using acquire::StringFormat;

constexpr int kSetupRepeats = 5;
/// The warm-up ACQ is drawn from this seed, not --seed, so every run's
/// set-up does the same work.
constexpr uint64_t kWarmupSeed = 0x5EED;
/// peak_rss_mb is read once this many ACQs have been answered: the result
/// cache grows with every distinct reply, so a read at the window's end
/// would follow how many ACQs the window happened to fit.
constexpr size_t kRssAfterAcqs = 80;
constexpr uint64_t kCacheBytes = uint64_t{64} << 20;
constexpr double kAccountingTolerance = 0.05;
/// ACQs the traced run replays in process, each untraced and traced.
constexpr size_t kReplayAcqs = 12;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  bool selftest = false;
  std::string out_dir = ".";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--selftest") {
      args->selftest = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args->trace = std::atoi(value.c_str());
    } else if (flag == "--out-dir") {
      args->out_dir = value;
    } else {
      return false;
    }
  }
  return args->selftest ||
         (!args->workload.empty() && args->seconds > 0.0 &&
          (args->trace == 0 || args->trace == 1));
}

double MsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e6;
}

JsonValue SubmitRequest(const AcqRequest& request) {
  JsonValue req = JsonValue::Object();
  req.Set("cmd", JsonValue::Str("SUBMIT"));
  req.Set("sql", JsonValue::Str(request.sql));
  req.Set("gamma", JsonValue::Number(request.gamma));
  req.Set("delta", JsonValue::Number(request.delta));
  req.Set("wait", JsonValue::Bool(true));
  return req;
}

JsonValue AppendRequest(const std::string& table,
                        const std::vector<std::vector<acquire::Value>>& rows) {
  JsonValue array = JsonValue::Array();
  for (const auto& row : rows) {
    JsonValue cells = JsonValue::Array();
    for (const acquire::Value& v : row) {
      cells.Append(JsonValue::Number(
          v.is_int64() ? static_cast<double>(v.int64()) : v.dbl()));
    }
    array.Append(std::move(cells));
  }
  JsonValue req = JsonValue::Object();
  req.Set("cmd", JsonValue::Str("APPEND"));
  req.Set("table", JsonValue::Str(table));
  req.Set("rows", std::move(array));
  return req;
}

/// One operation as the client saw it.
struct Op {
  bool append = false;
  size_t index = 0;  // ACQ or batch index in its stream
  double rtt_ms = 0.0;
  double cpu_ms = 0.0;  // process CPU time spent during the call
  std::string failure;  // empty = succeeded
  JsonValue report;     // ACQ terminal report
  double wall_ms = 0.0;
  size_t rows = 0;  // rows in an APPEND batch
};

/// A terminal SUBMIT reply that counts as a success, else why not.
std::string AcqFailure(const acquire::Result<JsonValue>& reply) {
  if (!reply.ok()) return "transport: " + reply.status().ToString();
  if (!reply->GetBool("ok", false)) {
    return "rejected: " + reply->GetString("code") + " " +
           reply->GetString("error");
  }
  const JsonValue* report = reply->Get("report");
  if (report == nullptr) return "no report";
  const std::string termination = report->GetString("termination");
  if (termination != "completed") return "termination " + termination;
  return "";
}

std::string AppendFailure(const acquire::Result<JsonValue>& reply) {
  if (!reply.ok()) return "transport: " + reply.status().ToString();
  if (!reply->GetBool("ok", false)) {
    return "rejected: " + reply->GetString("code") + " " +
           reply->GetString("error");
  }
  return "";
}

Op TimedSubmit(acquire::LineClient* client, const AcqRequest& request,
               size_t index, Tracer* tracer) {
  const JsonValue req = SubmitRequest(request);
  Op op;
  op.index = index;
  const int64_t cpu_start = ProcessCpuNs();
  const int64_t start = NowNs();
  int64_t span = -1;
  if (tracer != nullptr) span = tracer->Open("client.call", 0, -1);
  acquire::Result<JsonValue> reply = client->Call(req);
  if (tracer != nullptr) tracer->Close(span);
  op.rtt_ms = MsSince(start);
  op.cpu_ms = static_cast<double>(ProcessCpuNs() - cpu_start) / 1e6;
  op.failure = AcqFailure(reply);
  if (op.failure.empty()) {
    op.report = *reply->Get("report");
    op.wall_ms = op.report.GetNumber("wall_ms", 0.0);
  }
  return op;
}

Op TimedAppend(acquire::LineClient* client, const std::string& table,
               const std::vector<std::vector<acquire::Value>>& rows,
               size_t index) {
  const JsonValue req = AppendRequest(table, rows);
  Op op;
  op.append = true;
  op.index = index;
  op.rows = rows.size();
  const int64_t cpu_start = ProcessCpuNs();
  const int64_t start = NowNs();
  acquire::Result<JsonValue> reply = client->Call(req);
  op.rtt_ms = MsSince(start);
  op.cpu_ms = static_cast<double>(ProcessCpuNs() - cpu_start) / 1e6;
  op.failure = AppendFailure(reply);
  return op;
}

// ---------------------------------------------------------------- fixture

/// A served catalog with its connected client.
struct Fixture {
  std::unique_ptr<acquire::Catalog> catalog;
  std::unique_ptr<acquire::AcqServer> server;
  std::unique_ptr<acquire::LineClient> client;
  size_t initial_rows = 0;

  Fixture() = default;
  Fixture(const Fixture&) = delete;
  Fixture& operator=(const Fixture&) = delete;
  ~Fixture() {
    client.reset();
    if (server != nullptr) server->Stop();
  }
};

std::string Setup(const WorkloadSpec& spec, const std::string& wal_dir,
                  Fixture* f) {
  f->catalog = std::make_unique<acquire::Catalog>();
  acquire::Status s = GenerateCatalog(spec, f->catalog.get());
  if (!s.ok()) return "catalog: " + s.ToString();
  f->initial_rows = f->catalog->GetTable("lineitem").value()->num_rows();
  acquire::ServerOptions options;
  options.cache_bytes = kCacheBytes;
  if (spec.submits_per_append > 0) {
    options.wal_dir = wal_dir;
    options.fsync = acquire::FsyncPolicy::kBatch;
  }
  f->server =
      std::make_unique<acquire::AcqServer>(f->catalog.get(), options);
  s = f->server->Start();
  if (!s.ok()) return "server: " + s.ToString();
  f->client = std::make_unique<acquire::LineClient>();
  s = f->client->Connect("127.0.0.1", f->server->port());
  if (!s.ok()) return "connect: " + s.ToString();
  // Warm-up: one ACQ from a stream the measured one never uses.
  Op op = TimedSubmit(f->client.get(),
                      MakeAcq(spec, kWarmupSeed, kWarmupStream, 0), 0, nullptr);
  if (!op.failure.empty()) return "warm-up: " + op.failure;
  return "";
}

JsonValue Stats(acquire::LineClient* client) {
  JsonValue req = JsonValue::Object();
  req.Set("cmd", JsonValue::Str("STATS"));
  acquire::Result<JsonValue> reply = client->Call(req);
  const JsonValue* stats = reply.ok() ? reply->Get("stats") : nullptr;
  return stats != nullptr ? *stats : JsonValue::Object();
}

double StatsDelta(const JsonValue& before, const JsonValue& after,
                  const char* key) {
  return after.GetNumber(key, 0.0) - before.GetNumber(key, 0.0);
}

// --------------------------------------------------------------- the loop

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Host-wide CPU time from /proc/stat: all jiffies, and the stolen ones.
struct HostCpu {
  uint64_t total = 0;
  uint64_t steal = 0;
};

HostCpu ReadHostCpu() {
  HostCpu cpu;
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;  // "cpu": the sum over every CPU
  for (int field = 0; field < 10; ++field) {
    uint64_t value = 0;
    if (!(in >> value)) break;
    // guest and guest_nice (fields 8 and 9) are already in user and nice.
    if (field < 8) cpu.total += value;
    if (field == 7) cpu.steal = value;
  }
  return cpu;
}

struct Window {
  std::vector<Op> ops;  // in send order, which is the server's apply order
  double elapsed_s = 0.0;
  double steal_frac = 0.0;  // of the host's CPU time during the window
  double peak_rss_mb = 0.0;
};

/// The client sends its next request only after the previous reply.
Window RunClosedLoop(const WorkloadSpec& spec, const Args& args, Fixture* f,
                     Tracer* tracer) {
  Window w;
  const HostCpu cpu_before = ReadHostCpu();
  const int64_t start = NowNs();
  const int64_t deadline =
      start + static_cast<int64_t>(args.seconds * 1e9);
  size_t acqs = 0;
  size_t appends = 0;
  size_t since_append = 0;
  while (NowNs() < deadline) {
    if (spec.submits_per_append > 0 &&
        since_append == spec.submits_per_append) {
      since_append = 0;
      w.ops.push_back(TimedAppend(f->client.get(), "lineitem",
                                  MakeAppendBatch(spec, args.seed, appends),
                                  appends));
      ++appends;
      continue;
    }
    ++since_append;
    w.ops.push_back(TimedSubmit(
        f->client.get(), MakeAcq(spec, args.seed, kMeasuredStream, acqs), acqs,
        tracer));
    if (++acqs == kRssAfterAcqs) w.peak_rss_mb = PeakRssMb();
  }
  w.elapsed_s = static_cast<double>(NowNs() - start) / 1e9;
  if (acqs < kRssAfterAcqs) w.peak_rss_mb = PeakRssMb();
  const HostCpu cpu_after = ReadHostCpu();
  if (cpu_after.total > cpu_before.total) {
    w.steal_frac = static_cast<double>(cpu_after.steal - cpu_before.steal) /
                   static_cast<double>(cpu_after.total - cpu_before.total);
  }
  return w;
}

// ------------------------------------------------------------------- gate

/// Computes ReplayAcq references for `requests` on `catalog`, two at a time
/// (each prepare already fans out over the pool; more workers only add
/// memory).
std::vector<acquire::Result<ReplayResult>> References(
    const acquire::Catalog& catalog, const std::vector<AcqRequest>& requests) {
  // Table::Stats fills its cache lazily and unsynchronized, so two planners
  // must never be the first to read it at once: fill it here, alone.
  for (const std::string& name : catalog.TableNames()) {
    const acquire::TablePtr table = catalog.GetTable(name).value();
    if (table->num_columns() > 0) table->Stats(0);
  }
  std::vector<acquire::Result<ReplayResult>> out(
      requests.size(), acquire::Status::Internal("not computed"));
  std::atomic<size_t> next{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < 2; ++t) {
    workers.emplace_back([&] {
      for (size_t i = next++; i < requests.size(); i = next++) {
        out[i] = ReplayAcq(catalog, requests[i], nullptr, 0);
      }
    });
  }
  for (std::thread& t : workers) t.join();
  return out;
}

/// Checks every successful ACQ reply against the reference for its request
/// on `catalog`. Returns the number of mismatches; notes go to `log`.
size_t CheckReplies(const acquire::Catalog& catalog,
                    const std::vector<std::pair<AcqRequest, const Op*>>& acqs,
                    std::vector<std::string>* log) {
  std::map<std::string, size_t> slot;
  std::vector<AcqRequest> distinct;
  for (const auto& [request, op] : acqs) {
    if (slot.emplace(request.Key(), distinct.size()).second) {
      distinct.push_back(request);
    }
  }
  const auto refs = References(catalog, distinct);
  size_t mismatches = 0;
  for (const auto& [request, op] : acqs) {
    const auto& ref = refs[slot[request.Key()]];
    std::string diff = ref.ok() ? DiffReports(op->report, ref->report)
                                : "reference failed: " + ref.status().ToString();
    if (!diff.empty()) {
      ++mismatches;
      if (log->size() < 5) {
        log->push_back(StringFormat("acq %zu: %s", op->index, diff.c_str()));
      }
    }
  }
  return mismatches;
}

// ------------------------------------------------------------------ output

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Pool width and max_running are the engine's defaults, read back here.
/// steal_frac is the share of the host's CPU time the hypervisor stole
/// during the window: wall-clock figures compare only between runs where
/// it was low, the CPU-time ones regardless.
std::string HostJson(const Args& args, const WorkloadSpec& spec,
                     const JsonValue& stats, const Window& w) {
  return StringFormat(
      "{\"nproc\":%u,\"build_type\":\"%s\",\"compiler\":\"%s\","
      "\"pool_threads\":%zu,\"max_running\":%.0f,\"clients\":1,"
      "\"rows\":%zu,\"workload\":\"%s\",\"seed\":%llu,\"seconds\":%g,"
      "\"trace\":%d,\"steal_frac\":%.4f}",
      std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE,
      PERFBENCH_COMPILER, acquire::ThreadPool::Shared().num_threads(),
      stats.GetNumber("total_run_slots", 0.0), spec.rows, spec.name.c_str(),
      static_cast<unsigned long long>(args.seed), args.seconds, args.trace,
      w.steal_frac);
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

void WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path);
  for (const Span& s : spans) {
    out << StringFormat(
        "{\"name\":\"%s\",\"acq\":%llu,\"parent\":%lld,\"start_ns\":%lld,"
        "\"end_ns\":%lld,\"items\":%llu}\n",
        s.name.c_str(), static_cast<unsigned long long>(s.acq),
        static_cast<long long>(s.parent), static_cast<long long>(s.start_ns),
        static_cast<long long>(s.end_ns),
        static_cast<unsigned long long>(s.items));
  }
}

// --------------------------------------------------------------- the run

int Run(const Args& args, const WorkloadSpec& spec) {
  std::vector<std::string> errors;
  std::string selftest_failure;
  if (!RunSelfTests(&selftest_failure)) {
    errors.push_back("selftest: " + selftest_failure);
  }

  const std::string wal_root =
      StringFormat("%s/wal-%d", args.out_dir.c_str(), getpid());
  std::vector<double> setup_s;       // process CPU seconds
  std::vector<double> setup_wall_s;  // for reading only
  std::unique_ptr<Fixture> fixture;
  for (int r = 0; r < kSetupRepeats; ++r) {
    fixture.reset();  // the previous server stops before the next starts
    fixture = std::make_unique<Fixture>();
    const int64_t cpu_start = ProcessCpuNs();
    const int64_t start = NowNs();
    const std::string failed = Setup(
        spec, StringFormat("%s/%d", wal_root.c_str(), r), fixture.get());
    setup_s.push_back(static_cast<double>(ProcessCpuNs() - cpu_start) / 1e9);
    setup_wall_s.push_back(static_cast<double>(NowNs() - start) / 1e9);
    if (!failed.empty()) {
      std::fprintf(stderr, "setup failed: %s\n", failed.c_str());
      std::filesystem::remove_all(wal_root);
      return 1;
    }
  }
  Fixture& f = *fixture;

  Tracer tracer;
  Tracer* served_tracer = args.trace == 1 ? &tracer : nullptr;
  const JsonValue stats_before = Stats(f.client.get());
  Window w = RunClosedLoop(spec, args, &f, served_tracer);
  const JsonValue stats_after = Stats(f.client.get());
  std::printf("host %s\n", HostJson(args, spec, stats_before, w).c_str());

  // ingest_mix: every template once more, after the last APPEND.
  const std::vector<AcqRequest> templates = Templates(spec, args.seed);
  std::vector<Op> post;
  for (size_t t = 0; t < templates.size(); ++t) {
    post.push_back(TimedSubmit(f.client.get(), templates[t], t, nullptr));
  }

  // Tally the window.
  std::vector<double> acq_ms;  // wall-clock round trips
  std::vector<double> append_ms;
  std::vector<double> acq_cpu_ms;
  std::vector<double> append_cpu_ms;
  std::vector<double> overhead_ms;
  size_t attempted = 0;
  size_t failed = 0;
  size_t acked_rows = 0;
  std::map<double, int> wall_seen;  // a cache-served reply repeats wall_ms
  for (const Op& op : w.ops) {
    ++attempted;
    if (!op.failure.empty()) {
      ++failed;
      if (errors.size() < 8) errors.push_back("failed op: " + op.failure);
      continue;
    }
    if (op.append) {
      append_ms.push_back(op.rtt_ms);
      append_cpu_ms.push_back(op.cpu_ms);
      acked_rows += op.rows;
    } else {
      acq_ms.push_back(op.rtt_ms);
      acq_cpu_ms.push_back(op.cpu_ms);
      ++wall_seen[op.wall_ms];
    }
  }
  for (const Op& op : w.ops) {
    if (!op.append && op.failure.empty() && wall_seen[op.wall_ms] == 1) {
      overhead_ms.push_back(op.rtt_ms - op.wall_ms);
    }
  }
  for (const Op& op : post) {
    if (!op.failure.empty()) errors.push_back("post-run: " + op.failure);
  }

  // Stop serving before the gate builds its own catalogs.
  const size_t served_rows =
      f.catalog->GetTable("lineitem").value()->num_rows();
  const size_t initial_rows = f.initial_rows;
  fixture.reset();
  std::filesystem::remove_all(wal_root);

  // ---- correctness gate (outside the timed window)
  auto reference = std::make_unique<acquire::Catalog>();
  if (acquire::Status s = GenerateCatalog(spec, reference.get());
      !s.ok()) {
    errors.push_back("reference catalog: " + s.ToString());
  }
  size_t checked = 0;
  size_t mismatches = 0;
  if (spec.submits_per_append == 0) {
    std::vector<std::pair<AcqRequest, const Op*>> acqs;
    for (const Op& op : w.ops) {
      if (op.append || !op.failure.empty()) continue;
      acqs.emplace_back(MakeAcq(spec, args.seed, kMeasuredStream, op.index),
                        &op);
    }
    checked = acqs.size();
    mismatches = CheckReplies(*reference, acqs, &errors);
  } else {
    // Mirror catalog: the same batches, in the server's apply order.
    for (const Op& op : w.ops) {
      if (!op.append || !op.failure.empty()) continue;
      acquire::Status s = reference->AppendRows(
          "lineitem", MakeAppendBatch(spec, args.seed, op.index));
      if (!s.ok()) errors.push_back("mirror append: " + s.ToString());
    }
    const size_t mirror_rows =
        reference->GetTable("lineitem").value()->num_rows();
    if (served_rows != initial_rows + acked_rows ||
        mirror_rows != served_rows) {
      errors.push_back(StringFormat(
          "row count: served %zu, initial %zu + acked %zu, mirror %zu",
          served_rows, initial_rows, acked_rows, mirror_rows));
    }
    std::vector<std::pair<AcqRequest, const Op*>> acqs;
    for (size_t t = 0; t < post.size(); ++t) {
      if (post[t].failure.empty()) acqs.emplace_back(templates[t], &post[t]);
    }
    checked = acqs.size();
    mismatches = CheckReplies(*reference, acqs, &errors);
  }
  if (mismatches > 0) {
    errors.push_back(StringFormat("%zu of %zu replies differ from the "
                                  "reference",
                                  mismatches, checked));
  }
  if (acq_ms.empty()) errors.push_back("no ACQ succeeded");

  // ---- metrics
  const Summary acq = Summarize(acq_cpu_ms);
  const Summary app = Summarize(append_cpu_ms);
  const Summary acq_wall = Summarize(acq_ms);
  const Summary app_wall = Summarize(append_ms);
  double acq_cpu_s = 0.0;
  for (double ms : acq_cpu_ms) acq_cpu_s += ms / 1e3;
  std::printf("samples acq %zu (beyond p90: %zu), append %zu (beyond p90: "
              "%zu); replies checked %zu; failed %zu of %zu\n",
              acq.count, acq.beyond_p90, app.count, app.beyond_p90, checked,
              failed, attempted);
  std::printf("wall-clock (steal %.1f%%): acq p50 %.3f ms, p90 %.3f ms, "
              "%.3f/s; append p50 %.3f ms, p90 %.3f ms; setup %.3f s\n",
              w.steal_frac * 100.0, acq_wall.p50, acq_wall.p90,
              static_cast<double>(acq_wall.count) / w.elapsed_s,
              app_wall.p50, app_wall.p90, Percentile(setup_wall_s, 0.5));
  std::vector<Metric> metrics;
  if (args.trace == 0) {
    metrics = {
        {"acq_cpu_p50_ms", acq.p50, "ms"},
        {"acq_cpu_p90_ms", acq.p90, "ms"},
        {"acq_per_cpu_s",
         acq_cpu_s > 0.0 ? static_cast<double>(acq.count) / acq_cpu_s : 0.0,
         "1/s"},
        {"peak_rss_mb", w.peak_rss_mb, "MB"},
        {"setup_s", Percentile(setup_s, 0.5), "s"},
    };
  } else {
    // ---- traced in-process replay
    // ingest_mix: the mirror holds as many batches as the window happened to
    // ack; replay on a fresh catalog so every count repeats for a seed.
    if (spec.submits_per_append > 0) {
      reference = std::make_unique<acquire::Catalog>();
      if (acquire::Status s = GenerateCatalog(spec, reference.get());
          !s.ok()) {
        errors.push_back("replay catalog: " + s.ToString());
      }
    }
    std::vector<AcqRequest> replay;
    for (size_t i = 0; i < kReplayAcqs; ++i) {
      replay.push_back(templates.empty()
                           ? MakeAcq(spec, args.seed, kMeasuredStream, i)
                           : templates[i % templates.size()]);
    }
    std::vector<ReplayResult> traced;
    std::vector<double> untraced_ms;
    double unaccounted_max = 0.0;
    for (size_t i = 0; i < replay.size(); ++i) {
      acquire::Result<ReplayResult> plain = acquire::Status::Internal("");
      acquire::Result<ReplayResult> timed = acquire::Status::Internal("");
      // Alternate which goes first so warm caches favour neither.
      if (i % 2 == 0) plain = ReplayAcq(*reference, replay[i], nullptr, 0);
      timed = ReplayAcq(*reference, replay[i], &tracer, i + 1);
      if (i % 2 == 1) plain = ReplayAcq(*reference, replay[i], nullptr, 0);
      if (!plain.ok() || !timed.ok()) {
        errors.push_back("replay failed");
        continue;
      }
      if (!DiffReports(timed->report, plain->report).empty() ||
          timed->queries_explored != plain->queries_explored ||
          timed->cell_queries != plain->cell_queries) {
        errors.push_back(StringFormat("replay %zu: wrapped layer changed "
                                      "the result", i));
      }
      // The root span wraps only these four calls, so this bounds the
      // tracer's own gaps; trace.overhead_frac compares with a plain
      // stopwatch.
      const double accounted = timed->plan_ms + timed->prepare_ms +
                               timed->search_ms + timed->render_ms;
      const double unaccounted =
          (timed->total_ms - accounted) / timed->total_ms;
      unaccounted_max = std::max(unaccounted_max, unaccounted);
      untraced_ms.push_back(plain->total_ms);
      traced.push_back(std::move(*timed));
    }
    if (unaccounted_max > kAccountingTolerance) {
      errors.push_back(StringFormat(
          "accounting: %.1f%% of an ACQ span is outside plan, prepare, "
          "search and render",
          unaccounted_max * 100.0));
    }
    auto med = [&](double ReplayResult::*field) {
      std::vector<double> v;
      for (const ReplayResult& r : traced) v.push_back(r.*field);
      return Percentile(v, 0.5);
    };
    auto mean_count = [&](uint64_t ReplayResult::*field) {
      std::vector<double> v;
      for (const ReplayResult& r : traced) {
        v.push_back(static_cast<double>(r.*field));
      }
      return Mean(v);
    };
    double total = 0.0, prepare = 0.0, search = 0.0, calls = 0.0, cells = 0.0;
    for (const ReplayResult& r : traced) {
      total += r.total_ms;
      prepare += r.prepare_ms;
      search += r.search_ms;
      calls += static_cast<double>(r.cell_calls);
      cells += static_cast<double>(r.cells);
    }
    const double acqs_served = static_cast<double>(acq.count);
    const double hits = StatsDelta(stats_before, stats_after, "cache_hits");
    const double misses =
        StatsDelta(stats_before, stats_after, "cache_misses");
    const double appends = StatsDelta(stats_before, stats_after, "appends");
    const double rows = StatsDelta(stats_before, stats_after, "append_rows");
    auto ratio = [](double num, double den) {
      return den > 0.0 ? num / den : 0.0;
    };
    metrics = {
        {"sql.plan_ms", med(&ReplayResult::plan_ms), "ms"},
        {"index.prepare_ms", med(&ReplayResult::prepare_ms), "ms"},
        {"index.prepare_share", ratio(prepare, total), "ratio"},
        {"index.served_prepare_ms_per_acq",
         ratio(StatsDelta(stats_before, stats_after, "prepare_ms"),
               acqs_served),
         "ms"},
        {"index.delta_rows",
         StatsDelta(stats_before, stats_after, "delta_rows"), "count"},
        {"index.delta_merges",
         StatsDelta(stats_before, stats_after, "delta_merges"), "count"},
        {"exec.cells_ms", med(&ReplayResult::cells_ms), "ms"},
        {"exec.cell_calls", mean_count(&ReplayResult::cell_calls), "count"},
        {"exec.cells_per_call", ratio(cells, calls), "count"},
        {"exec.box_calls", mean_count(&ReplayResult::box_calls), "count"},
        {"exec.tuples_scanned_per_acq",
         mean_count(&ReplayResult::tuples_scanned), "count"},
        {"core.search_ms", med(&ReplayResult::search_ms), "ms"},
        {"core.search_share", ratio(search, total), "ratio"},
        {"core.self_ms", med(&ReplayResult::self_ms), "ms"},
        {"core.merge_ms", med(&ReplayResult::merge_ms), "ms"},
        {"core.expand_ms", med(&ReplayResult::expand_ms), "ms"},
        {"core.coords_per_acq", mean_count(&ReplayResult::queries_explored),
         "count"},
        {"server.overhead_ms", Percentile(overhead_ms, 0.5), "ms"},
        {"server.acq_wall_p50_ms", acq_wall.p50, "ms"},
        {"server.render_ms", med(&ReplayResult::render_ms), "ms"},
        {"server.cache_hit_ratio", ratio(hits, hits + misses), "ratio"},
        {"server.failed_frac",
         ratio(static_cast<double>(failed), static_cast<double>(attempted)),
         "ratio"},
        {"storage.append_cpu_p50_ms", app.p50, "ms"},
        {"storage.append_cpu_p90_ms", app.p90, "ms"},
        {"storage.wal_bytes_per_row",
         ratio(StatsDelta(stats_before, stats_after, "wal_bytes"), rows),
         "bytes"},
        {"storage.wal_syncs_per_append",
         ratio(StatsDelta(stats_before, stats_after, "wal_syncs"), appends),
         "ratio"},
        {"trace.overhead_frac",
         ratio(med(&ReplayResult::total_ms), Percentile(untraced_ms, 0.5)) -
             1.0,
         "ratio"},
        {"trace.unaccounted_frac", unaccounted_max, "ratio"},
    };
    std::filesystem::create_directories(args.out_dir);
    WriteSpans(StringFormat("%s/trace-%s-seed%llu.jsonl",
                            args.out_dir.c_str(), spec.name.c_str(),
                            static_cast<unsigned long long>(args.seed)),
               tracer.spans());
  }

  for (const std::string& e : errors) std::printf("error: %s\n", e.c_str());
  JsonValue out_metrics = JsonValue::Object();
  for (const Metric& m : metrics) {
    std::printf("metric %-34s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
    JsonValue entry = JsonValue::Object();
    entry.Set("value", JsonValue::Number(m.value));
    entry.Set("unit", JsonValue::Str(m.unit));
    out_metrics.Set(m.name, std::move(entry));
  }
  JsonValue result = JsonValue::Object();
  result.Set("correct", JsonValue::Bool(errors.empty()));
  result.Set("attempted", JsonValue::Number(static_cast<double>(attempted)));
  result.Set("failed", JsonValue::Number(static_cast<double>(failed)));
  result.Set("metrics", std::move(out_metrics));
  std::printf("%s\n", result.Dump().c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: acq_perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--out-dir <dir>]\n"
                 "       acq_perfbench --selftest\n");
    return 2;
  }
  if (args.selftest) {
    std::string failure;
    const bool ok = perfbench::RunSelfTests(&failure);
    std::printf("selftest %s%s\n", ok ? "passed" : "FAILED: ",
                failure.c_str());
    return ok ? 0 : 1;
  }
  const perfbench::WorkloadSpec* spec =
      perfbench::FindWorkload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  return perfbench::Run(args, *spec);
}
