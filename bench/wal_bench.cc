// Durability tax: append throughput of the per-tenant WAL under each fsync
// policy (never / batch / always), the CRC32C frame checksum rate, and
// replay speed at recovery. The interesting ratio is always-vs-batch —
// what a strict durability guarantee costs per acked APPEND — and
// replay-vs-append, which bounds restart time as a multiple of ingest
// time. Before any number is reported the replayed log is asserted
// bit-exact: every appended record comes back, in order, with the same
// generation stamps, and the tail is not torn.
//
// Emits one line of JSON on stdout (committed as BENCH_wal.json), with a
// "host" object; human-readable progress goes to stderr. ACQ_BENCH_ROWS scales the
// record count for a quick smoke pass.

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_util.h"
#include "storage/wal.h"

namespace acquire {
namespace bench {
namespace {

namespace fs = std::filesystem;

constexpr size_t kRowsPerRecord = 8;

WalAppendRecord MakeRecord(uint64_t generation) {
  WalAppendRecord record;
  record.table = "users";
  record.generation = generation;
  record.rows.reserve(kRowsPerRecord);
  for (size_t r = 0; r < kRowsPerRecord; ++r) {
    std::vector<Value> row;
    row.emplace_back(static_cast<int64_t>(9000 + generation * 8 + r));
    row.emplace_back(static_cast<int64_t>(20 + r));
    row.emplace_back(55000.0 + static_cast<double>(r));
    row.emplace_back(0.25 + 0.01 * static_cast<double>(r));
    row.emplace_back(static_cast<int64_t>(120 + r));
    row.emplace_back(std::string("portland"));
    row.emplace_back(std::string("f"));
    row.emplace_back(std::string("bs"));
    row.emplace_back(std::string("cooking"));
    record.rows.push_back(std::move(row));
  }
  return record;
}

struct PolicyRun {
  std::string policy;
  size_t records = 0;
  double append_ms = 0.0;
  uint64_t bytes = 0;
  uint64_t syncs = 0;
};

PolicyRun RunPolicy(const std::string& dir, FsyncPolicy policy,
                    size_t records) {
  PolicyRun run;
  run.policy = FsyncPolicyToString(policy);
  run.records = records;
  const std::string path =
      dir + "/wal-" + FsyncPolicyToString(policy) + ".log";
  auto writer = WalWriter::Open(path, policy);
  ACQ_CHECK(writer.ok()) << writer.status().ToString();
  Stopwatch sw;
  for (size_t i = 0; i < records; ++i) {
    ACQ_CHECK((*writer)->Append(MakeRecord(i + 1)).ok());
  }
  ACQ_CHECK((*writer)->Sync().ok());
  run.append_ms = sw.ElapsedMillis();
  run.bytes = (*writer)->bytes();
  run.syncs = (*writer)->syncs();
  return run;
}

double PerSec(size_t count, double ms) {
  return ms > 0.0 ? static_cast<double>(count) * 1000.0 / ms : 0.0;
}

}  // namespace

int Main() {
  const size_t records = EnvRows(20000) / kRowsPerRecord;
  // fsync-per-record is orders of magnitude slower; a shorter run still
  // exposes the per-record sync cost without minutes of wall clock.
  const size_t always_records = std::max<size_t>(records / 20, 16);
  const std::string dir =
      (fs::temp_directory_path() / "acq_wal_bench").string();
  fs::remove_all(dir);
  fs::create_directories(dir);

  std::vector<PolicyRun> runs;
  runs.push_back(RunPolicy(dir, FsyncPolicy::kNever, records));
  runs.push_back(RunPolicy(dir, FsyncPolicy::kBatch, records));
  runs.push_back(RunPolicy(dir, FsyncPolicy::kAlways, always_records));

  // Replay the kNever log and prove it bit-exact before timing means
  // anything: same record count, same row count, generations in sequence,
  // no torn tail.
  const std::string replay_path = dir + "/wal-never.log";
  uint64_t next_generation = 1;
  size_t replayed_rows = 0;
  WalReplayStats replay_stats;
  Stopwatch replay_sw;
  Status replayed = ReplayWal(
      replay_path,
      [&](const WalAppendRecord& record) -> Status {
        ACQ_CHECK(record.generation == next_generation)
            << "generation stamps out of order";
        ACQ_CHECK(record.table == "users");
        ++next_generation;
        replayed_rows += record.rows.size();
        return Status::OK();
      },
      &replay_stats);
  const double replay_ms = replay_sw.ElapsedMillis();
  ACQ_CHECK(replayed.ok()) << replayed.ToString();
  ACQ_CHECK(replay_stats.records == records) << "lost records on replay";
  ACQ_CHECK(replayed_rows == records * kRowsPerRecord);
  ACQ_CHECK(!replay_stats.torn_tail) << "clean log reported torn";

  // Raw CRC32C rate over the same payload volume (the per-frame integrity
  // cost inside every append and every replay step).
  const std::string payload(1 << 20, 'x');
  Stopwatch crc_sw;
  uint32_t crc = 0;
  constexpr int kCrcReps = 64;
  for (int i = 0; i < kCrcReps; ++i) {
    crc = Crc32c(payload.data(), payload.size(), crc);
  }
  const double crc_ms = crc_sw.ElapsedMillis();
  ACQ_CHECK(crc != 0);
  const double crc_mb_s =
      PerSec(kCrcReps * payload.size(), crc_ms) / (1024.0 * 1024.0);

  TablePrinter table({"policy", "records", "rec/s", "MB/s", "syncs"});
  std::string json = StringFormat(
      "{\"bench\":\"wal\",\"rows_per_record\":%zu,\"policies\":[",
      kRowsPerRecord);
  for (size_t i = 0; i < runs.size(); ++i) {
    const PolicyRun& run = runs[i];
    const double rec_s = PerSec(run.records, run.append_ms);
    const double mb_s =
        PerSec(run.bytes, run.append_ms) / (1024.0 * 1024.0);
    table.AddRow({run.policy, StringFormat("%zu", run.records),
                  StringFormat("%.0f", rec_s), StringFormat("%.1f", mb_s),
                  StringFormat("%llu",
                               static_cast<unsigned long long>(run.syncs))});
    json += StringFormat(
        "%s{\"policy\":\"%s\",\"records\":%zu,\"append_ms\":%.3f,"
        "\"records_per_s\":%.1f,\"mb_per_s\":%.2f,\"syncs\":%llu}",
        i == 0 ? "" : ",", run.policy.c_str(), run.records, run.append_ms,
        rec_s, mb_s, static_cast<unsigned long long>(run.syncs));
  }
  const double replay_rec_s = PerSec(records, replay_ms);
  json += StringFormat(
      "],\"replay\":{\"records\":%zu,\"replay_ms\":%.3f,"
      "\"records_per_s\":%.1f},\"crc32c_mb_per_s\":%.1f,\"host\":%s}",
      records, replay_ms, replay_rec_s, crc_mb_s, HostJson().c_str());
  fprintf(stderr, "replay: %zu records in %.2fms (%.0f rec/s), crc32c %.0f "
          "MB/s\n",
          records, replay_ms, replay_rec_s, crc_mb_s);
  table.Print();
  printf("%s\n", json.c_str());
  fs::remove_all(dir);
  return 0;
}

}  // namespace bench
}  // namespace acquire

int main() { return acquire::bench::Main(); }
