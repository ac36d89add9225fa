#include "server/result_cache.h"

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <sstream>
#include <utility>
#include <vector>

#include "common/string_util.h"
#include "sql/printer.h"
#include "storage/wal.h"

namespace acquire {

namespace {

JsonValue RefinedQueryToJson(const AcqTask* task, const RefinedQuery& query) {
  JsonValue out = JsonValue::Object();
  if (task != nullptr) {
    out.Set("sql", JsonValue::Str(RenderRefinedSql(*task, query)));
  }
  out.Set("predicates", JsonValue::Str(query.description));
  out.Set("aggregate", JsonValue::Number(query.aggregate));
  out.Set("qscore", JsonValue::Number(query.qscore));
  out.Set("error", JsonValue::Number(query.error));
  return out;
}

}  // namespace

JsonValue BuildReportJson(const AcqOutcome& outcome, const AcqTask* task,
                          double wall_ms) {
  const AcquireResult& result = outcome.result;
  // Contracted runs express their answers in the contraction task's
  // dimensions; render against that task so the SQL is runnable.
  const AcqTask* display_task = outcome.mode == AcqMode::kContracted
                                    ? outcome.contraction_task.get()
                                    : task;
  JsonValue report = JsonValue::Object();
  report.Set("mode", JsonValue::Str(AcqModeToString(outcome.mode)));
  report.Set("termination",
             JsonValue::Str(RunTerminationToString(result.termination)));
  report.Set("satisfied", JsonValue::Bool(result.satisfied));
  report.Set("original_aggregate",
             JsonValue::Number(outcome.original_aggregate));
  report.Set("best", RefinedQueryToJson(display_task, result.best));
  JsonValue answers = JsonValue::Array();
  for (const RefinedQuery& query : result.queries) {
    answers.Append(RefinedQueryToJson(display_task, query));
  }
  report.Set("answers", std::move(answers));
  report.Set("queries_explored",
             JsonValue::Number(static_cast<double>(result.queries_explored)));
  report.Set("cell_queries",
             JsonValue::Number(static_cast<double>(result.cell_queries)));
  report.Set("elapsed_ms", JsonValue::Number(result.elapsed_ms));
  report.Set("wall_ms", JsonValue::Number(wall_ms));
  return report;
}

ResultCache::ResultCache(uint64_t limit_bytes) : limit_(limit_bytes) {}

void ResultCache::set_limit_bytes(uint64_t bytes) {
  limit_.store(bytes, std::memory_order_relaxed);
  if (bytes == 0) {
    Clear();
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  EvictLocked();
}

CachedResultPtr ResultCache::Lookup(const TaskFingerprint& fp) {
  if (!enabled()) return nullptr;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(fp);
  if (it == index_.end()) {
    ++misses_;
    return nullptr;
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  ++hits_;
  return it->second->result;
}

void ResultCache::Insert(const TaskFingerprint& fp, CachedResultPtr result) {
  if (!enabled() || result == nullptr) return;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(fp);
  if (it != index_.end()) {
    Entry& entry = *it->second;
    bytes_ -= entry.result->bytes;
    bytes_ += result->bytes;
    entry.result = std::move(result);
    lru_.splice(lru_.begin(), lru_, it->second);
  } else {
    bytes_ += result->bytes;
    lru_.push_front(Entry{fp, std::move(result)});
    index_.emplace(fp, lru_.begin());
  }
  EvictLocked();
}

void ResultCache::EvictLocked() {
  const uint64_t limit = limit_.load(std::memory_order_relaxed);
  while (!lru_.empty() && bytes_ > limit) {
    const Entry& victim = lru_.back();
    bytes_ -= victim.result->bytes;
    index_.erase(victim.fp);
    lru_.pop_back();
    ++evictions_;
  }
}

void ResultCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  lru_.clear();
  index_.clear();
  bytes_ = 0;
}

namespace {
constexpr const char kCacheFileFormat[] = "acq-cache-v";
constexpr const char kCacheFileHeader[] = "acq-cache-v3";
constexpr const char kCacheCrcPrefix[] = "crc ";
}  // namespace

Status ResultCache::SaveToFile(const std::string& path) const {
  // The whole snapshot is staged in memory, sealed with a CRC over the
  // body, and published via temp-file + fsync + rename: a crash mid-save
  // leaves either the previous snapshot or none, never a torn file that a
  // later start would half-load.
  std::string body;
  // Two lines per entry: a metadata line of exact decimal u64 fields (JSON
  // numbers are doubles and would corrupt 64-bit fingerprints), then the
  // report as held — a Dump() line, single-line by contract, so the format
  // stays newline-framed. Least recently used first: LoadFromFile inserts
  // in file order, which leaves the most recent entry at the front.
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto it = lru_.rbegin(); it != lru_.rend(); ++it) {
      const CachedResult& r = *it->result;
      char meta[256];
      std::snprintf(meta, sizeof(meta),
                    "%" PRIu64 " %" PRIu64 " %" PRIu64 " %" PRIu64
                    " %" PRIu64 " %zu",
                    it->fp.hi, it->fp.lo, r.generation, r.queries_explored,
                    r.cell_queries, r.bytes);
      body += meta;
      body += '\n';
      body += r.report;
      body += '\n';
    }
  }
  std::string contents = kCacheFileHeader;
  contents += '\n';
  contents += body;
  contents += StringFormat("%s%08x\n", kCacheCrcPrefix,
                           Crc32c(body.data(), body.size()));
  return AtomicWriteFile(path, contents);
}

Status ResultCache::LoadFromFile(const std::string& path,
                                 uint64_t current_generation, size_t* loaded,
                                 size_t* dropped) {
  if (loaded != nullptr) *loaded = 0;
  if (dropped != nullptr) *dropped = 0;
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::NotFound(
        StringFormat("no cache file at %s", path.c_str()));
  }
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  if (!in && !in.eof()) {
    return Status::IOError(
        StringFormat("cannot read cache file %s", path.c_str()));
  }
  // Verify the frame before touching a single entry: header line first,
  // trailing "crc %08x" line last, checksum over everything in between.
  const std::string header_line = std::string(kCacheFileHeader) + "\n";
  if (contents.compare(0, header_line.size(), header_line) != 0) {
    // Another version's snapshot is named as such, not called headerless.
    if (contents.compare(0, std::strlen(kCacheFileFormat), kCacheFileFormat) ==
        0) {
      const std::string found =
          contents.substr(0, std::min<size_t>(contents.find('\n'), 32));
      return Status::ParseError(StringFormat(
          "cache file %s: format '%s', this build reads '%s'", path.c_str(),
          found.c_str(), kCacheFileHeader));
    }
    return Status::ParseError(StringFormat(
        "cache file %s: missing '%s' header", path.c_str(),
        kCacheFileHeader));
  }
  if (contents.empty() || contents.back() != '\n') {
    return Status::ParseError(StringFormat(
        "cache file %s: truncated (no trailing checksum line)",
        path.c_str()));
  }
  const size_t prev_newline = contents.rfind('\n', contents.size() - 2);
  const size_t crc_line_start =
      prev_newline == std::string::npos ? header_line.size()
                                        : prev_newline + 1;
  const std::string crc_line =
      contents.substr(crc_line_start, contents.size() - crc_line_start);
  unsigned int stored_crc = 0;
  if (crc_line.compare(0, std::strlen(kCacheCrcPrefix), kCacheCrcPrefix) !=
          0 ||
      std::sscanf(crc_line.c_str() + std::strlen(kCacheCrcPrefix), "%8x",
                  &stored_crc) != 1) {
    return Status::ParseError(StringFormat(
        "cache file %s: truncated (no trailing checksum line)",
        path.c_str()));
  }
  const char* body_begin = contents.data() + header_line.size();
  const size_t body_size = crc_line_start - header_line.size();
  const uint32_t actual_crc = Crc32c(body_begin, body_size);
  if (actual_crc != static_cast<uint32_t>(stored_crc)) {
    return Status::ParseError(StringFormat(
        "cache file %s: checksum mismatch (stored %08x, computed %08x) — "
        "torn or corrupted snapshot rejected",
        path.c_str(), stored_crc, actual_crc));
  }
  std::istringstream body_in(std::string(body_begin, body_size));
  std::string line;
  size_t entry_no = 0;
  // Nothing is inserted until every entry parsed: one bad line rejects the
  // whole file.
  std::vector<std::pair<TaskFingerprint, CachedResultPtr>> entries;
  while (std::getline(body_in, line)) {
    if (line.empty()) continue;
    ++entry_no;
    TaskFingerprint fp;
    auto result = std::make_shared<CachedResult>();
    unsigned long long hi = 0, lo = 0, gen = 0, explored = 0, cells = 0,
                       bytes = 0;
    if (std::sscanf(line.c_str(), "%llu %llu %llu %llu %llu %llu", &hi, &lo,
                    &gen, &explored, &cells, &bytes) != 6) {
      return Status::ParseError(StringFormat(
          "cache file %s entry %zu: bad metadata line", path.c_str(),
          entry_no));
    }
    std::string report_line;
    if (!std::getline(body_in, report_line)) {
      return Status::ParseError(StringFormat(
          "cache file %s entry %zu: truncated (metadata without report)",
          path.c_str(), entry_no));
    }
    Result<JsonValue> report = JsonValue::Parse(report_line);
    if (!report.ok()) {
      return Status::ParseError(StringFormat(
          "cache file %s entry %zu: %s", path.c_str(), entry_no,
          report.status().message().c_str()));
    }
    if (static_cast<uint64_t>(gen) != current_generation) {
      // The catalog moved on since this snapshot: the fingerprint can never
      // be recomputed by a live submit, so the entry would only waste bytes.
      if (dropped != nullptr) ++(*dropped);
      continue;
    }
    fp.hi = static_cast<uint64_t>(hi);
    fp.lo = static_cast<uint64_t>(lo);
    // Re-dumped once here, so every spliced report is Dump() output.
    result->report = report->Dump();
    result->queries_explored = static_cast<uint64_t>(explored);
    result->cell_queries = static_cast<uint64_t>(cells);
    result->bytes = static_cast<size_t>(bytes);
    result->generation = static_cast<uint64_t>(gen);
    entries.emplace_back(fp, std::move(result));
  }
  for (auto& [fp, result] : entries) Insert(fp, std::move(result));
  if (loaded != nullptr) *loaded = entries.size();
  return Status::OK();
}

ResultCacheStats ResultCache::stats() const {
  ResultCacheStats stats;
  stats.limit_bytes = limit_.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  stats.hits = hits_;
  stats.misses = misses_;
  stats.evictions = evictions_;
  stats.entries = lru_.size();
  stats.bytes = bytes_;
  return stats;
}

}  // namespace acquire
