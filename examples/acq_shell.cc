// Interactive ACQ shell: the paper's "desired user experience" (Section 1)
// as a REPL. Type an Aggregation Constrained Query and get back runnable
// refined SQL alternatives; the engine decides between returning the
// original query, expanding it, or contracting it (Figure 2).
//
//   ./build/examples/acq_shell            # interactive
//   echo "...sql..." | ./build/examples/acq_shell
//
// Commands:
//   \gen tpch <rows>              generate the TPC-H subset tables
//   \gen users <rows>             generate the users table
//   \gen patients <rows>          generate the patients table
//   \load <table> <file> <schema> load a CSV (schema: name:type,...)
//   \append <table> <v1,v2,...>   append one row (live ingestion; bumps the
//                                 catalog generation, so cached transcripts
//                                 for the old data stop matching)
//   \save <table> <file>          write a table to CSV
//   \savedb / \loaddb <dir>       persist / restore the whole catalog
//   \tables                       list tables
//   \show <table> [n]             print the first n rows (default 5)
//   \explain <sql>                show the planned task and grid geometry
//   \attach <id> gen <kind> [rows]  attach a tenant with its own generated
//                                 catalog (or: \attach <id> loaddb <dir>);
//                                 the new tenant becomes active
//   \detach <id>                  drop an attached tenant's catalog
//   \tenant [id]                  switch the active tenant / list tenants;
//                                 every command (and the transcript cache)
//                                 is scoped to the active tenant
//   \report [i]                   per-predicate change report of answer i
//   \materialize <i> <file>       execute answer i, write its tuples
//   \set gamma|delta|max_explored|memory_budget|cache <value>
//                                 tune thresholds / budgets (memory_budget
//                                 and cache in bytes, 0 = unlimited /
//                                 cache off). With cache on, re-running a
//                                 query whose task fingerprints identically
//                                 (core/fingerprint.h) replays the stored
//                                 transcript of the completed run instead
//                                 of searching again.
//   \set progress <ms>            live per-layer progress lines on stderr
//                                 while a run searches (0 = every drained
//                                 layer, negative = off). Defaults to
//                                 100 ms when stdin is a terminal, off
//                                 otherwise — stdout transcripts stay
//                                 byte-identical either way.
//   \help                         this text
//   \quit                         exit
// Anything else is parsed as ACQ SQL (CONSTRAINT / NOREFINE).
//
// Exit status: 0, or 4 when any run stopped with resource_exhausted (its
// best-so-far answer was still printed).

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <deque>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <unordered_map>

#include "common/string_util.h"
#include "core/fingerprint.h"
#include "core/processor.h"
#include "core/run_context.h"
#include "core/report.h"
#include "exec/materialize.h"
#include "sql/binder.h"
#include "sql/explain.h"
#include "sql/parser.h"
#include "server/tenant.h"
#include "sql/printer.h"
#include "storage/csv.h"
#include "storage/persistence.h"
#include "workload/tpch_gen.h"
#include "workload/users_gen.h"

using namespace acquire;  // NOLINT — brevity in example code

namespace {

Result<Schema> ParseSchemaSpec(const std::string& spec) {
  std::vector<Field> fields;
  for (const std::string& part : Split(spec, ',')) {
    std::vector<std::string> kv = Split(part, ':');
    if (kv.size() != 2) {
      return Status::InvalidArgument("bad schema field: " + part);
    }
    std::string name(Trim(kv[0]));
    std::string type = ToLower(Trim(kv[1]));
    DataType dt;
    if (type == "int" || type == "int64") {
      dt = DataType::kInt64;
    } else if (type == "double" || type == "float" || type == "real") {
      dt = DataType::kDouble;
    } else if (type == "string" || type == "text") {
      dt = DataType::kString;
    } else {
      return Status::InvalidArgument("unknown type: " + type);
    }
    fields.push_back({name, dt, ""});
  }
  return Schema(std::move(fields));
}

class Shell {
 public:
  int Run() {
    printf("ACQUIRE shell — type \\help for commands.\n");
    std::string line;
    std::string statement;
    while (ReadLine(&line)) {
      std::string_view trimmed = Trim(line);
      if (trimmed.empty()) continue;
      if (trimmed[0] == '\\') {
        if (!HandleCommand(std::string(trimmed))) return exit_code_;
        continue;
      }
      // SQL statements may span lines; a terminating ';' submits.
      statement += line;
      statement += ' ';
      if (trimmed.back() != ';') continue;
      RunSql(statement);
      statement.clear();
    }
    if (!Trim(statement).empty()) RunSql(statement);
    return exit_code_;
  }

 private:
  bool ReadLine(std::string* line) {
    if (interactive_) printf("acq> ");
    return static_cast<bool>(std::getline(std::cin, *line));
  }

  void Report(const Status& status) {
    if (!status.ok()) printf("error: %s\n", status.ToString().c_str());
  }

  // Returns false to quit.
  bool HandleCommand(const std::string& command) {
    std::istringstream in(command);
    std::string name;
    in >> name;
    if (name == "\\quit" || name == "\\q") return false;
    if (name == "\\help") {
      printf("\\gen tpch|users|patients <rows>, \\load <t> <f> <schema>, "
             "\\append <t> <v1,v2,...>, "
             "\\save <t> <f>, \\savedb <dir>, \\loaddb <dir>, \\tables, "
             "\\show <t> [n], \\explain <sql>, "
             "\\attach <id> gen <kind> [rows] | loaddb <dir>, "
             "\\detach <id>, \\tenant [id], "
             "\\set gamma|delta|max_explored|memory_budget|cache"
             "|progress <v>, "
             "\\quit\n");
      return true;
    }
    if (name == "\\report") {
      size_t index = 1;
      in >> index;
      if (last_task_ == nullptr || last_result_.queries.empty()) {
        printf("no previous ACQ result\n");
        return true;
      }
      if (index < 1 || index > last_result_.queries.size()) {
        printf("answer index out of range (1..%zu)\n",
               last_result_.queries.size());
        return true;
      }
      printf("%s", RefinementReport(*last_task_,
                                    last_result_.queries[index - 1])
                       .c_str());
      return true;
    }
    if (name == "\\materialize") {
      size_t index = 1;
      std::string file;
      in >> index >> file;
      if (last_task_ == nullptr || last_result_.queries.empty()) {
        printf("no previous ACQ result\n");
        return true;
      }
      if (index < 1 || index > last_result_.queries.size() || file.empty()) {
        printf("usage: \\materialize <answer#> <file.csv>\n");
        return true;
      }
      auto tuples = MaterializeRefinedQuery(
          *last_task_, last_result_.queries[index - 1].pscores);
      if (!tuples.ok()) {
        Report(tuples.status());
        return true;
      }
      Report(WriteCsv(**tuples, file));
      printf("wrote %zu tuples to %s\n", (*tuples)->num_rows(), file.c_str());
      return true;
    }
    if (name == "\\explain") {
      std::string sql;
      std::getline(in, sql);
      Binder binder(&catalog());
      auto task = binder.PlanSql(sql);
      if (!task.ok()) {
        Report(task.status());
        return true;
      }
      printf("%s", ExplainTask(*task, options_).c_str());
      return true;
    }
    if (name == "\\attach") {
      std::string id, mode;
      in >> id >> mode;
      if (id.empty() || mode.empty()) {
        printf("usage: \\attach <id> gen <tpch|users|patients> [rows] | "
               "\\attach <id> loaddb <dir>\n");
        return true;
      }
      if (!IsValidTenantId(id) || id == TenantRegistry::kDefaultId) {
        printf("invalid tenant id %s\n", id.c_str());
        return true;
      }
      if (tenants_.count(id) != 0) {
        printf("tenant %s is already attached\n", id.c_str());
        return true;
      }
      auto attached = std::make_unique<Catalog>();
      Status built = Status::OK();
      if (mode == "gen") {
        std::string kind;
        size_t rows = 0;
        in >> kind >> rows;
        if (rows == 0) rows = 10000;
        if (kind == "tpch") {
          TpchOptions options;
          options.lineitems = rows;
          options.suppliers = std::max<size_t>(100, rows / 200);
          options.parts = std::max<size_t>(200, rows / 100);
          built = GenerateTpch(options, attached.get());
        } else if (kind == "users") {
          UsersOptions options;
          options.users = rows;
          built = GenerateUsers(options, attached.get());
        } else if (kind == "patients") {
          PatientsOptions options;
          options.patients = rows;
          built = GeneratePatients(options, attached.get());
        } else {
          printf("unknown generator: %s\n", kind.c_str());
          return true;
        }
      } else if (mode == "loaddb") {
        std::string dir;
        in >> dir;
        built = LoadCatalog(dir, attached.get());
      } else {
        printf("usage: \\attach <id> gen <kind> [rows] | "
               "\\attach <id> loaddb <dir>\n");
        return true;
      }
      if (!built.ok()) {
        Report(built);
        return true;
      }
      tenants_.emplace(id, std::move(attached));
      tenant_ = id;
      printf("attached tenant %s (now active)\n", id.c_str());
      return true;
    }
    if (name == "\\detach") {
      std::string id;
      in >> id;
      auto it = tenants_.find(id);
      if (it == tenants_.end()) {
        printf("no such tenant: %s\n", id.c_str());
        return true;
      }
      tenants_.erase(it);
      if (tenant_ == id) tenant_ = TenantRegistry::kDefaultId;
      printf("detached tenant %s (active: %s)\n", id.c_str(),
             tenant_.c_str());
      return true;
    }
    if (name == "\\tenant") {
      std::string id;
      in >> id;
      if (id.empty()) {
        printf("active tenant: %s\n", tenant_.c_str());
        printf("  %s (%zu tables)\n", TenantRegistry::kDefaultId,
               default_catalog_.TableNames().size());
        for (const auto& [tid, cat] : tenants_) {
          printf("  %s (%zu tables)\n", tid.c_str(),
                 cat->TableNames().size());
        }
        return true;
      }
      if (id != TenantRegistry::kDefaultId && tenants_.count(id) == 0) {
        printf("no such tenant: %s (\\attach it first)\n", id.c_str());
        return true;
      }
      tenant_ = id;
      printf("active tenant: %s\n", tenant_.c_str());
      return true;
    }
    if (name == "\\savedb") {
      std::string dir;
      in >> dir;
      Report(SaveCatalog(catalog(), dir));
      return true;
    }
    if (name == "\\loaddb") {
      std::string dir;
      in >> dir;
      Report(LoadCatalog(dir, &catalog()));
      return true;
    }
    if (name == "\\gen") {
      std::string kind;
      size_t rows = 0;
      in >> kind >> rows;
      if (rows == 0) rows = 10000;
      if (kind == "tpch") {
        TpchOptions options;
        options.lineitems = rows;
        options.suppliers = std::max<size_t>(100, rows / 200);
        options.parts = std::max<size_t>(200, rows / 100);
        Report(GenerateTpch(options, &catalog()));
      } else if (kind == "users") {
        UsersOptions options;
        options.users = rows;
        Report(GenerateUsers(options, &catalog()));
      } else if (kind == "patients") {
        PatientsOptions options;
        options.patients = rows;
        Report(GeneratePatients(options, &catalog()));
      } else {
        printf("unknown generator: %s\n", kind.c_str());
      }
      return true;
    }
    if (name == "\\load") {
      std::string table, file, schema_spec;
      in >> table >> file >> schema_spec;
      auto schema = ParseSchemaSpec(schema_spec);
      if (!schema.ok()) {
        Report(schema.status());
        return true;
      }
      auto loaded = ReadCsv(file, table, *schema);
      if (!loaded.ok()) {
        Report(loaded.status());
        return true;
      }
      catalog().PutTable(*loaded);
      printf("loaded %zu rows into %s\n", (*loaded)->num_rows(),
             table.c_str());
      return true;
    }
    if (name == "\\append") {
      std::string table;
      in >> table;
      std::string rest;
      std::getline(in, rest);
      const std::string vals(Trim(rest));
      auto t = catalog().GetTable(table);
      if (!t.ok()) {
        Report(t.status());
        return true;
      }
      if (vals.empty()) {
        printf("usage: \\append <table> <v1,v2,...>\n");
        return true;
      }
      const Schema& schema = (*t)->schema();
      std::vector<std::string> parts = Split(vals, ',');
      if (parts.size() != schema.num_fields()) {
        printf("row has %zu values, table %s has %zu columns\n",
               parts.size(), table.c_str(), schema.num_fields());
        return true;
      }
      std::vector<Value> row;
      row.reserve(parts.size());
      for (size_t i = 0; i < parts.size(); ++i) {
        const std::string text = std::string(Trim(parts[i]));
        switch (schema.field(i).type) {
          case DataType::kInt64:
            row.emplace_back(
                static_cast<int64_t>(std::strtoll(text.c_str(), nullptr,
                                                  10)));
            break;
          case DataType::kDouble:
            row.emplace_back(std::strtod(text.c_str(), nullptr));
            break;
          case DataType::kString:
            row.emplace_back(text);
            break;
        }
      }
      Status appended = catalog().AppendRows(table, {row});
      if (!appended.ok()) {
        Report(appended);
        return true;
      }
      // The shell's own result cache keys on the catalog generation through
      // FingerprintTask, so stale entries simply stop matching; nothing to
      // flush by hand.
      printf("appended 1 row to %s (%zu rows, generation %llu)\n",
             table.c_str(), (*t)->num_rows(),
             static_cast<unsigned long long>(catalog().generation()));
      return true;
    }
    if (name == "\\save") {
      std::string table, file;
      in >> table >> file;
      auto t = catalog().GetTable(table);
      if (!t.ok()) {
        Report(t.status());
        return true;
      }
      Report(WriteCsv(**t, file));
      return true;
    }
    if (name == "\\tables") {
      for (const std::string& t : catalog().TableNames()) {
        auto table = catalog().GetTable(t);
        printf("  %s (%zu rows) %s\n", t.c_str(), (*table)->num_rows(),
               (*table)->schema().ToString().c_str());
      }
      return true;
    }
    if (name == "\\show") {
      std::string table;
      size_t n = 5;
      in >> table >> n;
      auto t = catalog().GetTable(table);
      if (!t.ok()) {
        Report(t.status());
        return true;
      }
      printf("%s", (*t)->ToString(n == 0 ? 5 : n).c_str());
      return true;
    }
    if (name == "\\set") {
      std::string key;
      in >> key;
      double value = 0.0;
      in >> value;
      if (key == "gamma" && value > 0) {
        options_.gamma = value;
      } else if (key == "progress") {
        progress_interval_ms_ = value;
      } else if (key == "delta" && value >= 0) {
        options_.delta = value;
      } else if (key == "max_explored" && value >= 0) {
        options_.max_explored = static_cast<uint64_t>(value);
      } else if (key == "memory_budget" && value >= 0) {
        options_.memory_budget_bytes = static_cast<uint64_t>(value);
      } else if (key == "cache" && value >= 0) {
        cache_bytes_ = static_cast<uint64_t>(value);
        if (cache_bytes_ == 0) {
          cache_.clear();
          cache_order_.clear();
          cache_used_ = 0;
        }
        EvictCache();
      } else {
        printf("usage: \\set gamma|delta|max_explored|memory_budget"
               "|cache|progress <value>\n");
        return true;
      }
      printf("gamma=%.3f delta=%.4f max_explored=%llu memory_budget=%llu "
             "cache=%llu\n",
             options_.gamma, options_.delta,
             static_cast<unsigned long long>(options_.max_explored),
             static_cast<unsigned long long>(options_.memory_budget_bytes),
             static_cast<unsigned long long>(cache_bytes_));
      return true;
    }
    printf("unknown command %s (try \\help)\n", name.c_str());
    return true;
  }

  /// Fingerprint of `sql` under the current catalog/options, or "" when
  /// uncacheable (parse/bind failure, custom error fn, UDA). Hex so the
  /// shell's text cache never depends on the binary key layout.
  std::string CacheKey(const std::string& sql) {
    if (cache_bytes_ == 0) return "";
    auto ast = ParseAcqSql(sql);
    if (!ast.ok()) return "";
    Binder binder(&catalog());
    auto spec = binder.BindQuery(*ast);
    if (!spec.ok()) return "";
    auto fp = FingerprintTask(catalog(), *spec, options_);
    // Tenant-prefixed: two tenants generated with identical parameters
    // fingerprint the same, but must never replay each other's transcript.
    return fp.ok() ? tenant_ + "|" + fp->ToHex() : "";
  }

  void EvictCache() {
    while (cache_used_ > cache_bytes_ && !cache_order_.empty()) {
      auto victim = cache_.find(cache_order_.front());
      cache_order_.pop_front();
      if (victim == cache_.end()) continue;
      cache_used_ -= victim->second.size();
      cache_.erase(victim);
    }
  }

  void RunSql(const std::string& sql) {
    // Result-cache probe (\set cache): a query whose task fingerprints
    // identically to a completed run replays that run's transcript —
    // timings included, since the transcript is the seeding run's output.
    // last_task_ / last_result_ are left untouched on a hit, so \report and
    // \materialize keep addressing the last *fresh* run.
    const std::string key = CacheKey(sql);
    if (!key.empty()) {
      auto hit = cache_.find(key);
      if (hit != cache_.end()) {
        printf("%s(cached)\n", hit->second.c_str());
        return;
      }
    }

    Binder binder(&catalog());
    auto task = binder.PlanSql(sql);
    if (!task.ok()) {
      Report(task.status());
      return;
    }
    last_task_ = std::make_shared<AcqTask>(std::move(task).value());
    // Live progress goes to stderr so stdout transcripts (and the replay
    // cache built from them) stay byte-identical with progress on or off.
    RunContext progress_ctx;
    if (progress_interval_ms_ >= 0) {
      progress_ctx.ArmProgressSink(
          [](const ProgressSnapshot& s) {
            if (s.has_best) {
              fprintf(stderr,
                      "[progress] layers=%llu explored=%llu best: "
                      "error=%.4f qscore=%.2f %s (%.0f ms)\n",
                      static_cast<unsigned long long>(s.layers_drained),
                      static_cast<unsigned long long>(s.queries_explored),
                      s.best_error, s.best_qscore,
                      s.best_description.c_str(), s.elapsed_ms);
            } else {
              fprintf(stderr, "[progress] layers=%llu explored=%llu "
                              "(no candidate yet, %.0f ms)\n",
                      static_cast<unsigned long long>(s.layers_drained),
                      static_cast<unsigned long long>(s.queries_explored),
                      s.elapsed_ms);
            }
          },
          progress_interval_ms_);
      options_.run_ctx = &progress_ctx;
    }
    auto outcome = ProcessAcq(*last_task_, options_);
    options_.run_ctx = nullptr;
    if (!outcome.ok()) {
      Report(outcome.status());
      return;
    }
    // The transcript is accumulated and printed once at the end, so a
    // completed run's exact output can be stored for cache replay.
    std::string out = StringFormat(
        "original aggregate: %g (target %s %g) -> %s\n",
        outcome->original_aggregate,
        ConstraintOpToString(last_task_->constraint.op),
        last_task_->constraint.target, AcqModeToString(outcome->mode));
    const AcquireResult& result = outcome->result;
    if (result.termination == RunTermination::kResourceExhausted) {
      // Memory budget ran out mid-search: the answer below is best-so-far,
      // and the shell's exit status records the degradation (sticky 4).
      out += StringFormat(
          "memory budget exhausted after %llu refined queries; "
          "reporting best-so-far (raise \\set memory_budget to search "
          "further)\n",
          static_cast<unsigned long long>(result.queries_explored));
      exit_code_ = 4;
    } else if (result.termination != RunTermination::kCompleted) {
      // Distinguishes "searched everything, no answer" from "ran out of
      // budget/time": a truncated or interrupted result is best-so-far.
      out += StringFormat(
          "search stopped early (%s) after %llu refined queries\n",
          RunTerminationToString(result.termination),
          static_cast<unsigned long long>(result.queries_explored));
    }
    if (!result.satisfied) {
      out += StringFormat("constraint not reachable; closest:\n  %s\n",
                          result.best.ToString().c_str());
      FinishSql(key, result, std::move(out));
      return;
    }
    const AcqTask& display_task = outcome->mode == AcqMode::kContracted
                                      ? *outcome->contraction_task
                                      : *last_task_;
    if (outcome->mode == AcqMode::kContracted) {
      // \report / \materialize address the contraction task's dims.
      last_task_ = outcome->contraction_task;
    }
    last_result_ = result;
    size_t shown = 0;
    for (const RefinedQuery& q : result.queries) {
      out += StringFormat("-- aggregate=%g refinement=%.2f error=%.4f\n%s\n",
                          q.aggregate, q.qscore, q.error,
                          RenderRefinedSql(display_task, q).c_str());
      if (++shown == 5) break;
    }
    out += StringFormat(
        "(%zu answers, %llu refined queries examined, %.1f ms)\n",
        result.queries.size(),
        static_cast<unsigned long long>(result.queries_explored),
        result.elapsed_ms);
    FinishSql(key, result, std::move(out));
  }

  /// Prints the run transcript and, for completed cacheable runs, stores it
  /// for replay. Interrupted/truncated runs are never cached — their output
  /// depends on when they were stopped, not just on the task.
  void FinishSql(const std::string& key, const AcquireResult& result,
                 std::string out) {
    printf("%s", out.c_str());
    if (key.empty() || result.termination != RunTermination::kCompleted) {
      return;
    }
    auto [it, inserted] = cache_.emplace(key, std::move(out));
    if (inserted) {
      cache_order_.push_back(key);
      cache_used_ += it->second.size();
      EvictCache();
    }
  }

  /// The active tenant's catalog. Every data/query command (\gen, \load,
  /// \tables, SQL, ...) operates on this; \tenant switches it.
  Catalog& catalog() {
    auto it = tenants_.find(tenant_);
    return it != tenants_.end() ? *it->second : default_catalog_;
  }

  Catalog default_catalog_;
  /// \attach-ed tenants: id -> private catalog. "default" is reserved for
  /// default_catalog_ and never appears here.
  std::map<std::string, std::unique_ptr<Catalog>> tenants_;
  std::string tenant_ = "default";
  AcquireOptions options_;
  std::shared_ptr<AcqTask> last_task_;
  AcquireResult last_result_;
  /// \set cache: completed-run transcripts keyed by task fingerprint hex,
  /// FIFO-evicted once the stored text exceeds cache_bytes_.
  uint64_t cache_bytes_ = 0;
  uint64_t cache_used_ = 0;
  std::unordered_map<std::string, std::string> cache_;
  std::deque<std::string> cache_order_;
  bool interactive_ = isatty(fileno(stdin)) != 0;
  /// \set progress: stderr progress-line throttle in ms (0 = every drained
  /// layer, negative = off). On by default only at a terminal, so piped
  /// transcript comparisons never see an extra stream.
  double progress_interval_ms_ = interactive_ ? 100.0 : -1.0;
  int exit_code_ = 0;  // sticky 4 once any run ends resource_exhausted
};

}  // namespace

int main() {
  Shell shell;
  return shell.Run();
}
