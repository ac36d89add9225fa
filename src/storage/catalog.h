#ifndef ACQUIRE_STORAGE_CATALOG_H_
#define ACQUIRE_STORAGE_CATALOG_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "storage/table.h"

namespace acquire {

/// Name -> table registry; the "database" the SQL binder and evaluation
/// layers resolve against.
///
/// Identity for caching: every mutation (AddTable / PutTable / DropTable /
/// set_load_params) bumps a monotonic generation counter, and loaders record
/// how the data was produced in load_params (e.g. "users:rows=3000,seed=7").
/// Together they fingerprint "which data this catalog holds" without hashing
/// table contents — any change to the catalog invalidates result-cache
/// entries keyed on the old generation.
class Catalog {
 public:
  Catalog() = default;
  Catalog(const Catalog&) = delete;
  Catalog& operator=(const Catalog&) = delete;
  Catalog(Catalog&&) noexcept = default;
  Catalog& operator=(Catalog&&) noexcept = default;

  /// Fails with AlreadyExists on duplicate names.
  Status AddTable(TablePtr table);

  /// Replaces any existing table of the same name.
  void PutTable(TablePtr table);

  Result<TablePtr> GetTable(const std::string& name) const;
  bool HasTable(const std::string& name) const;
  Status DropTable(const std::string& name);

  /// Appends `rows` to table `name` atomically (Table::AppendRows) and bumps
  /// the generation on success — live ingestion through this entry point
  /// therefore self-invalidates fingerprinted result-cache entries keyed on
  /// the old generation.
  Status AppendRows(const std::string& name,
                    const std::vector<std::vector<Value>>& rows);

  /// Checks that AppendRows(name, rows) would succeed, without mutating
  /// anything. The durability path validates first, then logs the batch,
  /// then applies — so a rejected batch never reaches the log and a logged
  /// batch never fails to apply.
  Status ValidateAppend(const std::string& name,
                        const std::vector<std::vector<Value>>& rows) const;

  std::vector<std::string> TableNames() const;
  size_t size() const { return tables_.size(); }

  /// Monotonic mutation counter (successful mutations only).
  uint64_t generation() const { return generation_; }

  /// Provenance string set by loaders/generators; appended with ';' when a
  /// catalog is populated by several of them.
  const std::string& load_params() const { return load_params_; }
  void set_load_params(std::string params);
  void AppendLoadParams(const std::string& params);

  /// Restores checkpointed identity without bumping the generation: after a
  /// recovery rebuilds the tables, this stamps the exact generation and
  /// load_params the pre-crash catalog had, so task fingerprints (and cached
  /// replies keyed on them) round-trip bit-identically.
  void RestoreIdentity(uint64_t generation, std::string load_params) {
    generation_ = generation;
    load_params_ = std::move(load_params);
  }

 private:
  std::map<std::string, TablePtr> tables_;
  uint64_t generation_ = 0;
  std::string load_params_;
};

}  // namespace acquire

#endif  // ACQUIRE_STORAGE_CATALOG_H_
