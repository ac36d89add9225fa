#ifndef ACQUIRE_STORAGE_COLUMN_H_
#define ACQUIRE_STORAGE_COLUMN_H_

#include <string>
#include <variant>
#include <vector>

#include "common/result.h"
#include "storage/value.h"

namespace acquire {

/// Min/max summary for a numeric column; drives predicate-interval domain
/// bounds (how far a predicate can be refined) and the grid index layout.
struct ColumnStats {
  double min = 0.0;
  double max = 0.0;
  bool valid = false;  // false when the column is empty or non-numeric
};

/// A single typed column stored as a contiguous vector. No null support at
/// the storage level: generators and CSV loading always produce dense data,
/// matching the paper's TPC-H setting.
class Column {
 public:
  explicit Column(DataType type);

  DataType type() const { return type_; }
  size_t size() const;

  /// Appends with a runtime type check (int64 widens into double columns).
  Status Append(const Value& v);

  /// Typed fast-path appends; caller must match the column type.
  void AppendInt64(int64_t v) { std::get<Int64Vec>(data_).push_back(v); }
  void AppendDouble(double v) { std::get<DoubleVec>(data_).push_back(v); }
  void AppendString(std::string v) {
    std::get<StringVec>(data_).push_back(std::move(v));
  }

  Value Get(size_t i) const;

  /// Numeric read; int64 columns widen. Caller must ensure the column is
  /// numeric (checked in debug builds).
  double GetDouble(size_t i) const;

  const std::string& GetString(size_t i) const {
    return std::get<StringVec>(data_)[i];
  }

  const std::vector<int64_t>& int64_data() const {
    return std::get<Int64Vec>(data_);
  }
  const std::vector<double>& double_data() const {
    return std::get<DoubleVec>(data_);
  }
  const std::vector<std::string>& string_data() const {
    return std::get<StringVec>(data_);
  }

  /// O(n) scan; cached by Table.
  ColumnStats ComputeStats() const;

  /// Makes room for `n` values. The first reservation is exact; growing an
  /// existing buffer at least doubles it, so a run of small appends (one
  /// APPEND batch each) reallocates O(log n) times instead of copying the
  /// whole column on every batch.
  void Reserve(size_t n);

 private:
  using Int64Vec = std::vector<int64_t>;
  using DoubleVec = std::vector<double>;
  using StringVec = std::vector<std::string>;

  DataType type_;
  std::variant<Int64Vec, DoubleVec, StringVec> data_;
};

}  // namespace acquire

#endif  // ACQUIRE_STORAGE_COLUMN_H_
