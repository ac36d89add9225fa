#include "storage/column.h"

#include <algorithm>
#include <cassert>

namespace acquire {

Column::Column(DataType type) : type_(type) {
  switch (type) {
    case DataType::kInt64:
      data_ = Int64Vec{};
      break;
    case DataType::kDouble:
      data_ = DoubleVec{};
      break;
    case DataType::kString:
      data_ = StringVec{};
      break;
  }
}

size_t Column::size() const {
  return std::visit([](const auto& v) { return v.size(); }, data_);
}

Status Column::Append(const Value& v) {
  switch (type_) {
    case DataType::kInt64:
      if (!v.is_int64()) {
        return Status::TypeError("expected INT64, got " + v.ToString());
      }
      AppendInt64(v.int64());
      return Status::OK();
    case DataType::kDouble:
      if (v.is_double()) {
        AppendDouble(v.dbl());
      } else if (v.is_int64()) {
        AppendDouble(static_cast<double>(v.int64()));
      } else {
        return Status::TypeError("expected DOUBLE, got " + v.ToString());
      }
      return Status::OK();
    case DataType::kString:
      if (!v.is_string()) {
        return Status::TypeError("expected STRING, got " + v.ToString());
      }
      AppendString(v.str());
      return Status::OK();
  }
  return Status::Internal("unreachable column type");
}

Value Column::Get(size_t i) const {
  switch (type_) {
    case DataType::kInt64:
      return Value(int64_data()[i]);
    case DataType::kDouble:
      return Value(double_data()[i]);
    case DataType::kString:
      return Value(string_data()[i]);
  }
  return Value::Null();
}

double Column::GetDouble(size_t i) const {
  assert(IsNumeric(type_));
  if (type_ == DataType::kInt64) return static_cast<double>(int64_data()[i]);
  return double_data()[i];
}

ColumnStats Column::ComputeStats() const {
  ColumnStats stats;
  if (!IsNumeric(type_) || size() == 0) return stats;
  double mn = GetDouble(0);
  double mx = mn;
  for (size_t i = 1, n = size(); i < n; ++i) {
    double v = GetDouble(i);
    mn = std::min(mn, v);
    mx = std::max(mx, v);
  }
  stats.min = mn;
  stats.max = mx;
  stats.valid = true;
  return stats;
}

void Column::Reserve(size_t n) {
  std::visit(
      [n](auto& v) {
        if (n > v.capacity()) v.reserve(std::max(n, 2 * v.capacity()));
      },
      data_);
}

}  // namespace acquire
