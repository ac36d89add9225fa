#include "exec/acq_task.h"

#include <algorithm>

#include "common/string_util.h"

namespace acquire {

void AcqTask::AggValues(size_t begin, size_t end, double* out) const {
  if (begin >= end) return;
  if (agg.col_index < 0) {
    std::fill_n(out, end - begin, 0.0);
    return;
  }
  const Column& column = relation->column(static_cast<size_t>(agg.col_index));
  if (column.type() == DataType::kInt64) {
    const int64_t* values = column.int64_data().data();
    for (size_t row = begin; row < end; ++row) {
      *out++ = static_cast<double>(values[row]);
    }
  } else {
    std::copy_n(column.double_data().data() + begin, end - begin, out);
  }
}

std::string AcqTask::ToString() const {
  std::vector<std::string> preds;
  preds.reserve(dims.size());
  for (const RefinementDimPtr& dim : dims) preds.push_back(dim->label());
  return StringFormat(
      "SELECT * FROM %s CONSTRAINT %s %s WHERE %s", relation->name().c_str(),
      agg.ToString().c_str(), constraint.ToString().c_str(),
      Join(preds, " AND ").c_str());
}

}  // namespace acquire
