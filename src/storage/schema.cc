#include "storage/schema.h"

#include "common/string_util.h"

namespace acquire {

namespace {
// Splits "table.column" into its parts; bare names yield an empty table.
std::pair<std::string, std::string> SplitQualified(const std::string& name) {
  size_t dot = name.find('.');
  if (dot == std::string::npos) return {"", name};
  return {name.substr(0, dot), name.substr(dot + 1)};
}
}  // namespace

Result<size_t> Schema::FieldIndex(const std::string& name) const {
  auto [table, column] = SplitQualified(name);
  std::optional<size_t> found;
  for (size_t i = 0; i < fields_.size(); ++i) {
    const Field& f = fields_[i];
    if (f.name != column) continue;
    if (!table.empty() && f.table != table) continue;
    if (found.has_value()) {
      return Status::InvalidArgument("ambiguous column reference: " + name);
    }
    found = i;
  }
  if (!found.has_value()) {
    return Status::NotFound("no such column: " + name);
  }
  return *found;
}

std::optional<size_t> Schema::TryFieldIndex(const std::string& name) const {
  auto r = FieldIndex(name);
  if (!r.ok()) return std::nullopt;
  return r.value();
}

Schema Schema::Concat(const Schema& left, const Schema& right) {
  std::vector<Field> fields = left.fields_;
  fields.insert(fields.end(), right.fields_.begin(), right.fields_.end());
  return Schema(std::move(fields));
}

std::string Schema::ToString() const {
  std::vector<std::string> parts;
  parts.reserve(fields_.size());
  for (const Field& f : fields_) {
    parts.push_back(f.QualifiedName() + ":" + DataTypeToString(f.type));
  }
  // Appends instead of "(" + std::string: GCC 12 flags that form with a
  // false -Wrestrict at -O3 (GCC bug 105329).
  std::string out = "(";
  out += Join(parts, ", ");
  out += ")";
  return out;
}

}  // namespace acquire
