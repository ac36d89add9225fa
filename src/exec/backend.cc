#include "exec/backend.h"

#include <algorithm>
#include <cctype>

namespace acquire {

const char* EvalBackendToString(EvalBackend backend) {
  switch (backend) {
    case EvalBackend::kAuto:
      return "auto";
    case EvalBackend::kDirect:
      return "direct";
    case EvalBackend::kCached:
      return "cached";
    case EvalBackend::kCellSorted:
      return "cellsorted";
  }
  return "?";
}

Result<EvalBackend> EvalBackendFromString(const std::string& name) {
  std::string lower = name;
  std::transform(lower.begin(), lower.end(), lower.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  for (EvalBackend b : {EvalBackend::kAuto, EvalBackend::kDirect,
                        EvalBackend::kCached, EvalBackend::kCellSorted}) {
    if (lower == EvalBackendToString(b)) return b;
  }
  // Retired names of the deleted hash-grid and pool-chunked scan backends,
  // still accepted from clients and mapped to the layers that replaced them.
  if (lower == "gridindex") return EvalBackend::kCellSorted;
  if (lower == "parallel") return EvalBackend::kCached;
  return Status::InvalidArgument("unknown evaluation backend: " + name);
}

}  // namespace acquire
