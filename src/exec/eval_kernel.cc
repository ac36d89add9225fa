#include "exec/eval_kernel.h"

#include "common/string_util.h"
#include "exec/thread_pool.h"

namespace acquire {

namespace {

// Below this the chunking overhead beats the win of a second thread.
constexpr size_t kMinRowsPerChunk = 4096;

}  // namespace

Status BuildNeededMatrix(const AcqTask& task, NeededMatrix* out) {
  return BuildNeededMatrixRows(task, 0, task.relation->num_rows(), out);
}

Status BuildNeededMatrixRows(const AcqTask& task, size_t begin, size_t end,
                             NeededMatrix* out) {
  const Table& rel = *task.relation;
  if (begin > end || end > rel.num_rows()) {
    return Status::InvalidArgument(
        StringFormat("row range [%zu, %zu) out of bounds (relation has %zu "
                     "rows)", begin, end, rel.num_rows()));
  }
  const size_t n = end - begin;
  const size_t d = task.d();
  out->Resize(n, d);
  for (const RefinementDimPtr& dim : task.dims) {
    ACQ_RETURN_IF_ERROR(dim->PrecomputeNeeded(rel));
  }
  auto fill = [&](size_t /*chunk*/, size_t lo, size_t hi) {
    for (size_t i = 0; i < d; ++i) {
      task.dims[i]->NeededPScores(rel, begin + lo, begin + hi,
                                  out->mutable_dim(i) + lo);
    }
    task.AggValues(begin + lo, begin + hi, out->agg_values.data() + lo);
  };
  ThreadPool::Shared().ParallelFor(n, kMinRowsPerChunk, fill);
  return Status::OK();
}

Result<AggregateOps::State> ScanBoxOverMatrix(
    const AggregateOps& ops, const NeededMatrix& matrix,
    const std::vector<PScoreRange>& box) {
  if (box.size() != matrix.dims) {
    return Status::InvalidArgument(
        StringFormat("box has %zu ranges, matrix has %zu dimensions",
                     box.size(), matrix.dims));
  }
  const size_t n = matrix.rows;
  std::vector<uint8_t> select(n, uint8_t{1});
  for (size_t i = 0; i < matrix.dims; ++i) {
    RefineSelection(matrix.dim(i), n, box[i], select.data());
  }
  AggregateOps::State state = ops.Init();
  FoldSelected(ops, matrix.agg_values.data(), select.data(), n, &state);
  return state;
}

}  // namespace acquire
