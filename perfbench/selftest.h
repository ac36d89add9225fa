#ifndef PERFBENCH_SELFTEST_H_
#define PERFBENCH_SELFTEST_H_

#include <string>

namespace perfbench {

/// Runs the benchmark's self-tests; on failure returns false and names the
/// failed check in `failure`.
bool RunSelfTests(std::string* failure);

}  // namespace perfbench

#endif  // PERFBENCH_SELFTEST_H_
