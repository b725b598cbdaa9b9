#ifndef HPA_E2EBENCH_SELFTEST_H_
#define HPA_E2EBENCH_SELFTEST_H_

#include <string>

/// \file
/// The benchmark's own checks, run at the start of every measurement and
/// on their own with `e2ebench selftest`: seeded inputs, the percentile
/// helper, due-time accounting of the open loop, and the rate ladder.

namespace hpa::e2e {

/// Runs every self-test; returns the number of failures and appends one
/// line per failure to `report`.
int RunSelfTests(std::string* report);

}  // namespace hpa::e2e

#endif  // HPA_E2EBENCH_SELFTEST_H_
