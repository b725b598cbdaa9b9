#ifndef HPA_E2EBENCH_SYSINFO_H_
#define HPA_E2EBENCH_SYSINFO_H_

#include <cstdint>
#include <string>

/// \file
/// Host context the benchmark prints once per run, so that later claims
/// can say which counters they rest on, and the process counters
/// (getrusage) behind the `os.*` and `peak_rss_mb` metrics.

namespace hpa::e2e {

struct HostInfo {
  int nproc = 0;
  std::string cpu_model;
  /// perf_event_open software events (no PMU needed).
  bool sw_task_clock = false;
  bool sw_context_switches = false;
  /// perf_event_open hardware cycle counter (needs a PMU).
  bool hw_cycles = false;
};

HostInfo ProbeHost();

/// One line per fact, prefixed "# host:" so it reads as commentary.
std::string FormatHostInfo(const HostInfo& info);

/// getrusage(RUSAGE_SELF) counters of this process (all threads).
struct ProcessCounters {
  uint64_t voluntary_switches = 0;
  uint64_t involuntary_switches = 0;
  uint64_t minor_faults = 0;
  /// High-water resident set size in MiB.
  double peak_rss_mb = 0.0;
};

ProcessCounters ReadProcessCounters();

}  // namespace hpa::e2e

#endif  // HPA_E2EBENCH_SYSINFO_H_
