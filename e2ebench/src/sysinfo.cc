#include "sysinfo.h"

#include <linux/perf_event.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <cstring>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

namespace hpa::e2e {
namespace {

// Opens (and immediately closes) a counter for this thread; true when
// the kernel accepts the event.
bool PerfEventAvailable(uint32_t type, uint64_t config) {
  perf_event_attr attr;
  std::memset(&attr, 0, sizeof(attr));
  attr.size = sizeof(attr);
  attr.type = type;
  attr.config = config;
  attr.disabled = 1;
  attr.exclude_kernel = 1;
  attr.exclude_hv = 1;
  long fd = syscall(SYS_perf_event_open, &attr, 0, -1, -1, 0);
  if (fd < 0) return false;
  close(static_cast<int>(fd));
  return true;
}

// The CPU brand string from CPUID leaves 0x80000002..4; the instruction
// needs no file access.
std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int max_leaf = __get_cpuid_max(0x80000000u, nullptr);
  if (max_leaf >= 0x80000004u) {
    char brand[49] = {};
    for (unsigned int i = 0; i < 3; ++i) {
      unsigned int regs[4] = {};
      __get_cpuid(0x80000002u + i, &regs[0], &regs[1], &regs[2], &regs[3]);
      std::memcpy(brand + 16 * i, regs, sizeof(regs));
    }
    std::string model(brand);
    size_t first = model.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : model.substr(first);
  }
#endif
  return "unknown";
}

}  // namespace

HostInfo ProbeHost() {
  HostInfo info;
  info.nproc = static_cast<int>(std::thread::hardware_concurrency());
  info.cpu_model = CpuModel();
  info.sw_task_clock =
      PerfEventAvailable(PERF_TYPE_SOFTWARE, PERF_COUNT_SW_TASK_CLOCK);
  info.sw_context_switches =
      PerfEventAvailable(PERF_TYPE_SOFTWARE, PERF_COUNT_SW_CONTEXT_SWITCHES);
  info.hw_cycles =
      PerfEventAvailable(PERF_TYPE_HARDWARE, PERF_COUNT_HW_CPU_CYCLES);
  return info;
}

std::string FormatHostInfo(const HostInfo& info) {
  auto yes_no = [](bool b) { return b ? "available" : "unavailable"; };
  std::string out;
  out += "# host: nproc " + std::to_string(info.nproc) + "\n";
  out += "# host: cpu " + info.cpu_model + "\n";
  out += std::string("# host: perf software task-clock ") +
         yes_no(info.sw_task_clock) + ", context-switches " +
         yes_no(info.sw_context_switches) + "\n";
  out += std::string("# host: perf hardware cycles ") +
         yes_no(info.hw_cycles) +
         "; per-layer numbers rest on getrusage and the library's own "
         "counters only\n";
  return out;
}

ProcessCounters ReadProcessCounters() {
  rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  ProcessCounters c;
  c.voluntary_switches = static_cast<uint64_t>(usage.ru_nvcsw);
  c.involuntary_switches = static_cast<uint64_t>(usage.ru_nivcsw);
  c.minor_faults = static_cast<uint64_t>(usage.ru_minflt);
  c.peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB
  return c;
}

}  // namespace hpa::e2e
