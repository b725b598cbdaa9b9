#ifndef HPA_E2EBENCH_BATCH_H_
#define HPA_E2EBENCH_BATCH_H_

#include <cstdint>
#include <functional>
#include <string>

#include "common/status.h"
#include "io/sim_disk.h"
#include "parallel/executor.h"
#include "parallel/thread_pool.h"

/// \file
/// The batch leg of every workload: one full TF/IDF -> K-means workflow
/// run (corpus -> assignments CSV), either untraced through
/// core::RunWorkflow or traced as the same public calls made one by one,
/// each timed from here. The library itself carries no tracing.

namespace hpa::e2e {

/// Shape of the workflow a workload runs.
struct BatchParams {
  /// TF/IDF edge materialized as ARFF on the scratch disk (the paper's
  /// discrete workflow) instead of handed over in memory (fused).
  bool discrete = false;
  int k = 8;
  /// Fixed Lloyd iterations (no convergence stop).
  int iterations = 5;
};

/// Scratch-disk paths the batch leg writes.
inline constexpr const char* kAssignmentsCsv = "assignments.csv";
inline constexpr const char* kTfidfArff = "tfidf.arff";

/// Devices and input of the batch leg. Non-owning.
struct BatchEnv {
  io::SimDisk* corpus_disk = nullptr;
  io::SimDisk* scratch_disk = nullptr;
  std::string corpus_path;
};

/// Counters a run leaves behind, for the per-layer metrics.
struct RunCounters {
  uint64_t kernels_evaluated = 0;
  uint64_t kernels_skipped = 0;
  int iterations = 0;
};

/// One untraced run. `makespan_s` is wall time around RunWorkflow plus
/// the assignments CSV write. The disks are attached to `exec` for the
/// duration, so modeled device time accrues on the executor's separate
/// device account (charged_io_seconds) and never on the wall clock.
struct UntracedRun {
  double makespan_s = 0.0;
  /// Hash of assignments, centroid bits and the CSV bytes.
  uint64_t fingerprint = 0;
  RunCounters counters;
  /// Modeled device seconds charged during the run.
  double modeled_device_s = 0.0;
  /// SimDisk byte counters over the run (both disks).
  uint64_t bytes_read = 0;
  uint64_t bytes_written = 0;
  /// Scheduler counters over the run (per_worker_tasks as deltas too).
  parallel::SchedulerStats sched;
};
StatusOr<UntracedRun> RunUntraced(const BatchParams& params,
                                  parallel::ThreadPoolExecutor& exec,
                                  const BatchEnv& env);

/// Phase spans of a traced run, in seconds of the clock the run was
/// timed with. `open` is PackedCorpusReader::Open (RunWorkflow opens the
/// corpus inside its TF/IDF operator); the rest are named after the
/// workflow phases. Spans are contiguous, so their sum is the run.
struct PhaseSpans {
  double open = 0.0;
  double input_wc = 0.0;
  double df_merge = 0.0;
  double transform = 0.0;
  double tfidf_output = 0.0;
  double kmeans_input = 0.0;
  double kmeans = 0.0;
  double output = 0.0;

  double Total() const {
    return open + input_wc + df_merge + transform + tfidf_output +
           kmeans_input + kmeans + output;
  }
};

struct TracedRun {
  PhaseSpans spans;
  uint64_t fingerprint = 0;
  RunCounters counters;
};

/// One traced run with the disks detached (no modeled device time). Spans
/// are read from `clock`: steady wall time for a thread pool, the virtual
/// clock for the simulator. RunWordCount spans input+wc and df-merge; the
/// split comes from its own PhaseTimer, which reads the executor clock —
/// wall time here, because no device clock is attached.
StatusOr<TracedRun> RunTraced(const BatchParams& params,
                              parallel::Executor& exec, const BatchEnv& env,
                              const std::function<double()>& clock);

/// Seconds on a steady clock with an arbitrary origin.
double WallSeconds();

}  // namespace hpa::e2e

#endif  // HPA_E2EBENCH_BATCH_H_
