#include "batch.h"

#include <chrono>
#include <memory>
#include <string_view>
#include <utility>
#include <vector>

#include "common/checksum.h"
#include "common/timer.h"
#include "core/standard_ops.h"
#include "core/workflow_executor.h"
#include "io/packed_corpus.h"
#include "ops/kmeans.h"
#include "ops/tfidf.h"
#include "ops/word_count.h"

namespace hpa::e2e {
namespace {

constexpr auto kBackend = containers::DictBackend::kOpenHash;

ops::KMeansOptions KMeansOptionsFor(const BatchParams& params) {
  ops::KMeansOptions k;
  k.k = params.k;
  k.max_iterations = params.iterations;
  k.stop_on_convergence = false;
  return k;
}

template <typename T>
uint64_t HashVector(const std::vector<T>& v, uint64_t seed) {
  return StableHash64(
      std::string_view(reinterpret_cast<const char*>(v.data()),
                       v.size() * sizeof(T)),
      seed);
}

// Assignments, centroid bits and the CSV the run wrote: everything a user
// of the workflow gets back.
StatusOr<uint64_t> Fingerprint(const ops::KMeansResult& km,
                               io::SimDisk* scratch) {
  uint64_t h = HashVector(km.assignment, 0x6532656265ULL);
  for (const auto& c : km.centroids) h = HashVector(c, h);
  HPA_ASSIGN_OR_RETURN(std::string csv, scratch->ReadFile(kAssignmentsCsv));
  return StableHash64(csv, h);
}

RunCounters CountersOf(const ops::KMeansResult& km) {
  RunCounters c;
  c.kernels_evaluated = km.distance_kernels_evaluated;
  c.kernels_skipped = km.distance_kernels_skipped;
  c.iterations = km.iterations;
  return c;
}

ops::ExecContext ContextFor(parallel::Executor& exec, const BatchEnv& env,
                            PhaseTimer* phases) {
  ops::ExecContext ctx;
  ctx.executor = &exec;
  ctx.corpus_disk = env.corpus_disk;
  ctx.scratch_disk = env.scratch_disk;
  ctx.phases = phases;
  return ctx;
}

// Attaches both disks to an executor for one scope.
class AttachDisks {
 public:
  AttachDisks(const BatchEnv& env, parallel::Executor* exec) : env_(env) {
    env_.corpus_disk->set_executor(exec);
    env_.scratch_disk->set_executor(exec);
  }
  ~AttachDisks() {
    env_.corpus_disk->set_executor(nullptr);
    env_.scratch_disk->set_executor(nullptr);
  }
  AttachDisks(const AttachDisks&) = delete;
  AttachDisks& operator=(const AttachDisks&) = delete;

 private:
  const BatchEnv& env_;
};

uint64_t BytesRead(const BatchEnv& env) {
  return env.corpus_disk->total_bytes_read() +
         env.scratch_disk->total_bytes_read();
}

uint64_t BytesWritten(const BatchEnv& env) {
  return env.corpus_disk->total_bytes_written() +
         env.scratch_disk->total_bytes_written();
}

parallel::SchedulerStats StatsDelta(const parallel::SchedulerStats& after,
                                    const parallel::SchedulerStats& before) {
  parallel::SchedulerStats d;
  d.regions = after.regions - before.regions;
  d.tasks_spawned = after.tasks_spawned - before.tasks_spawned;
  d.steals = after.steals - before.steals;
  d.per_worker_tasks = after.per_worker_tasks;
  for (size_t i = 0;
       i < d.per_worker_tasks.size() && i < before.per_worker_tasks.size();
       ++i) {
    d.per_worker_tasks[i] -= before.per_worker_tasks[i];
  }
  return d;
}

}  // namespace

double WallSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

StatusOr<UntracedRun> RunUntraced(const BatchParams& params,
                                  parallel::ThreadPoolExecutor& exec,
                                  const BatchEnv& env) {
  UntracedRun run;
  core::Clustering clustering;
  const double device_before = exec.charged_io_seconds();
  const uint64_t read_before = BytesRead(env);
  const uint64_t written_before = BytesWritten(env);
  const parallel::SchedulerStats sched_before = exec.scheduler_stats();
  {
    AttachDisks attach(env, &exec);
    double start = WallSeconds();
    core::Workflow wf;
    int src = wf.AddSource(core::Dataset(core::CorpusRef{env.corpus_path}),
                           "corpus");
    HPA_ASSIGN_OR_RETURN(
        int tfidf, wf.Add(std::make_unique<core::TfidfOperator>(), {src}));
    HPA_RETURN_IF_ERROR(
        wf.Add(std::make_unique<core::KMeansOperator>(KMeansOptionsFor(params)),
               {tfidf})
            .status());
    core::ExecutionPlan plan;
    plan.workers = exec.num_workers();
    plan.nodes.resize(wf.size());
    if (params.discrete) {
      plan.nodes[tfidf].output_boundary = core::Boundary::kMaterialized;
    }
    core::RunEnv run_env;
    run_env.executor = &exec;
    run_env.corpus_disk = env.corpus_disk;
    run_env.scratch_disk = env.scratch_disk;
    HPA_ASSIGN_OR_RETURN(auto result, core::RunWorkflow(wf, plan, run_env));
    auto* sink = std::get_if<core::Clustering>(&result.outputs.at(0));
    if (sink == nullptr) {
      return Status::Internal("workflow sink is not a clustering");
    }
    clustering = std::move(*sink);
    ops::ExecContext ctx = ContextFor(exec, env, nullptr);
    HPA_RETURN_IF_ERROR(ops::WriteAssignmentsCsv(
        ctx, clustering.doc_names, clustering.kmeans.assignment,
        kAssignmentsCsv));
    run.makespan_s = WallSeconds() - start;
  }
  run.modeled_device_s = exec.charged_io_seconds() - device_before;
  run.bytes_read = BytesRead(env) - read_before;
  run.bytes_written = BytesWritten(env) - written_before;
  run.sched = StatsDelta(exec.scheduler_stats(), sched_before);
  HPA_ASSIGN_OR_RETURN(run.fingerprint,
                       Fingerprint(clustering.kmeans, env.scratch_disk));
  run.counters = CountersOf(clustering.kmeans);
  return run;
}

StatusOr<TracedRun> RunTraced(const BatchParams& params,
                              parallel::Executor& exec, const BatchEnv& env,
                              const std::function<double()>& clock) {
  TracedRun run;
  PhaseSpans& s = run.spans;
  PhaseTimer phases;
  ops::ExecContext ctx = ContextFor(exec, env, &phases);
  const ops::KMeansOptions kopts = KMeansOptionsFor(params);
  ops::KMeansResult km;

  double t = clock();
  auto lap = [&] {
    double now = clock();
    double span = now - t;
    t = now;
    return span;
  };
  HPA_ASSIGN_OR_RETURN(
      auto reader,
      io::PackedCorpusReader::Open(env.corpus_disk, env.corpus_path));
  s.open = lap();

  if (!params.discrete) {
    HPA_ASSIGN_OR_RETURN(auto wc, ops::RunWordCount<kBackend>(ctx, reader));
    double wc_span = lap();
    s.input_wc = phases.Seconds("input+wc");
    s.df_merge = wc_span - s.input_wc;
    auto tfidf = std::make_unique<ops::TfidfResult>(
        ops::TfidfTransformT<kBackend>(ctx, std::move(wc)));
    s.transform = lap();
    HPA_ASSIGN_OR_RETURN(km, ops::SparseKMeans(ctx, tfidf->matrix, kopts));
    s.kmeans = lap();
    HPA_RETURN_IF_ERROR(ops::WriteAssignmentsCsv(
        ctx, tfidf->doc_names, km.assignment, kAssignmentsCsv));
    tfidf.reset();  // RunWorkflow also frees the edge before returning
    s.output = lap();
  } else {
    HPA_RETURN_IF_ERROR(ops::TfidfToArff(ctx, reader, kTfidfArff));
    double arff_span = lap();
    s.input_wc = phases.Seconds("input+wc");
    s.df_merge = phases.Seconds("df-merge");
    s.tfidf_output = arff_span - s.input_wc - s.df_merge;
    HPA_ASSIGN_OR_RETURN(auto matrix, ops::ReadTfidfArff(ctx, kTfidfArff));
    s.kmeans_input = lap();
    HPA_ASSIGN_OR_RETURN(km, ops::SparseKMeans(ctx, matrix, kopts));
    s.kmeans = lap();
    // ARFF rows carry no document names; the operator writes row ids.
    HPA_RETURN_IF_ERROR(
        ops::WriteAssignmentsCsv(ctx, {}, km.assignment, kAssignmentsCsv));
    matrix = containers::SparseMatrix();
    s.output = lap();
  }
  HPA_ASSIGN_OR_RETURN(run.fingerprint, Fingerprint(km, env.scratch_disk));
  run.counters = CountersOf(km);
  return run;
}

}  // namespace hpa::e2e
