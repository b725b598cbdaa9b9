// Real-thread end-to-end benchmark of the TF/IDF -> K-means workflow and
// the serving path built on it.
//
//   e2ebench gen --dir D --seed N --scale F --k K
//       writes the seeded inputs (not timed; its own process, so input
//       generation never shows in the measuring process's peak RSS);
//   e2ebench run --dir D --seed N --seconds S --trace 0|1 <workload flags>
//       measures one workload and prints its metrics, the last stdout
//       line being one JSON object;
//   e2ebench selftest
//       runs the benchmark's own checks.
//
// Every workload has the same two legs. The batch leg times whole
// workflow runs (corpus -> assignments CSV) at 4 and at 1 worker; the
// serving leg drives an AnalyticsServer, loaded from the model registry
// during set-up, with open-loop Poisson arrivals at fixed rates (and, in
// the traced pass, bursts and a rate ladder that measure its capacity).
// The workloads differ in plan, model size, rates and the number of
// serving rounds (see workloads.json); everything else is a constant
// below. End-to-end times
// are wall time around public calls; the library's modeled device time is
// kept on its own account (ThreadPoolExecutor::charged_io_seconds) and
// only reported per layer.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "batch.h"
#include "common/flags.h"
#include "common/logging.h"
#include "inputs.h"
#include "io/file_io.h"
#include "io/packed_corpus.h"
#include "ops/word_count.h"
#include "parallel/simulated_executor.h"
#include "parallel/thread_pool.h"
#include "selftest.h"
#include "serve/model_registry.h"
#include "serve_loop.h"
#include "stats.h"
#include "sysinfo.h"
#include "text/corpus_io.h"
#include "text/tokenizer.h"

namespace hpa::e2e {
namespace {

// The constants below hold for every workload; workloads.json records
// them beside the per-workload values, and each run prints them.
//
// Thread budget: 4 = nproc, counting the generating thread. The server
// gets the other three.
constexpr int kBatchWorkers = 4;
constexpr int kServeWorkers = 3;
constexpr int kSetupRepeats = 3;
constexpr int kEmptyRegionRepeats = 300;
// Request bodies generated beside each corpus.
constexpr uint64_t kHeldoutBodies = 1000;
// Server: micro-batch ceiling and wait bound, admission queue bound, and
// the per-request deadline. The deadline is far above any latency the
// windows and bursts below produce, so a stall of a shared host makes
// requests late, not failed (at 1 s, a host that halved the server's
// capacity for a whole run failed requests of its bursts).
constexpr size_t kMaxBatch = 8;
constexpr double kMaxWaitS = 0.0005;
constexpr size_t kQueueCapacity = 4096;
constexpr double kDeadlineS = 10.0;
// serve.max_rate_rps (traced pass): the median, over the run's bursts, of
// the rate at which the server completes kBurstRequests requests all due
// at once (fewer than the queue holds, so none is rejected). A burst
// keeps the queue full, so its rate is the server's capacity; it lasts
// about 0.15 s and a short stall of the host slows it only in proportion.
constexpr size_t kBurstRequests = 4000;
constexpr int kBurstsPerRound = 10;
// The traced pass also climbs a rate ladder for serve.ladder_rate_rps, the
// highest rate whose p99 meets a limit: geometric from kLadderBottomRps to
// kLadderTopRps in steps of kLadderStep, from the workload's heavy rate.
// A rung passes when its p99 is within kLimitS with no bad request and no
// growing backlog. Each rung lasts kRungS (at least kWindowRequests
// requests) and is tried at most kRungAttempts times.
constexpr double kLadderBottomRps = 1000;
constexpr double kLadderTopRps = 160000;
constexpr double kLadderStep = 1.04;
constexpr double kLimitS = 0.010;
constexpr double kRungS = 0.1;
constexpr int kRungAttempts = 5;
// Serving windows hold this many requests: the fewest for which p99 has
// ten samples beyond it. Short windows make it likely that some window
// of a run escapes the stalls a shared host inflicts (see WindowSet).
constexpr size_t kWindowRequests = 1000;
constexpr int kWindowsPerRound = 3;

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double Min(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

double Max(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::max_element(v.begin(), v.end());
}

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

// --- devices and flags ---------------------------------------------------

struct Devices {
  std::unique_ptr<io::SimDisk> corpus;
  std::unique_ptr<io::SimDisk> scratch;
};

StatusOr<Devices> OpenDevices(const std::string& dir, bool fresh_scratch) {
  std::string scratch = dir + "/scratch";
  if (fresh_scratch) {
    std::error_code ec;
    std::filesystem::remove_all(scratch, ec);
    if (ec) return Status::IoError("cannot clear " + scratch);
  }
  HPA_RETURN_IF_ERROR(io::MakeDirs(dir + "/corpora"));
  HPA_RETURN_IF_ERROR(io::MakeDirs(scratch));
  Devices d;
  // No executor attached: only an untraced batch run attaches one, so
  // that modeled device time lands on that run's device account.
  d.corpus = std::make_unique<io::SimDisk>(io::DiskOptions::CorpusStore(),
                                           dir + "/corpora", nullptr);
  d.scratch = std::make_unique<io::SimDisk>(io::DiskOptions::LocalHdd(),
                                            scratch, nullptr);
  return d;
}

struct RunConfig {
  std::string dir;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  BatchParams batch;
  /// Serving rounds in the run, each kWindowsPerRound light and heavy
  /// windows (and, traced, one ladder climb and kBurstsPerRound bursts). A fixed count, so that every serving statistic is taken over
  /// the same number of samples however fast the server is.
  int serve_rounds = 0;
  double light_rps = 0;
  double heavy_rps = 0;
};

StatusOr<RunConfig> ParseRunConfig(const FlagSet& f) {
  RunConfig c;
  c.dir = f.GetString("dir");
  c.seed = static_cast<uint64_t>(f.GetInt("seed"));
  c.seconds = f.GetDouble("seconds");
  c.trace = f.GetInt("trace") != 0;
  std::string plan = f.GetString("plan");
  if (plan != "fused" && plan != "discrete") {
    return Status::InvalidArgument("--plan must be fused or discrete");
  }
  c.batch.discrete = plan == "discrete";
  c.batch.k = static_cast<int>(f.GetInt("k"));
  c.batch.iterations = static_cast<int>(f.GetInt("iters"));
  c.serve_rounds = static_cast<int>(f.GetInt("serve_rounds"));
  c.light_rps = f.GetDouble("light_rps");
  c.heavy_rps = f.GetDouble("heavy_rps");
  if (c.dir.empty() || c.seconds <= 0 || c.batch.k < 1 ||
      c.batch.iterations < 1 || c.serve_rounds < 1 || c.light_rps <= 0 ||
      c.heavy_rps <= 0) {
    return Status::InvalidArgument("run flags missing or out of range");
  }
  return c;
}

// --- set-up ----------------------------------------------------------------

struct Setup {
  std::unique_ptr<parallel::ThreadPoolExecutor> pool1;
  std::unique_ptr<parallel::ThreadPoolExecutor> pool4;
  std::unique_ptr<parallel::ThreadPoolExecutor> serve_pool;
  std::unique_ptr<io::PackedCorpusReader> reader;
  std::unique_ptr<serve::ModelHandle> model;
};

serve::ModelConfig ServingConfig(const BatchParams& params) {
  serve::ModelConfig config;
  config.clusters = params.k;
  return config;
}

// Pools, the corpus index (Open checks its CRC), and the serving model:
// fitted with the workload's K-means shape, published, and loaded back
// through the registry the way a server would get it.
StatusOr<Setup> SetUp(const Devices& dev, const BatchParams& params,
                      const std::string& registry_dir, double* seconds) {
  double start = WallSeconds();
  Setup s;
  s.pool1 = std::make_unique<parallel::ThreadPoolExecutor>(1);
  s.pool4 = std::make_unique<parallel::ThreadPoolExecutor>(kBatchWorkers);
  s.serve_pool = std::make_unique<parallel::ThreadPoolExecutor>(kServeWorkers);
  HPA_ASSIGN_OR_RETURN(auto reader, io::PackedCorpusReader::Open(
                                        dev.corpus.get(), kCorpusPack));
  s.reader = std::make_unique<io::PackedCorpusReader>(std::move(reader));

  serve::ModelRegistry registry(dev.scratch.get(), registry_dir);
  ops::ExecContext ctx;
  ctx.executor = s.pool4.get();
  ctx.corpus_disk = dev.corpus.get();
  ctx.scratch_disk = dev.scratch.get();
  ops::KMeansOptions kmeans;
  kmeans.max_iterations = params.iterations;
  kmeans.stop_on_convergence = false;
  const serve::ModelConfig config = ServingConfig(params);
  HPA_ASSIGN_OR_RETURN(auto fitted,
                       registry.Fit(ctx, *s.reader, config, kmeans));
  HPA_ASSIGN_OR_RETURN(auto loaded, registry.Load(config, fitted.version()));
  s.model = std::make_unique<serve::ModelHandle>(std::move(loaded));
  *seconds = WallSeconds() - start;
  return s;
}

// --- batch leg ---------------------------------------------------------

struct BatchLeg {
  std::vector<double> w1;
  std::vector<double> w4;
  /// Traced runs, each next to an untraced one at the same worker count
  /// (traced pass only), so both sides see the same host.
  std::vector<TracedRun> traced_w1;
  std::vector<TracedRun> traced_w4;
  /// Per traced run, its phase total over its untraced twin's makespan.
  std::vector<double> trace_ratio_w1;
  std::vector<double> trace_ratio_w4;
  size_t runs = 0;
  size_t failed = 0;
  bool identical = true;
  uint64_t fingerprint = 0;
  /// The last 4-worker untraced run, for its counters.
  UntracedRun last_w4;
};

void NoteResult(uint64_t fp, const char* what, BatchLeg* leg) {
  if (leg->fingerprint == 0) leg->fingerprint = fp;
  if (fp == leg->fingerprint) return;
  std::fprintf(stderr, "CHECK FAILED: %s result differs\n", what);
  leg->identical = false;
}

void NoteFailure(const Status& s, BatchLeg* leg) {
  std::fprintf(stderr, "workflow run failed: %s\n", s.ToString().c_str());
  ++leg->failed;
}

// Untimed warm-up run: page cache, allocator arenas and pool threads
// settle before anything is timed. Its result still joins the identity
// check.
void WarmUp(const RunConfig& cfg, const Setup& setup, const BatchEnv& env,
            BatchLeg* leg) {
  ++leg->runs;
  auto warm = RunUntraced(cfg.batch, *setup.pool4, env);
  if (warm.ok()) {
    NoteResult(warm->fingerprint, "warm-up", leg);
  } else {
    NoteFailure(warm.status(), leg);
  }
}

// One workflow run at 4 and one at 1 worker; `pair` alternates which goes
// first, so drift in the host affects both equally. In the traced pass
// each untraced run gets a traced twin, again in alternating order.
void RunBatchPair(const RunConfig& cfg, const Setup& setup,
                  const BatchEnv& env, int pair, BatchLeg* leg) {
  for (int workers : pair % 2 == 0 ? std::vector<int>{4, 1}
                                   : std::vector<int>{1, 4}) {
    parallel::ThreadPoolExecutor& exec =
        workers == 4 ? *setup.pool4 : *setup.pool1;
    double untraced_s = 0, traced_s = 0;
    auto untraced = [&] {
      ++leg->runs;
      auto run = RunUntraced(cfg.batch, exec, env);
      if (!run.ok()) return NoteFailure(run.status(), leg);
      NoteResult(run->fingerprint, workers == 4 ? "4-worker" : "1-worker",
                 leg);
      (workers == 4 ? leg->w4 : leg->w1).push_back(run->makespan_s);
      if (workers == 4) leg->last_w4 = *run;
      untraced_s = run->makespan_s;
    };
    auto traced = [&] {
      auto run = RunTraced(cfg.batch, exec, env, WallSeconds);
      if (!run.ok()) return NoteFailure(run.status(), leg);
      NoteResult(run->fingerprint, "traced", leg);
      (workers == 4 ? leg->traced_w4 : leg->traced_w1).push_back(*run);
      traced_s = run->spans.Total();
    };
    if (!cfg.trace) {
      untraced();
      continue;
    }
    if (pair % 2 == 0) {
      untraced();
      traced();
    } else {
      traced();
      untraced();
    }
    if (untraced_s > 0 && traced_s > 0) {
      (workers == 4 ? leg->trace_ratio_w4 : leg->trace_ratio_w1)
          .push_back(traced_s / untraced_s);
    }
  }
}

// --- serving leg -------------------------------------------------------

// Windows at one rate. Latency is summarized per window (each has enough
// samples for its p99). The end-to-end figure is the best window's: on a
// shared host most windows can carry stalls the program did not cause
// (another tenant's vCPU time), and the best window is the one where the
// host let the server run. The median window is kept per layer, where it
// shows how much the host interfered.
struct WindowSet {
  std::vector<double> p50;
  std::vector<double> p99;
  size_t samples = 0;
  std::vector<double> server_p99;
  std::vector<double> gen_late_p99;
  /// Windows whose answered requests leave fewer than ten beyond p99.
  size_t thin_windows = 0;
  size_t sent = 0;
  size_t bad = 0;
  uint64_t rejected = 0;
  uint64_t deadline_misses = 0;
  uint64_t max_queue_depth = 0;
  uint64_t batches = 0;
  uint64_t batched = 0;

  void Add(const WindowResult& w) {
    TailSummary t = SummarizeTail(w.due_latency);
    if (t.tail_percentile < 99) ++thin_windows;
    p50.push_back(t.p50);
    p99.push_back(Percentile(w.due_latency, 99));
    samples += t.count;
    server_p99.push_back(Percentile(w.server_latency, 99));
    gen_late_p99.push_back(Percentile(w.gen_late, 99));
    sent += w.sent;
    bad += w.bad();
    rejected += w.server.rejected;
    deadline_misses += w.server.deadline_misses;
    max_queue_depth = std::max(max_queue_depth, w.server.max_queue_depth);
    batches += w.server.batches;
    batched += w.server.batched_requests;
  }
};

struct ServeLeg {
  /// Completion rate of each burst (traced pass only).
  std::vector<double> burst_rates;
  size_t burst_sent = 0;
  size_t burst_bad = 0;
  /// Rate each ladder climb found (traced pass only).
  std::vector<double> ladder_rates;
  /// Wall time spent in serving rounds.
  double seconds = 0;
  WindowSet light;
  WindowSet heavy;
  bool accounted = true;
  size_t wrong_answers = 0;
  size_t windows = 0;
  /// Arrival-schedule seed of the next window, and its first body.
  uint64_t next_seed = 0;
  size_t next_body = 0;
};

// One window of `count` Poisson arrivals at `rate`; a rate of 0 makes a
// burst, every request due at the start.
WindowResult NextWindow(const ServeEnv& env, double rate, size_t count,
                        ServeLeg* leg) {
  const uint64_t seed = leg->next_seed++;
  WindowResult w = RunWindow(env, rate,
                             rate > 0 ? PoissonSchedule(rate, count, seed)
                                      : std::vector<double>(count, 0.0),
                             leg->next_body);
  leg->next_body += count;
  ++leg->windows;
  leg->accounted = leg->accounted && w.accounted;
  leg->wrong_answers += w.wrong_answers;
  return w;
}

// One ladder climb from the heavy rate (traced pass only).
void ClimbLadder(const RunConfig& cfg, const ServeEnv& env, ServeLeg* leg) {
  const std::vector<double> ladder =
      LadderRates(kLadderBottomRps, kLadderTopRps, kLadderStep);
  std::vector<RungResult> rungs =
      Climb(ladder, LadderIndex(ladder, cfg.heavy_rps), kRungAttempts,
            kLimitS, [&](double rate) {
              size_t count = std::max<size_t>(
                  kWindowRequests, static_cast<size_t>(rate * kRungS));
              WindowResult w = NextWindow(env, rate, count, leg);
              RungResult r;
              r.rate = rate;
              r.p99 = Percentile(w.due_latency, 99.0);
              r.bad = w.bad();
              r.backlog_growing = BacklogGrowing(w.due_latency, kLimitS);
              return r;
            });
  leg->ladder_rates.push_back(MaxSustainedRate(rungs, kLimitS));
}

// A few light and heavy windows, alternating; in the traced pass, first
// one ladder climb from the heavy rate and the bursts.
void RunServeRound(const RunConfig& cfg, const ServeEnv& env,
                   ServeLeg* leg) {
  const double start = WallSeconds();
  if (cfg.trace) {
    ClimbLadder(cfg, env, leg);
    for (int i = 0; i < kBurstsPerRound; ++i) {
      WindowResult burst = NextWindow(env, 0, kBurstRequests, leg);
      leg->burst_rates.push_back(BurstRate(burst.due_latency));
      leg->burst_sent += burst.sent;
      leg->burst_bad += burst.bad();
    }
  }
  for (int i = 0; i < kWindowsPerRound; ++i) {
    leg->light.Add(NextWindow(env, cfg.light_rps, kWindowRequests, leg));
    leg->heavy.Add(NextWindow(env, cfg.heavy_rps, kWindowRequests, leg));
  }
  leg->seconds += WallSeconds() - start;
}

// Runs both legs for the measuring time, interleaved: serving round r is
// due r / serve_rounds of the way into the run, and batch pairs fill the
// time between rounds. Both legs thus sample the whole run, so a slow
// spell of the shared host touches every metric a little instead of one
// a lot. Every round runs even when the time is up, so the number of
// serving samples never depends on the server's speed; at least one pair
// runs. The traced pass serves far longer (ladder climbs and bursts), so
// there the run's clock counts batch time only, which gives the traced
// pairs the whole measuring time.
void RunLegs(const RunConfig& cfg, const Setup& setup, const BatchEnv& env,
             const ServeEnv& serve_env, BatchLeg* batch, ServeLeg* serve) {
  WarmUp(cfg, setup, env, batch);
  serve->next_seed = cfg.seed * 1000003;
  const double start = WallSeconds();
  int pairs = 0, rounds = 0;
  for (;;) {
    const double elapsed =
        WallSeconds() - start - (cfg.trace ? serve->seconds : 0.0);
    if (rounds < cfg.serve_rounds &&
        elapsed >= cfg.seconds * rounds / cfg.serve_rounds) {
      RunServeRound(cfg, serve_env, serve);
      ++rounds;
    } else if (elapsed < cfg.seconds || pairs == 0) {
      RunBatchPair(cfg, setup, env, pairs++, batch);
    } else {
      break;
    }
  }
}

// --- per-layer probes (traced run only) --------------------------------

struct LayerProbes {
  double read_mb_per_s = 0;
  double tokenize_mb_per_s = 0;
  uint64_t tokens = 0;
  double tf_insert_ns_per_token = 0;
  uint64_t dict_bytes = 0;
  uint64_t vocab_terms = 0;
  double empty_region_us = 0;
  double empty_batch_region_us = 0;
};

double MedianEmptyRegionUs(parallel::Executor& exec, size_t items,
                           size_t grain) {
  std::vector<double> us;
  parallel::WorkHint hint;
  hint.label = "empty";
  for (int i = 0; i < kEmptyRegionRepeats; ++i) {
    double start = WallSeconds();
    exec.ParallelFor(0, items, grain, hint, [](int, size_t, size_t) {});
    us.push_back((WallSeconds() - start) * 1e6);
  }
  return Median(std::move(us));
}

StatusOr<LayerProbes> ProbeLayers(const Setup& setup, const Devices& dev) {
  LayerProbes p;
  const io::PackedCorpusReader& reader = *setup.reader;
  // io: serial CRC-checked document reads, no device clock attached.
  std::vector<std::string> bodies(reader.size());
  uint64_t bytes = 0;
  double start = WallSeconds();
  for (size_t i = 0; i < reader.size(); ++i) {
    HPA_ASSIGN_OR_RETURN(bodies[i], reader.ReadBody(i));
    bytes += bodies[i].size();
  }
  p.read_mb_per_s = static_cast<double>(bytes) / 1e6 /
                    (WallSeconds() - start);

  // text: the tokenizer alone, keeping the tokens for the insert probe.
  text::TokenizerOptions tok;
  std::string flat;
  std::vector<std::pair<size_t, size_t>> spans;  // into flat
  std::vector<size_t> doc_end;
  flat.reserve(bytes);
  start = WallSeconds();
  for (const std::string& body : bodies) {
    text::ForEachToken(body, tok, [&](std::string_view) { ++p.tokens; });
  }
  p.tokenize_mb_per_s = static_cast<double>(bytes) / 1e6 /
                        (WallSeconds() - start);
  for (const std::string& body : bodies) {
    text::ForEachToken(body, tok, [&](std::string_view t) {
      spans.emplace_back(flat.size(), t.size());
      flat.append(t);
    });
    doc_end.push_back(spans.size());
  }

  // containers: per-document term-frequency inserts of those tokens.
  using TfDict = containers::DictFor<containers::DictBackend::kOpenHash,
                                     uint32_t>::type;
  uint64_t distinct = 0;
  start = WallSeconds();
  size_t t = 0;
  for (size_t end : doc_end) {
    TfDict tf;
    for (; t < end; ++t) {
      tf.FindOrInsert(std::string_view(flat).substr(spans[t].first,
                                                    spans[t].second)) += 1;
    }
    distinct += tf.size();
  }
  double insert_s = WallSeconds() - start;
  p.tf_insert_ns_per_token =
      spans.empty() ? 0 : insert_s * 1e9 / static_cast<double>(spans.size());
  if (distinct == 0) return Status::Internal("tf probe saw no terms");

  ops::ExecContext ctx;
  ctx.executor = setup.pool4.get();
  ctx.corpus_disk = dev.corpus.get();
  HPA_ASSIGN_OR_RETURN(
      auto wc, ops::RunWordCount<containers::DictBackend::kOpenHash>(ctx,
                                                                     reader));
  p.dict_bytes = wc.ApproxDictBytes();  // what TfidfResult::dict_bytes holds
  p.vocab_terms = wc.doc_freq.size();

  p.empty_region_us = MedianEmptyRegionUs(*setup.pool4, reader.size(), 0);
  p.empty_batch_region_us =
      MedianEmptyRegionUs(*setup.serve_pool, kMaxBatch, 1);
  return p;
}

// --- metrics -------------------------------------------------------------

// Everything one run measured.
struct Measurements {
  std::vector<double> setup_s;
  double classify_us = 0.0;
  BatchLeg batch;
  ServeLeg serve;
  ProcessCounters os_before;
  ProcessCounters os_after;
  size_t attempted = 0;
  size_t failed = 0;
};

std::vector<Metric> EndToEndMetrics(const Measurements& m) {
  const ServeLeg& s = m.serve;
  return {
      {"makespan_w4_s", Median(m.batch.w4), "s"},
      {"makespan_w1_s", Median(m.batch.w1), "s"},
      {"setup_s", Median(m.setup_s), "s"},
      {"peak_rss_mb", m.os_after.peak_rss_mb, "MB"},
      {"lat_p50_ms.light", Min(s.light.p50) * 1e3, "ms"},
      {"ok_share",
       1.0 - static_cast<double>(m.failed) / static_cast<double>(m.attempted),
       "ratio"},
  };
}

void AddSpans(std::vector<Metric>& out, const PhaseSpans& s,
              const std::string& suffix) {
  out.push_back({"core.open_s" + suffix, s.open, "s"});
  out.push_back({"core.input_wc_s" + suffix, s.input_wc, "s"});
  out.push_back({"core.df_merge_s" + suffix, s.df_merge, "s"});
  out.push_back({"core.transform_s" + suffix, s.transform, "s"});
  out.push_back({"core.tfidf_output_s" + suffix, s.tfidf_output, "s"});
  out.push_back({"core.kmeans_input_s" + suffix, s.kmeans_input, "s"});
  out.push_back({"core.kmeans_s" + suffix, s.kmeans, "s"});
  out.push_back({"core.output_s" + suffix, s.output, "s"});
}

// |virtual / wall - 1| per workflow phase (0 for phases the plan lacks);
// the signed times are printed as commentary, since the sign says whether
// the virtual clock is optimistic or pessimistic.
void AddSimErrors(std::vector<Metric>& out, const PhaseSpans& sim,
                  const PhaseSpans& real) {
  auto add = [&](const char* phase, double virt, double wall) {
    if (wall > 0) {
      std::printf("# sim: %s virtual %.6g s, wall %.6g s at %d workers\n",
                  phase, virt, wall, kBatchWorkers);
    }
    out.push_back({std::string("parallel.sim_error.") + phase,
                   wall > 0 ? std::fabs(virt / wall - 1.0) : 0.0, "ratio"});
  };
  add("input_wc", sim.input_wc, real.input_wc);
  add("df_merge", sim.df_merge, real.df_merge);
  add("transform", sim.transform, real.transform);
  add("tfidf_output", sim.tfidf_output, real.tfidf_output);
  add("kmeans_input", sim.kmeans_input, real.kmeans_input);
  add("kmeans", sim.kmeans, real.kmeans);
  add("output", sim.output, real.output);
}

// The traced run whose phase total is the median.
TracedRun MedianTraced(std::vector<TracedRun> runs) {
  std::sort(runs.begin(), runs.end(), [](const auto& a, const auto& b) {
    return a.spans.Total() < b.spans.Total();
  });
  return runs[runs.size() / 2];
}

// The traced pass: phase spans from the traced runs interleaved with the
// untraced ones, the same phases on the simulator, and the layer probes.
StatusOr<std::vector<Metric>> PerLayerMetrics(const RunConfig& cfg,
                                              const Setup& setup,
                                              const Devices& dev,
                                              const BatchEnv& env,
                                              const Measurements& m,
                                              bool* correct) {
  const BatchLeg& batch = m.batch;
  if (batch.trace_ratio_w1.empty() || batch.trace_ratio_w4.empty()) {
    return Status::Internal("no traced runs");
  }
  const TracedRun t1 = MedianTraced(batch.traced_w1);
  const TracedRun t4 = MedianTraced(batch.traced_w4);
  // The simulator with no device attached, at the pool's worker count.
  parallel::SimulatedExecutor sim(kBatchWorkers,
                                  parallel::MachineModel::Default());
  HPA_ASSIGN_OR_RETURN(
      TracedRun ts,
      RunTraced(cfg.batch, sim, env, [&sim] { return sim.Now(); }));
  if (ts.fingerprint != batch.fingerprint) {
    std::fprintf(stderr, "CHECK FAILED: simulated result differs\n");
    *correct = false;
  }
  HPA_ASSIGN_OR_RETURN(LayerProbes probes, ProbeLayers(setup, dev));

  std::vector<Metric> out;
  AddSpans(out, t1.spans, ".w1");
  AddSpans(out, t4.spans, ".w4");
  // Each traced run against the untraced run next to it, so that a slow
  // spell of the host shows on both sides of a ratio.
  const double overhead1 = Median(batch.trace_ratio_w1) - 1.0;
  const double overhead4 = Median(batch.trace_ratio_w4) - 1.0;
  out.push_back({"core.phase_sum_gap.w1", std::fabs(overhead1), "ratio"});
  out.push_back({"core.phase_sum_gap.w4", std::fabs(overhead4), "ratio"});

  const UntracedRun& run = batch.last_w4;
  out.push_back({"io.read_mb_per_s", probes.read_mb_per_s, "MB/s"});
  out.push_back({"io.bytes_read", static_cast<double>(run.bytes_read),
                 "bytes"});
  out.push_back({"io.bytes_written", static_cast<double>(run.bytes_written),
                 "bytes"});
  out.push_back({"io.modeled_device_s", run.modeled_device_s, "s"});

  out.push_back({"text.tokenize_mb_per_s", probes.tokenize_mb_per_s, "MB/s"});
  out.push_back({"text.tokens", static_cast<double>(probes.tokens), "count"});

  out.push_back({"containers.tf_insert_ns_per_token",
                 probes.tf_insert_ns_per_token, "ns"});
  out.push_back({"containers.dict_bytes",
                 static_cast<double>(probes.dict_bytes), "bytes"});
  out.push_back({"containers.vocab_terms",
                 static_cast<double>(probes.vocab_terms), "count"});

  const RunCounters& k = run.counters;
  const double kernels =
      static_cast<double>(k.kernels_evaluated + k.kernels_skipped);
  out.push_back({"ops.kmeans_kernels_evaluated",
                 static_cast<double>(k.kernels_evaluated), "count"});
  out.push_back({"ops.kmeans_skip_ratio",
                 static_cast<double>(k.kernels_skipped) / kernels, "ratio"});
  out.push_back({"ops.kmeans_iterations", static_cast<double>(k.iterations),
                 "count"});
  out.push_back({"ops.classify_us", m.classify_us, "us"});

  const parallel::SchedulerStats& st = run.sched;
  double max_tasks = 0, sum_tasks = 0;
  for (uint64_t n : st.per_worker_tasks) {
    max_tasks = std::max(max_tasks, static_cast<double>(n));
    sum_tasks += static_cast<double>(n);
  }
  const double mean_tasks =
      sum_tasks / static_cast<double>(st.per_worker_tasks.size());
  out.push_back({"parallel.regions.w4", static_cast<double>(st.regions),
                 "count"});
  out.push_back({"parallel.tasks_spawned.w4",
                 static_cast<double>(st.tasks_spawned), "count"});
  out.push_back({"parallel.steals.w4", static_cast<double>(st.steals),
                 "count"});
  out.push_back({"parallel.task_imbalance.w4", max_tasks / mean_tasks,
                 "ratio"});
  out.push_back({"parallel.empty_region_us.w4", probes.empty_region_us, "us"});
  out.push_back({"parallel.empty_batch_region_us",
                 probes.empty_batch_region_us, "us"});
  AddSimErrors(out, ts.spans, t4.spans);

  const WindowSet& h = m.serve.heavy;
  out.push_back({"serve.batch_occupancy",
                 static_cast<double>(h.batched) /
                     static_cast<double>(h.batches),
                 "count"});
  out.push_back({"serve.max_queue_depth",
                 static_cast<double>(h.max_queue_depth), "count"});
  out.push_back({"serve.rejected", static_cast<double>(h.rejected), "count"});
  out.push_back({"serve.deadline_misses",
                 static_cast<double>(h.deadline_misses), "count"});
  out.push_back({"serve.server_p99_ms", Median(h.server_p99) * 1e3, "ms"});
  out.push_back({"serve.max_rate_rps", Median(m.serve.burst_rates), "1/s"});
  out.push_back({"serve.ladder_rate_rps", Max(m.serve.ladder_rates), "1/s"});
  out.push_back({"serve.lat_p50_ms.heavy", Min(h.p50) * 1e3, "ms"});
  out.push_back({"serve.lat_p99_ms.light", Min(m.serve.light.p99) * 1e3,
                 "ms"});
  out.push_back({"serve.lat_p99_ms.heavy", Min(h.p99) * 1e3, "ms"});
  out.push_back({"serve.median_window_p99_ms.light",
                 Median(m.serve.light.p99) * 1e3, "ms"});
  out.push_back({"serve.median_window_p99_ms.heavy", Median(h.p99) * 1e3,
                 "ms"});
  out.push_back({"serve.gen_late_p99_ms", Median(h.gen_late_p99) * 1e3, "ms"});

  out.push_back({"os.ctx_switches",
                 static_cast<double>(m.os_after.voluntary_switches +
                                     m.os_after.involuntary_switches -
                                     m.os_before.voluntary_switches -
                                     m.os_before.involuntary_switches),
                 "count"});
  out.push_back({"os.minor_faults",
                 static_cast<double>(m.os_after.minor_faults -
                                     m.os_before.minor_faults),
                 "count"});

  out.push_back({"bench.trace_overhead.w1", overhead1, "ratio"});
  out.push_back({"bench.trace_overhead.w4", overhead4, "ratio"});
  return out;
}

// Prints every metric with its unit, then the result line; returns the
// final verdict (a non-finite metric fails the run).
bool PrintResult(std::vector<Metric> metrics, bool correct, size_t attempted,
                 size_t failed) {
  for (Metric& m : metrics) {
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "CHECK FAILED: metric %s is not finite\n",
                   m.name.c_str());
      correct = false;
      m.value = -1;
    }
  }
  std::string json = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    std::printf("%-36s %14.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
    json += (i > 0 ? ", \"" : "\"") + m.name + "\": {\"value\": " +
            JsonNumber(m.value) + ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct;
}

// --- main flows --------------------------------------------------------

int Run(const RunConfig& cfg) {
  std::string selftest_report;
  if (RunSelfTests(&selftest_report) != 0) {
    std::fprintf(stderr, "%s", selftest_report.c_str());
    return 1;
  }
  std::printf("%s", FormatHostInfo(ProbeHost()).c_str());
  std::printf("# constants: server max_batch %zu, max_wait %g ms, queue %zu, "
              "deadline %g ms; per round %d bursts of %zu requests and %d "
              "light and heavy windows of %zu requests; traced ladder "
              "%g..%g req/s x%g from the heavy rate, rung %g s x%d, p99 "
              "limit %g ms; %llu held-out bodies\n",
              kMaxBatch, kMaxWaitS * 1e3, kQueueCapacity, kDeadlineS * 1e3,
              kBurstsPerRound, kBurstRequests, kWindowsPerRound,
              kWindowRequests, kLadderBottomRps, kLadderTopRps, kLadderStep,
              kRungS, kRungAttempts, kLimitS * 1e3,
              static_cast<unsigned long long>(kHeldoutBodies));

  auto dev_or = OpenDevices(cfg.dir, /*fresh_scratch=*/true);
  if (!dev_or.ok()) {
    std::fprintf(stderr, "%s\n", dev_or.status().ToString().c_str());
    return 1;
  }
  const Devices& dev = *dev_or;
  auto requests_or = text::ReadCorpusPacked(dev.corpus.get(), kHeldoutPack);
  if (!requests_or.ok() || requests_or->docs.empty()) {
    std::fprintf(stderr, "held-out bodies unreadable (run gen first)\n");
    return 1;
  }
  std::vector<std::string> bodies;
  for (auto& d : requests_or->docs) bodies.push_back(std::move(d.body));
  requests_or->docs.clear();

  Measurements m;
  // Set-up, several times; the last one is kept for the run.
  Setup setup;
  for (int i = 0; i < kSetupRepeats; ++i) {
    double seconds = 0;
    auto s = SetUp(dev, cfg.batch, "models/setup" + std::to_string(i),
                   &seconds);
    if (!s.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n",
                   s.status().ToString().c_str());
      return 1;
    }
    m.setup_s.push_back(seconds);
    setup = std::move(*s);
  }

  // Expected answers: serial Classify of every body, timed as a layer.
  std::vector<Expected> expected(bodies.size());
  double start = WallSeconds();
  for (size_t i = 0; i < bodies.size(); ++i) {
    expected[i].cluster =
        setup.model->Classify(bodies[i], &expected[i].distance);
  }
  m.classify_us =
      (WallSeconds() - start) * 1e6 / static_cast<double>(bodies.size());

  BatchEnv env{dev.corpus.get(), dev.scratch.get(), kCorpusPack};
  ServeEnv serve_env;
  serve_env.model = setup.model.get();
  serve_env.bodies = &bodies;
  serve_env.expected = &expected;
  serve_env.executor = setup.serve_pool.get();
  serve_env.options.max_batch = kMaxBatch;
  serve_env.options.max_wait_sec = kMaxWaitS;
  serve_env.options.queue_capacity = kQueueCapacity;
  serve_env.deadline_s = kDeadlineS;

  m.os_before = ReadProcessCounters();
  RunLegs(cfg, setup, env, serve_env, &m.batch, &m.serve);
  m.os_after = ReadProcessCounters();

  const BatchLeg& batch = m.batch;
  const ServeLeg& serve = m.serve;
  bool correct = batch.failed == 0 && batch.identical && !batch.w1.empty() &&
                 !batch.w4.empty();
  if (!serve.accounted) {
    std::fprintf(stderr, "CHECK FAILED: a request was not accounted for "
                         "exactly once\n");
    correct = false;
  }
  if (serve.wrong_answers != 0) {
    std::fprintf(stderr, "CHECK FAILED: %zu served answers differ from "
                         "serial Classify\n", serve.wrong_answers);
    correct = false;
  }
  m.attempted = batch.runs + serve.light.sent + serve.heavy.sent +
                serve.burst_sent;
  m.failed =
      batch.failed + serve.light.bad + serve.heavy.bad + serve.burst_bad;

  std::printf("# batch: %zu runs (%zu at 4 workers, %zu at 1), results %s; "
              "self-relative speedup %.3f\n",
              batch.runs, batch.w4.size(), batch.w1.size(),
              batch.identical ? "identical" : "DIFFER",
              Median(batch.w1) / Median(batch.w4));
  std::printf("# serve: %zu windows in %.3g s; light %zu samples in %zu "
              "windows (%zu too few for p99), heavy %zu in %zu (%zu); "
              "%zu bursts at %.0f..%.0f req/s; ladder climbs:",
              serve.windows, serve.seconds, serve.light.samples,
              serve.light.p99.size(), serve.light.thin_windows,
              serve.heavy.samples, serve.heavy.p99.size(),
              serve.heavy.thin_windows, serve.burst_rates.size(),
              Min(serve.burst_rates), Max(serve.burst_rates));
  for (double r : serve.ladder_rates) std::printf(" %.0f", r);
  std::printf("\n# fail_share %.6g (%zu of %zu)\n",
              static_cast<double>(m.failed) /
                  static_cast<double>(m.attempted),
              m.failed, m.attempted);

  std::vector<Metric> metrics;
  if (!cfg.trace) {
    metrics = EndToEndMetrics(m);
  } else {
    auto layers = PerLayerMetrics(cfg, setup, dev, env, m, &correct);
    if (!layers.ok()) {
      std::fprintf(stderr, "traced pass failed: %s\n",
                   layers.status().ToString().c_str());
      return 1;
    }
    metrics = std::move(*layers);
  }
  return PrintResult(std::move(metrics), correct, m.attempted, m.failed) ? 0
                                                                        : 1;
}

int Gen(const FlagSet& f) {
  double scale = f.GetDouble("scale");
  int64_t topics = f.GetInt("k");
  if (scale <= 0 || scale > 1 || topics < 1) {
    std::fprintf(stderr, "--scale must be in (0, 1], --k >= 1\n");
    return 2;
  }
  auto dev = OpenDevices(f.GetString("dir"), /*fresh_scratch=*/false);
  Status s = dev.ok() ? WriteInputs(dev->corpus.get(),
                                    static_cast<uint64_t>(f.GetInt("seed")),
                                    scale, kHeldoutBodies,
                                    static_cast<int>(topics))
                      : dev.status();
  if (!s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  return 0;
}

int Main(int argc, char** argv) {
  SetMinLogLevel(LogLevel::kWarning);
  FlagSet f("e2ebench", "e2ebench gen|run|selftest [flags]");
  // Per-workload values have no usable default: run.py passes them from
  // workloads.json.
  f.DefineString("dir", "", "work directory (inputs and scratch)");
  f.DefineInt("seed", 1, "input and arrival-schedule seed");
  f.DefineDouble("scale", 0, "gen: NSF Abstracts scale factor");
  f.DefineInt("k", 0, "clusters, and topics planted by gen");
  f.DefineDouble("seconds", 0, "run: measuring time");
  f.DefineInt("trace", 0, "run: 1 = traced pass, per-layer metrics");
  f.DefineString("plan", "", "run: fused | discrete TF/IDF edge");
  f.DefineInt("iters", 0, "run: fixed K-means iterations");
  f.DefineInt("serve_rounds", 0, "run: serving rounds in the run");
  f.DefineDouble("light_rps", 0, "run: light open-loop rate");
  f.DefineDouble("heavy_rps", 0, "run: heavy open-loop rate");
  Status s = f.Parse(argc, argv);
  if (!s.ok() || f.positional().size() != 1) {
    std::fprintf(stderr, "%s\n%s", s.ToString().c_str(), f.Help().c_str());
    return 2;
  }
  const std::string& cmd = f.positional()[0];
  if (cmd == "gen") return Gen(f);
  if (cmd == "selftest") {
    std::string report;
    int failures = RunSelfTests(&report);
    std::printf("%sselftest: %d failure(s)\n", report.c_str(), failures);
    return failures == 0 ? 0 : 1;
  }
  if (cmd == "run") {
    auto cfg = ParseRunConfig(f);
    if (!cfg.ok()) {
      std::fprintf(stderr, "%s\n", cfg.status().ToString().c_str());
      return 2;
    }
    return Run(*cfg);
  }
  std::fprintf(stderr, "unknown command '%s'\n", cmd.c_str());
  return 2;
}

}  // namespace
}  // namespace hpa::e2e

int main(int argc, char** argv) { return hpa::e2e::Main(argc, argv); }
