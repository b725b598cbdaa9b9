#include "ops/streaming.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <utility>

#include "common/string_util.h"
#include "ops/kmeans_internal.h"
#include "parallel/parallel_ops.h"
#include "text/stemmer.h"
#include "text/tokenizer.h"

namespace hpa::ops {

namespace streaming_internal {

void AddPrefetchCounters(PhaseTimer* phases, const std::string& phase,
                         const io::PrefetchStats& stats) {
  if (phases == nullptr) return;
  phases->AddCount(phase, "windows_fetched", stats.windows_fetched);
  phases->AddCount(phase, "windows_prefetched", stats.windows_prefetched);
  phases->AddCount(phase, "bytes_read_ahead", stats.bytes_read_ahead);
  phases->AddCount(
      phase, "stall_ns",
      static_cast<uint64_t>(std::max(0.0, stats.stall_seconds) * 1e9 + 0.5));
  phases->AddCount(
      phase, "overlap_permille",
      static_cast<uint64_t>(stats.OverlapRatio() * 1000.0 + 0.5));
  phases->AddCount(phase, "high_water_bytes", stats.high_water_bytes);
}

TermIndex::TermIndex(const StreamingTfidfModel& model) {
  ids.Reserve(model.terms.size());
  idf.reserve(model.terms.size());
  const double n_docs = static_cast<double>(model.num_docs);
  for (size_t id = 0; id < model.terms.size(); ++id) {
    ids.FindOrInsert(model.terms[id]) = static_cast<uint32_t>(id);
    idf.push_back(std::log(n_docs / static_cast<double>(model.term_dfs[id])));
  }
}

void ScoreDocument(const ExecContext& ctx, const StreamingTfidfModel& model,
                   const TermIndex& index, std::string_view body,
                   ScoreScratch& scratch) {
  scratch.pairs.clear();
  scratch.row.Clear();
  text::ForEachToken(body, ctx.tokenizer, [&](std::string_view token) {
    if (ctx.stem_tokens) {
      scratch.stem_buf.assign(token);
      token = text::PorterStem(scratch.stem_buf);
    }
    const uint32_t* id = index.ids.Find(token);
    if (id == nullptr) return;  // pruned (min_df/max_df) or unseen
    if (scratch.tf[*id]++ == 0) scratch.touched.push_back(*id);
  });
  // Identical arithmetic to tfidf_internal::BuildScoreRow. The touched
  // order does not matter — ids are distinct, so the sort below lands the
  // same row either way.
  for (uint32_t id : scratch.touched) {
    const uint32_t count = scratch.tf[id];
    scratch.tf[id] = 0;
    double weight = model.options.sublinear_tf
                        ? 1.0 + std::log(static_cast<double>(count))
                        : static_cast<double>(count);
    scratch.pairs.emplace_back(id, static_cast<float>(weight * index.idf[id]));
  }
  scratch.touched.clear();
  std::sort(scratch.pairs.begin(), scratch.pairs.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  scratch.row.Reserve(scratch.pairs.size());
  for (const auto& [id, score] : scratch.pairs) {
    scratch.row.PushBack(id, score);
  }
  if (model.options.normalize) scratch.row.NormalizeL2();
}

}  // namespace streaming_internal

namespace {

using streaming_internal::ScoreDocument;
using streaming_internal::ScoreScratch;
using streaming_internal::TermIndex;

/// Folds one pass's window stats into the caller-provided accumulator.
void AccumulateStats(io::PrefetchStats* into, const io::PrefetchStats& from) {
  if (into == nullptr) return;
  into->windows_fetched += from.windows_fetched;
  into->windows_prefetched += from.windows_prefetched;
  into->bytes_read += from.bytes_read;
  into->bytes_read_ahead += from.bytes_read_ahead;
  into->stall_seconds += from.stall_seconds;
  into->lane_busy_seconds += from.lane_busy_seconds;
  into->crc_reread_docs += from.crc_reread_docs;
  into->high_water_bytes =
      std::max(into->high_water_bytes, from.high_water_bytes);
}

template <containers::DictBackend B>
StatusOr<StreamingTfidfModel> StreamingTfidfFitT(
    ExecContext& ctx, const io::PackedCorpusReader& corpus,
    const TfidfOptions& options, const StreamingOptions& sopts,
    io::PrefetchStats* stats) {
  StreamingTfidfModel model;
  const size_t n = corpus.size();
  model.num_docs = n;
  model.corpus_path = corpus.rel_path();
  model.options = options;
  model.window_bytes = sopts.window_bytes;
  model.prefetch = sopts.prefetch;

  // The word-count result without per-document tables: only the global df
  // table (and num_documents()) is used, which is the whole point of the
  // streaming pass. The per-worker counters persist across windows: df
  // increments are order-insensitive integers, so accumulating them
  // window-by-window yields exactly the table one whole-corpus pass
  // builds, regardless of which window (or worker) saw each document.
  WordCountResult<B> wc;
  wc_internal::CountingRun<B> run(ctx, wc, n, /*keep_tables=*/false,
                                  corpus.disk());

  io::WindowPrefetcher windows(&corpus, sopts.window_bytes, sopts.prefetch);

  Status stream_status;
  ctx.TimePhase("input+wc", [&] {
    for (size_t w = 0; w < windows.num_windows(); ++w) {
      if (sopts.fail_after_windows >= 0 &&
          w >= static_cast<size_t>(sopts.fail_after_windows)) {
        stream_status = Status::Internal(
            StrFormat("injected stream failure after %d window(s)",
                      sopts.fail_after_windows));
        return;
      }
      const io::WindowData& data = windows.Acquire(ctx.executor, w);
      parallel::WorkHint hint;
      hint.bytes_touched = windows.window(w).bytes;
      hint.label = "input+wc";
      ctx.executor->ParallelFor(
          data.begin_doc, data.end_doc, 0, hint,
          [&](int worker, size_t begin, size_t end) {
            run.CountRange(
                worker, begin, end,
                [&](size_t i) -> const std::string& { return corpus.name(i); },
                [&](size_t i, std::string&) -> StatusOr<std::string_view> {
                  const size_t local = i - data.begin_doc;
                  if (!data.statuses[local].ok()) return data.statuses[local];
                  return std::string_view(data.bodies[local]);
                });
          });
      // Fail fast between windows: the region above cancelled its own
      // remaining chunks; no point fetching further windows either.
      Status error = run.FirstError(data.begin_doc, data.end_doc);
      if (!error.ok()) {
        stream_status = error.WithContext("streaming word count");
        return;
      }
    }
  });
  streaming_internal::AddPrefetchCounters(ctx.phases, "input+wc",
                                          windows.stats());
  AccumulateStats(stats, windows.stats());
  if (!stream_status.ok()) return stream_status;

  run.Finish();
  model.total_tokens = wc.total_tokens;
  model.doc_failed.resize(n);
  for (size_t i = 0; i < n; ++i) {
    model.doc_failed[i] = wc.doc_vocab[i] == kNoVocabulary ? 1 : 0;
  }

  // Same sorted global term-id assignment as the in-memory transform —
  // shard-major merge over the same sharded table, so terms/ids/dfs are
  // identical no matter how documents were windowed. The df table is
  // dropped right after: the model keeps only the sorted vocabulary.
  ctx.TimePhase("transform", [&] {
    model.terms =
        tfidf_internal::AssignTermIds(ctx, wc, options, &model.term_dfs);
  });
  model.dict_bytes = wc.doc_freq.ApproxMemoryBytes();
  model.doc_names = std::move(wc.doc_names);
  model.quarantine = std::move(wc.quarantine);
  return model;
}

}  // namespace

StatusOr<StreamingTfidfModel> StreamingTfidfFit(
    ExecContext& ctx, const io::PackedCorpusReader& corpus,
    const TfidfOptions& options, const StreamingOptions& sopts,
    io::PrefetchStats* stats) {
  return containers::DispatchDictBackend(ctx.dict_backend, [&](auto tag) {
    return StreamingTfidfFitT<tag()>(ctx, corpus, options, sopts, stats);
  });
}

StatusOr<KMeansResult> StreamingSparseKMeans(
    ExecContext& ctx, const StreamingTfidfModel& model,
    const io::PackedCorpusReader& corpus, const KMeansOptions& options,
    const StreamingOptions& sopts, io::PrefetchStats* stats) {
  if (options.k <= 0) {
    return Status::InvalidArgument("k must be positive, got " +
                                   std::to_string(options.k));
  }
  const size_t n = model.num_docs;
  if (n == 0) {
    return Status::InvalidArgument("cannot cluster an empty matrix");
  }
  if (static_cast<size_t>(options.k) > n) {
    return Status::InvalidArgument(
        StrFormat("k=%d exceeds number of rows (%zu)", options.k, n));
  }
  if (options.init == KMeansInit::kPlusPlus) {
    return Status::InvalidArgument(
        "k-means++ seeding needs full-corpus distance passes; streaming "
        "k-means supports stratified seeding only");
  }
  if (corpus.size() != n) {
    return Status::InvalidArgument(
        StrFormat("corpus has %zu documents but the model was fitted on %zu",
                  corpus.size(), n));
  }

  const uint32_t dim = static_cast<uint32_t>(model.terms.size());
  const int k = options.k;
  const bool skip_mode = ctx.fault_policy == FaultPolicy::kRetryThenSkip;

  KMeansResult result;
  Status stream_status;
  io::WindowPrefetcher windows(&corpus, sopts.window_bytes, sopts.prefetch);
  size_t windows_seen = 0;

  ctx.TimePhase("kmeans", [&] {
    // The vocabulary lookup table and the per-worker scoring scratch are
    // built once for the whole run.
    std::unique_ptr<TermIndex> index;
    using Scoring = parallel::WorkerLocal<ScoreScratch>;
    std::unique_ptr<Scoring> score_scratch;
    ctx.executor->RunSerial(parallel::WorkHint{0, "kmeans-init"}, [&] {
      index = std::make_unique<TermIndex>(model);
      score_scratch = std::make_unique<Scoring>(
          *ctx.executor, [&] { return ScoreScratch(dim); });
    });

    // Streaming always recycles its accumulators.
    kmeans_internal::LloydState state(ctx, n, k, dim,
                                      options.prune && !ctx.no_prune,
                                      /*recycle=*/true);

    // Seeding reads the k stratified seed documents individually (k
    // ranged reads, charged normally) and densifies their re-scored rows
    // — the same rows the in-memory path densifies out of its matrix.
    ctx.executor->RunSerial(parallel::WorkHint{0, "kmeans-init"}, [&] {
      state.centroids.assign(static_cast<size_t>(k),
                             std::vector<float>(dim, 0.0f));
      state.centroid_sq.assign(static_cast<size_t>(k), 0.0);
      const std::vector<size_t> seeds =
          kmeans_internal::SeedRows(n, k, options.seed);
      ScoreScratch& ss = score_scratch->Get(0);
      for (int c = 0; c < k; ++c) {
        const size_t i = seeds[static_cast<size_t>(c)];
        ss.row.Clear();
        if (!model.doc_failed[i]) {
          auto body = corpus.ReadBody(i);
          if (body.ok()) {
            ScoreDocument(ctx, model, *index, *body, ss);
          } else if (!skip_mode) {
            stream_status =
                body.status().WithContext("streaming k-means seeding");
            return;
          }
          // skip mode: a seed document lost to faults keeps an all-zero
          // centroid, matching the empty row it would occupy in the
          // materialized matrix.
        }
        containers::AddScaled(ss.row, 1.0f,
                              state.centroids[static_cast<size_t>(c)]);
        state.centroid_sq[static_cast<size_t>(c)] = ss.row.SquaredL2Norm();
      }
    });
    if (!stream_status.ok()) return;
    state.BuildPanel(ctx);

    result.assignment.assign(n, 0xFFFFFFFFu);

    // Hamerly bound state persists across windows AND iterations — this is
    // what makes pruning survive windowing: a document's bounds loosen by
    // the same drifts whether its row lives in RAM or is re-scored.
    //
    // The chunk grid is GLOBAL — a pure function of (n, workers), exactly
    // the grid the in-memory assignment uses — while windows are an I/O
    // artifact. A chunk split by a window boundary resumes its partial
    // inertia sum (`local = chunk_inertia[c]`), so the left-to-right FP
    // addition order inside every chunk matches the in-memory loop.
    const size_t assign_grain = state.assign_grain;
    std::vector<Status> doc_errors(n);

    for (int iter = 0; iter < options.max_iterations; ++iter) {
      ++result.iterations;
      kmeans_internal::BeginIteration(ctx, state, iter);
      ctx.executor->RunSerial(parallel::WorkHint{}, [&] {
        std::fill(state.chunk_inertia.begin(), state.chunk_inertia.end(),
                  0.0);
      });

      const bool bounds_live = state.prune && iter > 0;
      const double assign_t0 = ctx.executor->Now();
      windows.Reset();
      for (size_t w = 0; w < windows.num_windows(); ++w) {
        if (sopts.fail_after_windows >= 0 &&
            windows_seen >= static_cast<size_t>(sopts.fail_after_windows)) {
          stream_status = Status::Internal(
              StrFormat("injected stream failure after %d window(s)",
                        sopts.fail_after_windows));
          return;
        }
        const io::WindowData& data = windows.Acquire(ctx.executor, w);
        ++windows_seen;

        parallel::WorkHint assign_hint;
        assign_hint.label = "kmeans-assign";
        assign_hint.bytes_touched =
            windows.window(w).bytes +
            static_cast<uint64_t>(k) * dim * sizeof(float);

        const size_t c0 = data.begin_doc / assign_grain;
        const size_t c1 = (data.end_doc - 1) / assign_grain + 1;
        ctx.executor->ParallelFor(
            c0, c1, 1, assign_hint, [&](int worker, size_t cb, size_t ce) {
              kmeans_internal::Accumulators& acc =
                  kmeans_internal::WorkerAccumulators(state, worker);
              ScoreScratch& ss = score_scratch->Get(worker);
              for (size_t c = cb; c < ce; ++c) {
                const size_t b = std::max(c * assign_grain, data.begin_doc);
                const size_t e =
                    std::min((c + 1) * assign_grain, data.end_doc);
                double local_inertia = state.chunk_inertia[c];
                for (size_t i = b; i < e; ++i) {
                  const size_t local = i - data.begin_doc;
                  ss.row.Clear();
                  if (model.doc_failed[i] == 0) {
                    if (data.statuses[local].ok()) {
                      ScoreDocument(ctx, model, *index, data.bodies[local],
                                    ss);
                    } else if (!skip_mode) {
                      doc_errors[i] = data.statuses[local];
                      ctx.executor->RequestStop();
                      continue;
                    }
                    // skip mode: a document lost to faults mid-stream
                    // clusters as an empty row, like a quarantined one.
                  }
                  kmeans_internal::AssignRow(state, acc, i, ss.row,
                                             ss.row.SquaredL2Norm(),
                                             bounds_live, result.assignment,
                                             local_inertia);
                }
                state.chunk_inertia[c] = local_inertia;
              }
            });
        for (size_t i = data.begin_doc; i < data.end_doc; ++i) {
          if (!doc_errors[i].ok()) {
            stream_status =
                doc_errors[i].WithContext("streaming k-means input");
            return;
          }
        }
      }
      if (ctx.phases != nullptr) {
        ctx.phases->AddCount(
            "kmeans", "assign_ns",
            static_cast<uint64_t>(
                std::max(0.0, ctx.executor->Now() - assign_t0) * 1e9 + 0.5));
      }

      // Merge + finalize are the in-memory code path itself.
      const kmeans_internal::IterationTotals totals =
          kmeans_internal::EndIteration(ctx, state);
      if (kmeans_internal::RecordIteration(options, totals, result)) break;
    }

    if (ctx.phases != nullptr) {
      ctx.phases->AddCount("kmeans", "distance_kernels_evaluated",
                           result.distance_kernels_evaluated);
      ctx.phases->AddCount("kmeans", "distance_kernels_skipped",
                           result.distance_kernels_skipped);
    }

    result.centroids = std::move(state.centroids);
  });

  streaming_internal::AddPrefetchCounters(ctx.phases, "kmeans",
                                          windows.stats());
  AccumulateStats(stats, windows.stats());
  if (!stream_status.ok()) return stream_status;
  return result;
}

}  // namespace hpa::ops
