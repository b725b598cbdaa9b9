#ifndef HPA_OPS_TFIDF_H_
#define HPA_OPS_TFIDF_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/string_util.h"
#include "containers/sparse_matrix.h"
#include "io/arff.h"
#include "io/packed_corpus.h"
#include "io/sharded_arff.h"
#include "ops/exec_context.h"
#include "ops/word_count.h"

/// \file
/// The TF/IDF operator (§3.2): phase 1 is the parallel word count
/// (word_count.h); phase 2 scores every document with
///     tfidf(w, d) = tf(w, d) * ln(N / df(w))
/// and L2-normalizes the per-document vectors, sorted by term id.
///
/// Two forms, mirroring the paper's Figure 3:
///  * `TfidfToArff`   — the *discrete* operator: phase 2 is a single serial
///    pass that computes scores and writes them straight to a sparse ARFF
///    file ("the ARFF format does not facilitate parallel output").
///    Phases: input+wc, df-merge, tfidf-output.
///  * `TfidfInMemory` — the *fused* form: phase 2 is a parallel in-memory
///    transform producing a SparseMatrix. Phases: input+wc, df-merge,
///    transform.

namespace hpa::ops {

/// TF/IDF scoring options. Defaults reproduce the paper's plain
/// tf * ln(N/df) with L2 normalization and no vocabulary pruning.
struct TfidfOptions {
  /// Drop terms occurring in fewer than `min_df` documents (noise cut).
  uint32_t min_df = 1;

  /// Drop terms occurring in more than `max_df_ratio * N` documents
  /// (stop-word cut; 1.0 keeps everything).
  double max_df_ratio = 1.0;

  /// Use 1 + ln(tf) instead of raw tf (dampens very frequent terms).
  bool sublinear_tf = false;

  /// L2-normalize each document's score vector (the paper clusters
  /// "normalized TF/IDF scores").
  bool normalize = true;
};

/// In-memory TF/IDF output.
struct TfidfResult {
  /// One normalized score row per document; columns are term ids.
  containers::SparseMatrix matrix;

  /// Term strings, index = term id (lexicographically sorted).
  std::vector<std::string> terms;

  /// Document frequency per term id (parallel to `terms`); together with
  /// num_documents() this is the fitted model new documents can be scored
  /// against (ops/tfidf_vectorizer.h).
  std::vector<uint32_t> term_dfs;

  /// Document names, index = row.
  std::vector<std::string> doc_names;

  /// Documents skipped during word count under FaultPolicy::kRetryThenSkip
  /// (their rows are present but empty). Empty under kFailFast.
  QuarantineList quarantine;

  size_t num_documents() const { return matrix.num_rows(); }

  /// Dictionary heap footprint observed before the tables were dropped.
  uint64_t dict_bytes = 0;

  uint64_t total_tokens = 0;
};

namespace tfidf_internal {

/// Sentinel id for terms pruned by min_df/max_df_ratio.
inline constexpr uint32_t kPrunedTermId = 0xFFFFFFFFu;

/// Recursive pairwise merge of per-shard *sorted* kept-term lists into
/// `lists[lo]`, as a nested fork/join spawn tree: the two halves merge as
/// sibling tasks, then their roots merge pairwise. Hash shards hold
/// disjoint keys, so the result is exactly the sorted global vocabulary the
/// serial concat+sort produces. Replaces the O(V log V) serial sort on the
/// term-id critical path with O(V) merges of depth log(shards).
inline void MergeSortedTermLists(parallel::Executor& exec,
                                 std::vector<std::vector<std::string>>& lists,
                                 size_t lo, size_t n) {
  if (n <= 1) return;
  size_t split = 1;
  while (split * 2 < n) split *= 2;
  if (split > 1 || n - split > 1) {
    parallel::WorkHint hint;
    hint.label = "term-ids-merge";
    exec.ParallelFor(0, 2, 1, hint, [&](int, size_t b, size_t e) {
      for (size_t side = b; side < e; ++side) {
        if (side == 0) {
          MergeSortedTermLists(exec, lists, lo, split);
        } else {
          MergeSortedTermLists(exec, lists, lo + split, n - split);
        }
      }
    });
  }
  std::vector<std::string>& left = lists[lo];
  std::vector<std::string>& right = lists[lo + split];
  std::vector<std::string> merged;
  merged.reserve(left.size() + right.size());
  std::merge(std::make_move_iterator(left.begin()),
             std::make_move_iterator(left.end()),
             std::make_move_iterator(right.begin()),
             std::make_move_iterator(right.end()), std::back_inserter(merged));
  left = std::move(merged);
  right.clear();
  right.shrink_to_fit();
}

/// Assigns term ids in sorted-word order inside `wc.doc_freq` and returns
/// the sorted list of *kept* terms; pruned terms get kPrunedTermId. If
/// `dfs` is non-null it receives the document frequency per term id.
///
/// Runs the sharded-parallel vocabulary sweep by default: kept terms are
/// collected and sorted shard-by-shard in parallel, the sorted per-shard
/// lists are combined by a nested pairwise-merge spawn tree (work-stealing
/// executors overlap merges across subtrees), and ids are written back per
/// shard in a second parallel loop — each shard's task binary-searches the
/// sorted vocabulary for its own keys, so no two tasks touch the same
/// shard. `ctx.flat_parallelism` replaces the merge tree with the serial
/// concat+sort between the two shard loops; `ctx.serial_merge` selects the
/// paper-era single serial pass. All paths produce identical ids (global
/// lexicographic order).
template <containers::DictBackend B>
std::vector<std::string> AssignTermIds(ExecContext& ctx,
                                       WordCountResult<B>& wc,
                                       const TfidfOptions& options,
                                       std::vector<uint32_t>* dfs = nullptr) {
  const uint32_t max_df = static_cast<uint32_t>(
      options.max_df_ratio * static_cast<double>(wc.num_documents()));
  auto keep = [&](const TermStat& stat) {
    return stat.df >= options.min_df && stat.df <= max_df;
  };

  std::vector<std::string> terms;

  if (ctx.serial_merge) {
    // Ablation path: one serial region doing collect + sort + write-back.
    ctx.executor->RunSerial(parallel::WorkHint{0, "term-ids"}, [&] {
      terms.reserve(wc.doc_freq.size());
      wc.doc_freq.ForEach([&](const std::string& word, const TermStat& stat) {
        if (keep(stat)) terms.push_back(word);
      });
      std::sort(terms.begin(), terms.end());
      wc.doc_freq.ForEach([&](const std::string& word, const TermStat& stat) {
        if (!keep(stat)) {
          // ForEach hands out const refs; fix up through the mutable handle.
          wc.doc_freq.FindOrInsert(std::string_view(word)).id = kPrunedTermId;
        }
      });
      if (dfs != nullptr) dfs->resize(terms.size());
      for (uint32_t id = 0; id < terms.size(); ++id) {
        TermStat& stat =
            wc.doc_freq.FindOrInsert(std::string_view(terms[id]));
        stat.id = id;
        if (dfs != nullptr) (*dfs)[id] = stat.df;
      }
    });
    return terms;
  }

  const size_t num_shards = wc.doc_freq.num_shards();
  const bool nested = !ctx.flat_parallelism;

  // Pass 1 (parallel over shards): collect each shard's kept terms. On the
  // nested path each shard also sorts its own list inside the task, feeding
  // the merge tree below.
  std::vector<std::vector<std::string>> shard_terms(num_shards);
  parallel::WorkHint collect_hint;
  collect_hint.label = "term-ids-collect";
  ctx.executor->ParallelFor(
      0, num_shards, 0, collect_hint, [&](int, size_t b, size_t e) {
        for (size_t s = b; s < e; ++s) {
          wc.doc_freq.shard(s).ForEach(
              [&](const std::string& word, const TermStat& stat) {
                if (keep(stat)) shard_terms[s].push_back(word);
              });
          if (nested) std::sort(shard_terms[s].begin(), shard_terms[s].end());
        }
      });

  if (nested) {
    // Ordering step, work-stealing form: pairwise sorted-merge spawn tree
    // over the per-shard lists. Shards hold disjoint keys, so this yields
    // exactly the global lexicographic order of the serial sort — but the
    // O(V log V) serial comparison sort is gone from the critical path.
    tfidf_internal::MergeSortedTermLists(*ctx.executor, shard_terms, 0,
                                         num_shards);
    terms = std::move(shard_terms[0]);
  } else {
    // Flat ablation path (--flat-parallelism): serial ordering step —
    // concatenate and sort the global vocabulary between the two shard
    // loops, the shape the flat executor contract forced. O(V log V) over
    // V strings on the calling thread.
    ctx.executor->RunSerial(parallel::WorkHint{0, "term-ids-sort"}, [&] {
      size_t total = 0;
      for (const auto& st : shard_terms) total += st.size();
      terms.reserve(total);
      for (auto& st : shard_terms) {
        for (auto& word : st) terms.push_back(std::move(word));
        st.clear();
      }
      std::sort(terms.begin(), terms.end());
    });
  }

  // Pass 2 (parallel over shards): write ids back. Each task mutates only
  // its own shards, and each kept term's global id comes from a binary
  // search of the sorted vocabulary — race-free, deterministic.
  if (dfs != nullptr) dfs->resize(terms.size());
  parallel::WorkHint assign_hint;
  assign_hint.label = "term-ids-assign";
  ctx.executor->ParallelFor(
      0, num_shards, 0, assign_hint, [&](int, size_t b, size_t e) {
        for (size_t s = b; s < e; ++s) {
          auto& shard = wc.doc_freq.shard(s);
          shard.ForEach([&](const std::string& word, const TermStat& stat) {
            // ForEach hands out const refs; values are fixed up through the
            // mutable handle (key exists, so no structural change).
            TermStat& mstat = shard.FindOrInsert(std::string_view(word));
            if (!keep(stat)) {
              mstat.id = kPrunedTermId;
              return;
            }
            auto it = std::lower_bound(terms.begin(), terms.end(), word);
            const uint32_t id =
                static_cast<uint32_t>(it - terms.begin());
            mstat.id = id;
            if (dfs != nullptr) (*dfs)[id] = stat.df;
          });
        }
      });
  return terms;
}

/// What scoring needs once term ids are assigned: per worker vocabulary,
/// local term id -> term id (kPrunedTermId for pruned terms), and the idf
/// of every kept term, computed once per term id rather than once per
/// (document, term).
struct ScoringIndex {
  std::vector<std::vector<uint32_t>> term_ids;  // [vocabulary][local id]
  std::vector<double> idf;                      // [term id]
};

/// Assigns term ids (AssignTermIds; `terms` receives the sorted kept
/// vocabulary, `dfs` the df per term id) and resolves them for scoring:
/// one global-table probe per distinct word per worker vocabulary, in
/// parallel over vocabularies.
template <containers::DictBackend B>
ScoringIndex PrepareScoring(ExecContext& ctx, WordCountResult<B>& wc,
                            const TfidfOptions& options,
                            std::vector<std::string>& terms,
                            std::vector<uint32_t>& dfs) {
  terms = AssignTermIds(ctx, wc, options, &dfs);
  ScoringIndex index;
  index.term_ids.resize(wc.vocabs.size());
  index.idf.resize(dfs.size());
  const double n_docs = static_cast<double>(wc.num_documents());
  parallel::WorkHint hint;
  hint.label = "term-ids-resolve";
  ctx.executor->ParallelFor(
      0, wc.vocabs.size(), 1, hint, [&](int, size_t b, size_t e) {
        for (size_t v = b; v < e; ++v) {
          const std::vector<std::string>& words = wc.vocabs[v].words;
          std::vector<uint32_t>& ids = index.term_ids[v];
          ids.resize(words.size());
          for (size_t local = 0; local < words.size(); ++local) {
            // Every worker word is in the global table by construction.
            ids[local] = wc.doc_freq.Find(std::string_view(words[local]))->id;
          }
        }
      });
  ctx.executor->RunSerial(parallel::WorkHint{0, "idf"}, [&] {
    for (size_t id = 0; id < dfs.size(); ++id) {
      index.idf[id] = std::log(n_docs / static_cast<double>(dfs[id]));
    }
  });
  return index;
}

/// Builds the sparse score row for one document into `row`, using
/// `scratch` for unsorted (id, score) pairs. Both are recycled across
/// calls (the paper's "no new objects" discipline). Scoring is by id
/// alone: the document's table maps local ids through `index`.
template <containers::DictBackend B>
void BuildScoreRow(const WordCountResult<B>& wc, const ScoringIndex& index,
                   size_t doc, const TfidfOptions& options,
                   std::vector<std::pair<uint32_t, float>>& scratch,
                   containers::SparseVector& row) {
  scratch.clear();
  row.Clear();
  if (wc.doc_vocab[doc] != kNoVocabulary) {
    const std::vector<uint32_t>& ids = index.term_ids[wc.doc_vocab[doc]];
    wc.doc_tfs[doc].ForEach([&](uint32_t local, uint32_t tf) {
      const uint32_t id = ids[local];
      if (id == kPrunedTermId) return;
      double weight = options.sublinear_tf
                          ? 1.0 + std::log(static_cast<double>(tf))
                          : static_cast<double>(tf);
      scratch.emplace_back(id, static_cast<float>(weight * index.idf[id]));
    });
  }
  std::sort(scratch.begin(), scratch.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  row.Reserve(scratch.size());
  for (const auto& [id, score] : scratch) row.PushBack(id, score);
  if (options.normalize) row.NormalizeL2();
}

}  // namespace tfidf_internal

/// Fused-form transform applied to an existing word-count result:
/// the "transform" phase of Figures 3 and 4.
template <containers::DictBackend B>
TfidfResult TfidfTransformT(ExecContext& ctx, WordCountResult<B> wc,
                            const TfidfOptions& options = {}) {
  TfidfResult result;
  result.total_tokens = wc.total_tokens;
  result.dict_bytes = wc.ApproxDictBytes();
  result.quarantine = std::move(wc.quarantine);

  ctx.TimePhase("transform", [&] {
    // Term-id assignment: sharded-parallel vocabulary sweeps around one
    // serial sort (or fully serial with ctx.serial_merge); it issues its
    // own executor regions, so the clock charges it either way.
    const tfidf_internal::ScoringIndex index = tfidf_internal::PrepareScoring(
        ctx, wc, options, result.terms, result.term_dfs);
    ctx.executor->RunSerial(parallel::WorkHint{0, "transform-setup"}, [&] {
      result.matrix.num_cols = static_cast<uint32_t>(result.terms.size());
      result.matrix.rows.resize(wc.num_documents());
    });
    result.doc_names = std::move(wc.doc_names);

    parallel::WorkerLocal<std::vector<std::pair<uint32_t, float>>> scratch(
        *ctx.executor);

    parallel::WorkHint hint;
    // The transform's memory traffic is dominated by walking the
    // dictionaries; this is what saturates bandwidth for bloated backends
    // (Figure 4's u-map scaling collapse).
    hint.bytes_touched = result.dict_bytes;
    hint.label = "transform";
    ctx.executor->ParallelFor(
        0, wc.num_documents(), 0, hint,
        [&](int worker, size_t begin, size_t end) {
          auto& pairs = scratch.Get(worker);
          for (size_t i = begin; i < end; ++i) {
            tfidf_internal::BuildScoreRow(wc, index, i, options, pairs,
                                          result.matrix.rows[i]);
          }
        });
  });
  return result;
}

/// Fused-form TF/IDF over a packed corpus: parallel input+wc, then a
/// parallel in-memory transform. Statically parameterized on the
/// dictionary backend.
template <containers::DictBackend B>
StatusOr<TfidfResult> TfidfInMemoryT(ExecContext& ctx,
                                     const io::PackedCorpusReader& corpus,
                                     const TfidfOptions& options = {}) {
  HPA_ASSIGN_OR_RETURN(auto wc, RunWordCount<B>(ctx, corpus));
  return TfidfTransformT<B>(ctx, std::move(wc), options);
}

/// Discrete-form TF/IDF: parallel input+wc, then one serial pass that
/// scores documents and streams them to sparse ARFF at `arff_path` on
/// ctx.scratch_disk. Phases: "input+wc", "df-merge", "tfidf-output".
template <containers::DictBackend B>
Status TfidfToArffT(ExecContext& ctx, const io::PackedCorpusReader& corpus,
                    const std::string& arff_path,
                    const TfidfOptions& options = {}) {
  HPA_ASSIGN_OR_RETURN(auto wc, RunWordCount<B>(ctx, corpus));
  if (ctx.quarantine != nullptr) {
    // The discrete form's result is the file, so the word-count quarantine
    // would otherwise be dropped on the floor; surface it to the workflow.
    ctx.quarantine->MergeFrom(std::move(wc.quarantine));
  }

  // Device-aware output: the serial single-file pass below exists because
  // "the ARFF format does not facilitate parallel output" — but on a
  // multi-channel scratch device that format choice, not the device, is
  // the bottleneck. There the operator writes the sharded-ARFF v2 layout
  // instead (one shard per channel, parallel transform + parallel shard
  // writes, manifest as commit record); downstream readers dispatch on
  // the manifest's presence, so the switch is transparent.
  if (ctx.scratch_disk != nullptr &&
      ctx.scratch_disk->options().channels > 1) {
    Status status;
    ctx.TimePhase("tfidf-output", [&] {
      std::vector<std::string> terms;
      std::vector<uint32_t> dfs;
      const tfidf_internal::ScoringIndex index =
          tfidf_internal::PrepareScoring(ctx, wc, options, terms, dfs);
      // Rows are scored *inside* each shard's write loop (per-worker
      // scratch recycled row to row), so the scoring region streams
      // straight to the device and the full SparseMatrix never exists —
      // peak memory is the dictionaries plus one 64 KiB chunk per shard.
      // Bytes on disk are identical to the score-then-write pass.
      struct RowScratch {
        std::vector<std::pair<uint32_t, float>> pairs;
        containers::SparseVector row;
      };
      parallel::WorkerLocal<RowScratch> scratch(*ctx.executor);
      parallel::WorkHint hint;
      hint.bytes_touched = wc.ApproxDictBytes();
      hint.label = "tfidf-output-rows";
      status = io::WriteShardedArffRows(
          ctx.scratch_disk, ctx.executor, arff_path, "tfidf", terms,
          wc.num_documents(), ctx.scratch_disk->options().channels,
          [&](int worker, size_t i) -> const containers::SparseVector& {
            RowScratch& s = scratch.Get(worker);
            tfidf_internal::BuildScoreRow(wc, index, i, options, s.pairs,
                                          s.row);
            return s.row;
          },
          hint);
    });
    return status;
  }

  Status status;
  ctx.TimePhase("tfidf-output", [&] {
    // Term-id assignment runs its own (possibly parallel) regions; the
    // ARFF streaming below stays one serial region, as the format demands.
    std::vector<std::string> terms;
    std::vector<uint32_t> dfs;
    const tfidf_internal::ScoringIndex index =
        tfidf_internal::PrepareScoring(ctx, wc, options, terms, dfs);
    ctx.executor->RunSerial(parallel::WorkHint{0, "tfidf-output"}, [&] {
      status = [&]() -> Status {
        HPA_ASSIGN_OR_RETURN(auto writer,
                             ctx.scratch_disk->OpenWriter(arff_path));

        std::string chunk;
        chunk.reserve(1 << 16);
        chunk += "% generated by hpa tfidf\n@relation tfidf\n";
        for (const std::string& term : terms) {
          chunk += "@attribute ";
          chunk += term;
          chunk += " numeric\n";
          if (chunk.size() >= (1 << 16)) {
            HPA_RETURN_IF_ERROR(writer->Append(chunk));
            chunk.clear();
          }
        }
        chunk += "@data\n";

        std::vector<std::pair<uint32_t, float>> scratch;
        containers::SparseVector row;
        for (size_t i = 0; i < wc.num_documents(); ++i) {
          tfidf_internal::BuildScoreRow(wc, index, i, options, scratch, row);
          chunk += '{';
          for (size_t k = 0; k < row.nnz(); ++k) {
            if (k > 0) chunk += ',';
            AppendUint(chunk, row.id_at(k));
            chunk += ' ';
            AppendDouble(chunk, static_cast<double>(row.value_at(k)));
          }
          chunk += "}\n";
          if (chunk.size() >= (1 << 16)) {
            HPA_RETURN_IF_ERROR(writer->Append(chunk));
            chunk.clear();
          }
        }
        HPA_RETURN_IF_ERROR(writer->Append(chunk));
        return writer->Close();
      }();
    });
  });
  return status;
}

/// Runtime-dispatched forms (backend chosen by ctx.dict_backend).
StatusOr<TfidfResult> TfidfInMemory(ExecContext& ctx,
                                    const io::PackedCorpusReader& corpus,
                                    const TfidfOptions& options = {});
Status TfidfToArff(ExecContext& ctx, const io::PackedCorpusReader& corpus,
                   const std::string& arff_path,
                   const TfidfOptions& options = {});

/// Reads a TF/IDF ARFF intermediate back in (the discrete workflow's
/// "kmeans-input" phase; serial by format design).
StatusOr<containers::SparseMatrix> ReadTfidfArff(ExecContext& ctx,
                                                 const std::string& arff_path);

}  // namespace hpa::ops

#endif  // HPA_OPS_TFIDF_H_
