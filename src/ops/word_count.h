#ifndef HPA_OPS_WORD_COUNT_H_
#define HPA_OPS_WORD_COUNT_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "containers/dictionary.h"
#include "containers/open_hash_map.h"
#include "io/packed_corpus.h"
#include "parallel/parallel_ops.h"
#include "ops/exec_context.h"
#include "text/document.h"
#include "text/stemmer.h"
#include "text/tokenizer.h"

/// \file
/// Phase 1 of TF/IDF — the paper's "input+wc" phase: read every document
/// (in parallel, §3.2), tokenize it, and collect
///   * a per-document term-frequency table (term -> tf), and
///   * a corpus-wide document-frequency table (word -> #docs containing it).
///
/// The counting loop is a single parallel loop over documents, exactly the
/// structure of the paper's Cilk implementation, and every driver (packed
/// corpus, in-memory corpus, streaming windows) runs the same per-document
/// kernel, `wc_internal::TermCounter`. Each token is hashed once, against
/// the worker's term interner (word -> local term id); term frequencies
/// accumulate in a dense per-worker counter, and at the end of the
/// document they fill its table — keyed by local id, of the selected
/// backend — exactly once, while the worker's df count of each distinct
/// term ticks by one. No string is hashed or copied per document-word.
///
/// The corpus-wide merge of the per-worker vocabularies — the serial
/// Amdahl term that grows with the vocabulary while the parallel work grows
/// with documents — runs as a *parallel hash-partitioned merge* (its own
/// "df-merge" phase): each worker's terms are routed to the shards of the
/// global table, and shard s is merged from all workers by one task, one
/// probe per distinct word per worker. Setting `ctx.serial_merge` restores
/// the serial fold for ablation; the results are byte-identical either way.

namespace hpa::ops {

/// Per-term statistics in the global dictionary. `df` accumulates during
/// word count; `id` is assigned later by the TF/IDF transform (term ids are
/// the sorted-word order, so ARFF attributes are deterministic).
struct TermStat {
  uint32_t df = 0;
  uint32_t id = 0;
};

/// One worker's interned vocabulary: local term ids in the order the worker
/// first saw each word, and how many of the worker's documents contain it.
struct TermVocabulary {
  /// Local term id -> word.
  std::vector<std::string> words;

  /// Local term id -> documents counted on this worker that contain it.
  std::vector<uint32_t> df;

  uint64_t ApproxMemoryBytes() const {
    uint64_t bytes = words.capacity() * sizeof(std::string) +
                     df.capacity() * sizeof(uint32_t);
    for (const std::string& w : words) {
      bytes += containers::internal_hash::OwnedHeapBytes(w);
    }
    return bytes;
  }
};

/// `WordCountResult::doc_vocab` entry of a document that was not counted
/// (quarantined under FaultPolicy::kRetryThenSkip).
inline constexpr uint32_t kNoVocabulary = 0xFFFFFFFFu;

/// Output of the word-count phase, parameterized by dictionary backend.
template <containers::DictBackend B>
struct WordCountResult {
  /// Per-document table: local term id -> tf, backend B.
  using TfDict = typename containers::DictFor<B, uint32_t, uint32_t>::type;

  /// Global table: hash-partitioned shards of backend B, so the df merge
  /// and every later vocabulary sweep can be parallelized shard-by-shard.
  using DfDict = containers::ShardedDictFor<B, TermStat>;

  /// One term-frequency table per document, keyed by local term ids of
  /// `vocabs[doc_vocab[i]]` (kept as live dictionaries until the transform
  /// phase, as in the paper — this is what makes the backend choice a
  /// memory decision, §3.4). Empty when counting without tables (the
  /// streaming fit).
  std::vector<TfDict> doc_tfs;

  /// Which worker vocabulary each document's table is keyed by, or
  /// kNoVocabulary for a quarantined document.
  std::vector<uint32_t> doc_vocab;

  /// Per-worker vocabularies, indexed by worker slot.
  std::vector<TermVocabulary> vocabs;

  /// Document names, one per document in corpus order.
  std::vector<std::string> doc_names;

  /// Global word -> {document frequency, term id} table.
  DfDict doc_freq;

  /// Documents skipped under FaultPolicy::kRetryThenSkip (empty under
  /// kFailFast). A quarantined document keeps its slot in doc_tfs /
  /// doc_names with an empty term table, so ids and row numbering are
  /// unaffected.
  QuarantineList quarantine;

  uint64_t total_tokens = 0;

  /// Approximate heap footprint of all dictionaries (the paper's 420 MB vs
  /// 12.8 GB comparison).
  uint64_t ApproxDictBytes() const {
    uint64_t bytes = doc_freq.ApproxMemoryBytes();
    for (const TermVocabulary& v : vocabs) bytes += v.ApproxMemoryBytes();
    for (const TfDict& d : doc_tfs) bytes += d.ApproxMemoryBytes();
    return bytes;
  }

  size_t num_documents() const { return doc_vocab.size(); }
};

namespace wc_internal {

/// The per-document counting kernel, one per worker: the term interner
/// (word -> local id, the only hash of each token), the worker's vocabulary
/// with its df counts, and a dense tf counter indexed by local id that a
/// touched list resets after each document.
class TermCounter {
 public:
  /// Counts one document. When `table` is non-null it receives local id ->
  /// tf for every distinct term, inserted once each after the last token.
  template <typename Table>
  void Count(const ExecContext& ctx, std::string_view body, Table* table) {
    text::ForEachToken(body, ctx.tokenizer, [&](std::string_view token) {
      if (ctx.stem_tokens) {
        stem_buf_.assign(token);
        token = text::PorterStem(stem_buf_);
      }
      const size_t known = ids_.size();
      uint32_t& slot = ids_.FindOrInsert(token);
      if (ids_.size() != known) {  // first sighting on this worker
        slot = static_cast<uint32_t>(vocab.words.size());
        vocab.words.emplace_back(token);
        vocab.df.push_back(0);
        tf_.push_back(0);
      }
      const uint32_t id = slot;
      if (tf_[id]++ == 0) touched_.push_back(id);
      ++tokens;
    });
    if (table != nullptr) {
      table->Reserve(std::max(ctx.per_doc_dict_presize, touched_.size()));
    }
    for (uint32_t id : touched_) {
      if (table != nullptr) table->FindOrInsert(id) = tf_[id];
      ++vocab.df[id];
      tf_[id] = 0;
    }
    touched_.clear();
  }

  TermVocabulary vocab;
  uint64_t tokens = 0;

 private:
  containers::OpenHashMap<std::string, uint32_t> ids_;
  std::vector<uint32_t> tf_;
  std::vector<uint32_t> touched_;
  std::string stem_buf_;
};

/// Folds the per-worker vocabularies into `result.doc_freq` under its own
/// "df-merge" phase. Each worker's local ids are first grouped by the
/// shard that owns their word (one hash per distinct word per worker);
/// shard s is then merged from every worker, in slot order, by one task —
/// or all shards by one serial region when `ctx.serial_merge` is set. Both
/// paths insert in the same order: byte-identical output.
template <containers::DictBackend B>
void MergeDocFrequencies(ExecContext& ctx, WordCountResult<B>& result) {
  const std::vector<TermVocabulary>& vocabs = result.vocabs;
  auto& global = result.doc_freq;
  const size_t num_shards = global.num_shards();

  // Worker w's local ids ordered by shard; shard s owns
  // ids[begin[s], begin[s + 1]).
  struct Routes {
    std::vector<uint32_t> ids;
    std::vector<uint32_t> begin;
  };
  std::vector<Routes> routes(vocabs.size());
  auto route = [&](size_t w) {
    const std::vector<std::string>& words = vocabs[w].words;
    Routes& r = routes[w];
    std::vector<uint32_t> shard_of(words.size());
    r.begin.assign(num_shards + 1, 0);
    for (size_t id = 0; id < words.size(); ++id) {
      shard_of[id] = static_cast<uint32_t>(global.ShardOf(words[id]));
      ++r.begin[shard_of[id] + 1];
    }
    for (size_t s = 0; s < num_shards; ++s) r.begin[s + 1] += r.begin[s];
    std::vector<uint32_t> cursor(r.begin.begin(), r.begin.end() - 1);
    r.ids.resize(words.size());
    for (size_t id = 0; id < words.size(); ++id) {
      r.ids[cursor[shard_of[id]]++] = static_cast<uint32_t>(id);
    }
  };
  auto merge = [&](size_t shard_begin, size_t shard_end) {
    for (size_t s = shard_begin; s < shard_end; ++s) {
      auto& dst = global.shard(s);
      for (size_t w = 0; w < vocabs.size(); ++w) {
        const Routes& r = routes[w];
        for (uint32_t k = r.begin[s]; k < r.begin[s + 1]; ++k) {
          const uint32_t id = r.ids[k];
          dst.FindOrInsert(std::string_view(vocabs[w].words[id])).df +=
              vocabs[w].df[id];
        }
      }
    }
  };

  ctx.TimePhase("df-merge", [&] {
    // Rough traffic estimate: every worker term is read once and folded
    // into the global table (key bytes + node overhead, ~64 B/entry).
    uint64_t entries = 0;
    for (const TermVocabulary& v : vocabs) entries += v.words.size();
    parallel::WorkHint hint;
    hint.label = "df-merge";
    hint.bytes_touched = entries * 64;
    if (ctx.serial_merge) {
      // Ablation path: the paper-era serial fold, one RunSerial region so
      // the executor clock charges it against all workers.
      ctx.executor->RunSerial(hint, [&] {
        for (size_t w = 0; w < vocabs.size(); ++w) route(w);
        merge(0, num_shards);
      });
      return;
    }
    parallel::WorkHint route_hint;
    route_hint.label = "df-route";
    route_hint.bytes_touched = entries * 32;
    ctx.executor->ParallelFor(0, vocabs.size(), 1, route_hint,
                              [&](int, size_t b, size_t e) {
                                for (size_t w = b; w < e; ++w) route(w);
                              });
    ctx.executor->ParallelFor(0, num_shards, 0, hint,
                              [&](int, size_t b, size_t e) { merge(b, e); });
  });
}

/// One word-count run over `n` documents: the per-worker counting state,
/// the per-document loop every driver shares, and the closing df merge.
template <containers::DictBackend B>
class CountingRun {
 public:
  /// `keep_tables` = false counts without per-document tables (the
  /// streaming fit keeps only the df table). `disk` (may be null) is the
  /// device documents are read from; its retry policy sets the attempt
  /// count recorded for a quarantined document.
  CountingRun(ExecContext& ctx, WordCountResult<B>& result, size_t n,
              bool keep_tables, const io::SimDisk* disk)
      : ctx_(ctx),
        result_(result),
        disk_(disk),
        workers_(*ctx.executor),
        errors_(n) {
    if (keep_tables) result_.doc_tfs.resize(n);
    result_.doc_names.resize(n);
    result_.doc_vocab.assign(n, kNoVocabulary);
  }

  /// Counts documents [begin, end) on `worker`. `name(i)` is document i's
  /// name; `fetch(i, buf)` yields its body as a StatusOr<std::string_view>
  /// that may point into `buf`. A failed fetch quarantines the document
  /// under kRetryThenSkip, and otherwise records the error and cancels the
  /// region's remaining chunks.
  template <typename Name, typename Fetch>
  void CountRange(int worker, size_t begin, size_t end, Name&& name,
                  Fetch&& fetch) {
    Worker& slot = workers_.Get(worker);
    const bool tables = !result_.doc_tfs.empty();
    for (size_t i = begin; i < end; ++i) {
      if (ctx_.executor->stop_requested()) return;
      result_.doc_names[i] = name(i);
      StatusOr<std::string_view> body = fetch(i, slot.body);
      if (!body.ok()) {
        if (ctx_.fault_policy == FaultPolicy::kRetryThenSkip) {
          // Quarantine: record id + cause, leave the tf table empty (the
          // slot keeps the corpus numbering), keep going.
          int attempts = 1;
          if (disk_ != nullptr &&
              disk_->retry_policy().IsRetryable(body.status())) {
            const int max = disk_->retry_policy().max_attempts;
            attempts = max < 1 ? 1 : max;
          }
          slot.quarantine.retries += static_cast<uint64_t>(attempts - 1);
          slot.quarantine.Add(result_.doc_names[i], body.status(), attempts);
        } else {
          errors_[i] = body.status();
          // Fail fast: no point paying for documents whose result this
          // run will discard.
          ctx_.executor->RequestStop();
        }
        continue;
      }
      slot.counter.Count(ctx_, *body, tables ? &result_.doc_tfs[i] : nullptr);
      result_.doc_vocab[i] = static_cast<uint32_t>(worker);
    }
  }

  /// The first read error recorded for documents [begin, end), or OK.
  Status FirstError(size_t begin, size_t end) const {
    for (size_t i = begin; i < end; ++i) {
      if (!errors_[i].ok()) return errors_[i];
    }
    return Status::OK();
  }

  /// Moves the worker vocabularies, token counts and quarantine lists into
  /// the result and runs the df merge. Quarantine lists merge in slot
  /// order, then sort by id, so the report is independent of which worker
  /// owned each document.
  void Finish() {
    result_.vocabs.resize(workers_.size());
    for (size_t w = 0; w < workers_.size(); ++w) {
      Worker& slot = workers_.Get(static_cast<int>(w));
      result_.vocabs[w] = std::move(slot.counter.vocab);
      result_.total_tokens += slot.counter.tokens;
      result_.quarantine.MergeFrom(std::move(slot.quarantine));
    }
    result_.quarantine.SortById();
    MergeDocFrequencies<B>(ctx_, result_);
  }

 private:
  struct Worker {
    TermCounter counter;
    QuarantineList quarantine;
    std::string body;  // recycled read buffer
  };

  ExecContext& ctx_;
  WordCountResult<B>& result_;
  const io::SimDisk* disk_;
  parallel::WorkerLocal<Worker> workers_;
  // Each document writes only its own error slot, so the parallel loop
  // needs no synchronization; the first failure wins after the loop.
  std::vector<Status> errors_;
};

}  // namespace wc_internal

/// Runs word count over a packed corpus on storage. Document reads are
/// issued from inside the parallel loop (parallel input). Accrues the
/// "input+wc" and "df-merge" phases on ctx.phases.
template <containers::DictBackend B>
StatusOr<WordCountResult<B>> RunWordCount(
    ExecContext& ctx, const io::PackedCorpusReader& corpus) {
  WordCountResult<B> result;
  const size_t n = corpus.size();
  wc_internal::CountingRun<B> run(ctx, result, n, /*keep_tables=*/true,
                                  corpus.disk());
  ctx.TimePhase("input+wc", [&] {
    parallel::WorkHint hint;
    hint.bytes_touched = corpus.total_body_bytes();
    hint.label = "input+wc";
    ctx.executor->ParallelFor(
        0, n, 0, hint, [&](int worker, size_t begin, size_t end) {
          run.CountRange(
              worker, begin, end,
              [&](size_t i) -> const std::string& { return corpus.name(i); },
              [&](size_t i, std::string& buf) -> StatusOr<std::string_view> {
                HPA_ASSIGN_OR_RETURN(buf, corpus.ReadBody(i));
                return std::string_view(buf);
              });
        });
  });

  // Fail fast before paying for the merge: the loop above cancelled its
  // remaining chunks, so any recorded error aborts here.
  Status error = run.FirstError(0, n);
  if (!error.ok()) return error.WithContext("word count");
  run.Finish();
  return result;
}

/// In-memory overload: word count over an already-loaded corpus (no
/// storage reads; used by fused pipelines that already hold the text).
template <containers::DictBackend B>
WordCountResult<B> RunWordCountInMemory(ExecContext& ctx,
                                        const text::Corpus& corpus) {
  WordCountResult<B> result;
  const size_t n = corpus.size();
  wc_internal::CountingRun<B> run(ctx, result, n, /*keep_tables=*/true,
                                  /*disk=*/nullptr);
  ctx.TimePhase("input+wc", [&] {
    parallel::WorkHint hint;
    hint.bytes_touched = corpus.TotalBytes();
    hint.label = "input+wc";
    ctx.executor->ParallelFor(
        0, n, 0, hint, [&](int worker, size_t begin, size_t end) {
          run.CountRange(
              worker, begin, end,
              [&](size_t i) -> const std::string& {
                return corpus.docs[i].name;
              },
              [&](size_t i, std::string&) -> StatusOr<std::string_view> {
                return std::string_view(corpus.docs[i].body);
              });
        });
  });
  run.Finish();
  return result;
}

}  // namespace hpa::ops

#endif  // HPA_OPS_WORD_COUNT_H_
