#ifndef HPA_OPS_TFIDF_VECTORIZER_H_
#define HPA_OPS_TFIDF_VECTORIZER_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "containers/open_hash_map.h"
#include "containers/sparse_vector.h"
#include "io/sim_disk.h"
#include "ops/kmeans.h"
#include "ops/tfidf.h"

/// \file
/// Inference on a fitted TF/IDF model: score *new* documents against the
/// vocabulary and document frequencies learned from a training corpus, and
/// assign them to existing K-means clusters. This is what turns the
/// paper's batch workflow into a deployable pipeline: fit once (workflow),
/// persist the model, classify forever.

namespace hpa::ops {

/// A frozen TF/IDF model: term -> (id, training df), with the training
/// document count. Unknown words in new documents are ignored (they have
/// no idf evidence).
class TfidfVectorizer {
 public:
  /// Freezes the model fitted by TfidfInMemory/TfidfTransform.
  /// `options` must match the fit (sublinear/normalize are applied at
  /// scoring time; pruning already happened during the fit).
  TfidfVectorizer(const TfidfResult& fitted, TfidfOptions options = {});

  /// Scores one document body: tokenize (with `tokenizer`), look up each
  /// term, weight by tf * ln(N/df), sort by id, normalize per options.
  /// `stem_tokens` must match the fit: a model fitted from a stemming
  /// workflow has stemmed terms in its vocabulary, so raw tokens would
  /// silently miss.
  containers::SparseVector Score(std::string_view body,
                                 const text::TokenizerOptions& tokenizer = {},
                                 bool stem_tokens = false) const;

  /// Number of terms in the vocabulary.
  size_t vocabulary_size() const { return terms_.size(); }

  /// Training document count (the N in idf).
  uint64_t num_training_documents() const { return num_docs_; }

  /// Persists the model as a text file ("hpa-tfidf-model v1").
  Status Save(io::SimDisk* disk, const std::string& rel_path) const;

  /// Loads a model saved by Save().
  static StatusOr<TfidfVectorizer> Load(io::SimDisk* disk,
                                        const std::string& rel_path,
                                        TfidfOptions options = {});

 private:
  TfidfVectorizer() = default;

  void BuildIndex();

  std::vector<std::string> terms_;
  std::vector<uint32_t> dfs_;
  uint64_t num_docs_ = 0;
  TfidfOptions options_;
  containers::OpenHashMap<std::string, uint32_t> index_;  // term -> id
};

}  // namespace hpa::ops

#endif  // HPA_OPS_TFIDF_VECTORIZER_H_
