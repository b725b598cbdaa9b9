#include "ops/tfidf_vectorizer.h"

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "io/file_io.h"
#include "io/packed_corpus.h"
#include "parallel/executor.h"
#include "text/corpus_io.h"

namespace hpa::ops {
namespace {

class TfidfVectorizerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dir = io::MakeTempDir("hpa_vectorizer_");
    ASSERT_TRUE(dir.ok());
    dir_ = *dir;
    disk_ = std::make_unique<io::SimDisk>(io::DiskOptions::CorpusStore(),
                                          dir_, nullptr);

    text::Corpus corpus;
    corpus.name = "train";
    corpus.docs = {
        {"d0", "apple banana apple"},
        {"d1", "banana cherry"},
        {"d2", "apple"},
    };
    ASSERT_TRUE(text::WriteCorpusPacked(corpus, disk_.get(), "t.pack").ok());
    auto reader = io::PackedCorpusReader::Open(disk_.get(), "t.pack");
    ASSERT_TRUE(reader.ok());
    ExecContext ctx;
    ctx.executor = &exec_;
    ctx.corpus_disk = disk_.get();
    auto fitted = TfidfInMemory(ctx, *reader);
    ASSERT_TRUE(fitted.ok());
    fitted_ = std::make_unique<TfidfResult>(std::move(fitted).value());
  }
  void TearDown() override { io::RemoveDirRecursive(dir_); }

  std::string dir_;
  std::unique_ptr<io::SimDisk> disk_;
  parallel::SerialExecutor exec_;
  std::unique_ptr<TfidfResult> fitted_;
};

TEST_F(TfidfVectorizerTest, FittedResultCarriesDfs) {
  // apple df=2, banana df=2, cherry df=1 (sorted term order).
  ASSERT_EQ(fitted_->term_dfs.size(), 3u);
  EXPECT_EQ(fitted_->term_dfs[0], 2u);
  EXPECT_EQ(fitted_->term_dfs[1], 2u);
  EXPECT_EQ(fitted_->term_dfs[2], 1u);
  EXPECT_EQ(fitted_->num_documents(), 3u);
}

TEST_F(TfidfVectorizerTest, ScoringTrainingDocReproducesItsRow) {
  TfidfVectorizer vectorizer(*fitted_);
  containers::SparseVector scored = vectorizer.Score("apple banana apple");
  const containers::SparseVector& row = fitted_->matrix.rows[0];
  ASSERT_EQ(scored.nnz(), row.nnz());
  for (size_t i = 0; i < row.nnz(); ++i) {
    EXPECT_EQ(scored.id_at(i), row.id_at(i));
    EXPECT_NEAR(scored.value_at(i), row.value_at(i), 1e-6);
  }
}

TEST_F(TfidfVectorizerTest, UnknownWordsAreIgnored) {
  TfidfVectorizer vectorizer(*fitted_);
  containers::SparseVector scored =
      vectorizer.Score("apple zebra quokka banana");
  EXPECT_EQ(scored.nnz(), 2u);  // apple + banana only
  containers::SparseVector nothing = vectorizer.Score("zebra quokka");
  EXPECT_TRUE(nothing.empty());
}

TEST_F(TfidfVectorizerTest, SaveLoadRoundTrip) {
  TfidfVectorizer original(*fitted_);
  ASSERT_TRUE(original.Save(disk_.get(), "model.txt").ok());

  auto loaded = TfidfVectorizer::Load(disk_.get(), "model.txt");
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->vocabulary_size(), original.vocabulary_size());
  EXPECT_EQ(loaded->num_training_documents(),
            original.num_training_documents());

  containers::SparseVector a = original.Score("banana cherry cherry");
  containers::SparseVector b = loaded->Score("banana cherry cherry");
  EXPECT_TRUE(a == b);
}

TEST_F(TfidfVectorizerTest, LoadRejectsCorruptModels) {
  ASSERT_TRUE(disk_->WriteFile("bad1.txt", "not a model\n").ok());
  EXPECT_EQ(TfidfVectorizer::Load(disk_.get(), "bad1.txt").status().code(),
            StatusCode::kCorruption);

  ASSERT_TRUE(disk_->WriteFile("bad2.txt",
                               "hpa-tfidf-model v1\ndocuments 3\nterms 2\n"
                               "apple 2\n")  // one term missing
                  .ok());
  EXPECT_FALSE(TfidfVectorizer::Load(disk_.get(), "bad2.txt").ok());

  ASSERT_TRUE(disk_->WriteFile("bad3.txt",
                               "hpa-tfidf-model v1\ndocuments 3\nterms 1\n"
                               "apple 99\n")  // df > documents
                  .ok());
  EXPECT_FALSE(TfidfVectorizer::Load(disk_.get(), "bad3.txt").ok());
}

TEST_F(TfidfVectorizerTest, NearestCentroidClassifiesNewDocuments) {
  // Cluster the training matrix, then classify fresh text.
  ExecContext ctx;
  ctx.executor = &exec_;
  KMeansOptions kopts;
  kopts.k = 2;
  kopts.max_iterations = 20;
  auto clusters = SparseKMeans(ctx, fitted_->matrix, kopts);
  ASSERT_TRUE(clusters.ok());

  TfidfVectorizer vectorizer(*fitted_);
  // A new apple-heavy document should land with the apple training docs.
  containers::SparseVector fresh = vectorizer.Score("apple apple apple");
  std::vector<double> centroid_sq;
  for (const auto& c : clusters->centroids) {
    double sq = 0.0;
    for (float x : c) sq += static_cast<double>(x) * x;
    centroid_sq.push_back(sq);
  }
  const CentroidPanel panel(clusters->centroids, std::move(centroid_sq));
  double best_d = 0.0;
  int cluster = panel.Nearest(fresh, fresh.SquaredL2Norm(), &best_d);
  EXPECT_EQ(static_cast<uint32_t>(cluster),
            clusters->assignment[2]);  // d2 = "apple"
}

TEST_F(TfidfVectorizerTest, SublinearOptionAppliesAtScoringTime) {
  TfidfOptions opts;
  opts.sublinear_tf = true;
  opts.normalize = false;
  TfidfVectorizer vectorizer(*fitted_, opts);
  containers::SparseVector one = vectorizer.Score("cherry");
  containers::SparseVector many = vectorizer.Score("cherry cherry cherry");
  // Sublinear: tripling tf multiplies the score by (1+ln3), not 3.
  EXPECT_NEAR(many.value_at(0) / one.value_at(0), 1.0 + std::log(3.0),
              1e-5);
}

}  // namespace
}  // namespace hpa::ops
