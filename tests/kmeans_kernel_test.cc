// Bit-identity suite for the K-means distance kernel (CentroidPanel) and
// everything built on it. The panel scan is called directly and compared
// with containers::Dot / SquaredDistance per centroid; SparseKMeans, MiniBatchKMeans and ModelHandle::Classify must
// reproduce fingerprints pinned from the per-centroid scan that preceded
// the panel, so a rewrite of the kernel cannot drift. Labelled "kernel"
// (ctest -L kernel) with TSan and ASan twins.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/checksum.h"
#include "common/random.h"
#include "ops/kmeans.h"
#include "ops/kmeans_internal.h"
#include "ops/tfidf.h"
#include "ops/tfidf_vectorizer.h"
#include "parallel/simulated_executor.h"
#include "parallel/thread_pool.h"
#include "serve/model_registry.h"
#include "text/synth_corpus.h"

namespace hpa::ops {
namespace {

using containers::SparseVector;

template <typename T>
void AppendRaw(std::string& out, T value) {
  char bytes[sizeof(T)];
  std::memcpy(bytes, &value, sizeof(T));
  out.append(bytes, sizeof(T));
}

uint64_t Bits(double v) {
  uint64_t b = 0;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

std::string Hex(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%016llxull",
                static_cast<unsigned long long>(v));
  return buf;
}

// ---------------------------------------------------------------------------
// The panel scans against the per-centroid kernels
// ---------------------------------------------------------------------------

constexpr uint32_t kDim = 97;
constexpr int kPanelSizes[] = {1, 3, 8, 13, 64};

std::vector<std::vector<float>> RandomCentroids(int k, uint32_t dim,
                                                uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<float>> centroids(static_cast<size_t>(k));
  for (auto& c : centroids) {
    c.resize(dim);
    for (float& v : c) {
      v = static_cast<float>(rng.NextDouble() * 2.0 - 1.0);
    }
  }
  return centroids;
}

std::vector<double> SqNorms(const std::vector<std::vector<float>>& centroids) {
  std::vector<double> sq;
  for (const auto& c : centroids) {
    double s = 0.0;
    for (float v : c) s += static_cast<double>(v) * v;
    sq.push_back(s);
  }
  return sq;
}

/// Rows covering the edges: empty, only id 0, only id dim-1, ids beyond
/// the panel (skipped, as Dot skips them), and dense-ish random rows.
std::vector<SparseVector> EdgeRows(uint64_t seed) {
  std::vector<SparseVector> rows;
  rows.emplace_back();
  rows.push_back(SparseVector::FromPairs({{0, 0.75f}}));
  rows.push_back(SparseVector::FromPairs({{kDim - 1, -1.5f}}));
  rows.push_back(SparseVector::FromPairs(
      {{2, 0.5f}, {kDim - 1, 0.25f}, {kDim, 3.0f}, {kDim + 40, -2.0f}}));
  Rng rng(seed);
  for (int r = 0; r < 40; ++r) {
    std::vector<std::pair<uint32_t, float>> pairs;
    for (uint32_t id = 0; id < kDim; ++id) {
      if (rng.NextBounded(4) == 0) {
        pairs.emplace_back(id, static_cast<float>(rng.NextDouble() - 0.5));
      }
    }
    SparseVector v = SparseVector::FromPairs(std::move(pairs));
    if (r % 2 == 0) v.NormalizeL2();
    rows.push_back(std::move(v));
  }
  return rows;
}

using ScanFn = void (*)(const float*, int, uint32_t, const SparseVector&,
                        double*);

/// Term-major copy of `centroids`, built here independently of the panel.
std::vector<float> Transpose(const std::vector<std::vector<float>>& centroids,
                             uint32_t dim) {
  const size_t k = centroids.size();
  std::vector<float> panel(static_cast<size_t>(dim) * k);
  for (size_t c = 0; c < k; ++c) {
    for (uint32_t id = 0; id < dim; ++id) panel[id * k + c] = centroids[c][id];
  }
  return panel;
}

void ExpectScanMatchesDot(ScanFn scan) {
  for (int k : kPanelSizes) {
    const auto centroids = RandomCentroids(k, kDim, 100 + k);
    const std::vector<float> panel = Transpose(centroids, kDim);
    for (const SparseVector& row : EdgeRows(k)) {
      std::vector<double> dots(static_cast<size_t>(k), -1.0);
      scan(panel.data(), k, kDim, row, dots.data());
      for (int c = 0; c < k; ++c) {
        EXPECT_EQ(Bits(dots[static_cast<size_t>(c)]),
                  Bits(containers::Dot(row, centroids[static_cast<size_t>(c)])))
            << "k=" << k << " c=" << c << " nnz=" << row.nnz();
      }
    }
  }
}

TEST(PanelScanTest, ScalarMatchesPerCentroidDot) {
  ExpectScanMatchesDot(kmeans_internal::PanelDots);
}

/// The per-centroid scan the panel replaced: SquaredDistance to each
/// centroid in index order, lowest index wins ties.
int ReferenceNearest(const SparseVector& row, double row_sq,
                     const std::vector<std::vector<float>>& centroids,
                     const std::vector<double>& centroid_sq, double* best_d,
                     double* second_d) {
  int best = 0;
  double bd = containers::SquaredDistance(row, row_sq, centroids[0],
                                          centroid_sq[0]);
  double sd = std::numeric_limits<double>::infinity();
  for (size_t c = 1; c < centroids.size(); ++c) {
    double d =
        containers::SquaredDistance(row, row_sq, centroids[c], centroid_sq[c]);
    if (d < bd) {
      sd = bd;
      bd = d;
      best = static_cast<int>(c);
    } else if (d < sd) {
      sd = d;
    }
  }
  *best_d = bd;
  *second_d = sd;
  return best;
}

TEST(CentroidPanelTest, NearestMatchesPerCentroidSquaredDistance) {
  for (int k : kPanelSizes) {
    const auto centroids = RandomCentroids(k, kDim, 200 + k);
    const CentroidPanel panel(centroids, SqNorms(centroids));
    for (const SparseVector& row : EdgeRows(300 + k)) {
      const double row_sq = row.SquaredL2Norm();
      double want_best = 0.0, want_second = 0.0;
      const int want = ReferenceNearest(row, row_sq, centroids,
                                        SqNorms(centroids), &want_best,
                                        &want_second);
      double got_best = 0.0, got_second = 0.0;
      EXPECT_EQ(panel.Nearest(row, row_sq, &got_best, &got_second), want)
          << "k=" << k;
      EXPECT_EQ(Bits(got_best), Bits(want_best)) << "k=" << k;
      EXPECT_EQ(Bits(got_second), Bits(want_second)) << "k=" << k;
      double only_best = 0.0;
      EXPECT_EQ(panel.Nearest(row, row_sq, &only_best), want);
      EXPECT_EQ(Bits(only_best), Bits(want_best));
    }
  }
}

TEST(CentroidPanelTest, TiesBreakToTheLowestIndex) {
  // Three identical centroids: every row is equidistant from all of them.
  const std::vector<std::vector<float>> centroids(3,
                                                  std::vector<float>{1, 2, 3});
  const CentroidPanel panel(centroids, SqNorms(centroids));
  double best = 0.0, second = 0.0;
  EXPECT_EQ(panel.Nearest(SparseVector::FromPairs({{1, 1.0f}}), 1.0, &best,
                          &second),
            0);
  EXPECT_EQ(Bits(best), Bits(second));
}

TEST(CentroidPanelTest, TakesTheCallersNormsUnchanged) {
  // Norms that disagree with the centroids are used as given: the panel
  // never recomputes them.
  const std::vector<std::vector<float>> centroids = {{1, 0}, {0, 1}};
  const CentroidPanel panel(centroids, {100.0, 0.0});
  double best = 0.0;
  EXPECT_EQ(panel.Nearest(SparseVector::FromPairs({{0, 1.0f}}), 1.0, &best),
            1);
  EXPECT_EQ(best, 1.0);  // 1 - 2*0 + 0
}

TEST(CentroidPanelTest, RangedRebuildEqualsAFreshPanel) {
  const auto before = RandomCentroids(13, kDim, 1);
  const auto after = RandomCentroids(13, kDim, 2);
  CentroidPanel panel(before, SqNorms(before));
  // Disjoint, uneven term ranges, as a parallel loop would hand them out.
  for (uint32_t lo = 0; lo < kDim; lo += 10) {
    panel.CopyTerms(after, lo, std::min(kDim, lo + 10));
  }
  panel.SetSqNorms(SqNorms(after));
  const CentroidPanel fresh(after, SqNorms(after));
  for (const SparseVector& row : EdgeRows(5)) {
    double best_a = 0.0, second_a = 0.0, best_b = 0.0, second_b = 0.0;
    EXPECT_EQ(panel.Nearest(row, row.SquaredL2Norm(), &best_a, &second_a),
              fresh.Nearest(row, row.SquaredL2Norm(), &best_b, &second_b));
    EXPECT_EQ(Bits(best_a), Bits(best_b));
    EXPECT_EQ(Bits(second_a), Bits(second_b));
  }
}

TEST(CentroidPanelTest, CopyingTheMovedCentroidsEqualsAFreshPanel) {
  // Mini-batch refreshes only the columns a step moved; the columns it
  // leaves alone must already hold those centroids' terms.
  const auto before = RandomCentroids(13, kDim, 3);
  auto after = before;
  const std::vector<int> moved = {0, 4, 12};
  const auto replacements = RandomCentroids(13, kDim, 4);
  for (int c : moved) after[static_cast<size_t>(c)] = replacements[c];
  CentroidPanel panel(before, SqNorms(before));
  panel.CopyCentroids(after, moved);
  panel.SetSqNorms(SqNorms(after));
  const CentroidPanel fresh(after, SqNorms(after));
  for (const SparseVector& row : EdgeRows(7)) {
    double best_a = 0.0, second_a = 0.0, best_b = 0.0, second_b = 0.0;
    EXPECT_EQ(panel.Nearest(row, row.SquaredL2Norm(), &best_a, &second_a),
              fresh.Nearest(row, row.SquaredL2Norm(), &best_b, &second_b));
    EXPECT_EQ(Bits(best_a), Bits(best_b));
    EXPECT_EQ(Bits(second_a), Bits(second_b));
  }
}

TEST(CentroidPanelTest, ShorterCentroidsContributeNothingPastTheirEnd) {
  // Ragged centroids: Dot skips ids beyond a centroid's length, and the
  // panel's zero padding must give the same bits.
  std::vector<std::vector<float>> centroids = RandomCentroids(5, kDim, 9);
  centroids[1].resize(10);
  centroids[3].resize(kDim - 1);
  const CentroidPanel panel(centroids, SqNorms(centroids));
  for (const SparseVector& row : EdgeRows(6)) {
    const double row_sq = row.SquaredL2Norm();
    double want_best = 0.0, want_second = 0.0;
    const int want = ReferenceNearest(row, row_sq, centroids,
                                      SqNorms(centroids), &want_best,
                                      &want_second);
    double got_best = 0.0, got_second = 0.0;
    EXPECT_EQ(panel.Nearest(row, row_sq, &got_best, &got_second), want);
    EXPECT_EQ(Bits(got_best), Bits(want_best));
    EXPECT_EQ(Bits(got_second), Bits(want_second));
  }
}

// ---------------------------------------------------------------------------
// K-means and serving fingerprints, pinned from the per-centroid scan
// ---------------------------------------------------------------------------

/// Fingerprint of a Lloyd run: assignments, centroid bits, inertia
/// history bits, iteration count, convergence and both kernel counts.
uint64_t Fingerprint(const KMeansResult& r) {
  std::string bytes;
  for (uint32_t a : r.assignment) AppendRaw(bytes, a);
  for (const auto& c : r.centroids) {
    for (float v : c) AppendRaw(bytes, v);
  }
  for (double v : r.inertia_history) AppendRaw(bytes, v);
  AppendRaw(bytes, r.iterations);
  AppendRaw(bytes, r.converged);
  AppendRaw(bytes, r.distance_kernels_evaluated);
  AppendRaw(bytes, r.distance_kernels_skipped);
  return StableHash64(bytes);
}

/// 380 seeded documents: the first 320 are fitted, the rest held out as
/// classify requests.
text::Corpus SeededCorpus() {
  text::CorpusProfile profile;
  profile.name = "kernel";
  profile.num_documents = 380;
  profile.target_bytes = 380 * 1200;
  profile.target_distinct_words = 2500;
  profile.seed = 20161024;
  return text::SynthCorpusGenerator(profile).Generate();
}

struct ExecutorSpec {
  bool simulated;
  int workers;
};

std::unique_ptr<parallel::Executor> MakeExecutor(const ExecutorSpec& spec) {
  if (spec.simulated) {
    return std::make_unique<parallel::SimulatedExecutor>(
        spec.workers, parallel::MachineModel::Default());
  }
  return std::make_unique<parallel::ThreadPoolExecutor>(spec.workers);
}

// The chunk grid and merge tree depend on the worker count, so each count
// has its own golden; the simulated and real 4-worker runs share one.
// Buffer recycling never changes a result.
struct Golden {
  int k;
  int workers;
  bool prune;
  uint64_t fingerprint;
};

constexpr Golden kGoldens[] = {
    {8, 1, true, 0x4b6d8b436fc7d060ull},
    {8, 1, false, 0x957822fbcc18f887ull},
    {8, 4, true, 0xdbceed22a4b00834ull},
    {8, 4, false, 0xf46fb393b36257d9ull},
    {13, 1, true, 0x7e559325066d3dc4ull},
    {13, 1, false, 0x823c05ccf5b1a96dull},
    {13, 4, true, 0x5a52f492387b5f2dull},
    {13, 4, false, 0xf5c6c15710bf5528ull},
    {64, 1, true, 0x2809a0d32d6036f4ull},
    {64, 1, false, 0x57f4c57cc2c3a0eeull},
    {64, 4, true, 0x5c47e20044d9a9bdull},
    {64, 4, false, 0xb0239032d7338704ull},
};

// Assignments and centroids of MiniBatchKMeans (k=13, batch 40, 6 steps);
// the same at every worker count.
constexpr uint64_t kGoldenMiniBatch = 0xc3211c5a93dcba42ull;

// Cluster and distance bits of ModelHandle::Classify over the 60 held-out
// documents, on the k=13 one-worker pruned model.
constexpr uint64_t kGoldenClassify = 0x7bfb62905b483a0bull;

class KMeansGoldenTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    text::Corpus corpus = SeededCorpus();
    heldout_ = new text::Corpus;
    heldout_->docs.assign(corpus.docs.begin() + 320, corpus.docs.end());
    corpus.docs.resize(320);
    parallel::ThreadPoolExecutor exec(2);
    ExecContext ctx;
    ctx.executor = &exec;
    fitted_ = new TfidfResult(
        TfidfTransformT<containers::DictBackend::kOpenHash>(
            ctx, RunWordCountInMemory<containers::DictBackend::kOpenHash>(
                     ctx, corpus)));
  }
  static void TearDownTestSuite() {
    delete heldout_;
    delete fitted_;
    heldout_ = nullptr;
    fitted_ = nullptr;
  }

  static KMeansResult Run(int k, const ExecutorSpec& spec, bool prune,
                          bool recycle) {
    auto exec = MakeExecutor(spec);
    ExecContext ctx;
    ctx.executor = exec.get();
    KMeansOptions opts;
    opts.k = k;
    opts.max_iterations = 8;
    opts.stop_on_convergence = false;
    opts.seed = 7;
    opts.prune = prune;
    opts.recycle_buffers = recycle;
    auto r = SparseKMeans(ctx, fitted_->matrix, opts);
    EXPECT_TRUE(r.ok()) << r.status();
    return std::move(r).value();
  }

  static text::Corpus* heldout_;
  static TfidfResult* fitted_;
};

text::Corpus* KMeansGoldenTest::heldout_ = nullptr;
TfidfResult* KMeansGoldenTest::fitted_ = nullptr;

TEST_F(KMeansGoldenTest, SparseKMeansMatchesPinnedFingerprints) {
  constexpr ExecutorSpec kExecutors[] = {{false, 1}, {false, 4}, {true, 4}};
  for (const Golden& g : kGoldens) {
    for (const ExecutorSpec& spec : kExecutors) {
      if (spec.workers != g.workers) continue;
      for (bool recycle : {true, false}) {
        const KMeansResult r = Run(g.k, spec, g.prune, recycle);
        EXPECT_EQ(Hex(Fingerprint(r)), Hex(g.fingerprint))
            << "k=" << g.k << " workers=" << spec.workers
            << (spec.simulated ? " simulated" : " threads")
            << " prune=" << g.prune << " recycle=" << recycle;
        EXPECT_EQ(r.iterations, 8);
      }
    }
  }
}

TEST_F(KMeansGoldenTest, MiniBatchMatchesPinnedFingerprint) {
  for (const ExecutorSpec& spec :
       {ExecutorSpec{false, 1}, ExecutorSpec{false, 4}, ExecutorSpec{true, 4}}) {
    auto exec = MakeExecutor(spec);
    ExecContext ctx;
    ctx.executor = exec.get();
    KMeansOptions opts;
    opts.k = 13;
    opts.max_iterations = 6;
    opts.seed = 7;
    auto r = MiniBatchKMeans(ctx, fitted_->matrix, opts, 40);
    ASSERT_TRUE(r.ok()) << r.status();
    std::string bytes;
    for (uint32_t a : r->assignment) AppendRaw(bytes, a);
    for (const auto& c : r->centroids) {
      for (float v : c) AppendRaw(bytes, v);
    }
    EXPECT_EQ(Hex(StableHash64(bytes)), Hex(kGoldenMiniBatch))
        << "workers=" << spec.workers;
  }
}

TEST_F(KMeansGoldenTest, ClassifyMatchesPinnedFingerprint) {
  const KMeansResult r = Run(13, {false, 1}, true, true);
  serve::ModelConfig config;
  config.clusters = 13;
  const serve::ModelHandle handle(1, config, TfidfVectorizer(*fitted_),
                                  r.centroids);
  std::string bytes;
  size_t known_terms = 0;
  for (const text::Document& doc : heldout_->docs) {
    double d = -1.0;
    const uint32_t c = handle.Classify(doc.body, &d);
    AppendRaw(bytes, c);
    AppendRaw(bytes, d);
    known_terms += handle.Vectorize(doc.body).nnz();
  }
  EXPECT_GT(known_terms, 1000u);  // held-out text shares the vocabulary
  EXPECT_EQ(Hex(StableHash64(bytes)), Hex(kGoldenClassify));
}

}  // namespace
}  // namespace hpa::ops
