#include <algorithm>
#include <limits>
#include <memory>
#include <numeric>

#include "ops/kmeans.h"
#include "ops/kmeans_internal.h"

namespace hpa::ops {

namespace kmeans_internal {

void PanelDots(const float* panel, int k, uint32_t dim,
               const containers::SparseVector& row, double* dots) {
  std::fill(dots, dots + k, 0.0);
  for (size_t t = 0; t < row.nnz(); ++t) {
    const uint32_t id = row.id_at(t);
    if (id >= dim) continue;
    const double v = static_cast<double>(row.value_at(t));
    const float* p = panel + static_cast<size_t>(id) * static_cast<size_t>(k);
    for (int c = 0; c < k; ++c) dots[c] += v * static_cast<double>(p[c]);
  }
}

}  // namespace kmeans_internal

namespace {

/// The longest centroid's length: the panel's term count.
uint32_t MaxLength(const std::vector<std::vector<float>>& centroids) {
  size_t dim = 0;
  for (const auto& c : centroids) dim = std::max(dim, c.size());
  return static_cast<uint32_t>(dim);
}

}  // namespace

CentroidPanel::CentroidPanel(int k, uint32_t dim)
    : k_(k),
      dim_(dim),
      panel_(static_cast<size_t>(dim) * static_cast<size_t>(k), 0.0f),
      sq_(static_cast<size_t>(k), 0.0) {}

CentroidPanel::CentroidPanel(const std::vector<std::vector<float>>& centroids,
                             std::vector<double> centroid_sq)
    : CentroidPanel(static_cast<int>(centroids.size()), MaxLength(centroids)) {
  CopyTerms(centroids, 0, dim_);
  sq_ = std::move(centroid_sq);
}

void CentroidPanel::CopyColumns(
    const std::vector<std::vector<float>>& centroids,
    const std::vector<int>& cols, uint32_t lo, uint32_t hi) {
  // A blocked transpose: a tile's panel rows (kTile * k floats) stay in
  // cache while each listed centroid's kTile floats are spread across them,
  // instead of one strided pass over the whole panel per centroid.
  constexpr uint32_t kTile = 16;
  const size_t k = static_cast<size_t>(k_);
  for (uint32_t t0 = lo; t0 < hi; t0 += std::min(kTile, hi - t0)) {
    const uint32_t t1 = t0 + std::min(kTile, hi - t0);
    for (int c : cols) {
      const std::vector<float>& src = centroids[static_cast<size_t>(c)];
      float* dst = panel_.data() + c;
      // Terms past a shorter centroid's end are zeros: a zero product adds
      // nothing to a sum, just as containers::Dot skips those ids.
      const uint32_t end =
          static_cast<uint32_t>(std::min<size_t>(t1, src.size()));
      uint32_t id = t0;
      for (; id < end; ++id) dst[id * k] = src[id];
      for (; id < t1; ++id) dst[id * k] = 0.0f;
    }
  }
}

void CentroidPanel::CopyTerms(const std::vector<std::vector<float>>& centroids,
                              uint32_t lo, uint32_t hi) {
  std::vector<int> all(static_cast<size_t>(k_));
  std::iota(all.begin(), all.end(), 0);
  CopyColumns(centroids, all, lo, hi);
}

void CentroidPanel::CopyCentroids(
    const std::vector<std::vector<float>>& centroids,
    const std::vector<int>& cols) {
  CopyColumns(centroids, cols, 0, dim_);
}

void CentroidPanel::SetSqNorms(const std::vector<double>& centroid_sq) {
  sq_ = centroid_sq;
}

int CentroidPanel::Nearest(const containers::SparseVector& row, double row_sq,
                           double* best_d, double* second_d) const {
  // Dots live on the stack for every k in practice; larger k spills to
  // the heap.
  constexpr int kStackDots = 256;
  double stack_dots[kStackDots];
  std::unique_ptr<double[]> heap_dots;
  double* dots = stack_dots;
  if (k_ > kStackDots) {
    heap_dots = std::make_unique<double[]>(static_cast<size_t>(k_));
    dots = heap_dots.get();
  }
  kmeans_internal::PanelDots(panel_.data(), k_, dim_, row, dots);

  // containers::SquaredDistance's arithmetic and clamp, then the same
  // lowest-index-wins scan over centroids.
  auto distance = [&](int c) {
    const double d = row_sq - 2.0 * dots[c] + sq_[static_cast<size_t>(c)];
    return d < 0.0 ? 0.0 : d;
  };
  int best = 0;
  double bd = distance(0);
  double sd = std::numeric_limits<double>::infinity();
  for (int c = 1; c < k_; ++c) {
    const double d = distance(c);
    if (d < bd) {
      sd = bd;
      bd = d;
      best = c;
    } else if (d < sd) {
      sd = d;
    }
  }
  *best_d = bd;
  if (second_d != nullptr) *second_d = sd;
  return best;
}

}  // namespace hpa::ops
