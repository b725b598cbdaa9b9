#ifndef HPA_OPS_KMEANS_INTERNAL_H_
#define HPA_OPS_KMEANS_INTERNAL_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "containers/sparse_vector.h"
#include "ops/exec_context.h"
#include "ops/kmeans.h"
#include "parallel/parallel_ops.h"

/// \file
/// The Lloyd/Hamerly support layer shared by the two K-means engines,
/// SparseKMeans (rows in memory) and StreamingSparseKMeans (rows re-scored
/// window by window). Both run the per-document assignment, the merge,
/// the finalize and the drift bookkeeping through this one header, which
/// is what keeps the streaming engine bit-identical to the in-memory one.
/// Only the way each engine produces its rows and seeds differs.

namespace hpa::ops::kmeans_internal {

/// The panel scan behind CentroidPanel::Nearest: dots[c] = sum over the
/// row's nonzeros (id < dim), in order, of double(value) *
/// double(panel[id*k+c]), starting from 0.0.
void PanelDots(const float* panel, int k, uint32_t dim,
               const containers::SparseVector& row, double* dots);

/// Absolute slack (in distance units; rows are L2-normalized so distances
/// are O(1)) applied to the skip test and the drift estimates. It absorbs
/// the floating-point rounding of the sparse kernel and the sqrt so a skip
/// is only taken when the assigned centroid is the unique nearest by a
/// margin no rounding can cross — which is what keeps pruned assignments
/// bit-identical to the full scan.
inline constexpr double kBoundSafety = 1e-7;

/// Picks k well-spread distinct rows as initial centroids,
/// deterministically in (seed, n): one uniformly random row from each of
/// k equal spans.
std::vector<size_t> SeedRows(size_t n, int k, uint64_t seed);

/// Worker-local accumulation state: per-cluster dense sums and counts.
/// Allocated once and recycled across iterations when recycling is on.
struct Accumulators {
  /// Sizes the state for k clusters over `dim` terms. The sums are left
  /// uninitialized: Clear() zeroes them before their first use.
  void Allocate(int k, uint32_t dim);

  /// Zeroes everything and stamps the state as iteration `iter`'s.
  void Clear(int iter);

  /// Cluster c's sum row (dim doubles).
  double* sum(size_t c) { return sums.get() + c * dim; }
  const double* sum(size_t c) const { return sums.get() + c * dim; }

  uint32_t dim = 0;
  // k x dim, row-major. Doubles so merge order effects stay far below
  // assignment-decision thresholds. The inertia sum is NOT here: which
  // worker runs which chunk depends on scheduling (steals, measured chunk
  // times), so worker-keyed doubles are not reproducible bit-for-bit
  // across runs — inertia accumulates per *chunk* instead (the chunk grid
  // is a pure function of n and the worker count) and reduces in chunk
  // order, which is what lets the pruning ablation demand bit-identical
  // inertia histories. The integer fields are order-insensitive.
  std::unique_ptr<double[]> sums;
  std::vector<uint64_t> counts;
  uint64_t changed = 0;
  // Pruning telemetry, merged like the other fields: kernels actually
  // computed vs skipped by the bound test this iteration.
  uint64_t kernels = 0;
  uint64_t skipped = 0;
  /// The iteration these counts and sums belong to; -1 before the first.
  int iteration = -1;
};

/// Everything one Lloyd run carries from iteration to iteration.
struct LloydState {
  /// Sizes the bound and inertia state for `n` rows and allocates the
  /// recycled accumulators (when `recycle`) in charged serial regions. Centroids and their norms are the caller's to seed; then
  /// call BuildPanel().
  LloydState(ExecContext& ctx, size_t n, int k, uint32_t dim, bool prune,
             bool recycle);

  /// Builds the panel from the seeded centroids and their norms.
  void BuildPanel(ExecContext& ctx);

  const int k;
  const uint32_t dim;
  const bool prune;
  const bool recycle;

  /// Row-major centroids and their squared norms. The finalize writes
  /// them; the Hamerly single-kernel path reads them directly.
  std::vector<std::vector<float>> centroids;
  std::vector<double> centroid_sq;

  /// Centroid-major copy of the above for the k-way scan.
  CentroidPanel panel;

  /// Triangle-inequality pruning state (Hamerly 2010): one upper bound
  /// (distance to the assigned centroid) and one lower bound (distance to
  /// the runner-up) per document, plus the per-centroid drift of the last
  /// finalize. All of it is O(n + k) — never n×k (Elkan) or k×vocabulary —
  /// and, like the assignment vector, it is persistent iteration state, so
  /// it is allocated once even in the naive-allocation ablation.
  std::vector<double> upper, lower, drift;
  double max_drift = 0.0;
  double second_drift = 0.0;
  int argmax_drift = -1;

  /// The assignment grain is pinned to the executor's automatic choice so
  /// the chunk grid is a pure function of (n, workers) — each chunk owns
  /// one slot of `chunk_inertia`, making the inertia reduction (chunk
  /// order, in the finalize) independent of which worker actually runs
  /// the chunk.
  size_t assign_grain = 1;
  std::vector<double> chunk_inertia;

  std::unique_ptr<parallel::WorkerLocal<Accumulators>> scratch;

  /// The running iteration (set by BeginIteration).
  int iteration = -1;
};

/// Starts iteration `iter`. Recycled accumulators are cleared lazily, by
/// each worker in its first assignment chunk of the iteration (see
/// WorkerAccumulators), so no region of its own zeroes them; the naive
/// ablation allocates brand-new, zeroed objects in a charged serial
/// region.
void BeginIteration(ExecContext& ctx, LloydState& s, int iter);

/// `worker`'s accumulators for the running iteration, cleared on the
/// worker's first use of them in the iteration. Call from inside the
/// assignment chunks only.
inline Accumulators& WorkerAccumulators(LloydState& s, int worker) {
  Accumulators& acc = s.scratch->Get(worker);
  if (acc.iteration != s.iteration) acc.Clear(s.iteration);
  return acc;
}

/// One document's assignment step, accumulated into `acc`. With
/// `bounds_live` (pruning on, past iteration 0), a document whose
/// loosened bounds prove the assigned centroid is still the unique nearest
/// pays one kernel (to that centroid, which keeps the inertia sum and the
/// upper bound exact — hence the bit-identical guarantee) instead of the
/// k-way panel scan.
inline void AssignRow(LloydState& s, Accumulators& acc, size_t i,
                      const containers::SparseVector& row, double row_sq,
                      bool bounds_live, std::vector<uint32_t>& assignment,
                      double& local_inertia) {
  uint32_t a = assignment[i];
  double d = 0.0;
  bool scanned = true;
  if (bounds_live) {
    const double loosen_other =
        static_cast<int>(a) == s.argmax_drift ? s.second_drift : s.max_drift;
    const double u = s.upper[i] + s.drift[a];
    const double l = s.lower[i] - loosen_other;
    if (u + kBoundSafety < l) {
      d = containers::SquaredDistance(row, row_sq, s.centroids[a],
                                      s.centroid_sq[a]);
      s.upper[i] = std::sqrt(std::max(0.0, d));
      s.lower[i] = l;
      acc.kernels += 1;
      acc.skipped += static_cast<uint64_t>(s.k - 1);
      scanned = false;
    }
  }
  if (scanned) {
    double second_d = 0.0;
    const uint32_t best = static_cast<uint32_t>(
        s.panel.Nearest(row, row_sq, &d, s.prune ? &second_d : nullptr));
    acc.kernels += static_cast<uint64_t>(s.k);
    if (s.prune) {
      s.upper[i] = std::sqrt(std::max(0.0, d));
      s.lower[i] = std::sqrt(std::max(0.0, second_d));
    }
    if (a != best) {
      assignment[i] = best;
      ++acc.changed;
    }
    a = best;
  }
  local_inertia += d;
  acc.counts[a] += 1;
  // Sparse scatter into the worker's dense sum.
  double* sum = acc.sum(a);
  for (size_t t = 0; t < row.nnz(); ++t) sum[row.id_at(t)] += row.value_at(t);
}

/// What one iteration's merge and finalize report.
struct IterationTotals {
  uint64_t changed = 0;
  double inertia = 0.0;
  uint64_t kernels = 0;
  uint64_t skipped = 0;
};

/// Ends one iteration: clears the accumulators of any worker that ran no
/// assignment chunk, merges the worker accumulators, finalizes the
/// centroids (new centroid, squared norm and drift per cluster, in
/// parallel over clusters), reduces the chunk inertias and the max and
/// runner-up drift serially, and rebuilds the panel in parallel over term
/// ranges.
IterationTotals EndIteration(ExecContext& ctx, LloydState& s);

/// Appends one iteration's totals to `result`; true when the run should
/// stop on convergence.
bool RecordIteration(const KMeansOptions& options,
                     const IterationTotals& totals, KMeansResult& result);

}  // namespace hpa::ops::kmeans_internal

#endif  // HPA_OPS_KMEANS_INTERNAL_H_
