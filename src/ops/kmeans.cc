#include "ops/kmeans.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <utility>

#include "common/random.h"
#include "common/string_util.h"
#include "io/csv.h"
#include "ops/kmeans_internal.h"
#include "parallel/parallel_ops.h"

namespace hpa::ops {

namespace kmeans_internal {

std::vector<size_t> SeedRows(size_t n, int k, uint64_t seed) {
  Rng rng(seed);
  std::vector<size_t> rows;
  rows.reserve(static_cast<size_t>(k));
  // Stratified picks: one uniformly random row from each of k equal spans,
  // which is deterministic, well-spread, and avoids duplicate picks.
  for (int c = 0; c < k; ++c) {
    size_t lo = n * static_cast<size_t>(c) / static_cast<size_t>(k);
    size_t hi = n * static_cast<size_t>(c + 1) / static_cast<size_t>(k);
    if (hi <= lo) hi = lo + 1;
    rows.push_back(lo + rng.NextBounded(hi - lo));
  }
  return rows;
}

void Accumulators::Allocate(int k, uint32_t dim_in) {
  dim = dim_in;
  sums.reset(new double[static_cast<size_t>(k) * dim]);
  counts.assign(static_cast<size_t>(k), 0);
  iteration = -1;
}

void Accumulators::Clear(int iter) {
  std::fill(sums.get(), sums.get() + counts.size() * dim, 0.0);
  std::fill(counts.begin(), counts.end(), 0);
  changed = 0;
  kernels = 0;
  skipped = 0;
  iteration = iter;
}

LloydState::LloydState(ExecContext& ctx, size_t n, int k_in, uint32_t dim_in,
                       bool prune_in, bool recycle_in)
    : k(k_in), dim(dim_in), prune(prune_in), recycle(recycle_in) {
  // Worker-local accumulators, allocated once up front when recycling;
  // each worker first touches its own when it clears them.
  if (recycle) {
    ctx.executor->RunSerial(parallel::WorkHint{}, [&] {
      scratch = std::make_unique<parallel::WorkerLocal<Accumulators>>(
          *ctx.executor);
      scratch->ForEach([&](Accumulators& a) { a.Allocate(k, dim); });
    });
  }
  if (prune) {
    ctx.executor->RunSerial(parallel::WorkHint{0, "kmeans-init"}, [&] {
      upper.assign(n, 0.0);
      lower.assign(n, 0.0);
      drift.assign(static_cast<size_t>(k), 0.0);
    });
  }
  assign_grain = ctx.executor->AutoGrain(n);
  const size_t assign_chunks = (n + assign_grain - 1) / assign_grain;
  ctx.executor->RunSerial(parallel::WorkHint{}, [&] {
    chunk_inertia.assign(assign_chunks, 0.0);
  });
}

namespace {

/// Copies the row-major centroids into the panel, in parallel over
/// disjoint term ranges, one per worker (a finer split costs more task
/// spawns than the copy saves). No bytes hint: the centroids were just
/// written, so the copy's cost is its measured time.
void CopyPanel(ExecContext& ctx, LloydState& s) {
  const size_t workers = static_cast<size_t>(ctx.executor->num_workers());
  const size_t grain = std::max<size_t>(1, (s.dim + workers - 1) / workers);
  ctx.executor->ParallelFor(
      0, s.dim, grain, parallel::WorkHint{0, "kmeans-panel"},
      [&](int, size_t b, size_t e) {
        s.panel.CopyTerms(s.centroids, static_cast<uint32_t>(b),
                          static_cast<uint32_t>(e));
      });
}

}  // namespace

void LloydState::BuildPanel(ExecContext& ctx) {
  ctx.executor->RunSerial(parallel::WorkHint{0, "kmeans-init"}, [&] {
    panel = CentroidPanel(k, dim);
    panel.SetSqNorms(centroid_sq);
  });
  CopyPanel(ctx, *this);
}

void BeginIteration(ExecContext& ctx, LloydState& s, int iter) {
  s.iteration = iter;
  if (s.recycle) return;
  // Naive mode: brand-new accumulator objects every iteration, allocated
  // and zeroed serially (as naive code would) and charged.
  ctx.executor->RunSerial(parallel::WorkHint{0, "kmeans-alloc"}, [&] {
    s.scratch =
        std::make_unique<parallel::WorkerLocal<Accumulators>>(*ctx.executor);
    s.scratch->ForEach([&](Accumulators& a) {
      a.Allocate(s.k, s.dim);
      a.Clear(iter);
    });
  });
}

namespace {

/// Merge of the worker accumulators into slot 0 — the k x vocabulary
/// critical path (not the document loop) that caps Figure 1's scalability
/// and grows with the vocabulary (hence Mix saturating far below NSF).
/// The parallel path is a pairwise tree (the merge schedule of a Cilk
/// reducer hyperobject) whose pair combines are further sliced over
/// clusters x fixed shards of the centroid dimension, so even the final
/// root combine — serial in a plain pairwise tree — spreads across all
/// workers. Slicing is fixed (independent of the worker count), so the
/// additions inside one slice always run in the same order.
void MergeAccumulators(ExecContext& ctx, LloydState& s) {
  const int k = s.k;
  const uint32_t dim = s.dim;
  parallel::WorkerLocal<Accumulators>& scratch = *s.scratch;
  if (ctx.serial_merge) {
    // Ablation path: fold every worker accumulator serially.
    ctx.executor->RunSerial(parallel::WorkHint{0, "kmeans-merge"}, [&] {
      Accumulators& total = scratch.Get(0);
      for (size_t w = 1; w < scratch.size(); ++w) {
        Accumulators& from = scratch.Get(static_cast<int>(w));
        total.changed += from.changed;
        total.kernels += from.kernels;
        total.skipped += from.skipped;
        for (int c = 0; c < k; ++c) {
          total.counts[static_cast<size_t>(c)] +=
              from.counts[static_cast<size_t>(c)];
          double* t = total.sum(static_cast<size_t>(c));
          const double* f = from.sum(static_cast<size_t>(c));
          for (uint32_t d = 0; d < dim; ++d) t[d] += f[d];
        }
      }
    });
    return;
  }
  // Fixed sub-cluster slicing of the dimension range keeps per-task work
  // contiguous and the FP addition order worker-count-free within a slice.
  const size_t dim_shards =
      dim == 0 ? 1 : std::min<size_t>(8, static_cast<size_t>(dim));
  const size_t parts = static_cast<size_t>(k) * dim_shards;
  parallel::WorkHint merge_hint;
  merge_hint.label = "kmeans-merge";
  merge_hint.bytes_touched =
      static_cast<uint64_t>(k) * dim * 2 * sizeof(double);
  auto combine = [&](Accumulators& into, Accumulators& from, size_t part,
                     size_t /*nparts*/) {
    const size_t c = part / dim_shards;
    const size_t ds = part % dim_shards;
    if (part == 0) {
      into.changed += from.changed;
      into.kernels += from.kernels;
      into.skipped += from.skipped;
    }
    if (ds == 0) into.counts[c] += from.counts[c];
    const uint32_t lo =
        static_cast<uint32_t>(static_cast<size_t>(dim) * ds / dim_shards);
    const uint32_t hi = static_cast<uint32_t>(static_cast<size_t>(dim) *
                                              (ds + 1) / dim_shards);
    double* t = into.sum(c);
    const double* f = from.sum(c);
    for (uint32_t d = lo; d < hi; ++d) t[d] += f[d];
  };
  // Nested spawn tree by default: a pair combine starts the moment its two
  // inputs are ready. --flat-parallelism keeps the barrier-per-stride
  // schedule; both run the same combines in the same per-slot order, so
  // the centroids are bit-identical.
  if (ctx.flat_parallelism) {
    parallel::ParallelTreeReduceFlat(*ctx.executor, scratch, parts,
                                     merge_hint, combine);
  } else {
    parallel::ParallelTreeReduce(*ctx.executor, scratch, parts, merge_hint,
                                 combine);
  }
}

}  // namespace

IterationTotals EndIteration(ExecContext& ctx, LloydState& s) {
  // A worker that ran no assignment chunk this iteration still holds the
  // last iteration's sums; the merge must see zeros from it.
  ctx.executor->RunSerial(parallel::WorkHint{}, [&] {
    s.scratch->ForEach([&](Accumulators& a) {
      if (a.iteration != s.iteration) a.Clear(s.iteration);
    });
  });
  MergeAccumulators(ctx, s);
  const Accumulators& total = s.scratch->Get(0);
  const int k = s.k;
  const uint32_t dim = s.dim;

  // Centroid finalize from the fully merged accumulator, one task per
  // cluster: each cluster's loop is the serial loop it always was, so its
  // centroid, squared norm and drift keep their bits. The drift — the L2
  // norm of the dense float-space delta, the loosening the next
  // iteration's bound tests need — comes out of the same pass by reading
  // each coordinate before it is overwritten: no extra k×vocabulary buffer
  // exists at any point. No bytes hint: the loop streams slot 0 right
  // after the merge wrote it, so its cost is its measured time, as for the
  // serial finalize it replaces.
  ctx.executor->ParallelFor(
      0, static_cast<size_t>(k), 1, parallel::WorkHint{0, "kmeans-finalize"},
      [&](int, size_t cb, size_t ce) {
        for (size_t c = cb; c < ce; ++c) {
          auto& centroid = s.centroids[c];
          const uint64_t count = total.counts[c];
          if (count == 0) {
            // Empty cluster keeps its centroid — zero drift.
            if (s.prune) s.drift[c] = 0.0;
            continue;
          }
          const double* t = total.sum(c);
          double inv = 1.0 / static_cast<double>(count);
          double sq = 0.0;
          double drift_sq = 0.0;
          for (uint32_t d = 0; d < dim; ++d) {
            double v = t[d] * inv;
            float fnew = static_cast<float>(v);
            double delta =
                static_cast<double>(fnew) - static_cast<double>(centroid[d]);
            drift_sq += delta * delta;
            centroid[d] = fnew;
            sq += v * v;
          }
          s.centroid_sq[c] = sq;
          if (s.prune) {
            // Slight inflation keeps the drift a true upper bound on the
            // real movement despite the rounding of the sum above.
            s.drift[c] =
                std::sqrt(drift_sq) * (1.0 + 1e-9) + kBoundSafety * 1e-3;
          }
        }
      });

  IterationTotals totals;
  ctx.executor->RunSerial(parallel::WorkHint{0, "kmeans-finalize"}, [&] {
    totals.changed = total.changed;
    totals.kernels = total.kernels;
    totals.skipped = total.skipped;
    // Chunk-order inertia reduction: deterministic for a given
    // (n, workers) no matter where the scheduler placed each chunk.
    for (double v : s.chunk_inertia) totals.inertia += v;
    s.panel.SetSqNorms(s.centroid_sq);
    if (s.prune) {
      // Max and runner-up drift over all centroids: the lower bound of a
      // document assigned to the argmax centroid only needs to yield to
      // the second-largest drift.
      s.max_drift = 0.0;
      s.second_drift = 0.0;
      s.argmax_drift = -1;
      for (int c = 0; c < k; ++c) {
        double dr = s.drift[static_cast<size_t>(c)];
        if (dr > s.max_drift) {
          s.second_drift = s.max_drift;
          s.max_drift = dr;
          s.argmax_drift = c;
        } else if (dr > s.second_drift) {
          s.second_drift = dr;
        }
      }
    }
  });

  CopyPanel(ctx, s);
  return totals;
}

bool RecordIteration(const KMeansOptions& options,
                     const IterationTotals& totals, KMeansResult& result) {
  result.inertia = totals.inertia;
  result.inertia_history.push_back(totals.inertia);
  result.distance_kernels_evaluated += totals.kernels;
  result.distance_kernels_skipped += totals.skipped;
  const double iter_total = static_cast<double>(totals.kernels + totals.skipped);
  result.skip_rate_history.push_back(
      iter_total > 0 ? static_cast<double>(totals.skipped) / iter_total
                     : 0.0);
  if (options.stop_on_convergence && totals.changed == 0) {
    result.converged = true;
    return true;
  }
  return false;
}

}  // namespace kmeans_internal

namespace {

using kmeans_internal::kBoundSafety;

/// k-means++ seeding: the first row uniformly at random, each further row
/// sampled with probability proportional to its squared distance to the
/// nearest already-chosen seed. Deterministic in (seed, data).
std::vector<size_t> SeedRowsPlusPlus(const containers::SparseMatrix& matrix,
                                     const std::vector<double>& row_sq,
                                     int k, uint64_t seed) {
  const size_t n = matrix.num_rows();
  Rng rng(seed);
  std::vector<size_t> rows;
  rows.reserve(static_cast<size_t>(k));
  rows.push_back(rng.NextBounded(n));

  // dist2[i] = squared distance of row i to the nearest chosen seed.
  std::vector<double> dist2(n);
  for (size_t i = 0; i < n; ++i) {
    dist2[i] = row_sq[i] - 2.0 * Dot(matrix.rows[i], matrix.rows[rows[0]]) +
               row_sq[rows[0]];
    if (dist2[i] < 0) dist2[i] = 0;
  }

  for (int c = 1; c < k; ++c) {
    double total = 0.0;
    for (double d : dist2) total += d;
    size_t pick = 0;
    if (total <= 0.0) {
      pick = rng.NextBounded(n);  // all points coincide with seeds
    } else {
      double target = rng.NextDouble() * total;
      double cum = 0.0;
      pick = n - 1;
      for (size_t i = 0; i < n; ++i) {
        cum += dist2[i];
        if (cum >= target) {
          pick = i;
          break;
        }
      }
    }
    rows.push_back(pick);
    for (size_t i = 0; i < n; ++i) {
      double d = row_sq[i] - 2.0 * Dot(matrix.rows[i], matrix.rows[pick]) +
                 row_sq[pick];
      if (d < 0) d = 0;
      if (d < dist2[i]) dist2[i] = d;
    }
  }
  return rows;
}

}  // namespace

StatusOr<KMeansResult> SparseKMeans(ExecContext& ctx,
                                    const containers::SparseMatrix& matrix,
                                    const KMeansOptions& options) {
  if (options.k <= 0) {
    return Status::InvalidArgument("k must be positive, got " +
                                   std::to_string(options.k));
  }
  if (matrix.num_rows() == 0) {
    return Status::InvalidArgument("cannot cluster an empty matrix");
  }
  if (static_cast<size_t>(options.k) > matrix.num_rows()) {
    return Status::InvalidArgument(
        StrFormat("k=%d exceeds number of rows (%zu)", options.k,
                  matrix.num_rows()));
  }

  const size_t n = matrix.num_rows();
  const uint32_t dim = matrix.num_cols;
  const int k = options.k;

  KMeansResult result;

  ctx.TimePhase("kmeans", [&] {
    // Precompute row norms once (recycled across iterations; also feeds
    // k-means++ seeding).
    std::vector<double> row_sq(n);
    ctx.executor->ParallelFor(0, n, 0, parallel::WorkHint{},
                              [&](int, size_t b, size_t e) {
                                for (size_t i = b; i < e; ++i) {
                                  row_sq[i] = matrix.rows[i].SquaredL2Norm();
                                }
                              });

    // --- one-time setup (serial regions, charged) -------------------------
    kmeans_internal::LloydState state(ctx, n, k, dim,
                                      options.prune && !ctx.no_prune,
                                      options.recycle_buffers);
    ctx.executor->RunSerial(parallel::WorkHint{0, "kmeans-init"}, [&] {
      state.centroids.assign(static_cast<size_t>(k),
                             std::vector<float>(dim, 0.0f));
      state.centroid_sq.assign(static_cast<size_t>(k), 0.0);
      const std::vector<size_t> seeds =
          options.init == KMeansInit::kPlusPlus
              ? SeedRowsPlusPlus(matrix, row_sq, k, options.seed)
              : kmeans_internal::SeedRows(n, k, options.seed);
      for (int c = 0; c < k; ++c) {
        // Densify the seed rows.
        const containers::SparseVector& row =
            matrix.rows[seeds[static_cast<size_t>(c)]];
        containers::AddScaled(row, 1.0f,
                              state.centroids[static_cast<size_t>(c)]);
        state.centroid_sq[static_cast<size_t>(c)] = row.SquaredL2Norm();
      }
    });
    state.BuildPanel(ctx);

    result.assignment.assign(n, 0xFFFFFFFFu);

    std::unique_ptr<parallel::WorkerLocal<uint64_t>> violations;
    if (state.prune && options.validate_bounds) {
      ctx.executor->RunSerial(parallel::WorkHint{}, [&] {
        violations =
            std::make_unique<parallel::WorkerLocal<uint64_t>>(*ctx.executor);
        violations->ForEach([](uint64_t& v) { v = 0; });
      });
    }

    parallel::WorkHint assign_hint;
    assign_hint.label = "kmeans-assign";
    assign_hint.bytes_touched =
        matrix.ApproxMemoryBytes() +
        static_cast<uint64_t>(k) * dim * sizeof(float);

    // --- Lloyd iterations --------------------------------------------------
    for (int iter = 0; iter < options.max_iterations; ++iter) {
      ++result.iterations;
      kmeans_internal::BeginIteration(ctx, state, iter);

      // Parallel assignment + accumulation over documents. Timed
      // separately (the "assign_ns" counter on the kmeans phase): this
      // loop is what pruning and the panel scan accelerate, while merge
      // and finalize are identical in every mode.
      const bool bounds_live = state.prune && iter > 0;
      const double assign_t0 = ctx.executor->Now();
      ctx.executor->ParallelFor(
          0, n, state.assign_grain, assign_hint,
          [&](int worker, size_t b, size_t e) {
            kmeans_internal::Accumulators& acc =
                kmeans_internal::WorkerAccumulators(state, worker);
            double local_inertia = 0.0;
            for (size_t i = b; i < e; ++i) {
              kmeans_internal::AssignRow(state, acc, i, matrix.rows[i],
                                         row_sq[i], bounds_live,
                                         result.assignment, local_inertia);
            }
            state.chunk_inertia[b / state.assign_grain] = local_inertia;
          });
      if (ctx.phases != nullptr) {
        // Recorded as a counter (integer nanoseconds) rather than a phase
        // of its own so the Figure-3/4 stacked breakdowns, which sum all
        // phases, do not double-count the time already inside "kmeans".
        ctx.phases->AddCount(
            "kmeans", "assign_ns",
            static_cast<uint64_t>(
                std::max(0.0, ctx.executor->Now() - assign_t0) * 1e9 + 0.5));
      }

      // Bound-invariant audit (test hook): every document's upper bound
      // must dominate its true distance and its lower bound must stay
      // below the true runner-up distance, up to the safety slack.
      if (violations != nullptr) {
        ctx.executor->ParallelFor(
            0, n, 0, parallel::WorkHint{0, "kmeans-validate"},
            [&](int worker, size_t b, size_t e) {
              uint64_t bad = 0;
              for (size_t i = b; i < e; ++i) {
                const containers::SparseVector& row = matrix.rows[i];
                const uint32_t a = result.assignment[i];
                double min_other = std::numeric_limits<double>::infinity();
                double d_assigned = 0.0;
                for (int c = 0; c < k; ++c) {
                  double d = containers::SquaredDistance(
                      row, row_sq[i], state.centroids[static_cast<size_t>(c)],
                      state.centroid_sq[static_cast<size_t>(c)]);
                  if (static_cast<uint32_t>(c) == a) {
                    d_assigned = d;
                  } else if (d < min_other) {
                    min_other = d;
                  }
                }
                double true_u = std::sqrt(std::max(0.0, d_assigned));
                double true_l = std::sqrt(std::max(0.0, min_other));
                if (state.upper[i] < true_u - kBoundSafety) ++bad;
                if (state.lower[i] > true_l + kBoundSafety) ++bad;
              }
              violations->Get(worker) += bad;
            });
      }

      const kmeans_internal::IterationTotals totals =
          kmeans_internal::EndIteration(ctx, state);
      if (kmeans_internal::RecordIteration(options, totals, result)) break;
    }

    if (violations != nullptr) {
      ctx.executor->RunSerial(parallel::WorkHint{}, [&] {
        violations->ForEach(
            [&](uint64_t& v) { result.bound_violations += v; });
      });
    }
    if (ctx.phases != nullptr) {
      ctx.phases->AddCount("kmeans", "distance_kernels_evaluated",
                           result.distance_kernels_evaluated);
      ctx.phases->AddCount("kmeans", "distance_kernels_skipped",
                           result.distance_kernels_skipped);
    }

    result.centroids = std::move(state.centroids);
  });

  return result;
}

StatusOr<KMeansResult> MiniBatchKMeans(ExecContext& ctx,
                                       const containers::SparseMatrix& matrix,
                                       const KMeansOptions& options,
                                       size_t batch_size) {
  if (options.k <= 0) {
    return Status::InvalidArgument("k must be positive, got " +
                                   std::to_string(options.k));
  }
  if (matrix.num_rows() == 0) {
    return Status::InvalidArgument("cannot cluster an empty matrix");
  }
  if (static_cast<size_t>(options.k) > matrix.num_rows()) {
    return Status::InvalidArgument(
        StrFormat("k=%d exceeds number of rows (%zu)", options.k,
                  matrix.num_rows()));
  }
  if (batch_size == 0) {
    return Status::InvalidArgument("batch_size must be positive");
  }

  const size_t n = matrix.num_rows();
  const uint32_t dim = matrix.num_cols;
  const int k = options.k;
  if (batch_size > n) batch_size = n;

  KMeansResult result;

  ctx.TimePhase("kmeans-minibatch", [&] {
    std::vector<std::vector<float>> centroids;
    std::vector<double> centroid_sq(static_cast<size_t>(k), 0.0);
    std::vector<uint64_t> counts(static_cast<size_t>(k), 0);
    Rng rng(options.seed);

    ctx.executor->RunSerial(parallel::WorkHint{0, "kmeans-init"}, [&] {
      centroids.assign(static_cast<size_t>(k),
                       std::vector<float>(dim, 0.0f));
      const std::vector<size_t> seeds =
          kmeans_internal::SeedRows(n, k, options.seed);
      for (int c = 0; c < k; ++c) {
        const containers::SparseVector& row =
            matrix.rows[seeds[static_cast<size_t>(c)]];
        containers::AddScaled(row, 1.0f, centroids[static_cast<size_t>(c)]);
        centroid_sq[static_cast<size_t>(c)] = row.SquaredL2Norm();
      }
    });

    std::vector<size_t> batch(batch_size);
    std::vector<uint32_t> batch_best(batch_size);
    CentroidPanel panel(k, dim);
    // A step moves only the centroids its batch rows were assigned to, so
    // only those panel columns go stale; every column starts stale.
    std::vector<char> stale(static_cast<size_t>(k), 1);
    std::vector<int> stale_cols;
    auto refresh_panel = [&] {
      stale_cols.clear();
      for (int c = 0; c < k; ++c) {
        if (!stale[static_cast<size_t>(c)]) continue;
        stale_cols.push_back(c);
        stale[static_cast<size_t>(c)] = 0;
      }
      panel.CopyCentroids(centroids, stale_cols);
      panel.SetSqNorms(centroid_sq);
    };
    for (int iter = 0; iter < options.max_iterations; ++iter) {
      ++result.iterations;

      // Sample + per-centroid gradient step: one serial region (the batch
      // is small by design; parallelizing it would be pure overhead).
      ctx.executor->RunSerial(parallel::WorkHint{0, "minibatch-step"}, [&] {
        for (size_t b = 0; b < batch_size; ++b) {
          batch[b] = rng.NextBounded(n);
        }
        // The batch is assigned against this step's centroids before any
        // of them moves: refresh the stale columns, then one scan per row.
        refresh_panel();
        for (size_t b = 0; b < batch_size; ++b) {
          const containers::SparseVector& row = matrix.rows[batch[b]];
          double best_d = 0.0;
          int best = panel.Nearest(row, row.SquaredL2Norm(), &best_d);
          batch_best[b] = static_cast<uint32_t>(best);
        }
        for (size_t b = 0; b < batch_size; ++b) {
          size_t c = batch_best[b];
          stale[c] = 1;
          counts[c] += 1;
          float eta = 1.0f / static_cast<float>(counts[c]);
          auto& centroid = centroids[c];
          // centroid <- (1 - eta) * centroid + eta * x  (sparse x).
          for (float& v : centroid) v *= (1.0f - eta);
          containers::AddScaled(matrix.rows[batch[b]], eta, centroid);
          double sq = 0.0;
          for (float v : centroid) sq += static_cast<double>(v) * v;
          centroid_sq[c] = sq;
        }
      });
    }

    // Final full assignment pass: parallel over all documents.
    ctx.executor->RunSerial(parallel::WorkHint{0, "kmeans-init"},
                            refresh_panel);
    result.assignment.assign(n, 0);
    parallel::WorkerLocal<double> partial_inertia(*ctx.executor);
    parallel::WorkHint hint;
    hint.label = "minibatch-assign";
    hint.bytes_touched = matrix.ApproxMemoryBytes();
    ctx.executor->ParallelFor(
        0, n, 0, hint, [&](int worker, size_t b, size_t e) {
          double& acc = partial_inertia.Get(worker);
          for (size_t i = b; i < e; ++i) {
            const containers::SparseVector& row = matrix.rows[i];
            double best_d = 0.0;
            int best = panel.Nearest(row, row.SquaredL2Norm(), &best_d);
            result.assignment[i] = static_cast<uint32_t>(best);
            acc += best_d;
          }
        });
    ctx.executor->RunSerial(parallel::WorkHint{0, "kmeans-finalize"}, [&] {
      partial_inertia.ForEach([&](double& v) { result.inertia += v; });
      result.inertia_history.push_back(result.inertia);
      result.centroids = std::move(centroids);
    });
  });

  return result;
}

Status WriteAssignmentsCsv(ExecContext& ctx,
                           const std::vector<std::string>& doc_names,
                           const std::vector<uint32_t>& assignment,
                           const std::string& csv_path) {
  Status status;
  ctx.TimePhase("output", [&] {
    ctx.executor->RunSerial(parallel::WorkHint{0, "output"}, [&] {
      status = [&]() -> Status {
        HPA_ASSIGN_OR_RETURN(auto writer,
                             ctx.scratch_disk->OpenWriter(csv_path));
        std::string chunk = "document,cluster\n";
        for (size_t i = 0; i < assignment.size(); ++i) {
          if (i < doc_names.size()) {
            chunk += io::CsvEscape(doc_names[i]);
          } else {
            chunk += "row_" + std::to_string(i);
          }
          chunk += ',';
          chunk += std::to_string(assignment[i]);
          chunk += '\n';
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

}  // namespace hpa::ops
