#ifndef HPA_E2EBENCH_STATS_H_
#define HPA_E2EBENCH_STATS_H_

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

/// \file
/// Order statistics and the open-loop rate-ladder decision used by the
/// end-to-end benchmark. Pure functions over samples, so the self-tests
/// can drive them with synthetic traces.

namespace hpa::e2e {

/// Median of `samples` (mean of the two middle values for even counts);
/// 0 for an empty set.
double Median(std::vector<double> samples);

/// Nearest-rank percentile `p` in [0, 100] of `samples`; 0 when empty.
double Percentile(std::vector<double> samples, double p);

/// A latency distribution summarized the way the benchmark reports it: the
/// median and the highest percentile on a fixed ladder (90, 99, 99.9,
/// 99.99) that still has at least ten samples beyond it.
struct TailSummary {
  size_t count = 0;
  double p50 = 0.0;
  /// Highest percentile with >= 10 samples above it (0 when even p90 has
  /// fewer than ten, i.e. count < 100).
  double tail_percentile = 0.0;
  double tail_value = 0.0;
};
TailSummary SummarizeTail(const std::vector<double>& samples);

/// Requests per second a server completed in a burst: every request due
/// at the burst's start, so the queue never runs dry and the rate is its
/// capacity. `latencies` are the answered requests' times from the start;
/// the rate is their count over the last one (0 when none).
double BurstRate(const std::vector<double>& latencies);

/// Result of one rung of the rate ladder: an open-loop window at `rate`.
struct RungResult {
  double rate = 0.0;
  double p99 = 0.0;
  /// Failed, shed, rejected and deadline-missed requests.
  size_t bad = 0;
  bool backlog_growing = false;
};

/// True when the latencies of an open-loop window (in due-time order)
/// show a queue that keeps growing: the median of the last fifth is both
/// more than twice the median of the first fifth and above half of
/// `limit`. A stable queue keeps the two fifths alike; a rate above
/// capacity makes the tail fifth grow with the window length.
bool BacklogGrowing(const std::vector<double>& latencies_in_due_order,
                    double limit);

/// True when a rung meets the service objective: p99 within `limit`, no
/// bad requests and no growing backlog.
bool RungPasses(const RungResult& rung, double limit);

/// The rates of a geometric ladder: `bottom`, then each rate `step` (> 1)
/// times the one before, rounded to whole requests per second, up to the
/// last one not above `top`.
std::vector<double> LadderRates(double bottom, double top, double step);

/// The rate a climb found, from its rungs in the order tried. A rate may
/// be tried more than once (consecutive entries with the same rate); it
/// passes when any attempt passes, so one stall of a shared host does not
/// end the climb while a rate beyond capacity fails every attempt.
/// - When the first rate passes, the climb went up: the answer is the
///   highest rate of the run of passing rates, since the first failing
///   rate ends the climb (a pass above a failure is noise, not capacity).
/// - When the first rate fails, the climb went down: the answer is the
///   first rate that passes, 0 when none does.
double MaxSustainedRate(const std::vector<RungResult>& tried, double limit);

/// One climb of `ladder` (ascending rates) from `ladder[start]`: up until
/// a rate fails, or, when the start fails, down until a rate passes. Each
/// rate is tried up to `attempts` times, stopping at its first pass;
/// `try_rate` runs one open-loop window at a rate. Returns the rungs in
/// the order tried, for MaxSustainedRate.
std::vector<RungResult> Climb(
    const std::vector<double>& ladder, size_t start, int attempts,
    double limit, const std::function<RungResult(double)>& try_rate);

/// Index of the lowest ladder rate at or above `rate` (the top rung when
/// none is).
size_t LadderIndex(const std::vector<double>& ladder, double rate);

}  // namespace hpa::e2e

#endif  // HPA_E2EBENCH_STATS_H_
