#include "stats.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace hpa::e2e {

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  // Nearest rank: the smallest value with at least p% of samples <= it.
  double rank = std::ceil(p / 100.0 * static_cast<double>(samples.size()));
  size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return samples[std::min(index, samples.size() - 1)];
}

TailSummary SummarizeTail(const std::vector<double>& samples) {
  TailSummary s;
  s.count = samples.size();
  s.p50 = Percentile(samples, 50.0);
  for (double p : {90.0, 99.0, 99.9, 99.99}) {
    double beyond = static_cast<double>(s.count) * (100.0 - p) / 100.0;
    if (beyond + 1e-9 < 10.0) break;
    s.tail_percentile = p;
    s.tail_value = Percentile(samples, p);
  }
  return s;
}

double BurstRate(const std::vector<double>& latencies) {
  if (latencies.empty()) return 0.0;
  double last = *std::max_element(latencies.begin(), latencies.end());
  return last > 0 ? static_cast<double>(latencies.size()) / last : 0.0;
}

bool BacklogGrowing(const std::vector<double>& latencies_in_due_order,
                    double limit) {
  size_t n = latencies_in_due_order.size();
  size_t fifth = n / 5;
  if (fifth == 0) return false;
  std::vector<double> first(latencies_in_due_order.begin(),
                            latencies_in_due_order.begin() + fifth);
  std::vector<double> last(latencies_in_due_order.end() - fifth,
                           latencies_in_due_order.end());
  double head = Median(std::move(first));
  double tail = Median(std::move(last));
  return tail > 2.0 * head && tail > 0.5 * limit;
}

bool RungPasses(const RungResult& rung, double limit) {
  return rung.bad == 0 && !rung.backlog_growing && rung.p99 <= limit;
}

std::vector<double> LadderRates(double bottom, double top, double step) {
  std::vector<double> out;
  for (double r = bottom; std::round(r) <= top; r *= step) {
    out.push_back(std::round(r));
  }
  return out;
}

double MaxSustainedRate(const std::vector<RungResult>& tried, double limit) {
  // One (rate, passed) entry per rate, in the order tried.
  std::vector<std::pair<double, bool>> rates;
  for (const RungResult& r : tried) {
    if (rates.empty() || rates.back().first != r.rate) {
      rates.emplace_back(r.rate, false);
    }
    rates.back().second = rates.back().second || RungPasses(r, limit);
  }
  if (rates.empty()) return 0.0;
  if (!rates.front().second) {
    for (const auto& [rate, passed] : rates) {
      if (passed) return rate;
    }
    return 0.0;
  }
  double best = 0.0;
  for (const auto& [rate, passed] : rates) {
    if (!passed) break;
    best = rate;
  }
  return best;
}

std::vector<RungResult> Climb(
    const std::vector<double>& ladder, size_t start, int attempts,
    double limit, const std::function<RungResult(double)>& try_rate) {
  std::vector<RungResult> tried;
  auto passes = [&](size_t i) {
    for (int a = 0; a < attempts; ++a) {
      tried.push_back(try_rate(ladder[i]));
      if (RungPasses(tried.back(), limit)) return true;
    }
    return false;
  };
  if (ladder.empty()) return tried;
  size_t i = start;
  if (passes(i)) {
    while (i + 1 < ladder.size() && passes(i + 1)) ++i;
  } else {
    while (i > 0 && !passes(i - 1)) --i;
  }
  return tried;
}

size_t LadderIndex(const std::vector<double>& ladder, double rate) {
  size_t i = static_cast<size_t>(
      std::lower_bound(ladder.begin(), ladder.end(), rate) - ladder.begin());
  return std::min(i, ladder.empty() ? 0 : ladder.size() - 1);
}

}  // namespace hpa::e2e
