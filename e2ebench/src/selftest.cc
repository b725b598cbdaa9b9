#include "selftest.h"

#include <cmath>
#include <deque>
#include <utility>
#include <vector>

#include "inputs.h"
#include "serve_loop.h"
#include "stats.h"

namespace hpa::e2e {
namespace {

struct Checker {
  std::string* report;
  int failures = 0;

  void Expect(bool ok, const std::string& what) {
    if (ok) return;
    ++failures;
    *report += "selftest FAILED: " + what + "\n";
  }
  void Near(double got, double want, const std::string& what) {
    Expect(std::fabs(got - want) < 1e-9,
           what + " (got " + std::to_string(got) + ", want " +
               std::to_string(want) + ")");
  }
};

void TestSeededInputs(Checker& c) {
  auto fingerprints = [](uint64_t seed) {
    text::Corpus train, requests;
    GenerateInputs(InputProfile(seed, 0.0005, 5), 5, 4, &train, &requests);
    return std::vector<uint64_t>{CorpusFingerprint(train),
                                 CorpusFingerprint(requests),
                                 train.size(), requests.size()};
  };
  std::vector<uint64_t> a = fingerprints(7), b = fingerprints(7),
                        other = fingerprints(8);
  c.Expect(a == b, "same seed gives the same inputs");
  c.Expect(a[0] != other[0] && a[1] != other[1],
           "another seed gives other inputs");
  c.Expect(a[3] == 5 && a[2] > 0, "held-out split has the asked size");
}

void TestPercentiles(Checker& c) {
  auto ramp = [](size_t n) {
    std::vector<double> v;
    for (size_t i = n; i >= 1; --i) v.push_back(static_cast<double>(i));
    return v;
  };
  TailSummary s = SummarizeTail(ramp(1000));
  c.Expect(s.count == 1000, "tail summary counts samples");
  c.Near(s.p50, 500, "p50 of 1..1000");
  c.Near(s.tail_percentile, 99, "1000 samples support p99");
  c.Near(s.tail_value, 990, "p99 of 1..1000");
  c.Near(SummarizeTail(ramp(999)).tail_percentile, 90,
         "999 samples leave fewer than ten beyond p99");
  c.Near(SummarizeTail(ramp(10000)).tail_percentile, 99.9,
         "10000 samples support p99.9");
  c.Near(SummarizeTail(ramp(99)).tail_percentile, 0,
         "99 samples support no tail percentile");
  c.Near(Median({3, 1, 2, 10}), 2.5, "even-count median");
}

// A clock the loop can only move by idling, and a server that stalls the
// event loop for 10 ms on the poll that first sees request 1.
struct FakeClock {
  double t = 0.0;
  double Now() const { return t; }
  void Idle(double until) { t = until; }
};

struct FakeServer {
  explicit FakeServer(FakeClock* c) : clock(c) {}

  FakeClock* clock;
  std::deque<uint64_t> queue;
  bool stalled = false;

  Status Submit(uint64_t id) {
    if (id == 4) return Status::FailedPrecondition("queue full");
    queue.push_back(id);
    return Status::OK();
  }
  std::vector<serve::Response> Poll() {
    std::vector<serve::Response> out;
    for (uint64_t id : queue) {
      if (id == 1 && !stalled) {
        clock->t += 0.010;
        stalled = true;
      }
      serve::Response r;
      r.id = id;
      r.outcome = serve::RequestOutcome::kOk;
      out.push_back(r);
    }
    queue.clear();
    return out;
  }
  std::vector<serve::Response> Drain() { return Poll(); }
};

void TestDueTimeAccounting(Checker& c) {
  FakeClock clock;
  FakeServer server(&clock);
  OpenLoopTrace t =
      DriveOpenLoop(server, clock, {0.000, 0.001, 0.002, 0.003, 0.020});
  c.Near(t.due_latency[0], 0.000, "prompt request has no latency");
  c.Near(t.due_latency[1], 0.010, "stalled request waits the stall");
  // Requests 2 and 3 fell due during the stall: submitted late, and their
  // latency counts from the due time, not from the late submission.
  c.Near(t.gen_late[2], 0.009, "generator lateness is recorded");
  c.Near(t.due_latency[2], 0.009, "latency counts from the due time");
  c.Near(t.due_latency[3], 0.008, "latency counts from the due time");
  c.Expect(t.rejected == 1 && std::isnan(t.due_latency[4]),
           "a rejected request is counted and has no latency");
  bool once = true;
  for (uint32_t a : t.accounted) once = once && a == 1;
  c.Expect(once, "every request is accounted for exactly once");
}

void TestLadder(Checker& c) {
  const double limit = 0.005;
  auto rung = [](double rate, double p99, size_t bad, bool growing) {
    RungResult r;
    r.rate = rate;
    r.p99 = p99;
    r.bad = bad;
    r.backlog_growing = growing;
    return r;
  };
  c.Near(MaxSustainedRate({rung(1000, 0.001, 0, false),
                           rung(2000, 0.002, 0, false),
                           rung(3000, 0.006, 0, false),
                           rung(4000, 0.001, 0, false)},
                          limit),
         2000, "ladder stops at the first rung over the limit");
  c.Near(MaxSustainedRate({rung(1000, 0.001, 0, false),
                           rung(2000, 0.001, 1, false)},
                          limit),
         1000, "a failed request fails the rung");
  c.Near(MaxSustainedRate({rung(1000, 0.001, 0, false),
                           rung(2000, 0.001, 0, true)},
                          limit),
         1000, "a growing backlog fails the rung");
  c.Near(MaxSustainedRate({rung(1000, 0.009, 0, false)}, limit), 0,
         "a failing bottom rung gives 0");
  c.Near(MaxSustainedRate({rung(1000, 0.009, 0, false),
                           rung(1000, 0.001, 0, false),
                           rung(2000, 0.001, 0, true),
                           rung(2000, 0.001, 2, false),
                           rung(3000, 0.001, 0, false)},
                          limit),
         1000, "a rate passes when any attempt passes, fails when all fail");
  c.Near(MaxSustainedRate({rung(3000, 0.009, 0, false),
                           rung(2000, 0.001, 1, false),
                           rung(1000, 0.001, 0, false)},
                          limit),
         1000, "a climb that starts too high finds the first passing rate");

  c.Near(BurstRate({0.001, 0.004, 0.002, 0.003}), 1000,
         "a burst's rate is its answers over the last answer's time");
  c.Near(BurstRate({}), 0, "a burst with no answer has rate 0");

  std::vector<double> ladder = LadderRates(1000, 8000, 2);
  c.Expect(ladder == std::vector<double>{1000, 2000, 4000, 8000},
           "a geometric ladder doubles up to its top");
  c.Expect(LadderRates(1000, 1100, 1.04) ==
               std::vector<double>{1000, 1040, 1082},
           "ladder rates are rounded to whole requests per second");
  c.Expect(LadderIndex(ladder, 3000) == 2 && LadderIndex(ladder, 9000) == 3,
           "a start rate maps to the lowest rung at or above it");
  // Synthetic latency traces: p99 is 1 ms up to a capacity and 20 ms
  // beyond it; `stalls` windows at the start of the climb fail anyway.
  auto climb = [&](size_t start, double capacity, int stalls) {
    int windows = 0;
    std::vector<RungResult> tried =
        Climb(ladder, start, 3, limit, [&](double rate) {
          bool stalled = windows++ < stalls;
          return rung(rate, rate <= capacity && !stalled ? 0.001 : 0.020, 0,
                      false);
        });
    return std::make_pair(MaxSustainedRate(tried, limit), tried.size());
  };
  c.Expect(climb(1, 5000, 0) == std::make_pair(4000.0, size_t{5}),
           "a climb goes up to the last rate within capacity");
  c.Expect(climb(1, 5000, 2).first == 4000,
           "a stall at the start does not end the climb");
  c.Expect(climb(2, 1500, 0) == std::make_pair(1000.0, size_t{7}),
           "a climb whose start fails goes down to a passing rate");
  c.Expect(climb(0, 20000, 0).first == 8000, "a climb stops at the top");
  c.Expect(climb(1, 500, 0).first == 0, "no rate within capacity gives 0");

  std::vector<double> flat(1000, 0.001), ramp, mild;
  for (int i = 0; i < 1000; ++i) {
    ramp.push_back(0.001 + 0.05 * i / 1000.0);
    mild.push_back(0.001 + 0.0005 * i / 1000.0);
  }
  c.Expect(!BacklogGrowing(flat, limit), "flat latencies are not a backlog");
  c.Expect(BacklogGrowing(ramp, limit), "a climbing queue is a backlog");
  c.Expect(!BacklogGrowing(mild, limit),
           "a drift far below the limit is not a backlog");
}

}  // namespace

int RunSelfTests(std::string* report) {
  Checker c{report};
  TestSeededInputs(c);
  TestPercentiles(c);
  TestDueTimeAccounting(c);
  TestLadder(c);
  return c.failures;
}

}  // namespace hpa::e2e
