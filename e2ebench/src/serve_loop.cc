#include "serve_loop.h"

#include <chrono>
#include <cstring>
#include <thread>

#include "batch.h"
#include "common/random.h"

namespace hpa::e2e {
namespace {

constexpr double kIdleStepSec = 50e-6;

uint64_t Bits(double d) {
  uint64_t b = 0;
  std::memcpy(&b, &d, sizeof(b));
  return b;
}

// AnalyticsServer with the window's bodies and deadlines bound in.
class ServerAdapter {
 public:
  ServerAdapter(serve::AnalyticsServer& server, const ServeEnv& env,
                size_t first_body)
      : server_(server), env_(env), first_body_(first_body) {}

  Status Submit(uint64_t id) {
    const auto& bodies = *env_.bodies;
    return server_.Submit(id, bodies[(first_body_ + id) % bodies.size()],
                          env_.executor->Now() + env_.deadline_s);
  }
  std::vector<serve::Response> Poll() { return server_.Poll(); }
  std::vector<serve::Response> Drain() { return server_.Drain(); }

 private:
  serve::AnalyticsServer& server_;
  const ServeEnv& env_;
  size_t first_body_;
};

}  // namespace

std::vector<double> PoissonSchedule(double rate, size_t count,
                                    uint64_t seed) {
  Rng rng(seed);
  std::vector<double> due(count);
  double t = 0.0;
  for (size_t i = 0; i < count; ++i) {
    // Exponential gap; 1 - u keeps the log argument in (0, 1].
    t += -std::log(1.0 - rng.NextDouble()) / rate;
    due[i] = t;
  }
  return due;
}

double WallClock::Now() const { return WallSeconds(); }

void WallClock::Idle(double until) const {
  // Sleep in short steps while the next arrival is far off, so the event
  // loop leaves its core to the server's workers and the host; the poll
  // after each step still flushes batches that aged out. Close to an
  // arrival, spin.
  if (until - Now() > 2 * kIdleStepSec) {
    std::this_thread::sleep_for(std::chrono::duration<double>(kIdleStepSec));
  }
}

WindowResult RunWindow(const ServeEnv& env, double rate,
                       const std::vector<double>& due_offsets,
                       size_t first_body) {
  serve::ServeMetrics metrics(env.executor->num_workers());
  ops::ExecContext ctx;
  ctx.executor = env.executor;
  serve::AnalyticsServer server(ctx, env.model, env.options, &metrics);
  ServerAdapter adapter(server, env, first_body);
  WallClock clock;
  OpenLoopTrace trace = DriveOpenLoop(adapter, clock, due_offsets);
  const size_t count = due_offsets.size();

  WindowResult w;
  w.rate = rate;
  w.sent = count;
  w.rejected = trace.rejected;
  w.accounted = true;
  const auto& bodies = *env.bodies;
  for (size_t id = 0; id < count; ++id) {
    if (trace.accounted[id] != 1) w.accounted = false;
    w.gen_late.push_back(trace.gen_late[id]);
    if (!std::isnan(trace.server_latency[id])) {
      w.server_latency.push_back(trace.server_latency[id]);
    }
    switch (trace.outcome[id]) {
      case serve::RequestOutcome::kOk: {
        ++w.ok;
        const Expected& e = (*env.expected)[(first_body + id) % bodies.size()];
        if (trace.cluster[id] != e.cluster ||
            Bits(trace.distance[id]) != Bits(e.distance)) {
          ++w.wrong_answers;
        }
        w.due_latency.push_back(trace.due_latency[id]);
        break;
      }
      case serve::RequestOutcome::kDeadlineMiss:
        ++w.deadline_misses;
        w.due_latency.push_back(trace.due_latency[id]);
        break;
      case serve::RequestOutcome::kFailed:
        ++w.failed;
        break;
      case serve::RequestOutcome::kShed:
        ++w.shed;
        break;
      case serve::RequestOutcome::kPending:
        break;  // rejected at admission (counted above) or lost
    }
  }
  if (w.ok + w.deadline_misses + w.failed + w.shed + w.rejected != w.sent) {
    w.accounted = false;
  }
  w.server = metrics.Scrape();
  return w;
}

}  // namespace hpa::e2e
