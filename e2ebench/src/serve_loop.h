#ifndef HPA_E2EBENCH_SERVE_LOOP_H_
#define HPA_E2EBENCH_SERVE_LOOP_H_

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "parallel/executor.h"
#include "serve/metrics.h"
#include "serve/model_registry.h"
#include "serve/request.h"
#include "serve/server.h"

/// \file
/// Open-loop request generator for the serving leg. Arrivals follow a
/// seeded Poisson schedule fixed before the window starts; the generating
/// thread is also the server's event loop (AnalyticsServer is driven from
/// one thread and scores a batch synchronously inside Poll). Every
/// request is timed from when it was *due*, so a stall of the event loop
/// counts against the requests that were due during it; how late the
/// generator submitted is recorded separately.

namespace hpa::e2e {

/// Arrival offsets in seconds from the window start: `count` Poisson
/// arrivals at `rate` per second, deterministic in `seed`.
std::vector<double> PoissonSchedule(double rate, size_t count, uint64_t seed);

/// What a window observed, indexed by request id (= schedule index).
struct OpenLoopTrace {
  /// Response wall time minus due time; NaN when never answered.
  std::vector<double> due_latency;
  /// Submit wall time minus due time (generator lateness).
  std::vector<double> gen_late;
  /// Server-clock finish minus submit; NaN when never admitted.
  std::vector<double> server_latency;
  std::vector<serve::RequestOutcome> outcome;
  std::vector<uint32_t> cluster;
  std::vector<double> distance;
  /// Times each id was answered or rejected (must end at exactly 1).
  std::vector<uint32_t> accounted;
  size_t rejected = 0;

  explicit OpenLoopTrace(size_t n)
      : due_latency(n, std::numeric_limits<double>::quiet_NaN()),
        gen_late(n, 0.0),
        server_latency(n, std::numeric_limits<double>::quiet_NaN()),
        outcome(n, serve::RequestOutcome::kPending),
        cluster(n, 0),
        distance(n, 0.0),
        accounted(n, 0) {}
};

/// Drives one open-loop window. `Server` offers Submit(id) -> Status,
/// Poll() and Drain() -> std::vector<serve::Response>; `Clock` offers
/// Now() in seconds and Idle(until), called when a poll produced nothing
/// and the next arrival is due at `until` (a real clock spins; a test
/// clock jumps). Templated so the self-tests can drive it with a fake
/// server and clock.
template <typename Server, typename Clock>
OpenLoopTrace DriveOpenLoop(Server& server, Clock& clock,
                            const std::vector<double>& due_offsets) {
  const size_t n = due_offsets.size();
  OpenLoopTrace trace(n);
  const double start = clock.Now();
  auto collect = [&](std::vector<serve::Response> responses) {
    if (responses.empty()) return false;
    double now = clock.Now();
    for (const serve::Response& r : responses) {
      if (r.id >= n) continue;
      trace.accounted[r.id] += 1;
      trace.outcome[r.id] = r.outcome;
      trace.cluster[r.id] = r.cluster;
      trace.distance[r.id] = r.distance;
      trace.due_latency[r.id] = now - (start + due_offsets[r.id]);
      trace.server_latency[r.id] = r.finish_time_sec - r.submit_time_sec;
    }
    return true;
  };
  size_t next = 0;
  while (next < n) {
    double now = clock.Now();
    while (next < n && start + due_offsets[next] <= now) {
      trace.gen_late[next] = now - (start + due_offsets[next]);
      if (!server.Submit(next).ok()) {
        trace.accounted[next] += 1;
        ++trace.rejected;
      }
      ++next;
      now = clock.Now();
    }
    if (!collect(server.Poll()) && next < n) {
      clock.Idle(start + due_offsets[next]);
    }
  }
  collect(server.Drain());
  return trace;
}

/// The steady wall clock; idles by short sleeps.
struct WallClock {
  double Now() const;
  void Idle(double until) const;
};

/// Expected answer for a request body: serial ModelHandle::Classify.
struct Expected {
  uint32_t cluster = 0;
  double distance = 0.0;
};

/// One serving window against a real AnalyticsServer and its verdict.
struct WindowResult {
  double rate = 0.0;
  size_t sent = 0;
  size_t ok = 0;
  size_t deadline_misses = 0;
  size_t failed = 0;
  size_t shed = 0;
  size_t rejected = 0;
  /// ok + miss + failed + shed + rejected == sent, each id exactly once.
  bool accounted = false;
  /// Ok responses whose cluster or distance bits differ from Expected.
  size_t wrong_answers = 0;
  /// Due-time latencies of answered (ok or late) requests, in due order.
  std::vector<double> due_latency;
  std::vector<double> server_latency;
  std::vector<double> gen_late;
  serve::ServeMetrics::Snapshot server;

  size_t bad() const {
    return deadline_misses + failed + shed + rejected;
  }
};

struct ServeEnv {
  const serve::ModelHandle* model = nullptr;
  const std::vector<std::string>* bodies = nullptr;
  const std::vector<Expected>* expected = nullptr;
  parallel::Executor* executor = nullptr;
  serve::ServerOptions options;
  /// Per-request deadline relative to submission (server clock).
  double deadline_s = 0.1;
};

/// Runs one request per entry of `due_offsets` (seconds from the window
/// start, ascending) through a fresh server; `rate` is recorded with the
/// result. Bodies are taken round-robin starting at `first_body`.
WindowResult RunWindow(const ServeEnv& env, double rate,
                       const std::vector<double>& due_offsets,
                       size_t first_body);

}  // namespace hpa::e2e

#endif  // HPA_E2EBENCH_SERVE_LOOP_H_
