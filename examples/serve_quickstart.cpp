// Serving quickstart: stand up an Engine over a skewed dataset, push
// 1000 concurrent top-k requests with a deadline through the
// BatchScheduler, and report per-algorithm selection counts, the
// within-deadline completion rate, and the process-wide metrics
// registry dashboard.
//
//   $ ./build/examples/serve_quickstart
//   $ IPS_METRICS_JSON=/tmp/metrics.json ./build/examples/serve_quickstart
//
// With IPS_METRICS_JSON set, the final registry snapshot is also
// written to that path as JSON (the scripts/check.sh smoke step feeds
// it to tools/metrics_json_check). Exits non-zero if fewer than 95% of
// requests complete within the deadline (the serving SLO this example
// demonstrates).

#include <cstdlib>
#include <fstream>
#include <future>
#include <iostream>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "core/dataset.h"
#include "core/query.h"
#include "obs/metrics.h"
#include "rng/random.h"
#include "serve/batch_scheduler.h"
#include "serve/engine.h"
#include "serve/sharded_engine.h"
#include "util/failpoint.h"
#include "util/status.h"

namespace {

// Unwraps a StatusOr or exits with the status printed, so a rejected
// input is diagnosable instead of a raw abort.
template <typename T>
T OrDie(ips::StatusOr<T> result) {
  if (!result.ok()) {
    std::cerr << "fatal: " << result.status().ToString() << "\n";
    std::exit(1);
  }
  return std::move(result).value();
}

}  // namespace

int main() {
  ips::Rng rng(2026);

  // 1. Data: latent-factor vectors with popularity-skewed norms -- the
  //    regime where planner choices actually differ per request.
  constexpr std::size_t kDim = 24;
  constexpr std::size_t kN = 4000;
  const ips::Matrix data =
      ips::MakeLatentFactorVectors(kN, kDim, /*skew=*/1.0, &rng);

  // 2. The engine calibrates its planner on a subsample at startup and
  //    builds per-algorithm indexes lazily on first use.
  ips::EngineOptions options;
  options.seed = 7;
  const auto engine = OrDie(ips::Engine::Create(data, options));
  std::cout << "engine ready: n=" << engine->profile().n
            << " d=" << engine->profile().dim
            << " norm spread=" << engine->profile().NormSpread() << "\n";

  // 3. 1000 concurrent requests with mixed recall targets and a 5 s
  //    deadline each, coalesced into batches by the scheduler.
  constexpr std::size_t kRequests = 1000;
  constexpr double kDeadlineSeconds = 5.0;
  // Provision the queue for the burst: fill-level admission control
  // sheds kBatch submissions once the queue holds half of max_queue,
  // so a server expecting a 1000-request burst needs max_queue > 2x
  // that or its batch tenants get kResourceExhausted instead of
  // answers.
  ips::BatchSchedulerOptions sched_options;
  sched_options.max_queue = 4096;
  ips::BatchScheduler scheduler(engine.get(), sched_options);

  std::vector<std::future<ips::BatchScheduler::Result>> futures;
  futures.reserve(kRequests);
  for (std::size_t i = 0; i < kRequests; ++i) {
    std::vector<double> query(kDim);
    for (double& v : query) v = rng.NextGaussian();
    ips::QueryOptions request;
    request.k = 5;
    // A mix of cheap approximate and exact requests.
    request.recall_target = (i % 3 == 0) ? 1.0 : (i % 3 == 1) ? 0.9 : 0.7;
    // Transport-level QoS rides in the RequestContext: who is asking
    // (tenant), how urgent (priority lane), and the 5 s deadline.
    ips::RequestContext context;
    context.tenant_id = (i % 4 == 0) ? "analytics" : "search";
    context.priority = (i % 4 == 0) ? ips::RequestPriority::kBatch
                                    : ips::RequestPriority::kInteractive;
    context.deadline_seconds = kDeadlineSeconds;
    futures.push_back(scheduler.Submit({query, request, context}));
  }

  // 4. Collect answers; every future resolves (deadline, shed, or OK).
  std::size_t ok_count = 0, within_deadline = 0, failed = 0;
  for (auto& future : futures) {
    const auto result = future.get();
    if (!result.ok()) {
      ++failed;
      continue;
    }
    ++ok_count;
    if (result->stats.deadline_met) ++within_deadline;
  }
  scheduler.Drain();

  const double within_fraction =
      static_cast<double>(within_deadline) / static_cast<double>(kRequests);
  std::cout << "\nserved " << ok_count << "/" << kRequests << " requests ("
            << failed << " failed), " << within_deadline
            << " within the " << kDeadlineSeconds << " s deadline ("
            << 100.0 * within_fraction << "%)\n\n";

  // 5. Per-algorithm selection counts and engine execution time, read
  //    from the registry the engine reports into. The scheduler hands
  //    coalesced groups to Engine::BatchQuery and singletons to
  //    Engine::Query, which time themselves separately.
  ips::MetricsRegistry& registry = ips::MetricsRegistry::Global();
  std::cout << "selected:";
  for (const char* algo : {"brute", "tree", "lsh", "sketch"}) {
    std::cout << " " << algo << "="
              << registry.GetCounter(std::string("serve.engine.selected.") +
                                     algo)
                     ->Value();
  }
  std::cout << "\n";
  for (const char* name : {"serve.engine.exec_seconds",
                           "serve.engine.batch.exec_seconds"}) {
    const ips::Histogram* exec = registry.GetHistogram(name);
    std::cout << name << ": n=" << exec->Count()
              << " mean=" << exec->Mean() * 1e3 << " ms\n";
  }

  const ips::SchedulerCounters counters = scheduler.counters();
  std::cout << "scheduler: " << counters.batches << " batches, max queue depth "
            << counters.max_queue_depth << ", " << counters.shed << " shed, "
            << counters.expired << " expired\n";
  for (const std::string& tenant : scheduler.tenants()) {
    const ips::TenantCounters tc = scheduler.tenant_counters(tenant);
    std::cout << "tenant " << tenant << ": " << tc.completed << "/"
              << tc.submitted << " completed, " << tc.shed << " shed, p99 "
              << tc.p99_seconds * 1e3 << " ms\n";
  }

  // 6. The process-wide metrics registry accumulated every counter the
  //    serving path touched; print the dashboard and optionally export
  //    the same snapshot as JSON.
  std::cout << "\nmetrics registry:\n";
  ips::MetricsRegistry::Global().ToTable().PrintMarkdown(std::cout);
  if (const char* json_path = std::getenv("IPS_METRICS_JSON")) {
    const auto json = ips::MetricsRegistry::Global().ExportJson();
    if (!json.ok()) {
      std::cerr << "metrics export failed: " << json.status().ToString()
                << "\n";
      return 1;
    }
    std::ofstream out(json_path);
    out << *json;
    if (!out) {
      std::cerr << "could not write " << json_path << "\n";
      return 1;
    }
    std::cout << "\nwrote metrics JSON to " << json_path << "\n";
  }

  if (within_fraction < 0.95) {
    std::cerr << "FAIL: fewer than 95% of requests met the deadline\n";
    return 1;
  }
  std::cout << "\nOK: >=95% of requests completed within the deadline\n";

  // 7. Graceful degradation: the same workload against a 4-shard
  //    scatter-gather engine with shard 2's query path wedged by a
  //    failpoint. Every answer still arrives (the merged top-k of the
  //    surviving shards), the deadline SLO holds, and the lost coverage
  //    is visible -- not hidden -- as partial answers and failed-shard
  //    counts. After three lost calls the shard's circuit breaker
  //    trips and ejects it from the scatter set.
  std::cout << "\n=== degraded mode: 4 shards, shard 2 down ===\n";
  ips::ShardedEngineOptions sharded_options;
  sharded_options.num_shards = 4;
  sharded_options.engine.seed = 7;
  const auto sharded =
      OrDie(ips::ShardedEngine::Create(data, sharded_options));
  ips::Failpoints::Arm("serve/shard/query/2",
                       ips::Status::Internal("shard 2 wedged"),
                       ips::FireEvery{1});

  constexpr std::size_t kDegradedRequests = 200;
  std::size_t degraded_ok = 0, degraded_within = 0;
  for (std::size_t i = 0; i < kDegradedRequests; ++i) {
    std::vector<double> query(kDim);
    for (double& v : query) v = rng.NextGaussian();
    ips::QueryOptions request;
    request.k = 5;
    request.recall_target = (i % 3 == 0) ? 1.0 : (i % 3 == 1) ? 0.9 : 0.7;
    ips::RequestContext context;
    context.deadline_seconds = kDeadlineSeconds;
    const auto result = sharded->Query({query, request, context});
    if (!result.ok()) continue;
    ++degraded_ok;
    if (result->stats.deadline_met) ++degraded_within;
  }
  ips::Failpoints::Disarm("serve/shard/query/2");

  // The registry counts partial answers apart from clean ones, so the
  // dashboard distinguishes "fast" from "fast but degraded". Only this
  // section drives a sharded engine, so the serve.shard.* counters are
  // its own.
  const auto shard_counter = [&](const char* name) {
    return registry.GetCounter(std::string("serve.shard.") + name)->Value();
  };
  const double degraded_within_fraction =
      static_cast<double>(degraded_within) /
      static_cast<double>(kDegradedRequests);
  std::cout << "served " << degraded_ok << "/" << kDegradedRequests
            << " requests, " << degraded_within << " within the deadline ("
            << 100.0 * degraded_within_fraction << "%)\n"
            << "partial answers: " << shard_counter("partial")
            << ", shard calls failed: " << shard_counter("failed")
            << ", skipped by the breaker: " << shard_counter("skipped")
            << ", hedged: " << shard_counter("hedged") << "\n"
            << "shard 2 breaker: "
            << (sharded->breaker_state(2) ==
                        ips::ShardedEngine::BreakerState::kOpen
                    ? "open (ejected from the scatter set)"
                    : "closed")
            << "\n";

  if (degraded_ok < kDegradedRequests ||
      degraded_within_fraction < 0.95) {
    std::cerr << "FAIL: degraded mode broke the serving SLO\n";
    return 1;
  }
  if (shard_counter("partial") != kDegradedRequests) {
    std::cerr << "FAIL: lost shard coverage was not surfaced as partial\n";
    return 1;
  }
  std::cout << "OK: one dead shard degraded answers (partial=true), not "
               "availability\n";
  return 0;
}
