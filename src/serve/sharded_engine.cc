#include "serve/sharded_engine.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <string>
#include <thread>
#include <utility>

#include "linalg/validate.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/envelope.h"
#include "util/failpoint.h"
#include "util/timer.h"

namespace ips {
namespace {

// Share of the request's deadline each shard call gets as its budget.
constexpr double kShardBudgetFraction = 0.9;
// Retry policy: attempts per shard call (the first included), and the
// sleep before the first retry, which doubles after each.
constexpr std::size_t kMaxAttempts = 3;
constexpr double kFirstBackoffSeconds = 0.0002;
constexpr double kBackoffMultiplier = 2.0;
// Consecutive failed calls that trip a shard's circuit breaker, and
// its cooldown before one half-open probe is admitted.
constexpr std::size_t kBreakerFailureThreshold = 3;
constexpr std::chrono::duration<double> kBreakerOpen{0.1};
// Primary-path latency samples a shard needs before the hedge predicts,
// and the share of the shard budget its tracked p99 must exceed.
constexpr std::size_t kHedgeMinSamples = 8;
constexpr double kHedgeLatencyFactor = 0.5;
// Stall the "serve/shard/slow" failpoint injects (a simulated
// straggler for chaos tests, not a serving control).
constexpr double kChaosSlowSeconds = 0.02;

void SleepSeconds(double seconds) {
  if (seconds <= 0.0) return;
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
}

// Hits the generic chaos site and then its per-shard variant
// ("<site>/<shard index>"), so tests can fail every shard or target one
// shard deterministically.
Status HitShardSite(const char* site, std::size_t shard_index) {
  IPS_RETURN_IF_ERROR(Failpoints::Hit(site));
  const std::string scoped =
      std::string(site) + "/" + std::to_string(shard_index);
  return Failpoints::Hit(scoped.c_str());
}

// Member q of a shard's answer: a single query's answer is member 0.
const QueryResult& MemberOf(const QueryResult& answer, std::size_t) {
  return answer;
}
const QueryResult& MemberOf(const std::vector<QueryResult>& answers,
                            std::size_t q) {
  return answers[q];
}

}  // namespace

bool IsRetryableShardStatus(StatusCode code) {
  return code == StatusCode::kUnavailable;
}

ShardedEngine::ShardedEngine(ShardedEngineOptions options, std::size_t dim)
    : options_(options), dim_(dim), pool_(options.num_shards) {}

Status ShardedEngine::ValidateOptions(const ShardedEngineOptions& options) {
  if (options.num_shards < 1) {
    return Status::InvalidArgument("sharded engine num_shards must be >= 1");
  }
  return Status::Ok();
}

StatusOr<std::unique_ptr<ShardedEngine>> ShardedEngine::Create(
    Matrix data, ShardedEngineOptions options) {
  IPS_RETURN_IF_ERROR(ValidateNonEmpty(data, "sharded engine data"));
  IPS_RETURN_IF_ERROR(ValidateFinite(data, "sharded engine data"));
  IPS_RETURN_IF_ERROR(ValidateOptions(options));
  if (options.num_shards > data.rows()) {
    return Status::InvalidArgument(
        "sharded engine num_shards (" + std::to_string(options.num_shards) +
        ") exceeds data rows (" + std::to_string(data.rows()) + ")");
  }

  std::unique_ptr<ShardedEngine> sharded(
      new ShardedEngine(options, data.cols()));
  const std::size_t rows = data.rows();
  const std::size_t base = rows / options.num_shards;
  const std::size_t remainder = rows % options.num_shards;
  std::size_t offset = 0;
  for (std::size_t i = 0; i < options.num_shards; ++i) {
    if (Failpoints::AnyArmed()) {
      IPS_RETURN_IF_ERROR(HitShardSite("serve/shard/build", i));
    }
    const std::size_t shard_rows = base + (i < remainder ? 1 : 0);
    Matrix slice(shard_rows, data.cols());
    for (std::size_t r = 0; r < shard_rows; ++r) {
      const auto src = data.Row(offset + r);
      std::copy(src.begin(), src.end(), slice.Row(r).begin());
    }
    // Per-shard seeds stay decorrelated so shards do not share index
    // randomness (LSH hyperplanes, tree pivots).
    EngineOptions engine_options = options.engine;
    engine_options.seed = options.engine.seed + i;
    auto engine = Engine::Create(std::move(slice), engine_options);
    if (!engine.ok()) {
      return Status(engine.status().code(),
                    "shard " + std::to_string(i) +
                        " build failed: " + engine.status().message());
    }
    auto shard = std::make_unique<Shard>();
    shard->engine = std::move(engine).value();
    shard->offset = offset;
    sharded->shards_.push_back(std::move(shard));
    offset += shard_rows;
  }
  return sharded;
}

StatusOr<QueryResult> ShardedEngine::Query(const Request& request) const {
  static const ServeSurface surface(
      "serve.sharded", "serve/sharded_query", "sharded query",
      "serve.shard.queries", "", "serve.shard.exec_seconds",
      "serve.shard.traced");
  return ServeQuery(
      surface, dim_, request,
      [&](Trace* trace) -> StatusOr<QueryResult> {
        auto scattered = Scatter<QueryResult>(
            trace, request.options, request.context, /*queries_per_call=*/1,
            [&](const Engine& shard, const QueryOptions& shard_options,
                const RequestContext& shard_context) {
              return shard.Query(  // ipslint:allow(shard-call)
                  Request{request.query, shard_options, shard_context});
            });
        IPS_RETURN_IF_ERROR(scattered.status());
        return MergeMember(*scattered, /*degraded=*/{}, /*q=*/0,
                           request.options.k);
      },
      [&](const StatusOr<QueryResult>& outcome) {
        SettleGather(outcome.ok() ? std::span(&*outcome, 1)
                                  : std::span<const QueryResult>());
      });
}

StatusOr<std::vector<QueryResult>> ShardedEngine::BatchQuery(
    const Matrix& queries, const QueryOptions& options,
    const RequestContext& context) const {
  static const ServeSurface surface(
      "serve.sharded.batch", "serve/sharded_batch_query",
      "sharded batch queries", "serve.shard.batch.requests",
      "serve.shard.batch.queries", "serve.shard.batch.exec_seconds",
      "serve.shard.traced");
  const std::size_t m = queries.rows();
  const std::size_t num = shards_.size();
  return ServeBatch(
      surface, dim_, queries, options, context,
      [&](Trace* trace) -> StatusOr<std::vector<QueryResult>> {
        auto scattered = Scatter<std::vector<QueryResult>>(
            trace, options, context, /*queries_per_call=*/m,
            [&](const Engine& shard, const QueryOptions& shard_options,
                const RequestContext& shard_context) {
              return shard.BatchQuery(  // ipslint:allow(shard-call)
                  queries, shard_options, shard_context);
            });
        IPS_RETURN_IF_ERROR(scattered.status());
        const std::vector<Outcome<std::vector<QueryResult>>>& calls =
            *scattered;
        // A shard that answered with the wrong member count is a broken
        // Engine contract (results come back in row order); treat it as
        // a lost shard rather than misaligning the gather.
        std::vector<Status> degraded(num, Status::Ok());
        for (std::size_t i = 0; i < num; ++i) {
          if (calls[i].result.ok() && calls[i].result.value().size() != m) {
            degraded[i] = Status::Internal(
                "shard " + std::to_string(i) + " returned " +
                std::to_string(calls[i].result.value().size()) + " of " +
                std::to_string(m) + " batch answers");
          }
        }

        std::vector<QueryResult> merged;
        merged.reserve(m);
        for (std::size_t q = 0; q < m; ++q) {
          auto one = MergeMember(calls, degraded, q, options.k);
          IPS_RETURN_IF_ERROR(one.status());
          merged.push_back(std::move(one).value());
        }
        return merged;
      },
      [&](const StatusOr<std::vector<QueryResult>>& outcome) {
        SettleGather(outcome.ok() ? std::span<const QueryResult>(*outcome)
                                  : std::span<const QueryResult>());
      });
}

template <typename T>
StatusOr<QueryResult> ShardedEngine::MergeMember(
    const std::vector<Outcome<T>>& calls, const std::vector<Status>& degraded,
    std::size_t q, std::size_t k) const {
  QueryResult merged;
  std::vector<SearchMatch> pool;
  std::vector<const Status*> errors;
  std::size_t ok = 0;
  std::size_t hedged = 0;
  std::size_t retries = 0;
  for (std::size_t i = 0; i < calls.size(); ++i) {
    retries += calls[i].retries;
    if (!calls[i].result.ok()) {
      errors.push_back(&calls[i].result.status());
      continue;
    }
    if (!degraded.empty() && !degraded[i].ok()) {
      errors.push_back(&degraded[i]);
      continue;
    }
    const QueryResult& answer = MemberOf(calls[i].result.value(), q);
    if (calls[i].hedged) ++hedged;
    if (ok == 0) {
      merged.stats.algorithm = answer.stats.algorithm;
      merged.plan = answer.plan;
    }
    ++ok;
    for (const SearchMatch& match : answer.matches) {
      pool.push_back({match.index + shards_[i]->offset, match.value});
    }
    merged.stats.candidates += answer.stats.candidates;
    merged.stats.dot_products += answer.stats.dot_products;
    for (const auto& [key, value] : answer.stats.metrics.items()) {
      merged.stats.metrics.Add(key, value);
    }
  }
  if (ok == 0) {
    bool uniform = true;
    for (const Status* error : errors) {
      if (error->code() != errors.front()->code()) uniform = false;
    }
    if (uniform) return *errors.front();
    return Status::Unavailable("all " + std::to_string(calls.size()) +
                               " shards failed; first: " +
                               errors.front()->ToString());
  }
  std::sort(pool.begin(), pool.end(), RanksBefore);
  if (pool.size() > k) pool.resize(k);
  merged.matches = std::move(pool);
  merged.stats.metrics.Set("serve.shard.total", calls.size());
  merged.stats.metrics.Set("serve.shard.ok", ok);
  merged.stats.metrics.Set("serve.shard.failed", calls.size() - ok);
  merged.stats.metrics.Set("serve.shard.hedged", hedged);
  merged.partial = ok < calls.size();
  if (q == 0 && retries > 0) {
    merged.stats.metrics.Add("serve.shard.retries", retries);
  }
  return merged;
}

void ShardedEngine::SettleGather(
    std::span<const QueryResult> answered) const {
  static Counter* const partial =
      MetricsRegistry::Global().GetCounter("serve.shard.partial");
  static Gauge* const open_breakers =
      MetricsRegistry::Global().GetGauge("serve.shard.open_breakers");
  open_breakers->Set(OpenBreakerCount());
  const auto lost =
      std::count_if(answered.begin(), answered.end(),
                    [](const QueryResult& result) { return result.partial; });
  if (lost > 0) partial->Add(static_cast<std::uint64_t>(lost));
}

Status ShardedEngine::EnsureIndex(QueryAlgo algo) const {
  for (const auto& shard : shards_) {
    IPS_RETURN_IF_ERROR(shard->engine->EnsureIndex(algo));
  }
  return Status::Ok();
}

std::size_t ShardedEngine::shard_offset(std::size_t i) const {
  return shards_.at(i)->offset;
}

const Engine& ShardedEngine::shard(std::size_t i) const {
  return *shards_.at(i)->engine;
}

ShardedEngine::BreakerState ShardedEngine::breaker_state(
    std::size_t i) const {
  Shard& shard = *shards_.at(i);
  MutexLock lock(shard.mutex);
  if (!shard.open) return BreakerState::kClosed;
  if (shard.probing || Clock::now() - shard.opened_at >= kBreakerOpen) {
    return BreakerState::kHalfOpen;
  }
  return BreakerState::kOpen;
}

template <typename T, typename Invoke>
StatusOr<std::vector<ShardedEngine::Outcome<T>>> ShardedEngine::Scatter(
    Trace* trace, const QueryOptions& options, const RequestContext& context,
    std::size_t queries_per_call, const Invoke& invoke) const {
  std::vector<Outcome<T>> calls(shards_.size());
  IPS_RETURN_IF_ERROR(ParallelForStatus(
      &pool_, calls.size(), [&](std::size_t begin, std::size_t end) -> Status {
        for (std::size_t i = begin; i < end; ++i) {
          calls[i] =
              CallShard<T>(i, options, context, queries_per_call, invoke);
        }
        return Status::Ok();
      }));
  if (trace == nullptr) return calls;
  for (std::size_t i = 0; i < calls.size(); ++i) {
    const std::size_t span = trace->RecordSpan(
        "serve/shard/" + std::to_string(i), calls[i].seconds);
    trace->AddCount(span, "ok", calls[i].result.ok() ? 1 : 0);
    if (calls[i].hedged) trace->AddCount(span, "hedged", 1);
    if (calls[i].skipped) trace->AddCount(span, "skipped", 1);
    if (calls[i].retries > 0) {
      trace->AddCount(span, "retries", calls[i].retries);
    }
  }
  return calls;
}

template <typename T, typename Invoke>
ShardedEngine::Outcome<T> ShardedEngine::CallShard(
    std::size_t shard_index, const QueryOptions& options,
    const RequestContext& context, std::size_t queries_per_call,
    const Invoke& invoke) const {
  static Counter* const calls =
      MetricsRegistry::Global().GetCounter("serve.shard.calls");
  static Counter* const failed =
      MetricsRegistry::Global().GetCounter("serve.shard.failed");
  static Counter* const skipped =
      MetricsRegistry::Global().GetCounter("serve.shard.skipped");
  static Counter* const retried =
      MetricsRegistry::Global().GetCounter("serve.shard.retries");
  static Counter* const hedge_count =
      MetricsRegistry::Global().GetCounter("serve.shard.hedged");
  static Histogram* const call_seconds =
      MetricsRegistry::Global().GetHistogram("serve.shard.call_seconds");

  Shard& shard = *shards_[shard_index];
  Outcome<T> outcome;
  WallTimer timer;

  const Admission admission = Admit(shard);
  if (admission == Admission::kSkip) {
    skipped->Increment();
    outcome.skipped = true;
    outcome.result = Status::Unavailable(
        "shard " + std::to_string(shard_index) +
        " ejected by open circuit breaker");
    outcome.seconds = timer.Seconds();
    return outcome;
  }
  calls->Increment();

  // Shard calls never trace: the (single-writer) Trace belongs to the
  // coordinator, which records per-shard children post-gather. The
  // context is inherited (tenant, priority) with the deadline cut to
  // this shard's budget.
  QueryOptions shard_options = options;
  shard_options.trace = false;
  RequestContext shard_context = context;
  double budget = std::numeric_limits<double>::infinity();
  if (std::isfinite(context.deadline_seconds)) {
    budget = context.deadline_seconds * kShardBudgetFraction;
    shard_context.deadline_seconds = budget;
  }

  // Hedge prediction: regular serves only (a breaker probe must
  // exercise the primary path it is probing), only under a finite
  // budget, and never against an explicitly forced path.
  bool hedge = false;
  if (admission == Admission::kServe && options_.hedge &&
      std::isfinite(budget) && !options.force_algorithm.has_value()) {
    hedge = TrackedP99(shard) > kHedgeLatencyFactor * budget;
  }
  if (hedge) {
    outcome.hedged = true;
    hedge_count->Increment();
    shard_options.force_algorithm = QueryAlgo::kBruteForce;
  }

  const std::size_t max_attempts = hedge ? 1 : kMaxAttempts;
  Status error = Status::Ok();
  for (std::size_t attempt = 0; attempt < max_attempts; ++attempt) {
    if (attempt > 0) {
      const double backoff =
          kFirstBackoffSeconds *
          std::pow(kBackoffMultiplier, static_cast<double>(attempt - 1));
      // Never sleep past the shard's deadline budget.
      if (timer.Seconds() + backoff >= budget) break;
      SleepSeconds(backoff);
      ++outcome.retries;
      retried->Increment();
    }
    Status injected = Status::Ok();
    if (Failpoints::AnyArmed()) {
      injected = HitShardSite("serve/shard/query", shard_index);
      if (injected.ok() && !hedge) {
        // The injected straggler stalls the primary path only — the
        // hedge fallback is the detour around exactly this stall.
        const Status slow = HitShardSite("serve/shard/slow", shard_index);
        if (!slow.ok()) SleepSeconds(kChaosSlowSeconds);
      }
    }
    if (injected.ok()) {
      StatusOr<T> answer = invoke(*shard.engine, shard_options, shard_context);
      if (answer.ok()) {
        outcome.seconds = timer.Seconds();
        call_seconds->Observe(outcome.seconds);
        OnShardSuccess(shard,
                       outcome.seconds /
                           static_cast<double>(std::max<std::size_t>(
                               1, queries_per_call)),
                       hedge);
        outcome.result = std::move(answer);
        return outcome;
      }
      error = answer.status();
    } else {
      error = std::move(injected);
    }
    if (!IsRetryableShardStatus(error.code())) break;
  }
  OnShardFailure(shard);
  failed->Increment();
  outcome.seconds = timer.Seconds();
  call_seconds->Observe(outcome.seconds);
  outcome.result = std::move(error);
  return outcome;
}

ShardedEngine::Admission ShardedEngine::Admit(Shard& shard) const {
  MutexLock lock(shard.mutex);
  if (!shard.open) return Admission::kServe;
  if (!shard.probing && Clock::now() - shard.opened_at >= kBreakerOpen) {
    shard.probing = true;
    return Admission::kProbe;
  }
  return Admission::kSkip;
}

void ShardedEngine::OnShardSuccess(Shard& shard, double seconds_per_query,
                                   bool hedged) const {
  static Counter* const recoveries = MetricsRegistry::Global().GetCounter(
      "serve.shard.breaker.recoveries");
  bool recovered = false;
  {
    MutexLock lock(shard.mutex);
    recovered = shard.open;
    shard.open = false;
    shard.probing = false;
    shard.consecutive_failures = 0;
    // The hedge fallback's latency says nothing about the primary
    // path, so only primary successes feed the predictor.
    if (!hedged) shard.latency.Add(seconds_per_query);
  }
  // Outside the breaker lock on purpose: metrics tolerate a racing
  // reader, and the shard.mutex -> Counter::mutex_ order (header) stays
  // a declaration, not a hot-path dependency.
  if (recovered) recoveries->Increment();
}

void ShardedEngine::OnShardFailure(Shard& shard) const {
  static Counter* const trips =
      MetricsRegistry::Global().GetCounter("serve.shard.breaker.trips");
  bool tripped = false;
  {
    MutexLock lock(shard.mutex);
    shard.probing = false;
    ++shard.consecutive_failures;
    if (shard.open) {
      // A failed half-open probe restarts the cooldown.
      shard.opened_at = Clock::now();
    } else if (shard.consecutive_failures >= kBreakerFailureThreshold) {
      shard.open = true;
      shard.opened_at = Clock::now();
      tripped = true;
    }
  }
  if (tripped) trips->Increment();
}

double ShardedEngine::TrackedP99(const Shard& shard) const {
  // Copy under the lock, rank outside it.
  RollingP99<kLatencyWindow> window;
  {
    MutexLock lock(shard.mutex);
    window = shard.latency;
  }
  return window.count() < kHedgeMinSamples ? 0.0 : window.P99();
}

double ShardedEngine::OpenBreakerCount() const {
  double open = 0.0;
  for (const auto& shard : shards_) {
    MutexLock lock(shard->mutex);
    if (shard->open) open += 1.0;
  }
  return open;
}

}  // namespace ips
