#include "serve/sharded_engine.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <thread>
#include <utility>

#include "linalg/validate.h"
#include "obs/metrics.h"
#include "obs/trace.h"
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

// One shard's contribution to one logical query during the gather.
struct ShardAnswer {
  const QueryResult* result = nullptr;  // null when the shard was lost
  const Status* error = nullptr;        // set when the shard was lost
  bool hedged = false;
};

// Merges one logical query's per-shard answers in RanksBefore order
// over *global* row indices, sets the
// serve.shard.{total,ok,failed,hedged} labels, and flags the result
// partial when shards were lost. Fails only when every
// shard failed: a uniform failure keeps its Status, mixed failures
// collapse to a kUnavailable summary.
StatusOr<QueryResult> MergeShardAnswers(
    const std::vector<ShardAnswer>& answers,
    const std::vector<std::size_t>& offsets, std::size_t k,
    std::size_t retries_total) {
  QueryResult merged;
  std::vector<SearchMatch> pool;
  std::vector<const Status*> errors;
  std::size_t ok = 0;
  std::size_t hedged = 0;
  for (std::size_t i = 0; i < answers.size(); ++i) {
    const ShardAnswer& answer = answers[i];
    if (answer.result == nullptr) {
      errors.push_back(answer.error);
      continue;
    }
    if (answer.hedged) ++hedged;
    if (ok == 0) {
      merged.stats.algorithm = answer.result->stats.algorithm;
      merged.plan = answer.result->plan;
    }
    ++ok;
    for (const SearchMatch& match : answer.result->matches) {
      pool.push_back({match.index + offsets[i], match.value});
    }
    merged.stats.candidates += answer.result->stats.candidates;
    merged.stats.dot_products += answer.result->stats.dot_products;
    for (const auto& [key, value] : answer.result->stats.metrics.items()) {
      merged.stats.metrics.Add(key, value);
    }
  }
  if (ok == 0) {
    bool uniform = true;
    for (const Status* error : errors) {
      if (error->code() != errors.front()->code()) uniform = false;
    }
    if (uniform) return *errors.front();
    return Status::Unavailable("all " + std::to_string(answers.size()) +
                               " shards failed; first: " +
                               errors.front()->ToString());
  }
  std::sort(pool.begin(), pool.end(), RanksBefore);
  if (pool.size() > k) pool.resize(k);
  merged.matches = std::move(pool);
  merged.stats.metrics.Set("serve.shard.total", answers.size());
  merged.stats.metrics.Set("serve.shard.ok", ok);
  merged.stats.metrics.Set("serve.shard.failed", answers.size() - ok);
  merged.stats.metrics.Set("serve.shard.hedged", hedged);
  merged.partial = ok < answers.size();
  if (retries_total > 0) {
    merged.stats.metrics.Add("serve.shard.retries", retries_total);
  }
  return merged;
}

// Post-gather trace children: shard calls run concurrently, so they
// cannot write the (single-writer) Trace; the coordinator records one
// already-measured child per shard while the root span is still open.
template <typename Outcome>
void RecordShardSpans(Trace* trace, const std::vector<Outcome>& calls) {
  if (trace == nullptr) return;
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
  static Counter* const requests =
      MetricsRegistry::Global().GetCounter("serve.shard.queries");
  static Counter* const partial_count =
      MetricsRegistry::Global().GetCounter("serve.shard.partial");
  static Counter* const traced =
      MetricsRegistry::Global().GetCounter("serve.shard.traced");
  static Histogram* const exec_seconds =
      MetricsRegistry::Global().GetHistogram("serve.shard.exec_seconds");
  static Gauge* const open_breakers =
      MetricsRegistry::Global().GetGauge("serve.shard.open_breakers");

  const std::span<const double> query = request.query;
  const QueryOptions& options = request.options;
  IPS_RETURN_IF_ERROR(ValidateQueryOptions(options));
  IPS_RETURN_IF_ERROR(ValidateRequestContext(request.context));
  IPS_RETURN_IF_ERROR(ValidateVectorDims(query, dim_, "sharded query"));
  IPS_RETURN_IF_ERROR(ValidateVectorFinite(query, "sharded query"));
  requests->Increment();

  std::unique_ptr<Trace> trace;
  if (options.trace) trace = std::make_unique<Trace>("serve.sharded");

  WallTimer timer;
  const std::size_t num = shards_.size();
  StatusOr<QueryResult> outcome = [&]() -> StatusOr<QueryResult> {
    TraceSpan root(trace.get(), "serve/sharded_query");
    std::vector<Outcome<QueryResult>> calls(num);
    IPS_RETURN_IF_ERROR(ParallelForStatus(
        &pool_, num, [&](std::size_t begin, std::size_t end) -> Status {
          for (std::size_t i = begin; i < end; ++i) {
            calls[i] = CallShard(i, query, options, request.context);
          }
          return Status::Ok();
        }));
    RecordShardSpans(trace.get(), calls);

    std::vector<ShardAnswer> answers(num);
    std::vector<std::size_t> offsets(num);
    std::size_t retries_total = 0;
    for (std::size_t i = 0; i < num; ++i) {
      offsets[i] = shards_[i]->offset;
      retries_total += calls[i].retries;
      if (calls[i].result.ok()) {
        answers[i].result = &calls[i].result.value();
        answers[i].hedged = calls[i].hedged;
      } else {
        answers[i].error = &calls[i].result.status();
      }
    }
    return MergeShardAnswers(answers, offsets, options.k, retries_total);
  }();
  open_breakers->Set(OpenBreakerCount());
  IPS_RETURN_IF_ERROR(outcome.status());
  QueryResult result = std::move(outcome).value();
  result.stats.exec_seconds = timer.Seconds();
  result.stats.deadline_met =
      result.stats.exec_seconds <= request.context.deadline_seconds;
  exec_seconds->Observe(result.stats.exec_seconds);
  if (result.partial) partial_count->Increment();
  if (trace != nullptr) {
    traced->Increment();
    std::shared_ptr<const Trace> shared(std::move(trace));
    TraceRing::Global().Record(shared);
    result.stats.trace = std::move(shared);
  }
  return result;
}

StatusOr<std::vector<QueryResult>> ShardedEngine::BatchQuery(
    const Matrix& queries, const QueryOptions& options,
    const RequestContext& context) const {
  static Counter* const batch_requests =
      MetricsRegistry::Global().GetCounter("serve.shard.batch.requests");
  static Counter* const batch_queries =
      MetricsRegistry::Global().GetCounter("serve.shard.batch.queries");
  static Counter* const partial_count =
      MetricsRegistry::Global().GetCounter("serve.shard.partial");
  static Counter* const traced =
      MetricsRegistry::Global().GetCounter("serve.shard.traced");
  static Histogram* const batch_exec = MetricsRegistry::Global().GetHistogram(
      "serve.shard.batch.exec_seconds");
  static Gauge* const open_breakers =
      MetricsRegistry::Global().GetGauge("serve.shard.open_breakers");

  IPS_RETURN_IF_ERROR(ValidateQueryOptions(options));
  IPS_RETURN_IF_ERROR(ValidateRequestContext(context));
  const std::size_t m = queries.rows();
  if (m == 0) return std::vector<QueryResult>();
  IPS_RETURN_IF_ERROR(
      ValidateDims(queries, dim_, "sharded batch queries"));
  IPS_RETURN_IF_ERROR(ValidateFinite(queries, "sharded batch queries"));
  batch_requests->Increment();
  batch_queries->Add(m);

  std::unique_ptr<Trace> trace;
  if (options.trace) trace = std::make_unique<Trace>("serve.sharded.batch");

  WallTimer timer;
  const std::size_t num = shards_.size();
  StatusOr<std::vector<QueryResult>> outcome =
      [&]() -> StatusOr<std::vector<QueryResult>> {
    TraceSpan root(trace.get(), "serve/sharded_batch_query");
    root.AddCount("batch_queries", m);
    std::vector<Outcome<std::vector<QueryResult>>> calls(num);
    IPS_RETURN_IF_ERROR(ParallelForStatus(
        &pool_, num, [&](std::size_t begin, std::size_t end) -> Status {
          for (std::size_t i = begin; i < end; ++i) {
            calls[i] = CallShardBatch(i, queries, options, context);
          }
          return Status::Ok();
        }));
    RecordShardSpans(trace.get(), calls);

    // A shard that answered with the wrong member count is a broken
    // Engine contract (results come back in row order); treat it as a
    // lost shard rather than misaligning the gather.
    std::vector<Status> degraded(num, Status::Ok());
    std::size_t retries_total = 0;
    std::vector<std::size_t> offsets(num);
    for (std::size_t i = 0; i < num; ++i) {
      offsets[i] = shards_[i]->offset;
      retries_total += calls[i].retries;
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
      std::vector<ShardAnswer> answers(num);
      for (std::size_t i = 0; i < num; ++i) {
        if (!calls[i].result.ok()) {
          answers[i].error = &calls[i].result.status();
        } else if (!degraded[i].ok()) {
          answers[i].error = &degraded[i];
        } else {
          answers[i].result = &calls[i].result.value()[q];
          answers[i].hedged = calls[i].hedged;
        }
      }
      // The batch's retry total is a call-level fact; it is attached to
      // the first member only so Merge()-ing the batch's stats counts
      // each retry once.
      auto one = MergeShardAnswers(answers, offsets, options.k,
                                   q == 0 ? retries_total : 0);
      IPS_RETURN_IF_ERROR(one.status());
      merged.push_back(std::move(one).value());
    }
    return merged;
  }();
  open_breakers->Set(OpenBreakerCount());
  IPS_RETURN_IF_ERROR(outcome.status());
  std::vector<QueryResult> results = std::move(outcome).value();
  const double total_seconds = timer.Seconds();
  const double amortized = total_seconds / static_cast<double>(m);
  std::size_t partial_members = 0;
  for (QueryResult& result : results) {
    result.stats.exec_seconds = amortized;
    result.stats.deadline_met = amortized <= context.deadline_seconds;
    if (result.partial) ++partial_members;
  }
  if (partial_members > 0) partial_count->Add(partial_members);
  batch_exec->Observe(total_seconds);
  if (trace != nullptr) {
    traced->Increment();
    TraceRing::Global().Record(
        std::shared_ptr<const Trace>(std::move(trace)));
  }
  return results;
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

ShardedEngine::Outcome<QueryResult> ShardedEngine::CallShard(
    std::size_t shard_index, std::span<const double> query,
    const QueryOptions& options, const RequestContext& context) const {
  const Engine& engine = *shards_[shard_index]->engine;
  return CallShardImpl<QueryResult>(
      shard_index, options, context, /*queries_per_call=*/1,
      [&](const QueryOptions& shard_options,
          const RequestContext& shard_context) {
        return engine.Query(  // ipslint:allow(shard-call)
            Request{query, shard_options, shard_context});
      });
}

ShardedEngine::Outcome<std::vector<QueryResult>> ShardedEngine::CallShardBatch(
    std::size_t shard_index, const Matrix& queries,
    const QueryOptions& options, const RequestContext& context) const {
  const Engine& engine = *shards_[shard_index]->engine;
  return CallShardImpl<std::vector<QueryResult>>(
      shard_index, options, context, /*queries_per_call=*/queries.rows(),
      [&](const QueryOptions& shard_options,
          const RequestContext& shard_context) {
        return engine.BatchQuery(  // ipslint:allow(shard-call)
            queries, shard_options, shard_context);
      });
}

template <typename T, typename Invoke>
ShardedEngine::Outcome<T> ShardedEngine::CallShardImpl(
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
      StatusOr<T> answer = invoke(shard_options, shard_context);
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
