// Copyright 2026 The ipsjoin Authors.
// Licensed under the Apache License, Version 2.0.
//
// Scatter-gather serving across S shards with failure isolation (see
// DESIGN.md §11). ShardedEngine partitions the dataset into contiguous
// row ranges, stands up one Engine per shard, fans Query/BatchQuery out
// over a private thread pool, and merges the per-shard top-k lists in
// RanksBefore order over *global* row indices, so a sharded answer
// equals the unsharded one, tie order included.
//
// The robustness layer is the point — one slow or failing shard must
// not take down the query:
//
//  * Per-shard deadline budgets: each shard call gets 0.9 of the
//    request's deadline; the retry loop never sleeps past its budget.
//  * Bounded retry with exponential backoff on *transient* failures:
//    3 attempts, sleeping 0.2 ms before the first retry and doubling
//    after. Only kUnavailable is retryable (IsRetryableShardStatus);
//    kResourceExhausted is deliberate shedding and is never retried.
//  * Hedged requests: every shard tracks a RollingP99 of its recent
//    primary-path latencies. When that p99 exceeds half the shard's
//    deadline budget, the coordinator skips the planner path and fires the
//    cheap fallback (a forced brute scan of the shard slice — fixed,
//    predictable cost, no index build or planner variance) and the
//    result is counted in the "serve.shard.hedged" label.
//  * Per-shard circuit breaker: 3 consecutive failed calls trip the
//    breaker and eject the shard from the scatter
//    set; after a 0.1 s cooldown one half-open probe is let through —
//    success closes the breaker, failure re-opens it.
//  * Graceful degradation: a query that loses shards still returns the
//    merged top-k of the survivors, flagged QueryResult::partial with
//    "serve.shard.{total,ok,failed,hedged}" labels in its stats metrics
//    (ok + failed == total). Only when *every* shard fails does Query
//    return a Status.
//
// Observability: "serve.shard.*" registry metrics, and (with
// options.trace) one child span per shard under the
// "serve/sharded_query" root, annotated with ok/hedged/retries.
//
// Failpoints: "serve/shard/build" (Create), "serve/shard/query"
// (shard call, fails it), "serve/shard/slow" (shard call, stalls it
// 0.02 s — a simulated straggler). Each also has a per-shard variant
// "<site>/<shard index>" so chaos tests can target one shard
// deterministically.

#ifndef IPS_SERVE_SHARDED_ENGINE_H_
#define IPS_SERVE_SHARDED_ENGINE_H_

#include <chrono>
#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/query.h"
#include "linalg/matrix.h"
#include "serve/engine.h"
#include "serve/query_engine.h"
#include "serve/request.h"
#include "util/stats.h"
#include "util/status.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"

namespace ips {

/// True for status codes a shard call may retry (transient transport /
/// shard faults). kResourceExhausted is deliberate shedding and
/// kDeadlineExceeded is already late — neither is retried.
bool IsRetryableShardStatus(StatusCode code);

/// ShardedEngine construction knobs. The fan-out pool has one thread
/// per shard.
struct ShardedEngineOptions {
  /// Shards the dataset is partitioned into (1 <= S <= rows).
  std::size_t num_shards = 4;
  /// Per-shard engine knobs; each shard's seed is offset by its index.
  EngineOptions engine;
  /// Straggler hedging: predict a deadline-budget miss from tracked
  /// latency and answer through the cheap fallback instead.
  bool hedge = true;
};

/// Scatter-gather engine over S shard Engines. Create once, serve
/// concurrently (Query/BatchQuery are thread-safe).
class ShardedEngine : public QueryEngine {
 public:
  enum class BreakerState { kClosed, kOpen, kHalfOpen };

  /// Validates the options, partitions `data` into contiguous balanced
  /// row ranges, and builds one calibrated Engine per shard.
  /// Failpoint: "serve/shard/build" (and "serve/shard/build/<i>").
  [[nodiscard]] static StatusOr<std::unique_ptr<ShardedEngine>> Create(
      Matrix data, ShardedEngineOptions options = {});

  /// Persists the shard manifest (`<dir>/sharded.ips`: shard count,
  /// dimension, partition offsets) and every shard engine's own
  /// snapshot (`<dir>/shard_<i>/snapshot.ips`). Each file is written
  /// atomically; the manifest is written last, so a crash mid-save
  /// leaves any previous complete snapshot loadable.
  [[nodiscard]] Status SaveSnapshot(const std::string& dir) const;

  /// Warm start from a SaveSnapshot directory. The partition geometry
  /// and per-shard engine configuration come from the snapshot
  /// (`options.num_shards` and `options.engine` are ignored); whether
  /// to hedge comes from `options`, so a reload can change how the
  /// shards are driven without rebuilding them.
  [[nodiscard]] static StatusOr<std::unique_ptr<ShardedEngine>>
  CreateFromSnapshot(const std::string& dir,
                     ShardedEngineOptions options = {},
                     const SnapshotLoadOptions& load = {});

  /// Scatter-gather top-k: fans the request to every shard whose
  /// breaker admits it, merges the surviving shards' answers
  /// deterministically, and degrades gracefully (partial = true) when
  /// shards are lost. Fails only when every shard fails. Each shard
  /// call inherits request.context with its deadline scaled to
  /// `deadline * 0.9`.
  [[nodiscard]] StatusOr<QueryResult> Query(
      const Request& request) const override;

  /// Batched scatter-gather: every shard answers the whole query
  /// matrix over its slice; per-query merge identical to Query. A lost
  /// shard marks every member partial.
  [[nodiscard]] StatusOr<std::vector<QueryResult>> BatchQuery(
      const Matrix& queries, const QueryOptions& options,
      const RequestContext& context) const override;

  /// Eagerly builds `algo`'s index on every shard.
  [[nodiscard]] Status EnsureIndex(QueryAlgo algo) const;

  std::size_t dim() const override { return dim_; }
  std::size_t num_shards() const { return shards_.size(); }
  /// Global index of shard i's local row 0 (contiguous partition).
  std::size_t shard_offset(std::size_t i) const;
  const Engine& shard(std::size_t i) const;
  const ShardedEngineOptions& options() const { return options_; }
  /// Breaker state of shard i (tests, dashboards).
  BreakerState breaker_state(std::size_t i) const;

 private:
  using Clock = std::chrono::steady_clock;

  static constexpr std::size_t kLatencyWindow = 64;

  struct Shard {
    std::unique_ptr<Engine> engine;
    std::size_t offset = 0;

    // OnShardSuccess/OnShardFailure release it *before* bumping breaker
    // counters (metrics are not latency-critical), but the declared
    // order keeps a future under-lock increment from deadlocking
    // against a metric export.
    mutable Mutex mutex IPS_ACQUIRED_BEFORE(Counter::mutex_);
    // Circuit breaker (consecutive-failure trip, half-open probe).
    std::size_t consecutive_failures IPS_GUARDED_BY(mutex) = 0;
    bool open IPS_GUARDED_BY(mutex) = false;
    bool probing IPS_GUARDED_BY(mutex) = false;
    Clock::time_point opened_at IPS_GUARDED_BY(mutex);
    // Recent primary-path latencies (seconds per query) the hedge
    // predictor reads its p99 from.
    RollingP99<kLatencyWindow> latency IPS_GUARDED_BY(mutex);
  };

  /// How the breaker admitted a shard call.
  enum class Admission { kServe, kProbe, kSkip };

  /// Outcome of one budgeted shard call (single query or whole batch).
  template <typename T>
  struct Outcome {
    StatusOr<T> result = Status::Internal("shard call never ran");
    bool hedged = false;
    bool skipped = false;
    std::size_t retries = 0;
    double seconds = 0.0;
  };

  ShardedEngine(ShardedEngineOptions options, std::size_t dim);

  /// Policy-option validation shared by Create and CreateFromSnapshot
  /// (everything except the data-dependent shard-count bound).
  static Status ValidateOptions(const ShardedEngineOptions& options);

  /// The budgeted, instrumented shard-call helper — the only code that
  /// talks to a shard Engine (enforced by the ipslint rule
  /// "shard-call"). Applies breaker admission, hedge prediction, chaos
  /// failpoints, retry-with-backoff, and latency tracking.
  Outcome<QueryResult> CallShard(std::size_t shard_index,
                                 std::span<const double> query,
                                 const QueryOptions& options,
                                 const RequestContext& context) const;
  Outcome<std::vector<QueryResult>> CallShardBatch(
      std::size_t shard_index, const Matrix& queries,
      const QueryOptions& options, const RequestContext& context) const;

  /// Shared scaffolding of the two CallShard flavors: admission,
  /// hedging, chaos, retries around `invoke(shard_options,
  /// shard_context)` — the shard context is the request's with its
  /// deadline cut to the per-shard budget. `queries_per_call` amortizes
  /// the call's wall time into the per-query latency samples the hedge
  /// predictor tracks.
  template <typename T, typename Invoke>
  Outcome<T> CallShardImpl(std::size_t shard_index,
                           const QueryOptions& options,
                           const RequestContext& context,
                           std::size_t queries_per_call,
                           const Invoke& invoke) const;

  Admission Admit(Shard& shard) const IPS_EXCLUDES(shard.mutex);
  void OnShardSuccess(Shard& shard, double seconds_per_query,
                      bool hedged) const IPS_EXCLUDES(shard.mutex);
  void OnShardFailure(Shard& shard) const IPS_EXCLUDES(shard.mutex);
  /// Tracked p99 of the shard's primary-path latency window, or 0 with
  /// fewer than 8 samples.
  double TrackedP99(const Shard& shard) const IPS_EXCLUDES(shard.mutex);
  /// Count of currently-open breakers (mirrors the
  /// "serve.shard.open_breakers" gauge).
  double OpenBreakerCount() const;

  ShardedEngineOptions options_;
  std::size_t dim_;
  std::vector<std::unique_ptr<Shard>> shards_;
  mutable ThreadPool pool_;
};

}  // namespace ips

#endif  // IPS_SERVE_SHARDED_ENGINE_H_
