// Copyright 2026 The ipsjoin Authors.
// Licensed under the Apache License, Version 2.0.
//
// Deadline-aware, QoS-enforcing batch scheduling on top of ThreadPool:
// concurrent serve Requests are admitted through per-tenant token
// buckets and priority-aware admission control, queued into weighted
// priority lanes, coalesced into batches by a dispatcher thread, and
// fanned out over the pool with the cancellable ParallelForStatus — so
// one injected or internal failure cancels the rest of the batch and
// every queued request still gets an answer (a Status, never silence).
//
// Admission and deadline semantics (DESIGN.md §14):
//  * Per-tenant token buckets: a tenant with a quota spends one token
//    per submission; an empty bucket sheds THAT tenant's request with
//    kResourceExhausted while other tenants are untouched — a 10x
//    overload from one tenant cannot queue ahead of anyone else.
//  * Priority lanes: requests queue into one lane per RequestPriority.
//    The dispatcher fills each batch highest-priority first, each lane
//    capped at its weight's share of max_batch (batch 1, standard 4,
//    interactive 16 of 21; slots a lane leaves unused fall through to
//    lower lanes), so interactive traffic overtakes batch traffic that
//    arrived earlier.
//  * Admission control sheds low-priority load BEFORE deadlines blow:
//    from half of max_queue on, kBatch submissions are shed; from 0.85
//    of it, kStandard too. kInteractive is only shed by a completely
//    full queue.
//  * Shedding is deliberate back-pressure, NOT a transient fault:
//    kResourceExhausted from this scheduler must not be retried
//    blindly (retrying amplifies the overload that caused it).
//    Transient shard/transport faults use kUnavailable, the one code
//    the sharded retry policy (serve/sharded_engine.h) classifies as
//    retryable.
//  * A request whose deadline (context.deadline_seconds, relative to
//    submission) has passed before execution starts fails with
//    kDeadlineExceeded without burning engine work.
//  * A request that starts in time but finishes late still returns its
//    answer, flagged with stats.deadline_met = false.
//  * Shutdown fails all still-queued requests with kResourceExhausted;
//    no future is ever abandoned.
//
// Every submission lands in exactly one of {shed, expired, completed},
// so shed + expired + completed == submitted at any quiescent point
// (after Drain, or destruction) — globally AND per tenant. The global
// counters are mirrored into the MetricsRegistry as "serve.scheduler.*"
// (live queue depth on "serve.scheduler.queue_depth"); per-tenant
// counters as "serve.qos.<tenant>.{submitted,admitted,shed,expired,
// completed}" with the rolling p99 latency (seconds) on the
// "serve.qos.<tenant>.p99" gauge.
//
// Failpoints: "serve/schedule" (before admission; an injected failure
// answers the promise without touching counters), "serve/qos/admit"
// (inside admission, after the submission is counted; an injected
// failure is accounted as a shed — the partition invariant holds under
// chaos), "serve/deadline" (batch execution; firing cancels the
// batch's remaining chunks).

#ifndef IPS_SERVE_BATCH_SCHEDULER_H_
#define IPS_SERVE_BATCH_SCHEDULER_H_

#include <array>
#include <chrono>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "serve/query_engine.h"
#include "serve/request.h"
#include "util/status.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"

namespace ips {

/// Per-tenant rate limit. The bucket starts full (at `burst`), refills
/// continuously at tokens_per_second, and each submission spends one
/// token; an empty bucket sheds the submission.
struct TenantQuota {
  /// Sustained admission rate; 0 = unlimited (no bucket).
  double tokens_per_second = 0.0;
  /// Bucket capacity — the burst a tenant may submit instantaneously.
  /// 0 picks tokens_per_second (one second of burst).
  double burst = 0.0;
};

/// Scheduler tuning.
struct BatchSchedulerOptions {
  /// Worker threads executing batches (0 = inline execution).
  std::size_t num_threads = ThreadPool::DefaultThreadCount();
  /// Submissions beyond this total queue depth (all lanes) are shed
  /// with kResourceExhausted.
  std::size_t max_queue = 1024;
  /// Requests coalesced into one batch (one ParallelForStatus fan-out).
  std::size_t max_batch = 64;
  /// Per-tenant token buckets, keyed by tenant id ("" = "default"). A
  /// tenant without an entry is unlimited.
  std::map<std::string, TenantQuota> tenant_quotas;
};

/// Monotonic counters of a scheduler's lifetime (snapshot). Partition
/// invariant: every submitted request ends up in exactly one of
/// shed / expired / completed.
struct SchedulerCounters {
  std::size_t submitted = 0;
  /// Answered through batch execution (a response, an engine error, or
  /// a batch cancellation) — not shed, not expired.
  std::size_t completed = 0;
  /// Rejected without execution: queue full, admission control, an
  /// empty token bucket, or scheduler shutdown.
  std::size_t shed = 0;
  /// Deadline passed before execution started.
  std::size_t expired = 0;
  std::size_t batches = 0;
  std::size_t max_queue_depth = 0;
  /// Engine::BatchQuery calls issued (groups of >= 2 compatible
  /// requests executed as one batch).
  std::size_t batch_groups = 0;
  /// Requests answered through those batched calls (subset of
  /// completed).
  std::size_t batched_queries = 0;
};

/// One tenant's slice of the lifetime counters (same partition
/// invariant as SchedulerCounters, per tenant), plus its rolling
/// latency percentile.
struct TenantCounters {
  std::size_t submitted = 0;
  std::size_t completed = 0;
  std::size_t shed = 0;
  std::size_t expired = 0;
  /// p99 of end-to-end latency (submit -> answer, seconds) over the
  /// tenant's most recent completions (bounded window); 0 before the
  /// first completion.
  double p99_seconds = 0.0;
};

/// Coalescing QoS scheduler over one QueryEngine (a single-node Engine
/// or a ShardedEngine). Thread-safe.
class BatchScheduler {
 public:
  using Result = StatusOr<QueryResult>;

  /// `engine` must outlive the scheduler.
  BatchScheduler(const QueryEngine* engine,
                 BatchSchedulerOptions options = {});

  /// Fails every still-queued request, then joins the workers.
  ~BatchScheduler();

  BatchScheduler(const BatchScheduler&) = delete;
  BatchScheduler& operator=(const BatchScheduler&) = delete;

  /// Enqueues one request. request.query is copied into owned storage
  /// before Submit returns; context.deadline_seconds is the relative
  /// deadline (infinity = none). The returned future always becomes
  /// ready: with the response, or with the Status of shedding / expiry /
  /// cancellation / engine failure. Discarding the future leaks the
  /// request's outcome, hence [[nodiscard]].
  [[nodiscard]] std::future<Result> Submit(const Request& request)
      IPS_EXCLUDES(mutex_);

  /// Blocks until every submitted request has been answered.
  void Drain() IPS_EXCLUDES(mutex_);

  /// Holds dispatch (submissions still enqueue) until Resume. Tests use
  /// the pair to observe lane ordering deterministically.
  void Pause() IPS_EXCLUDES(mutex_);
  void Resume() IPS_EXCLUDES(mutex_);

  SchedulerCounters counters() const IPS_EXCLUDES(mutex_);

  /// Counters of one tenant ("" = "default"); zeros for a tenant never
  /// seen.
  TenantCounters tenant_counters(const std::string& tenant_id) const
      IPS_EXCLUDES(mutex_);
  /// Every tenant that has submitted at least once.
  std::vector<std::string> tenants() const IPS_EXCLUDES(mutex_);

 private:
  struct Pending {
    std::vector<double> query;
    QueryOptions options;
    RequestContext context;
    std::chrono::steady_clock::time_point deadline;
    std::chrono::steady_clock::time_point submitted_at;
    bool has_deadline = false;
    std::promise<Result> promise;
  };

  /// Token bucket + counters + latency window of one tenant, created on
  /// first submission. Latency samples feed the p99 the registry gauge
  /// "serve.qos.<tenant>.p99" mirrors.
  struct TenantState;

  void DispatchLoop() IPS_EXCLUDES(mutex_);
  void RunBatch(std::vector<Pending> batch) IPS_EXCLUDES(mutex_);

  /// The tenant's state, created on first touch (registry counters are
  /// resolved once here, so the hot path never builds metric names).
  TenantState& Tenant(const RequestContext& context) IPS_REQUIRES(mutex_);

  /// Spends one token from the tenant's bucket (refilled by wall
  /// clock); false = empty bucket, shed.
  bool SpendToken(TenantState& tenant) IPS_REQUIRES(mutex_);

  /// Priority-aware fill-level admission: false when the queue is too
  /// full for this lane.
  bool AdmitFill(RequestPriority priority) const IPS_REQUIRES(mutex_);

  /// Takes up to max_batch requests off the lanes by weight,
  /// highest-priority first.
  std::vector<Pending> TakeBatch() IPS_REQUIRES(mutex_);

  std::size_t QueuedTotal() const IPS_REQUIRES(mutex_);

  /// Partitions batch indices into groups whose members can share one
  /// Engine::BatchQuery call; incompatible or wrong-dimension requests
  /// become singleton groups on the per-query path.
  std::vector<std::vector<std::size_t>> GroupCompatible(
      const std::vector<Pending>& batch) const;

  const QueryEngine* engine_;
  BatchSchedulerOptions options_;
  ThreadPool pool_;

  // Submit/RunBatch bump serve metrics while holding it (a Counter's
  // first touch per thread takes Counter::mutex_ inside Add), so the
  // scheduler lock is ordered before the metric lock.
  mutable Mutex mutex_ IPS_ACQUIRED_BEFORE(Counter::mutex_);
  CondVar work_available_;
  CondVar queue_drained_;
  /// One FIFO lane per RequestPriority, indexed by its integer value.
  std::array<std::deque<Pending>, kNumRequestPriorities> lanes_
      IPS_GUARDED_BY(mutex_);
  SchedulerCounters counters_ IPS_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<TenantState>, std::less<>> tenants_
      IPS_GUARDED_BY(mutex_);
  std::size_t in_flight_ IPS_GUARDED_BY(mutex_) = 0;
  bool shutting_down_ IPS_GUARDED_BY(mutex_) = false;
  bool paused_ IPS_GUARDED_BY(mutex_) = false;
  // The one deliberate thread outside util::ThreadPool: the dispatcher
  // must block on the queue while the pool executes batches.
  std::thread dispatcher_;  // ipslint:allow(naked-thread)
};

}  // namespace ips

#endif  // IPS_SERVE_BATCH_SCHEDULER_H_
