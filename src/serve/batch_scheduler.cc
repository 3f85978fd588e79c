#include "serve/batch_scheduler.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <string_view>
#include <utility>

#include "obs/metrics.h"
#include "util/failpoint.h"
#include "util/stats.h"

namespace ips {

namespace {

using Clock = std::chrono::steady_clock;

// Completions per tenant whose latency feeds the rolling p99.
constexpr std::size_t kTenantLatencyWindow = 128;

// Dispatch slots per lane per batch, indexed by RequestPriority: each
// lane is capped at weight/total of max_batch.
constexpr std::array<std::size_t, kNumRequestPriorities> kLaneWeights = {
    1, 4, 16};
constexpr std::size_t kTotalLaneWeight =
    kLaneWeights[0] + kLaneWeights[1] + kLaneWeights[2];
// Queue-fill fractions from which kBatch and kStandard submissions are
// shed.
constexpr double kBatchShedFill = 0.5;
constexpr double kStandardShedFill = 0.85;

Clock::duration SecondsToDuration(double seconds) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds));
}

// Registry mirror of SchedulerCounters plus the live queue depth.
struct SchedulerMetrics {
  Counter* submitted;
  Counter* completed;
  Counter* shed;
  Counter* expired;
  Counter* batches;
  Counter* batch_groups;
  Counter* batched_queries;
  Gauge* queue_depth;

  static const SchedulerMetrics& Get() {
    static const SchedulerMetrics metrics = {
        MetricsRegistry::Global().GetCounter("serve.scheduler.submitted"),
        MetricsRegistry::Global().GetCounter("serve.scheduler.completed"),
        MetricsRegistry::Global().GetCounter("serve.scheduler.shed"),
        MetricsRegistry::Global().GetCounter("serve.scheduler.expired"),
        MetricsRegistry::Global().GetCounter("serve.scheduler.batches"),
        MetricsRegistry::Global().GetCounter("serve.scheduler.batch_groups"),
        MetricsRegistry::Global().GetCounter(
            "serve.scheduler.batched_queries"),
        MetricsRegistry::Global().GetGauge("serve.scheduler.queue_depth")};
    return metrics;
  }
};

// Members sharing one Engine::BatchQuery call must agree on everything
// the engine plans and executes from; the RequestContext stays
// per-member (each deadline is judged from its own wall clock below).
bool CompatibleOptions(const QueryOptions& a, const QueryOptions& b) {
  return a.k == b.k && a.recall_target == b.recall_target &&
         a.candidate_budget == b.candidate_budget &&
         a.is_signed == b.is_signed && a.trace == b.trace &&
         a.precision == b.precision &&
         a.force_algorithm == b.force_algorithm;
}

}  // namespace

// Token bucket, counter slice, and latency window of one tenant. Metric
// handles are resolved once at creation so the admission path never
// concatenates metric names.
struct BatchScheduler::TenantState {
  TenantQuota quota;
  double tokens = 0.0;
  Clock::time_point last_refill;

  TenantCounters counters;  // p99_seconds filled from the window on read

  RollingP99<kTenantLatencyWindow> latency;

  Counter* m_submitted;
  Counter* m_admitted;
  Counter* m_shed;
  Counter* m_expired;
  Counter* m_completed;
  Gauge* m_p99;
};

BatchScheduler::BatchScheduler(const QueryEngine* engine,
                               BatchSchedulerOptions options)
    : engine_(engine),
      options_(options),
      pool_(options.num_threads) {
  // Construction-time preconditions, not a query path.
  IPS_CHECK(engine_ != nullptr);           // ipslint:allow(check-in-query)
  IPS_CHECK_GE(options_.max_batch, 1u);    // ipslint:allow(check-in-query)
  IPS_CHECK_GE(options_.max_queue, 1u);    // ipslint:allow(check-in-query)
  // The dispatcher must outlive pool shutdown ordering and joins in the
  // destructor, so it cannot live in the ThreadPool it feeds.
  dispatcher_ = std::thread([this] { DispatchLoop(); });  // ipslint:allow(naked-thread)
}

BatchScheduler::~BatchScheduler() {
  {
    MutexLock lock(mutex_);
    shutting_down_ = true;
  }
  work_available_.NotifyAll();
  dispatcher_.join();
}

BatchScheduler::TenantState& BatchScheduler::Tenant(
    const RequestContext& context) {
  const std::string_view id = RequestTenant(context);
  auto it = tenants_.find(id);
  if (it != tenants_.end()) return *it->second;

  auto state = std::make_unique<TenantState>();
  auto quota_it = options_.tenant_quotas.find(std::string(id));
  if (quota_it != options_.tenant_quotas.end()) {
    state->quota = quota_it->second;
  }
  if (state->quota.burst <= 0.0) {
    state->quota.burst = state->quota.tokens_per_second;
  }
  state->tokens = state->quota.burst;  // bucket starts full
  state->last_refill = Clock::now();
  const std::string prefix = "serve.qos." + std::string(id) + ".";
  MetricsRegistry& registry = MetricsRegistry::Global();
  state->m_submitted = registry.GetCounter(prefix + "submitted");
  state->m_admitted = registry.GetCounter(prefix + "admitted");
  state->m_shed = registry.GetCounter(prefix + "shed");
  state->m_expired = registry.GetCounter(prefix + "expired");
  state->m_completed = registry.GetCounter(prefix + "completed");
  state->m_p99 = registry.GetGauge(prefix + "p99");
  it = tenants_.emplace(std::string(id), std::move(state)).first;
  return *it->second;
}

bool BatchScheduler::SpendToken(TenantState& tenant) {
  if (tenant.quota.tokens_per_second <= 0.0) return true;  // unlimited
  const Clock::time_point now = Clock::now();
  const double elapsed =
      std::chrono::duration<double>(now - tenant.last_refill).count();
  tenant.last_refill = now;
  tenant.tokens = std::min(
      tenant.quota.burst,
      tenant.tokens + elapsed * tenant.quota.tokens_per_second);
  if (tenant.tokens < 1.0) return false;
  tenant.tokens -= 1.0;
  return true;
}

std::size_t BatchScheduler::QueuedTotal() const {
  std::size_t total = 0;
  for (const auto& lane : lanes_) total += lane.size();
  return total;
}

bool BatchScheduler::AdmitFill(RequestPriority priority) const {
  const std::size_t queued = QueuedTotal();
  if (queued >= options_.max_queue) return false;  // full: everyone sheds
  const double fill =
      static_cast<double>(queued) / static_cast<double>(options_.max_queue);
  switch (priority) {
    case RequestPriority::kBatch:
      return fill < kBatchShedFill;
    case RequestPriority::kStandard:
      return fill < kStandardShedFill;
    case RequestPriority::kInteractive:
      return true;
  }
  return true;
}

std::future<BatchScheduler::Result> BatchScheduler::Submit(
    const Request& request) {
  const SchedulerMetrics& metrics = SchedulerMetrics::Get();
  std::promise<Result> promise;
  std::future<Result> future = promise.get_future();

  // Scheduling failpoint: an injected failure here answers the request
  // before it is ever accounted (chaos for the submission transport).
  if (Failpoints::AnyArmed()) {
    const Status injected = Failpoints::Hit("serve/schedule");
    if (!injected.ok()) {
      promise.set_value(injected);
      return future;
    }
  }
  const Status context_status = ValidateRequestContext(request.context);
  if (!context_status.ok()) {
    promise.set_value(context_status);
    return future;
  }

  Pending pending;
  pending.query.assign(request.query.begin(), request.query.end());
  pending.submitted_at = Clock::now();
  pending.has_deadline = std::isfinite(request.context.deadline_seconds);
  if (pending.has_deadline) {
    pending.deadline = pending.submitted_at +
                       SecondsToDuration(request.context.deadline_seconds);
  }
  pending.options = request.options;
  pending.context = request.context;
  pending.promise = std::move(promise);

  {
    // Counter::Increment can take Counter::mutex_ (first touch per
    // thread) under the scheduler lock — the order declared on mutex_
    // in the header. Nothing may call back into the scheduler from a
    // metric lock.
    MutexLock lock(mutex_);
    TenantState& tenant = Tenant(pending.context);
    ++counters_.submitted;
    ++tenant.counters.submitted;
    metrics.submitted->Increment();
    tenant.m_submitted->Increment();

    // Sheds this submission with whatever status the chaos test armed.
    // Placed after the submission is counted so an injected admission
    // failure is accounted exactly like a real shed and the per-tenant
    // partition invariant (shed + expired + completed == submitted)
    // holds under chaos.
    auto shed = [&](Status status) {
      ++counters_.shed;
      ++tenant.counters.shed;
      metrics.shed->Increment();
      tenant.m_shed->Increment();
      pending.promise.set_value(std::move(status));
    };
    if (Failpoints::AnyArmed()) {
      const Status injected = Failpoints::Hit("serve/qos/admit");
      if (!injected.ok()) {
        shed(injected);
        return future;
      }
    }
    // Deliberate shedding, not a transient fault: kResourceExhausted
    // here means "back off", never "retry" (see header; transient
    // faults are kUnavailable).
    if (shutting_down_) {
      shed(Status::ResourceExhausted("scheduler is shutting down"));
      return future;
    }
    if (!SpendToken(tenant)) {
      shed(Status::ResourceExhausted(
          "tenant \"" + std::string(RequestTenant(pending.context)) +
          "\" is over its admission rate"));
      return future;
    }
    if (!AdmitFill(pending.context.priority)) {
      shed(Status::ResourceExhausted(
          QueuedTotal() >= options_.max_queue
              ? "serve queue full (" + std::to_string(options_.max_queue) +
                    " requests queued)"
              : "queue too full for priority \"" +
                    std::string(RequestPriorityName(
                        pending.context.priority)) +
                    "\""));
      return future;
    }

    const std::size_t lane =
        static_cast<std::size_t>(pending.context.priority);
    lanes_[lane].push_back(std::move(pending));
    tenant.m_admitted->Increment();
    counters_.max_queue_depth =
        std::max(counters_.max_queue_depth, QueuedTotal());
    metrics.queue_depth->Set(static_cast<double>(QueuedTotal()));
  }
  work_available_.NotifyOne();
  return future;
}

void BatchScheduler::DispatchLoop() {
  const SchedulerMetrics& metrics = SchedulerMetrics::Get();
  for (;;) {
    std::vector<Pending> batch;
    {
      MutexLock lock(mutex_);
      while (!shutting_down_ && (QueuedTotal() == 0 || paused_)) {
        work_available_.Wait(mutex_);
      }
      if (QueuedTotal() == 0 && shutting_down_) return;
      batch = TakeBatch();
      ++counters_.batches;
      metrics.batches->Increment();
      metrics.queue_depth->Set(static_cast<double>(QueuedTotal()));
      in_flight_ += batch.size();
      if (shutting_down_) {
        // Fail the drained batch instead of executing it: shutdown must
        // not block on engine work, but every promise must be answered.
        // These requests never executed, so they count as shed.
        for (Pending& pending : batch) {
          TenantState& tenant = Tenant(pending.context);
          pending.promise.set_value(
              Status::ResourceExhausted("scheduler is shutting down"));
          ++counters_.shed;
          ++tenant.counters.shed;
          metrics.shed->Increment();
          tenant.m_shed->Increment();
        }
        in_flight_ -= batch.size();
        if (QueuedTotal() == 0 && in_flight_ == 0) {
          queue_drained_.NotifyAll();
        }
        continue;
      }
    }
    RunBatch(std::move(batch));
  }
}

std::vector<BatchScheduler::Pending> BatchScheduler::TakeBatch() {
  std::vector<Pending> batch;
  batch.reserve(std::min(options_.max_batch, QueuedTotal()));

  // First pass: each lane gets its weighted share of the batch,
  // highest priority first.
  for (std::size_t p = kNumRequestPriorities; p-- > 0;) {
    std::deque<Pending>& lane = lanes_[p];
    if (lane.empty()) continue;
    const std::size_t share = std::max<std::size_t>(
        1, options_.max_batch * kLaneWeights[p] / kTotalLaneWeight);
    std::size_t take = std::min(share, lane.size());
    take = std::min(take, options_.max_batch - batch.size());
    for (std::size_t i = 0; i < take; ++i) {
      batch.push_back(std::move(lane.front()));
      lane.pop_front();
    }
    if (batch.size() >= options_.max_batch) return batch;
  }
  // Second pass: slots a lighter (or empty) lane left unused fall
  // through, still highest priority first.
  for (std::size_t p = kNumRequestPriorities; p-- > 0;) {
    std::deque<Pending>& lane = lanes_[p];
    while (!lane.empty() && batch.size() < options_.max_batch) {
      batch.push_back(std::move(lane.front()));
      lane.pop_front();
    }
    if (batch.size() >= options_.max_batch) break;
  }
  return batch;
}

std::vector<std::vector<std::size_t>> BatchScheduler::GroupCompatible(
    const std::vector<Pending>& batch) const {
  const std::size_t dim = engine_->dim();
  std::vector<std::vector<std::size_t>> groups;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    // Wrong-dimension requests stay singletons so the per-query path
    // reports the same validation Status it always has.
    if (batch[i].query.size() == dim) {
      bool placed = false;
      for (auto& group : groups) {
        if (batch[group.front()].query.size() == dim &&
            CompatibleOptions(batch[group.front()].options,
                              batch[i].options)) {
          group.push_back(i);
          placed = true;
          break;
        }
      }
      if (placed) continue;
    }
    groups.push_back({i});
  }
  return groups;
}

void BatchScheduler::RunBatch(std::vector<Pending> batch) {
  // Chunks write disjoint index ranges; plain bytes (not the bit-packed
  // vector<bool>) keep those writes race-free.
  std::vector<unsigned char> answered(batch.size(), 0);
  std::vector<unsigned char> expired(batch.size(), 0);
  // End-to-end latency (submit -> answer) per member, for the tenant
  // p99 rings; members answered late (cancelled chunks) are stamped in
  // the accounting loop below.
  std::vector<double> latency(batch.size(), 0.0);

  // Coalesced execution plan: compatible members share one
  // Engine::BatchQuery call; a member with no compatible peer is a
  // singleton on the per-query path.
  const std::vector<std::vector<std::size_t>> groups = GroupCompatible(batch);

  std::atomic<std::size_t> batch_groups{0};
  std::atomic<std::size_t> batched_queries{0};

  // Answers every not-yet-expired member of one group. Members of a
  // group write disjoint batch indices, so groups can run on different
  // pool threads without synchronization.
  auto run_group = [&](const std::vector<std::size_t>& group) {
    const Clock::time_point start = Clock::now();
    std::vector<std::size_t> live;
    live.reserve(group.size());
    for (std::size_t i : group) {
      Pending& pending = batch[i];
      if (pending.has_deadline && start >= pending.deadline) {
        pending.promise.set_value(Status::DeadlineExceeded(
            "deadline passed before execution started"));
        answered[i] = 1;
        expired[i] = 1;
        continue;
      }
      live.push_back(i);
    }
    if (live.empty()) return;

    if (live.size() == 1) {
      Pending& pending = batch[live.front()];
      Result result = engine_->Query(
          Request{pending.query, pending.options, pending.context});
      const Clock::time_point done = Clock::now();
      if (result.ok()) {
        QueryStats& stats = result.value().stats;
        stats.queue_seconds =
            std::chrono::duration<double>(start - pending.submitted_at)
                .count();
        stats.deadline_met =
            !pending.has_deadline || done <= pending.deadline;
      }
      latency[live.front()] =
          std::chrono::duration<double>(done - pending.submitted_at).count();
      pending.promise.set_value(std::move(result));
      answered[live.front()] = 1;
      return;
    }

    Matrix group_queries(live.size(), batch[live.front()].query.size());
    for (std::size_t j = 0; j < live.size(); ++j) {
      const std::vector<double>& q = batch[live[j]].query;
      std::copy(q.begin(), q.end(), group_queries.Row(j).begin());
    }
    // The engine gets the first live member's context (the group shares
    // one QueryOptions; context differences are re-judged per member
    // right below, so which member's context rides along is cosmetic).
    auto results =
        engine_->BatchQuery(group_queries, batch[live.front()].options,
                            batch[live.front()].context);
    const Clock::time_point done = Clock::now();
    batch_groups.fetch_add(1, std::memory_order_relaxed);
    if (!results.ok()) {
      for (std::size_t i : live) {
        latency[i] =
            std::chrono::duration<double>(done - batch[i].submitted_at)
                .count();
        batch[i].promise.set_value(results.status());
        answered[i] = 1;
      }
      return;
    }
    std::vector<QueryResult> out = std::move(results).value();
    batched_queries.fetch_add(live.size(), std::memory_order_relaxed);
    for (std::size_t j = 0; j < live.size(); ++j) {
      Pending& pending = batch[live[j]];
      QueryResult result = std::move(out[j]);
      result.stats.queue_seconds =
          std::chrono::duration<double>(start - pending.submitted_at)
              .count();
      result.stats.deadline_met =
          !pending.has_deadline || done <= pending.deadline;
      latency[live[j]] =
          std::chrono::duration<double>(done - pending.submitted_at).count();
      pending.promise.set_value(std::move(result));
      answered[live[j]] = 1;
    }
  };

  const Status batch_status = ParallelForStatus(
      &pool_, groups.size(),
      [&](std::size_t begin, std::size_t end) -> Status {
        // Deadline-machinery failpoint: firing fails this chunk, and
        // ParallelForStatus cancels the chunks that have not started —
        // the dispatcher then answers every unanswered request below.
        IPS_FAILPOINT("serve/deadline");
        for (std::size_t g = begin; g < end; ++g) run_group(groups[g]);
        return Status::Ok();
      });

  // Cancelled or failed chunks leave requests unanswered; answer them
  // with the batch's status so no queued work is ever leaked.
  const Clock::time_point cleanup = Clock::now();
  std::size_t expired_count = 0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (answered[i] == 0) {
      latency[i] =
          std::chrono::duration<double>(cleanup - batch[i].submitted_at)
              .count();
      batch[i].promise.set_value(
          batch_status.ok()
              ? Status::Internal("batch finished without answering request")
              : batch_status);
    }
    if (expired[i] != 0) ++expired_count;
  }

  const SchedulerMetrics& metrics = SchedulerMetrics::Get();
  {
    MutexLock lock(mutex_);
    // Partition invariant: expired requests are not also completed.
    counters_.completed += batch.size() - expired_count;
    counters_.expired += expired_count;
    counters_.batch_groups += batch_groups.load(std::memory_order_relaxed);
    counters_.batched_queries +=
        batched_queries.load(std::memory_order_relaxed);
    metrics.completed->Add(batch.size() - expired_count);
    metrics.expired->Add(expired_count);
    metrics.batch_groups->Add(batch_groups.load(std::memory_order_relaxed));
    metrics.batched_queries->Add(
        batched_queries.load(std::memory_order_relaxed));
    for (std::size_t i = 0; i < batch.size(); ++i) {
      TenantState& tenant = Tenant(batch[i].context);
      if (expired[i] != 0) {
        ++tenant.counters.expired;
        tenant.m_expired->Increment();
      } else {
        ++tenant.counters.completed;
        tenant.m_completed->Increment();
        tenant.latency.Add(latency[i]);
        tenant.m_p99->Set(tenant.latency.P99());
      }
    }
    in_flight_ -= batch.size();
    if (QueuedTotal() == 0 && in_flight_ == 0) queue_drained_.NotifyAll();
  }
}

void BatchScheduler::Drain() {
  MutexLock lock(mutex_);
  while (!(QueuedTotal() == 0 && in_flight_ == 0)) {
    queue_drained_.Wait(mutex_);
  }
}

void BatchScheduler::Pause() {
  MutexLock lock(mutex_);
  paused_ = true;
}

void BatchScheduler::Resume() {
  {
    MutexLock lock(mutex_);
    paused_ = false;
  }
  work_available_.NotifyAll();
}

SchedulerCounters BatchScheduler::counters() const {
  MutexLock lock(mutex_);
  return counters_;
}

TenantCounters BatchScheduler::tenant_counters(
    const std::string& tenant_id) const {
  MutexLock lock(mutex_);
  const std::string& key = tenant_id.empty() ? "default" : tenant_id;
  auto it = tenants_.find(key);
  if (it == tenants_.end()) return {};
  TenantCounters counters = it->second->counters;
  counters.p99_seconds = it->second->latency.P99();
  return counters;
}

std::vector<std::string> BatchScheduler::tenants() const {
  MutexLock lock(mutex_);
  std::vector<std::string> out;
  out.reserve(tenants_.size());
  for (const auto& [id, state] : tenants_) out.push_back(id);
  return out;
}

}  // namespace ips
