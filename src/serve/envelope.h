// Copyright 2026 The ipsjoin Authors.
// Licensed under the Apache License, Version 2.0.
//
// The serve request envelope (DESIGN.md §7): the one place a request to
// an Engine or a ShardedEngine is validated, counted, traced, timed,
// judged against its deadline and published. Each engine's Query and
// BatchQuery is one call into it with a body holding only what differs.
// It is a helper, not a base class, so QueryEngine stays a pure
// interface; ipslint rule "serve-envelope" keeps serve traces here.

#ifndef IPS_SERVE_ENVELOPE_H_
#define IPS_SERVE_ENVELOPE_H_

#include <cstddef>
#include <memory>
#include <string_view>
#include <utility>
#include <vector>

#include "core/query.h"
#include "linalg/matrix.h"
#include "linalg/validate.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/request.h"
#include "util/status.h"
#include "util/timer.h"

namespace ips {

/// One entry point's trace label, root span, validation subject and
/// registry handles, built once as a function-local static.
/// `batch_queries` (members of a batch) is empty on single surfaces.
struct ServeSurface {
  ServeSurface(const char* label, const char* root_span, const char* what,
               std::string_view requests, std::string_view batch_queries,
               std::string_view exec_seconds, std::string_view traced)
      : label(label),
        root_span(root_span),
        what(what),
        requests(MetricsRegistry::Global().GetCounter(requests)),
        batch_queries(batch_queries.empty() ? nullptr
                                            : MetricsRegistry::Global()
                                                  .GetCounter(batch_queries)),
        exec_seconds(MetricsRegistry::Global().GetHistogram(exec_seconds)),
        traced(MetricsRegistry::Global().GetCounter(traced)) {}

  /// Counts a finished trace and records it in the TraceRing.
  std::shared_ptr<const Trace> Publish(std::unique_ptr<Trace> trace) const {
    traced->Increment();
    std::shared_ptr<const Trace> shared(std::move(trace));
    TraceRing::Global().Record(shared);
    return shared;
  }

  const char* const label;
  const char* const root_span;
  const char* const what;
  Counter* const requests;
  Counter* const batch_queries;
  Histogram* const exec_seconds;
  Counter* const traced;
};

/// The single-request envelope. Validates the options, the context, and
/// the query's width and finiteness, in that order; counts the request;
/// runs `body(Trace*)` under the root span, then `settle(outcome)` once
/// the root span has closed, still timed, success or not. An answer gets
/// exec_seconds, deadline_met against request.context.deadline_seconds
/// (the only context field engines read), an exec histogram sample and
/// its published trace in stats.trace. A failure publishes no trace.
template <typename Body, typename Settle>
StatusOr<QueryResult> ServeQuery(const ServeSurface& surface, std::size_t dim,
                                 const Request& request, const Body& body,
                                 const Settle& settle) {
  IPS_RETURN_IF_ERROR(ValidateQueryOptions(request.options));
  IPS_RETURN_IF_ERROR(ValidateRequestContext(request.context));
  IPS_RETURN_IF_ERROR(ValidateVectorDims(request.query, dim, surface.what));
  IPS_RETURN_IF_ERROR(ValidateVectorFinite(request.query, surface.what));
  surface.requests->Increment();

  std::unique_ptr<Trace> trace;
  if (request.options.trace) trace = std::make_unique<Trace>(surface.label);
  WallTimer timer;
  StatusOr<QueryResult> outcome = [&]() -> StatusOr<QueryResult> {
    TraceSpan root(trace.get(), surface.root_span);
    return body(trace.get());
  }();
  settle(outcome);
  IPS_RETURN_IF_ERROR(outcome.status());
  QueryResult result = std::move(outcome).value();
  result.stats.exec_seconds = timer.Seconds();
  result.stats.deadline_met =
      result.stats.exec_seconds <= request.context.deadline_seconds;
  surface.exec_seconds->Observe(result.stats.exec_seconds);
  if (trace != nullptr) result.stats.trace = surface.Publish(std::move(trace));
  return result;
}

/// The batch envelope: ServeQuery's steps over every row of `queries`
/// under one shared `options` and `context` (empty in, empty out). The
/// root span counts "batch_queries". Each member's exec_seconds and
/// deadline_met use the batch's wall time amortized over its members
/// (the scheduler re-judges deadlines by queue-aware wall clock); the
/// histogram observes the whole batch. The trace goes to the ring only:
/// each member keeps the stats.trace its body gave it.
template <typename Body, typename Settle>
StatusOr<std::vector<QueryResult>> ServeBatch(
    const ServeSurface& surface, std::size_t dim, const Matrix& queries,
    const QueryOptions& options, const RequestContext& context,
    const Body& body, const Settle& settle) {
  IPS_RETURN_IF_ERROR(ValidateQueryOptions(options));
  IPS_RETURN_IF_ERROR(ValidateRequestContext(context));
  const std::size_t m = queries.rows();
  if (m == 0) return std::vector<QueryResult>();
  IPS_RETURN_IF_ERROR(ValidateDims(queries, dim, surface.what));
  IPS_RETURN_IF_ERROR(ValidateFinite(queries, surface.what));
  surface.requests->Increment();
  surface.batch_queries->Add(m);

  std::unique_ptr<Trace> trace;
  if (options.trace) trace = std::make_unique<Trace>(surface.label);
  WallTimer timer;
  StatusOr<std::vector<QueryResult>> outcome =
      [&]() -> StatusOr<std::vector<QueryResult>> {
    TraceSpan root(trace.get(), surface.root_span);
    root.AddCount("batch_queries", m);
    return body(trace.get());
  }();
  settle(outcome);
  IPS_RETURN_IF_ERROR(outcome.status());
  std::vector<QueryResult> results = std::move(outcome).value();
  const double total_seconds = timer.Seconds();
  const double amortized = total_seconds / static_cast<double>(m);
  for (QueryResult& result : results) {
    result.stats.exec_seconds = amortized;
    result.stats.deadline_met = amortized <= context.deadline_seconds;
  }
  surface.exec_seconds->Observe(total_seconds);
  if (trace != nullptr) surface.Publish(std::move(trace));
  return results;
}

}  // namespace ips

#endif  // IPS_SERVE_ENVELOPE_H_
