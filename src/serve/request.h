// Copyright 2026 The ipsjoin Authors.
// Licensed under the Apache License, Version 2.0.
//
// The serving-layer request envelope (DESIGN.md §14). A serve Request
// separates what the answer must look like (core::QueryOptions — k,
// recall target, precision: algorithmic knobs every index understands)
// from how the serving layer must treat the caller (RequestContext —
// tenant, priority, deadline: transport-level QoS fields no index ever
// reads). The split is load-bearing: the BatchScheduler coalesces
// requests whose QueryOptions agree into one Engine::BatchQuery call
// while each member keeps its own RequestContext for admission,
// deadline accounting, and per-tenant counters.

#ifndef IPS_SERVE_REQUEST_H_
#define IPS_SERVE_REQUEST_H_

#include <cstddef>
#include <limits>
#include <span>
#include <string>
#include <string_view>

#include "core/query.h"
#include "util/status.h"

namespace ips {

/// Scheduling lanes, lowest to highest. Under pressure the scheduler
/// sheds lower lanes first (admission control) and drains higher lanes
/// first (weighted dispatch); see serve/batch_scheduler.h.
enum class RequestPriority {
  /// Offline / best-effort traffic: first to be shed, last to drain.
  kBatch = 0,
  /// The default lane for interactive-but-not-latency-critical load.
  kStandard = 1,
  /// Latency-critical traffic: never shed by fill-level admission
  /// control (only a completely full queue rejects it).
  kInteractive = 2,
};

inline constexpr std::size_t kNumRequestPriorities = 3;

/// Short stable name of `priority` ("batch", "standard", "interactive");
/// metric label segment and bench JSON key.
std::string_view RequestPriorityName(RequestPriority priority);

/// Transport-level context of one request: who is asking and how the
/// serving layer must treat them. Carried per request — never folded
/// into QueryOptions, so batch coalescing stays per-member on these
/// fields.
struct RequestContext {
  /// Accounting / QoS principal. Empty means the "default" tenant.
  std::string tenant_id;
  RequestPriority priority = RequestPriority::kStandard;
  /// Relative deadline in seconds from submission (infinity = none).
  /// Must be positive. The scheduler expires requests whose deadline
  /// passes before execution starts; engines judge
  /// QueryStats::deadline_met against it.
  double deadline_seconds = std::numeric_limits<double>::infinity();
};

/// Validates the context: deadline positive (infinity allowed; NaN and
/// non-positive rejected), priority a known lane.
Status ValidateRequestContext(const RequestContext& context);

/// One serving-layer request: the query vector, the algorithmic options
/// every index understands, and the transport context only the serving
/// layer reads. The span is a borrow — it must stay alive for the
/// duration of the call (BatchScheduler::Submit copies it into owned
/// storage before returning).
struct Request {
  std::span<const double> query = {};
  /// Defaulted so call sites spell only what they need:
  /// `engine.Query({q})`, `{q, options}`, or `{q, options, context}`.
  QueryOptions options = {};
  RequestContext context = {};
};

/// Canonical tenant key of `context` ("default" for an empty id).
std::string_view RequestTenant(const RequestContext& context);

}  // namespace ips

#endif  // IPS_SERVE_REQUEST_H_
