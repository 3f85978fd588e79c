// Copyright 2026 The ipsjoin Authors.
// Licensed under the Apache License, Version 2.0.
//
// The serving-layer query interface: anything that can answer a top-k
// request — the single-node Engine or the scatter-gather ShardedEngine
// — implements QueryEngine, so the BatchScheduler (and any future
// router/replica layer) is agnostic to whether it is driving one index
// stack or a sharded fleet. The interface is pure: both engines run
// their requests through the serve envelope (serve/envelope.h), a
// helper they call, so a test double implements two virtuals and
// nothing else.

#ifndef IPS_SERVE_QUERY_ENGINE_H_
#define IPS_SERVE_QUERY_ENGINE_H_

#include <cstddef>
#include <vector>

#include "core/query.h"
#include "linalg/matrix.h"
#include "serve/request.h"
#include "util/status.h"

namespace ips {

/// Abstract top-k answer surface. Implementations must be safe for
/// concurrent Query/BatchQuery calls (the scheduler fans out over a
/// thread pool). Requests arrive in the serve::Request envelope: the
/// QueryOptions drive planning and execution, the RequestContext drives
/// transport semantics (deadline_met is judged against
/// context.deadline_seconds; tenant and priority are scheduler-level
/// and ignored by direct engine calls).
class QueryEngine {
 public:
  virtual ~QueryEngine() = default;

  /// Dimensionality every query vector must have.
  virtual std::size_t dim() const = 0;

  /// Answers one request; thread-safe. `request.query` is borrowed for
  /// the duration of the call.
  [[nodiscard]] virtual StatusOr<QueryResult> Query(
      const Request& request) const = 0;

  /// Answers every row of `queries` under one shared `options` and one
  /// shared `context`; results in row order, semantically one Query per
  /// row. The scheduler passes the context of the group's first member
  /// (members coalesce on identical QueryOptions only) and re-judges
  /// deadlines per member afterwards.
  [[nodiscard]] virtual StatusOr<std::vector<QueryResult>> BatchQuery(
      const Matrix& queries, const QueryOptions& options,
      const RequestContext& context) const = 0;
};

}  // namespace ips

#endif  // IPS_SERVE_QUERY_ENGINE_H_
