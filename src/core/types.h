// Copyright 2026 The ipsjoin Authors.
// Licensed under the Apache License, Version 2.0.
//
// Public value types of the ipsjoin core API.

#ifndef IPS_CORE_TYPES_H_
#define IPS_CORE_TYPES_H_

#include <cstddef>
#include <optional>
#include <vector>

#include "linalg/search_match.h"

namespace ips {

/// Specification of an approximate (cs, s) IPS join / search
/// (Definition 1): for every query with some data point scoring >= s,
/// report a data point scoring >= c*s; signed joins score by p^T q,
/// unsigned joins by |p^T q|.
struct JoinSpec {
  double s = 1.0;
  double c = 0.5;
  bool is_signed = true;

  double cs() const { return c * s; }
};

/// One reported (query, data) pair with its exact score.
struct JoinMatch {
  std::size_t query = 0;
  std::size_t data = 0;
  double value = 0.0;
};

/// Result of a join: at most one match per query (nullopt when the
/// algorithm reports none), plus accounting.
struct JoinResult {
  std::vector<std::optional<JoinMatch>> per_query;
  double seconds = 0.0;
  /// Exact inner products evaluated (work measure; n*m for brute force).
  std::size_t inner_products = 0;

  /// Number of queries with a reported match.
  std::size_t NumMatched() const;
};

}  // namespace ips

#endif  // IPS_CORE_TYPES_H_
