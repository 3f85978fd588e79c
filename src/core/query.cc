#include "core/query.h"

#include <cmath>

namespace ips {

std::string_view QueryAlgoName(QueryAlgo algo) {
  switch (algo) {
    case QueryAlgo::kBruteForce:
      return "brute";
    case QueryAlgo::kBallTree:
      return "tree";
    case QueryAlgo::kLsh:
      return "lsh";
    case QueryAlgo::kSketch:
      return "sketch";
  }
  return "unknown";
}

std::string_view QueryPrecisionName(QueryPrecision precision) {
  switch (precision) {
    case QueryPrecision::kAuto:
      return "auto";
    case QueryPrecision::kExact:
      return "exact";
    case QueryPrecision::kQuantizedRerank:
      return "quant";
  }
  return "unknown";
}

void QueryStats::Merge(const QueryStats& other) {
  candidates += other.candidates;
  dot_products += other.dot_products;
  candidates_pruned += other.candidates_pruned;
  rerank_exact_dots += other.rerank_exact_dots;
  exec_seconds += other.exec_seconds;
  queue_seconds += other.queue_seconds;
  deadline_met = deadline_met && other.deadline_met;
  batch_size += other.batch_size;
  for (const auto& [key, value] : other.metrics.items()) {
    metrics.Add(key, value);
  }
}

Status ValidateQueryOptions(const QueryOptions& options) {
  if (options.k < 1) {
    return Status::InvalidArgument("top-k query needs k >= 1");
  }
  if (!std::isfinite(options.recall_target) || options.recall_target <= 0.0 ||
      options.recall_target > 1.0) {
    return Status::InvalidArgument(
        "recall target must lie in (0, 1], got " +
        std::to_string(options.recall_target));
  }
  switch (options.precision) {
    case QueryPrecision::kAuto:
    case QueryPrecision::kExact:
    case QueryPrecision::kQuantizedRerank:
      break;
    default:
      return Status::InvalidArgument(
          "unknown precision value " +
          std::to_string(static_cast<int>(options.precision)));
  }
  return Status::Ok();
}

}  // namespace ips
