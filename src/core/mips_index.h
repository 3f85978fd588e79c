// Copyright 2026 The ipsjoin Authors.
// Licensed under the Apache License, Version 2.0.
//
// The MipsIndex interface and its four implementations:
//   BruteForceIndex -- exact quadratic scan (the baseline of every
//                      experiment), with an int8 quantized-rerank
//                      two-stage variant (QueryPrecision);
//   TreeMipsIndex   -- exact Ram-Gray ball-tree branch-and-bound;
//   LshMipsIndex    -- any (A)LSH transform + base family through the
//                      (K, L) table engine, candidates re-ranked
//                      exactly or pruned first by int8 estimates;
//   SketchIndex     -- the Section 4.3 linear-sketch argmax structure
//                      for unsigned k=1; every other request shape
//                      runs the shared exact scan.
// All implementations return the exact score of the candidate they
// report, so the (cs, s) guarantee of Definition 1 is checkable — the
// approximate precisions never return an estimated score, only an
// approximately-selected candidate set (DESIGN.md §13).
//
// Construction from untrusted input goes through the static Create
// factories, which validate dimensions, finiteness, and parameter ranges
// and return kInvalidArgument / kFailedPrecondition instead of aborting;
// the plain constructors IPS_CHECK the same preconditions and are meant
// for inputs the caller already owns.

#ifndef IPS_CORE_MIPS_INDEX_H_
#define IPS_CORE_MIPS_INDEX_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/query.h"
#include "core/types.h"
#include "linalg/matrix.h"
#include "linalg/quantized.h"
#include "lsh/tables.h"
#include "lsh/transforms.h"
#include "obs/trace.h"
#include "rng/random.h"
#include "sketch/sketch_mips.h"
#include "tree/mips_tree.h"
#include "util/status.h"

namespace ips {

/// Interface: search the (fixed) data set for a large-inner-product
/// match of a query.
class MipsIndex {
 public:
  virtual ~MipsIndex() = default;

  virtual std::string Name() const = 0;

  /// Dimension of the indexed data (and of every valid query).
  virtual std::size_t dim() const = 0;

  /// The one search entry point (core::QueryOptions / core::QueryStats,
  /// see DESIGN.md §8); the (cs, s)-search of Definition 1 is Query
  /// with k = 1 plus a threshold check (IndexJoin). Thread-safe: it is
  /// const and mutates no index-local state — work is reported through
  /// `stats` and the global MetricsRegistry. Returns kInvalidArgument
  /// for options the path cannot honor (e.g. exact precision on the
  /// sketch path, quantized precision on the tree).
  ///
  /// When options.trace is set and `trace` is null, a fresh per-query
  /// Trace is allocated and published via stats->trace; callers holding
  /// their own trace (the serve Engine) pass it to nest the index's
  /// spans under theirs.
  [[nodiscard]] virtual StatusOr<std::vector<SearchMatch>> Query(
      std::span<const double> q, const QueryOptions& options,
      QueryStats* stats = nullptr, Trace* trace = nullptr) const = 0;

  /// Pure-batch entry point: answers every row of `queries` under one
  /// shared `options` and returns one QueryResult per row, in row
  /// order. Semantically identical to calling Query once per row — the
  /// equivalence suite (tests/batch_query_test.cc) holds every index to
  /// that — but specialized implementations amortize work across the
  /// batch (tiled block scoring in brute force, shared transforms and
  /// row-grouped verification in LSH). Deadlines are a serving-layer
  /// concern (serve::RequestContext); indexes never read one.
  ///
  /// The default implementation is the per-query fallback: one Query
  /// call per row. Tracing: when options.trace is set the batch
  /// allocates one Trace for the whole call and every result's
  /// stats.trace shares it.
  ///
  /// An invalid request (bad options, dimension mismatch, or options
  /// the path cannot honor) fails the whole batch with the same Status
  /// a single Query would return. An empty `queries` yields an empty
  /// result vector.
  [[nodiscard]] virtual StatusOr<std::vector<QueryResult>> BatchQuery(
      const Matrix& queries, const QueryOptions& options) const;
};

/// Exact full scan, plus the int8 quantized-rerank variant.
class BruteForceIndex : public MipsIndex {
 public:
  /// `data` must outlive the index. Quantizes the data (one cheap pass,
  /// n*d bytes of codes) so kQuantizedRerank queries need no lazy
  /// build.
  explicit BruteForceIndex(const Matrix& data);

  /// Validated construction: rejects empty or non-finite data.
  /// Failpoint: "core/index-build".
  [[nodiscard]] static StatusOr<std::unique_ptr<BruteForceIndex>> Create(
      const Matrix& data);

  std::string Name() const override { return "brute-force"; }
  std::size_t dim() const override { return data_->cols(); }
  /// Precision: kAuto / kExact run the exact scan; kQuantizedRerank
  /// runs the two-stage int8 estimate + exact re-rank.
  [[nodiscard]] StatusOr<std::vector<SearchMatch>> Query(
      std::span<const double> q, const QueryOptions& options,
      QueryStats* stats = nullptr, Trace* trace = nullptr) const override;
  /// Tiled implementation: one kernels::BlockTopK pass scores the whole
  /// batch against the data with cache-blocked reuse of data rows. A
  /// kQuantizedRerank batch runs the two-stage path per query; the
  /// shared int8 code matrix is the amortized state.
  [[nodiscard]] StatusOr<std::vector<QueryResult>> BatchQuery(
      const Matrix& queries, const QueryOptions& options) const override;

  /// The per-row-block int8 quantization of the data (the bucket join's
  /// lossless prefilter reuses it).
  const QuantizedMatrix& quantized() const { return quant_; }

 private:
  const Matrix* data_;
  QuantizedMatrix quant_;
};

/// Exact ball-tree branch-and-bound (tree/mips_tree.h).
class TreeMipsIndex : public MipsIndex {
 public:
  TreeMipsIndex(const Matrix& data, std::size_t leaf_size, Rng* rng);

  /// Validated construction: rejects empty or non-finite data,
  /// leaf_size == 0, and a null rng. Failpoint: "core/index-build".
  [[nodiscard]] static StatusOr<std::unique_ptr<TreeMipsIndex>> Create(
      const Matrix& data, std::size_t leaf_size, Rng* rng);

  /// Wraps an already-restored ball tree (MipsBallTree::Restore) — the
  /// snapshot warm-start path, which skips the O(n log n) build.
  /// `tree` must have been restored over this same `data`.
  [[nodiscard]] static StatusOr<std::unique_ptr<TreeMipsIndex>> Restore(
      const Matrix& data, MipsBallTree tree);

  std::string Name() const override { return "ball-tree"; }
  std::size_t dim() const override { return data_->cols(); }
  /// Exact top-k, signed or unsigned (the unsigned descent prunes on
  /// the looser |q^T c| + ||q|| r bound, so it scores more points).
  [[nodiscard]] StatusOr<std::vector<SearchMatch>> Query(
      std::span<const double> q, const QueryOptions& options,
      QueryStats* stats = nullptr, Trace* trace = nullptr) const override;
  /// Per-query descents under one batch trace; the leaf scans inside
  /// each descent run through the dispatched gather kernel.
  [[nodiscard]] StatusOr<std::vector<QueryResult>> BatchQuery(
      const Matrix& queries, const QueryOptions& options) const override;

  /// The underlying ball tree, for callers that drive its (thread-safe)
  /// QueryTopK descent themselves.
  const MipsBallTree& tree() const { return tree_; }

 private:
  TreeMipsIndex(const Matrix& data, MipsBallTree tree)
      : data_(&data), tree_(std::move(tree)) {}

  const Matrix* data_;
  MipsBallTree tree_;
};

/// (A)LSH index: optional transform into hash space, (K, L) tables on
/// the transformed data, exact re-ranking of candidates.
class LshMipsIndex : public MipsIndex {
 public:
  /// `data` must outlive the index. `transform` may be null (hash the
  /// raw vectors); otherwise it must map input_dim == data.cols() and
  /// `base_family.dim()` must equal the transform's output_dim.
  /// Both `transform` and `base_family` must outlive the index.
  LshMipsIndex(const Matrix& data, const VectorTransform* transform,
               const LshFamily& base_family, LshTableParams params,
               Rng* rng);

  /// Validated construction: rejects empty or non-finite data, a
  /// transform/family dimension mismatch, k or l of zero, and a null
  /// rng. Failpoint: "core/index-build".
  [[nodiscard]] static StatusOr<std::unique_ptr<LshMipsIndex>> Create(
      const Matrix& data, const VectorTransform* transform,
      const LshFamily& base_family, LshTableParams params, Rng* rng);

  /// Restores an index from persisted buckets plus a replayed rng (see
  /// LshTables::CreateFromBuckets): re-applies the (cheap) transform to
  /// the data but skips the O(n k l) hashing pass. `rng` must carry the
  /// restored pre-build Rng::State.
  [[nodiscard]] static StatusOr<std::unique_ptr<LshMipsIndex>>
  CreateFromBuckets(
      const Matrix& data, const VectorTransform* transform,
      const LshFamily& base_family, LshTableParams params, Rng* rng,
      std::vector<BucketTable> buckets);

  std::string Name() const override { return name_; }
  std::size_t dim() const override { return data_->cols(); }
  /// The full hash -> bucket -> dedup -> verify -> top-k pipeline under
  /// one "lsh" span when traced. Precision: kAuto / kExact verify every
  /// candidate exactly; kQuantizedRerank prunes large candidate sets
  /// with int8 estimates before the exact re-rank.
  [[nodiscard]] StatusOr<std::vector<SearchMatch>> Query(
      std::span<const double> q, const QueryOptions& options,
      QueryStats* stats = nullptr, Trace* trace = nullptr) const override;
  /// Probes every query's tables, then verifies candidates grouped by
  /// data row across the whole batch: each row the batch touches is
  /// loaded once and scored against every query that bucketed it.
  [[nodiscard]] StatusOr<std::vector<QueryResult>> BatchQuery(
      const Matrix& queries, const QueryOptions& options) const override;

  /// Raw candidate set for `q` (data row indices), for callers that
  /// re-rank themselves (e.g. top-k retrieval, core/top_k.h). `trace`
  /// and `stats` may be null; when set, they receive the table probe's
  /// spans and its "lsh.tables.*" metrics.
  std::vector<std::size_t> Candidates(std::span<const double> q,
                                      Trace* trace = nullptr,
                                      QueryStats* stats = nullptr) const;

  /// The underlying (K, L) tables (immutable once built), for
  /// snapshotting the buckets.
  const LshTables& tables() const { return *tables_; }

 private:
  // The one place an index adopts its tables, built or restored.
  LshMipsIndex(const Matrix& data, const VectorTransform* transform,
               const LshFamily& base_family,
               std::unique_ptr<LshTables> tables);

  const Matrix* data_ = nullptr;
  const VectorTransform* transform_ = nullptr;
  std::unique_ptr<LshTables> tables_;
  QuantizedMatrix quant_;
  std::string name_;
};

/// The sketch index. Unsigned k=1 queries descend the Section 4.3
/// argmax tree (sketch_mips.h); every other request (signed, k > 1)
/// runs the shared exact scan (QueryBruteForce), so the index fully
/// implements the MipsIndex Query/BatchQuery contract.
class SketchIndex : public MipsIndex {
 public:
  SketchIndex(const Matrix& data, const SketchMipsParams& params, Rng* rng);

  /// The one validated sketch factory: rejects empty or non-finite
  /// data, invalid argmax parameters (kappa < 2, copies == 0,
  /// leaf_size == 0, non-positive bucket multiplier), and a null rng.
  /// Failpoint: "core/index-build".
  [[nodiscard]] static StatusOr<std::unique_ptr<SketchIndex>> Create(
      const Matrix& data, const SketchMipsParams& params, Rng* rng);

  std::string Name() const override { return "sketch-mips"; }
  std::size_t dim() const override { return data_->cols(); }
  /// Unsigned k=1 descends the argmax tree; any other sign or k runs
  /// the exact scan and returns TopKBruteForce's answer bit for bit.
  /// Only kAuto precision is accepted.
  [[nodiscard]] StatusOr<std::vector<SearchMatch>> Query(
      std::span<const double> q, const QueryOptions& options,
      QueryStats* stats = nullptr, Trace* trace = nullptr) const override;
  /// Per-query recoveries / fallback scans under one batch trace.
  [[nodiscard]] StatusOr<std::vector<QueryResult>> BatchQuery(
      const Matrix& queries, const QueryOptions& options) const override;

 private:
  const Matrix* data_;
  SketchMipsIndex sketch_;
};

}  // namespace ips

#endif  // IPS_CORE_MIPS_INDEX_H_
