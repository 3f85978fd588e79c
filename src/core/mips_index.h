// Copyright 2026 The ipsjoin Authors.
// Licensed under the Apache License, Version 2.0.
//
// The MipsIndex interface — the one Query/BatchQuery envelope every
// index shares — and four of its six implementations (the other two are
// core/symmetric_index.h and core/norm_range_index.h):
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
#include <optional>
#include <span>
#include <string>
#include <string_view>
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
///
/// Query and BatchQuery are the one envelope every index shares: they
/// validate the request, own a trace when one is asked for, and drive
/// the batch. An index implements only its search (the private Search
/// hook), states once which requests it cannot answer
/// (CheckAnswerable), and may add a tiled batch path (SearchBatch).
class MipsIndex {
 public:
  virtual ~MipsIndex() = default;

  virtual std::string Name() const = 0;

  /// Dimension of the indexed data (and of every valid query).
  std::size_t dim() const { return data_->cols(); }

  /// The one search entry point (core::QueryOptions / core::QueryStats,
  /// see DESIGN.md §8); the (cs, s)-search of Definition 1 is Query
  /// with k = 1 plus a threshold check (IndexJoin). Thread-safe: it is
  /// const and mutates no index-local state — work is reported through
  /// `stats` and the global MetricsRegistry. Returns kInvalidArgument,
  /// leaving `stats` untouched, for invalid options
  /// (ValidateQueryOptions), a query whose length is not dim(), and
  /// options the index cannot honor (e.g. exact precision on the sketch
  /// index, quantized precision on the tree).
  ///
  /// When options.trace is set and `trace` is null, a fresh per-query
  /// Trace labelled Name() is allocated and published via stats->trace;
  /// callers holding their own trace (the serve Engine) pass it to nest
  /// the index's spans under theirs.
  [[nodiscard]] StatusOr<std::vector<SearchMatch>> Query(
      std::span<const double> q, const QueryOptions& options,
      QueryStats* stats = nullptr, Trace* trace = nullptr) const;

  /// Pure-batch entry point: answers every row of `queries` under one
  /// shared `options` and returns one QueryResult per row, in row
  /// order. Semantically identical to calling Query once per row — the
  /// equivalence suite (tests/batch_query_test.cc) holds every index to
  /// that. Only brute force amortizes work across the batch (block
  /// scoring); every other batch runs the index's search once per row.
  /// Deadlines are a serving-layer concern
  /// (serve::RequestContext); indexes never read one.
  ///
  /// A request Query would reject (or a batch whose width is not dim())
  /// fails the whole batch with the same Status. An empty `queries`
  /// yields an empty result vector. When options.trace is set one Trace
  /// (labelled Name() + ".batch") covers the call and every result's
  /// stats.trace shares it.
  [[nodiscard]] StatusOr<std::vector<QueryResult>> BatchQuery(
      const Matrix& queries, const QueryOptions& options) const;

 protected:
  /// `data` must outlive the index.
  explicit MipsIndex(const Matrix& data) : data_(&data) {}

  /// The Query envelope around any search body: `search(QueryStats*
  /// fresh_stats, Trace* trace_or_null)` runs only on a valid,
  /// answerable request. NormRangeIndex::QueryAbove wraps its floored
  /// search in it.
  template <typename SearchFn>
  StatusOr<std::vector<SearchMatch>> RunQuery(std::span<const double> q,
                                              const QueryOptions& options,
                                              QueryStats* stats, Trace* trace,
                                              SearchFn search) const {
    IPS_RETURN_IF_ERROR(CheckRequest(q.size(), options, "query"));
    std::unique_ptr<Trace> owned;
    if (options.trace && trace == nullptr) {
      owned = std::make_unique<Trace>(Name());
      trace = owned.get();
    }
    QueryStats local;
    std::vector<SearchMatch> matches = search(&local, trace);
    if (owned != nullptr) local.trace = std::move(owned);
    if (stats != nullptr) *stats = std::move(local);
    return matches;
  }

  const Matrix* const data_;

 private:
  /// kInvalidArgument for the options this index cannot honor (a
  /// precision or signedness). Every option is answerable by default.
  virtual Status CheckAnswerable(const QueryOptions& options) const;

  /// The index's search on a request the envelope accepted. Fills the
  /// fresh `stats`; `trace` may be null.
  virtual std::vector<SearchMatch> Search(std::span<const double> q,
                                          const QueryOptions& options,
                                          QueryStats* stats,
                                          Trace* trace) const = 0;

  /// A tiled answer to a whole accepted, non-empty batch (stats filled,
  /// traces left to the envelope), or nullopt to run Search once per
  /// row. No tiled path by default.
  virtual std::optional<std::vector<QueryResult>> SearchBatch(
      const Matrix& queries, const QueryOptions& options, Trace* trace) const;

  // ValidateQueryOptions, then `what`'s dimension, then CheckAnswerable.
  Status CheckRequest(std::size_t query_dim, const QueryOptions& options,
                      std::string_view what) const;
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

 private:
  /// Precision: kAuto / kExact run the exact scan; kQuantizedRerank
  /// runs the two-stage int8 estimate + exact re-rank.
  std::vector<SearchMatch> Search(std::span<const double> q,
                                  const QueryOptions& options,
                                  QueryStats* stats,
                                  Trace* trace) const override;
  /// Tiled exact batch: one kernels::BlockTopK pass scores the whole
  /// batch against the data with cache-blocked reuse of data rows. A
  /// kQuantizedRerank batch runs the two-stage path per query; the
  /// shared int8 code matrix is the amortized state.
  std::optional<std::vector<QueryResult>> SearchBatch(
      const Matrix& queries, const QueryOptions& options,
      Trace* trace) const override;

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

  /// The underlying ball tree, for callers that drive its (thread-safe)
  /// QueryTopK descent themselves.
  const MipsBallTree& tree() const { return tree_; }

 private:
  /// Exact precision only: the branch-and-bound prunes on exact scores.
  Status CheckAnswerable(const QueryOptions& options) const override;
  /// Exact top-k, signed or unsigned (the unsigned descent prunes on
  /// the looser |q^T c| + ||q|| r bound, so it scores more points). A
  /// batch runs one descent per row; the leaf scans inside each descent
  /// run through the dispatched gather kernel.
  std::vector<SearchMatch> Search(std::span<const double> q,
                                  const QueryOptions& options,
                                  QueryStats* stats,
                                  Trace* trace) const override;

  TreeMipsIndex(const Matrix& data, MipsBallTree tree)
      : MipsIndex(data), tree_(std::move(tree)) {}

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
  /// LshTables::CreateFromBuckets): the buckets already hold the data's
  /// hashes, so neither the transform of the data nor the O(n k l)
  /// hashing pass runs again. `rng` must carry the restored pre-build
  /// Rng::State.
  [[nodiscard]] static StatusOr<std::unique_ptr<LshMipsIndex>>
  CreateFromBuckets(
      const Matrix& data, const VectorTransform* transform,
      const LshFamily& base_family, LshTableParams params, Rng* rng,
      std::vector<BucketTable> buckets);

  std::string Name() const override { return name_; }

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
  /// The full hash -> bucket -> dedup -> verify -> top-k pipeline under
  /// one "lsh" span. Precision: kAuto / kExact verify every candidate
  /// exactly; kQuantizedRerank prunes large candidate sets with int8
  /// estimates before the exact re-rank.
  std::vector<SearchMatch> Search(std::span<const double> q,
                                  const QueryOptions& options,
                                  QueryStats* stats,
                                  Trace* trace) const override;

  // The one place an index adopts its tables, built or restored.
  LshMipsIndex(const Matrix& data, const VectorTransform* transform,
               const LshFamily& base_family,
               std::unique_ptr<LshTables> tables);

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

 private:
  /// Only kAuto precision: the argmax descent or the exact fallback.
  Status CheckAnswerable(const QueryOptions& options) const override;
  /// Unsigned k=1 descends the argmax tree; any other sign or k runs
  /// the exact scan and returns TopKBruteForce's answer bit for bit.
  std::vector<SearchMatch> Search(std::span<const double> q,
                                  const QueryOptions& options,
                                  QueryStats* stats,
                                  Trace* trace) const override;

  SketchMipsIndex sketch_;
};

}  // namespace ips

#endif  // IPS_CORE_MIPS_INDEX_H_
