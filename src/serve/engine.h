// Copyright 2026 The ipsjoin Authors.
// Licensed under the Apache License, Version 2.0.
//
// The online serving facade: an Engine owns a dataset plus lazily-built,
// cached per-algorithm indexes (constructed through the validated
// StatusOr Create factories), a micro-probe-calibrated Planner, and a
// thread-safe Query entry point that dispatches each request to the
// planner-selected answer path and accounts for the work it did.
//
// Requests and responses are the unified core types (core/query.h):
// Query takes a core::QueryOptions and returns a core::QueryResult whose
// stats carry per-request work counts and — when options.trace is set —
// the span tree serve/query -> serve/plan -> <algorithm>, also published
// to the process-wide TraceRing. Engine-level traffic lands in the
// MetricsRegistry under "serve.engine.*".
//
// Thread safety: Query may be called concurrently. Index construction is
// serialized behind a mutex; queries go through the counter-free const
// MipsIndex::Query primitives, so a built engine serves parallel traffic
// without locking the hot path.

#ifndef IPS_SERVE_ENGINE_H_
#define IPS_SERVE_ENGINE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/mips_index.h"
#include "core/query.h"
#include "core/types.h"
#include "linalg/matrix.h"
#include "lsh/simhash.h"
#include "lsh/tables.h"
#include "lsh/transforms.h"
#include "rng/random.h"
#include "serve/planner.h"
#include "serve/query_engine.h"
#include "serve/request.h"
#include "sketch/filter.h"
#include "sketch/sketch_mips.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace ips {

/// Engine construction knobs.
struct EngineOptions {
  /// (K, L) amplification of the lazily-built LSH index.
  LshTableParams lsh_params{.k = 8, .l = 32};
  /// Parameters of the lazily-built Section 4.3 sketch index.
  SketchMipsParams sketch_params;
  /// Parameters of the sketch index's CountSketch prefilter (the
  /// kSketchFilter two-stage path; DESIGN.md §13).
  SketchFilterParams sketch_filter;
  /// Leaf size of the lazily-built ball tree.
  std::size_t tree_leaf_size = 16;
  /// Warmup micro-probes: queries sampled from the data itself.
  std::size_t probe_queries = 16;
  /// Warmup subsample size the probe indexes are built on (clamped to n).
  std::size_t probe_sample = 512;
  /// Safety margin the planner adds to approximate-path recall targets.
  double recall_margin = 0.05;
  /// Seed of the engine's private Rng (index builds, warmup).
  std::uint64_t seed = 2026;
  /// The planner's online re-fit loop over the warmup calibration
  /// (serve/planner.h): shadow audits, per-segment live curves,
  /// eviction, and predicted-miss hedging.
  FeedbackOptions feedback;
};

/// Validates the option fields a build or a warm start depends on (tree
/// leaf size, LSH (K, L), sketch filter, feedback loop).
Status ValidateEngineOptions(const EngineOptions& options);

/// How Engine::CreateFromSnapshot materializes the dataset.
struct SnapshotLoadOptions {
  /// Serve the dataset zero-copy out of the mapped snapshot file
  /// instead of copying it onto the heap — the warm start never pays
  /// an O(n d) read before the first query.
  bool use_mmap = false;
  /// Verify every section CRC32 up front. On the mmap path this
  /// touches every page once; turning it off keeps the load O(1) and
  /// lets pages fault in lazily (damage then surfaces only where it
  /// is touched, without a kDataLoss diagnosis).
  bool verify_checksums = true;
};

/// The serving engine. Create once, serve concurrently.
class Engine : public QueryEngine {
 public:
  /// Validates `data`, computes the dataset profile, runs the warmup
  /// micro-probes (through the same unified MipsIndex::Query paths that
  /// serve traffic), and calibrates the planner. Takes ownership of the
  /// data.
  [[nodiscard]] static StatusOr<std::unique_ptr<Engine>> Create(
      Matrix data, EngineOptions options = {});

  /// Persists the dataset, profile, planner calibration, and the build
  /// artifacts of every index built so far to `<dir>/snapshot.ips`
  /// (DESIGN.md §12). The write is atomic: a crash mid-save leaves any
  /// previous snapshot in the directory untouched. Indexes not yet
  /// built are simply absent from the snapshot and rebuild lazily
  /// after a load.
  [[nodiscard]] Status SaveSnapshot(const std::string& dir) const
      IPS_EXCLUDES(build_mutex_);

  /// Warm start: reconstructs an engine from a SaveSnapshot directory,
  /// skipping dataset profiling and the calibration micro-probes (both
  /// read back from the snapshot) and installing every persisted index
  /// from its artifacts — the tree verbatim, the LSH tables by rng
  /// replay of the hash-function draws, the sketch by deterministic
  /// rebuild from its pinned pre-build rng state. With
  /// `load.use_mmap` the dataset is served zero-copy from the mapped
  /// file, which the engine keeps alive for its lifetime.
  [[nodiscard]] static StatusOr<std::unique_ptr<Engine>> CreateFromSnapshot(
      const std::string& dir, const SnapshotLoadOptions& load = {});

  /// Answers one request; thread-safe. Failpoint: "serve/plan" (inside
  /// the planner). An index build failure surfaces as the build's
  /// Status; the engine is not poisoned and the next request retries
  /// the build. request.options.force_algorithm bypasses the planner;
  /// the forced path must be able to answer the request (e.g. the engine
  /// routes only signed requests to the tree) or Query returns
  /// kInvalidArgument. deadline_met is
  /// judged against request.context.deadline_seconds; tenant and
  /// priority are scheduler-level and ignored here. With feedback
  /// enabled, planner-chosen approximate answers are periodically
  /// shadow-audited against the exact answer, and an audited miss is
  /// hedged: the exact answer (already computed) is returned instead.
  [[nodiscard]] StatusOr<QueryResult> Query(const Request& request)
      const override IPS_EXCLUDES(build_mutex_);

  /// Answers every row of `queries` under one shared `options` and
  /// `context`: one planner decision (or forced path), one EnsureIndex,
  /// and one MipsIndex::BatchQuery call for the whole batch — the
  /// coalesced fast path the BatchScheduler hands its compatible groups
  /// to. Results come back in row order; per-member exec_seconds is the
  /// batch's wall time amortized over its members, and each member's
  /// deadline_met is judged against that amortized time (the scheduler
  /// overrides it with real queue-aware wall clock). Engine-level
  /// traffic lands under "serve.engine.batch.*". An empty batch returns
  /// an empty vector without planning.
  [[nodiscard]] StatusOr<std::vector<QueryResult>> BatchQuery(
      const Matrix& queries, const QueryOptions& options,
      const RequestContext& context) const override
      IPS_EXCLUDES(build_mutex_);

  /// Eagerly builds the index behind `algo` (normally lazy; benches use
  /// this to exclude build cost from serving measurements).
  [[nodiscard]] Status EnsureIndex(QueryAlgo algo) const
      IPS_EXCLUDES(build_mutex_);

  std::size_t dim() const override { return profile_.dim; }

  /// The planner, including its live estimate table and feedback
  /// counters (inert when options().feedback.enabled is false).
  const Planner& planner() const { return *planner_; }
  const DatasetProfile& profile() const { return profile_; }
  const Matrix& data() const { return data_; }
  const EngineOptions& options() const { return options_; }

 private:
  /// The caller installs planner_ before sharing the engine: Create
  /// from the warmup calibration, CreateFromSnapshot from the persisted
  /// one.
  Engine(Matrix data, EngineOptions options, DatasetProfile profile);

  /// Warmup: build subsample-scale indexes and measure pruning fraction,
  /// candidate fraction, and probe recall for the planner's cost model —
  /// all read off the unified QueryStats of probe-index Query calls.
  StatusOr<PlannerCalibration> Calibrate() IPS_EXCLUDES(build_mutex_);

  /// Executes `options` on `algo` (indexes already built), filling the
  /// result's stats through the index's Query and nesting its spans
  /// under `trace` when non-null.
  StatusOr<QueryResult> Execute(QueryAlgo algo, std::span<const double> query,
                                const QueryOptions& options,
                                PlanDecision plan, Trace* trace) const
      IPS_EXCLUDES(build_mutex_);

  /// The shared plan step of Query and BatchQuery: a validated forced
  /// path, or the planner's decision. Records a "serve/plan" span.
  StatusOr<PlanDecision> MakePlan(const QueryOptions& options,
                                  Trace* trace) const;

  /// The (immutable once built) index behind `algo`, or null when
  /// EnsureIndex has not built it.
  const MipsIndex* PinIndex(QueryAlgo algo) const IPS_EXCLUDES(build_mutex_);

  /// Runs the exact shadow audit for an approximate planner-chosen
  /// answer: measures observed recall against the brute-force truth,
  /// trains the planner's live estimates, and hedges an audited miss by
  /// replacing the matches with the exact answer.
  void AuditResult(std::span<const double> query, const QueryOptions& options,
                   QueryResult* result) const;

  Matrix data_;
  /// Keeps the mmap backing of a zero-copy data_ view alive for the
  /// engine's lifetime (null when data_ owns its storage).
  std::shared_ptr<const void> data_keepalive_;
  EngineOptions options_;
  DatasetProfile profile_;
  std::unique_ptr<Planner> planner_;

  // Lazily-built indexes (and the LSH path's transform + base family,
  // which must outlive its index); guarded by build_mutex_, immutable
  // once built.
  mutable Mutex build_mutex_;
  mutable std::unique_ptr<VectorTransform> lsh_transform_
      IPS_GUARDED_BY(build_mutex_);
  mutable std::unique_ptr<SimHashFamily> lsh_family_
      IPS_GUARDED_BY(build_mutex_);
  mutable std::unique_ptr<BruteForceIndex> brute_index_
      IPS_GUARDED_BY(build_mutex_);
  mutable std::unique_ptr<TreeMipsIndex> tree_index_
      IPS_GUARDED_BY(build_mutex_);
  mutable std::unique_ptr<LshMipsIndex> lsh_index_
      IPS_GUARDED_BY(build_mutex_);
  mutable std::unique_ptr<SketchIndex> sketch_index_
      IPS_GUARDED_BY(build_mutex_);
  mutable Rng build_rng_ IPS_GUARDED_BY(build_mutex_);
  // Pre-build rng states of the replayable index builds, captured by
  // EnsureIndex so SaveSnapshot can persist them (see the LSHT/SKCH
  // sections in DESIGN.md §12). `valid` is false until the index has
  // been built at least once.
  mutable Rng::State lsh_prebuild_state_ IPS_GUARDED_BY(build_mutex_);
  mutable bool lsh_prebuild_valid_ IPS_GUARDED_BY(build_mutex_) = false;
  mutable Rng::State sketch_prebuild_state_ IPS_GUARDED_BY(build_mutex_);
  mutable bool sketch_prebuild_valid_ IPS_GUARDED_BY(build_mutex_) = false;
};

}  // namespace ips

#endif  // IPS_SERVE_ENGINE_H_
