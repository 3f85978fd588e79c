// Copyright 2026 The ipsjoin Authors.
// Licensed under the Apache License, Version 2.0.
//
// The online serving facade: an Engine owns a dataset plus lazily-built,
// cached per-algorithm indexes (constructed through the validated
// StatusOr Create factories), a micro-probe-calibrated Planner, and a
// thread-safe Query entry point that dispatches each request to the
// planner-selected answer path and accounts for the work it did.
//
// Query and BatchQuery run in the serve envelope (serve/envelope.h),
// which validates, times, traces and publishes every request under
// "serve.engine.*"; the engine adds the plan, the pin, the index call
// (spans serve/plan, then the algorithm's) and the audit.
//
// Thread safety: Query may be called concurrently. The indexes live in
// one table with a slot per QueryAlgo; index construction is serialized
// behind build_mutex_, and built indexes are immutable, so a request
// takes one uncontended build_mutex_ acquisition (to pin its index) and
// then runs through the counter-free const MipsIndex::Query primitives.

#ifndef IPS_SERVE_ENGINE_H_
#define IPS_SERVE_ENGINE_H_

#include <array>
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
  /// Warmup micro-probes: queries sampled from the data itself.
  std::size_t probe_queries = 16;
  /// Warmup subsample size the probe indexes are built on (clamped to n).
  std::size_t probe_sample = 512;
  /// Seed of the engine's private Rng (index builds, warmup).
  std::uint64_t seed = 2026;
  /// The planner's online re-fit loop (serve/planner.h): one exact
  /// shadow audit per this many planner-routed can-miss answers per
  /// workload segment (>= 1). Each audit costs one brute-force scan, so
  /// the loop adds ~n/audit_every dots per such answer on average.
  std::size_t audit_every = 16;
};

/// Validates the option fields a build or a warm start depends on (LSH
/// (K, L), audit_every).
Status ValidateEngineOptions(const EngineOptions& options);

/// How Engine::CreateFromSnapshot materializes the dataset.
struct SnapshotLoadOptions {
  /// Serve the dataset zero-copy out of the mapped snapshot file
  /// instead of copying it onto the heap — the warm start never pays
  /// an O(n d) read before the first query.
  bool use_mmap = false;
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
  /// after a load. The index table is copied under build_mutex_ and
  /// the file is written without it, so serving is not stalled.
  [[nodiscard]] Status SaveSnapshot(const std::string& dir) const
      IPS_EXCLUDES(build_mutex_);

  /// Warm start: reconstructs an engine from a SaveSnapshot directory,
  /// skipping dataset profiling and the calibration micro-probes (both
  /// read back from the snapshot) and installing every persisted index
  /// from its artifacts — the tree verbatim, the LSH tables by rng
  /// replay of the hash-function draws, the sketch by deterministic
  /// rebuild from its pinned pre-build rng state. With
  /// `load.use_mmap` the dataset is served zero-copy from the mapped
  /// file, which the engine keeps alive for its lifetime. Every section
  /// CRC32 is verified on both paths.
  [[nodiscard]] static StatusOr<std::unique_ptr<Engine>> CreateFromSnapshot(
      const std::string& dir, const SnapshotLoadOptions& load = {});

  /// Answers one request in the serve envelope (ServeQuery); thread-safe.
  /// Failpoint: "serve/plan". A failed index build surfaces as its
  /// Status and the next request retries it. A forced algorithm
  /// bypasses the planner but must be able to answer the request (the
  /// tree takes only signed ones), else kInvalidArgument. Planner-chosen
  /// answers that can miss are periodically shadow-audited, and an
  /// audited miss is hedged: the exact answer is returned instead,
  /// labelled "serve.feedback.hedged" in stats.metrics.
  [[nodiscard]] StatusOr<QueryResult> Query(const Request& request)
      const override IPS_EXCLUDES(build_mutex_);

  /// Answers every row of `queries` in the serve batch envelope
  /// (ServeBatch) with one planner decision, one pin and one
  /// MipsIndex::BatchQuery call — the coalesced fast path the
  /// BatchScheduler hands its compatible groups to. Each member is
  /// audited like a Query and keeps the index-level batch trace.
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
  /// counters.
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

  /// A request after PlanAndPin: the plan, its index, and the options
  /// that index runs.
  struct PlannedRequest {
    PlanDecision plan;
    const MipsIndex* index = nullptr;
    QueryOptions options;
  };

  /// The shared prefix of Query and BatchQuery: the planner's decision
  /// or validated forced path (recorded as a "serve/plan" span), the
  /// pinned index, and the request options with the planned precision.
  StatusOr<PlannedRequest> PlanAndPin(const QueryOptions& options,
                                      Trace* trace) const
      IPS_EXCLUDES(build_mutex_);

  /// The index behind `algo`, built on first use. Takes build_mutex_
  /// once; the returned index is immutable and lives as long as the
  /// engine.
  StatusOr<const MipsIndex*> Pin(QueryAlgo algo) const
      IPS_EXCLUDES(build_mutex_);

  /// Builds the index of `algo` from build_rng_'s current state.
  StatusOr<std::unique_ptr<MipsIndex>> BuildIndex(QueryAlgo algo) const
      IPS_REQUIRES(build_mutex_);

  /// When the answer is planner-routed, can miss, and is due for audit
  /// under its segment's cadence: runs the exact shadow audit, measures
  /// observed recall against the brute-force truth, trains the
  /// planner's live estimates, and hedges an audited miss by replacing
  /// the matches with the exact answer.
  void MaybeAudit(std::span<const double> query, const QueryOptions& options,
                  QueryResult* result) const;

  Matrix data_;
  /// Keeps the mmap backing of a zero-copy data_ view alive for the
  /// engine's lifetime (null when data_ owns its storage).
  std::shared_ptr<const void> data_keepalive_;
  EngineOptions options_;
  DatasetProfile profile_;
  std::unique_ptr<Planner> planner_;

  // The Simple-LSH lift behind the lsh slot. It depends only on the
  // profile and draws no rng, so the constructor builds it; both are
  // null when max_norm <= 0 (all-zero data), where the lift is
  // undefined. Declared before slots_, which must be destroyed first.
  std::unique_ptr<const SimpleMipsTransform> lsh_transform_;
  std::unique_ptr<const SimHashFamily> lsh_family_;

  /// One slot of the index table. `prebuild` is the build_rng_ state
  /// the build started from; snapshots persist it so a load can replay
  /// the LSH hash draws and re-run the sketch build bit-identically.
  struct IndexSlot {
    std::unique_ptr<MipsIndex> index;
    Rng::State prebuild;
  };

  // The index table, indexed by QueryAlgo. Slot a only ever holds the
  // index type built for a (BuildIndex, CreateFromSnapshot), which is
  // what lets SaveSnapshot static_cast the tree and LSH slots to their
  // concrete types. A slot is filled once and never cleared.
  mutable Mutex build_mutex_;
  mutable std::array<IndexSlot, kNumQueryAlgos> slots_
      IPS_GUARDED_BY(build_mutex_);
  mutable Rng build_rng_ IPS_GUARDED_BY(build_mutex_);
};

}  // namespace ips

#endif  // IPS_SERVE_ENGINE_H_
