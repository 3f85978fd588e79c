// Copyright 2026 The ipsjoin Authors.
// Licensed under the Apache License, Version 2.0.
//
// Engine persistence (DESIGN.md §12): SaveSnapshot serializes the
// dataset, profile, planner calibration, and the build artifacts of
// every index built so far into one sectioned snapshot file;
// CreateFromSnapshot reverses it without re-profiling, re-calibrating,
// or re-building — the tree is restored verbatim, the LSH tables by
// replaying the hash-function draws from the pinned pre-build rng
// state, and the sketch by deterministically re-running its build from
// its own pinned state.

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "lsh/bucket_table.h"
#include "obs/metrics.h"
#include "serve/engine.h"
#include "storage/file.h"
#include "storage/format.h"
#include "storage/snapshot.h"
#include "tree/mips_tree.h"
#include "util/failpoint.h"

namespace ips {
namespace {

/// File name inside the snapshot directory.
constexpr char kSnapshotFile[] = "/snapshot.ips";

void PutRngState(storage::PayloadWriter* w, const Rng::State& state) {
  for (std::uint64_t word : state.words) w->PutU64(word);
  w->PutU64(state.has_spare_gaussian);
  w->PutDouble(state.spare_gaussian);
}

Status GetRngState(storage::PayloadReader* r, Rng::State* state) {
  for (std::uint64_t& word : state->words) IPS_RETURN_IF_ERROR(r->GetU64(&word));
  IPS_RETURN_IF_ERROR(r->GetU64(&state->has_spare_gaussian));
  return r->GetDouble(&state->spare_gaussian);
}

Status GetSize(storage::PayloadReader* r, std::size_t* size) {
  std::uint64_t u = 0;
  IPS_RETURN_IF_ERROR(r->GetU64(&u));
  *size = static_cast<std::size_t>(u);
  return Status::Ok();
}

Status ExpectAtEnd(const storage::PayloadReader& r, const char* section) {
  if (!r.AtEnd()) {
    return Status::DataLoss(std::string("section ") + section + " has " +
                            std::to_string(r.remaining()) +
                            " trailing bytes");
  }
  return Status::Ok();
}

// ---------------------------------------------------------------------
// Section payloads (bump the per-section version on any layout change).
// META (the settable engine options) and CALB (the warmup measurements)
// are at version 5, LSHT (CSR bucket arrays) at 2, and every other
// section at 1. This build reads only the versions it writes: a load
// rejects any other section version with kDataLoss naming the section,
// before decoding it.
// ---------------------------------------------------------------------

struct SectionVersion {
  std::uint32_t id;
  std::uint32_t version;
};

constexpr SectionVersion kSectionVersions[] = {
    {storage::kSectionMeta, 5},
    {storage::kSectionDataset, 1},
    {storage::kSectionProfile, 1},
    {storage::kSectionCalibration, 5},
    {storage::kSectionTree, 1},
    {storage::kSectionLshTables, 2},
    {storage::kSectionSketch, 1},
};

constexpr std::uint32_t VersionOf(std::uint32_t id) {
  for (const SectionVersion& entry : kSectionVersions) {
    if (entry.id == id) return entry.version;
  }
  return 0;
}

Status CheckSectionVersions(const std::vector<storage::SectionEntry>& sections,
                            const std::string& path) {
  for (const storage::SectionEntry& entry : sections) {
    const std::uint32_t expected = VersionOf(entry.id);
    if (expected != 0 && entry.version != expected) {
      return Status::DataLoss(
          path + ": section " + storage::SectionName(entry.id) +
          " is at version " + std::to_string(entry.version) +
          " but this build reads version " + std::to_string(expected));
    }
  }
  return Status::Ok();
}

std::vector<unsigned char> EncodeMeta(const EngineOptions& options) {
  storage::PayloadWriter w;
  w.PutU64(options.lsh_params.k);
  w.PutU64(options.lsh_params.l);
  w.PutDouble(options.sketch_params.kappa);
  w.PutU64(options.sketch_params.copies);
  w.PutDouble(options.sketch_params.bucket_multiplier);
  w.PutU64(options.sketch_params.leaf_size);
  w.PutU64(options.probe_queries);
  w.PutU64(options.probe_sample);
  w.PutU64(options.seed);
  w.PutU64(options.audit_every);
  return std::vector<unsigned char>(w.bytes().begin(), w.bytes().end());
}

Status DecodeMeta(std::span<const unsigned char> bytes,
                  EngineOptions* options) {
  storage::PayloadReader r(bytes, "META");
  IPS_RETURN_IF_ERROR(GetSize(&r, &options->lsh_params.k));
  IPS_RETURN_IF_ERROR(GetSize(&r, &options->lsh_params.l));
  IPS_RETURN_IF_ERROR(r.GetDouble(&options->sketch_params.kappa));
  IPS_RETURN_IF_ERROR(GetSize(&r, &options->sketch_params.copies));
  IPS_RETURN_IF_ERROR(
      r.GetDouble(&options->sketch_params.bucket_multiplier));
  IPS_RETURN_IF_ERROR(GetSize(&r, &options->sketch_params.leaf_size));
  IPS_RETURN_IF_ERROR(GetSize(&r, &options->probe_queries));
  IPS_RETURN_IF_ERROR(GetSize(&r, &options->probe_sample));
  IPS_RETURN_IF_ERROR(r.GetU64(&options->seed));
  IPS_RETURN_IF_ERROR(GetSize(&r, &options->audit_every));
  return ExpectAtEnd(r, "META");
}

std::vector<unsigned char> EncodeProfile(const DatasetProfile& profile) {
  storage::PayloadWriter w;
  w.PutU64(profile.n);
  w.PutU64(profile.dim);
  w.PutDouble(profile.min_norm);
  w.PutDouble(profile.max_norm);
  w.PutDouble(profile.mean_norm);
  return std::vector<unsigned char>(w.bytes().begin(), w.bytes().end());
}

Status DecodeProfile(std::span<const unsigned char> bytes,
                     DatasetProfile* profile) {
  storage::PayloadReader r(bytes, "PROF");
  IPS_RETURN_IF_ERROR(GetSize(&r, &profile->n));
  IPS_RETURN_IF_ERROR(GetSize(&r, &profile->dim));
  IPS_RETURN_IF_ERROR(r.GetDouble(&profile->min_norm));
  IPS_RETURN_IF_ERROR(r.GetDouble(&profile->max_norm));
  IPS_RETURN_IF_ERROR(r.GetDouble(&profile->mean_norm));
  return ExpectAtEnd(r, "PROF");
}

std::vector<unsigned char> EncodeCalibration(
    const PlannerCalibration& calib) {
  storage::PayloadWriter w;
  w.PutDouble(calib.tree_fraction);
  w.PutDouble(calib.lsh_candidate_fraction);
  w.PutDouble(calib.lsh_probe_overhead);
  w.PutDouble(calib.lsh_recall);
  w.PutDouble(calib.lsh_topk_recall);
  w.PutDouble(calib.sketch_recall);
  w.PutDouble(calib.sketch_cost);
  w.PutDouble(calib.quant_recall);
  w.PutDouble(calib.quant_cost_ratio);
  w.PutU64(calib.probe_queries);
  return std::vector<unsigned char>(w.bytes().begin(), w.bytes().end());
}

Status DecodeCalibration(std::span<const unsigned char> bytes,
                         PlannerCalibration* calib) {
  storage::PayloadReader r(bytes, "CALB");
  IPS_RETURN_IF_ERROR(r.GetDouble(&calib->tree_fraction));
  IPS_RETURN_IF_ERROR(r.GetDouble(&calib->lsh_candidate_fraction));
  IPS_RETURN_IF_ERROR(r.GetDouble(&calib->lsh_probe_overhead));
  IPS_RETURN_IF_ERROR(r.GetDouble(&calib->lsh_recall));
  IPS_RETURN_IF_ERROR(r.GetDouble(&calib->lsh_topk_recall));
  IPS_RETURN_IF_ERROR(r.GetDouble(&calib->sketch_recall));
  IPS_RETURN_IF_ERROR(r.GetDouble(&calib->sketch_cost));
  IPS_RETURN_IF_ERROR(r.GetDouble(&calib->quant_recall));
  IPS_RETURN_IF_ERROR(r.GetDouble(&calib->quant_cost_ratio));
  IPS_RETURN_IF_ERROR(GetSize(&r, &calib->probe_queries));
  return ExpectAtEnd(r, "CALB");
}

std::vector<unsigned char> EncodeTree(const MipsBallTree& tree,
                                      std::size_t cols) {
  storage::PayloadWriter w;
  w.PutU64(cols);
  w.PutI32(tree.root());
  w.PutU64(tree.nodes().size());
  for (const MipsBallTree::Node& node : tree.nodes()) {
    w.PutU64(node.begin);
    w.PutU64(node.end);
    w.PutI32(node.left);
    w.PutI32(node.right);
    w.PutDouble(node.radius);
    w.PutArray(node.center);
  }
  w.PutU64(tree.point_order().size());
  for (std::size_t p : tree.point_order()) w.PutU64(p);
  return std::vector<unsigned char>(w.bytes().begin(), w.bytes().end());
}

StatusOr<MipsBallTree> DecodeTree(std::span<const unsigned char> bytes,
                                  const Matrix& data) {
  storage::PayloadReader r(bytes, "TREE");
  std::uint64_t cols = 0;
  IPS_RETURN_IF_ERROR(r.GetU64(&cols));
  if (cols != data.cols()) {
    return Status::DataLoss("TREE section was built over " +
                            std::to_string(cols) +
                            "-dimensional data but the dataset has " +
                            std::to_string(data.cols()) + " columns");
  }
  std::int32_t root = 0;
  IPS_RETURN_IF_ERROR(r.GetI32(&root));
  // Per-node payload is 32 bytes + the center doubles, so a huge node
  // count in a damaged-but-CRC-valid payload fails the count read
  // before any large allocation.
  std::uint64_t num_nodes = 0;
  IPS_RETURN_IF_ERROR(r.GetCount(8 + 8 + 4 + 4 + 8 + cols * 8, &num_nodes));
  std::vector<MipsBallTree::Node> nodes(
      static_cast<std::size_t>(num_nodes));
  for (MipsBallTree::Node& node : nodes) {
    IPS_RETURN_IF_ERROR(GetSize(&r, &node.begin));
    IPS_RETURN_IF_ERROR(GetSize(&r, &node.end));
    std::int32_t left = 0;
    std::int32_t right = 0;
    IPS_RETURN_IF_ERROR(r.GetI32(&left));
    IPS_RETURN_IF_ERROR(r.GetI32(&right));
    node.left = left;
    node.right = right;
    IPS_RETURN_IF_ERROR(r.GetDouble(&node.radius));
    node.center.resize(static_cast<std::size_t>(cols));
    IPS_RETURN_IF_ERROR(r.GetArray(node.center));
  }
  std::uint64_t order_size = 0;
  IPS_RETURN_IF_ERROR(r.GetCount(8, &order_size));
  std::vector<std::size_t> point_order(
      static_cast<std::size_t>(order_size));
  for (std::size_t& p : point_order) IPS_RETURN_IF_ERROR(GetSize(&r, &p));
  IPS_RETURN_IF_ERROR(ExpectAtEnd(r, "TREE"));
  return MipsBallTree::Restore(data, std::move(nodes),
                               std::move(point_order), root);
}

// Each table is its BucketTable's arrays as they are: the bucket count
// B, the B keys, the B + 1 offsets and the rows. The row count is the
// dataset's, so the file does not repeat it.
std::vector<unsigned char> EncodeLshTables(const Rng::State& prebuild_state,
                                           const LshTables& tables) {
  storage::PayloadWriter w;
  PutRngState(&w, prebuild_state);
  w.PutU64(tables.params().k);
  w.PutU64(tables.params().l);
  for (std::size_t t = 0; t < tables.num_tables(); ++t) {
    const BucketTable& buckets = tables.buckets(t);
    w.PutU64(buckets.keys().size());
    w.PutArray(buckets.keys());
    w.PutArray(buckets.offsets());
    w.PutArray(buckets.rows());
  }
  return std::vector<unsigned char>(w.bytes().begin(), w.bytes().end());
}

struct DecodedLshTables {
  Rng::State prebuild_state;
  LshTableParams params;
  std::vector<BucketTable> buckets;
};

StatusOr<DecodedLshTables> DecodeLshTables(
    std::span<const unsigned char> bytes, std::size_t num_rows) {
  storage::PayloadReader r(bytes, "LSHT");
  DecodedLshTables decoded;
  IPS_RETURN_IF_ERROR(GetRngState(&r, &decoded.prebuild_state));
  IPS_RETURN_IF_ERROR(GetSize(&r, &decoded.params.k));
  // A table takes at least its bucket count, its first offset and its
  // n rows.
  std::uint64_t l = 0;
  IPS_RETURN_IF_ERROR(r.GetCount(8 + 4 + 4 * num_rows, &l));
  decoded.params.l = static_cast<std::size_t>(l);
  decoded.buckets.reserve(decoded.params.l);
  for (std::size_t t = 0; t < decoded.params.l; ++t) {
    // A bucket takes a key and an offset.
    std::uint64_t num_buckets = 0;
    IPS_RETURN_IF_ERROR(r.GetCount(8 + 4, &num_buckets));
    std::vector<std::uint64_t> keys(static_cast<std::size_t>(num_buckets));
    std::vector<std::uint32_t> offsets(keys.size() + 1);
    std::vector<std::uint32_t> rows(num_rows);
    IPS_RETURN_IF_ERROR(r.GetArray(keys));
    IPS_RETURN_IF_ERROR(r.GetArray(offsets));
    IPS_RETURN_IF_ERROR(r.GetArray(rows));
    auto table = BucketTable::FromArrays(std::move(keys), std::move(offsets),
                                         std::move(rows), num_rows);
    if (!table.ok()) {
      return Status::DataLoss("LSHT table " + std::to_string(t) + ": " +
                              table.status().message());
    }
    decoded.buckets.push_back(std::move(table).value());
  }
  IPS_RETURN_IF_ERROR(ExpectAtEnd(r, "LSHT"));
  return decoded;
}

std::vector<unsigned char> EncodeSketch(const Rng::State& prebuild_state) {
  storage::PayloadWriter w;
  PutRngState(&w, prebuild_state);
  return std::vector<unsigned char>(w.bytes().begin(), w.bytes().end());
}

Status DecodeSketch(std::span<const unsigned char> bytes,
                    Rng::State* prebuild_state) {
  storage::PayloadReader r(bytes, "SKCH");
  IPS_RETURN_IF_ERROR(GetRngState(&r, prebuild_state));
  return ExpectAtEnd(r, "SKCH");
}

// Reads section `id` through `read` and decodes it into `out`.
template <typename Read, typename T>
Status ReadDecoded(const Read& read, std::uint32_t id,
                   Status (*decode)(std::span<const unsigned char>, T*),
                   T* out) {
  auto bytes = read(id);
  IPS_RETURN_IF_ERROR(bytes.status());
  return decode(*bytes, out);
}

}  // namespace

Status Engine::SaveSnapshot(const std::string& dir) const {
  IPS_FAILPOINT("serve/snapshot-save");
  static Counter* const saves =
      MetricsRegistry::Global().GetCounter("serve.engine.snapshot.saves");
  IPS_RETURN_IF_ERROR(storage::EnsureDirectory(dir));
  auto created = storage::SnapshotWriter::Create(dir + kSnapshotFile);
  IPS_RETURN_IF_ERROR(created.status());
  storage::SnapshotWriter writer = std::move(created).value();

  // Built indexes are immutable and never freed, so the table is copied
  // under the lock and the file (including the O(n d) DSET stream) is
  // written without it: concurrent requests and builds do not stall.
  std::array<const MipsIndex*, kNumQueryAlgos> built{};
  std::array<Rng::State, kNumQueryAlgos> prebuild{};
  {
    MutexLock lock(build_mutex_);
    for (std::size_t a = 0; a < kNumQueryAlgos; ++a) {
      built[a] = slots_[a].index.get();
      prebuild[a] = slots_[a].prebuild;
    }
  }
  constexpr auto kTree = static_cast<std::size_t>(QueryAlgo::kBallTree);
  constexpr auto kLsh = static_cast<std::size_t>(QueryAlgo::kLsh);
  constexpr auto kSketch = static_cast<std::size_t>(QueryAlgo::kSketch);
  {
    const auto meta = EncodeMeta(options_);
    IPS_RETURN_IF_ERROR(writer.WriteSection(storage::kSectionMeta,
                                            VersionOf(storage::kSectionMeta),
                                            meta));
  }
  {
    // The dataset streams through the section writer exactly like
    // MatrixSnapshotWriter lays it out, so every matrix reader in the
    // storage layer (heap load, mmap view, block reader) understands
    // the engine snapshot's DSET section too.
    IPS_RETURN_IF_ERROR(writer.BeginSection(
        storage::kSectionDataset, VersionOf(storage::kSectionDataset)));
    unsigned char subheader[storage::kMatrixSubheaderBytes] = {};
    const std::uint64_t cols64 = data_.cols();
    std::memcpy(subheader, &cols64, sizeof(cols64));
    IPS_RETURN_IF_ERROR(writer.Append({subheader, sizeof(subheader)}));
    IPS_RETURN_IF_ERROR(writer.Append(
        {reinterpret_cast<const unsigned char*>(data_.raw()),
         data_.rows() * data_.cols() * sizeof(double)}));
    IPS_RETURN_IF_ERROR(writer.EndSection());
  }
  {
    const auto prof = EncodeProfile(profile_);
    IPS_RETURN_IF_ERROR(
        writer.WriteSection(storage::kSectionProfile,
                            VersionOf(storage::kSectionProfile), prof));
  }
  {
    const auto calib = EncodeCalibration(planner_->calibration());
    IPS_RETURN_IF_ERROR(
        writer.WriteSection(storage::kSectionCalibration,
                            VersionOf(storage::kSectionCalibration), calib));
  }
  // Slot a only ever holds the index type built for a, so the tree and
  // LSH slots cast to their concrete types.
  if (const auto* tree = static_cast<const TreeMipsIndex*>(built[kTree])) {
    IPS_RETURN_IF_ERROR(writer.WriteSection(
        storage::kSectionTree, VersionOf(storage::kSectionTree),
        EncodeTree(tree->tree(), data_.cols())));
  }
  if (const auto* lsh = static_cast<const LshMipsIndex*>(built[kLsh])) {
    IPS_RETURN_IF_ERROR(
        writer.WriteSection(storage::kSectionLshTables,
                            VersionOf(storage::kSectionLshTables),
                            EncodeLshTables(prebuild[kLsh], lsh->tables())));
  }
  if (built[kSketch] != nullptr) {
    IPS_RETURN_IF_ERROR(writer.WriteSection(
        storage::kSectionSketch, VersionOf(storage::kSectionSketch),
        EncodeSketch(prebuild[kSketch])));
  }
  IPS_RETURN_IF_ERROR(writer.Finish());
  saves->Increment();
  return Status::Ok();
}

StatusOr<std::unique_ptr<Engine>> Engine::CreateFromSnapshot(
    const std::string& dir, const SnapshotLoadOptions& load) {
  IPS_FAILPOINT("serve/snapshot-load");
  static Counter* const loads =
      MetricsRegistry::Global().GetCounter("serve.engine.snapshot.loads");
  const std::string path = dir + kSnapshotFile;

  // The structured sections are tiny; they are always copied out and
  // CRC-checked (by Map up front on the mmap path, by the reader
  // otherwise). Only the bulk dataset differs between the two paths.
  std::shared_ptr<storage::MappedSnapshot> mapped;
  std::unique_ptr<storage::SnapshotReader> reader;
  auto has_section = [&](std::uint32_t id) {
    return mapped != nullptr ? mapped->Find(id) != nullptr
                             : reader->Find(id) != nullptr;
  };
  auto read_section =
      [&](std::uint32_t id) -> StatusOr<std::vector<unsigned char>> {
    if (mapped != nullptr) {
      const storage::SectionEntry* entry = mapped->Find(id);
      if (entry == nullptr) {
        return Status::NotFound(path + " has no " +
                                storage::SectionName(id) + " section");
      }
      const auto bytes = mapped->SectionBytes(*entry);
      return std::vector<unsigned char>(bytes.begin(), bytes.end());
    }
    return reader->ReadSection(id);
  };

  Matrix data;
  if (load.use_mmap) {
    auto snap = storage::MappedSnapshot::Map(path);
    IPS_RETURN_IF_ERROR(snap.status());
    mapped = std::move(snap).value();
    IPS_RETURN_IF_ERROR(CheckSectionVersions(mapped->sections(), path));
    auto view = mapped->MapMatrixSection(storage::kSectionDataset);
    IPS_RETURN_IF_ERROR(view.status());
    data = std::move(view).value();
  } else {
    auto opened = storage::SnapshotReader::Open(path);
    IPS_RETURN_IF_ERROR(opened.status());
    reader = std::make_unique<storage::SnapshotReader>(
        std::move(opened).value());
    IPS_RETURN_IF_ERROR(CheckSectionVersions(reader->sections(), path));
    // DSET comes through the reader that serves every other section:
    // reopening the path could pick up a snapshot a concurrent save
    // renamed into place in between.
    auto loaded = storage::ReadMatrixSection(*reader);
    IPS_RETURN_IF_ERROR(loaded.status());
    data = std::move(loaded).value();
  }

  EngineOptions options;
  IPS_RETURN_IF_ERROR(
      ReadDecoded(read_section, storage::kSectionMeta, DecodeMeta, &options));
  // A CRC-valid META can still carry options Create would reject (a
  // zero audit_every divides by zero at the first audit).
  if (const Status valid = ValidateEngineOptions(options); !valid.ok()) {
    return Status::DataLoss(path + ": META holds invalid engine options: " +
                            valid.message());
  }
  DatasetProfile profile;
  IPS_RETURN_IF_ERROR(ReadDecoded(read_section, storage::kSectionProfile,
                                  DecodeProfile, &profile));
  if (profile.n != data.rows() || profile.dim != data.cols()) {
    return Status::DataLoss(
        path + ": PROF says " + std::to_string(profile.n) + "x" +
        std::to_string(profile.dim) + " but the DSET section holds " +
        std::to_string(data.rows()) + "x" + std::to_string(data.cols()));
  }
  PlannerCalibration calibration;
  IPS_RETURN_IF_ERROR(ReadDecoded(read_section, storage::kSectionCalibration,
                                  DecodeCalibration, &calibration));

  std::unique_ptr<Engine> engine(
      new Engine(std::move(data), options, profile));
  engine->planner_ =
      std::make_unique<Planner>(profile, calibration, options.audit_every);
  engine->data_keepalive_ = mapped;

  // Install every persisted index eagerly: the warm start's first
  // query must not pay a lazy build. Each slot gets the index type
  // BuildIndex would have built for it.
  MutexLock lock(engine->build_mutex_);
  auto& slots = engine->slots_;
  if (has_section(storage::kSectionTree)) {
    auto bytes = read_section(storage::kSectionTree);
    IPS_RETURN_IF_ERROR(bytes.status());
    auto tree = DecodeTree(*bytes, engine->data_);
    IPS_RETURN_IF_ERROR(tree.status());
    auto index =
        TreeMipsIndex::Restore(engine->data_, std::move(tree).value());
    IPS_RETURN_IF_ERROR(index.status());
    slots[static_cast<std::size_t>(QueryAlgo::kBallTree)].index =
        std::move(index).value();
  }
  if (has_section(storage::kSectionLshTables)) {
    if (profile.max_norm <= 0.0) {
      return Status::DataLoss(
          path + ": LSHT section present but PROF.max_norm is not "
                 "positive (the lsh path cannot have been built)");
    }
    auto bytes = read_section(storage::kSectionLshTables);
    IPS_RETURN_IF_ERROR(bytes.status());
    auto decoded = DecodeLshTables(*bytes, engine->data_.rows());
    IPS_RETURN_IF_ERROR(decoded.status());
    IndexSlot& slot = slots[static_cast<std::size_t>(QueryAlgo::kLsh)];
    slot.prebuild = decoded->prebuild_state;
    engine->build_rng_.RestoreState(slot.prebuild);
    auto index = LshMipsIndex::CreateFromBuckets(
        engine->data_, engine->lsh_transform_.get(), *engine->lsh_family_,
        decoded->params, &engine->build_rng_, std::move(decoded->buckets));
    IPS_RETURN_IF_ERROR(index.status());
    slot.index = std::move(index).value();
  }
  if (has_section(storage::kSectionSketch)) {
    IndexSlot& slot = slots[static_cast<std::size_t>(QueryAlgo::kSketch)];
    IPS_RETURN_IF_ERROR(ReadDecoded(read_section, storage::kSectionSketch,
                                    DecodeSketch, &slot.prebuild));
    engine->build_rng_.RestoreState(slot.prebuild);
    auto index = engine->BuildIndex(QueryAlgo::kSketch);
    IPS_RETURN_IF_ERROR(index.status());
    slot.index = std::move(index).value();
  }
  loads->Increment();
  return engine;
}

}  // namespace ips
