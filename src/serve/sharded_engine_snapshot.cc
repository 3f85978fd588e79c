// Copyright 2026 The ipsjoin Authors.
// Licensed under the Apache License, Version 2.0.
//
// ShardedEngine persistence: a manifest file recording the partition
// geometry plus one per-shard Engine snapshot directory. The shard
// snapshots are written first and the manifest last, so a reader that
// finds a valid manifest finds valid shards beneath it.

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "serve/engine.h"
#include "serve/sharded_engine.h"
#include "storage/file.h"
#include "storage/format.h"
#include "storage/snapshot.h"
#include "util/failpoint.h"

namespace ips {
namespace {

constexpr char kManifestFile[] = "/sharded.ips";

std::string ShardDir(const std::string& dir, std::size_t i) {
  return dir + "/shard_" + std::to_string(i);
}

struct Manifest {
  std::uint64_t num_shards = 0;
  std::uint64_t dim = 0;
  std::vector<std::uint64_t> offsets;
};

Status DecodeManifest(std::span<const unsigned char> bytes,
                      Manifest* manifest) {
  storage::PayloadReader r(bytes, "META");
  // The dim word sits between the count and its offsets, so this bound
  // is one shard loose; the offsets read still checks every byte.
  IPS_RETURN_IF_ERROR(r.GetCount(8, &manifest->num_shards));
  IPS_RETURN_IF_ERROR(r.GetU64(&manifest->dim));
  manifest->offsets.resize(static_cast<std::size_t>(manifest->num_shards));
  IPS_RETURN_IF_ERROR(r.GetArray(manifest->offsets));
  if (!r.AtEnd()) {
    return Status::DataLoss("sharded manifest has " +
                            std::to_string(r.remaining()) +
                            " trailing bytes");
  }
  return Status::Ok();
}

}  // namespace

Status ShardedEngine::SaveSnapshot(const std::string& dir) const {
  IPS_FAILPOINT("serve/snapshot-save");
  IPS_RETURN_IF_ERROR(storage::EnsureDirectory(dir));
  // Shards first, manifest last: the manifest is the commit point a
  // loader starts from.
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    IPS_RETURN_IF_ERROR(shards_[i]->engine->SaveSnapshot(ShardDir(dir, i)));
  }
  storage::PayloadWriter w;
  w.PutU64(shards_.size());
  w.PutU64(dim_);
  for (const auto& shard : shards_) w.PutU64(shard->offset);
  auto created = storage::SnapshotWriter::Create(dir + kManifestFile);
  IPS_RETURN_IF_ERROR(created.status());
  storage::SnapshotWriter writer = std::move(created).value();
  IPS_RETURN_IF_ERROR(
      writer.WriteSection(storage::kSectionMeta, 1, w.bytes()));
  return writer.Finish();
}

StatusOr<std::unique_ptr<ShardedEngine>> ShardedEngine::CreateFromSnapshot(
    const std::string& dir, ShardedEngineOptions options,
    const SnapshotLoadOptions& load) {
  IPS_FAILPOINT("serve/snapshot-load");
  auto opened = storage::SnapshotReader::Open(dir + kManifestFile);
  IPS_RETURN_IF_ERROR(opened.status());
  auto bytes = opened->ReadSection(storage::kSectionMeta);
  IPS_RETURN_IF_ERROR(bytes.status());
  Manifest manifest;
  IPS_RETURN_IF_ERROR(DecodeManifest(*bytes, &manifest));
  if (manifest.num_shards < 1) {
    return Status::DataLoss(dir + kManifestFile + ": zero shards");
  }

  // The snapshot dictates the partition; the caller dictates the
  // serving policy around it.
  options.num_shards = static_cast<std::size_t>(manifest.num_shards);
  IPS_RETURN_IF_ERROR(ValidateOptions(options));

  std::unique_ptr<ShardedEngine> sharded(new ShardedEngine(
      options, static_cast<std::size_t>(manifest.dim)));
  std::size_t expected_offset = 0;
  for (std::size_t i = 0; i < options.num_shards; ++i) {
    auto engine = Engine::CreateFromSnapshot(ShardDir(dir, i), load);
    if (!engine.ok()) {
      return Status(engine.status().code(),
                    "shard " + std::to_string(i) +
                        " load failed: " + engine.status().message());
    }
    if ((*engine)->dim() != sharded->dim_) {
      return Status::DataLoss(
          "shard " + std::to_string(i) + " snapshot is " +
          std::to_string((*engine)->dim()) +
          "-dimensional but the manifest says " +
          std::to_string(sharded->dim_));
    }
    if (manifest.offsets[i] != expected_offset) {
      return Status::DataLoss(
          "shard " + std::to_string(i) + " manifest offset " +
          std::to_string(manifest.offsets[i]) +
          " does not match the " + std::to_string(expected_offset) +
          " rows of the preceding shards");
    }
    auto shard = std::make_unique<Shard>();
    shard->engine = std::move(engine).value();
    shard->offset = expected_offset;
    expected_offset += shard->engine->data().rows();
    sharded->shards_.push_back(std::move(shard));
  }
  return sharded;
}

}  // namespace ips
