// Storage subsystem tests (DESIGN.md §12): snapshot round-trips must be
// exact, corruption must surface as kDataLoss naming the damaged
// section (never as wrong answers), writes must be atomic under
// injected failures, the mmap path must serve bit-identical results to
// the heap path, and the out-of-core blocked join must equal the
// monolithic in-memory join while holding peak RSS within its budget.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "core/dataset.h"
#include "linalg/kernels.h"
#include "linalg/matrix.h"
#include "lsh/bucket_join.h"
#include "lsh/simhash.h"
#include "lsh/tables.h"
#include "lsh/transforms.h"
#include "rng/random.h"
#include "serve/engine.h"
#include "serve/sharded_engine.h"
#include "storage/blocked_join.h"
#include "storage/file.h"
#include "storage/format.h"
#include "storage/snapshot.h"
#include "util/failpoint.h"
#include "util/status.h"

namespace ips {
namespace {

class StorageTest : public ::testing::Test {
 protected:
  void TearDown() override { Failpoints::DisarmAll(); }
};

std::string TempPath(const std::string& name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

Matrix RandomMatrix(std::size_t rows, std::size_t cols,
                    std::uint64_t seed) {
  Rng rng(seed);
  Matrix m(rows, cols);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) {
      m.At(i, j) = rng.NextGaussian();
    }
  }
  return m;
}

void ExpectBitwiseEqual(const Matrix& a, const Matrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      ASSERT_EQ(a.At(i, j), b.At(i, j)) << "at (" << i << ", " << j << ")";
    }
  }
}

// Flips one byte of `path` in place (bit-rot simulation).
void FlipByte(const std::string& path, std::size_t offset) {
  std::fstream file(path,
                    std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(file.is_open());
  file.seekg(static_cast<std::streamoff>(offset));
  char byte = 0;
  file.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x40);
  file.seekp(static_cast<std::streamoff>(offset));
  file.write(&byte, 1);
  ASSERT_TRUE(file.good());
}

// Truncates `path` to `new_size` bytes via rewrite.
void Truncate(const std::string& path, std::size_t new_size) {
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.is_open());
  std::vector<char> bytes(new_size);
  in.read(bytes.data(), static_cast<std::streamsize>(new_size));
  ASSERT_EQ(static_cast<std::size_t>(in.gcount()), new_size);
  in.close();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(new_size));
  ASSERT_TRUE(out.good());
}

std::size_t FileSize(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  return static_cast<std::size_t>(in.tellg());
}

// --- Format primitives ---

TEST_F(StorageTest, Crc32ChainsAcrossChunks) {
  const std::vector<unsigned char> bytes = {1, 2, 3, 4, 5, 6, 7, 8, 9};
  const std::uint32_t whole = storage::Crc32(bytes);
  const std::uint32_t first =
      storage::Crc32({bytes.data(), 4});
  const std::uint32_t chained =
      storage::Crc32({bytes.data() + 4, bytes.size() - 4}, first);
  EXPECT_EQ(whole, chained);
  // Regression pin: CRC32 of "123456789" is the classic check value.
  const unsigned char check[] = {'1', '2', '3', '4', '5',
                                 '6', '7', '8', '9'};
  EXPECT_EQ(storage::Crc32({check, 9}), 0xCBF43926u);
}

TEST_F(StorageTest, SectionNamesRenderFourCcs) {
  EXPECT_EQ(storage::SectionName(storage::kSectionDataset), "DSET");
  EXPECT_EQ(storage::SectionName(storage::kSectionMeta), "META");
  // Unprintable ids fall back to hex.
  EXPECT_EQ(storage::SectionName(7)[0], '0');
}

// --- Matrix snapshot round-trips ---

TEST_F(StorageTest, MatrixRoundTripIsBitwiseExact) {
  const Matrix original = RandomMatrix(97, 13, 1);
  const std::string path = TempPath("roundtrip.ips");
  ASSERT_TRUE(storage::SaveMatrixSnapshot(original, path).ok());
  auto loaded = storage::LoadMatrixSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectBitwiseEqual(original, *loaded);
  EXPECT_FALSE(loaded->is_view());
}

TEST_F(StorageTest, MmapLoadMatchesHeapLoadAndIsAligned) {
  const Matrix original = RandomMatrix(64, 17, 2);
  const std::string path = TempPath("mmap.ips");
  ASSERT_TRUE(storage::SaveMatrixSnapshot(original, path).ok());
  auto mapped = storage::MapMatrixSnapshot(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  EXPECT_TRUE(mapped->matrix.is_view());
  // The zero-copy doubles must be aligned for the SIMD kernels.
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(mapped->matrix.raw()) %
                storage::kSectionAlignment,
            0u);
  ExpectBitwiseEqual(original, mapped->matrix);
}

TEST_F(StorageTest, StreamingWriterAndBlockReaderRoundTrip) {
  const std::size_t cols = 5;
  const Matrix original = RandomMatrix(100, cols, 3);
  const std::string path = TempPath("streamed.ips");
  auto writer = storage::MatrixSnapshotWriter::Create(path, cols);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  // Append in ragged chunks to exercise the running CRC.
  std::size_t row = 0;
  for (std::size_t chunk : {7u, 31u, 1u, 50u, 11u}) {
    ASSERT_TRUE(
        writer->AppendRows({original.raw() + row * cols, chunk * cols})
            .ok());
    row += chunk;
  }
  ASSERT_EQ(row, 100u);
  EXPECT_EQ(writer->rows_written(), 100u);
  ASSERT_TRUE(writer->Finish().ok());

  auto reader = storage::MatrixBlockReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_EQ(reader->rows(), 100u);
  EXPECT_EQ(reader->cols(), cols);
  Matrix block;
  ASSERT_TRUE(reader->ReadRows(13, 20, &block).ok());
  ASSERT_EQ(block.rows(), 20u);
  for (std::size_t i = 0; i < 20; ++i) {
    for (std::size_t j = 0; j < cols; ++j) {
      ASSERT_EQ(block.At(i, j), original.At(13 + i, j));
    }
  }
  EXPECT_EQ(reader->ReadRows(90, 20, &block).code(),
            StatusCode::kOutOfRange);
  // Whole-file loaders understand the streamed layout too.
  auto loaded = storage::LoadMatrixSnapshot(path);
  ASSERT_TRUE(loaded.ok());
  ExpectBitwiseEqual(original, *loaded);
}

// --- Corruption ---

TEST_F(StorageTest, BitFlipInPayloadIsDataLossNamingTheSection) {
  const Matrix original = RandomMatrix(32, 8, 4);
  const std::string path = TempPath("bitflip.ips");
  ASSERT_TRUE(storage::SaveMatrixSnapshot(original, path).ok());
  // Header is 32 bytes, the DSET payload starts at the first aligned
  // offset (64) and its doubles after the 64-byte subheader.
  FlipByte(path, 150);
  auto loaded = storage::LoadMatrixSnapshot(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(loaded.status().message().find("DSET"), std::string::npos)
      << loaded.status().ToString();
  // The mmap path refuses the same damage up front.
  auto mapped = storage::MapMatrixSnapshot(path);
  ASSERT_FALSE(mapped.ok());
  EXPECT_EQ(mapped.status().code(), StatusCode::kDataLoss);
}

TEST_F(StorageTest, TruncationIsRejected) {
  const Matrix original = RandomMatrix(32, 8, 5);
  const std::string path = TempPath("truncated.ips");
  ASSERT_TRUE(storage::SaveMatrixSnapshot(original, path).ok());
  Truncate(path, FileSize(path) - 10);
  auto loaded = storage::LoadMatrixSnapshot(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
}

TEST_F(StorageTest, BadMagicIsInvalidArgument) {
  const Matrix original = RandomMatrix(8, 4, 6);
  const std::string path = TempPath("badmagic.ips");
  ASSERT_TRUE(storage::SaveMatrixSnapshot(original, path).ok());
  FlipByte(path, 0);
  auto loaded = storage::LoadMatrixSnapshot(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(StorageTest, MissingFileIsNotFound) {
  auto loaded = storage::LoadMatrixSnapshot(TempPath("nope.ips"));
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

TEST_F(StorageTest, FailedSaveLeavesPreviousSnapshotIntact) {
  const Matrix v1 = RandomMatrix(16, 4, 7);
  const Matrix v2 = RandomMatrix(16, 4, 8);
  const std::string path = TempPath("atomic.ips");
  ASSERT_TRUE(storage::SaveMatrixSnapshot(v1, path).ok());
  {
    ScopedFailpoint fp("storage/rename");
    EXPECT_FALSE(storage::SaveMatrixSnapshot(v2, path).ok());
  }
  {
    ScopedFailpoint fp("storage/write");
    EXPECT_FALSE(storage::SaveMatrixSnapshot(v2, path).ok());
  }
  // Both failed publishes left v1 readable and unchanged.
  auto loaded = storage::LoadMatrixSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectBitwiseEqual(v1, *loaded);
  // And the writer is not poisoned: the next save goes through.
  ASSERT_TRUE(storage::SaveMatrixSnapshot(v2, path).ok());
  auto reloaded = storage::LoadMatrixSnapshot(path);
  ASSERT_TRUE(reloaded.ok());
  ExpectBitwiseEqual(v2, *reloaded);
}

// --- Engine snapshots ---

EngineOptions SmallEngineOptions() {
  EngineOptions options;
  options.lsh_params = {.k = 4, .l = 8};
  options.probe_queries = 4;
  options.probe_sample = 64;
  options.seed = 42;
  return options;
}

// Queries the engine on `algo` (forced) for a few data rows and
// returns (index, score) pairs.
std::vector<std::pair<std::size_t, double>> ForcedAnswers(
    const Engine& engine, QueryAlgo algo) {
  QueryOptions options;
  options.force_algorithm = algo;
  if (algo == QueryAlgo::kSketch) {
    options.is_signed = false;
    options.k = 1;
  }
  std::vector<std::pair<std::size_t, double>> answers;
  for (std::size_t row : {0u, 17u, 63u}) {
    auto result = engine.Query({engine.data().Row(row), options});
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    if (!result.ok()) continue;
    for (const SearchMatch& match : result->matches) {
      answers.emplace_back(match.index, match.value);
    }
  }
  return answers;
}

TEST_F(StorageTest, EngineSnapshotRoundTripServesIdenticalAnswers) {
  auto cold = Engine::Create(RandomMatrix(128, 12, 9), SmallEngineOptions());
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  for (QueryAlgo algo : {QueryAlgo::kBruteForce, QueryAlgo::kBallTree,
                         QueryAlgo::kLsh, QueryAlgo::kSketch}) {
    ASSERT_TRUE((*cold)->EnsureIndex(algo).ok());
  }
  const std::string dir = TempPath("engine_snap");
  ASSERT_TRUE((*cold)->SaveSnapshot(dir).ok());

  for (const bool use_mmap : {false, true}) {
    SnapshotLoadOptions load;
    load.use_mmap = use_mmap;
    auto warm = Engine::CreateFromSnapshot(dir, load);
    ASSERT_TRUE(warm.ok()) << warm.status().ToString();
    EXPECT_EQ((*warm)->data().is_view(), use_mmap);
    ExpectBitwiseEqual((*cold)->data(), (*warm)->data());
    // The persisted calibration replaces the micro-probe warmup.
    const PlannerCalibration& a = (*cold)->planner().calibration();
    const PlannerCalibration& b = (*warm)->planner().calibration();
    EXPECT_EQ(a.tree_fraction, b.tree_fraction);
    EXPECT_EQ(a.lsh_candidate_fraction, b.lsh_candidate_fraction);
    EXPECT_EQ(a.lsh_recall, b.lsh_recall);
    EXPECT_EQ(a.sketch_recall, b.sketch_recall);
    EXPECT_EQ(a.probe_queries, b.probe_queries);
    // Every restored index answers bit-identically to the builder's.
    for (QueryAlgo algo : {QueryAlgo::kBruteForce, QueryAlgo::kBallTree,
                           QueryAlgo::kLsh, QueryAlgo::kSketch}) {
      EXPECT_EQ(ForcedAnswers(**cold, algo), ForcedAnswers(**warm, algo))
          << "algo " << QueryAlgoName(algo)
          << (use_mmap ? " (mmap)" : " (heap)");
    }
  }
}

constexpr QueryAlgo kAllAlgos[] = {QueryAlgo::kBruteForce,
                                   QueryAlgo::kBallTree, QueryAlgo::kLsh,
                                   QueryAlgo::kSketch};

// The 128x12 engine every engine-snapshot pin below is taken on, with
// all four indexes built.
std::unique_ptr<Engine> PinnedEngine() {
  auto engine =
      Engine::Create(RandomMatrix(128, 12, 9), SmallEngineOptions());
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  if (!engine.ok()) return nullptr;
  for (QueryAlgo algo : kAllAlgos) {
    EXPECT_TRUE((*engine)->EnsureIndex(algo).ok()) << QueryAlgoName(algo);
  }
  return std::move(engine).value();
}

// Section fourcc -> payload CRC32 of the engine snapshot in `dir`.
std::map<std::string, std::uint32_t> SectionCrcs(const std::string& dir) {
  std::map<std::string, std::uint32_t> crcs;
  auto reader = storage::SnapshotReader::Open(dir + "/snapshot.ips");
  EXPECT_TRUE(reader.ok()) << reader.status().ToString();
  if (!reader.ok()) return crcs;
  for (const storage::SectionEntry& entry : reader->sections()) {
    crcs[storage::SectionName(entry.id)] = entry.crc32;
  }
  return crcs;
}

std::uint64_t Bits(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

// One pinned top-1 answer. The scores differ in the last place between
// the AVX2 and the scalar kernel tables (different summation order), so
// each dispatch has its own bits; the indices agree.
struct PinnedAnswer {
  std::size_t index;
  std::uint64_t avx2_bits;
  std::uint64_t scalar_bits;
};

TEST_F(StorageTest, EngineSnapshotSectionsAndForcedAnswersArePinned) {
  // Regression pin for the engine's index table and snapshot writer:
  // the CRC32 of every section of a snapshot holding all four indexes,
  // and each forced path's top-1 answer (index and score bits) for 8
  // fixed queries. The CRCs are the same under both kernel tables.
  const std::unique_ptr<Engine> engine = PinnedEngine();
  ASSERT_NE(engine, nullptr);
  const std::string dir = TempPath("engine_pin_snap");
  ASSERT_TRUE(engine->SaveSnapshot(dir).ok());
  const std::map<std::string, std::uint32_t> expected_crcs = {
      {"META", 0x249DF856u}, {"DSET", 0x120DDA2Cu}, {"PROF", 0x8BF5D5C6u},
      {"CALB", 0x7B2794DEu}, {"TREE", 0x945AAB79u}, {"LSHT", 0x3E55579Fu},
      {"SKCH", 0x7D4A1DD7u}};
  EXPECT_EQ(SectionCrcs(dir), expected_crcs);

  const std::vector<PinnedAnswer> brute = {
      {76, 0x4021F1C0A5F0C1E7ull, 0x4021F1C0A5F0C1E7ull},
      {82, 0x401FD5C255F1131Eull, 0x401FD5C255F1131Dull},
      {23, 0x4027737B7BEA6B90ull, 0x4027737B7BEA6B90ull},
      {56, 0x401EA61090766877ull, 0x401EA61090766878ull},
      {89, 0x4030410B04523D86ull, 0x4030410B04523D85ull},
      {84, 0x4018803228C03531ull, 0x4018803228C03530ull},
      {78, 0x4024A066E456D1BEull, 0x4024A066E456D1BEull},
      {77, 0x40159A9AB671DCD6ull, 0x40159A9AB671DCD6ull}};
  // The tree is exact: the same answers as brute force.
  const std::vector<PinnedAnswer>& tree = brute;
  std::vector<PinnedAnswer> lsh = brute;
  lsh[7] = {10, 0x40122FECC2A23FDEull, 0x40122FECC2A23FDDull};
  const std::vector<PinnedAnswer> sketch = {
      {46, 0x401BFB947BAB69D3ull, 0x401BFB947BAB69D3ull},
      {95, 0x40218F236AF251D6ull, 0x40218F236AF251D6ull},
      brute[2], brute[3], brute[4], brute[5],
      {50, 0x4025E76ADC31E689ull, 0x4025E76ADC31E689ull},
      lsh[7]};
  const std::vector<PinnedAnswer>* pinned[] = {&brute, &tree, &lsh, &sketch};

  const bool scalar = std::string(kernels::ActiveOps().name) == "scalar";
  const Matrix queries = RandomMatrix(8, 12, 77);
  for (QueryAlgo algo : kAllAlgos) {
    QueryOptions options;
    options.force_algorithm = algo;
    options.is_signed = algo != QueryAlgo::kSketch;
    const std::vector<PinnedAnswer>& want =
        *pinned[static_cast<std::size_t>(algo)];
    for (std::size_t i = 0; i < queries.rows(); ++i) {
      auto result = engine->Query({queries.Row(i), options});
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      ASSERT_EQ(result->matches.size(), 1u);
      EXPECT_EQ(result->matches[0].index, want[i].index)
          << QueryAlgoName(algo) << " query " << i;
      EXPECT_EQ(Bits(result->matches[0].value),
                scalar ? want[i].scalar_bits : want[i].avx2_bits)
          << QueryAlgoName(algo) << " query " << i;
    }
  }
}

std::vector<char> FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  return std::vector<char>(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
}

TEST_F(StorageTest, EngineSnapshotResaveIsByteIdentical) {
  // save(load(save(E))) == save(E) byte for byte, on both load paths: a
  // warm start restores every index slot (artifact and pre-build rng
  // state) exactly, and the writer's output does not depend on
  // hash-map iteration order.
  const std::unique_ptr<Engine> engine = PinnedEngine();
  ASSERT_NE(engine, nullptr);
  const std::string dir = TempPath("engine_resave_snap");
  ASSERT_TRUE(engine->SaveSnapshot(dir).ok());
  const std::vector<char> original = FileBytes(dir + "/snapshot.ips");
  ASSERT_FALSE(original.empty());
  for (const bool use_mmap : {false, true}) {
    SnapshotLoadOptions load;
    load.use_mmap = use_mmap;
    auto warm = Engine::CreateFromSnapshot(dir, load);
    ASSERT_TRUE(warm.ok()) << warm.status().ToString();
    const std::string resave_dir =
        TempPath(use_mmap ? "engine_resave_mmap" : "engine_resave_heap");
    ASSERT_TRUE((*warm)->SaveSnapshot(resave_dir).ok());
    EXPECT_EQ(SectionCrcs(resave_dir), SectionCrcs(dir))
        << (use_mmap ? "mmap" : "heap");
    EXPECT_TRUE(FileBytes(resave_dir + "/snapshot.ips") == original)
        << (use_mmap ? "mmap" : "heap");
  }
}

TEST_F(StorageTest, SaveSnapshotRunsConcurrentlyWithServingAndBuilds) {
  // One thread saves repeatedly while another serves and builds the LSH
  // index mid-way. Every saved snapshot must load and answer like the
  // writer on each index it holds (the LSH one only once it was built).
  auto engine =
      Engine::Create(RandomMatrix(128, 12, 9), SmallEngineOptions());
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  const Engine& writer = **engine;
  ASSERT_TRUE(writer.EnsureIndex(QueryAlgo::kBallTree).ok());
  constexpr std::size_t kSaves = 8;
  std::vector<Status> saves(kSaves);
  std::thread saver([&] {
    for (std::size_t i = 0; i < kSaves; ++i) {
      saves[i] =
          writer.SaveSnapshot(TempPath("concurrent_save_" + std::to_string(i)));
    }
  });
  Status serving;
  for (std::size_t i = 0; i < 64 && serving.ok(); ++i) {
    if (i == 16) serving = writer.EnsureIndex(QueryAlgo::kLsh);
    QueryOptions options;
    options.force_algorithm = i < 16 ? QueryAlgo::kBallTree : QueryAlgo::kLsh;
    auto result = writer.Query({writer.data().Row(i), options});
    if (!result.ok()) serving = result.status();
  }
  saver.join();
  ASSERT_TRUE(serving.ok()) << serving.ToString();

  for (std::size_t i = 0; i < kSaves; ++i) {
    ASSERT_TRUE(saves[i].ok()) << saves[i].ToString();
    const std::string dir = TempPath("concurrent_save_" + std::to_string(i));
    auto reader = storage::SnapshotReader::Open(dir + "/snapshot.ips");
    ASSERT_TRUE(reader.ok()) << reader.status().ToString();
    const bool has_lsh = reader->Find(storage::kSectionLshTables) != nullptr;
    auto warm = Engine::CreateFromSnapshot(dir);
    ASSERT_TRUE(warm.ok()) << warm.status().ToString();
    for (QueryAlgo algo : {QueryAlgo::kBruteForce, QueryAlgo::kBallTree}) {
      EXPECT_EQ(ForcedAnswers(writer, algo), ForcedAnswers(**warm, algo))
          << "save " << i << " algo " << QueryAlgoName(algo);
    }
    if (has_lsh) {
      EXPECT_EQ(ForcedAnswers(writer, QueryAlgo::kLsh),
                ForcedAnswers(**warm, QueryAlgo::kLsh))
          << "save " << i;
    }
  }
}

TEST_F(StorageTest, EngineSnapshotWithoutIndexesRebuildsLazily) {
  auto cold = Engine::Create(RandomMatrix(96, 6, 10), SmallEngineOptions());
  ASSERT_TRUE(cold.ok());
  const std::string dir = TempPath("engine_lazy_snap");
  ASSERT_TRUE((*cold)->SaveSnapshot(dir).ok());
  auto warm = Engine::CreateFromSnapshot(dir);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  // No index sections were persisted; the first query builds lazily
  // and agrees with the engine that wrote the snapshot.
  QueryOptions options;
  options.force_algorithm = QueryAlgo::kBruteForce;
  auto expected = (*cold)->Query({(*cold)->data().Row(0), options});
  auto result = (*warm)->Query({(*warm)->data().Row(0), options});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_TRUE(expected.ok());
  ASSERT_FALSE(result->matches.empty());
  EXPECT_EQ(result->matches[0].index, expected->matches[0].index);
  EXPECT_EQ(result->matches[0].value, expected->matches[0].value);
}

TEST_F(StorageTest, EngineSnapshotCorruptTreeSectionIsDataLoss) {
  auto cold = Engine::Create(RandomMatrix(64, 8, 11), SmallEngineOptions());
  ASSERT_TRUE(cold.ok());
  ASSERT_TRUE((*cold)->EnsureIndex(QueryAlgo::kBallTree).ok());
  const std::string dir = TempPath("engine_corrupt_snap");
  ASSERT_TRUE((*cold)->SaveSnapshot(dir).ok());
  const std::string path = dir + "/snapshot.ips";
  // Damage the TREE payload (CRC catches it at load).
  auto reader = storage::SnapshotReader::Open(path);
  ASSERT_TRUE(reader.ok());
  const storage::SectionEntry* tree = reader->Find(storage::kSectionTree);
  ASSERT_NE(tree, nullptr);
  FlipByte(path, static_cast<std::size_t>(tree->offset) + 9);
  auto warm = Engine::CreateFromSnapshot(dir);
  ASSERT_FALSE(warm.ok());
  EXPECT_EQ(warm.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(warm.status().message().find("TREE"), std::string::npos)
      << warm.status().ToString();
}

// Rewrites the snapshot file `file` in `dir` (the engine's by default)
// through SnapshotWriter, passing every section's version and payload
// through `edit(id, &version, &bytes)` first. Every CRC stays valid, so
// a load sees only the edit.
template <typename Edit>
void RewriteSections(const std::string& dir, Edit edit,
                     const std::string& file = "snapshot.ips") {
  const std::string path = dir + "/" + file;
  std::vector<std::tuple<std::uint32_t, std::uint32_t,
                         std::vector<unsigned char>>>
      sections;
  {
    auto reader = storage::SnapshotReader::Open(path);
    ASSERT_TRUE(reader.ok()) << reader.status().ToString();
    for (const storage::SectionEntry& entry : reader->sections()) {
      auto bytes = reader->ReadSection(entry.id);
      ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
      sections.emplace_back(entry.id, entry.version, std::move(bytes).value());
    }
  }
  auto writer = storage::SnapshotWriter::Create(path);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  for (auto& [id, version, bytes] : sections) {
    ASSERT_NO_FATAL_FAILURE(edit(id, &version, &bytes));
    ASSERT_TRUE(writer->WriteSection(id, version, bytes).ok());
  }
  ASSERT_TRUE(writer->Finish().ok());
}

// Zeroes META's audit_every (bytes 72-79, its tenth and last field):
// the decoded options are ones Engine::Create would reject.
void ZeroMetaAuditEvery(const std::string& dir) {
  RewriteSections(dir, [](std::uint32_t id, std::uint32_t*,
                          std::vector<unsigned char>* bytes) {
    if (id != storage::kSectionMeta) return;
    ASSERT_EQ(bytes->size(), 80u);
    std::fill(bytes->begin() + 72, bytes->begin() + 80, 0);
  });
}

TEST_F(StorageTest, EngineSnapshotSectionVersionMismatchIsDataLoss) {
  // A section whose stored version differs from the one this build
  // writes is rejected before it is decoded, naming the section and
  // both versions. META and CALB at version 4 are the layouts that
  // still carried the recall margin (and, in META, the tree leaf size
  // and the feedback switch, decay and min-observations). LSHT at
  // version 1 is the (key, count, rows) run layout before the CSR
  // arrays.
  auto cold = Engine::Create(RandomMatrix(64, 8, 15), SmallEngineOptions());
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  ASSERT_TRUE((*cold)->EnsureIndex(QueryAlgo::kBallTree).ok());
  ASSERT_TRUE((*cold)->EnsureIndex(QueryAlgo::kLsh).ok());
  struct Skew {
    std::uint32_t id;
    std::uint32_t stored;
    const char* name;
    const char* current;
  };
  for (const Skew skew : {Skew{storage::kSectionMeta, 4, "META", "5"},
                          Skew{storage::kSectionCalibration, 4, "CALB", "5"},
                          Skew{storage::kSectionTree, 2, "TREE", "1"},
                          Skew{storage::kSectionLshTables, 1, "LSHT", "2"}}) {
    const std::string dir = TempPath(std::string("engine_skew_") + skew.name);
    ASSERT_TRUE((*cold)->SaveSnapshot(dir).ok());
    ASSERT_NO_FATAL_FAILURE(RewriteSections(
        dir, [&](std::uint32_t id, std::uint32_t* version,
                 std::vector<unsigned char>*) {
          if (id == skew.id) *version = skew.stored;
        }));
    for (const bool use_mmap : {false, true}) {
      SCOPED_TRACE(std::string(skew.name) + (use_mmap ? " mmap" : " heap"));
      SnapshotLoadOptions load;
      load.use_mmap = use_mmap;
      auto warm = Engine::CreateFromSnapshot(dir, load);
      ASSERT_FALSE(warm.ok());
      EXPECT_EQ(warm.status().code(), StatusCode::kDataLoss);
      const std::string& message = warm.status().message();
      EXPECT_NE(message.find(skew.name), std::string::npos) << message;
      EXPECT_NE(message.find("version " + std::to_string(skew.stored)),
                std::string::npos)
          << message;
      EXPECT_NE(message.find(std::string("version ") + skew.current),
                std::string::npos)
          << message;
    }
  }
}

std::uint64_t U64At(const std::vector<unsigned char>& bytes,
                    std::size_t offset) {
  std::uint64_t value = 0;
  EXPECT_LE(offset + sizeof(value), bytes.size());
  if (offset + sizeof(value) <= bytes.size()) {
    std::memcpy(&value, bytes.data() + offset, sizeof(value));
  }
  return value;
}

template <typename T>
void PutAt(std::vector<unsigned char>* bytes, std::size_t offset, T value) {
  ASSERT_LE(offset + sizeof(value), bytes->size());
  std::memcpy(bytes->data() + offset, &value, sizeof(value));
}

// Payload offsets: TREE holds cols (8 B), root (4 B), the node count and
// then 32 + 8 * cols bytes per node before the point-order count; LSHT
// holds the 48-byte pre-build rng state, k and l before table 0's
// bucket count B, its B keys, its B + 1 u32 offsets and its rows.
constexpr std::size_t kTreeNodeCount = 12;
constexpr std::size_t kLshtFirstTable = 48 + 8 + 8;

// Loads the engine snapshot in `dir` on both paths; each must be
// kDataLoss naming `section` and saying `why`.
void ExpectDataLossNaming(const std::string& dir, const std::string& section,
                          const std::string& why) {
  for (const bool use_mmap : {false, true}) {
    SCOPED_TRACE(section + (use_mmap ? " mmap" : " heap"));
    SnapshotLoadOptions load;
    load.use_mmap = use_mmap;
    auto warm = Engine::CreateFromSnapshot(dir, load);
    ASSERT_FALSE(warm.ok());
    EXPECT_EQ(warm.status().code(), StatusCode::kDataLoss);
    EXPECT_NE(warm.status().message().find(section), std::string::npos)
        << warm.status().ToString();
    EXPECT_NE(warm.status().message().find(why), std::string::npos)
        << warm.status().ToString();
  }
}

TEST_F(StorageTest, EngineSnapshotOverflowingCountsAreDataLoss) {
  // Element counts whose byte size wraps 64 bits, planted in CRC-valid
  // sections. A length check that multiplies such a count wraps and
  // passes it, and the allocation sized by the count then throws
  // (bad_alloc, or a vector length error) out of CreateFromSnapshot; a
  // DSET column count whose row size wraps to 0 divides by zero.
  auto cold = Engine::Create(RandomMatrix(64, 8, 16), SmallEngineOptions());
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  ASSERT_TRUE((*cold)->EnsureIndex(QueryAlgo::kBallTree).ok());
  ASSERT_TRUE((*cold)->EnsureIndex(QueryAlgo::kLsh).ok());
  constexpr std::uint64_t kNodeBytes = 32 + 8 * 8;
  struct Plant {
    const char* what;
    std::uint32_t id;
    const char* section;
    const char* why;
    std::uint64_t count;
  };
  for (const Plant plant :
       {Plant{"lsh_buckets", storage::kSectionLshTables, "LSHT", "claims",
              (1ULL << 60) + 1},
        // 2^59 nodes of 96 bytes wrap to exactly 0 bytes.
        Plant{"tree_nodes", storage::kSectionTree, "TREE", "claims",
              1ULL << 59},
        Plant{"tree_order", storage::kSectionTree, "TREE", "claims",
              (1ULL << 61) + 1},
        // The subheader's first word: 2^61 columns of 8 bytes wrap to 0.
        Plant{"dset_cols", storage::kSectionDataset, "matrix section",
              "not a whole number", 1ULL << 61}}) {
    SCOPED_TRACE(plant.what);
    const std::string dir =
        TempPath(std::string("engine_overflow_") + plant.what);
    ASSERT_TRUE((*cold)->SaveSnapshot(dir).ok());
    ASSERT_NO_FATAL_FAILURE(RewriteSections(
        dir, [&](std::uint32_t id, std::uint32_t*,
                 std::vector<unsigned char>* bytes) {
          if (id != plant.id) return;
          std::size_t offset = 0;
          if (id == storage::kSectionLshTables) offset = kLshtFirstTable;
          if (id == storage::kSectionTree) {
            offset = kTreeNodeCount;
            if (std::string(plant.what) == "tree_order") {
              offset += 8 + U64At(*bytes, kTreeNodeCount) * kNodeBytes;
            }
          }
          PutAt(bytes, offset, plant.count);
        }));
    ExpectDataLossNaming(dir, plant.section, plant.why);
  }

  ShardedEngineOptions sharded_options;
  sharded_options.num_shards = 2;
  sharded_options.engine = SmallEngineOptions();
  auto sharded =
      ShardedEngine::Create(RandomMatrix(96, 8, 17), sharded_options);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  const std::string sharded_dir = TempPath("sharded_overflow_snap");
  ASSERT_TRUE((*sharded)->SaveSnapshot(sharded_dir).ok());
  ASSERT_NO_FATAL_FAILURE(RewriteSections(
      sharded_dir,
      [](std::uint32_t id, std::uint32_t*, std::vector<unsigned char>* bytes) {
        if (id == storage::kSectionMeta) PutAt(bytes, 0, (1ULL << 61) + 1);
      },
      "sharded.ips"));
  for (const bool use_mmap : {false, true}) {
    SnapshotLoadOptions load;
    load.use_mmap = use_mmap;
    auto warm = ShardedEngine::CreateFromSnapshot(sharded_dir, {}, load);
    ASSERT_FALSE(warm.ok()) << (use_mmap ? "mmap" : "heap");
    EXPECT_EQ(warm.status().code(), StatusCode::kDataLoss);
    EXPECT_NE(warm.status().message().find("section META claims"),
              std::string::npos)
        << warm.status().ToString();
  }
}

TEST_F(StorageTest, EngineSnapshotMalformedBucketArraysAreDataLoss) {
  // CRC-valid LSHT payloads whose table 0 breaks a BucketTable
  // invariant: BucketTable::FromArrays rejects each before any lookup
  // could read past the rows.
  constexpr std::size_t kRows = 64;
  auto cold =
      Engine::Create(RandomMatrix(kRows, 8, 18), SmallEngineOptions());
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  ASSERT_TRUE((*cold)->EnsureIndex(QueryAlgo::kLsh).ok());
  const std::pair<const char*, const char*> edits[] = {
      {"swapped_keys", "breaks the ascending key or offset order"},
      {"offsets_end_short", "to 63 over 64 rows"},
      {"row_past_n", "row 64 is out of range"}};
  for (const auto& [what, why] : edits) {
    SCOPED_TRACE(what);
    const std::string dir = TempPath(std::string("engine_bad_lsht_") + what);
    ASSERT_TRUE((*cold)->SaveSnapshot(dir).ok());
    ASSERT_NO_FATAL_FAILURE(RewriteSections(
        dir, [&](std::uint32_t id, std::uint32_t*,
                 std::vector<unsigned char>* bytes) {
          if (id != storage::kSectionLshTables) return;
          const std::uint64_t buckets = U64At(*bytes, kLshtFirstTable);
          ASSERT_GE(buckets, 2u);
          const std::size_t keys = kLshtFirstTable + 8;
          const std::size_t offsets = keys + 8 * buckets;
          const std::size_t rows = offsets + 4 * (buckets + 1);
          const std::string edit = what;
          if (edit == "swapped_keys") {
            const std::uint64_t first = U64At(*bytes, keys);
            PutAt(bytes, keys, U64At(*bytes, keys + 8));
            PutAt(bytes, keys + 8, first);
          } else if (edit == "offsets_end_short") {
            PutAt(bytes, offsets + 4 * buckets,
                  static_cast<std::uint32_t>(kRows - 1));
          } else {
            PutAt(bytes, rows, static_cast<std::uint32_t>(kRows));
          }
        }));
    ExpectDataLossNaming(dir, "LSHT", why);
  }
}

TEST_F(StorageTest, EngineSnapshotWithInvalidMetaOptionsIsDataLoss) {
  // Loading such a snapshot used to succeed, and the first audited
  // query then divided by the zero audit_every.
  auto cold = Engine::Create(RandomMatrix(128, 12, 13), SmallEngineOptions());
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  const std::string dir = TempPath("engine_bad_meta_snap");
  ASSERT_TRUE((*cold)->SaveSnapshot(dir).ok());
  ASSERT_NO_FATAL_FAILURE(ZeroMetaAuditEvery(dir));

  ShardedEngineOptions sharded_options;
  sharded_options.num_shards = 2;
  sharded_options.engine = SmallEngineOptions();
  auto sharded =
      ShardedEngine::Create(RandomMatrix(96, 8, 14), sharded_options);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  const std::string sharded_dir = TempPath("sharded_bad_meta_snap");
  ASSERT_TRUE((*sharded)->SaveSnapshot(sharded_dir).ok());
  ASSERT_NO_FATAL_FAILURE(ZeroMetaAuditEvery(sharded_dir + "/shard_1"));

  for (const bool use_mmap : {false, true}) {
    SnapshotLoadOptions load;
    load.use_mmap = use_mmap;
    auto warm = Engine::CreateFromSnapshot(dir, load);
    ASSERT_FALSE(warm.ok()) << (use_mmap ? "mmap" : "heap");
    EXPECT_EQ(warm.status().code(), StatusCode::kDataLoss);
    EXPECT_NE(warm.status().message().find("META"), std::string::npos)
        << warm.status().ToString();

    auto warm_sharded =
        ShardedEngine::CreateFromSnapshot(sharded_dir, {}, load);
    ASSERT_FALSE(warm_sharded.ok()) << (use_mmap ? "mmap" : "heap");
    EXPECT_EQ(warm_sharded.status().code(), StatusCode::kDataLoss);
    EXPECT_NE(warm_sharded.status().message().find("shard 1"),
              std::string::npos)
        << warm_sharded.status().ToString();
    EXPECT_NE(warm_sharded.status().message().find("META"),
              std::string::npos)
        << warm_sharded.status().ToString();
  }
}

TEST_F(StorageTest, MissingSnapshotDirectoryIsNotFound) {
  auto warm = Engine::CreateFromSnapshot(TempPath("no_such_dir"));
  EXPECT_EQ(warm.status().code(), StatusCode::kNotFound);
}

// --- ShardedEngine snapshots ---

TEST_F(StorageTest, ShardedSnapshotRoundTripServesIdenticalAnswers) {
  ShardedEngineOptions options;
  options.num_shards = 3;
  options.engine = SmallEngineOptions();
  auto cold = ShardedEngine::Create(RandomMatrix(120, 8, 12), options);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  ASSERT_TRUE((*cold)->EnsureIndex(QueryAlgo::kBallTree).ok());
  const std::string dir = TempPath("sharded_snap");
  ASSERT_TRUE((*cold)->SaveSnapshot(dir).ok());

  // Reload with a different serving policy: the partition comes from
  // the snapshot, the policy from the caller.
  ShardedEngineOptions policy;
  policy.num_shards = 999;  // ignored: the manifest dictates 3
  policy.hedge = false;
  auto warm = ShardedEngine::CreateFromSnapshot(dir, policy);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_EQ((*warm)->num_shards(), 3u);
  EXPECT_FALSE((*warm)->options().hedge);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ((*warm)->shard_offset(i), (*cold)->shard_offset(i));
  }
  QueryOptions query_options;
  query_options.k = 3;
  query_options.force_algorithm = QueryAlgo::kBallTree;
  for (std::size_t row : {0u, 59u, 119u}) {
    const auto q = (*cold)->shard(0).data().Row(0);
    (void)row;
    auto a = (*cold)->Query({q, query_options});
    auto b = (*warm)->Query({q, query_options});
    ASSERT_TRUE(a.ok() && b.ok());
    ASSERT_EQ(a->matches.size(), b->matches.size());
    for (std::size_t m = 0; m < a->matches.size(); ++m) {
      EXPECT_EQ(a->matches[m].index, b->matches[m].index);
      EXPECT_EQ(a->matches[m].value, b->matches[m].value);
    }
  }
}

// --- Out-of-core blocked join ---

// The pair-count identity bucket_join.h promises for every join result.
void ExpectPairCountIdentity(const MetricSet& metrics) {
  EXPECT_EQ(metrics.Get("lsh.join.candidate_pairs"),
            metrics.Get("lsh.join.verified_pairs") +
                metrics.Get("lsh.join.duplicate_pairs") +
                metrics.Get("lsh.join.pairs_prefiltered"));
}

TEST_F(StorageTest, BlockedJoinEqualsMonolithicJoin) {
  const std::size_t dim = 16;
  const Matrix data = RandomMatrix(512, dim, 13);
  const Matrix queries = RandomMatrix(256, dim, 14);
  const std::string data_path = TempPath("join_data.ips");
  const std::string queries_path = TempPath("join_queries.ips");
  ASSERT_TRUE(storage::SaveMatrixSnapshot(data, data_path).ok());
  ASSERT_TRUE(storage::SaveMatrixSnapshot(queries, queries_path).ok());

  const SimHashFamily family(dim);
  storage::BlockedJoinOptions options;
  options.params = {.k = 3, .l = 6};
  options.s_threshold = 2.0;
  options.cs_threshold = 0.5;
  options.is_signed = true;
  options.seed = 99;
  options.block_rows = 128;  // 4 data blocks x 2 query blocks

  storage::BlockedJoinStats stats;
  auto blocked = storage::BlockedBucketJoin(family, data_path,
                                            queries_path, options, &stats);
  ASSERT_TRUE(blocked.ok()) << blocked.status().ToString();
  EXPECT_EQ(stats.data_blocks, 4u);
  EXPECT_EQ(stats.query_blocks, 2u);
  EXPECT_EQ(stats.block_pairs, 8u);
  EXPECT_GT(stats.bytes_read, 0u);

  Rng rng(options.seed);
  const BucketJoinResult monolithic = LshBucketJoin(
      family, data, data, queries, queries, options.s_threshold,
      options.cs_threshold, options.is_signed, options.params, &rng);

  ASSERT_EQ(blocked->per_query.size(), monolithic.per_query.size());
  std::size_t matched = 0;
  for (std::size_t q = 0; q < monolithic.per_query.size(); ++q) {
    const auto& expected = monolithic.per_query[q];
    const auto& got = blocked->per_query[q];
    ASSERT_EQ(got.has_value(), expected.has_value()) << "query " << q;
    if (expected.has_value()) {
      EXPECT_EQ(got->first, expected->first) << "query " << q;
      EXPECT_EQ(got->second, expected->second) << "query " << q;
      ++matched;
    }
  }
  // The thresholds were chosen so the join actually joins something.
  EXPECT_GT(matched, 0u);
  ExpectPairCountIdentity(blocked->metrics);
}

// The IPS path the out-of-core join runs in practice: a composed
// DualBall + SimHash family over original rows. The blocked join must
// equal the monolithic join over pre-transformed hash-space copies
// hashed by the base family, and the monolithic join under the composed
// family must equal that same run, pair counts included — both forms
// draw the same hash functions from the same seed.
TEST_F(StorageTest, BlockedJoinEqualsMonolithicJoinUnderTransform) {
  const std::size_t dim = 16;
  Rng planted_rng(21);
  const PlantedInstance planted =
      MakePlantedInstance(512, 256, dim, 0.9, 1.0, &planted_rng);
  const std::string data_path = TempPath("ips_join_data.ips");
  const std::string queries_path = TempPath("ips_join_queries.ips");
  ASSERT_TRUE(storage::SaveMatrixSnapshot(planted.data, data_path).ok());
  ASSERT_TRUE(
      storage::SaveMatrixSnapshot(planted.queries, queries_path).ok());

  const DualBallTransform transform(dim, 1.0);
  const SimHashFamily base(transform.output_dim());
  const TransformedLshFamily family(&transform, &base);
  storage::BlockedJoinOptions options;
  options.params = {.k = 6, .l = 16};
  options.s_threshold = 0.8;
  options.cs_threshold = 0.6;
  options.is_signed = true;
  options.seed = 101;
  // 4 data blocks x 2 query blocks; a multiple of the int8 row-block
  // size, so every block quantizes its rows exactly as the monolithic
  // join does and even the prefilter count matches.
  options.block_rows = 128;

  storage::BlockedJoinStats stats;
  auto blocked = storage::BlockedBucketJoin(family, data_path,
                                            queries_path, options, &stats);
  ASSERT_TRUE(blocked.ok()) << blocked.status().ToString();
  EXPECT_EQ(stats.block_pairs, 8u);

  const Matrix hash_data = transform.TransformDataset(planted.data);
  const Matrix hash_queries = transform.TransformQueries(planted.queries);
  Rng base_rng(options.seed);
  const BucketJoinResult monolithic = LshBucketJoin(
      base, hash_data, planted.data, hash_queries, planted.queries,
      options.s_threshold, options.cs_threshold, options.is_signed,
      options.params, &base_rng);
  Rng composed_rng(options.seed);
  const BucketJoinResult composed = LshBucketJoin(
      family, planted.data, planted.data, planted.queries, planted.queries,
      options.s_threshold, options.cs_threshold, options.is_signed,
      options.params, &composed_rng);

  const BucketJoinResult& blocked_result = *blocked;
  ASSERT_EQ(blocked_result.per_query.size(), monolithic.per_query.size());
  ASSERT_EQ(composed.per_query.size(), monolithic.per_query.size());
  std::size_t matched = 0;
  for (std::size_t q = 0; q < monolithic.per_query.size(); ++q) {
    const auto& expected = monolithic.per_query[q];
    for (const BucketJoinResult* run : {&blocked_result, &composed}) {
      const auto& got = run->per_query[q];
      ASSERT_EQ(got.has_value(), expected.has_value()) << "query " << q;
      if (!expected.has_value()) continue;
      EXPECT_EQ(got->first, expected->first) << "query " << q;
      EXPECT_EQ(got->second, expected->second) << "query " << q;
    }
    if (expected.has_value()) ++matched;
  }
  // Planted near-duplicates: nearly every query finds its partner.
  EXPECT_GT(matched, 200u);
  for (const char* name :
       {"lsh.join.candidate_pairs", "lsh.join.verified_pairs",
        "lsh.join.duplicate_pairs", "lsh.join.pairs_prefiltered"}) {
    EXPECT_EQ(composed.metrics.Get(name), monolithic.metrics.Get(name))
        << name;
    EXPECT_EQ(blocked_result.metrics.Get(name),
              monolithic.metrics.Get(name))
        << name;
  }
  EXPECT_GT(monolithic.metrics.Get("lsh.join.pairs_prefiltered"), 0u);
  ExpectPairCountIdentity(blocked_result.metrics);
  ExpectPairCountIdentity(composed.metrics);
}

TEST_F(StorageTest, BlockedJoinValidatesInputs) {
  const SimHashFamily family(4);
  storage::BlockedJoinOptions options;
  options.memory_budget_bytes = 0;
  auto result = storage::BlockedBucketJoin(
      family, TempPath("a.ips"), TempPath("b.ips"), options);
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

// A 64 MiB on-disk dataset of Gaussian rows times `scale` joined under
// a 16 MiB budget with `family` (over 64-dim rows): the join must
// complete and the process peak RSS must grow by no more than the budget
// plus a fixed slack — proof the dataset never became resident at once.
void ExpectBlockedJoinWithinBudget(const LshFamily& family, double scale,
                                   const std::string& prefix) {
  const std::size_t dim = 64;
  const std::size_t rows = 131072;  // x 64 cols x 8 B = 64 MiB
  const std::size_t budget = 16u << 20;
  ASSERT_EQ(family.dim(), dim);
  const std::string data_path = TempPath(prefix + "_data.ips");
  {
    auto writer = storage::MatrixSnapshotWriter::Create(data_path, dim);
    ASSERT_TRUE(writer.ok());
    Rng rng(15);
    std::vector<double> chunk(4096 * dim);
    for (std::size_t written = 0; written < rows; written += 4096) {
      for (double& v : chunk) v = scale * rng.NextGaussian();
      ASSERT_TRUE(writer->AppendRows(chunk).ok());
    }
    ASSERT_TRUE(writer->Finish().ok());
  }
  const std::string queries_path = TempPath(prefix + "_queries.ips");
  Matrix queries = RandomMatrix(256, dim, 16);
  for (std::size_t i = 0; i < queries.rows(); ++i) {
    for (double& v : queries.Row(i)) v *= scale;
  }
  ASSERT_TRUE(storage::SaveMatrixSnapshot(queries, queries_path).ok());

  storage::BlockedJoinOptions options;
  options.memory_budget_bytes = budget;
  options.params = {.k = 10, .l = 4};
  options.s_threshold = 64.0 * scale * scale;
  options.cs_threshold = 48.0 * scale * scale;
  options.seed = 17;

  const std::size_t rss_before = storage::PeakRssBytes();
  storage::BlockedJoinStats stats;
  auto result = storage::BlockedBucketJoin(family, data_path, queries_path,
                                           options, &stats);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const std::size_t rss_after = storage::PeakRssBytes();

  EXPECT_EQ(stats.data_rows, rows);
  EXPECT_EQ(result->per_query.size(), 256u);
  ASSERT_GT(rows * dim * sizeof(double), 3 * budget)
      << "dataset must exceed the budget for this test to mean anything";
  ExpectPairCountIdentity(result->metrics);
  // Slack covers the allocator, the result vector, and the per-pair
  // hash tables; it is far below the 64 MiB the dataset would cost
  // resident.
  const std::size_t slack = 16u << 20;
  EXPECT_LE(rss_after - rss_before, budget + slack)
      << "peak RSS grew by " << (rss_after - rss_before) / (1 << 20)
      << " MiB during a " << budget / (1 << 20) << " MiB-budget join";
}

bool UnderSanitizer() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
  return true;
#endif
#endif
  return false;
}

TEST_F(StorageTest, BlockedJoinStaysWithinMemoryBudget) {
  if (UnderSanitizer()) {
    GTEST_SKIP() << "RSS accounting is not meaningful under sanitizers";
  }
  const SimHashFamily family(64);
  ExpectBlockedJoinWithinBudget(family, 1.0, "oocore");
}

// The composed IPS family: the blocked join also holds the two
// hash-space copies (64 -> 66 columns) of the resident blocks. Rows are
// scaled into the unit ball the dual-ball map requires (norms ~0.5).
TEST_F(StorageTest, BlockedJoinUnderTransformStaysWithinMemoryBudget) {
  if (UnderSanitizer()) {
    GTEST_SKIP() << "RSS accounting is not meaningful under sanitizers";
  }
  const DualBallTransform transform(64, 1.0);
  const SimHashFamily base(transform.output_dim());
  const TransformedLshFamily family(&transform, &base);
  ExpectBlockedJoinWithinBudget(family, 1.0 / 16, "oocore_ips");
}

}  // namespace
}  // namespace ips
