// Copyright 2026 The ipsjoin Authors.
// Licensed under the Apache License, Version 2.0.
//
// Snapshot files: the writer/reader pair over the sectioned format of
// format.h, plus the Matrix-specific helpers the rest of the tree uses.
//
// Writing is atomic (FileWriter tmp + rename): a crash mid-save leaves
// any previous snapshot untouched. Reading is checksummed: every load
// path verifies the per-section CRC32 (the out-of-core block reader may
// skip it) and damaged bytes surface as kDataLoss naming the section.
//
// A Matrix lives in a DSET section as a 64-byte subheader holding the
// column count followed by the row-major doubles; the row count is
// derived from the section size, so the streaming writer never patches
// the subheader and the section CRC stays a single forward pass. The
// payload starts 64-byte aligned, so MappedSnapshot::MapMatrixSection
// can serve the doubles zero-copy through Matrix::View.
//
// Thread-safety: deliberately lock-free (audited, ipslint lock-order
// pass). SnapshotWriter/SnapshotReader and the Matrix helpers are
// single-owner value types — writer state (open section, running CRC,
// offsets) is confined to the constructing thread, never shared, so
// there is nothing for IPS_GUARDED_BY to guard. MappedSnapshot is
// immutable after Map() and safe to share across threads via
// shared_ptr (how ShardedEngine hands one snapshot to every shard).

#ifndef IPS_STORAGE_SNAPSHOT_H_
#define IPS_STORAGE_SNAPSHOT_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "linalg/matrix.h"
#include "storage/file.h"
#include "storage/format.h"
#include "util/status.h"

namespace ips {
namespace storage {

/// Bytes of the DSET subheader (= kSectionAlignment so the doubles that
/// follow stay aligned).
inline constexpr std::size_t kMatrixSubheaderBytes = kSectionAlignment;

/// Sequential snapshot writer. Whole sections go through WriteSection;
/// the bulk dataset streams through BeginSection/Append/EndSection with
/// a running CRC. Finish writes the section table and header and
/// publishes the file atomically.
class SnapshotWriter {
 public:
  [[nodiscard]] static StatusOr<SnapshotWriter> Create(
      const std::string& path);

  SnapshotWriter(SnapshotWriter&&) = default;
  SnapshotWriter& operator=(SnapshotWriter&&) = default;

  /// Appends one complete section.
  [[nodiscard]] Status WriteSection(std::uint32_t id, std::uint32_t version,
                                    std::span<const unsigned char> payload);

  /// Opens a streaming section; Append in any chunking, then EndSection.
  [[nodiscard]] Status BeginSection(std::uint32_t id, std::uint32_t version);
  [[nodiscard]] Status Append(std::span<const unsigned char> bytes);
  [[nodiscard]] Status EndSection();

  /// Section table + header + atomic publish. The writer is inert after.
  [[nodiscard]] Status Finish();

 private:
  explicit SnapshotWriter(FileWriter file) : file_(std::move(file)) {}

  /// Zero-pads the file to the next section-aligned offset.
  Status PadToAlignment();

  FileWriter file_;
  std::vector<SectionEntry> sections_;
  bool in_section_ = false;
  std::uint32_t running_crc_ = 0;
};

/// Snapshot reader over a FileReader: parses and validates the header
/// and section table at Open, verifies section CRCs on read.
class SnapshotReader {
 public:
  [[nodiscard]] static StatusOr<SnapshotReader> Open(const std::string& path);

  SnapshotReader(SnapshotReader&&) = default;
  SnapshotReader& operator=(SnapshotReader&&) = default;

  const std::vector<SectionEntry>& sections() const { return sections_; }

  /// The entry for `id`, or null when the snapshot has no such section.
  const SectionEntry* Find(std::uint32_t id) const;

  /// Reads section `id` fully and verifies its CRC. NotFound when the
  /// section is absent, kDataLoss on a checksum mismatch.
  [[nodiscard]] StatusOr<std::vector<unsigned char>> ReadSection(
      std::uint32_t id) const;

  /// Streaming CRC verification of one section through a bounded
  /// buffer (no allocation proportional to the section).
  [[nodiscard]] Status VerifySection(const SectionEntry& entry) const;

  /// VerifySection over every section in the table.
  [[nodiscard]] Status VerifyAllSections() const;

  const FileReader& file() const { return file_; }
  const std::string& path() const { return file_.path(); }

 private:
  explicit SnapshotReader(FileReader file) : file_(std::move(file)) {}

  FileReader file_;
  std::vector<SectionEntry> sections_;
};

/// Geometry of a Matrix stored in a DSET-layout section.
struct MatrixSectionInfo {
  std::uint64_t rows = 0;
  std::uint64_t cols = 0;
  /// Absolute file offset of the first double.
  std::uint64_t doubles_offset = 0;
};

/// Parses and validates the subheader of matrix section `entry`.
[[nodiscard]] StatusOr<MatrixSectionInfo> ParseMatrixSection(
    const SnapshotReader& reader, const SectionEntry& entry);

/// Whole-file mmap of a snapshot, shared by every Matrix::View serving
/// from it (hold the shared_ptr as long as any view lives).
class MappedSnapshot {
 public:
  /// Maps `path`, parses the header and section table, and verifies
  /// every section CRC up front (touching every page once).
  [[nodiscard]] static StatusOr<std::shared_ptr<MappedSnapshot>> Map(
      const std::string& path);

  const std::vector<SectionEntry>& sections() const { return sections_; }
  const SectionEntry* Find(std::uint32_t id) const;

  /// The mapped payload bytes of `entry`.
  std::span<const unsigned char> SectionBytes(const SectionEntry& entry) const;

  /// Zero-copy Matrix::View over the doubles of matrix section `id`.
  /// The view is valid while this MappedSnapshot lives.
  [[nodiscard]] StatusOr<Matrix> MapMatrixSection(std::uint32_t id) const;

  const std::string& path() const { return file_.path(); }

 private:
  explicit MappedSnapshot(MappedFile file) : file_(std::move(file)) {}

  MappedFile file_;
  std::vector<SectionEntry> sections_;
};

// ---------------------------------------------------------------------
// Matrix snapshot conveniences: a single-DSET snapshot file.
// ---------------------------------------------------------------------

/// Saves `matrix` as a one-section snapshot at `path` (atomic).
[[nodiscard]] Status SaveMatrixSnapshot(const Matrix& matrix,
                                        const std::string& path);

/// Reads the DSET section of an open snapshot into an owning Matrix,
/// verifying the CRC. The doubles are read straight into the matrix
/// storage (no transient second copy of the dataset).
[[nodiscard]] StatusOr<Matrix> ReadMatrixSection(const SnapshotReader& reader);

/// Opens `path` and reads its DSET section (ReadMatrixSection).
[[nodiscard]] StatusOr<Matrix> LoadMatrixSnapshot(const std::string& path);

/// A zero-copy matrix view plus the mapping that keeps it alive.
struct MappedMatrix {
  std::shared_ptr<MappedSnapshot> snapshot;
  Matrix matrix;  // view into the mapping
};

/// Maps a matrix snapshot for zero-copy serving.
[[nodiscard]] StatusOr<MappedMatrix> MapMatrixSnapshot(
    const std::string& path);

/// Streams a matrix of unknown row count to a snapshot file in bounded
/// memory — how the out-of-core join's inputs are generated without
/// ever holding the dataset in RAM.
class MatrixSnapshotWriter {
 public:
  [[nodiscard]] static StatusOr<MatrixSnapshotWriter> Create(
      const std::string& path, std::size_t cols);

  MatrixSnapshotWriter(MatrixSnapshotWriter&&) = default;
  MatrixSnapshotWriter& operator=(MatrixSnapshotWriter&&) = default;

  /// Appends whole rows; `row_major.size()` must be a multiple of cols.
  [[nodiscard]] Status AppendRows(std::span<const double> row_major);

  std::size_t rows_written() const { return rows_written_; }

  /// Closes the section and publishes the file atomically.
  [[nodiscard]] Status Finish();

 private:
  MatrixSnapshotWriter(SnapshotWriter writer, std::size_t cols)
      : writer_(std::move(writer)), cols_(cols) {}

  SnapshotWriter writer_;
  std::size_t cols_ = 0;
  std::size_t rows_written_ = 0;
};

/// Random access to row ranges of an on-disk matrix snapshot through a
/// bounded buffer — the blocked join's data source. Opening verifies the
/// section CRC with a streaming pass (skippable for pre-verified files).
class MatrixBlockReader {
 public:
  [[nodiscard]] static StatusOr<MatrixBlockReader> Open(
      const std::string& path, bool verify_checksums = true);

  MatrixBlockReader(MatrixBlockReader&&) = default;
  MatrixBlockReader& operator=(MatrixBlockReader&&) = default;

  std::size_t rows() const { return static_cast<std::size_t>(info_.rows); }
  std::size_t cols() const { return static_cast<std::size_t>(info_.cols); }

  /// Reads rows [row_begin, row_begin + count) into `out`, reusing its
  /// storage when the shape already matches (no steady-state
  /// allocation in the block loop).
  [[nodiscard]] Status ReadRows(std::size_t row_begin, std::size_t count,
                                Matrix* out) const;

 private:
  MatrixBlockReader(SnapshotReader reader, MatrixSectionInfo info)
      : reader_(std::move(reader)), info_(info) {}

  SnapshotReader reader_;
  MatrixSectionInfo info_;
};

}  // namespace storage
}  // namespace ips

#endif  // IPS_STORAGE_SNAPSHOT_H_
