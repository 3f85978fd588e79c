// Copyright 2026 The ipsjoin Authors.
// Licensed under the Apache License, Version 2.0.
//
// The on-disk snapshot format (DESIGN.md §12): one file holding a fixed
// 32-byte header, N sections of payload bytes, and a section table. All
// integers are little-endian; every section carries a CRC32 so torn
// writes and bit rot surface as kDataLoss at load time instead of as
// wrong answers at query time.
//
//   [ FileHeader (32 B) ]
//   [ section 0 payload ]   <- 64-byte aligned offset
//   [ section 1 payload ]   <- 64-byte aligned offset
//   ...
//   [ section table: N x SectionEntry (32 B each) ]
//
// The header is written last (the file is assembled under a temporary
// name and renamed into place, so readers only ever see complete
// snapshots); its own CRC covers the preceding header fields. Section
// payloads are aligned to kSectionAlignment so a page-aligned mmap of
// the file yields 64-byte-aligned payload pointers — the DSET section
// serves query traffic zero-copy through Matrix::View.

#ifndef IPS_STORAGE_FORMAT_H_
#define IPS_STORAGE_FORMAT_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "util/status.h"

namespace ips {
namespace storage {

/// First 8 bytes of every snapshot file.
inline constexpr char kMagic[8] = {'I', 'P', 'S', 'S', 'N', 'A', 'P', '1'};

/// Format version this build writes (and the only one it reads).
inline constexpr std::uint32_t kFormatVersion = 1;

/// Section payloads start at multiples of this (so mmap'ed payloads are
/// cacheline/SIMD aligned) and the DSET subheader is exactly this long.
inline constexpr std::size_t kSectionAlignment = 64;

/// Header `flags` value: records the writer's byte order (the format is
/// little-endian; a big-endian writer would need byte swapping, which
/// this build does not implement and the reader rejects).
inline constexpr std::uint32_t kFlagLittleEndian = 1;

/// Section identifiers (fourcc, little-endian u32).
constexpr std::uint32_t FourCc(char a, char b, char c, char d) {
  return static_cast<std::uint32_t>(static_cast<unsigned char>(a)) |
         static_cast<std::uint32_t>(static_cast<unsigned char>(b)) << 8 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(c)) << 16 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(d)) << 24;
}

inline constexpr std::uint32_t kSectionMeta = FourCc('M', 'E', 'T', 'A');
inline constexpr std::uint32_t kSectionDataset = FourCc('D', 'S', 'E', 'T');
inline constexpr std::uint32_t kSectionProfile = FourCc('P', 'R', 'O', 'F');
inline constexpr std::uint32_t kSectionCalibration =
    FourCc('C', 'A', 'L', 'B');
inline constexpr std::uint32_t kSectionTree = FourCc('T', 'R', 'E', 'E');
inline constexpr std::uint32_t kSectionLshTables = FourCc('L', 'S', 'H', 'T');
inline constexpr std::uint32_t kSectionSketch = FourCc('S', 'K', 'C', 'H');

/// "META", "DSET", ... for messages; "0x…" for unknown ids.
std::string SectionName(std::uint32_t id);

/// Fixed 32-byte file header.
struct FileHeader {
  char magic[8];                      // kMagic
  std::uint32_t version = 0;          // kFormatVersion
  std::uint32_t section_count = 0;
  std::uint64_t section_table_offset = 0;
  std::uint32_t flags = 0;            // kFlagLittleEndian
  std::uint32_t header_crc = 0;       // CRC32 of the 28 bytes above
};
static_assert(sizeof(FileHeader) == 32, "FileHeader must pack to 32 bytes");

/// One section-table row (32 bytes).
struct SectionEntry {
  std::uint32_t id = 0;        // fourcc
  std::uint32_t version = 0;   // per-section payload version
  std::uint64_t offset = 0;    // payload start, multiple of 64
  std::uint64_t size = 0;      // payload bytes
  std::uint32_t crc32 = 0;     // CRC32 of the payload
  std::uint32_t reserved = 0;
};
static_assert(sizeof(SectionEntry) == 32, "SectionEntry must pack to 32 bytes");

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) of `bytes`
/// continued from `seed` (pass 0 to start; chain calls for streams).
std::uint32_t Crc32(std::span<const unsigned char> bytes,
                    std::uint32_t seed = 0);

/// CRC of the 28 CRC-covered header bytes.
std::uint32_t HeaderCrc(const FileHeader& header);

/// Offset rounded up to the next multiple of kSectionAlignment.
constexpr std::uint64_t AlignUp(std::uint64_t offset) {
  return (offset + kSectionAlignment - 1) & ~(kSectionAlignment - 1);
}

/// Checks magic, version, flags, and the header's own CRC; DataLoss on a
/// bad CRC, InvalidArgument on a wrong magic/version/byte order.
/// `path` labels the messages.
Status ValidateHeader(const FileHeader& header, const std::string& path);

// ---------------------------------------------------------------------
// Little-endian payload (de)serialization. Small structured sections
// (META, PROF, CALB, TREE, LSHT) are built through these; the
// bulk DSET doubles are written raw.
// ---------------------------------------------------------------------

/// Append-only little-endian byte sink.
class PayloadWriter {
 public:
  void PutU64(std::uint64_t v) { PutBytes(&v, sizeof(v)); }
  void PutI32(std::int32_t v) { PutBytes(&v, sizeof(v)); }
  void PutDouble(double v) { PutBytes(&v, sizeof(v)); }
  /// Bulk write of a contiguous array of numbers (doubles, bucket keys,
  /// offsets and rows), as one copy.
  template <typename Array>
  void PutArray(const Array& v) {
    PutBytes(std::data(v), std::size(v) * sizeof(*std::data(v)));
  }

  std::span<const unsigned char> bytes() const { return buffer_; }
  std::size_t size() const { return buffer_.size(); }

 private:
  void PutBytes(const void* p, std::size_t n) {
    if (n == 0) return;
    const std::size_t at = buffer_.size();
    buffer_.resize(at + n);
    std::memcpy(buffer_.data() + at, p, n);
  }

  std::vector<unsigned char> buffer_;
};

/// Bounds-checked little-endian cursor over a section payload. Every Get
/// reports truncation as kDataLoss naming the section, so a short read
/// inside a CRC-valid section (a writer bug or version skew) cannot walk
/// past the payload.
class PayloadReader {
 public:
  PayloadReader(std::span<const unsigned char> bytes, std::string section)
      : bytes_(bytes), section_(std::move(section)) {}

  Status GetU64(std::uint64_t* v) { return GetBytes(v, sizeof(*v)); }
  Status GetI32(std::int32_t* v) { return GetBytes(v, sizeof(*v)); }
  Status GetDouble(double* v) { return GetBytes(v, sizeof(*v)); }
  /// Bulk read filling a contiguous array of numbers (one bounds check
  /// for the whole run — bucket arrays are read this way, not one entry
  /// at a time).
  template <typename Array>
  Status GetArray(Array& v) {
    return GetBytes(std::data(v), std::size(v) * sizeof(*std::data(v)));
  }
  /// Reads a u64 element count whose elements take at least
  /// `unit_bytes` each further on in the payload. A count the remaining
  /// bytes cannot hold is kDataLoss naming the section, before the
  /// caller sizes anything by it (the check divides, so no count
  /// wraps it).
  Status GetCount(std::size_t unit_bytes, std::uint64_t* n);

  std::size_t remaining() const { return bytes_.size() - pos_; }
  bool AtEnd() const { return pos_ == bytes_.size(); }

 private:
  Status GetBytes(void* out, std::size_t n);

  std::span<const unsigned char> bytes_;
  std::string section_;
  std::size_t pos_ = 0;
};

}  // namespace storage
}  // namespace ips

#endif  // IPS_STORAGE_FORMAT_H_
