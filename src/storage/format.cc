#include "storage/format.h"

#include <array>
#include <cstdio>

namespace ips {
namespace storage {
namespace {

// Slice-by-8 tables: table[0] is the classic byte-at-a-time table and
// table[j][b] is the CRC of byte b followed by j zero bytes, letting the
// hot loop fold 8 input bytes per iteration (~8x the bytewise rate —
// the difference between a snapshot load that is CRC-bound and one that
// is disk-bound).
std::array<std::array<std::uint32_t, 256>, 8> MakeCrcTables() {
  std::array<std::array<std::uint32_t, 256>, 8> tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1) ? (crc >> 1) ^ 0xEDB88320u : crc >> 1;
    }
    tables[0][i] = crc;
  }
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = tables[0][i];
    for (std::size_t j = 1; j < 8; ++j) {
      crc = tables[0][crc & 0xFFu] ^ (crc >> 8);
      tables[j][i] = crc;
    }
  }
  return tables;
}

}  // namespace

std::uint32_t Crc32(std::span<const unsigned char> bytes,
                    std::uint32_t seed) {
  static const std::array<std::array<std::uint32_t, 256>, 8> tables =
      MakeCrcTables();
  const auto& t = tables;
  std::uint32_t crc = ~seed;
  const unsigned char* p = bytes.data();
  std::size_t n = bytes.size();
  while (n >= 8) {
    // The format is little-endian-only (kFlagLittleEndian), so the
    // 32-bit load below matches the byte order the tables assume.
    std::uint32_t lo;
    std::memcpy(&lo, p, sizeof(lo));
    lo ^= crc;
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^
          t[3][p[4]] ^ t[2][p[5]] ^ t[1][p[6]] ^ t[0][p[7]];
    p += 8;
    n -= 8;
  }
  while (n > 0) {
    crc = t[0][(crc ^ *p++) & 0xFFu] ^ (crc >> 8);
    --n;
  }
  return ~crc;
}

std::uint32_t HeaderCrc(const FileHeader& header) {
  unsigned char bytes[sizeof(FileHeader)];
  std::memcpy(bytes, &header, sizeof(header));
  return Crc32({bytes, sizeof(FileHeader) - sizeof(header.header_crc)});
}

std::string SectionName(std::uint32_t id) {
  std::string name(4, '\0');
  for (int i = 0; i < 4; ++i) {
    name[i] = static_cast<char>((id >> (8 * i)) & 0xFFu);
  }
  for (char c : name) {
    if (c < ' ' || c > '~') {
      char hex[16];
      std::snprintf(hex, sizeof(hex), "0x%08x", id);
      return hex;
    }
  }
  return name;
}

Status ValidateHeader(const FileHeader& header, const std::string& path) {
  if (std::memcmp(header.magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument(path + " is not an ipsjoin snapshot " +
                                   "(bad magic)");
  }
  if (header.header_crc != HeaderCrc(header)) {
    return Status::DataLoss(path + ": snapshot header failed its CRC");
  }
  if (header.version != kFormatVersion) {
    return Status::InvalidArgument(
        path + ": unsupported snapshot format version " +
        std::to_string(header.version) + " (this build reads version " +
        std::to_string(kFormatVersion) + ")");
  }
  if (header.flags != kFlagLittleEndian) {
    return Status::InvalidArgument(
        path + ": snapshot was written with unsupported flags " +
        std::to_string(header.flags) + " (expected little-endian layout)");
  }
  return Status::Ok();
}

Status PayloadReader::GetBytes(void* out, std::size_t n) {
  if (pos_ + n > bytes_.size()) {
    return Status::DataLoss(
        "section " + section_ + " is truncated: needed " + std::to_string(n) +
        " bytes at offset " + std::to_string(pos_) + " of " +
        std::to_string(bytes_.size()));
  }
  std::memcpy(out, bytes_.data() + pos_, n);
  pos_ += n;
  return Status::Ok();
}

Status PayloadReader::GetCount(std::size_t unit_bytes, std::uint64_t* n) {
  IPS_RETURN_IF_ERROR(GetU64(n));
  if (*n > remaining() / unit_bytes) {
    return Status::DataLoss("section " + section_ + " claims " +
                            std::to_string(*n) + " entries of " +
                            std::to_string(unit_bytes) +
                            " bytes but holds only " +
                            std::to_string(remaining()) + " more bytes");
  }
  return Status::Ok();
}

}  // namespace storage
}  // namespace ips
