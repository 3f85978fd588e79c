#include "storage/snapshot.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <utility>

#include "util/check.h"

namespace ips {
namespace storage {
namespace {

// Chunk size of streaming CRC verification and block reads: large
// enough to amortize syscalls, small enough to never matter for a
// memory budget.
constexpr std::size_t kIoChunkBytes = 256 * 1024;

std::span<const unsigned char> AsBytes(const void* p, std::size_t n) {
  return {static_cast<const unsigned char*>(p), n};
}

}  // namespace

// ---------------------------------------------------------------------
// SnapshotWriter
// ---------------------------------------------------------------------

StatusOr<SnapshotWriter> SnapshotWriter::Create(const std::string& path) {
  auto file = FileWriter::Create(path);
  IPS_RETURN_IF_ERROR(file.status());
  SnapshotWriter writer(std::move(file).value());
  // Header placeholder; the real header is patched in at Finish, after
  // the section table offset is known.
  const unsigned char zeros[sizeof(FileHeader)] = {};
  IPS_RETURN_IF_ERROR(writer.file_.Write(AsBytes(zeros, sizeof(zeros))));
  return writer;
}

Status SnapshotWriter::PadToAlignment() {
  const std::uint64_t target = AlignUp(file_.offset());
  if (target == file_.offset()) return Status::Ok();
  const unsigned char zeros[kSectionAlignment] = {};
  return file_.Write(
      AsBytes(zeros, static_cast<std::size_t>(target - file_.offset())));
}

Status SnapshotWriter::WriteSection(std::uint32_t id, std::uint32_t version,
                                    std::span<const unsigned char> payload) {
  IPS_RETURN_IF_ERROR(BeginSection(id, version));
  IPS_RETURN_IF_ERROR(Append(payload));
  return EndSection();
}

Status SnapshotWriter::BeginSection(std::uint32_t id, std::uint32_t version) {
  IPS_CHECK(!in_section_) << "BeginSection inside an open section";
  IPS_RETURN_IF_ERROR(PadToAlignment());
  SectionEntry entry;
  entry.id = id;
  entry.version = version;
  entry.offset = file_.offset();
  sections_.push_back(entry);
  in_section_ = true;
  running_crc_ = 0;
  return Status::Ok();
}

Status SnapshotWriter::Append(std::span<const unsigned char> bytes) {
  IPS_CHECK(in_section_) << "Append outside a section";
  IPS_RETURN_IF_ERROR(file_.Write(bytes));
  running_crc_ = Crc32(bytes, running_crc_);
  sections_.back().size += bytes.size();
  return Status::Ok();
}

Status SnapshotWriter::EndSection() {
  IPS_CHECK(in_section_) << "EndSection outside a section";
  sections_.back().crc32 = running_crc_;
  in_section_ = false;
  return Status::Ok();
}

Status SnapshotWriter::Finish() {
  IPS_CHECK(!in_section_) << "Finish inside an open section";
  IPS_RETURN_IF_ERROR(PadToAlignment());
  const std::uint64_t table_offset = file_.offset();
  for (const SectionEntry& entry : sections_) {
    IPS_RETURN_IF_ERROR(file_.Write(AsBytes(&entry, sizeof(entry))));
  }
  FileHeader header;
  std::memcpy(header.magic, kMagic, sizeof(kMagic));
  header.version = kFormatVersion;
  header.section_count = static_cast<std::uint32_t>(sections_.size());
  header.section_table_offset = table_offset;
  header.flags = kFlagLittleEndian;
  header.header_crc = HeaderCrc(header);
  IPS_RETURN_IF_ERROR(file_.WriteAt(0, AsBytes(&header, sizeof(header))));
  return file_.Commit();
}

// ---------------------------------------------------------------------
// SnapshotReader
// ---------------------------------------------------------------------

namespace {

// Shared header + section-table validation of the two read paths.
Status ParseSectionTable(const FileHeader& header,
                         std::span<const unsigned char> table_bytes,
                         std::uint64_t file_size, const std::string& path,
                         std::vector<SectionEntry>* out) {
  out->resize(header.section_count);
  std::memcpy(out->data(), table_bytes.data(),
              table_bytes.size());
  for (const SectionEntry& entry : *out) {
    if (entry.offset < sizeof(FileHeader) ||
        entry.offset % kSectionAlignment != 0 ||
        entry.offset + entry.size > file_size) {
      return Status::DataLoss(
          path + ": section " + SectionName(entry.id) +
          " claims bytes [" + std::to_string(entry.offset) + ", " +
          std::to_string(entry.offset + entry.size) +
          ") outside the file of " + std::to_string(file_size) + " bytes");
    }
  }
  return Status::Ok();
}

}  // namespace

StatusOr<SnapshotReader> SnapshotReader::Open(const std::string& path) {
  auto file = FileReader::Open(path);
  IPS_RETURN_IF_ERROR(file.status());
  SnapshotReader reader(std::move(file).value());

  if (reader.file_.size() < sizeof(FileHeader)) {
    return Status::DataLoss(path + " is truncated: " +
                            std::to_string(reader.file_.size()) +
                            " bytes is smaller than the snapshot header");
  }
  FileHeader header;
  unsigned char header_bytes[sizeof(FileHeader)];
  IPS_RETURN_IF_ERROR(
      reader.file_.ReadAt(0, {header_bytes, sizeof(header_bytes)}));
  std::memcpy(&header, header_bytes, sizeof(header));
  IPS_RETURN_IF_ERROR(ValidateHeader(header, path));

  const std::uint64_t table_bytes =
      static_cast<std::uint64_t>(header.section_count) * sizeof(SectionEntry);
  if (header.section_table_offset + table_bytes > reader.file_.size()) {
    return Status::DataLoss(path + " is truncated inside its section table");
  }
  std::vector<unsigned char> table(static_cast<std::size_t>(table_bytes));
  IPS_RETURN_IF_ERROR(
      reader.file_.ReadAt(header.section_table_offset, table));
  IPS_RETURN_IF_ERROR(ParseSectionTable(header, table, reader.file_.size(),
                                        path, &reader.sections_));
  return reader;
}

const SectionEntry* SnapshotReader::Find(std::uint32_t id) const {
  for (const SectionEntry& entry : sections_) {
    if (entry.id == id) return &entry;
  }
  return nullptr;
}

StatusOr<std::vector<unsigned char>> SnapshotReader::ReadSection(
    std::uint32_t id) const {
  const SectionEntry* entry = Find(id);
  if (entry == nullptr) {
    return Status::NotFound(path() + " has no " + SectionName(id) +
                            " section");
  }
  std::vector<unsigned char> payload(static_cast<std::size_t>(entry->size));
  IPS_RETURN_IF_ERROR(file_.ReadAt(entry->offset, payload));
  const std::uint32_t crc = Crc32(payload);
  if (crc != entry->crc32) {
    return Status::DataLoss(path() + ": section " + SectionName(id) +
                            " failed its CRC32 check (stored " +
                            std::to_string(entry->crc32) + ", computed " +
                            std::to_string(crc) + ")");
  }
  return payload;
}

Status SnapshotReader::VerifySection(const SectionEntry& entry) const {
  std::vector<unsigned char> buffer(
      std::min<std::size_t>(kIoChunkBytes,
                            static_cast<std::size_t>(entry.size)));
  std::uint32_t crc = 0;
  std::uint64_t done = 0;
  while (done < entry.size) {
    const std::size_t chunk = static_cast<std::size_t>(
        std::min<std::uint64_t>(buffer.size(), entry.size - done));
    const std::span<unsigned char> slice(buffer.data(), chunk);
    IPS_RETURN_IF_ERROR(file_.ReadAt(entry.offset + done, slice));
    crc = Crc32(slice, crc);
    done += chunk;
  }
  if (crc != entry.crc32) {
    return Status::DataLoss(path() + ": section " + SectionName(entry.id) +
                            " failed its CRC32 check (stored " +
                            std::to_string(entry.crc32) + ", computed " +
                            std::to_string(crc) + ")");
  }
  return Status::Ok();
}

Status SnapshotReader::VerifyAllSections() const {
  for (const SectionEntry& entry : sections_) {
    IPS_RETURN_IF_ERROR(VerifySection(entry));
  }
  return Status::Ok();
}

// ---------------------------------------------------------------------
// Matrix sections
// ---------------------------------------------------------------------

namespace {

// Validates DSET geometry common to the pread and mmap paths.
Status CheckMatrixGeometry(std::uint64_t section_size, std::uint64_t cols,
                           const std::string& path, std::uint64_t* rows) {
  if (section_size < kMatrixSubheaderBytes) {
    return Status::DataLoss(path + ": matrix section is smaller than its " +
                            std::to_string(kMatrixSubheaderBytes) +
                            "-byte subheader");
  }
  const std::uint64_t payload = section_size - kMatrixSubheaderBytes;
  if (cols == 0) {
    if (payload != 0) {
      return Status::DataLoss(path +
                              ": matrix section has zero columns but a "
                              "non-empty payload");
    }
    *rows = 0;
    return Status::Ok();
  }
  // A column count whose row size wraps 64 bits would make row_bytes 0.
  const std::uint64_t row_bytes = cols * sizeof(double);
  if (cols > UINT64_MAX / sizeof(double) || payload % row_bytes != 0) {
    return Status::DataLoss(
        path + ": matrix section payload of " + std::to_string(payload) +
        " bytes is not a whole number of " + std::to_string(cols) +
        "-column rows");
  }
  *rows = payload / row_bytes;
  return Status::Ok();
}

}  // namespace

StatusOr<MatrixSectionInfo> ParseMatrixSection(const SnapshotReader& reader,
                                               const SectionEntry& entry) {
  unsigned char subheader[kMatrixSubheaderBytes];
  if (entry.size < sizeof(subheader)) {
    return Status::DataLoss(reader.path() +
                            ": matrix section is smaller than its subheader");
  }
  IPS_RETURN_IF_ERROR(
      reader.file().ReadAt(entry.offset, {subheader, sizeof(subheader)}));
  MatrixSectionInfo info;
  std::memcpy(&info.cols, subheader, sizeof(info.cols));
  IPS_RETURN_IF_ERROR(
      CheckMatrixGeometry(entry.size, info.cols, reader.path(), &info.rows));
  info.doubles_offset = entry.offset + kMatrixSubheaderBytes;
  return info;
}

// ---------------------------------------------------------------------
// MappedSnapshot
// ---------------------------------------------------------------------

StatusOr<std::shared_ptr<MappedSnapshot>> MappedSnapshot::Map(
    const std::string& path) {
  auto file = MappedFile::Map(path);
  IPS_RETURN_IF_ERROR(file.status());
  std::shared_ptr<MappedSnapshot> snapshot(
      new MappedSnapshot(std::move(file).value()));
  const std::span<const unsigned char> bytes = snapshot->file_.bytes();

  if (bytes.size() < sizeof(FileHeader)) {
    return Status::DataLoss(path + " is truncated: " +
                            std::to_string(bytes.size()) +
                            " bytes is smaller than the snapshot header");
  }
  FileHeader header;
  std::memcpy(&header, bytes.data(), sizeof(header));
  IPS_RETURN_IF_ERROR(ValidateHeader(header, path));

  const std::uint64_t table_bytes =
      static_cast<std::uint64_t>(header.section_count) * sizeof(SectionEntry);
  if (header.section_table_offset + table_bytes > bytes.size()) {
    return Status::DataLoss(path + " is truncated inside its section table");
  }
  IPS_RETURN_IF_ERROR(ParseSectionTable(
      header,
      bytes.subspan(static_cast<std::size_t>(header.section_table_offset),
                    static_cast<std::size_t>(table_bytes)),
      bytes.size(), path, &snapshot->sections_));

  for (const SectionEntry& entry : snapshot->sections_) {
    const std::uint32_t crc = Crc32(snapshot->SectionBytes(entry));
    if (crc != entry.crc32) {
      return Status::DataLoss(path + ": section " + SectionName(entry.id) +
                              " failed its CRC32 check (stored " +
                              std::to_string(entry.crc32) + ", computed " +
                              std::to_string(crc) + ")");
    }
  }
  return snapshot;
}

const SectionEntry* MappedSnapshot::Find(std::uint32_t id) const {
  for (const SectionEntry& entry : sections_) {
    if (entry.id == id) return &entry;
  }
  return nullptr;
}

std::span<const unsigned char> MappedSnapshot::SectionBytes(
    const SectionEntry& entry) const {
  return file_.bytes().subspan(static_cast<std::size_t>(entry.offset),
                               static_cast<std::size_t>(entry.size));
}

StatusOr<Matrix> MappedSnapshot::MapMatrixSection(std::uint32_t id) const {
  const SectionEntry* entry = Find(id);
  if (entry == nullptr) {
    return Status::NotFound(path() + " has no " + SectionName(id) +
                            " section");
  }
  const std::span<const unsigned char> payload = SectionBytes(*entry);
  std::uint64_t cols = 0;
  if (payload.size() < sizeof(cols)) {
    return Status::DataLoss(path() +
                            ": matrix section is smaller than its subheader");
  }
  std::memcpy(&cols, payload.data(), sizeof(cols));
  std::uint64_t rows = 0;
  IPS_RETURN_IF_ERROR(
      CheckMatrixGeometry(entry->size, cols, path(), &rows));
  const unsigned char* doubles = payload.data() + kMatrixSubheaderBytes;
  // Section offsets are 64-byte aligned and the mapping is page-aligned,
  // so the doubles are aligned for every vector ISA the kernels use.
  IPS_CHECK_EQ(reinterpret_cast<std::uintptr_t>(doubles) % kSectionAlignment,
               0u);
  return Matrix::View(reinterpret_cast<const double*>(doubles),
                      static_cast<std::size_t>(rows),
                      static_cast<std::size_t>(cols));
}

// ---------------------------------------------------------------------
// Matrix snapshot conveniences
// ---------------------------------------------------------------------

Status SaveMatrixSnapshot(const Matrix& matrix, const std::string& path) {
  auto writer = MatrixSnapshotWriter::Create(path, matrix.cols());
  IPS_RETURN_IF_ERROR(writer.status());
  IPS_RETURN_IF_ERROR(writer->AppendRows(
      {matrix.raw(), matrix.rows() * matrix.cols()}));
  return writer->Finish();
}

StatusOr<Matrix> ReadMatrixSection(const SnapshotReader& reader) {
  const std::string& path = reader.path();
  const SectionEntry* entry = reader.Find(kSectionDataset);
  if (entry == nullptr) {
    return Status::NotFound(path + " has no DSET section");
  }
  auto info = ParseMatrixSection(reader, *entry);
  IPS_RETURN_IF_ERROR(info.status());

  // Read the doubles straight into the matrix storage, folding them
  // into the CRC in place — the dataset is never held twice.
  unsigned char subheader[kMatrixSubheaderBytes];
  IPS_RETURN_IF_ERROR(
      reader.file().ReadAt(entry->offset, {subheader, sizeof(subheader)}));
  std::uint32_t crc = Crc32({subheader, sizeof(subheader)});

  Matrix matrix(static_cast<std::size_t>(info->rows),
                static_cast<std::size_t>(info->cols));
  const std::size_t double_bytes =
      matrix.rows() * matrix.cols() * sizeof(double);
  if (double_bytes > 0) {
    const std::span<unsigned char> storage(
        reinterpret_cast<unsigned char*>(matrix.data().data()), double_bytes);
    IPS_RETURN_IF_ERROR(reader.file().ReadAt(info->doubles_offset, storage));
    crc = Crc32(storage, crc);
  }
  if (crc != entry->crc32) {
    return Status::DataLoss(path +
                            ": section DSET failed its CRC32 check (stored " +
                            std::to_string(entry->crc32) + ", computed " +
                            std::to_string(crc) + ")");
  }
  return matrix;
}

StatusOr<Matrix> LoadMatrixSnapshot(const std::string& path) {
  auto reader = SnapshotReader::Open(path);
  IPS_RETURN_IF_ERROR(reader.status());
  return ReadMatrixSection(*reader);
}

StatusOr<MappedMatrix> MapMatrixSnapshot(const std::string& path) {
  auto snapshot = MappedSnapshot::Map(path);
  IPS_RETURN_IF_ERROR(snapshot.status());
  auto matrix = (*snapshot)->MapMatrixSection(kSectionDataset);
  IPS_RETURN_IF_ERROR(matrix.status());
  return MappedMatrix{std::move(snapshot).value(),
                      std::move(matrix).value()};
}

StatusOr<MatrixSnapshotWriter> MatrixSnapshotWriter::Create(
    const std::string& path, std::size_t cols) {
  auto writer = SnapshotWriter::Create(path);
  IPS_RETURN_IF_ERROR(writer.status());
  MatrixSnapshotWriter matrix_writer(std::move(writer).value(), cols);
  IPS_RETURN_IF_ERROR(
      matrix_writer.writer_.BeginSection(kSectionDataset, 1));
  unsigned char subheader[kMatrixSubheaderBytes] = {};
  const std::uint64_t cols64 = cols;
  std::memcpy(subheader, &cols64, sizeof(cols64));
  IPS_RETURN_IF_ERROR(
      matrix_writer.writer_.Append({subheader, sizeof(subheader)}));
  return matrix_writer;
}

Status MatrixSnapshotWriter::AppendRows(std::span<const double> row_major) {
  IPS_CHECK_GT(cols_, 0u);
  IPS_CHECK_EQ(row_major.size() % cols_, 0u);
  IPS_RETURN_IF_ERROR(writer_.Append(
      AsBytes(row_major.data(), row_major.size() * sizeof(double))));
  rows_written_ += row_major.size() / cols_;
  return Status::Ok();
}

Status MatrixSnapshotWriter::Finish() {
  IPS_RETURN_IF_ERROR(writer_.EndSection());
  return writer_.Finish();
}

// ---------------------------------------------------------------------
// MatrixBlockReader
// ---------------------------------------------------------------------

StatusOr<MatrixBlockReader> MatrixBlockReader::Open(const std::string& path,
                                                    bool verify_checksums) {
  auto reader = SnapshotReader::Open(path);
  IPS_RETURN_IF_ERROR(reader.status());
  const SectionEntry* entry = reader->Find(kSectionDataset);
  if (entry == nullptr) {
    return Status::NotFound(path + " has no DSET section");
  }
  if (verify_checksums) {
    IPS_RETURN_IF_ERROR(reader->VerifySection(*entry));
  }
  auto info = ParseMatrixSection(*reader, *entry);
  IPS_RETURN_IF_ERROR(info.status());
  return MatrixBlockReader(std::move(reader).value(), *info);
}

Status MatrixBlockReader::ReadRows(std::size_t row_begin, std::size_t count,
                                   Matrix* out) const {
  IPS_CHECK(out != nullptr);
  if (row_begin + count > info_.rows) {
    return Status::OutOfRange(
        "rows [" + std::to_string(row_begin) + ", " +
        std::to_string(row_begin + count) + ") exceed the snapshot's " +
        std::to_string(info_.rows) + " rows");
  }
  if (out->rows() != count || out->cols() != info_.cols ||
      out->is_view()) {
    *out = Matrix(count, static_cast<std::size_t>(info_.cols));
  }
  const std::size_t bytes = count * cols() * sizeof(double);
  if (bytes == 0) return Status::Ok();
  const std::uint64_t offset =
      info_.doubles_offset +
      static_cast<std::uint64_t>(row_begin) * cols() * sizeof(double);
  return reader_.file().ReadAt(
      offset,
      {reinterpret_cast<unsigned char*>(out->data().data()), bytes});
}

}  // namespace storage
}  // namespace ips
