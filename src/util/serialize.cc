#include "util/serialize.h"

#include <cstdio>
#include <cstring>

#include "util/crc32.h"
#include "util/file_util.h"
#include "util/string_util.h"

namespace kgc {
namespace {

// Integrity footer: kFooterMagic then the payload CRC-32, both u32 LE.
constexpr uint32_t kFooterMagic = 0x4b435243U;  // "KCRC"
constexpr size_t kFooterSize = 2 * sizeof(uint32_t);

uint32_t LoadU32(const uint8_t* bytes) {
  uint32_t value;
  std::memcpy(&value, bytes, sizeof(value));
  return value;
}

}  // namespace

void BinaryWriter::Append(const void* data, size_t size) {
  const auto* bytes = static_cast<const uint8_t*>(data);
  buffer_.insert(buffer_.end(), bytes, bytes + size);
}

void BinaryWriter::WriteU32(uint32_t value) { Append(&value, sizeof(value)); }
void BinaryWriter::WriteU64(uint64_t value) { Append(&value, sizeof(value)); }
void BinaryWriter::WriteDouble(double value) { Append(&value, sizeof(value)); }

void BinaryWriter::WriteFloatVector(std::span<const float> values) {
  WriteU64(values.size());
  Append(values.data(), values.size() * sizeof(float));
}

Status BinaryWriter::Flush(const std::string& path) const {
  std::vector<uint8_t> framed = buffer_;
  const uint32_t magic = kFooterMagic;
  const uint32_t crc = Crc32(buffer_.data(), buffer_.size());
  const auto* magic_bytes = reinterpret_cast<const uint8_t*>(&magic);
  const auto* crc_bytes = reinterpret_cast<const uint8_t*>(&crc);
  framed.insert(framed.end(), magic_bytes, magic_bytes + sizeof(magic));
  framed.insert(framed.end(), crc_bytes, crc_bytes + sizeof(crc));
  return RetryIo("write " + path, /*max_attempts=*/3, [&] {
    return AtomicWriteFile(path, framed.data(), framed.size());
  });
}

StatusOr<BinaryReader> BinaryReader::FromFile(const std::string& path) {
  // Retry the raw read with backoff: short reads can be transient (and the
  // injected ones are); checksum failures below are not, so they are
  // checked once, after a complete read.
  StatusOr<std::vector<uint8_t>> bytes = ReadFileBytes(path);
  for (int attempt = 1; attempt < 3 && !bytes.ok() &&
                        bytes.status().code() == StatusCode::kIoError;
       ++attempt) {
    bytes = ReadFileBytes(path);
  }
  if (!bytes.ok()) return bytes.status();

  std::vector<uint8_t> buffer = std::move(*bytes);
  if (buffer.size() < kFooterSize) {
    return Status::IoError("missing integrity footer (truncated?): " + path);
  }
  const uint8_t* footer = buffer.data() + buffer.size() - kFooterSize;
  if (LoadU32(footer) != kFooterMagic) {
    return Status::IoError(
        "missing integrity footer (truncated or legacy file): " + path);
  }
  const uint32_t stored_crc = LoadU32(footer + sizeof(uint32_t));
  const uint32_t actual_crc =
      Crc32(buffer.data(), buffer.size() - kFooterSize);
  if (stored_crc != actual_crc) {
    return Status::IoError(
        StrFormat("checksum mismatch in %s: stored %08x, computed %08x",
                  path.c_str(), stored_crc, actual_crc));
  }
  buffer.resize(buffer.size() - kFooterSize);
  return BinaryReader(std::move(buffer));
}

Status BinaryReader::ReadBytes(void* out, size_t size) {
  if (position_ + size > buffer_.size()) {
    return Status::IoError(
        StrFormat("truncated buffer: need %zu bytes at offset %zu of %zu",
                  size, position_, buffer_.size()));
  }
  std::memcpy(out, buffer_.data() + position_, size);
  position_ += size;
  return Status::Ok();
}

StatusOr<uint32_t> BinaryReader::ReadU32() {
  uint32_t value = 0;
  KGC_RETURN_IF_ERROR(ReadBytes(&value, sizeof(value)));
  return value;
}

StatusOr<uint64_t> BinaryReader::ReadU64() {
  uint64_t value = 0;
  KGC_RETURN_IF_ERROR(ReadBytes(&value, sizeof(value)));
  return value;
}

StatusOr<int32_t> BinaryReader::ReadI32() {
  auto value = ReadU32();
  if (!value.ok()) return value.status();
  return static_cast<int32_t>(*value);
}

StatusOr<int64_t> BinaryReader::ReadI64() {
  auto value = ReadU64();
  if (!value.ok()) return value.status();
  return static_cast<int64_t>(*value);
}

StatusOr<double> BinaryReader::ReadDouble() {
  double value = 0;
  KGC_RETURN_IF_ERROR(ReadBytes(&value, sizeof(value)));
  return value;
}

StatusOr<std::vector<float>> BinaryReader::ReadFloatVector() {
  auto size = ReadU64();
  if (!size.ok()) return size.status();
  if (*size > (buffer_.size() - position_) / sizeof(float)) {
    return Status::IoError("vector length exceeds buffer");
  }
  std::vector<float> values(static_cast<size_t>(*size));
  KGC_RETURN_IF_ERROR(ReadBytes(values.data(), values.size() * sizeof(float)));
  return values;
}

}  // namespace kgc
