// Binary serialization for model checkpoints and dataset caches.
//
// Little-endian, fixed-width primitives with a magic header and version tag.
// Readers validate bounds; corrupted files surface as Status errors, never
// undefined behaviour.
//
// Every file written by BinaryWriter::Flush carries an 8-byte integrity
// footer (magic "KCRC" + CRC-32 of the payload) and lands via a crash-safe
// write-temp/fsync/rename protocol; BinaryReader::FromFile verifies and
// strips the footer, so truncation and bit-rot are detected at load time.

#ifndef KGC_UTIL_SERIALIZE_H_
#define KGC_UTIL_SERIALIZE_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "util/status.h"

namespace kgc {

/// Accumulates primitives into an in-memory byte buffer.
class BinaryWriter {
 public:
  void WriteU32(uint32_t value);
  void WriteU64(uint64_t value);
  void WriteI32(int32_t value) { WriteU32(static_cast<uint32_t>(value)); }
  void WriteI64(int64_t value) { WriteU64(static_cast<uint64_t>(value)); }
  void WriteDouble(double value);
  void WriteFloatVector(std::span<const float> values);

  const std::vector<uint8_t>& buffer() const { return buffer_; }

  /// Writes the buffer to `path` atomically (write temp + fsync + rename),
  /// appending the CRC-32 integrity footer. Transient I/O errors are
  /// retried with backoff.
  Status Flush(const std::string& path) const;

 private:
  void Append(const void* data, size_t size);

  std::vector<uint8_t> buffer_;
};

/// Reads primitives back from a byte buffer with bounds checking.
class BinaryReader {
 public:
  explicit BinaryReader(std::vector<uint8_t> buffer)
      : buffer_(std::move(buffer)) {}

  /// Loads the full content of `path`, verifying and stripping the CRC-32
  /// footer. kNotFound if absent; kIoError if the footer is missing (a
  /// truncated or pre-footer file) or the checksum does not match.
  static StatusOr<BinaryReader> FromFile(const std::string& path);

  StatusOr<uint32_t> ReadU32();
  StatusOr<uint64_t> ReadU64();
  StatusOr<int32_t> ReadI32();
  StatusOr<int64_t> ReadI64();
  StatusOr<double> ReadDouble();
  StatusOr<std::vector<float>> ReadFloatVector();

  bool AtEnd() const { return position_ == buffer_.size(); }

  /// Bytes left to read; lets loaders sanity-check declared element counts
  /// against the actual payload size before allocating.
  size_t remaining() const { return buffer_.size() - position_; }

 private:
  Status ReadBytes(void* out, size_t size);

  std::vector<uint8_t> buffer_;
  size_t position_ = 0;
};

}  // namespace kgc

#endif  // KGC_UTIL_SERIALIZE_H_
