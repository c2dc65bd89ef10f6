// Minimal binary serialization: bounds-checked little-endian readers and
// writers over byte buffers. Sketches are precomputed artifacts in the
// paper's workflow ("our work allows such filters to be precomputed and
// stored", §2), so every filter supports Save/Load round-trips.
#ifndef CCF_UTIL_SERDE_H_
#define CCF_UTIL_SERDE_H_

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>

#include "util/result.h"

// Internal helper for ByteReader's bounds checks.
#define CCF_SERDE_RETURN_IF_SHORT(n)                                     \
  do {                                                                   \
    if (data_.size() - pos_ < static_cast<size_t>(n)) {                  \
      return Status::OutOfRange("serialized buffer truncated");          \
    }                                                                    \
  } while (false)

namespace ccf {

/// \brief Lifetime token for zero-copy (alias-mode) deserialization.
///
/// Alias-mode loads leave bulk word arrays POINTING INTO the serialized
/// buffer instead of copying them out. The buffer must therefore outlive
/// every structure loaded from it; `keepalive` is how that is arranged —
/// the loaded BitVectors each hold a copy, so the mapping (or owning
/// buffer) is released only after the last aliased structure dies. The
/// data passed to Deserialize must point into the region `keepalive`
/// keeps alive.
///
/// Tail-slack contract: aliased word arrays lack the guard word an owned
/// BitVector allocates, and wide readers (unaligned 64-bit loads, SIMD
/// gathers) may overread up to 7 bytes past a word array — in the worst
/// case, past the end of the blob itself. The kept-alive region must
/// therefore remain READABLE for at least 8 bytes beyond the end of the
/// blob passed to Deserialize. MmapFileBytes satisfies this with its
/// trailing zero guard page; an 8-aligned heap buffer must be allocated
/// with >= 8 bytes of readable slack after the blob, or an out-of-bounds
/// read (UB, ASan report) can result.
///
/// FilterCatalog alias-loads only file-backed blobs of at least
/// FilterCatalog::kCopyLoadBytes, from an MmapFileBytes mapping; smaller
/// files are copy-loaded.
struct AliasMapping {
  std::shared_ptr<const void> keepalive;
};

/// \brief Appends little-endian primitives to a byte buffer.
class ByteWriter {
 public:
  explicit ByteWriter(std::string* out) : out_(out) {}

  void WriteU8(uint8_t v) { out_->push_back(static_cast<char>(v)); }

  void WriteU32(uint32_t v) {
    char buf[4];
    std::memcpy(buf, &v, 4);
    out_->append(buf, 4);
  }

  void WriteU64(uint64_t v) {
    char buf[8];
    std::memcpy(buf, &v, 8);
    out_->append(buf, 8);
  }

  void WriteI64(int64_t v) { WriteU64(static_cast<uint64_t>(v)); }

  void WriteDouble(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, 8);
    WriteU64(bits);
  }

  void WriteBool(bool v) { WriteU8(v ? 1 : 0); }

  void WriteBytes(std::string_view bytes) {
    WriteU64(bytes.size());
    out_->append(bytes);
  }

  /// Zero-pads to the next multiple of `alignment` bytes, measured from the
  /// START of the output buffer. Word arrays written after an AlignTo(8)
  /// can be aliased in place by an alias-mode load, provided the buffer
  /// itself lands 8-byte aligned in memory (mmap'd blobs are page-aligned).
  void AlignTo(size_t alignment) {
    while (out_->size() % alignment != 0) out_->push_back('\0');
  }

 private:
  std::string* out_;
};

/// \brief Bounds-checked little-endian reads from a byte buffer.
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  Result<uint8_t> ReadU8() {
    CCF_SERDE_RETURN_IF_SHORT(1);
    uint8_t v = static_cast<uint8_t>(data_[pos_]);
    pos_ += 1;
    return v;
  }

  Result<uint32_t> ReadU32() {
    CCF_SERDE_RETURN_IF_SHORT(4);
    uint32_t v;
    std::memcpy(&v, data_.data() + pos_, 4);
    pos_ += 4;
    return v;
  }

  Result<uint64_t> ReadU64() {
    CCF_SERDE_RETURN_IF_SHORT(8);
    uint64_t v;
    std::memcpy(&v, data_.data() + pos_, 8);
    pos_ += 8;
    return v;
  }

  Result<int64_t> ReadI64() {
    CCF_ASSIGN_OR_RETURN(uint64_t v, ReadU64());
    return static_cast<int64_t>(v);
  }

  Result<double> ReadDouble() {
    CCF_ASSIGN_OR_RETURN(uint64_t bits, ReadU64());
    double v;
    std::memcpy(&v, &bits, 8);
    return v;
  }

  Result<bool> ReadBool() {
    CCF_ASSIGN_OR_RETURN(uint8_t v, ReadU8());
    return v != 0;
  }

  Result<std::string_view> ReadBytes() {
    CCF_ASSIGN_OR_RETURN(uint64_t len, ReadU64());
    CCF_SERDE_RETURN_IF_SHORT(len);
    std::string_view v = data_.substr(pos_, static_cast<size_t>(len));
    pos_ += static_cast<size_t>(len);
    return v;
  }

  /// Skips the zero padding of a matching ByteWriter::AlignTo: advances to
  /// the next multiple of `alignment` bytes from the buffer start.
  Status AlignTo(size_t alignment) {
    size_t rem = pos_ % alignment;
    if (rem == 0) return Status::OK();
    size_t skip = alignment - rem;
    CCF_SERDE_RETURN_IF_SHORT(skip);
    pos_ += skip;
    return Status::OK();
  }

  /// A view of the next `len` raw bytes (no length prefix), consuming them.
  /// The view points into the reader's buffer — the alias-mode loads hand
  /// it straight to the aliased structure.
  Result<std::string_view> ReadRaw(size_t len) {
    CCF_SERDE_RETURN_IF_SHORT(len);
    std::string_view v = data_.substr(pos_, len);
    pos_ += len;
    return v;
  }

  /// All bytes consumed?
  bool AtEnd() const { return pos_ == data_.size(); }
  size_t remaining() const { return data_.size() - pos_; }

 private:
  std::string_view data_;
  size_t pos_ = 0;
};

}  // namespace ccf

#undef CCF_SERDE_RETURN_IF_SHORT

#endif  // CCF_UTIL_SERDE_H_
