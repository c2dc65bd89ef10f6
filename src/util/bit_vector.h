// Packed bit storage with fixed-width field accessors. This is the backing
// store for all sketch structures in the library: bucketized cuckoo tables
// pack (fingerprint, payload) slots into one contiguous BitVector so that
// reported sketch sizes are the true physical bit counts.
#ifndef CCF_UTIL_BIT_VECTOR_H_
#define CCF_UTIL_BIT_VECTOR_H_

#include <cstdint>
#include <cstddef>
#include <cstring>
#include <memory>

#include "util/prefetch.h"
#include "util/serde.h"
#include "util/status.h"

namespace ccf {

/// \brief A dense, resizable vector of bits with multi-bit field access.
///
/// Fields of up to 64 bits may be read/written at arbitrary (unaligned) bit
/// offsets. Storage is zero-initialized. Not thread-safe for concurrent
/// writes.
///
/// Storage notes:
///  * Multi-megabyte vectors are backed by a fresh anonymous mapping that is
///    2 MiB-aligned and MADV_HUGEPAGE-advised BEFORE first touch, so the
///    kernel faults in huge pages directly instead of waiting for khugepaged
///    to collapse already-populated 4 KiB pages. Large tables probed at
///    random offsets otherwise thrash the dTLB: each probe's line fill
///    waits on a page walk as well.
///  * One extra zero guard word follows the logical words, so LoadBits64 may
///    issue an unaligned 64-bit load at any byte holding a logical bit.
///  * Alias mode: Load with an AliasMapping leaves words_ pointing INTO the
///    serialized buffer (typically a read-only file mapping) instead of
///    copying. The vector holds the mapping's keepalive; the first mutation
///    (SetBit/SetField/Clear/Resize) transparently copies the words into an
///    owned allocation first (software copy-on-write), so the mapping is
///    never written through. There is no owned guard word in this mode:
///    the unaligned LoadBits64 may overread up to 7 bytes past the aliased
///    word array, so the keepalive region must stay readable for >= 8
///    bytes past the end of the blob.
///    MmapFileBytes guarantees this with its zero guard page; a heap-backed
///    keepalive must over-allocate that tail slack itself.
class BitVector {
 public:
  BitVector() = default;
  /// Creates a vector of `num_bits` zero bits.
  explicit BitVector(size_t num_bits) { Resize(num_bits); }

  BitVector(const BitVector& other) { *this = other; }
  BitVector& operator=(const BitVector& other);
  BitVector(BitVector&& other) noexcept {
    *this = static_cast<BitVector&&>(other);
  }
  BitVector& operator=(BitVector&& other) noexcept;
  ~BitVector() { Deallocate(); }

  /// Number of addressable bits.
  size_t size() const { return num_bits_; }

  /// Physical storage in bytes (rounded up to whole words; the guard word
  /// is an implementation detail and not counted).
  size_t SizeInBytes() const { return num_words_ * sizeof(uint64_t); }

  /// Grows or shrinks to `num_bits`; retained bits keep their values, new
  /// bits are zero.
  void Resize(size_t num_bits);

  /// Sets every bit to zero without changing size.
  void Clear();

  bool GetBit(size_t i) const {
    CCF_DCHECK(i < num_bits_);
    return (words_[i >> 6] >> (i & 63)) & 1u;
  }

  void SetBit(size_t i, bool value) {
    CCF_DCHECK(i < num_bits_);
    if (alias_keepalive_) EnsureOwned();
    uint64_t mask = uint64_t{1} << (i & 63);
    if (value) {
      words_[i >> 6] |= mask;
    } else {
      words_[i >> 6] &= ~mask;
    }
  }

  /// Prefetches the cache line holding bit `i`.
  void PrefetchBit(size_t i) const {
    CCF_DCHECK(i < num_bits_);
    Prefetch(&words_[i >> 6]);
  }

  /// Prefetches every cache line holding a byte of bits [first, last].
  /// `last` may point into the guard word or past the end
  /// (prefetches never fault); callers pass the span a LoadBits64-based
  /// reader will touch.
  void PrefetchBitRange(size_t first, size_t last) const {
    CCF_DCHECK(first < num_bits_ && first <= last);
    const char* base = reinterpret_cast<const char*>(words_);
    const uintptr_t end = reinterpret_cast<uintptr_t>(base + (last >> 3));
    for (uintptr_t line =
             reinterpret_cast<uintptr_t>(base + (first >> 3)) & ~uintptr_t{63};
         line <= end; line += 64) {
      Prefetch(reinterpret_cast<const void*>(line));
    }
  }

  /// Reads `width` (1..64) bits starting at bit offset `pos`.
  uint64_t GetField(size_t pos, int width) const {
    CCF_DCHECK(width >= 1 && width <= 64);
    CCF_DCHECK(pos + static_cast<size_t>(width) <= num_bits_);
    size_t word = pos >> 6;
    int shift = static_cast<int>(pos & 63);
    uint64_t value = words_[word] >> shift;
    int bits_from_lo = 64 - shift;
    if (width > bits_from_lo) {
      value |= words_[word + 1] << bits_from_lo;
    }
    if (width < 64) {
      value &= (uint64_t{1} << width) - 1;
    }
    return value;
  }

  /// Writes the low `width` (1..64) bits of `value` at bit offset `pos`.
  void SetField(size_t pos, int width, uint64_t value) {
    CCF_DCHECK(width >= 1 && width <= 64);
    CCF_DCHECK(pos + static_cast<size_t>(width) <= num_bits_);
    if (alias_keepalive_) EnsureOwned();
    uint64_t mask = width == 64 ? ~uint64_t{0} : (uint64_t{1} << width) - 1;
    value &= mask;
    size_t word = pos >> 6;
    int shift = static_cast<int>(pos & 63);
    words_[word] = (words_[word] & ~(mask << shift)) | (value << shift);
    int bits_in_lo = 64 - shift;
    if (width > bits_in_lo) {
      uint64_t hi_mask = mask >> bits_in_lo;
      words_[word + 1] =
          (words_[word + 1] & ~hi_mask) | (value >> bits_in_lo);
    }
  }

  /// Returns 64 bits loaded from the byte containing `pos`, shifted so bit
  /// `pos` lands at bit 0. At least 57 bits starting at `pos` are valid
  /// (bits past size() read as zero via the guard word). This is the
  /// single-load fast path of the bucket fingerprint resolver: one unaligned
  /// load + shift instead of GetField's two-word merge.
  uint64_t LoadBits64(size_t pos) const {
    CCF_DCHECK(pos < num_bits_);
    uint64_t w;
    std::memcpy(&w, reinterpret_cast<const char*>(words_) + (pos >> 3),
                sizeof(w));
    return w >> (pos & 7);
  }

  /// Number of set bits in the whole vector.
  size_t PopCount() const;

  bool operator==(const BitVector& other) const {
    return num_bits_ == other.num_bits_ &&
           (num_words_ == 0 ||
            std::memcmp(words_, other.words_,
                        num_words_ * sizeof(uint64_t)) == 0);
  }

  /// True when the words alias an external buffer (alias-mode Load) and a
  /// mutation would copy-on-write first.
  bool aliased() const { return alias_keepalive_ != nullptr; }

  /// Serializes size + words (8-byte aligned from the blob start, so an
  /// alias-mode Load can point at them in place).
  void Save(ByteWriter* writer) const;
  /// Restores a vector written by Save. With `alias` non-null the loaded
  /// vector references the reader's buffer directly when the word array is
  /// 8-byte aligned in memory (copying otherwise); `alias->keepalive` is
  /// retained until the vector is destroyed or copy-on-writes.
  static Result<BitVector> Load(ByteReader* reader,
                                const AliasMapping* alias = nullptr);

 private:
  void Deallocate();
  /// Copies aliased words into an owned allocation and drops the keepalive.
  void EnsureOwned();

  size_t num_bits_ = 0;
  size_t num_words_ = 0;   // ceil(num_bits_ / 64); excludes the guard word
  uint64_t* words_ = nullptr;
  // Raw mapping bookkeeping when mmap-backed (nullptr => heap-backed).
  void* map_base_ = nullptr;
  size_t map_bytes_ = 0;
  // Non-null iff words_ aliases an external read-only buffer; keeps the
  // buffer (e.g. a MappedFile) alive for the vector's lifetime.
  std::shared_ptr<const void> alias_keepalive_;
};

}  // namespace ccf

#endif  // CCF_UTIL_BIT_VECTOR_H_
