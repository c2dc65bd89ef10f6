#include "util/bit_vector.h"

#include <bit>
#include <cstdint>
#include <cstring>
#include <new>
#include <utility>

#if defined(__linux__)
#include <sys/mman.h>
#endif

namespace ccf {

namespace {

constexpr size_t kHugePageBytes = 2 * 1024 * 1024;

size_t NumWordsFor(size_t num_bits) { return (num_bits + 63) / 64; }

// Allocation plan for `words` logical words plus one guard word.
struct Allocation {
  uint64_t* words = nullptr;
  void* map_base = nullptr;  // nullptr => heap-backed
  size_t map_bytes = 0;
};

// Multi-megabyte vectors get a fresh 2 MiB-aligned anonymous mapping that is
// MADV_HUGEPAGE-advised before any byte is touched, so first-touch faults
// populate huge pages directly (no khugepaged collapse delay). Anonymous
// mappings are zero-filled, so no explicit (page-touching) zeroing happens
// here either. Smaller vectors use the heap.
Allocation AllocateWords(size_t words) {
  Allocation out;
  size_t bytes = (words + 1) * sizeof(uint64_t);
#if defined(__linux__)
  if (bytes >= kHugePageBytes) {
    size_t rounded = (bytes + kHugePageBytes - 1) & ~(kHugePageBytes - 1);
    size_t map_bytes = rounded + kHugePageBytes;
    void* raw = mmap(nullptr, map_bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (raw != MAP_FAILED) {
      // Trim to a 2 MiB-aligned interior so every huge-page frame is usable.
      uintptr_t base = reinterpret_cast<uintptr_t>(raw);
      uintptr_t aligned = (base + kHugePageBytes - 1) & ~(kHugePageBytes - 1);
      if (aligned > base) {
        (void)munmap(raw, aligned - base);
      }
      uintptr_t tail = aligned + rounded;
      uintptr_t map_end = base + map_bytes;
      if (map_end > tail) {
        (void)munmap(reinterpret_cast<void*>(tail), map_end - tail);
      }
      (void)madvise(reinterpret_cast<void*>(aligned), rounded, MADV_HUGEPAGE);
      out.words = reinterpret_cast<uint64_t*>(aligned);
      out.map_base = reinterpret_cast<void*>(aligned);
      out.map_bytes = rounded;
      return out;
    }
    // mmap failure falls through to the heap path.
  }
#endif
  out.words = new uint64_t[words + 1]();  // value-init: zeroed
  return out;
}

}  // namespace

void BitVector::Deallocate() {
  if (alias_keepalive_) {
    // Aliased words live in the external buffer; dropping the keepalive is
    // the whole deallocation.
    alias_keepalive_.reset();
    words_ = nullptr;
    return;
  }
#if defined(__linux__)
  if (map_base_ != nullptr) {
    (void)munmap(map_base_, map_bytes_);
    map_base_ = nullptr;
    map_bytes_ = 0;
    words_ = nullptr;
    return;
  }
#endif
  delete[] words_;
  words_ = nullptr;
}

BitVector& BitVector::operator=(const BitVector& other) {
  if (this == &other) return *this;
  Deallocate();
  num_bits_ = other.num_bits_;
  num_words_ = other.num_words_;
  Allocation alloc = AllocateWords(num_words_);
  words_ = alloc.words;
  map_base_ = alloc.map_base;
  map_bytes_ = alloc.map_bytes;
  if (num_words_ > 0) {
    std::memcpy(words_, other.words_, num_words_ * sizeof(uint64_t));
  }
  return *this;
}

BitVector& BitVector::operator=(BitVector&& other) noexcept {
  if (this == &other) return *this;
  Deallocate();
  num_bits_ = other.num_bits_;
  num_words_ = other.num_words_;
  words_ = other.words_;
  map_base_ = other.map_base_;
  map_bytes_ = other.map_bytes_;
  alias_keepalive_ = std::move(other.alias_keepalive_);
  other.num_bits_ = 0;
  other.num_words_ = 0;
  other.words_ = nullptr;
  other.map_base_ = nullptr;
  other.map_bytes_ = 0;
  return *this;
}

void BitVector::EnsureOwned() {
  if (!alias_keepalive_) return;
  Allocation alloc = AllocateWords(num_words_);
  if (num_words_ > 0) {
    std::memcpy(alloc.words, words_, num_words_ * sizeof(uint64_t));
  }
  words_ = alloc.words;
  map_base_ = alloc.map_base;
  map_bytes_ = alloc.map_bytes;
  alias_keepalive_.reset();
}

void BitVector::Resize(size_t num_bits) {
  if (alias_keepalive_) EnsureOwned();
  size_t new_words = NumWordsFor(num_bits);
  if (new_words != num_words_ || words_ == nullptr) {
    Allocation alloc = AllocateWords(new_words);
    size_t keep = new_words < num_words_ ? new_words : num_words_;
    if (keep > 0) std::memcpy(alloc.words, words_, keep * sizeof(uint64_t));
    Deallocate();
    words_ = alloc.words;
    map_base_ = alloc.map_base;
    map_bytes_ = alloc.map_bytes;
    num_words_ = new_words;
  }
  num_bits_ = num_bits;
  // Clear any stale bits beyond the new logical size in the last word so
  // PopCount and equality stay exact after shrinking.
  if (num_bits_ % 64 != 0 && num_words_ > 0) {
    uint64_t keep_mask = (uint64_t{1} << (num_bits_ % 64)) - 1;
    words_[num_words_ - 1] &= keep_mask;
  }
}

void BitVector::Clear() {
  if (alias_keepalive_) EnsureOwned();
  if (num_words_ > 0) std::memset(words_, 0, num_words_ * sizeof(uint64_t));
}

void BitVector::Save(ByteWriter* writer) const {
  writer->WriteU64(num_bits_);
  // Pad so the word array sits 8-byte aligned from the blob start: a
  // page-aligned mapping of the blob can then alias it in place.
  writer->AlignTo(8);
  for (size_t i = 0; i < num_words_; ++i) writer->WriteU64(words_[i]);
}

Result<BitVector> BitVector::Load(ByteReader* reader,
                                  const AliasMapping* alias) {
  CCF_ASSIGN_OR_RETURN(uint64_t num_bits, reader->ReadU64());
  if (num_bits > (uint64_t{1} << 40)) {
    return Status::Invalid("implausible BitVector size");
  }
  CCF_RETURN_NOT_OK(reader->AlignTo(8));
  size_t num_words = NumWordsFor(num_bits);
  CCF_ASSIGN_OR_RETURN(std::string_view raw,
                       reader->ReadRaw(num_words * sizeof(uint64_t)));
  if (alias != nullptr && alias->keepalive != nullptr) {
    // Alias only when the serialized words are 8-byte aligned IN MEMORY
    // (blob-relative alignment is guaranteed by Save; absolute alignment
    // additionally needs the buffer itself 8-aligned, true for mmap and
    // for most heap buffers) and the tail bits past num_bits are already
    // zero — they can't be masked in place on a read-only mapping. Save
    // guarantees zero tails, so the check only rejects foreign blobs.
    // NOTE: an aliased array has no owned guard word, so the caller's
    // keepalive region must stay readable >= 8 bytes past the blob (see
    // AliasMapping) — wide readers overread up to 7 bytes past the array.
    bool ptr_aligned =
        reinterpret_cast<uintptr_t>(raw.data()) % alignof(uint64_t) == 0;
    bool tail_zero = true;
    if (num_bits % 64 != 0 && num_words > 0) {
      uint64_t last;
      std::memcpy(&last, raw.data() + (num_words - 1) * sizeof(uint64_t),
                  sizeof(last));
      tail_zero = (last >> (num_bits % 64)) == 0;
    }
    if (ptr_aligned && tail_zero) {
      BitVector out;
      out.num_bits_ = num_bits;
      out.num_words_ = num_words;
      // The const_cast is confined: every mutator copy-on-writes via
      // EnsureOwned before the first store, so aliased words are only
      // ever read.
      out.words_ = const_cast<uint64_t*>(
          reinterpret_cast<const uint64_t*>(raw.data()));
      out.alias_keepalive_ = alias->keepalive;
      return out;
    }
  }
  BitVector out(num_bits);
  if (num_words > 0) {
    std::memcpy(out.words_, raw.data(), num_words * sizeof(uint64_t));
  }
  // Enforce the invariant that bits beyond num_bits are zero.
  if (num_bits % 64 != 0 && out.num_words_ > 0) {
    uint64_t keep_mask = (uint64_t{1} << (num_bits % 64)) - 1;
    out.words_[out.num_words_ - 1] &= keep_mask;
  }
  return out;
}

size_t BitVector::PopCount() const {
  size_t n = 0;
  for (size_t i = 0; i < num_words_; ++i) {
    n += static_cast<size_t>(std::popcount(words_[i]));
  }
  return n;
}

}  // namespace ccf
