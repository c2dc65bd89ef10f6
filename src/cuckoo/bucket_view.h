// Bucket fingerprint kernels: "which slots of this bucket hold fingerprint
// κ?" answered as one dense slot bitmask.
//
//   * MatchDirectSwar — payload-free tables (CuckooFilter) whose whole
//     bucket fits in one unaligned 64-bit load: the probe fingerprint is
//     broadcast with a multiply and all slots are compared at once with an
//     exact per-lane SWAR zero test.
//   * MatchStrided    — every other geometry (all CCF variants, any slot
//     width): one unaligned LoadBits64 per slot, masked to the fingerprint
//     field and compared. Portable, branch-free, and it touches only the
//     bytes the bucket's slots live in (plus the 7-byte load tail), so the
//     bucket's own cache lines are the only ones it needs.
//
// Both return the mask a slot-by-slot fingerprint_any scan would produce
// (bit s set iff slot s's fingerprint field equals fp). Occupancy is not
// consulted: unoccupied and erased slots read fingerprint 0, so callers
// confirm occupancy only when the mask is non-zero.
#ifndef CCF_CUCKOO_BUCKET_VIEW_H_
#define CCF_CUCKOO_BUCKET_VIEW_H_

#include <bit>
#include <cstddef>
#include <cstdint>

#include "util/bit_vector.h"

namespace ccf {

namespace bucket_simd {

/// How many logical bits a BitVector::LoadBits64 is guaranteed to deliver
/// (64 minus the worst-case intra-byte shift).
inline constexpr int kLoadBits = 57;

/// Precomputed masks for `lanes` lanes of `width` bits packed at stride
/// `width` from bit 0 of a word.
struct SwarGeometry {
  uint64_t ones = 0;   // 1 at each lane's LSB
  uint64_t lows = 0;   // 2^(width-1) - 1 in each lane
  uint64_t highs = 0;  // 1 at each lane's MSB
};

constexpr SwarGeometry MakeSwarGeometry(int width, int lanes) {
  SwarGeometry g;
  for (int i = 0; i < lanes; ++i) {
    g.ones |= uint64_t{1} << (i * width);
  }
  g.highs = g.ones << (width - 1);
  g.lows = g.ones * ((uint64_t{1} << (width - 1)) - 1);
  return g;
}

/// Exact per-lane zero test (Hacker's Delight 6-2, per-lane form): the MSB
/// of each lane of the result is set iff that lane of `x` is zero. Unlike
/// the cheaper (x - ones) & ~x & highs idiom this cannot false-positive
/// from cross-lane borrows: (x & lows) + lows stays below 2^width per lane.
inline uint64_t ZeroLaneMsbs(uint64_t x, const SwarGeometry& g) {
  return ~(((x & g.lows) + g.lows) | x | g.lows) & g.highs;
}

/// Collapses lane-MSB flags to a dense per-lane bitmask. Iterates only set
/// flags (matches are rare on the probe path).
inline uint32_t DenseMaskFromMsbs(uint64_t msbs, int width) {
  uint32_t out = 0;
  while (msbs != 0) {
    int bit = std::countr_zero(msbs);
    out |= uint32_t{1} << (bit / width);
    msbs &= msbs - 1;
  }
  return out;
}

/// Direct kernel: all lanes live in `word` at stride `width`; `g` must
/// come from MakeSwarGeometry(width, slots). Bits of `word` above the last
/// lane are ignored (g's masks do not cover them).
inline uint32_t MatchDirectSwar(uint64_t word, uint32_t fp, int width,
                                const SwarGeometry& g) {
  uint64_t x = word ^ (g.ones * fp);
  return DenseMaskFromMsbs(ZeroLaneMsbs(x, g), width);
}

/// Strided kernel: `slots` slots of `slot_bits` bits starting at bit
/// `bucket_bit` of `bits`, each slot's fingerprint in its low bits under
/// `fp_mask` (fingerprints are at most 32 bits, well inside a LoadBits64).
inline uint64_t MatchStrided(const BitVector& bits, size_t bucket_bit,
                             int slots, int slot_bits, uint32_t fp_mask,
                             uint32_t fp) {
  uint64_t out = 0;
  for (int s = 0; s < slots; ++s) {
    const uint32_t field =
        static_cast<uint32_t>(bits.LoadBits64(bucket_bit)) & fp_mask;
    out |= static_cast<uint64_t>(field == fp) << s;
    bucket_bit += static_cast<size_t>(slot_bits);
  }
  return out;
}

}  // namespace bucket_simd

}  // namespace ccf

#endif  // CCF_CUCKOO_BUCKET_VIEW_H_
