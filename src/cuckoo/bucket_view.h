// Bucket fingerprint kernel: "which slots of this bucket hold fingerprint
// κ?" answered as one dense slot bitmask, for every table geometry.
//
// A BitVector::LoadBits64 from a slot's first bit delivers 57 valid bits:
// the fingerprint fields of lanes = min(slots, (57 - fp_bits) / slot_bits
// + 1) consecutive slots, lane i's field at bits [i * slot_bits, i *
// slot_bits + fp_bits). A bucket takes one load per group of `lanes`
// slots. Each load is XORed with the probe fingerprint broadcast to every
// lane, and an exact per-lane zero test over the fingerprint fields flags
// the matching lanes; payload bits between the fields are masked out.
// Payload-free buckets that fit one load (CuckooFilter) take one load, the
// 24-, 28- and 36-bit CCF slots with 12-bit fingerprints take 2 lanes per
// load, and slots wider than 57 - fp_bits take one load per slot.
//
// The mask equals BucketTable::MatchMaskScalar's slot-by-slot compare.
// Occupancy is not consulted: unoccupied and erased slots read fingerprint
// 0, so callers confirm occupancy only when the mask is non-zero. The last
// group's load reads 8 bytes from its first slot's first byte; lanes past
// the bucket's last slot read the next bucket or the BitVector guard word
// and are cut from the mask.
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

/// Fixed-point shift of LaneGeometry::lane_recip.
inline constexpr int kLaneRecipShift = 16;

/// Per-table constants of the lane kernel, packed into 32 bytes.
struct LaneGeometry {
  uint64_t ones = 0;        // 1 at each lane's LSB (bit i * slot_bits)
  uint64_t highs = 0;       // the top bit of each fingerprint field
  uint64_t slot_mask = 0;   // the low `slots` bits
  uint32_t lane_recip = 0;  // ceil(2^16 / slot_bits), see LaneOfBit
  uint16_t group_bits = 0;  // lanes * slot_bits: the stride of the loads
  uint8_t lanes = 0;
  uint8_t slots = 0;
};

/// Geometry for `slots` (1..64) slots of `slot_bits` (fp_bits..4128) bits
/// whose low `fp_bits` (1..32) bits are the fingerprint.
constexpr LaneGeometry MakeLaneGeometry(int slots, int fp_bits,
                                        int slot_bits) {
  LaneGeometry g;
  const int fit = (kLoadBits - fp_bits) / slot_bits + 1;
  const int lanes = fit < slots ? fit : slots;
  for (int i = 0; i < lanes; ++i) g.ones |= uint64_t{1} << (i * slot_bits);
  g.highs = g.ones << (fp_bits - 1);
  g.slot_mask = slots == 64 ? ~uint64_t{0} : (uint64_t{1} << slots) - 1;
  g.lane_recip = static_cast<uint32_t>(
      ((1 << kLaneRecipShift) + slot_bits - 1) / slot_bits);
  g.group_bits = static_cast<uint16_t>(lanes * slot_bits);
  g.lanes = static_cast<uint8_t>(lanes);
  g.slots = static_cast<uint8_t>(slots);
  return g;
}

/// bit / slot_bits for a ZeroLaneMsbs flag bit: the rounding error is under
/// 64 / 2^16 < 1 / slot_bits for the <= 56-bit slots that have 2+ lanes;
/// one-lane slots flag only bit fp_bits - 1 and yield 0 (a test checks
/// every geometry).
inline int LaneOfBit(int bit, const LaneGeometry& g) {
  return static_cast<int>((static_cast<uint32_t>(bit) * g.lane_recip) >>
                          kLaneRecipShift);
}

/// Exact per-lane zero test (Hacker's Delight 6-2, per-lane form) over the
/// fingerprint fields: the top bit of each field is set in the result iff
/// that field of `x` is zero. `lows` holds the low fp_bits - 1 bits of each
/// field. Unlike the cheaper (x - ones) & ~x & highs idiom this cannot
/// false-positive from cross-lane borrows: (x & lows) + lows stays inside
/// each field.
inline uint64_t ZeroLaneMsbs(uint64_t x, const LaneGeometry& g) {
  const uint64_t lows = g.highs - g.ones;
  return ~(((x & lows) + lows) | x | lows) & g.highs;
}

/// Dense lane bits of ZeroLaneMsbs flags: bit i set iff lane i matched.
inline uint64_t LaneBits(uint64_t msbs, const LaneGeometry& g) {
  uint64_t lanes = 0;
  for (; msbs != 0; msbs &= msbs - 1)
    lanes |= uint64_t{1} << LaneOfBit(std::countr_zero(msbs), g);
  return lanes;
}

/// Match mask of the bucket whose first slot starts at bit `bucket_bit` of
/// `bits`: bit s set iff slot s's fingerprint field equals `fp`. The peeled
/// first group makes a one-group bucket one load and one zero test.
inline uint64_t MatchLanes(const BitVector& bits, size_t bucket_bit,
                           uint32_t fp, const LaneGeometry& g) {
  const uint64_t probe = g.ones * fp;
  uint64_t msbs = ZeroLaneMsbs(bits.LoadBits64(bucket_bit) ^ probe, g);
  uint64_t out = 0;
  if (msbs != 0) [[unlikely]] out = LaneBits(msbs, g);
  for (int first = g.lanes; first < g.slots; first += g.lanes) {
    bucket_bit += g.group_bits;
    msbs = ZeroLaneMsbs(bits.LoadBits64(bucket_bit) ^ probe, g);
    if (msbs != 0) [[unlikely]] out |= LaneBits(msbs, g) << first;
  }
  return out & g.slot_mask;
}

}  // namespace bucket_simd

}  // namespace ccf

#endif  // CCF_CUCKOO_BUCKET_VIEW_H_
