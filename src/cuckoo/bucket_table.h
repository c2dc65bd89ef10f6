// BucketTable: the shared storage substrate for every cuckoo structure in
// this library (standard cuckoo filter and all CCF variants).
//
// Layout: m buckets × b slots. Each slot is `fingerprint_bits +
// payload_bits` wide, packed contiguously in one BitVector; occupancy is a
// separate bitmap so that fingerprint value 0 stays valid. Reported sizes
// are the physical bit counts of this storage, which is what the paper's
// space accounting measures.
#ifndef CCF_CUCKOO_BUCKET_TABLE_H_
#define CCF_CUCKOO_BUCKET_TABLE_H_

#include <bit>
#include <cstdint>

#include "cuckoo/bucket_view.h"
#include "util/bit_vector.h"
#include "util/math_util.h"
#include "util/result.h"

namespace ccf {

/// \brief Bit-packed bucketized slot storage.
class BucketTable {
 public:
  /// Creates a table with `num_buckets` (rounded up to a power of two so
  /// partial-key XOR addressing closes over the bucket set), `slots_per
  /// bucket` slots each, and the given slot field widths.
  static Result<BucketTable> Make(uint64_t num_buckets, int slots_per_bucket,
                                  int fingerprint_bits, int payload_bits);

  /// Make's argument checks alone: Invalid where Make would fail, without
  /// allocating anything.
  static Status CheckGeometry(uint64_t num_buckets, int slots_per_bucket,
                              int fingerprint_bits, int payload_bits);

  uint64_t num_buckets() const { return num_buckets_; }
  int slots_per_bucket() const { return slots_per_bucket_; }
  int fingerprint_bits() const { return fingerprint_bits_; }
  int payload_bits() const { return payload_bits_; }
  uint64_t num_slots() const {
    return num_buckets_ * static_cast<uint64_t>(slots_per_bucket_);
  }
  uint64_t bucket_mask() const { return num_buckets_ - 1; }

  uint64_t num_occupied() const { return num_occupied_; }
  double LoadFactor() const {
    return static_cast<double>(num_occupied_) /
           static_cast<double>(num_slots());
  }

  /// Total physical size: slot bits plus occupancy bitmap.
  uint64_t SizeInBits() const {
    return slots_.size() + occupied_.size();
  }

  bool occupied(uint64_t bucket, int slot) const {
    return occupied_.GetBit(SlotIndex(bucket, slot));
  }

  /// Prefetches the slot line(s) a MatchMask of `bucket` reads — usually
  /// one, two when the bucket straddles a line boundary. The occupancy
  /// bitmap is a separate line and is NOT fetched: probes read it only for
  /// fingerprint-0 candidates (see ForEachOccupiedMatch).
  void PrefetchBucket(uint64_t bucket) const {
    const size_t first = SlotBitOffset(bucket, 0);
    slots_.PrefetchBitRange(first, first + read_tail_bits_);
  }

  /// PrefetchBucket with WRITE intent: pulls the bucket's lines in
  /// exclusive state so the insert that follows skips the read-for-
  /// ownership upgrade. Batched insert paths use this — they read the pair
  /// (dedupe scan) and then usually store to it.
  void PrefetchBucketForWrite(uint64_t bucket) const {
    size_t first = SlotBitOffset(bucket, 0);
    slots_.PrefetchBitForWrite(first);
    slots_.PrefetchBitForWrite(first + static_cast<size_t>(slot_bits_) *
                                           static_cast<size_t>(
                                               slots_per_bucket_) -
                               1);
    occupied_.PrefetchBitForWrite(SlotIndex(bucket, 0));
  }

  uint32_t fingerprint(uint64_t bucket, int slot) const {
    CCF_DCHECK(occupied(bucket, slot));
    return static_cast<uint32_t>(
        slots_.GetField(SlotBitOffset(bucket, slot), fingerprint_bits_));
  }

  /// Fingerprint field of a slot regardless of occupancy (Erase zeroes the
  /// whole slot, so unoccupied and erased slots read 0).
  uint32_t fingerprint_any(uint64_t bucket, int slot) const {
    return static_cast<uint32_t>(
        slots_.GetField(SlotBitOffset(bucket, slot), fingerprint_bits_));
  }

  /// Bit s set iff slot s's fingerprint equals `fp`, occupancy ignored:
  /// the one-pass replacement for a slot-by-slot fingerprint_any scan
  /// (see bucket_view.h). Reads only the bucket's slot line(s).
  uint64_t MatchMask(uint64_t bucket, uint32_t fp) const {
    const size_t first = SlotBitOffset(bucket, 0);
    if (direct_) {
      return bucket_simd::MatchDirectSwar(slots_.LoadBits64(first), fp,
                                          fingerprint_bits_, direct_geom_);
    }
    return bucket_simd::MatchStrided(slots_, first, slots_per_bucket_,
                                     slot_bits_, fp_mask_, fp);
  }

  /// The reference MatchMask: one GetField per slot. Differential tests pin
  /// the kernels to it.
  uint64_t MatchMaskScalar(uint64_t bucket, uint32_t fp) const;

  /// All slots_per_bucket occupancy bits of `bucket` as one word (bit s =
  /// slot s occupied). The bits are contiguous in the bitmap, so this is a
  /// single field load — the word-parallel companion of MatchMask.
  uint64_t OccupiedMask(uint64_t bucket) const {
    return occupied_.GetField(SlotIndex(bucket, 0), slots_per_bucket_);
  }

  /// THE MatchMask bit-walk: calls `fn(slot)` on every OCCUPIED slot of
  /// `bucket` whose fingerprint equals `fp`, in ascending slot order; `fn`
  /// returns true to stop early. Returns whether a call stopped the walk.
  /// Unoccupied and erased slots read fingerprint 0 (Put and PutSlot set
  /// occupancy with the fingerprint; Erase zeroes the slot), so a slot
  /// matching a NON-zero fingerprint is occupied: the occupancy word is
  /// read (and ANDed in) only for fingerprint-0 candidates, and most probes
  /// never touch the occupancy line. All pair scans, copy counters, and
  /// mark checks in the library go through this one helper instead of
  /// hand-rolling countr_zero loops.
  template <typename SlotFn>
  bool ForEachOccupiedMatch(uint64_t bucket, uint32_t fp, SlotFn&& fn) const {
    uint64_t mask = MatchMask(bucket, fp);
    if (fp == 0 && mask != 0) mask &= OccupiedMask(bucket);
    while (mask != 0) {
      int s = std::countr_zero(mask);
      mask &= mask - 1;
      if (fn(s)) return true;
    }
    return false;
  }

  /// Writes fingerprint + marks occupied. Payload bits are untouched (callers
  /// set them separately, possibly field by field).
  void Put(uint64_t bucket, int slot, uint32_t fp) {
    slots_.SetField(SlotBitOffset(bucket, slot), fingerprint_bits_, fp);
    uint64_t idx = SlotIndex(bucket, slot);
    if (!occupied_.GetBit(idx)) {
      occupied_.SetBit(idx, true);
      ++num_occupied_;
    }
  }

  /// Total bits per slot (fingerprint + payload).
  int slot_bits() const { return slot_bits_; }

  /// Writes fingerprint AND the entire payload in one field write and
  /// marks the slot occupied — bit-identical to Put() followed by storing
  /// `payload` across all payload bits. Requires slot_bits() <= 64
  /// (callers gate); the packed fast path of the bulk-insert waves.
  void PutSlot(uint64_t bucket, int slot, uint32_t fp, uint64_t payload) {
    CCF_DCHECK(slot_bits_ <= 64);
    CCF_DCHECK(payload_bits_ >= 64 || payload < (uint64_t{1} << payload_bits_));
    slots_.SetField(SlotBitOffset(bucket, slot), slot_bits_,
                    static_cast<uint64_t>(fp) | (payload << fingerprint_bits_));
    uint64_t idx = SlotIndex(bucket, slot);
    if (!occupied_.GetBit(idx)) {
      occupied_.SetBit(idx, true);
      ++num_occupied_;
    }
  }

  /// Clears occupancy and zeroes the whole slot (fingerprint + payload).
  void Erase(uint64_t bucket, int slot);

  /// Index of the first free slot in `bucket`, or -1 if full.
  int FirstFreeSlot(uint64_t bucket) const;

  /// Number of occupied slots in `bucket` whose fingerprint equals `fp`.
  int CountFingerprint(uint64_t bucket, uint32_t fp) const;

  /// Number of occupied slots in `bucket`.
  int CountOccupied(uint64_t bucket) const;

  // --- Payload access ------------------------------------------------------

  /// Reads `width` bits of the slot payload starting at payload-relative bit
  /// `field_pos`.
  uint64_t GetPayloadField(uint64_t bucket, int slot, int field_pos,
                           int width) const {
    CCF_DCHECK(field_pos + width <= payload_bits_);
    return slots_.GetField(PayloadBitOffset(bucket, slot) +
                               static_cast<size_t>(field_pos),
                           width);
  }

  void SetPayloadField(uint64_t bucket, int slot, int field_pos, int width,
                       uint64_t value) {
    CCF_DCHECK(field_pos + width <= payload_bits_);
    slots_.SetField(PayloadBitOffset(bucket, slot) +
                        static_cast<size_t>(field_pos),
                    width, value);
  }

  /// Zeroes the payload bits of a slot.
  void ClearPayload(uint64_t bucket, int slot);

  /// Absolute bit offset of a slot's payload within bits() — used by
  /// BloomSketchView to treat payload windows as tiny Bloom filters.
  size_t PayloadBitOffset(uint64_t bucket, int slot) const {
    return SlotBitOffset(bucket, slot) +
           static_cast<size_t>(fingerprint_bits_);
  }

  /// Underlying storage, exposed for BloomSketchView windows.
  BitVector* bits() { return &slots_; }
  const BitVector* bits() const { return &slots_; }

  /// Copies the full slot (fingerprint + payload + occupancy) from
  /// (src_bucket, src_slot) over (dst_bucket, dst_slot).
  void CopySlot(uint64_t src_bucket, int src_slot, uint64_t dst_bucket,
                int dst_slot);

  /// Swaps two slots entirely (fingerprint + payload + occupancy).
  void SwapSlots(uint64_t bucket_a, int slot_a, uint64_t bucket_b, int slot_b);

  /// Serializes geometry + contents.
  void Save(ByteWriter* writer) const;
  /// OutOfRange (truncated) unless `available` bytes can hold the slot and
  /// occupancy bit arrays of a table with this geometry (`slot_bits` per
  /// slot plus one occupancy bit). Deserializers run it on header fields
  /// BEFORE Make, so a patched bucket count cannot demand an allocation the
  /// blob does not back; a lower bound on `slot_bits` is enough for that.
  static Status CheckSerializedSize(uint64_t num_buckets,
                                    int64_t slots_per_bucket,
                                    int64_t slot_bits, size_t available);

  /// Restores a table written by Save. With `alias` non-null the slot and
  /// occupancy BitVectors reference the reader's buffer in place where
  /// alignment permits (see BitVector::Load).
  static Result<BucketTable> Load(ByteReader* reader,
                                  const AliasMapping* alias = nullptr);

 private:
  /// `allocate` false leaves the slot and occupancy vectors empty for Load
  /// to fill, so a load never holds a zeroed table beside the loaded one.
  BucketTable(uint64_t num_buckets, int slots_per_bucket, int fingerprint_bits,
              int payload_bits, bool allocate);

  uint64_t SlotIndex(uint64_t bucket, int slot) const {
    CCF_DCHECK(bucket < num_buckets_);
    CCF_DCHECK(slot >= 0 && slot < slots_per_bucket_);
    return bucket * static_cast<uint64_t>(slots_per_bucket_) +
           static_cast<uint64_t>(slot);
  }

  size_t SlotBitOffset(uint64_t bucket, int slot) const {
    return static_cast<size_t>(SlotIndex(bucket, slot)) *
           static_cast<size_t>(slot_bits_);
  }

  uint64_t num_buckets_;
  int slots_per_bucket_;
  int fingerprint_bits_;
  int payload_bits_;
  int slot_bits_;
  uint64_t num_occupied_ = 0;
  /// MatchMask geometry: direct_ when the payload-free bucket fits one
  /// LoadBits64 (MatchDirectSwar), else the per-slot MatchStrided kernel.
  bool direct_;
  uint32_t fp_mask_;
  bucket_simd::SwarGeometry direct_geom_;
  /// Offset from a bucket's first bit to the last bit MatchMask or a slot
  /// read may touch (the 8-byte load tail included): PrefetchBucket's span.
  size_t read_tail_bits_;
  BitVector slots_;
  BitVector occupied_;
};

}  // namespace ccf

#endif  // CCF_CUCKOO_BUCKET_TABLE_H_
