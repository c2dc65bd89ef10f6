#include "cuckoo/bucket_table.h"

#include <algorithm>

namespace ccf {

BucketTable::BucketTable(uint64_t num_buckets, int slots_per_bucket,
                         int fingerprint_bits, int payload_bits, bool allocate)
    : num_buckets_(num_buckets),
      slots_per_bucket_(slots_per_bucket),
      fingerprint_bits_(fingerprint_bits),
      payload_bits_(payload_bits),
      slot_bits_(fingerprint_bits + payload_bits),
      lane_geom_(bucket_simd::MakeLaneGeometry(slots_per_bucket,
                                               fingerprint_bits, slot_bits_)),
      // bit + 56 is in the last byte a LoadBits64 from `bit` reads; payload
      // reads reach the bucket's last bit.
      read_tail_bits_(std::max<size_t>(
          static_cast<size_t>((slots_per_bucket - 1) / lane_geom_.lanes) *
                  lane_geom_.group_bits + 56,
          static_cast<size_t>(slots_per_bucket) * slot_bits_ - 1)),
      slots_(allocate ? BitVector(static_cast<size_t>(num_buckets) *
                                  static_cast<size_t>(slots_per_bucket) *
                                  static_cast<size_t>(fingerprint_bits +
                                                      payload_bits))
                      : BitVector()),
      occupied_(allocate ? BitVector(static_cast<size_t>(num_buckets) *
                                     static_cast<size_t>(slots_per_bucket))
                         : BitVector()) {}

Result<BucketTable> BucketTable::Make(uint64_t num_buckets,
                                      int slots_per_bucket,
                                      int fingerprint_bits, int payload_bits) {
  CCF_RETURN_NOT_OK(CheckGeometry(num_buckets, slots_per_bucket,
                                  fingerprint_bits, payload_bits));
  return BucketTable(NextPowerOfTwo(num_buckets), slots_per_bucket,
                     fingerprint_bits, payload_bits, /*allocate=*/true);
}

Status BucketTable::CheckGeometry(uint64_t num_buckets, int slots_per_bucket,
                                  int fingerprint_bits, int payload_bits) {
  if (num_buckets == 0) {
    return Status::Invalid("BucketTable requires at least one bucket");
  }
  if (slots_per_bucket < 1 || slots_per_bucket > 64) {
    return Status::Invalid("slots_per_bucket must be in [1, 64]");
  }
  if (fingerprint_bits < 1 || fingerprint_bits > 32) {
    return Status::Invalid("fingerprint_bits must be in [1, 32]");
  }
  if (payload_bits < 0 || payload_bits > 4096) {
    return Status::Invalid("payload_bits must be in [0, 4096]");
  }
  return Status::OK();
}

void BucketTable::Erase(uint64_t bucket, int slot) {
  uint64_t idx = SlotIndex(bucket, slot);
  if (occupied_.GetBit(idx)) {
    occupied_.SetBit(idx, false);
    --num_occupied_;
  }
  // Zero the slot so erased payload bits cannot leak into later packings.
  size_t base = SlotBitOffset(bucket, slot);
  int remaining = slot_bits_;
  while (remaining > 0) {
    int chunk = remaining > 64 ? 64 : remaining;
    slots_.SetField(base, chunk, 0);
    base += static_cast<size_t>(chunk);
    remaining -= chunk;
  }
}

int BucketTable::FirstFreeSlot(uint64_t bucket) const {
  int s = std::countr_one(OccupiedMask(bucket));
  return s < slots_per_bucket_ ? s : -1;
}

int BucketTable::CountFingerprint(uint64_t bucket, uint32_t fp) const {
  int n = 0;
  ForEachOccupiedMatch(bucket, fp, [&](int) {
    ++n;
    return false;
  });
  return n;
}

uint64_t BucketTable::MatchMaskScalar(uint64_t bucket, uint32_t fp) const {
  uint64_t mask = 0;
  for (int s = 0; s < slots_per_bucket_; ++s) {
    if (fingerprint_any(bucket, s) == fp) mask |= uint64_t{1} << s;
  }
  return mask;
}

int BucketTable::CountOccupied(uint64_t bucket) const {
  return std::popcount(OccupiedMask(bucket));
}

void BucketTable::ClearPayload(uint64_t bucket, int slot) {
  size_t base = PayloadBitOffset(bucket, slot);
  int remaining = payload_bits_;
  while (remaining > 0) {
    int chunk = remaining > 64 ? 64 : remaining;
    slots_.SetField(base, chunk, 0);
    base += static_cast<size_t>(chunk);
    remaining -= chunk;
  }
}

void BucketTable::CopySlot(uint64_t src_bucket, int src_slot,
                           uint64_t dst_bucket, int dst_slot) {
  size_t src = SlotBitOffset(src_bucket, src_slot);
  size_t dst = SlotBitOffset(dst_bucket, dst_slot);
  int remaining = slot_bits_;
  while (remaining > 0) {
    int chunk = remaining > 64 ? 64 : remaining;
    slots_.SetField(dst, chunk, slots_.GetField(src, chunk));
    src += static_cast<size_t>(chunk);
    dst += static_cast<size_t>(chunk);
    remaining -= chunk;
  }
  uint64_t si = SlotIndex(src_bucket, src_slot);
  uint64_t di = SlotIndex(dst_bucket, dst_slot);
  bool src_occ = occupied_.GetBit(si);
  bool dst_occ = occupied_.GetBit(di);
  if (src_occ != dst_occ) {
    occupied_.SetBit(di, src_occ);
    num_occupied_ += src_occ ? 1 : 0;
    num_occupied_ -= dst_occ ? 1 : 0;
  }
}

void BucketTable::SwapSlots(uint64_t bucket_a, int slot_a, uint64_t bucket_b,
                            int slot_b) {
  size_t a = SlotBitOffset(bucket_a, slot_a);
  size_t b = SlotBitOffset(bucket_b, slot_b);
  int remaining = slot_bits_;
  while (remaining > 0) {
    int chunk = remaining > 64 ? 64 : remaining;
    uint64_t va = slots_.GetField(a, chunk);
    uint64_t vb = slots_.GetField(b, chunk);
    slots_.SetField(a, chunk, vb);
    slots_.SetField(b, chunk, va);
    a += static_cast<size_t>(chunk);
    b += static_cast<size_t>(chunk);
    remaining -= chunk;
  }
  uint64_t ia = SlotIndex(bucket_a, slot_a);
  uint64_t ib = SlotIndex(bucket_b, slot_b);
  bool oa = occupied_.GetBit(ia);
  bool ob = occupied_.GetBit(ib);
  occupied_.SetBit(ia, ob);
  occupied_.SetBit(ib, oa);
}

void BucketTable::Save(ByteWriter* writer) const {
  writer->WriteU64(num_buckets_);
  writer->WriteU32(static_cast<uint32_t>(slots_per_bucket_));
  writer->WriteU32(static_cast<uint32_t>(fingerprint_bits_));
  writer->WriteU32(static_cast<uint32_t>(payload_bits_));
  writer->WriteU64(num_occupied_);
  slots_.Save(writer);
  occupied_.Save(writer);
}

Status BucketTable::CheckSerializedSize(uint64_t num_buckets,
                                        int64_t slots_per_bucket,
                                        int64_t slot_bits, size_t available) {
  if (slots_per_bucket <= 0) return Status::OK();  // Make rejects it
  using U128 = unsigned __int128;
  // < 2^96: no overflow for any header values.
  const U128 bits_per_bucket =
      static_cast<U128>(slots_per_bucket) *
      static_cast<U128>(std::max<int64_t>(slot_bits, 0) + 1);
  const U128 max_buckets =
      (static_cast<U128>(available) * 8 + 7) / bits_per_bucket;
  // Make rounds the bucket count up to a power of two.
  if (num_buckets > (uint64_t{1} << 63) ||
      static_cast<U128>(NextPowerOfTwo(num_buckets)) > max_buckets) {
    return Status::OutOfRange(
        "serialized buffer truncated: the table geometry in its header "
        "needs more bytes than remain");
  }
  return Status::OK();
}

Result<BucketTable> BucketTable::Load(ByteReader* reader,
                                      const AliasMapping* alias) {
  CCF_ASSIGN_OR_RETURN(uint64_t num_buckets, reader->ReadU64());
  CCF_ASSIGN_OR_RETURN(uint32_t slots, reader->ReadU32());
  CCF_ASSIGN_OR_RETURN(uint32_t fp_bits, reader->ReadU32());
  CCF_ASSIGN_OR_RETURN(uint32_t payload_bits, reader->ReadU32());
  CCF_ASSIGN_OR_RETURN(uint64_t num_occupied, reader->ReadU64());
  CCF_RETURN_NOT_OK(CheckSerializedSize(
      num_buckets, slots, int64_t{fp_bits} + int64_t{payload_bits},
      reader->remaining()));
  CCF_RETURN_NOT_OK(CheckGeometry(num_buckets, static_cast<int>(slots),
                                  static_cast<int>(fp_bits),
                                  static_cast<int>(payload_bits)));
  if (NextPowerOfTwo(num_buckets) != num_buckets) {
    return Status::Invalid("serialized bucket count not a power of two");
  }
  // Geometry only: the vectors come straight from the blob below.
  BucketTable table(num_buckets, static_cast<int>(slots),
                    static_cast<int>(fp_bits), static_cast<int>(payload_bits),
                    /*allocate=*/false);
  CCF_ASSIGN_OR_RETURN(table.slots_, BitVector::Load(reader, alias));
  CCF_ASSIGN_OR_RETURN(table.occupied_, BitVector::Load(reader, alias));
  uint64_t expected_slot_bits =
      table.num_slots() * static_cast<uint64_t>(table.slot_bits_);
  if (table.slots_.size() != expected_slot_bits ||
      table.occupied_.size() != table.num_slots()) {
    return Status::Invalid("serialized BucketTable bit counts inconsistent");
  }
  if (table.occupied_.PopCount() != num_occupied) {
    return Status::Invalid("serialized occupancy count inconsistent");
  }
  table.num_occupied_ = num_occupied;
  return table;
}

}  // namespace ccf
