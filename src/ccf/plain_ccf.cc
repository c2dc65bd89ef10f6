#include "ccf/plain_ccf.h"

#include "ccf/entry_match.h"

namespace ccf {

PlainCcf::PlainCcf(CcfConfig config, BucketTable table)
    : CcfBase(config, std::move(table)),
      codec_(&hasher_, config.num_attrs, config.attr_fp_bits,
             config.small_value_opt) {}

std::unique_ptr<ConditionalCuckooFilter> PlainCcf::Make(
    const CcfConfig& config, BucketTable table) {
  return std::unique_ptr<ConditionalCuckooFilter>(
      new PlainCcf(config, std::move(table)));
}

Status PlainCcf::Insert(uint64_t key, std::span<const uint64_t> attrs) {
  if (static_cast<int>(attrs.size()) != config_.num_attrs) {
    return Status::Invalid("attribute count does not match schema");
  }
  EnsureTableUnique();
  uint64_t bucket;
  uint32_t fp;
  KeyAddress(key, &bucket, &fp);
  BucketPair pair = PairOf(bucket, fp);
  return InsertAddressed(pair, fp, attrs);
}

Status PlainCcf::InsertAddressed(const BucketPair& pair, uint32_t fp,
                                 std::span<const uint64_t> attrs) {
  // Collapse duplicate (κ, α) rows.
  for (const auto& [b, s] : SlotsWithFp(pair, fp)) {
    if (codec_.EqualsStored(*table_, b, s, /*base=*/0, attrs)) {
      return Status::OK();
    }
  }

  bool placed = PlaceWithKicks(pair, fp, [&](uint64_t b, int s) {
    codec_.Store(table_.get(), b, s, /*base=*/0, attrs);
  });
  if (!placed) {
    return Status::CapacityError(
        "plain CCF: bucket pair cannot absorb another duplicate");
  }
  ++num_rows_;
  return Status::OK();
}

uint64_t PlainCcf::PackRowPayload(std::span<const uint64_t> attrs) const {
  return table_->slot_bits() <= 64 ? codec_.Pack(attrs) : 0;
}

bool PlainCcf::TryInsertNoKick(const BucketPair& pair, uint32_t fp,
                               std::span<const uint64_t> attrs,
                               uint64_t payload) {
  if (table_->slot_bits() > 64) {
    // Oversized geometry: per-attribute scan and store (cold fallback).
    auto [count, dup] = ScanPairWithFp(pair, fp, [&](uint64_t b, int s) {
      return codec_.EqualsStored(*table_, b, s, /*base=*/0, attrs);
    });
    (void)count;
    if (dup) return true;
    auto [b, s] = FreeSlotInPair(pair);
    if (s < 0) return false;
    table_->Put(b, s, fp);
    codec_.Store(table_.get(), b, s, /*base=*/0, attrs);
    ++num_rows_;
    return true;
  }
  // Packed fast path (see ChainedCcf::TryInsertNoKick): one fused pass per
  // bucket for dedupe + free slot, one field store for placement.
  (void)attrs;
  const int vec_bits = codec_.vector_bits();
  const uint64_t packed = payload;
  uint64_t free_bucket = 0;
  int free_slot = -1;
  auto scan = [&](uint64_t b) {  // returns true on a duplicate hit
    uint64_t occ = table_->OccupiedMask(b);
    uint64_t m = table_->MatchMask(b, fp) & occ;
    while (m != 0) {
      int s = std::countr_zero(m);
      m &= m - 1;
      if (table_->GetPayloadField(b, s, 0, vec_bits) == packed) return true;
    }
    if (free_slot < 0) {
      int fs = std::countr_one(occ);
      if (fs < table_->slots_per_bucket()) {
        free_bucket = b;
        free_slot = fs;
      }
    }
    return false;
  };
  if (scan(pair.primary)) return true;  // collapsed
  if (!pair.degenerate() && scan(pair.alt)) return true;
  if (free_slot < 0) return false;  // displacement needed: wave 2
  table_->PutSlot(free_bucket, free_slot, fp, packed);
  ++num_rows_;
  return true;
}

bool PlainCcf::EraseRowAddressed(const BucketPair& pair, uint32_t fp,
                                 uint64_t payload) {
  // Pair-local: the row class (fp, packed vector) is at most one entry
  // (inserts collapse duplicates), so deleting the exact-word match
  // reclaims the class without disturbing other rows of the key.
  const int vec_bits = codec_.vector_bits();
  uint64_t hit_b = 0;
  int hit_s = -1;
  ScanPairWithFp(pair, fp, [&](uint64_t b, int s) {
    if (table_->GetPayloadField(b, s, 0, vec_bits) == payload) {
      hit_b = b;
      hit_s = s;
      return true;
    }
    return false;
  });
  if (hit_s < 0) return false;
  table_->Erase(hit_b, hit_s);
  return true;
}

bool PlainCcf::ContainsKey(uint64_t key) const {
  uint64_t bucket;
  uint32_t fp;
  KeyAddress(key, &bucket, &fp);
  return CountFpInPair(PairOf(bucket, fp), fp) > 0;
}

bool PlainCcf::Contains(uint64_t key, const Predicate& pred) const {
  uint64_t bucket;
  uint32_t fp;
  KeyAddress(key, &bucket, &fp);
  return ContainsAddressed(bucket, fp, pred);
}

bool PlainCcf::ContainsAddressed(uint64_t bucket, uint32_t fp,
                                 const Predicate& pred) const {
  return ScanPairWithFp(PairOf(bucket, fp), fp,
                        [&](uint64_t b, int s) {
                          return VectorEntryMatches(*table_, b, s, /*base=*/0,
                                                    codec_, pred);
                        })
      .second;
}

bool PlainCcf::ContainsAddressedExcluding(
    uint64_t bucket, uint32_t fp, const Predicate& pred,
    std::span<const uint64_t> excluded) const {
  if (excluded.empty()) return ContainsAddressed(bucket, fp, pred);
  CCF_DCHECK(table_->slot_bits() <= 64);
  return ScanPairWithFp(PairOf(bucket, fp), fp,
                        [&](uint64_t b, int s) {
                          return !PayloadExcluded(EntryPayloadWord(b, s),
                                                  excluded) &&
                                 VectorEntryMatches(*table_, b, s, /*base=*/0,
                                                    codec_, pred);
                        })
      .second;
}

void PlainCcf::LookupBatchBroadcast(std::span<const uint64_t> keys,
                                    const Predicate& pred,
                                    std::span<bool> out) const {
  // One predicate for the whole batch: hash its values once, compare raw
  // fingerprints per entry.
  CompiledVectorPredicate compiled =
      CompiledVectorPredicate::Compile(codec_, pred);
  BatchResolve(keys, out, [&](size_t, const BucketPair& pair, uint32_t fp) {
    return ScanPairWithFp(pair, fp,
                          [&](uint64_t b, int s) {
                            return VectorEntryMatchesCompiled(
                                *table_, b, s, /*base=*/0, codec_, compiled);
                          })
        .second;
  });
}

Result<std::unique_ptr<KeyFilter>> PlainCcf::PredicateQuery(
    const Predicate& pred) const {
  BitVector marks(table_->num_slots());
  for (uint64_t b = 0; b < table_->num_buckets(); ++b) {
    for (int s = 0; s < table_->slots_per_bucket(); ++s) {
      if (!table_->occupied(b, s)) continue;
      if (!VectorEntryMatches(*table_, b, s, /*base=*/0, codec_, pred)) {
        marks.SetBit(b * static_cast<uint64_t>(table_->slots_per_bucket()) +
                         static_cast<uint64_t>(s),
                     true);
      }
    }
  }
  return std::unique_ptr<KeyFilter>(new MarkedKeyFilter(
      table_, std::move(marks), hasher_, config_.max_dupes, /*chain_cap=*/1,
      /*chain_on_full_pair=*/false));
}

}  // namespace ccf
