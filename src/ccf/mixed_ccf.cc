#include "ccf/mixed_ccf.h"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <unordered_set>

#include "ccf/entry_match.h"
#include "util/math_util.h"

namespace ccf {

namespace {

// Eq. (2)/(3): optimal probes given |B| = d·(#α·|α|) bits and (d+1)·#α
// items; otherwise the fixed setting.
int ConversionHashes(const CcfConfig& config) {
  if (!config.optimize_bloom_hashes) return config.bloom_hashes;
  double total_bits = static_cast<double>(config.max_dupes) *
                      config.num_attrs * config.attr_fp_bits;
  double n = static_cast<double>(config.max_dupes + 1) * config.num_attrs;
  double k = total_bits / n * std::numbers::ln2_v<double>;
  return std::clamp(static_cast<int>(std::lround(k)), 1, kMaxBloomHashes);
}

}  // namespace

MixedCcf::MixedCcf(CcfConfig config, BucketTable table)
    : CcfBase(config, std::move(table)),
      codec_(&hasher_, config.num_attrs, config.attr_fp_bits,
             config.small_value_opt),
      seq_bits_(CeilLog2(static_cast<uint64_t>(config.max_dupes))),
      vec_base_(1 + seq_bits_),
      vec_bits_(config.num_attrs * config.attr_fp_bits),
      conversion_hashes_(ConversionHashes(config)) {}

std::unique_ptr<ConditionalCuckooFilter> MixedCcf::Make(
    const CcfConfig& config, BucketTable table) {
  return std::unique_ptr<ConditionalCuckooFilter>(
      new MixedCcf(config, std::move(table)));
}

std::vector<std::pair<uint64_t, int>> MixedCcf::CanonicalFragments(
    const BucketPair& pair, uint32_t fp) const {
  std::vector<std::pair<uint64_t, int>> frags;
  for (const auto& [b, s] : SlotsWithFp(pair, fp)) {
    if (IsConverted(b, s)) frags.emplace_back(b, s);
  }
  std::sort(frags.begin(), frags.end(),
            [this](const auto& a, const auto& b) {
              return SeqOf(a.first, a.second) < SeqOf(b.first, b.second);
            });
  return frags;
}

BloomSketchView MixedCcf::FragmentSketch(
    const std::vector<std::pair<uint64_t, int>>& frags) const {
  std::vector<std::pair<size_t, size_t>> segments;
  segments.reserve(frags.size());
  for (const auto& [b, s] : frags) {
    segments.emplace_back(
        table_->PayloadBitOffset(b, s) + static_cast<size_t>(vec_base_),
        static_cast<size_t>(vec_bits_));
  }
  auto* bits = const_cast<BitVector*>(table_->bits());
  return BloomSketchView(bits, std::move(segments), &hasher_,
                         conversion_hashes_);
}

void MixedCcf::FoldRowIntoSketch(BloomSketchView* sketch,
                                 std::span<const uint64_t> attrs) const {
  // Algorithm 3 inserts attribute FINGERPRINTS (not raw values), stacking
  // the two collision sources the paper describes.
  for (size_t i = 0; i < attrs.size(); ++i) {
    sketch->Insert(BloomSketchView::EncodeAttr(
        static_cast<uint32_t>(i), codec_.ValueFingerprint(attrs[i])));
  }
}

bool MixedCcf::SketchMatches(const BloomSketchView& sketch,
                             const Predicate& pred) const {
  for (const AttributeTerm& term : pred.terms()) {
    bool any = false;
    for (uint64_t v : term.values) {
      if (sketch.Contains(BloomSketchView::EncodeAttr(
              static_cast<uint32_t>(term.attr_index),
              codec_.ValueFingerprint(v)))) {
        any = true;
        break;
      }
    }
    if (!any) return false;
  }
  return true;
}

void MixedCcf::ConvertToBloom(const BucketPair& pair, uint32_t fp,
                              std::span<const uint64_t> attrs) {
  auto slots = SlotsWithFp(pair, fp);
  CCF_DCHECK(static_cast<int>(slots.size()) == config_.max_dupes);
  std::sort(slots.begin(), slots.end());

  // Capture the d stored fingerprint vectors before clearing the windows.
  std::vector<std::vector<uint32_t>> old_vectors;
  old_vectors.reserve(slots.size());
  for (const auto& [b, s] : slots) {
    std::vector<uint32_t> vec(static_cast<size_t>(config_.num_attrs));
    for (int i = 0; i < config_.num_attrs; ++i) {
      vec[static_cast<size_t>(i)] = codec_.Load(*table_, b, s, vec_base_, i);
    }
    old_vectors.push_back(std::move(vec));
  }

  uint64_t seq = 0;
  for (const auto& [b, s] : slots) {
    table_->ClearPayload(b, s);
    SetConverted(b, s, true);
    SetSeq(b, s, seq++);
  }

  BloomSketchView sketch = FragmentSketch(slots);
  for (const auto& vec : old_vectors) {
    for (size_t i = 0; i < vec.size(); ++i) {
      sketch.Insert(BloomSketchView::EncodeAttr(static_cast<uint32_t>(i),
                                                vec[i]));
    }
  }
  FoldRowIntoSketch(&sketch, attrs);
  ++num_conversions_;
}

Status MixedCcf::Insert(uint64_t key, std::span<const uint64_t> attrs) {
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

Status MixedCcf::InsertAddressed(const BucketPair& pair, uint32_t fp,
                                 std::span<const uint64_t> attrs) {
  // Already converted: fold into the packed Bloom filter (never fails).
  auto frags = CanonicalFragments(pair, fp);
  if (!frags.empty()) {
    BloomSketchView sketch = FragmentSketch(frags);
    FoldRowIntoSketch(&sketch, attrs);
    ++num_rows_;
    return Status::OK();
  }

  // Collapse duplicate (κ, α) rows among vector entries.
  auto slots = SlotsWithFp(pair, fp);
  for (const auto& [b, s] : slots) {
    if (codec_.EqualsStored(*table_, b, s, vec_base_, attrs)) {
      return Status::OK();
    }
  }

  if (static_cast<int>(slots.size()) >= config_.max_dupes) {
    // (d+1)-th distinct duplicate: convert the pair's d vectors to a Bloom
    // filter and fold this row in (§6.1).
    ConvertToBloom(pair, fp, attrs);
    ++num_rows_;
    return Status::OK();
  }

  // Converted fragments are ordinary kick victims: their whole payload
  // (mode + seq + Bloom fragment) travels with the slot, and displacement
  // keeps them inside their pair, so the packed Bloom stays reconstructible
  // via sequence numbers.
  bool placed = PlaceWithKicks(pair, fp, [&](uint64_t b, int s) {
    table_->ClearPayload(b, s);
    codec_.Store(table_.get(), b, s, vec_base_, attrs);
  });
  if (!placed) {
    return Status::CapacityError("mixed CCF: cuckoo kick budget exhausted");
  }
  ++num_rows_;
  return Status::OK();
}

uint64_t MixedCcf::PackRowPayload(std::span<const uint64_t> attrs) const {
  return table_->slot_bits() <= 64
             ? codec_.Pack(attrs) << static_cast<unsigned>(vec_base_)
             : 0;
}

bool MixedCcf::TryInsertNoKick(const BucketPair& pair, uint32_t fp,
                               std::span<const uint64_t> attrs,
                               uint64_t payload) {
  // One read-only pass over the pair decides the row: converted fragments
  // present, exact duplicate, and the fp copy count all come from a single
  // scan. An fp either has ALL its copies converted or none (ConvertToBloom
  // converts the full set and folding never adds vector entries
  // afterwards), so a duplicate match before a converted slot is seen
  // cannot happen for the same fp.
  if (table_->slot_bits() > 64) {
    // Oversized geometry: per-attribute scan and store (cold fallback).
    bool any_converted = false;
    auto [count, dup] = ScanPairWithFp(pair, fp, [&](uint64_t b, int s) {
      if (IsConverted(b, s)) {
        any_converted = true;
        return false;
      }
      return codec_.EqualsStored(*table_, b, s, vec_base_, attrs);
    });
    if (any_converted) return false;  // fold into the packed sketch: wave 2
    if (dup) return true;             // collapsed
    if (count >= config_.max_dupes) return false;  // conversion: wave 2
    auto [b, s] = FreeSlotInPair(pair);
    if (s < 0) return false;  // displacement needed: wave 2
    table_->Put(b, s, fp);
    table_->ClearPayload(b, s);
    codec_.Store(table_.get(), b, s, vec_base_, attrs);
    ++num_rows_;
    return true;
  }
  // Packed fast path (see ChainedCcf::TryInsertNoKick). A vector entry's
  // whole payload is (vector << vec_base_), precomputed as `payload`: mode
  // bit 0 and sequence bits 0. A converted fragment has mode bit 1, and
  // vec_base_ >= 1 keeps the packed word's bit 0 clear, so one
  // payload-word equality does the duplicate compare and cannot confuse
  // the two entry kinds.
  (void)attrs;
  const int payload_bits = table_->payload_bits();
  const uint64_t packed_payload = payload;
  bool any_converted = false;
  int count = 0;
  uint64_t free_bucket = 0;
  int free_slot = -1;
  auto scan = [&](uint64_t b) {  // returns true on a duplicate hit
    uint64_t occ = table_->OccupiedMask(b);
    uint64_t m = table_->MatchMask(b, fp) & occ;
    while (m != 0) {
      int s = std::countr_zero(m);
      m &= m - 1;
      ++count;
      uint64_t payload = table_->GetPayloadField(b, s, 0, payload_bits);
      if ((payload & 1) != 0) {
        any_converted = true;
        continue;
      }
      if (payload == packed_payload) return true;
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
  bool dup = scan(pair.primary);
  if (!dup && !pair.degenerate()) dup = scan(pair.alt);
  if (any_converted) return false;  // fold into the packed sketch: wave 2
  if (dup) return true;             // collapsed
  if (count >= config_.max_dupes) return false;  // conversion: wave 2
  if (free_slot < 0) return false;  // displacement needed: wave 2
  table_->PutSlot(free_bucket, free_slot, fp, packed_payload);
  ++num_rows_;
  return true;
}

bool MixedCcf::EraseRowAddressed(const BucketPair& pair, uint32_t fp,
                                 uint64_t payload) {
  // Deletion only reclaims UNCONVERTED vector entries: `payload` is the
  // packed vector shifted to vec_base_ with mode bit 0, while converted
  // fragments carry mode bit 1, so the full payload-word equality can never
  // hit a fragment. Rows folded into a packed Bloom sketch are
  // irrecoverable in place (OR-folded bits are shared) and stay as residue
  // until compaction rebuilds the pair from surviving rows.
  const int payload_bits = table_->payload_bits();
  uint64_t hit_b = 0;
  int hit_s = -1;
  ScanPairWithFp(pair, fp, [&](uint64_t b, int s) {
    if (table_->GetPayloadField(b, s, 0, payload_bits) == payload) {
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

bool MixedCcf::ContainsKey(uint64_t key) const {
  uint64_t bucket;
  uint32_t fp;
  KeyAddress(key, &bucket, &fp);
  return CountFpInPair(PairOf(bucket, fp), fp) > 0;
}

bool MixedCcf::Contains(uint64_t key, const Predicate& pred) const {
  uint64_t bucket;
  uint32_t fp;
  KeyAddress(key, &bucket, &fp);
  return ContainsAddressed(bucket, fp, pred);
}

bool MixedCcf::ContainsAddressed(uint64_t bucket, uint32_t fp,
                                 const Predicate& pred) const {
  return ResolveAddressed(PairOf(bucket, fp), fp, pred,
                          [&](uint64_t b, int s) {
                            return VectorEntryMatches(*table_, b, s, vec_base_,
                                                      codec_, pred);
                          });
}

bool MixedCcf::ContainsAddressedExcluding(
    uint64_t bucket, uint32_t fp, const Predicate& pred,
    std::span<const uint64_t> excluded) const {
  if (excluded.empty()) return ContainsAddressed(bucket, fp, pred);
  CCF_DCHECK(table_->slot_bits() <= 64);
  // Vector entries honour exclusions via the payload-word compare (staged
  // erases always target vector entries — their excluded words have mode
  // bit 0, so converted fragments are never suppressed). The converted
  // sketch fallback ignores exclusions: rows folded into the packed Bloom
  // cannot be unfolded, a one-sided (false-positive direction) residue that
  // compaction clears.
  return ResolveAddressed(PairOf(bucket, fp), fp, pred,
                          [&](uint64_t b, int s) {
                            return !PayloadExcluded(EntryPayloadWord(b, s),
                                                    excluded) &&
                                   VectorEntryMatches(*table_, b, s, vec_base_,
                                                      codec_, pred);
                          });
}

void MixedCcf::LookupBatchBroadcast(std::span<const uint64_t> keys,
                                    const Predicate& pred,
                                    std::span<bool> out) const {
  // One predicate for the whole batch: hash its values once, compare raw
  // fingerprints per entry (converted keys still take the sketch path).
  CompiledVectorPredicate compiled =
      CompiledVectorPredicate::Compile(codec_, pred);
  BatchResolve(keys, out, [&](size_t, const BucketPair& pair, uint32_t fp) {
    return ResolveAddressed(pair, fp, pred, [&](uint64_t b, int s) {
      return VectorEntryMatchesCompiled(*table_, b, s, vec_base_, codec_,
                                        compiled);
    });
  });
}

Result<std::unique_ptr<KeyFilter>> MixedCcf::PredicateQuery(
    const Predicate& pred) const {
  BitVector marks(table_->num_slots());
  // Converted groups match or fail as a unit; evaluate each group once.
  std::unordered_set<uint64_t> evaluated_groups;
  for (uint64_t b = 0; b < table_->num_buckets(); ++b) {
    for (int s = 0; s < table_->slots_per_bucket(); ++s) {
      if (!table_->occupied(b, s)) continue;
      uint64_t idx = b * static_cast<uint64_t>(table_->slots_per_bucket()) +
                     static_cast<uint64_t>(s);
      if (!IsConverted(b, s)) {
        if (!VectorEntryMatches(*table_, b, s, vec_base_, codec_, pred)) {
          marks.SetBit(idx, true);
        }
        continue;
      }
      uint32_t fp = table_->fingerprint(b, s);
      BucketPair pair = PairOf(b, fp);
      uint64_t group = pair.Canonical(table_->num_buckets()) *
                           (uint64_t{1} << table_->fingerprint_bits()) +
                       fp;
      if (!evaluated_groups.insert(group).second) continue;
      auto frags = CanonicalFragments(pair, fp);
      bool match = SketchMatches(FragmentSketch(frags), pred);
      if (!match) {
        for (const auto& [fb, fs] : frags) {
          marks.SetBit(fb * static_cast<uint64_t>(table_->slots_per_bucket()) +
                           static_cast<uint64_t>(fs),
                       true);
        }
      }
    }
  }
  return std::unique_ptr<KeyFilter>(new MarkedKeyFilter(
      table_, std::move(marks), hasher_, config_.max_dupes, /*chain_cap=*/1,
      /*chain_on_full_pair=*/false));
}

void MixedCcf::SaveExtras(ByteWriter* writer) const {
  writer->WriteU64(num_conversions_);
}

Status MixedCcf::LoadExtras(ByteReader* reader) {
  CCF_ASSIGN_OR_RETURN(num_conversions_, reader->ReadU64());
  return Status::OK();
}

}  // namespace ccf
