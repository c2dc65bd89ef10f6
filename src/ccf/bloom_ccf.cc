#include "ccf/bloom_ccf.h"

#include <algorithm>
#include <cmath>
#include <numbers>

namespace ccf {

namespace {

// §10.4: either a small fixed count (the paper's preferred setting) or the
// eq. (2) optimum assuming 2 attribute vectors per key.
int SketchHashes(const CcfConfig& config) {
  if (!config.optimize_bloom_hashes) return config.bloom_hashes;
  double n = 2.0 * config.num_attrs;
  double k = static_cast<double>(config.bloom_bits) / n *
             std::numbers::ln2_v<double>;
  return std::clamp(static_cast<int>(std::lround(k)), 1, kMaxBloomHashes);
}

}  // namespace

BloomCcf::BloomCcf(CcfConfig config, BucketTable table)
    : CcfBase(config, std::move(table)), sketch_hashes_(SketchHashes(config)) {}

std::unique_ptr<ConditionalCuckooFilter> BloomCcf::Make(
    const CcfConfig& config, BucketTable table) {
  return std::unique_ptr<ConditionalCuckooFilter>(
      new BloomCcf(config, std::move(table)));
}

BloomSketchView BloomCcf::EntrySketch(uint64_t bucket, int slot) const {
  // The view mutates bits through a non-const BitVector pointer; Contains
  // paths only ever call Contains() on it.
  auto* bits = const_cast<BitVector*>(table_->bits());
  return BloomSketchView(bits, table_->PayloadBitOffset(bucket, slot),
                         static_cast<size_t>(config_.bloom_bits), &hasher_,
                         sketch_hashes_);
}

bool BloomCcf::EntryMatches(uint64_t bucket, int slot,
                            const Predicate& pred) const {
  BloomSketchView sketch = EntrySketch(bucket, slot);
  for (const AttributeTerm& term : pred.terms()) {
    bool any = false;
    for (uint64_t v : term.values) {
      if (sketch.Contains(BloomSketchView::EncodeAttr(
              static_cast<uint32_t>(term.attr_index), v))) {
        any = true;
        break;
      }
    }
    if (!any) return false;
  }
  return true;
}

void BloomCcf::FoldRow(uint64_t bucket, int slot,
                       std::span<const uint64_t> attrs) {
  BloomSketchView sketch = EntrySketch(bucket, slot);
  for (size_t i = 0; i < attrs.size(); ++i) {
    sketch.Insert(BloomSketchView::EncodeAttr(static_cast<uint32_t>(i),
                                              attrs[i]));
  }
}

Status BloomCcf::Insert(uint64_t key, std::span<const uint64_t> attrs) {
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

Status BloomCcf::InsertAddressed(const BucketPair& pair, uint32_t fp,
                                 std::span<const uint64_t> attrs) {
  // One entry per fingerprint per pair (same occupancy as a cuckoo filter):
  // further rows of the key fold into the existing entry's Bloom sketch.
  auto slots = SlotsWithFp(pair, fp);
  if (!slots.empty()) {
    FoldRow(slots.front().first, slots.front().second, attrs);
    ++num_rows_;
    return Status::OK();
  }

  bool placed = PlaceWithKicks(pair, fp, [&](uint64_t b, int s) {
    table_->ClearPayload(b, s);
    FoldRow(b, s, attrs);
  });
  if (!placed) {
    return Status::CapacityError("bloom CCF: cuckoo kick budget exhausted");
  }
  ++num_rows_;
  return Status::OK();
}

uint64_t BloomCcf::PackRowPayload(std::span<const uint64_t> attrs) const {
  if (table_->slot_bits() > 64) return 0;
  // The row's sketch word, composed from the same probe stream
  // BloomSketchView::Insert walks — the k probe positions per attribute
  // are salt-and-window-size functions only, so the word survives
  // rebuilds at any bucket count.
  const size_t window_bits = static_cast<size_t>(config_.bloom_bits);
  uint64_t word = 0;
  for (size_t i = 0; i < attrs.size(); ++i) {
    BloomSketchView::ProbeSeed seed = BloomSketchView::SeedFor(
        hasher_,
        BloomSketchView::EncodeAttr(static_cast<uint32_t>(i), attrs[i]));
    for (int j = 0; j < sketch_hashes_; ++j) {
      word |= uint64_t{1} << BloomSketchView::ProbeAt(seed, j, window_bits);
    }
  }
  return word;
}

bool BloomCcf::TryInsertNoKick(const BucketPair& pair, uint32_t fp,
                               std::span<const uint64_t> attrs,
                               uint64_t payload) {
  // First occupied copy of κ in the pair absorbs the row (matches
  // SlotsWithFp's front(): primary bucket first, ascending slots).
  if (table_->slot_bits() > 64) {
    // Oversized sketch windows: fold through BloomSketchView (cold
    // fallback).
    uint64_t hit_b = 0;
    int hit_s = -1;
    ScanPairWithFp(pair, fp, [&](uint64_t b, int s) {
      hit_b = b;
      hit_s = s;
      return true;
    });
    if (hit_s >= 0) {
      FoldRow(hit_b, hit_s, attrs);
      ++num_rows_;
      return true;
    }
    auto [b, s] = FreeSlotInPair(pair);
    if (s < 0) return false;  // displacement needed: wave 2
    table_->Put(b, s, fp);
    table_->ClearPayload(b, s);
    FoldRow(b, s, attrs);
    ++num_rows_;
    return true;
  }
  // Packed fast path: the row's sketch word was composed once in the
  // address pass (PackRowPayload, possibly straight from the rebuild
  // memo); fold with one payload-word OR or place with one whole-slot
  // store.
  (void)attrs;
  const uint64_t sketch_word = payload;
  uint64_t hit_b = 0;
  int hit_s = -1;
  auto scan = [&](uint64_t b) {
    uint64_t m = table_->MatchMask(b, fp) & table_->OccupiedMask(b);
    if (m == 0) return false;
    hit_b = b;
    hit_s = std::countr_zero(m);
    return true;
  };
  if (!scan(pair.primary) && !pair.degenerate()) scan(pair.alt);
  if (hit_s >= 0) {
    uint64_t stored =
        table_->GetPayloadField(hit_b, hit_s, 0, config_.bloom_bits);
    table_->SetPayloadField(hit_b, hit_s, 0, config_.bloom_bits,
                           stored | sketch_word);
    ++num_rows_;
    return true;
  }
  auto [b, s] = FreeSlotInPair(pair);
  if (s < 0) return false;  // displacement needed: wave 2
  table_->PutSlot(b, s, fp, sketch_word);
  ++num_rows_;
  return true;
}

bool BloomCcf::EraseRowAddressed(const BucketPair& pair, uint32_t fp,
                                 uint64_t payload) {
  // A Bloom entry is the OR-fold of every row of the key that landed on its
  // fingerprint, so a physical delete is only safe when the entry's sketch
  // word EQUALS the erased row's word — i.e. nothing else was folded in (or
  // everything folded is a sketch-subset of this row, which the caller must
  // rule out by erasing only when no other live rows of the key remain; see
  // ShardedCcf's key-liveness gate). Entries with extra bits set are
  // residue for compaction.
  uint64_t hit_b = 0;
  int hit_s = -1;
  ScanPairWithFp(pair, fp, [&](uint64_t b, int s) {
    if (table_->GetPayloadField(b, s, 0, config_.bloom_bits) == payload) {
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

bool BloomCcf::ContainsKey(uint64_t key) const {
  uint64_t bucket;
  uint32_t fp;
  KeyAddress(key, &bucket, &fp);
  return CountFpInPair(PairOf(bucket, fp), fp) > 0;
}

bool BloomCcf::Contains(uint64_t key, const Predicate& pred) const {
  uint64_t bucket;
  uint32_t fp;
  KeyAddress(key, &bucket, &fp);
  return ContainsAddressed(bucket, fp, pred);
}

bool BloomCcf::ContainsAddressed(uint64_t bucket, uint32_t fp,
                                 const Predicate& pred) const {
  return ScanPairWithFp(PairOf(bucket, fp), fp,
                        [&](uint64_t b, int s) {
                          return EntryMatches(b, s, pred);
                        })
      .second;
}

bool BloomCcf::ContainsAddressedExcluding(
    uint64_t bucket, uint32_t fp, const Predicate& pred,
    std::span<const uint64_t> excluded) const {
  if (excluded.empty()) return ContainsAddressed(bucket, fp, pred);
  CCF_DCHECK(table_->slot_bits() <= 64);
  // An excluded word only hides an entry whose sketch is EXACTLY the erased
  // row's fold — an entry other rows folded into keeps matching (one-sided
  // residue until compaction). ShardedCcf stages Bloom erases only when no
  // other live rows of the key remain, which keeps this exact-word hide
  // sound.
  return ScanPairWithFp(PairOf(bucket, fp), fp,
                        [&](uint64_t b, int s) {
                          return !PayloadExcluded(EntryPayloadWord(b, s),
                                                  excluded) &&
                                 EntryMatches(b, s, pred);
                        })
      .second;
}

void BloomCcf::LookupBatchBroadcast(std::span<const uint64_t> keys,
                                    const Predicate& pred,
                                    std::span<bool> out) const {
  // Consumes the precomputed pair directly (no alt-bucket rehash), and
  // precompiles the sketch probes: every entry's Bloom window has the same
  // size (bloom_bits), so the k probe positions of each (term, value) are
  // entry-independent and are hashed ONCE per batch here instead of once
  // per candidate entry. Matching then only tests window-relative bits —
  // bit-identical to BloomSketchView::Contains, whose probe stream
  // (SeedFor/ProbeAt) is reused verbatim.
  struct CompiledValue {
    std::vector<uint32_t> positions;  // k logical bits within the window
  };
  struct CompiledTerm {
    std::vector<CompiledValue> values;
  };
  std::vector<CompiledTerm> compiled;
  const size_t window_bits = static_cast<size_t>(config_.bloom_bits);
  compiled.reserve(pred.terms().size());
  for (const AttributeTerm& term : pred.terms()) {
    CompiledTerm ct;
    ct.values.reserve(term.values.size());
    for (uint64_t v : term.values) {
      CompiledValue cv;
      cv.positions.reserve(static_cast<size_t>(sketch_hashes_));
      BloomSketchView::ProbeSeed seed = BloomSketchView::SeedFor(
          hasher_, BloomSketchView::EncodeAttr(
                       static_cast<uint32_t>(term.attr_index), v));
      for (int i = 0; i < sketch_hashes_; ++i) {
        cv.positions.push_back(static_cast<uint32_t>(
            BloomSketchView::ProbeAt(seed, i, window_bits)));
      }
      ct.values.push_back(std::move(cv));
    }
    compiled.push_back(std::move(ct));
  }

  const BitVector& bits = *table_->bits();
  auto entry_matches = [&](uint64_t b, int s) {
    size_t base = table_->PayloadBitOffset(b, s);
    for (const CompiledTerm& term : compiled) {
      bool any = false;
      for (const CompiledValue& value : term.values) {
        bool all = true;
        for (uint32_t pos : value.positions) {
          if (!bits.GetBit(base + pos)) {
            all = false;
            break;
          }
        }
        if (all) {
          any = true;
          break;
        }
      }
      if (!any) return false;
    }
    return true;
  };

  BatchResolve(keys, out, [&](size_t, const BucketPair& pair, uint32_t fp) {
    return ScanPairWithFp(pair, fp, entry_matches).second;
  });
}

Result<std::unique_ptr<KeyFilter>> BloomCcf::PredicateQuery(
    const Predicate& pred) const {
  CuckooFilterConfig fc;
  fc.num_buckets = table_->num_buckets();
  fc.slots_per_bucket = table_->slots_per_bucket();
  fc.fingerprint_bits = config_.key_fp_bits;
  fc.salt = config_.salt;
  fc.max_kicks = config_.max_kicks;
  CCF_ASSIGN_OR_RETURN(CuckooFilter filter, CuckooFilter::Make(fc));
  for (uint64_t b = 0; b < table_->num_buckets(); ++b) {
    for (int s = 0; s < table_->slots_per_bucket(); ++s) {
      if (!table_->occupied(b, s)) continue;
      if (EntryMatches(b, s, pred)) {
        // Positions are preserved, so partial-key addressing still finds
        // every retained fingerprint (Algorithm 2).
        filter.RawPut(b, s, table_->fingerprint(b, s));
      }
    }
  }
  return std::unique_ptr<KeyFilter>(new CuckooKeyFilter(std::move(filter)));
}

}  // namespace ccf
