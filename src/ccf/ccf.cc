#include "ccf/ccf.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <optional>

#include "ccf/bloom_ccf.h"
#include "ccf/ccf_base.h"
#include "ccf/chained_ccf.h"
#include "ccf/mixed_ccf.h"
#include "ccf/plain_ccf.h"
#include "ccf/range_ccf.h"
#include "ccf/sharded_ccf.h"
#include "util/math_util.h"

namespace ccf {

std::string_view CcfVariantName(CcfVariant variant) {
  switch (variant) {
    case CcfVariant::kPlain:
      return "Plain";
    case CcfVariant::kChained:
      return "Chained";
    case CcfVariant::kBloom:
      return "Bloom";
    case CcfVariant::kMixed:
      return "Mixed";
  }
  return "Unknown";
}

void KeyFilter::ContainsBatch(std::span<const uint64_t> keys,
                              std::span<bool> out) const {
  CCF_DCHECK(out.size() == keys.size());
  for (size_t i = 0; i < keys.size(); ++i) out[i] = Contains(keys[i]);
}

Status ValidateLookupBatchShape(size_t num_keys, size_t num_preds,
                                size_t num_out) {
  if (num_out != num_keys) {
    return Status::Invalid("LookupBatch: out.size() must equal keys.size()");
  }
  if (num_preds != 1 && num_preds != num_keys) {
    return Status::Invalid(
        "LookupBatch: preds must hold 1 (broadcast) or keys.size() entries");
  }
  return Status::OK();
}

Status ConditionalCuckooFilter::LookupBatch(std::span<const uint64_t> keys,
                                            std::span<const Predicate> preds,
                                            std::span<bool> out) const {
  CCF_RETURN_NOT_OK(
      ValidateLookupBatchShape(keys.size(), preds.size(), out.size()));
  const bool broadcast = preds.size() == 1;
  for (size_t i = 0; i < keys.size(); ++i) {
    out[i] = Contains(keys[i], broadcast ? preds[0] : preds[i]);
  }
  return Status::OK();
}

void ConditionalCuckooFilter::ContainsKeyBatch(std::span<const uint64_t> keys,
                                               std::span<bool> out) const {
  CCF_DCHECK(out.size() == keys.size());
  for (size_t i = 0; i < keys.size(); ++i) out[i] = ContainsKey(keys[i]);
}

Status ConditionalCuckooFilter::InsertBatch(std::span<const uint64_t> keys,
                                            std::span<const uint64_t> attrs,
                                            std::vector<uint64_t>* hash_memo) {
  const size_t num_attrs = static_cast<size_t>(config().num_attrs);
  if (attrs.size() != keys.size() * num_attrs) {
    return Status::Invalid(
        "InsertBatch: attrs must hold keys.size() * num_attrs values");
  }
  (void)hash_memo;  // the scalar fallback has no address pass to memoize
  for (size_t i = 0; i < keys.size(); ++i) {
    CCF_RETURN_NOT_OK(
        Insert(keys[i], attrs.subspan(i * num_attrs, num_attrs)));
  }
  return Status::OK();
}

Result<std::unique_ptr<ConditionalCuckooFilter>>
ConditionalCuckooFilter::Clone() const {
  return Status::Invalid("Clone is not supported by this filter type");
}

bool ConditionalCuckooFilter::ContainsRow(
    uint64_t key, std::span<const uint64_t> attrs) const {
  Predicate pred;
  for (size_t i = 0; i < attrs.size(); ++i) {
    pred.AndEquals(static_cast<int>(i), attrs[i]);
  }
  return Contains(key, pred);
}

namespace {

Status ValidateConfig(CcfVariant variant, const CcfConfig& config) {
  if (config.num_attrs < 1 || config.num_attrs > 64) {
    return Status::Invalid("num_attrs must be in [1, 64]");
  }
  if (config.attr_fp_bits < 1 || config.attr_fp_bits > 16) {
    return Status::Invalid("attr_fp_bits must be in [1, 16]");
  }
  if (config.max_dupes < 1 || config.max_dupes > config.slots_per_bucket) {
    return Status::Invalid("max_dupes must be in [1, slots_per_bucket]");
  }
  if (config.max_chain < 0) {
    return Status::Invalid("max_chain must be >= 0 (0 = unbounded)");
  }
  if (variant == CcfVariant::kBloom && config.bloom_bits < 1) {
    return Status::Invalid("bloom_bits must be >= 1");
  }
  // Bloom and Mixed hash every sketch probe bloom_hashes times: a corrupt
  // header's 2^31 would stall each insert for seconds and, wrapped negative,
  // silently drop sketch bits (false negatives). 16 is the ceiling
  // optimize_bloom_hashes already clamps to.
  if ((variant == CcfVariant::kBloom || variant == CcfVariant::kMixed) &&
      (config.bloom_hashes < 1 || config.bloom_hashes > kMaxBloomHashes)) {
    return Status::Invalid("bloom_hashes must be in [1, 16]");
  }
  return Status::OK();
}

// Payload bits per slot of each variant's table (config validated): the
// attribute fingerprint vector (Plain, Chained), the Bloom sketch (Bloom),
// or Mixed's converted flag + sequence number + vector.
int PayloadBits(CcfVariant variant, const CcfConfig& config) {
  const int vector_bits = config.num_attrs * config.attr_fp_bits;
  switch (variant) {
    case CcfVariant::kPlain:
    case CcfVariant::kChained:
      return vector_bits;
    case CcfVariant::kBloom:
      return config.bloom_bits;
    case CcfVariant::kMixed:
      return 1 + CeilLog2(static_cast<uint64_t>(config.max_dupes)) +
             vector_bits;
  }
  return vector_bits;
}

std::unique_ptr<ConditionalCuckooFilter> MakeAroundTable(
    CcfVariant variant, const CcfConfig& config, BucketTable table) {
  switch (variant) {
    case CcfVariant::kPlain:
      return PlainCcf::Make(config, std::move(table));
    case CcfVariant::kChained:
      return ChainedCcf::Make(config, std::move(table));
    case CcfVariant::kBloom:
      return BloomCcf::Make(config, std::move(table));
    case CcfVariant::kMixed:
      return MixedCcf::Make(config, std::move(table));
  }
  return nullptr;
}

}  // namespace

Result<std::unique_ptr<ConditionalCuckooFilter>> ConditionalCuckooFilter::Make(
    CcfVariant variant, const CcfConfig& config) {
  CCF_RETURN_NOT_OK(ValidateConfig(variant, config));
  if (static_cast<uint8_t>(variant) > 3) {
    return Status::Invalid("unknown CCF variant");
  }
  CCF_ASSIGN_OR_RETURN(
      BucketTable table,
      BucketTable::Make(config.num_buckets, config.slots_per_bucket,
                        config.key_fp_bits, PayloadBits(variant, config)));
  return MakeAroundTable(variant, config, std::move(table));
}

// --- Serialization -----------------------------------------------------------

namespace {

// "CCF2": bumped from CCF1 when the format gained 8-byte alignment padding
// before each BitVector word array (alias-mode mmap deserialization).
constexpr uint32_t kCcfMagic = 0x43434632;
// The retired pre-alignment magics ("CCF1" / "SCF1"). Recognized only to
// return a precise "re-serialize" error instead of the generic bad-magic
// one — the v1 layout (no word-array padding) has no reader anymore.
constexpr uint32_t kCcfMagicV1 = 0x43434631;
constexpr uint32_t kShardedMagicV1 = 0x53434631;

void WriteConfig(ByteWriter* writer, const CcfConfig& config) {
  writer->WriteU64(config.num_buckets);
  writer->WriteU32(static_cast<uint32_t>(config.slots_per_bucket));
  writer->WriteU32(static_cast<uint32_t>(config.key_fp_bits));
  writer->WriteU32(static_cast<uint32_t>(config.attr_fp_bits));
  writer->WriteU32(static_cast<uint32_t>(config.num_attrs));
  writer->WriteU32(static_cast<uint32_t>(config.max_dupes));
  writer->WriteU32(static_cast<uint32_t>(config.max_chain));
  writer->WriteU32(static_cast<uint32_t>(config.bloom_bits));
  writer->WriteU32(static_cast<uint32_t>(config.bloom_hashes));
  writer->WriteBool(config.optimize_bloom_hashes);
  writer->WriteBool(config.small_value_opt);
  writer->WriteU64(config.salt);
  writer->WriteU32(static_cast<uint32_t>(config.max_kicks));
}

Status ReadConfig(ByteReader* reader, CcfConfig* config) {
  CCF_ASSIGN_OR_RETURN(config->num_buckets, reader->ReadU64());
  auto read_int = [&](int* out) -> Status {
    CCF_ASSIGN_OR_RETURN(uint32_t v, reader->ReadU32());
    *out = static_cast<int>(v);
    return Status::OK();
  };
  CCF_RETURN_NOT_OK(read_int(&config->slots_per_bucket));
  CCF_RETURN_NOT_OK(read_int(&config->key_fp_bits));
  CCF_RETURN_NOT_OK(read_int(&config->attr_fp_bits));
  CCF_RETURN_NOT_OK(read_int(&config->num_attrs));
  CCF_RETURN_NOT_OK(read_int(&config->max_dupes));
  CCF_RETURN_NOT_OK(read_int(&config->max_chain));
  CCF_RETURN_NOT_OK(read_int(&config->bloom_bits));
  CCF_RETURN_NOT_OK(read_int(&config->bloom_hashes));
  CCF_ASSIGN_OR_RETURN(config->optimize_bloom_hashes, reader->ReadBool());
  CCF_ASSIGN_OR_RETURN(config->small_value_opt, reader->ReadBool());
  CCF_ASSIGN_OR_RETURN(config->salt, reader->ReadU64());
  CCF_RETURN_NOT_OK(read_int(&config->max_kicks));
  return Status::OK();
}

}  // namespace

std::string CcfBase::Serialize() const {
  std::string out;
  ByteWriter writer(&out);
  writer.WriteU32(kCcfMagic);
  writer.WriteU8(static_cast<uint8_t>(variant()));
  WriteConfig(&writer, config_);
  writer.WriteU64(num_rows_);
  table_->Save(&writer);
  SaveExtras(&writer);
  return out;
}

Result<std::unique_ptr<ConditionalCuckooFilter>> DeserializeCcfImpl(
    std::string_view data, const AliasMapping* alias) {
  ByteReader reader(data);
  CCF_ASSIGN_OR_RETURN(uint32_t magic, reader.ReadU32());
  if (magic != kCcfMagic) {
    if (magic == kCcfMagicV1 || magic == kShardedMagicV1) {
      return Status::Invalid(
          "blob uses the retired v1 (CCF1/SCF1, unaligned) serialization "
          "format; re-serialize it with this version to load it");
    }
    return Status::Invalid("not a serialized ConditionalCuckooFilter");
  }
  CCF_ASSIGN_OR_RETURN(uint8_t variant_tag, reader.ReadU8());
  if (variant_tag > 3) return Status::Invalid("unknown CCF variant tag");
  CcfVariant variant = static_cast<CcfVariant>(variant_tag);
  CcfConfig config;
  CCF_RETURN_NOT_OK(ReadConfig(&reader, &config));
  // Bound the header's table geometry by the blob before anything is
  // allocated. Key fingerprint plus attribute vector (Bloom: sketch) is a
  // lower bound on every variant's slot width.
  const int64_t payload_bits =
      variant == CcfVariant::kBloom
          ? int64_t{config.bloom_bits}
          : int64_t{config.num_attrs} * config.attr_fp_bits;
  CCF_RETURN_NOT_OK(BucketTable::CheckSerializedSize(
      config.num_buckets, config.slots_per_bucket,
      int64_t{config.key_fp_bits} + std::max<int64_t>(payload_bits, 0),
      reader.remaining()));
  CCF_RETURN_NOT_OK(ValidateConfig(variant, config));
  const int payload = PayloadBits(variant, config);
  CCF_RETURN_NOT_OK(BucketTable::CheckGeometry(config.num_buckets,
                                               config.slots_per_bucket,
                                               config.key_fp_bits, payload));
  CCF_ASSIGN_OR_RETURN(uint64_t num_rows, reader.ReadU64());
  // The filter is built around the loaded table: the only table this load
  // allocates (none at all on the alias path).
  CCF_ASSIGN_OR_RETURN(BucketTable table, BucketTable::Load(&reader, alias));
  if (table.num_buckets() != NextPowerOfTwo(config.num_buckets) ||
      table.slots_per_bucket() != config.slots_per_bucket ||
      table.fingerprint_bits() != config.key_fp_bits ||
      table.payload_bits() != payload) {
    return Status::Invalid("serialized CCF table geometry mismatch");
  }
  std::unique_ptr<ConditionalCuckooFilter> ccf =
      MakeAroundTable(variant, config, std::move(table));
  auto* base = static_cast<CcfBase*>(ccf.get());
  base->num_rows_ = num_rows;
  CCF_RETURN_NOT_OK(base->LoadExtras(&reader));
  return ccf;
}

Result<std::unique_ptr<ConditionalCuckooFilter>>
ConditionalCuckooFilter::Deserialize(std::string_view data) {
  // Sharded containers carry their own magic; peek and dispatch.
  if (data.size() >= 4) {
    uint32_t magic;
    std::memcpy(&magic, data.data(), 4);
    if (magic == ShardedCcf::kMagic) {
      return ShardedCcf::Deserialize(data);
    }
    if (magic == RangeCcf::kMagic) {
      return RangeCcf::Deserialize(data);
    }
  }
  return DeserializeCcfImpl(data, nullptr);
}

Result<std::unique_ptr<ConditionalCuckooFilter>>
ConditionalCuckooFilter::Deserialize(std::string_view data,
                                     const AliasMapping& mapping) {
  if (data.size() >= 4) {
    uint32_t magic;
    std::memcpy(&magic, data.data(), 4);
    if (magic == ShardedCcf::kMagic) {
      return ShardedCcf::Deserialize(data, &mapping);
    }
    if (magic == RangeCcf::kMagic) {
      return RangeCcf::Deserialize(data, &mapping);
    }
  }
  return DeserializeCcfImpl(data, &mapping);
}

// --- ChainWalk ---------------------------------------------------------------

ChainWalk::ChainWalk(const Hasher* hasher, uint64_t bucket_mask,
                     uint64_t start_bucket, uint32_t fp)
    : hasher_(hasher), bucket_mask_(bucket_mask) {
  Restart(start_bucket, fp);
}

void ChainWalk::Restart(uint64_t start_bucket, uint32_t fp) {
  fp_ = fp;
  pair_ = MakePair(start_bucket);
  hops_ = 0;
  num_visited_ = 0;
  visited_spill_.clear();
  MarkVisited(pair_.Canonical(bucket_mask_ + 1));
}

BucketPair ChainWalk::MakePair(uint64_t bucket) const {
  return BucketPair{
      bucket, cuckoo_addressing::AltBucket(*hasher_, bucket, fp_,
                                           bucket_mask_)};
}

bool ChainWalk::Visited(uint64_t canonical) const {
  const int inline_count = std::min(num_visited_, kHardChainCap);
  for (int i = 0; i < inline_count; ++i) {
    if (visited_[i] == canonical) return true;
  }
  for (uint64_t v : visited_spill_) {
    if (v == canonical) return true;
  }
  return false;
}

void ChainWalk::MarkVisited(uint64_t canonical) {
  if (num_visited_ < kHardChainCap) {
    visited_[num_visited_] = canonical;
  } else {
    visited_spill_.push_back(canonical);
  }
  ++num_visited_;
}

void ChainWalk::Advance() {
  uint64_t base = pair_.primary < pair_.alt ? pair_.primary : pair_.alt;
  for (uint32_t round = 0;; ++round) {
    uint64_t next = hasher_->HashPair(base, fp_, round) & bucket_mask_;
    BucketPair candidate = MakePair(next);
    uint64_t canonical = candidate.Canonical(bucket_mask_ + 1);
    if (!Visited(canonical) || round >= kMaxCycleRounds) {
      pair_ = candidate;
      MarkVisited(canonical);
      ++hops_;
      return;
    }
  }
}

// --- CcfBase -----------------------------------------------------------------

CcfBase::CcfBase(CcfConfig config, BucketTable table)
    : config_(config),
      table_(std::make_shared<BucketTable>(std::move(table))),
      hasher_(config.salt),
      rng_(config.salt ^ 0xd1b54a32d192ed03ull) {
  config_.num_buckets = table_->num_buckets();
}

Status CcfBase::LookupBatch(std::span<const uint64_t> keys,
                            std::span<const Predicate> preds,
                            std::span<bool> out) const {
  CCF_RETURN_NOT_OK(
      ValidateLookupBatchShape(keys.size(), preds.size(), out.size()));
  if (preds.size() == 1) {
    LookupBatchBroadcast(keys, preds[0], out);
    return Status::OK();
  }
  BatchResolve(keys, out, [&](size_t i, const BucketPair& pair, uint32_t fp) {
    return ContainsAddressed(pair.primary, fp, preds[i]);
  });
  return Status::OK();
}

void CcfBase::LookupBatchBroadcast(std::span<const uint64_t> keys,
                                   const Predicate& pred,
                                   std::span<bool> out) const {
  BatchResolve(keys, out, [&](size_t, const BucketPair& pair, uint32_t fp) {
    return ContainsAddressed(pair.primary, fp, pred);
  });
}

void CcfBase::ContainsKeyBatch(std::span<const uint64_t> keys,
                               std::span<bool> out) const {
  CCF_DCHECK(out.size() == keys.size());
  // Key-only membership is "any occupied copy in the pair" for every
  // variant (§7.1), so the same resolver serves all of them. The pipeline
  // has prefetched both buckets, so both masks are tested at once instead
  // of branching on a primary hit as ContainsKeyAddressed does (a
  // degenerate pair just tests its bucket twice).
  const BucketTable& table = *table_;
  BatchResolve(keys, out, [&](size_t, const BucketPair& pair, uint32_t fp) {
    uint64_t primary = table.MatchMask(pair.primary, fp);
    uint64_t alt = table.MatchMask(pair.alt, fp);
    if (fp == 0) {  // unoccupied slots read fingerprint 0
      primary &= table.OccupiedMask(pair.primary);
      alt &= table.OccupiedMask(pair.alt);
    }
    return (primary | alt) != 0;
  });
}

bool CcfBase::ContainsKeyAddressedExcluding(
    uint64_t bucket, uint32_t fp, std::span<const uint64_t> excluded) const {
  if (excluded.empty()) return ContainsKeyAddressed(bucket, fp);
  CCF_DCHECK(table_->slot_bits() <= 64);
  // Pair-local variants: any surviving (non-excluded) fp copy proves the
  // key. Excluded entries still count physically but carry no evidence —
  // they are staged-erased rows of THIS key.
  return ScanPairWithFp(PairOf(bucket, fp), fp,
                        [&](uint64_t b, int s) {
                          return !PayloadExcluded(EntryPayloadWord(b, s),
                                                  excluded);
                        })
      .second;
}

bool CcfBase::EraseRowMemoized(uint64_t key_hash, uint64_t payload) {
  if (table_->slot_bits() > 64) return false;  // no packed payload word
  EnsureTableUnique();
  uint64_t bucket;
  uint32_t fp;
  cuckoo_addressing::IndexAndFingerprintFromHash(
      key_hash, table_->bucket_mask(), config_.key_fp_bits, &bucket, &fp);
  return EraseRowAddressed(PairOf(bucket, fp), fp, payload);
}

Status CcfBase::InsertBatch(std::span<const uint64_t> keys,
                            std::span<const uint64_t> attrs,
                            std::vector<uint64_t>* hash_memo) {
  return InsertBatchWith(
      keys, attrs, hash_memo,
      [this](const BucketPair& pair, uint32_t fp,
             std::span<const uint64_t> row, uint64_t payload) {
        return TryInsertNoKick(pair, fp, row, payload);
      },
      [this](const BucketPair& pair, uint32_t fp,
             std::span<const uint64_t> row, uint64_t /*payload*/) {
        return InsertAddressed(pair, fp, row);
      });
}

void CcfBase::KeyAddress(uint64_t key, uint64_t* bucket, uint32_t* fp) const {
  cuckoo_addressing::IndexAndFingerprint(hasher_, key, table_->bucket_mask(),
                                         config_.key_fp_bits, bucket, fp);
}

BucketPair CcfBase::PairOf(uint64_t bucket, uint32_t fp) const {
  return BucketPair{bucket, cuckoo_addressing::AltBucket(
                                hasher_, bucket, fp, table_->bucket_mask())};
}

std::vector<std::pair<uint64_t, int>> CcfBase::SlotsWithFp(
    const BucketPair& pair, uint32_t fp) const {
  std::vector<std::pair<uint64_t, int>> out;
  auto scan = [&](uint64_t b) {
    table_->ForEachOccupiedMatch(b, fp, [&](int s) {
      out.emplace_back(b, s);
      return false;
    });
  };
  scan(pair.primary);
  if (!pair.degenerate()) scan(pair.alt);
  return out;
}

int CcfBase::CountFpInPair(const BucketPair& pair, uint32_t fp) const {
  int n = table_->CountFingerprint(pair.primary, fp);
  if (!pair.degenerate()) n += table_->CountFingerprint(pair.alt, fp);
  return n;
}

std::pair<uint64_t, int> CcfBase::FreeSlotInPair(const BucketPair& pair) const {
  int s = table_->FirstFreeSlot(pair.primary);
  if (s >= 0) return {pair.primary, s};
  if (!pair.degenerate()) {
    s = table_->FirstFreeSlot(pair.alt);
    if (s >= 0) return {pair.alt, s};
  }
  return {0, -1};
}

CcfBase::RawEntry CcfBase::ReadRaw(uint64_t bucket, int slot) const {
  RawEntry entry;
  entry.fp = table_->fingerprint(bucket, slot);
  int remaining = table_->payload_bits();
  int pos = 0;
  while (remaining > 0) {
    int chunk = remaining > 64 ? 64 : remaining;
    entry.payload_words.push_back(
        table_->GetPayloadField(bucket, slot, pos, chunk));
    pos += chunk;
    remaining -= chunk;
  }
  return entry;
}

void CcfBase::WriteRaw(uint64_t bucket, int slot, const RawEntry& entry) {
  table_->Put(bucket, slot, entry.fp);
  int remaining = table_->payload_bits();
  int pos = 0;
  size_t w = 0;
  while (remaining > 0) {
    int chunk = remaining > 64 ? 64 : remaining;
    table_->SetPayloadField(bucket, slot, pos, chunk, entry.payload_words[w++]);
    pos += chunk;
    remaining -= chunk;
  }
}

// --- MarkedKeyFilter ---------------------------------------------------------

MarkedKeyFilter::MarkedKeyFilter(std::shared_ptr<const BucketTable> table,
                                 BitVector marks, Hasher hasher, int max_dupes,
                                 int chain_cap, bool chain_on_full_pair)
    : table_(std::move(table)),
      marks_(std::move(marks)),
      hasher_(hasher),
      max_dupes_(max_dupes),
      chain_cap_(chain_cap),
      chain_on_full_pair_(chain_on_full_pair) {}

bool MarkedKeyFilter::Contains(uint64_t key) const {
  uint64_t bucket;
  uint32_t fp;
  cuckoo_addressing::IndexAndFingerprint(hasher_, key, table_->bucket_mask(),
                                         table_->fingerprint_bits(), &bucket,
                                         &fp);
  return ContainsAddressed(
      BucketPair{bucket, cuckoo_addressing::AltBucket(hasher_, bucket, fp,
                                                      table_->bucket_mask())},
      fp);
}

void MarkedKeyFilter::ContainsBatch(std::span<const uint64_t> keys,
                                    std::span<bool> out) const {
  CCF_DCHECK(out.size() == keys.size());
  struct Addr {
    uint64_t cluster_key;
    BucketPair pair;
    uint32_t fp;
  };
  BatchPipelineOptions options;
  options.cluster_bits = std::bit_width(table_->bucket_mask());
  RunBatchPipeline<Addr>(
      keys.size(), options,
      [&](size_t i) {
        Addr a;
        cuckoo_addressing::IndexAndFingerprint(hasher_, keys[i],
                                               table_->bucket_mask(),
                                               table_->fingerprint_bits(),
                                               &a.pair.primary, &a.fp);
        a.pair.alt = cuckoo_addressing::AltBucket(
            hasher_, a.pair.primary, a.fp, table_->bucket_mask());
        a.cluster_key = a.pair.primary;
        return a;
      },
      [&](const Addr& a) {
        table_->PrefetchBucket(a.pair.primary);
        if (!a.pair.degenerate()) table_->PrefetchBucket(a.pair.alt);
      },
      [&](size_t i, const Addr& a) {
        out[i] = ContainsAddressed(a.pair, a.fp);
      });
}

bool MarkedKeyFilter::ContainsAddressed(const BucketPair& first_pair,
                                        uint32_t fp) const {
  // The ChainWalk is only materialized once the first pair is saturated,
  // as in ChainedCcf::WalkContains.
  std::optional<ChainWalk> walk;
  BucketPair pair = first_pair;
  for (int hop = 0; hop < chain_cap_; ++hop) {
    if (hop > 0) pair = walk->pair();
    int count = 0;
    bool unmarked = false;
    auto scan = [&](uint64_t b) {
      table_->ForEachOccupiedMatch(b, fp, [&](int s) {
        ++count;
        uint64_t idx = b * static_cast<uint64_t>(table_->slots_per_bucket()) +
                       static_cast<uint64_t>(s);
        if (!marks_.GetBit(idx)) unmarked = true;
        return false;
      });
    };
    scan(pair.primary);
    if (!pair.degenerate()) scan(pair.alt);
    if (unmarked) return true;
    if (!chain_on_full_pair_ || count != max_dupes_) return false;
    if (hop + 1 < chain_cap_) {
      if (!walk) {
        walk.emplace(&hasher_, table_->bucket_mask(), first_pair.primary, fp);
      }
      walk->Advance();
    }
  }
  // Chain cap exhausted with every pair full of (marked) copies: the source
  // CCF would answer true here too (Algorithm 5's terminal case).
  return chain_on_full_pair_;
}

}  // namespace ccf
