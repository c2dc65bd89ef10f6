#include "cuckoo/cuckoo_filter.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "util/batch_pipeline.h"

namespace ccf {

using cuckoo_addressing::AltBucket;
using cuckoo_addressing::IndexAndFingerprint;

CuckooFilter::CuckooFilter(const CuckooFilterConfig& config, BucketTable table)
    : config_(config),
      table_(std::move(table)),
      hasher_(config.salt),
      rng_(config.salt ^ 0x5bf03635f0935ad1ull) {
  config_.num_buckets = table_.num_buckets();
}

Result<CuckooFilter> CuckooFilter::Make(const CuckooFilterConfig& config) {
  if (config.max_kicks < 1) {
    return Status::Invalid("max_kicks must be >= 1");
  }
  CCF_ASSIGN_OR_RETURN(
      BucketTable table,
      BucketTable::Make(config.num_buckets, config.slots_per_bucket,
                        config.fingerprint_bits, /*payload_bits=*/0));
  return CuckooFilter(config, std::move(table));
}

Result<CuckooFilter> CuckooFilter::MakeForCapacity(
    uint64_t n, const CuckooFilterConfig& base, double load) {
  if (load <= 0.0 || load > 1.0) {
    return Status::Invalid("load must be in (0, 1]");
  }
  CuckooFilterConfig config = base;
  double slots_needed = static_cast<double>(n) / load;
  config.num_buckets = NextPowerOfTwo(static_cast<uint64_t>(std::ceil(
      slots_needed / static_cast<double>(base.slots_per_bucket))));
  return Make(config);
}

Status CuckooFilter::Insert(uint64_t key) {
  uint64_t bucket;
  uint32_t fp;
  IndexAndFingerprint(hasher_, key, table_.bucket_mask(),
                      config_.fingerprint_bits, &bucket, &fp);
  return InsertAddressed(
      bucket, AltBucket(hasher_, bucket, fp, table_.bucket_mask()), fp);
}

Status CuckooFilter::InsertAddressed(uint64_t bucket, uint64_t alt,
                                     uint32_t fp) {
  if (!config_.multiset) {
    // Set semantics: duplicate fingerprints in the pair are collapsed.
    if (table_.CountFingerprint(bucket, fp) > 0 ||
        (alt != bucket && table_.CountFingerprint(alt, fp) > 0)) {
      return Status::OK();
    }
  }

  int free_slot = table_.FirstFreeSlot(bucket);
  if (free_slot >= 0) {
    table_.Put(bucket, free_slot, fp);
    ++num_items_;
    return Status::OK();
  }
  free_slot = table_.FirstFreeSlot(alt);
  if (free_slot >= 0) {
    table_.Put(alt, free_slot, fp);
    ++num_items_;
    return Status::OK();
  }

  // Both buckets full: find a displacement chain without mutating, then
  // shift it in one pass. A failed insert leaves the filter untouched (no
  // dropped fingerprints, hence no false negatives from failures).
  std::vector<std::pair<uint64_t, int>> trail;
  std::vector<uint32_t> displaced;
  uint64_t cur = rng_.NextBool(0.5) ? bucket : alt;
  int free_dest_slot = -1;
  uint64_t free_dest_bucket = 0;
  for (int kick = 0; kick < config_.max_kicks; ++kick) {
    int b = table_.slots_per_bucket();
    int start = static_cast<int>(rng_.NextBelow(static_cast<uint64_t>(b)));
    int victim = -1;
    for (int i = 0; i < b; ++i) {
      int s = (start + i) % b;
      bool on_trail = false;
      for (const auto& [tb, ts] : trail) {
        if (tb == cur && ts == s) {
          on_trail = true;
          break;
        }
      }
      if (!on_trail) {
        victim = s;
        break;
      }
    }
    if (victim < 0) break;
    trail.emplace_back(cur, victim);
    displaced.push_back(table_.fingerprint(cur, victim));
    uint64_t mate =
        AltBucket(hasher_, cur, displaced.back(), table_.bucket_mask());
    int dest = table_.FirstFreeSlot(mate);
    if (dest >= 0) {
      free_dest_bucket = mate;
      free_dest_slot = dest;
      break;
    }
    cur = mate;
  }
  if (free_dest_slot < 0) {
    return Status::CapacityError("cuckoo filter insertion exceeded max kicks");
  }
  table_.Put(free_dest_bucket, free_dest_slot, displaced.back());
  for (size_t i = trail.size(); i-- > 1;) {
    table_.Put(trail[i].first, trail[i].second, displaced[i - 1]);
  }
  table_.Put(trail[0].first, trail[0].second, fp);
  ++num_items_;
  return Status::OK();
}

bool CuckooFilter::TryInsertNoKick(uint64_t bucket, uint64_t alt,
                                   uint32_t fp) {
  if (!config_.multiset) {
    if (table_.CountFingerprint(bucket, fp) > 0 ||
        (alt != bucket && table_.CountFingerprint(alt, fp) > 0)) {
      return true;  // set semantics: collapsed
    }
  }
  int slot = table_.FirstFreeSlot(bucket);
  uint64_t dest = bucket;
  if (slot < 0 && alt != bucket) {
    slot = table_.FirstFreeSlot(alt);
    dest = alt;
  }
  if (slot < 0) return false;  // displacement needed: wave 2
  table_.Put(dest, slot, fp);
  ++num_items_;
  return true;
}

Status CuckooFilter::InsertBatch(std::span<const uint64_t> keys) {
  // The write-side instantiation of the library pipeline: wave 1 places
  // every key whose pair still has a free slot against prefetched lines;
  // only the leftovers pay the displacement chain in wave 2.
  struct Addr {
    uint64_t bucket;
    uint64_t alt;
    uint32_t fp;
  };
  const bool prefetch = InsertPrefetches(table_.SizeInBits());
  Status first_error = Status::OK();
  RunBatchPipelineTwoWave<Addr>(
      keys.size(), kInsertBatchBlock,
      [&](size_t i) {
        Addr a;
        IndexAndFingerprint(hasher_, keys[i], table_.bucket_mask(),
                            config_.fingerprint_bits, &a.bucket, &a.fp);
        a.alt = AltBucket(hasher_, a.bucket, a.fp, table_.bucket_mask());
        return a;
      },
      [&](const Addr& a) {
        if (!prefetch) return;
        table_.PrefetchBucketForInsert(a.bucket);
        if (a.alt != a.bucket) table_.PrefetchBucketForInsert(a.alt);
      },
      [&](size_t i, Addr& a) {
        (void)i;
        if (!first_error.ok()) return true;  // drain the batch cheaply
        return TryInsertNoKick(a.bucket, a.alt, a.fp);
      },
      [](const Addr&) {},  // wave 1 has just fetched the deferred pair
      [&](size_t i, const Addr& a) {
        (void)i;
        if (!first_error.ok()) return;
        Status st = InsertAddressed(a.bucket, a.alt, a.fp);
        if (!st.ok()) first_error = std::move(st);
      });
  return first_error;
}

bool CuckooFilter::Contains(uint64_t key) const {
  uint64_t bucket;
  uint32_t fp;
  IndexAndFingerprint(hasher_, key, table_.bucket_mask(),
                      config_.fingerprint_bits, &bucket, &fp);
  if (table_.CountFingerprint(bucket, fp) > 0) return true;
  uint64_t alt = AltBucket(hasher_, bucket, fp, table_.bucket_mask());
  return alt != bucket && table_.CountFingerprint(alt, fp) > 0;
}

void CuckooFilter::ContainsBatch(std::span<const uint64_t> keys,
                                 std::span<bool> out) const {
  CCF_DCHECK(out.size() == keys.size());
  // The library-wide pipeline in its two-wave form: hash, prefetch and test
  // primaries; only keys their primary bucket cannot settle fetch and test
  // the alt bucket in wave 2.
  struct Addr {
    uint64_t bucket;
    uint64_t alt;
    uint32_t fp;
  };
  RunBatchPipelineTwoWave<Addr>(
      keys.size(), kBatchPipelineBlock,
      [&](size_t i) {
        Addr a;
        IndexAndFingerprint(hasher_, keys[i], table_.bucket_mask(),
                            config_.fingerprint_bits, &a.bucket, &a.fp);
        a.alt = AltBucket(hasher_, a.bucket, a.fp, table_.bucket_mask());
        return a;
      },
      [&](const Addr& a) { table_.PrefetchBucket(a.bucket); },
      [&](size_t i, Addr& a) {
        if (table_.CountFingerprint(a.bucket, a.fp) > 0) {
          out[i] = true;
          return true;
        }
        if (a.alt == a.bucket) {
          out[i] = false;
          return true;
        }
        return false;
      },
      [&](const Addr& a) { table_.PrefetchBucket(a.alt); },
      [&](size_t i, const Addr& a) {
        out[i] = table_.CountFingerprint(a.alt, a.fp) > 0;
      });
}

bool CuckooFilter::Delete(uint64_t key) {
  uint64_t bucket;
  uint32_t fp;
  IndexAndFingerprint(hasher_, key, table_.bucket_mask(),
                      config_.fingerprint_bits, &bucket, &fp);
  for (uint64_t b : {bucket, AltBucket(hasher_, bucket, fp,
                                       table_.bucket_mask())}) {
    for (int s = 0; s < table_.slots_per_bucket(); ++s) {
      if (table_.occupied(b, s) && table_.fingerprint(b, s) == fp) {
        table_.Erase(b, s);
        --num_items_;
        return true;
      }
    }
  }
  return false;
}

namespace {
constexpr uint32_t kCuckooFilterMagic = 0x43554631;  // "CUF1"
}  // namespace

std::string CuckooFilter::Serialize() const {
  std::string out;
  ByteWriter writer(&out);
  writer.WriteU32(kCuckooFilterMagic);
  writer.WriteU64(config_.num_buckets);
  writer.WriteU32(static_cast<uint32_t>(config_.slots_per_bucket));
  writer.WriteU32(static_cast<uint32_t>(config_.fingerprint_bits));
  writer.WriteU64(config_.salt);
  writer.WriteU32(static_cast<uint32_t>(config_.max_kicks));
  writer.WriteBool(config_.multiset);
  writer.WriteU64(num_items_);
  table_.Save(&writer);
  return out;
}

Result<CuckooFilter> CuckooFilter::Deserialize(std::string_view data) {
  ByteReader reader(data);
  CCF_ASSIGN_OR_RETURN(uint32_t magic, reader.ReadU32());
  if (magic != kCuckooFilterMagic) {
    return Status::Invalid("not a serialized CuckooFilter");
  }
  CuckooFilterConfig config;
  CCF_ASSIGN_OR_RETURN(config.num_buckets, reader.ReadU64());
  CCF_ASSIGN_OR_RETURN(uint32_t slots, reader.ReadU32());
  config.slots_per_bucket = static_cast<int>(slots);
  CCF_ASSIGN_OR_RETURN(uint32_t fp_bits, reader.ReadU32());
  config.fingerprint_bits = static_cast<int>(fp_bits);
  CCF_ASSIGN_OR_RETURN(config.salt, reader.ReadU64());
  CCF_ASSIGN_OR_RETURN(uint32_t kicks, reader.ReadU32());
  config.max_kicks = static_cast<int>(kicks);
  CCF_ASSIGN_OR_RETURN(config.multiset, reader.ReadBool());
  CCF_ASSIGN_OR_RETURN(uint64_t num_items, reader.ReadU64());
  CCF_ASSIGN_OR_RETURN(BucketTable table, BucketTable::Load(&reader));
  if (table.num_buckets() != config.num_buckets ||
      table.slots_per_bucket() != config.slots_per_bucket ||
      table.fingerprint_bits() != config.fingerprint_bits ||
      table.payload_bits() != 0) {
    return Status::Invalid("serialized table geometry mismatches config");
  }
  CuckooFilter filter(config, std::move(table));
  filter.num_items_ = num_items;
  return filter;
}

double CuckooFilter::ExpectedFpr() const {
  // E[D] ≈ 2b·β occupied entries probed per query.
  double mean_probed =
      2.0 * static_cast<double>(table_.slots_per_bucket()) * LoadFactor();
  return mean_probed * std::pow(2.0, -config_.fingerprint_bits);
}

}  // namespace ccf
