// Standard cuckoo filter (Fan, Andersen, Kaminsky, Mitzenmacher 2014) with
// partial-key cuckoo hashing. Serves as:
//   * the key-only baseline of the paper's evaluation ("Cuckoo Filter" RF),
//   * the "Plain" multiset mode whose failure behaviour Figure 4 plots,
//   * the output type of CCF predicate-only queries (Algorithm 2).
#ifndef CCF_CUCKOO_CUCKOO_FILTER_H_
#define CCF_CUCKOO_CUCKOO_FILTER_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "cuckoo/bucket_table.h"
#include "hash/fingerprint.h"
#include "hash/hasher.h"
#include "util/random.h"
#include "util/result.h"

namespace ccf {

/// Shared partial-key addressing helpers (used by the filter and by every
/// CCF variant so that all structures probe identical bucket pairs).
namespace cuckoo_addressing {

/// (ℓ, κ) from a precomputed raw key hash (hasher.Hash(key, 0)): ℓ from
/// the low bits, κ from the high bits (uncorrelated). THE one derivation —
/// IndexAndFingerprint and the hash-memoized bulk-insert address pass both
/// delegate here, so cached raw hashes can never re-address differently
/// than fresh ones.
inline void IndexAndFingerprintFromHash(uint64_t h, uint64_t bucket_mask,
                                        int fp_bits, uint64_t* bucket,
                                        uint32_t* fp) {
  *bucket = h & bucket_mask;
  *fp = FingerprintFromHash(h, fp_bits);
}

/// Primary bucket ℓ and fingerprint κ for a key.
inline void IndexAndFingerprint(const Hasher& hasher, uint64_t key,
                                uint64_t bucket_mask, int fp_bits,
                                uint64_t* bucket, uint32_t* fp) {
  IndexAndFingerprintFromHash(hasher.Hash(key, 0), bucket_mask, fp_bits,
                              bucket, fp);
}

/// Alternate bucket ℓ′ = ℓ ⊕ h(κ) (mod m). Involutive: Alt(Alt(ℓ)) == ℓ.
inline uint64_t AltBucket(const Hasher& hasher, uint64_t bucket, uint32_t fp,
                          uint64_t bucket_mask) {
  return (bucket ^ hasher.Hash(fp, 3)) & bucket_mask;
}

}  // namespace cuckoo_addressing

/// Configuration for a CuckooFilter.
struct CuckooFilterConfig {
  /// Number of buckets; rounded up to a power of two.
  uint64_t num_buckets = 1024;
  /// Entries per bucket (paper's b; 4 is the classic setting).
  int slots_per_bucket = 4;
  /// Key fingerprint width |κ| in bits.
  int fingerprint_bits = 12;
  /// Hash salt; randomized per run in experiments.
  uint64_t salt = 0;
  /// Maximum displacement chain length before insertion fails.
  int max_kicks = 500;
  /// If false, inserting a key whose fingerprint already exists in its
  /// bucket pair is a no-op (set semantics). If true, an extra copy is
  /// stored (multiset semantics, §4.3) — capped by slot availability.
  bool multiset = false;
};

/// \brief Approximate set-membership filter with two-choice bucketized
/// cuckoo hashing on key fingerprints.
class CuckooFilter {
 public:
  static Result<CuckooFilter> Make(const CuckooFilterConfig& config);

  /// Sizes the table for `n` keys at target load factor `load` (paper: a
  /// well-sized b=4 filter reaches ≈95%).
  static Result<CuckooFilter> MakeForCapacity(uint64_t n,
                                              const CuckooFilterConfig& base,
                                              double load = 0.95);

  /// Inserts a key. Returns CapacityError when the displacement chain
  /// exceeds max_kicks (callers may then resize and rebuild).
  Status Insert(uint64_t key);

  /// Bulk insertion through the two-wave batch pipeline: hash a block,
  /// prefetch, place every key whose pair
  /// has a free slot in wave 1 (dedupe + write against cached lines) and
  /// run the displacement path only for wave-2 leftovers. Semantically a
  /// loop of Insert (set/multiset semantics and CapacityError carry over);
  /// placement order differs, so slot assignment may too.
  Status InsertBatch(std::span<const uint64_t> keys);

  /// True if the key may be in the set (no false negatives).
  bool Contains(uint64_t key) const;

  /// Batched Contains: out[i] = Contains(keys[i]), bit-identical to the
  /// scalar loop. Hashes each block of keys up front, prefetches both
  /// candidate buckets per key, then resolves in a second pass (§10.8-style
  /// hot path). Requires out.size() == keys.size().
  void ContainsBatch(std::span<const uint64_t> keys,
                     std::span<bool> out) const;

  /// Removes one copy of the key's fingerprint if present. Only safe for
  /// keys that were actually inserted (standard cuckoo filter caveat).
  bool Delete(uint64_t key);

  uint64_t num_items() const { return num_items_; }
  double LoadFactor() const { return table_.LoadFactor(); }
  uint64_t SizeInBits() const { return table_.SizeInBits(); }
  const CuckooFilterConfig& config() const { return config_; }
  const BucketTable& table() const { return table_; }
  const Hasher& hasher() const { return hasher_; }

  /// Expected FPR for absent keys: E[D]·2^{-|κ|} with D the mean number of
  /// occupied entries per bucket pair (§4.2 refinement).
  double ExpectedFpr() const;

  /// Serializes config + table. The kick RNG restarts fresh on load, which
  /// only affects future displacement randomness, not answers.
  std::string Serialize() const;
  static Result<CuckooFilter> Deserialize(std::string_view data);

  // --- Raw access for derived-filter construction (Algorithm 2) -----------

  /// Writes a fingerprint directly into (bucket, slot). Used by CCF
  /// PredicateQuery to emit a filter with identical geometry; the result is
  /// only valid if fingerprints keep their original positions.
  void RawPut(uint64_t bucket, int slot, uint32_t fp) {
    table_.Put(bucket, slot, fp);
    ++num_items_;
  }

 private:
  CuckooFilter(const CuckooFilterConfig& config, BucketTable table);

  /// Full insertion logic from a precomputed address (wave 2 / scalar).
  Status InsertAddressed(uint64_t bucket, uint64_t alt, uint32_t fp);

  /// Displacement-free attempt (wave 1): dedupe plus free-slot placement.
  bool TryInsertNoKick(uint64_t bucket, uint64_t alt, uint32_t fp);

  CuckooFilterConfig config_;
  BucketTable table_;
  Hasher hasher_;
  Rng rng_;
  uint64_t num_items_ = 0;
};

}  // namespace ccf

#endif  // CCF_CUCKOO_CUCKOO_FILTER_H_
