// Public interface of the Conditional Cuckoo Filter (the paper's primary
// contribution, §5-§6): approximate membership of (key, predicate) queries
// with no false negatives, in four variants:
//
//   * kPlain   — cuckoo filter + attribute fingerprint vectors, duplicates
//                limited to one bucket pair (the failure-prone baseline),
//   * kChained — fingerprint vectors + the chaining technique (§6.2),
//   * kBloom   — per-entry Bloom attribute sketches (§5.2),
//   * kMixed   — fingerprint vectors with Bloom conversion at d duplicates
//                (§6.1).
#ifndef CCF_CCF_CCF_H_
#define CCF_CCF_CCF_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "cuckoo/cuckoo_filter.h"
#include "predicate/predicate.h"
#include "util/result.h"
#include "util/serde.h"

namespace ccf {

/// CCF variant selector (paper's naming: Plain / Chained / Bloom / Mixed).
enum class CcfVariant { kPlain, kChained, kBloom, kMixed };

std::string_view CcfVariantName(CcfVariant variant);

/// Tuning parameters of a CCF (§8's parameter set).
struct CcfConfig {
  /// m — number of buckets (rounded up to a power of two).
  uint64_t num_buckets = 1024;
  /// b — entries per bucket; §8's rule of thumb is b ≈ 2d.
  int slots_per_bucket = 6;
  /// |κ| — key fingerprint bits (7, 8, or 12 in the evaluation).
  int key_fp_bits = 12;
  /// |α| — bits per attribute fingerprint (4 or 8 in the evaluation).
  int attr_fp_bits = 8;
  /// #α — number of attribute columns sketched.
  int num_attrs = 1;
  /// d — max duplicate key fingerprints per bucket pair (paper uses 3).
  int max_dupes = 3;
  /// Lmax — maximum chain length. 0 means unbounded (∞ in the paper's
  /// multiset experiments) and is then capped at kHardChainCap; a positive
  /// value is used as given.
  int max_chain = 0;
  /// Bloom attribute sketch bits per entry (Bloom variant only).
  int bloom_bits = 16;
  /// Fixed number of Bloom sketch hash functions (the paper found small
  /// fixed values, 2, uniformly better).
  int bloom_hashes = 2;
  /// §10.4's alternative: derive #hashes from eq. (2) assuming 2 attribute
  /// vectors per key (d+1 for Mixed). Uniformly worse per the paper; kept
  /// for reproduction.
  bool optimize_bloom_hashes = false;
  /// §9 small-value optimization: attribute values < 2^|α| stored exactly.
  bool small_value_opt = true;
  /// Hash salt (experiments randomize this per run).
  uint64_t salt = 0;
  /// MaxKicks for cuckoo displacement.
  int max_kicks = 500;
  /// When true (the default) every scalar Insert runs the variant's full
  /// addressed insertion (Algorithm 3/4: dedupe, kicks, chain walk,
  /// conversion), which pins row-at-a-time builds bit-for-bit
  /// (`ccf_joblight --build scalar` relies on it). false first tries the
  /// batched build's displacement-free wave-1 placement on each row (one
  /// word compare per duplicate, one PutSlot field store) and falls back
  /// to the full insertion only when that cannot settle the row.
  /// Build-time knob; not serialized.
  bool reproducible_scalar = true;
};

/// Hard cap on chain walks when max_chain is 0 ("unbounded").
inline constexpr int kHardChainCap = 64;

/// Most Bloom sketch hash functions a Bloom or Mixed filter accepts
/// (config.bloom_hashes, and the optimize_bloom_hashes optimum's clamp).
inline constexpr int kMaxBloomHashes = 16;

/// Shared shape validation for LookupBatch implementations: out must match
/// keys, preds must be broadcast (1) or per-key (keys.size()).
Status ValidateLookupBatchShape(size_t num_keys, size_t num_preds,
                                size_t num_out);

/// \brief Result of a predicate-only query (Algorithm 2): a key-only filter
/// for S_P = {k : (k, a) ∈ D, P(a) = true}, with no false negatives.
class KeyFilter {
 public:
  virtual ~KeyFilter() = default;
  virtual bool Contains(uint64_t key) const = 0;
  virtual uint64_t SizeInBits() const = 0;

  /// Batched Contains: out[i] = Contains(keys[i]). The default is the
  /// scalar loop; implementations override with prefetched two-pass
  /// resolution. Requires out.size() == keys.size().
  virtual void ContainsBatch(std::span<const uint64_t> keys,
                             std::span<bool> out) const;
};

/// \brief Approximate membership filter for (key, predicate) queries.
///
/// Guarantee: if some inserted row (k, a) has P(a) = true, then
/// Contains(k, P) returns true (Theorem 3). All query methods are const and
/// safe for concurrent readers; Insert is single-writer.
class ConditionalCuckooFilter {
 public:
  virtual ~ConditionalCuckooFilter() = default;

  /// Creates a CCF of the given variant. Fails on invalid geometry.
  static Result<std::unique_ptr<ConditionalCuckooFilter>> Make(
      CcfVariant variant, const CcfConfig& config);

  /// Inserts one row: a key and its attribute values (size must equal
  /// config().num_attrs). Duplicate (key, attribute-fingerprint) rows are
  /// collapsed. Returns CapacityError when the structure cannot absorb the
  /// row (the "failed insertion" event measured in Figure 4).
  virtual Status Insert(uint64_t key, std::span<const uint64_t> attrs) = 0;

  /// Bulk row insertion: row i is (keys[i], attrs[i*num_attrs ..
  /// (i+1)*num_attrs)) with attrs row-major holding keys.size() * num_attrs
  /// values. Semantically a loop of Insert over the rows — duplicate
  /// collapsing, no-false-negatives, and CapacityError (stop, resize,
  /// rebuild) carry over — but implementations may hash blocks up front,
  /// prefetch, and reorder row placement: entry/row counts and answers for
  /// inserted rows are unaffected, while exact slot assignment (hence
  /// absent-key false positives) may differ from the scalar loop. CcfBase
  /// overrides this with the two-wave prefetched write pipeline; the base
  /// implementation is the scalar loop.
  ///
  /// `hash_memo`, when non-null, caches the geometry-independent half of
  /// each row's hash pipeline — two words per row: the salt-keyed key hash
  /// and the packed payload word (attribute fingerprints / sketch bits).
  /// Pass an empty vector on the first build (it is filled during the
  /// address pass) and the SAME vector to a rebuild with any bucket count
  /// under the same salt — re-addressing then re-masks the cached hashes
  /// instead of re-hashing every key and attribute, which is what makes
  /// §4.1's doubling rebuilds cheap. Must be empty or hold exactly
  /// 2 * keys.size() entries.
  virtual Status InsertBatch(std::span<const uint64_t> keys,
                             std::span<const uint64_t> attrs,
                             std::vector<uint64_t>* hash_memo = nullptr);

  /// Copies the filter OBJECT while sharing its current immutable table
  /// snapshot, so cloning a multi-megabyte filter costs O(object), not
  /// O(table): the clone copy-on-writes (unshares) the table before its
  /// first mutation, leaving the source — and every reader bound to its
  /// snapshot — untouched. This is the building block of the wait-free
  /// write-batch commit path (ShardedCcf::CommitWrites inserts pending
  /// rows into a clone off the serving path and epoch-publishes the
  /// result). Supported by the four CcfBase variants; containers
  /// (ShardedCcf) return InvalidArgument.
  virtual Result<std::unique_ptr<ConditionalCuckooFilter>> Clone() const;

  /// Key-only membership (ordinary cuckoo-filter query, §7.1).
  virtual bool ContainsKey(uint64_t key) const = 0;

  /// Membership of key under an equality/in-list predicate (Algorithm 1 /
  /// Algorithm 5).
  virtual bool Contains(uint64_t key, const Predicate& pred) const = 0;

  /// Batched Contains: out[i] = Contains(keys[i], pred_i), bit-identical to
  /// the scalar loop. `preds` holds either one predicate applied to every
  /// key (the join-pushdown pattern: millions of keys, one predicate) or
  /// exactly keys.size() per-key predicates. The base implementation is the
  /// scalar loop; CcfBase overrides it with a two-pass hot path that hashes
  /// a block of keys up front and software-prefetches both candidate
  /// buckets per key before resolving. Safe for concurrent readers.
  virtual Status LookupBatch(std::span<const uint64_t> keys,
                             std::span<const Predicate> preds,
                             std::span<bool> out) const;

  /// Batched ContainsKey with the same prefetched two-pass structure.
  /// Requires out.size() == keys.size().
  virtual void ContainsKeyBatch(std::span<const uint64_t> keys,
                                std::span<bool> out) const;

  /// Convenience for Query(k, a): all attributes must match exactly.
  bool ContainsRow(uint64_t key, std::span<const uint64_t> attrs) const;

  /// Predicate-only query (Algorithm 2): derives a key filter for S_P.
  /// Supported by all variants in this implementation (the chained variant
  /// uses the §6.2 marking extension rather than erasure).
  virtual Result<std::unique_ptr<KeyFilter>> PredicateQuery(
      const Predicate& pred) const = 0;

  /// Physical sketch size in bits (slot storage + occupancy bitmap).
  virtual uint64_t SizeInBits() const = 0;
  virtual double LoadFactor() const = 0;
  /// Number of occupied entries (Z′ in §8).
  virtual uint64_t num_entries() const = 0;
  /// Number of rows accepted by Insert (collapsed duplicates count once).
  virtual uint64_t num_rows() const = 0;

  virtual const CcfConfig& config() const = 0;
  virtual CcfVariant variant() const = 0;
  std::string_view name() const { return CcfVariantName(variant()); }

  /// Serializes the filter to bytes (variant + config + table + counters).
  /// Sketches are precomputed artifacts in the paper's workflow; Save/Load
  /// round-trips preserve every query answer.
  virtual std::string Serialize() const = 0;

  /// Restores any variant serialized by Serialize().
  static Result<std::unique_ptr<ConditionalCuckooFilter>> Deserialize(
      std::string_view data);

  /// Zero-copy restore: like Deserialize(data), but the loaded table's bit
  /// arrays ALIAS `data` where alignment permits instead of copying —
  /// opening a large filter from an mmap'd blob costs page-table setup,
  /// not a memcpy. `data` must point into the region `mapping.keepalive`
  /// keeps alive (e.g. a MappedFile's view), and that region must stay
  /// READABLE for at least 8 bytes past the end of `data`: wide probe
  /// readers may overread an aliased word array by up to 7 bytes (see
  /// AliasMapping's tail-slack contract). MmapFileBytes' guard page
  /// provides this; heap-backed blobs need explicit tail slack. The
  /// filter retains the keepalive. Mutating an alias-loaded filter
  /// copy-on-writes the bit arrays first, so the backing buffer is never
  /// written through.
  static Result<std::unique_ptr<ConditionalCuckooFilter>> Deserialize(
      std::string_view data, const AliasMapping& mapping);
};

}  // namespace ccf

#endif  // CCF_CCF_CCF_H_
