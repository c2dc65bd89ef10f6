// Bloom CCF (§5.2): a cuckoo filter whose entries each carry a small Bloom
// filter of the key's (attribute, value) pairs. Occupied entries match a
// regular cuckoo filter exactly (one entry per distinct fingerprint per
// pair), so the theoretical load-factor guarantees of cuckoo filters carry
// over — at the cost of losing co-occurrence information across rows.
#ifndef CCF_CCF_BLOOM_CCF_H_
#define CCF_CCF_BLOOM_CCF_H_

#include <memory>

#include "bloom/bloom_sketch.h"
#include "ccf/ccf_base.h"

namespace ccf {

/// \brief CCF with per-entry Bloom attribute sketches.
class BloomCcf : public CcfBase {
 public:
  /// Builds the filter around `table`, whose geometry must be the one
  /// ConditionalCuckooFilter::Make derives from the validated `config`
  /// (Make allocates it; deserialization loads it).
  static std::unique_ptr<ConditionalCuckooFilter> Make(const CcfConfig& config,
                                                       BucketTable table);

  Status Insert(uint64_t key, std::span<const uint64_t> attrs) override;
  bool ContainsKey(uint64_t key) const override;
  bool Contains(uint64_t key, const Predicate& pred) const override;
  bool ContainsAddressed(uint64_t bucket, uint32_t fp,
                         const Predicate& pred) const override;
  bool ContainsAddressedExcluding(
      uint64_t bucket, uint32_t fp, const Predicate& pred,
      std::span<const uint64_t> excluded) const override;

  /// Algorithm 2 verbatim: erase non-matching entries, return the remaining
  /// key fingerprints as a plain cuckoo filter.
  Result<std::unique_ptr<KeyFilter>> PredicateQuery(
      const Predicate& pred) const override;
  Result<std::unique_ptr<ConditionalCuckooFilter>> Clone() const override {
    return std::unique_ptr<ConditionalCuckooFilter>(new BloomCcf(*this));
  }
  CcfVariant variant() const override { return CcfVariant::kBloom; }

  /// Number of Bloom probes per item in the per-entry sketches.
  int sketch_hashes() const { return sketch_hashes_; }

 protected:
  void LookupBatchBroadcast(std::span<const uint64_t> keys,
                            const Predicate& pred,
                            std::span<bool> out) const override;
  uint64_t PackRowPayload(std::span<const uint64_t> attrs) const override;
  bool TryInsertNoKick(const BucketPair& pair, uint32_t fp,
                       std::span<const uint64_t> attrs,
                       uint64_t payload) override;
  Status InsertAddressed(const BucketPair& pair, uint32_t fp,
                         std::span<const uint64_t> attrs) override;
  bool EraseRowAddressed(const BucketPair& pair, uint32_t fp,
                         uint64_t payload) override;

 private:
  BloomCcf(CcfConfig config, BucketTable table);

  BloomSketchView EntrySketch(uint64_t bucket, int slot) const;
  bool EntryMatches(uint64_t bucket, int slot, const Predicate& pred) const;

  /// ORs the row's (attribute, value) bits into the entry's Bloom sketch.
  void FoldRow(uint64_t bucket, int slot, std::span<const uint64_t> attrs);

  int sketch_hashes_;
};

}  // namespace ccf

#endif  // CCF_CCF_BLOOM_CCF_H_
