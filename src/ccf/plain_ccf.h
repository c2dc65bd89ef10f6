// Plain CCF: a cuckoo filter whose entries carry attribute fingerprint
// vectors (§5.1) with duplicate keys stored as extra entries in the bucket
// pair (§4.3's multiset extension). No chaining, no conversion — the
// failure-prone baseline whose collapse Figures 4 and the JOB-light "Plain"
// rows demonstrate.
#ifndef CCF_CCF_PLAIN_CCF_H_
#define CCF_CCF_PLAIN_CCF_H_

#include <memory>

#include "ccf/ccf_base.h"

namespace ccf {

/// \brief Fingerprint-vector CCF limited to one bucket pair per key.
class PlainCcf : public CcfBase {
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
  Result<std::unique_ptr<KeyFilter>> PredicateQuery(
      const Predicate& pred) const override;
  Result<std::unique_ptr<ConditionalCuckooFilter>> Clone() const override {
    auto copy = std::unique_ptr<PlainCcf>(new PlainCcf(*this));
    // The implicit copy leaves codec_ pointing at the SOURCE's hasher;
    // rebind so the clone stays valid after the source is epoch-freed.
    copy->codec_.RebindHasher(&copy->hasher_);
    return std::unique_ptr<ConditionalCuckooFilter>(std::move(copy));
  }
  CcfVariant variant() const override { return CcfVariant::kPlain; }

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
  PlainCcf(CcfConfig config, BucketTable table);

  AttrFingerprintCodec codec_;
};

}  // namespace ccf

#endif  // CCF_CCF_PLAIN_CCF_H_
