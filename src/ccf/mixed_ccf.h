// Mixed CCF (§6.1, "Bloom conversion"): entries start as attribute
// fingerprint vectors; once a bucket pair accumulates d copies of a key
// fingerprint, those d entries are converted in place into one Bloom filter
// packed across their payload windows. Conversion never fails, so the Mixed
// variant absorbs unbounded duplicates without chaining.
//
// Layout per slot payload:
//   bit 0                  mode (0 vector, 1 converted fragment)
//   bits [1, 1+seq_bits)   fragment sequence number (converted only)
//   bits [base, base+#α·|α|) fingerprint vector or Bloom fragment,
//                            base = 1 + seq_bits
//
// The sequence number makes the packed Bloom's bit order independent of
// slot positions, so converted fragments can be displaced by cuckoo kicks
// like any other entry (they still never leave their bucket pair, by the
// XOR involution). This costs ⌈log2 d⌉ bits per slot, comparable to the
// paper's 2(|κ| + ⌈log2 d⌉)-bit count fields, and avoids re-packing the
// Bloom filter on every kick.
#ifndef CCF_CCF_MIXED_CCF_H_
#define CCF_CCF_MIXED_CCF_H_

#include <memory>

#include "bloom/bloom_sketch.h"
#include "ccf/ccf_base.h"

namespace ccf {

/// \brief Fingerprint-vector CCF with in-place Bloom conversion at d
/// duplicates.
class MixedCcf : public CcfBase {
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
    auto copy = std::unique_ptr<MixedCcf>(new MixedCcf(*this));
    // The implicit copy leaves codec_ pointing at the SOURCE's hasher;
    // rebind so the clone stays valid after the source is epoch-freed.
    copy->codec_.RebindHasher(&copy->hasher_);
    return std::unique_ptr<ConditionalCuckooFilter>(std::move(copy));
  }
  CcfVariant variant() const override { return CcfVariant::kMixed; }

  /// Number of vector→Bloom conversions performed (diagnostics).
  uint64_t num_conversions() const { return num_conversions_; }
  /// Bloom probes used by converted sketches (eq. 2 when
  /// optimize_bloom_hashes, else the fixed bloom_hashes setting).
  int conversion_hashes() const { return conversion_hashes_; }

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
  void SaveExtras(ByteWriter* writer) const override;
  Status LoadExtras(ByteReader* reader) override;

 private:
  MixedCcf(CcfConfig config, BucketTable table);

  bool IsConverted(uint64_t bucket, int slot) const {
    return table_->GetPayloadField(bucket, slot, 0, 1) != 0;
  }
  void SetConverted(uint64_t bucket, int slot, bool converted) {
    table_->SetPayloadField(bucket, slot, 0, 1, converted ? 1 : 0);
  }
  uint64_t SeqOf(uint64_t bucket, int slot) const {
    return seq_bits_ == 0 ? 0
                          : table_->GetPayloadField(bucket, slot, 1, seq_bits_);
  }
  void SetSeq(uint64_t bucket, int slot, uint64_t seq) {
    if (seq_bits_ > 0) table_->SetPayloadField(bucket, slot, 1, seq_bits_, seq);
  }

  /// Converted fragments of κ in the pair, ordered by sequence number (the
  /// stable order the packed Bloom bits were written in).
  std::vector<std::pair<uint64_t, int>> CanonicalFragments(
      const BucketPair& pair, uint32_t fp) const;

  /// Bloom view spanning the given fragment windows (in the given order).
  BloomSketchView FragmentSketch(
      const std::vector<std::pair<uint64_t, int>>& frags) const;

  /// Converts the d vector entries of κ into one packed Bloom filter and
  /// folds `attrs` (the (d+1)-th duplicate) into it. Never fails.
  void ConvertToBloom(const BucketPair& pair, uint32_t fp,
                      std::span<const uint64_t> attrs);

  void FoldRowIntoSketch(BloomSketchView* sketch,
                         std::span<const uint64_t> attrs) const;
  bool SketchMatches(const BloomSketchView& sketch,
                     const Predicate& pred) const;

  /// Contains resolution with a pluggable vector-entry matcher; converted
  /// keys fall back to the (rare) packed-sketch path, which always
  /// evaluates the raw predicate.
  template <typename EntryMatcher>
  bool ResolveAddressed(const BucketPair& pair, uint32_t fp,
                        const Predicate& pred,
                        EntryMatcher&& matches) const {
    bool any_converted = false;
    auto [count, matched] = ScanPairWithFp(
        pair, fp, [&](uint64_t b, int s) {
          if (IsConverted(b, s)) {
            any_converted = true;
            return false;
          }
          return matches(b, s);
        });
    (void)count;
    if (matched) return true;
    if (any_converted) {
      return SketchMatches(FragmentSketch(CanonicalFragments(pair, fp)),
                           pred);
    }
    return false;
  }

  AttrFingerprintCodec codec_;
  int seq_bits_;
  int vec_base_;  // payload offset of the vector / fragment window
  int vec_bits_;
  int conversion_hashes_;
  uint64_t num_conversions_ = 0;
};

}  // namespace ccf

#endif  // CCF_CCF_MIXED_CCF_H_
