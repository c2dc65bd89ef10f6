// Chained CCF (§6.2): fingerprint-vector entries with the paper's chaining
// technique. A bucket pair holds at most d copies of a fingerprint; further
// duplicates walk to ℓ̃ = h(min{ℓ,ℓ′}, κ) and so on (Algorithms 4 and 5),
// preserving no-false-negatives (Theorem 3).
#ifndef CCF_CCF_CHAINED_CCF_H_
#define CCF_CCF_CHAINED_CCF_H_

#include <memory>
#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "ccf/ccf_base.h"

namespace ccf {

/// \brief Fingerprint-vector CCF with duplicate-key chaining.
class ChainedCcf : public CcfBase {
 public:
  /// Builds the filter around `table`, whose geometry must be the one
  /// ConditionalCuckooFilter::Make derives from the validated `config`
  /// (Make allocates it; deserialization loads it).
  static std::unique_ptr<ConditionalCuckooFilter> Make(const CcfConfig& config,
                                                       BucketTable table);

  /// Inserts per Algorithm 4. Outcomes:
  ///  * OK — stored, or safely absorbed: when every chain pair up to Lmax is
  ///    full of κ copies the row is dropped but queries for it return true
  ///    regardless (Theorem 3's terminal case), counted in
  ///    num_overflow_rows().
  ///  * CapacityError — a cuckoo kick budget was exhausted; the row is NOT
  ///    represented and the caller must stop/resize (this is the "failed
  ///    insertion" event of Figure 4).
  Status Insert(uint64_t key, std::span<const uint64_t> attrs) override;

  /// CcfBase's two-wave bulk build with a chain cursor in wave 2: a run of
  /// consecutive deferred rows with the same (first-pair primary, fp) — the
  /// η label rows of one key in a range build — walks its chain once
  /// instead of once per row, and wave 1 skips the first-pair scan of a
  /// row whose first pair it has already found saturated and prefetches
  /// the chain hops that row will need. Bit-identical to per-row
  /// InsertAddressed.
  Status InsertBatch(std::span<const uint64_t> keys,
                     std::span<const uint64_t> attrs,
                     std::vector<uint64_t>* hash_memo = nullptr) override;

  bool ContainsKey(uint64_t key) const override;
  bool Contains(uint64_t key, const Predicate& pred) const override;
  bool ContainsAddressed(uint64_t bucket, uint32_t fp,
                         const Predicate& pred) const override;
  bool ContainsAddressedExcluding(
      uint64_t bucket, uint32_t fp, const Predicate& pred,
      std::span<const uint64_t> excluded) const override;
  bool ContainsKeyAddressedExcluding(
      uint64_t bucket, uint32_t fp,
      std::span<const uint64_t> excluded) const override;
  Result<std::unique_ptr<KeyFilter>> PredicateQuery(
      const Predicate& pred) const override;
  Result<std::unique_ptr<ConditionalCuckooFilter>> Clone() const override {
    auto copy = std::unique_ptr<ChainedCcf>(new ChainedCcf(*this));
    // The implicit copy leaves codec_ pointing at the SOURCE's hasher;
    // rebind so the clone stays valid after the source is epoch-freed.
    copy->codec_.RebindHasher(&copy->hasher_);
    return std::unique_ptr<ConditionalCuckooFilter>(std::move(copy));
  }
  CcfVariant variant() const override { return CcfVariant::kChained; }

  /// Rows absorbed by the chain-cap terminal case (always answered true).
  uint64_t num_overflow_rows() const { return num_overflow_rows_; }

  /// Longest chain walked by any insertion so far (diagnostics).
  int max_chain_seen() const { return max_chain_seen_; }

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
  ChainedCcf(CcfConfig config, BucketTable table);

  /// Hops 1.. of the saturated chains InsertBatch's wave 1 met in the
  /// current pipeline block, as its prefetch walk produced them. Wave 2's
  /// cursor takes its hop pairs from here instead of hashing them again:
  /// a chain walk is a pure function of (first-pair primary, fp), so the
  /// pairs never go stale.
  class ChainSeeds {
   public:
    // Out of line: the pipeline loop that calls them is flattened, and
    // their vector code inlined into it grew the distinct-key insert loop
    // by 13%.
    /// Starts the record of a chain wave 1 has just found saturated.
    [[gnu::noinline]] void Begin(uint64_t primary, uint32_t fp);
    /// Appends the next hop of the chain last passed to Begin.
    [[gnu::noinline]] void Append(const BucketPair& pair);
    /// Drops every chain but the last (the one wave 1 may still extend).
    [[gnu::noinline]] void NewBlock();
    /// The recorded hops of (primary, fp), or empty. Wave 2 meets chains
    /// in the order wave 1 recorded them, so the search starts at the
    /// previous match.
    std::span<const BucketPair> Find(uint64_t primary, uint32_t fp);

   private:
    struct Chain {
      uint64_t primary;
      uint32_t fp;
      size_t begin;  // into pairs_
      size_t count;
    };
    std::vector<Chain> chains_;
    std::vector<BucketPair> pairs_;
    size_t next_ = 0;
  };

  /// The hops of one chain — a (first-pair primary, fp) — walked so far,
  /// each with its fp-copy count and, on packed geometries, the payload
  /// words of those copies. Rows of the same chain check duplicates and
  /// saturation against it instead of rescanning the table, and extend the
  /// walk from the last cached hop instead of hop 0.
  ///
  /// Sound because a kick moves a resident only to the other bucket of its
  /// own pair (an fp's pairs partition the buckets), so a pair's fp-copy
  /// count and payload multiset change only when a row is placed INTO that
  /// pair — and InsertThroughCursor records every such placement. Any other
  /// writer makes the cursor stale, so it lives in one InsertBatch frame
  /// (or one scalar Insert) and resets before every wave-1 row (InsertBatch's
  /// wave-1 step) and after a failed placement.
  struct ChainCursor {
    struct Hop {
      BucketPair pair;
      uint64_t canonical;  // BucketPair::Canonical
      int count;           // fp copies in the pair
    };
    uint64_t primary = 0;
    uint32_t fp = 0;
    std::vector<Hop> hops;
    /// Hop h's copies: words[h * stride, h * stride + count), stride = the
    /// pair's slot count (packed geometries only).
    std::vector<uint64_t> words;
    /// Where hop 1 looks up already-walked pairs; null on the scalar path.
    ChainSeeds* seeds = nullptr;
    /// Hops 1..seed.size() of this chain, taken from `seeds` at hop 1.
    std::span<const BucketPair> seed;
    /// Positioned at hops.back() once the chain has walked past `seed`.
    std::optional<ChainWalk> walk;

    void Reset() {
      hops.clear();
      seed = {};
    }
  };

  /// TryInsertNoKick, also reporting why a row was deferred: *saturated is
  /// true when the pair holds >= max_dupes copies of fp (the row needs the
  /// chain walk), false when it merely lacks a free slot.
  bool TryInsertFirstPair(const BucketPair& pair, uint32_t fp,
                          std::span<const uint64_t> attrs, uint64_t payload,
                          bool* saturated);

  /// Algorithm 4 through `cursor`: the one chained insertion loop, behind
  /// both wave 2 of InsertBatch and the scalar InsertAddressed. `payload`
  /// is PackRowPayload(attrs) (ignored when slot_bits() > 64, where
  /// duplicates are matched per attribute). Kept out of line: the batch
  /// pipeline loop is flattened, and inlining this (with PlaceWithKicks)
  /// into it tripled the loop's code and slowed distinct-key builds.
  [[gnu::noinline]] Status InsertThroughCursor(
      const BucketPair& first_pair, uint32_t fp,
      std::span<const uint64_t> attrs, uint64_t payload, ChainCursor* cursor);

  /// Appends the cursor's next hop, read from the table.
  void ExtendCursor(const BucketPair& first_pair, ChainCursor* cursor) const;

  /// Algorithm 5's walk with a pluggable entry matcher (raw predicate or
  /// precompiled fingerprints), starting from the key's already-computed
  /// first pair. The first pair is resolved here; only a saturated one
  /// continues in WalkChainFrom, out of line, so batched probes that
  /// inline this keep the ChainWalk (and its inline visited buffer) out of
  /// their loop.
  template <typename EntryMatcher>
  bool WalkContains(const BucketPair& first_pair, uint32_t fp,
                    EntryMatcher&& matches) const {
    auto [count, matched] = ScanPairWithFp(first_pair, fp, matches);
    if (matched) return true;
    if (count != config_.max_dupes) return false;
    // Exactly d copies: the chain may continue at the next pair.
    return WalkChainFrom(first_pair, fp, matches);
  }

  /// The rest of WalkContains' walk: hops 1.. of a chain whose first pair
  /// is saturated with no match.
  template <typename EntryMatcher>
  [[gnu::noinline]] bool WalkChainFrom(const BucketPair& first_pair,
                                       uint32_t fp,
                                       EntryMatcher& matches) const {
    if (ChainCap() <= 1) return true;  // Algorithm 5's terminal case
    ChainWalk walk(&hasher_, table_->bucket_mask(), first_pair.primary, fp);
    for (int hop = 1; hop < ChainCap(); ++hop) {
      walk.Advance();
      auto [count, matched] = ScanPairWithFp(walk.pair(), fp, matches);
      if (matched) return true;
      if (count != config_.max_dupes) return false;
    }
    // Lmax pairs checked, all holding d copies: true regardless of
    // predicate (Algorithm 5's terminal case).
    return true;
  }

  AttrFingerprintCodec codec_;
  uint64_t num_overflow_rows_ = 0;
  int max_chain_seen_ = 0;
};

}  // namespace ccf

#endif  // CCF_CCF_CHAINED_CCF_H_
