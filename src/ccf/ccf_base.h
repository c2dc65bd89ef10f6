// Shared machinery for the four CCF variants: partial-key addressing over a
// BucketTable, the deterministic chain-of-bucket-pairs walk (§6.2), generic
// kick-based placement with rollback, and the marked derived key filter used
// by predicate-only queries.
#ifndef CCF_CCF_CCF_BASE_H_
#define CCF_CCF_CCF_BASE_H_

#include <algorithm>
#include <bit>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "ccf/ccf.h"
#include "cuckoo/bucket_table.h"
#include "hash/hasher.h"
#include "sketch/attr_fingerprint.h"
#include "util/batch_pipeline.h"
#include "util/random.h"

namespace ccf {

/// \brief A bucket pair {ℓ, ℓ′} with ℓ′ = ℓ ⊕ h(κ).
struct BucketPair {
  uint64_t primary;
  uint64_t alt;

  /// Canonical id (order-independent) for cycle detection.
  uint64_t Canonical(uint64_t num_buckets) const {
    uint64_t lo = primary < alt ? primary : alt;
    uint64_t hi = primary < alt ? alt : primary;
    return lo * num_buckets + hi;
  }
  bool degenerate() const { return primary == alt; }
};

/// \brief Deterministic walk over the chain of bucket pairs of a fingerprint
/// (Lemma 2's sequence), with cycle detection and extension.
///
/// Both insertion and query construct identical walks, so cycle-extension
/// rounds are consistent on both sides. A revisited pair advances a rehash
/// round mixed into the chain hash (§6.2: "such cycles can be detected and
/// the chain can be extended").
class ChainWalk {
 public:
  ChainWalk(const Hasher* hasher, uint64_t bucket_mask, uint64_t start_bucket,
            uint32_t fp);

  const BucketPair& pair() const { return pair_; }
  int hops() const { return hops_; }

  /// Restarts at hop 0 of another chain, reusing the visited buffer (the
  /// insert path's chain cursor walks many chains per batch).
  void Restart(uint64_t start_bucket, uint32_t fp);

  /// Moves to the next bucket pair: ℓ̃ = h(min{ℓ,ℓ′}, κ), skipping already
  /// visited pairs via rehash rounds (bounded; falls through after
  /// kMaxCycleRounds to guarantee termination).
  void Advance();

 private:
  static constexpr uint32_t kMaxCycleRounds = 8;

  BucketPair MakePair(uint64_t bucket) const;
  bool Visited(uint64_t canonical) const;
  void MarkVisited(uint64_t canonical);

  const Hasher* hasher_;
  uint64_t bucket_mask_;
  uint32_t fp_;
  BucketPair pair_;
  int hops_ = 0;
  // Canonical ids of the pairs walked so far (one per hop). A walk under
  // the default cap never holds more than kHardChainCap of them, so walks
  // keep them inline and never allocate; only a configured max_chain above
  // kHardChainCap spills the rest to the heap. Entries at and past
  // num_visited_ are unset (never read).
  int num_visited_ = 0;
  uint64_t visited_[kHardChainCap];
  std::vector<uint64_t> visited_spill_;
};

/// \brief Common state + helpers for CCF implementations.
///
/// Table ownership: the BucketTable lives behind a shared immutable
/// snapshot (`std::shared_ptr<BucketTable>`). Read paths bind the snapshot
/// once per query/batch; PredicateQuery-derived filters alias it instead of
/// copying multi-megabyte tables; and mutating entry points copy-on-write
/// when a snapshot is shared out (EnsureTableUnique), so outstanding
/// snapshots stay frozen. The filter OBJECT itself still follows the
/// single-writer/multi-reader contract; whole-object replacement under
/// live readers is ShardedCcf's epoch-swap layer.
class CcfBase : public ConditionalCuckooFilter {
 public:
  uint64_t SizeInBits() const override { return table_->SizeInBits(); }
  double LoadFactor() const override { return table_->LoadFactor(); }
  uint64_t num_entries() const override { return table_->num_occupied(); }
  uint64_t num_rows() const override { return num_rows_; }
  const CcfConfig& config() const override { return config_; }

  /// The effective chain cap: config.max_chain, or kHardChainCap when 0.
  int ChainCap() const {
    return config_.max_chain > 0 ? config_.max_chain : kHardChainCap;
  }

  const BucketTable& table() const { return *table_; }
  const Hasher& hasher() const { return hasher_; }

  /// The current immutable table snapshot. Sharing is cheap (refcount);
  /// writers transparently unshare before mutating, so the returned
  /// snapshot never changes underneath the caller.
  std::shared_ptr<const BucketTable> table_snapshot() const { return table_; }

  /// The geometry-independent memo words of one row (the two words per row
  /// of the InsertBatch hash memo): the salt-keyed key hash and the packed
  /// payload word. Lets containers (ShardedCcf's retained row log) memoize
  /// rows arriving through scalar Insert so later online resizes re-place
  /// them without re-hashing.
  void MemoizeRow(uint64_t key, std::span<const uint64_t> attrs,
                  uint64_t* key_hash, uint64_t* payload) const {
    *key_hash = hasher_.Hash(key, 0);
    *payload = PackRowPayload(attrs);
  }

  /// Resolves Contains for a pre-hashed key: `bucket` and `fp` must come
  /// from KeyAddress (equivalently cuckoo_addressing::IndexAndFingerprint
  /// with this filter's hasher/geometry) for some key k; then
  /// ContainsAddressed(bucket, fp, pred) == Contains(k, pred). This is the
  /// second-pass hook of the batched hot path, also used by ShardedCcf.
  virtual bool ContainsAddressed(uint64_t bucket, uint32_t fp,
                                 const Predicate& pred) const = 0;

  /// ContainsKey for a pre-hashed key (§7.1: identical for every variant —
  /// the first bucket pair always holds a copy of a present key):
  /// CountFpInPair > 0, stopping at the first occupied copy so a
  /// primary-bucket hit never reads the alt bucket.
  bool ContainsKeyAddressed(uint64_t bucket, uint32_t fp) const {
    return ScanPairWithFp(PairOf(bucket, fp), fp,
                          [](uint64_t, int) { return true; })
        .second;
  }

  /// ContainsAddressed with staged-erase exclusions (ShardedCcf's tombstone
  /// overlay): entries whose FULL payload word equals one of `excluded` are
  /// treated as non-matching, but still count toward chain saturation —
  /// they are physically present until commit reclaims them, so the walk
  /// topology is unchanged and unrelated keys keep their no-false-negative
  /// guarantee. `excluded` holds packed payload memo words of erased row
  /// classes of THE QUERIED KEY only (the caller matched them by exact key),
  /// so hiding an equal-word entry can only suppress rows the erase
  /// legitimately targets. Callers must pass an empty span when
  /// table().slot_bits() > 64 (no packed payload word exists there).
  virtual bool ContainsAddressedExcluding(
      uint64_t bucket, uint32_t fp, const Predicate& pred,
      std::span<const uint64_t> excluded) const = 0;

  /// Key-only twin of ContainsAddressedExcluding: at least one fp copy whose
  /// payload word is not excluded. Base = pair-local scan; the chained
  /// variant overrides with the full walk (a key whose surviving copies sit
  /// further down the chain must not vanish because its first-pair copies
  /// are all staged-erased).
  virtual bool ContainsKeyAddressedExcluding(
      uint64_t bucket, uint32_t fp, std::span<const uint64_t> excluded) const;

  /// Best-effort physical deletion of ONE entry of the row class identified
  /// by its geometry-independent memo words (MemoizeRow output: salt-keyed
  /// key hash + packed payload). Duplicate-count aware per variant: the
  /// chained variant only deletes from an unsaturated (terminal) pair so
  /// walk reachability and the §7.1 first-pair invariant survive; the Bloom
  /// variant only deletes an entry whose sketch word equals the row's
  /// (unfolded) word; Mixed skips converted fragments. Returns true when an
  /// entry was deleted; false leaves residue for compaction to reclaim
  /// (one-sided: residue can only cause false positives, never false
  /// negatives). No-op (false) when slot_bits() > 64.
  bool EraseRowMemoized(uint64_t key_hash, uint64_t payload);

  /// Overrides the logical row count. Class erases kill rows no variant
  /// hook can count — one entry may stand for several collapsed
  /// duplicates, and unreclaimable residue skips the hook entirely — so
  /// the sharded CRUD commit sets the count from its retained-log plan,
  /// which is exact.
  void SetNumRows(uint64_t n) { num_rows_ = n; }

  /// Batched lookup (see ConditionalCuckooFilter) on BatchResolve:
  /// resolves via ContainsAddressed, bit-identical to the scalar loop. The
  /// broadcast (single-predicate) shape additionally compiles the
  /// predicate's value fingerprints once for the whole batch.
  Status LookupBatch(std::span<const uint64_t> keys,
                     std::span<const Predicate> preds,
                     std::span<bool> out) const override;

  /// Key-only membership is CountFpInPair > 0 for every variant (§7.1), so
  /// the batched form lives here once.
  void ContainsKeyBatch(std::span<const uint64_t> keys,
                        std::span<bool> out) const override;

  /// The write-side twin of the batched lookup hot path, shared by all four
  /// variants: instantiates the library two-wave pipeline over the rows —
  /// hash a block (or re-mask `hash_memo` on a rebuild), radix-cluster by
  /// primary bucket, prefetch both buckets of each pair, then wave 1 runs
  /// the variant's displacement-free placement (TryInsertNoKick: dedupe +
  /// free-slot writes against cached lines) and wave 2 completes only the
  /// leftovers with the full scalar logic (InsertAddressed: kicks, chain
  /// walks, Bloom conversion). Deterministic: identical inputs (and memo
  /// state) yield bit-identical tables, which is what makes memoized
  /// doubling rebuilds reproducible against from-scratch ones. The chained
  /// variant overrides this to run the same pipeline with a per-call chain
  /// cursor in wave 2 (see InsertBatchWith).
  Status InsertBatch(std::span<const uint64_t> keys,
                     std::span<const uint64_t> attrs,
                     std::vector<uint64_t>* hash_memo = nullptr) override;

  std::string Serialize() const override;

 protected:
  CcfBase(CcfConfig config, BucketTable table);

  /// The batched probe pipeline behind every LookupBatch and
  /// ContainsKeyBatch, instantiating the library pipeline
  /// (util/batch_pipeline.h): the address pass computes each key's pair and
  /// fingerprint; the resolve loop prefetches the slot line(s) of both
  /// buckets of the pair a fixed distance ahead and resolves via
  /// `resolve(index, pair, fp)` — the exact scalar resolver, so answers are
  /// bit-identical to it. Nothing else is fetched: the occupancy bitmap is
  /// read only for fingerprint-0 candidates (see
  /// BucketTable::ForEachOccupiedMatch). The pair is handed through so
  /// resolvers that consume it directly skip the alt-bucket rehash.
  template <typename Resolver>
  void BatchResolve(std::span<const uint64_t> keys, std::span<bool> out,
                    Resolver&& resolve) const {
    struct Addr {
      uint64_t cluster_key;
      BucketPair pair;
      uint32_t fp;
    };
    // One snapshot bind for the whole batch: every prefetch and resolve of
    // this pipeline runs against the same immutable table.
    const BucketTable& table = *table_;
    BatchPipelineOptions options;
    // Probes resolve in input order: radix clustering measured slower here
    // (probe-dram geometry, key-only ~100 vs ~77 ns/key unclustered).
    options.radix_cluster = false;
    RunBatchPipeline<Addr>(
        keys.size(), options,
        [&](size_t i) {
          Addr a;
          uint64_t bucket;
          KeyAddress(keys[i], &bucket, &a.fp);
          a.pair = PairOf(bucket, a.fp);
          a.cluster_key = a.pair.primary;
          return a;
        },
        [&](const Addr& a) {
          table.PrefetchBucket(a.pair.primary);
          if (!a.pair.degenerate()) table.PrefetchBucket(a.pair.alt);
        },
        [&](size_t i, const Addr& a) { out[i] = resolve(i, a.pair, a.fp); });
  }

  /// The body of every CcfBase-derived InsertBatch: validation, the memo
  /// handshake and the two-wave pipeline, with both waves' steps supplied
  /// by the caller. `wave1(pair, fp, attrs, payload)` attempts one row
  /// with TryInsertNoKick's contract (true = settled, false = defer);
  /// `wave2(pair, fp, attrs, payload)` completes one deferred row and
  /// returns its Status. `payload` is the row's PackRowPayload word,
  /// possibly from the memo.
  ///
  /// Wave-2 state may outlive one deferred row (ChainedCcf keeps a chain
  /// cursor in its frame) because the pipeline runs a block's whole wave 1
  /// before its wave 2 and nothing between two wave-2 rows of a block: the
  /// only table writes a wave-2 row can meet since the previous wave-2 row
  /// are that row's own placement and kicks, or — across a block boundary
  /// — the next block's wave 1, which runs through `wave1`.
  ///
  /// The address pass hashes a key once per run of equal consecutive keys
  /// (a range build's η label rows): it runs in input order and the
  /// address is a pure function of the key, so the run's first address
  /// serves the rest.
  template <typename Wave1, typename Wave2>
  Status InsertBatchWith(std::span<const uint64_t> keys,
                         std::span<const uint64_t> attrs,
                         std::vector<uint64_t>* hash_memo, Wave1&& wave1,
                         Wave2&& wave2);

  /// The payload word wave 1 would store for this row — the packed
  /// attribute-fingerprint vector (Plain/Chained), the vector shifted past
  /// the mode/seq bits (Mixed), or the row's composed Bloom sketch word
  /// (Bloom). Depends only on attrs and the salt, never on table geometry,
  /// which is what lets doubling rebuilds reuse it from the hash memo.
  /// Must return 0 when the variant's packed path is unavailable
  /// (slot_bits() > 64); TryInsertNoKick then ignores it.
  virtual uint64_t PackRowPayload(std::span<const uint64_t> attrs) const = 0;

  /// Wave-1 hook of InsertBatch: attempt one row whose (pair, fp) address
  /// is precomputed and whose buckets are (likely) cache-resident, using
  /// only displacement-free operations — collapse a duplicate, fold into an
  /// existing entry, or write a free slot of the pair. `payload` is
  /// PackRowPayload(attrs), precomputed in the address pass (possibly from
  /// the rebuild memo). Returns true when the row is fully handled; false
  /// defers it to wave 2. Must not kick, walk chains, or convert (those
  /// touch un-prefetched lines and consume displacement randomness).
  virtual bool TryInsertNoKick(const BucketPair& pair, uint32_t fp,
                               std::span<const uint64_t> attrs,
                               uint64_t payload) = 0;

  /// Wave-2 hook of CcfBase::InsertBatch and the body of the scalar
  /// Insert: the variant's complete insertion logic from a precomputed
  /// address (Algorithm 3/4 placement with kicks / chain walk /
  /// conversion). The chained variant's own InsertBatch runs the same
  /// logic through its per-call chain cursor instead.
  virtual Status InsertAddressed(const BucketPair& pair, uint32_t fp,
                                 std::span<const uint64_t> attrs) = 0;

  /// Variant hook of EraseRowMemoized: delete one entry of the addressed
  /// row class if a duplicate-safe deletion exists (see EraseRowMemoized).
  /// The table is already unshared; callers guarantee slot_bits() <= 64.
  virtual bool EraseRowAddressed(const BucketPair& pair, uint32_t fp,
                                 uint64_t payload) = 0;

  /// An entry's full payload word — what the packed wave-1 paths store and
  /// what the memo's payload word equals for every variant (vector packs,
  /// Mixed's mode/seq-zero unconverted word, Bloom's sketch word). Only
  /// meaningful when slot_bits() <= 64.
  uint64_t EntryPayloadWord(uint64_t b, int s) const {
    return table_->GetPayloadField(b, s, 0, table_->payload_bits());
  }

  /// True when `word` is one of the staged-erased payload words.
  static bool PayloadExcluded(uint64_t word,
                              std::span<const uint64_t> excluded) {
    return std::find(excluded.begin(), excluded.end(), word) !=
           excluded.end();
  }

  /// Broadcast-shape hook of LookupBatch: one predicate, every key. The
  /// default resolves through ContainsAddressed; fingerprint-vector
  /// variants override it to match against a once-compiled predicate.
  virtual void LookupBatchBroadcast(std::span<const uint64_t> keys,
                                    const Predicate& pred,
                                    std::span<bool> out) const;

  /// Variant-specific serialized state (counters etc.). Defaults to none.
  virtual void SaveExtras(ByteWriter* writer) const { (void)writer; }
  virtual Status LoadExtras(ByteReader* reader) {
    (void)reader;
    return Status::OK();
  }

  /// ConditionalCuckooFilter::Deserialize's body: builds the filter around
  /// the loaded table and restores its counters. With `alias` non-null the
  /// table aliases the reader's buffer (zero-copy).
  friend Result<std::unique_ptr<ConditionalCuckooFilter>>
  DeserializeCcfImpl(std::string_view data, const AliasMapping* alias);

  /// A slot's full logical contents held "in hand" during displacement.
  struct RawEntry {
    uint32_t fp = 0;
    std::vector<uint64_t> payload_words;
  };

  /// Computes (primary bucket, key fingerprint) for a key.
  void KeyAddress(uint64_t key, uint64_t* bucket, uint32_t* fp) const;

  /// The pair of a (bucket, fp).
  BucketPair PairOf(uint64_t bucket, uint32_t fp) const;

  /// Occupied slots in the pair with the given fingerprint, as
  /// (bucket, slot); degenerate pairs are scanned once.
  std::vector<std::pair<uint64_t, int>> SlotsWithFp(const BucketPair& pair,
                                                    uint32_t fp) const;

  int CountFpInPair(const BucketPair& pair, uint32_t fp) const;

  /// Allocation-free pair scan for the query hot path: calls
  /// `matches(bucket, slot)` on every occupied slot of the pair holding
  /// `fp`, short-circuiting on the first true. Returns {copies seen so
  /// far, matched}; when matched is false the count covers the whole pair
  /// (the chained variant's saturation test). Unlike SlotsWithFp this
  /// never touches the heap — per-query allocations would dominate the
  /// batched path's prefetch win.
  template <typename EntryMatcher>
  std::pair<int, bool> ScanPairWithFp(const BucketPair& pair, uint32_t fp,
                                      EntryMatcher&& matches) const {
    auto [count, matched] = ScanBucketWithFp(pair.primary, fp, matches);
    if (matched) return {count, true};
    if (!pair.degenerate()) {
      auto [alt_count, alt_matched] = ScanBucketWithFp(pair.alt, fp, matches);
      count += alt_count;
      if (alt_matched) return {count, true};
    }
    return {count, false};
  }

  /// One bucket of ScanPairWithFp: {copies counted, matched}, matched
  /// short-circuiting the count as there. The walk itself is
  /// BucketTable::ForEachOccupiedMatch — fingerprint-first over one wide
  /// MatchMask compare, ascending slot order, occupancy confirmed on hits
  /// only — shared with every other fp scan in the library.
  template <typename EntryMatcher>
  std::pair<int, bool> ScanBucketWithFp(uint64_t b, uint32_t fp,
                                        EntryMatcher&& matches) const {
    int count = 0;
    bool matched = table_->ForEachOccupiedMatch(b, fp, [&](int s) {
      ++count;
      return matches(b, s);
    });
    return {count, matched};
  }

  /// First free slot in the pair (primary preferred); slot == -1 if full.
  std::pair<uint64_t, int> FreeSlotInPair(const BucketPair& pair) const;

  RawEntry ReadRaw(uint64_t bucket, int slot) const;
  void WriteRaw(uint64_t bucket, int slot, const RawEntry& entry);

  /// Generic cuckoo placement with kicks and rollback.
  ///
  /// Places `fp` into a slot of `pair`, displacing residents as needed: the
  /// classic homeless-entry chain where each displaced resident relocates to
  /// the other bucket of ITS pair (so Lemma 1's ≤d invariant is preserved by
  /// construction). On success, `payload_writer(bucket, slot)` runs once for
  /// the new entry's final slot. On failure (kick budget exhausted or every
  /// victim pinned by `can_evict`), all displacements are rolled back and
  /// the table is exactly as before the call.
  template <typename PayloadWriter, typename CanEvict>
  bool PlaceWithKicks(const BucketPair& pair, uint32_t fp,
                      PayloadWriter&& payload_writer, CanEvict&& can_evict);

  /// PlaceWithKicks with every resident evictable.
  template <typename PayloadWriter>
  bool PlaceWithKicks(const BucketPair& pair, uint32_t fp,
                      PayloadWriter&& payload_writer) {
    return PlaceWithKicks(pair, fp, std::forward<PayloadWriter>(payload_writer),
                          [](uint64_t, int) { return true; });
  }

  /// Copy-on-write gate of every mutating entry point: if the current table
  /// snapshot is shared out (a derived MarkedKeyFilter or an external
  /// table_snapshot() holder aliases it), clone it first so the outstanding
  /// snapshot stays immutable. One refcount load when unshared.
  void EnsureTableUnique() {
    if (table_.use_count() > 1) {
      table_ = std::make_shared<BucketTable>(*table_);
    }
  }

  /// Packed-compare scalar Insert fast path: reuses the variant's
  /// displacement-free wave-1 placement (single-word dupe compare + PutSlot
  /// free-slot store) for row-at-a-time writers. Gated off by
  /// config.reproducible_scalar (the default), under which every scalar row
  /// runs the full InsertAddressed, so `ccf_joblight --build scalar`
  /// outputs stay bit-identical unless a caller opts in. Returns true when
  /// the row was fully handled.
  bool ScalarInsertFast(const BucketPair& pair, uint32_t fp,
                        std::span<const uint64_t> attrs) {
    if (config_.reproducible_scalar) return false;
    return TryInsertNoKick(pair, fp, attrs, PackRowPayload(attrs));
  }

  CcfConfig config_;
  /// The shared immutable table snapshot (never null). Mutating paths go
  /// through EnsureTableUnique() first; read paths may bind `*table_` once
  /// per query/batch.
  std::shared_ptr<BucketTable> table_;
  Hasher hasher_;
  Rng rng_;
  uint64_t num_rows_ = 0;
};

template <typename PayloadWriter, typename CanEvict>
bool CcfBase::PlaceWithKicks(const BucketPair& pair, uint32_t fp,
                             PayloadWriter&& payload_writer,
                             CanEvict&& can_evict) {
  auto [free_bucket, free_slot] = FreeSlotInPair(pair);
  if (free_slot >= 0) {
    table_->Put(free_bucket, free_slot, fp);
    payload_writer(free_bucket, free_slot);
    return true;
  }

  // Both buckets full: displacement chain. trail[i] is the slot whose
  // original resident became homeless at step i; trail[0] receives the new
  // entry. On failure the chain is unwound in reverse, restoring the
  // original state bit-for-bit.
  std::vector<std::pair<uint64_t, int>> trail;
  std::vector<RawEntry> displaced;  // [i] = original resident of trail[i]
  uint64_t cur = pair.degenerate() || rng_.NextBool(0.5) ? pair.primary
                                                         : pair.alt;
  bool success = false;
  for (int kick = 0; kick < config_.max_kicks; ++kick) {
    // Choose an evictable victim in `cur`, starting at a random slot.
    int b = table_->slots_per_bucket();
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
      if (!on_trail && table_->occupied(cur, s) && can_evict(cur, s)) {
        victim = s;
        break;
      }
    }
    if (victim < 0) {
      // Dead end: every resident of `cur` is pinned or already on the
      // trail. Nothing has moved yet, so restarting the walk from the
      // target pair is free — and necessary: duplicate-heavy rows (η
      // dyadic labels per key) clump same-fp entries whose alt buckets
      // point back along the trail, dead-ending a self-avoiding walk long
      // before the kick budget is spent. A fresh trail draws different
      // victims from the rng and escapes; only a genuinely saturated
      // neighbourhood burns the whole budget.
      if (trail.empty()) break;  // the target pair itself is pinned solid
      trail.clear();
      displaced.clear();
      cur = pair.degenerate() || rng_.NextBool(0.5) ? pair.primary
                                                    : pair.alt;
      continue;
    }

    trail.emplace_back(cur, victim);
    displaced.push_back(ReadRaw(cur, victim));
    const RawEntry& homeless = displaced.back();

    // The displaced resident relocates to the other bucket of its own pair.
    uint64_t mate = cuckoo_addressing::AltBucket(hasher_, cur, homeless.fp,
                                                 table_->bucket_mask());
    int dest = table_->FirstFreeSlot(mate);
    if (dest >= 0) {
      table_->Erase(cur, victim);
      WriteRaw(mate, dest, homeless);
      success = true;
      break;
    }
    cur = mate;  // mate full: displace one of its residents next round
  }

  if (!success) {
    // Nothing was moved yet (moves only happen on the success step), so the
    // table is untouched; just report failure.
    return false;
  }

  // A slot at trail.back() is now free. Shift each displaced resident one
  // step down the chain: resident of trail[i] moves into trail[i+1]'s slot
  // (which is its own pair's bucket by construction of the walk), freeing
  // trail[0] for the new entry.
  for (size_t i = trail.size(); i-- > 1;) {
    const auto& [tb, ts] = trail[i];
    table_->Erase(tb, ts);
    WriteRaw(tb, ts, displaced[i - 1]);
  }
  const auto& [nb, ns] = trail[0];
  table_->Erase(nb, ns);
  table_->Put(nb, ns, fp);
  payload_writer(nb, ns);
  return true;
}

template <typename Wave1, typename Wave2>
Status CcfBase::InsertBatchWith(std::span<const uint64_t> keys,
                                std::span<const uint64_t> attrs,
                                std::vector<uint64_t>* hash_memo,
                                Wave1&& wave1, Wave2&& wave2) {
  const size_t num_attrs = static_cast<size_t>(config_.num_attrs);
  if (attrs.size() != keys.size() * num_attrs) {
    return Status::Invalid(
        "InsertBatch: attrs must hold keys.size() * num_attrs values");
  }
  if (hash_memo != nullptr && !hash_memo->empty() &&
      hash_memo->size() != 2 * keys.size()) {
    return Status::Invalid(
        "InsertBatch: hash_memo must be empty or hold two words per key");
  }
  const bool reuse_memo = hash_memo != nullptr && !hash_memo->empty();
  const bool fill_memo = hash_memo != nullptr && !reuse_memo;
  if (fill_memo) hash_memo->resize(2 * keys.size());
  EnsureTableUnique();
  BucketTable& table = *table_;

  struct Addr {
    uint64_t cluster_key;
    BucketPair pair;
    uint64_t payload;
    uint32_t fp;
  };
  BatchPipelineOptions options;
  options.cluster_bits = std::bit_width(table.bucket_mask());
  options.block_size = kInsertBatchBlock;
  const bool prefetch = InsertPrefetches(table.SizeInBits());
  Status first_error = Status::OK();
  // The previous row's key hash and address: the run cache of the address
  // pass (valid once i > 0).
  uint64_t run_hash = 0;
  BucketPair run_pair{};
  uint32_t run_fp = 0;
  RunBatchPipelineTwoWave<Addr>(
      keys.size(), options,
      [&](size_t i) {
        Addr a;
        // The memo caches the geometry-independent half of the row's hash
        // pipeline: the salt-keyed key hash (bucket = low bits & mask and
        // fingerprint = high bits are pure re-maskings, so it survives any
        // bucket doubling under the same salt) and the packed payload word
        // (attribute fingerprints / sketch bits, which never depend on the
        // bucket count at all).
        uint64_t h, payload;
        if (reuse_memo) {
          h = (*hash_memo)[2 * i];
          payload = (*hash_memo)[2 * i + 1];
        } else {
          const bool same_key = i > 0 && keys[i] == keys[i - 1];
          h = same_key ? run_hash : hasher_.Hash(keys[i], 0);
          payload = PackRowPayload(attrs.subspan(i * num_attrs, num_attrs));
        }
        if (fill_memo) {
          (*hash_memo)[2 * i] = h;
          (*hash_memo)[2 * i + 1] = payload;
        }
        if (i == 0 || h != run_hash) {
          uint64_t bucket;
          cuckoo_addressing::IndexAndFingerprintFromHash(
              h, table.bucket_mask(), config_.key_fp_bits, &bucket, &run_fp);
          run_pair = PairOf(bucket, run_fp);
          run_hash = h;
        }
        a.pair = run_pair;
        a.fp = run_fp;
        a.payload = payload;
        a.cluster_key = a.pair.primary;
        return a;
      },
      [&](const Addr& a) {
        // Nearly every row both scans and stores to its pair: fetch the
        // slot lines and the occupancy line of both buckets.
        if (!prefetch) return;
        table.PrefetchBucketForInsert(a.pair.primary);
        if (!a.pair.degenerate()) table.PrefetchBucketForInsert(a.pair.alt);
      },
      [&](size_t i, Addr& a) {
        if (!first_error.ok()) return true;  // drain the batch cheaply
        return wave1(a.pair, a.fp, attrs.subspan(i * num_attrs, num_attrs),
                     a.payload);
      },
      // No wave-2 prefetch: wave 1 has just fetched the deferred row's pair
      // (kick chains then wander to buckets nobody can predict).
      [](const Addr&) {},
      [&](size_t i, const Addr& a) {
        if (!first_error.ok()) return;
        Status st = wave2(a.pair, a.fp,
                          attrs.subspan(i * num_attrs, num_attrs), a.payload);
        if (!st.ok()) first_error = std::move(st);
      });
  return first_error;
}

/// \brief Derived key filter produced by predicate-only queries on
/// fingerprint-vector variants (Plain/Chained/Mixed).
///
/// Holds a SHARED immutable snapshot of the CCF's table (no copy — the
/// source filter copy-on-writes if it is later mutated, and the snapshot
/// outlives the source even if an epoch swap retires the filter object)
/// plus one mark bit per slot; marked entries did not match the predicate
/// but must remain so chains stay walkable (§6.2's "additional bit to mark
/// the entry as non-matching").
class MarkedKeyFilter : public KeyFilter {
 public:
  /// \param chain_on_full_pair  true for the chained variant (a pair holding
  ///        max_dupes copies may continue elsewhere); false for pair-local
  ///        variants (Plain/Mixed).
  MarkedKeyFilter(std::shared_ptr<const BucketTable> table, BitVector marks,
                  Hasher hasher, int max_dupes, int chain_cap,
                  bool chain_on_full_pair);

  bool Contains(uint64_t key) const override;
  void ContainsBatch(std::span<const uint64_t> keys,
                     std::span<bool> out) const override;
  /// Reported as a standalone sketch (table + marks), matching the paper's
  /// space accounting, even though the table bits are physically shared
  /// with the source filter.
  uint64_t SizeInBits() const override {
    return table_->SizeInBits() + marks_.size();
  }

 private:
  bool ContainsAddressed(const BucketPair& first_pair, uint32_t fp) const;

  std::shared_ptr<const BucketTable> table_;
  BitVector marks_;
  Hasher hasher_;
  int max_dupes_;
  int chain_cap_;
  bool chain_on_full_pair_;
};

/// \brief KeyFilter adapter over a plain CuckooFilter (Algorithm 2's output
/// for the Bloom variant).
class CuckooKeyFilter : public KeyFilter {
 public:
  explicit CuckooKeyFilter(CuckooFilter filter) : filter_(std::move(filter)) {}
  bool Contains(uint64_t key) const override { return filter_.Contains(key); }
  void ContainsBatch(std::span<const uint64_t> keys,
                     std::span<bool> out) const override {
    filter_.ContainsBatch(keys, out);
  }
  uint64_t SizeInBits() const override { return filter_.SizeInBits(); }
  const CuckooFilter& filter() const { return filter_; }

 private:
  CuckooFilter filter_;
};

}  // namespace ccf

#endif  // CCF_CCF_CCF_BASE_H_
