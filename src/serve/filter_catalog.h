// The filter-fleet serving tier: a concurrent catalog of precomputed
// filters (the paper's deployment model, §2 — "our work allows such
// filters to be precomputed and stored") keyed by filter id, serving a
// hot/cold-skewed fleet of thousands of per-table × per-predicate-family
// sketches instead of the single filter everything below this layer
// assumes.
//
// Three mechanisms make the fleet cheap:
//
//   * Zero-copy opens of large files. A file-backed blob at or above
//     FilterCatalog::kCopyLoadBytes is promoted by mmap'ing it and alias-
//     deserializing it (the loaded BucketTable's bit arrays point INTO the
//     read-only mapping), so opening a 100 MB filter costs a page-table
//     setup, not a copy, and untouched pages cost no RSS. Mutations
//     copy-on-write at the BitVector layer; the mapping is never written
//     through. A smaller blob is read and copy-deserialized instead: for
//     it, the two mmaps, the madvise and the munmap at eviction cost more
//     than the copy.
//
//   * Hot/cold tiering. Memory-backed entries demote to a zero-run
//     compressed blob (ccf/compress.h) under a configurable hot budget;
//     a second-chance clock picks eviction victims, promote-on-access
//     decompresses back. Every transition is epoch-published, so lookups
//     on hot entries never block on a concurrent promotion or eviction —
//     a reader pinned to a just-evicted filter keeps probing it safely
//     until it unpins.
//
//   * Cross-request batch aggregation. A CatalogBatcher coalesces
//     concurrent callers' probes of the same filter into one batched
//     LookupBatch pass (which radix-clusters and prefetches internally),
//     recovering batch-pipeline throughput that per-request batch sizes
//     alone cannot reach. Handoff is a bounded SPSC ring with an inline
//     fallback, so an uncontended caller pays (almost) nothing.
#ifndef CCF_SERVE_FILTER_CATALOG_H_
#define CCF_SERVE_FILTER_CATALOG_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "ccf/ccf.h"
#include "util/epoch.h"
#include "util/file_io.h"
#include "util/result.h"
#include "util/spsc_ring.h"

namespace ccf {

struct CatalogOptions {
  /// Hot-tier budget in bytes of resident (decompressed) filter storage.
  /// When a promotion pushes the total above it, the clock evicts until
  /// back under. 0 (the default) disables eviction. Accounting is by
  /// logical filter size (SizeInBits / 8); alias-mode entries are counted
  /// the same even though their residency is page-cache-backed.
  size_t hot_budget_bytes = 0;
  /// Run the cross-request batcher worker. Off, BatchedLookup degrades to
  /// the inline path (still correct, no aggregation).
  bool enable_batcher = true;
  /// Capacity of the batcher's request ring; a full ring falls back to
  /// inline resolution, so this bounds queueing, never blocks.
  size_t batcher_ring_capacity = 1024;
  /// How long the batcher lingers after draining the ring, waiting for
  /// more concurrent requests to aggregate before it resolves the batch.
  /// 0 (the default) resolves immediately: the ring's natural backlog
  /// while the worker drains a group already forms batches under
  /// contention, and measured on contended Zipf fleets no-wait coalesces
  /// MORE requests than lingering (the linger loop steals cycles the
  /// callers need to produce the next requests). Set to tens of
  /// microseconds only to force wider groups on trickle traffic, at an
  /// added-latency cost.
  int batcher_wait_us = 0;
};

/// Monotonic catalog counters (relaxed reads; consistent enough for tests
/// and benchmarks, not a synchronization point).
struct CatalogStats {
  uint64_t promotions = 0;
  uint64_t evictions = 0;
  /// Promotions that mapped their file (blobs of at least kCopyLoadBytes).
  uint64_t alias_loads = 0;
  uint64_t batched_requests = 0;
  uint64_t inline_requests = 0;
  size_t hot_bytes = 0;
};

/// \brief A concurrent id → filter catalog with zero-copy opens, hot/cold
/// tiering under a byte budget, and cross-request batch aggregation.
///
/// Thread safety: all public methods are safe to call concurrently.
/// Entries are never removed (the id set is monotonic), which is what
/// lets lookups hold bare Entry pointers across the map lock.
///
/// An unwritten file-backed entry's eviction just drops its hot filter,
/// and re-promotion reloads the FILE. The first successful InsertBatch
/// turns a file-backed entry into a memory-backed one, and memory-backed
/// entries re-compress their CURRENT state on eviction — rows still
/// staged in a sharded entry's write buffer are committed first (an entry
/// whose commit fails stays hot) — so every acknowledged write survives
/// tier transitions. The file itself is never written.
class FilterCatalog {
 public:
  /// File-backed blobs below this size promote by ReadFileBytes plus a
  /// copy-mode Deserialize; larger ones by MmapFileBytes plus an alias
  /// load. A fixed cut, not an option, set from perf_catalog's
  /// BM_CatalogPromote row (promote + first 512-key probe + eviction, 2
  /// callers, p50) with the catalog forced onto each path in turn, on a
  /// 4-core VM: copy 44-54 vs mmap 75-82 us at a 22 KB blob, 66-75 vs
  /// 81-83 us at 87 KB, even at 174 KB (78-85 vs 76-82 us, but a p99 of
  /// 200-206 vs 154-167 us), and 238-240 vs 102-122 us at 696 KB; a
  /// later round on the then slower host kept the crossover between 87
  /// and 174 KB. Far below the 2 MiB at which a copy-loaded BitVector
  /// would itself be mmap-backed.
  static constexpr uint64_t kCopyLoadBytes = uint64_t{128} << 10;

  explicit FilterCatalog(CatalogOptions options = {});
  ~FilterCatalog();

  FilterCatalog(const FilterCatalog&) = delete;
  FilterCatalog& operator=(const FilterCatalog&) = delete;

  /// Registers a file-backed entry (cold; first access loads it, see
  /// kCopyLoadBytes). The file must outlive the catalog. Invalid on a
  /// duplicate id; the path is not touched until first access.
  Status AddFile(const std::string& id, const std::string& path);

  /// Registers an in-memory filter (hot immediately; evicts to a
  /// compressed blob under budget pressure).
  Status AddFilter(const std::string& id,
                   std::unique_ptr<ConditionalCuckooFilter> filter);

  /// Batched predicate lookup against entry `id`, promote-on-access:
  /// out[i] = Contains(keys[i], pred). Resolves inline on the calling
  /// thread.
  Status LookupBatch(const std::string& id, std::span<const uint64_t> keys,
                     const Predicate& pred, std::span<bool> out);

  /// Batched key-only membership against entry `id`, promote-on-access.
  Status ContainsKeyBatch(const std::string& id,
                          std::span<const uint64_t> keys,
                          std::span<bool> out);

  /// Batched RANGE lookup against entry `id`, which must be (or load as) a
  /// RangeCcf: out[i] = ContainsInRange(keys[i], lo, hi, other). The
  /// dyadic cover is compiled once for the batch and broadcast through the
  /// entry's batch pipeline — bit-identical to the scalar loop, epoch-
  /// protected like LookupBatch, staged live-written rows visible.
  /// Invalid when the entry is not a range filter.
  Status LookupRangeBatch(const std::string& id,
                          std::span<const uint64_t> keys, uint64_t lo,
                          uint64_t hi, const Predicate& other,
                          std::span<bool> out);

  /// LookupBatch through the cross-request batcher: concurrent callers
  /// probing the same filter are coalesced into one batch-pipeline pass
  /// and each receives its own slice of the results — byte-identical to
  /// the inline path. Blocks the caller until its slice is ready. With
  /// the batcher off, uncontended, or the ring full, resolves inline.
  /// `pred` may be null for key-only membership.
  Status BatchedLookup(const std::string& id, std::span<const uint64_t> keys,
                       const Predicate* pred, std::span<bool> out);

  /// Applies a row batch to entry `id` without blocking its readers.
  /// Sharded entries stage through their write-buffer overlay (pair with
  /// ShardedCcfOptions autocommit for bursty writers); plain variants
  /// insert into a copy-on-write clone and epoch-publish it. Alias-loaded
  /// tables are unshared before the first write — the backing mapping is
  /// never touched. Success makes a file-backed entry memory-backed, so
  /// the write survives eviction.
  Status InsertBatch(const std::string& id, std::span<const uint64_t> keys,
                     std::span<const uint64_t> attrs);

  /// Forces entry `id` cold (testing / administrative). Fails if the
  /// entry is mid-promotion; lookups pinned to the old snapshot finish
  /// unharmed.
  Status Evict(const std::string& id);

  size_t num_entries() const;
  size_t hot_bytes() const {
    return hot_bytes_.load(std::memory_order_relaxed);
  }
  CatalogStats stats() const;

 private:
  struct Entry {
    Entry(std::string id_in, EpochDomain* domain)
        : id(std::move(id_in)), live(domain, nullptr) {}
    const std::string id;
    /// Serializes tier transitions (promotion, eviction, mutation) of
    /// this entry. Lookups never take it while the entry is hot.
    std::mutex mu;
    /// The hot filter, or null while cold. Readers Load under an epoch
    /// pin; transitions Publish under `mu`.
    TableHandle<ConditionalCuckooFilter> live;
    /// Non-empty => file-backed: promotion loads the path. Cleared by the
    /// first successful write (guarded by mu).
    std::string path;
    /// Compressed at-rest form of a memory-backed entry (guarded by mu;
    /// meaningful while cold or as the demotion target).
    std::string cold_blob;
    /// Accounted bytes while hot (guarded by mu / the eviction lock).
    size_t hot_bytes = 0;
    /// Second-chance bit: set on access, cleared by a passing clock hand.
    std::atomic<uint32_t> referenced{0};
  };

  /// A caller's parked request while the batcher owns it. Lives on the
  /// caller's stack; `state` flips 0 → 1 exactly once, after which the
  /// batcher never touches the request again.
  struct BatchRequest {
    Entry* entry = nullptr;
    std::span<const uint64_t> keys;
    const Predicate* pred = nullptr;  // null = key-only
    bool* out = nullptr;
    Status status;
    std::atomic<int> state{0};
  };

  Entry* FindEntry(const std::string& id) const;
  Result<Entry*> AddEntry(const std::string& id);

  /// Loads the entry's filter into the hot tier and epoch-publishes it;
  /// caller holds e.mu. Returns the published filter (valid under the
  /// caller's epoch pin, or under e.mu).
  Result<const ConditionalCuckooFilter*> PromoteLocked(Entry& e);
  /// Double-checked promotion: returns the hot filter, promoting first if
  /// cold. `guard` must be the caller's live epoch pin and must span the
  /// use of the result.
  Result<const ConditionalCuckooFilter*> HotFilter(
      Entry& e, const EpochDomain::Guard& guard, bool* promoted);
  /// Demotion prep; caller holds e.mu. Flushes a memory-backed sharded
  /// filter's staged rows into its published tables (Serialize captures
  /// committed state only, so demoting without a flush would drop them)
  /// and reconciles hot-byte accounting with any background growth
  /// (autocommits, watermark resizes) since the entry was last accounted.
  /// On failure the entry must stay hot — its staged rows are still only
  /// in the overlay.
  Status PrepareDemotionLocked(Entry& e, ConditionalCuckooFilter* cur);
  /// Makes hot entry `e` cold; caller holds e.mu and `cur` is its hot
  /// filter. A memory-backed entry re-encodes `cur` as its cold blob. On
  /// a PrepareDemotionLocked failure the entry stays hot.
  Status DemoteLocked(Entry& e, ConditionalCuckooFilter* cur);
  /// Clock eviction until hot_bytes_ is back under the budget.
  void EnforceBudget();

  /// The inline resolution path shared by LookupBatch/ContainsKeyBatch
  /// and the batcher's fallback.
  Status ResolveInline(Entry& e, std::span<const uint64_t> keys,
                       const Predicate* pred, bool* out);

  /// Batcher worker: drain ring → group by entry and predicate → one
  /// LookupBatch per group → scatter per-caller slices → wake callers.
  void BatcherLoop();
  void ExecuteBatch(std::vector<BatchRequest*>& batch);

  CatalogOptions options_;
  mutable EpochDomain domain_;

  mutable std::shared_mutex map_mu_;
  std::unordered_map<std::string, std::unique_ptr<Entry>> entries_;

  /// Clock state: registration-ordered entry list + hand position.
  std::mutex evict_mu_;
  std::vector<Entry*> clock_;  // guarded by evict_mu_
  size_t clock_hand_ = 0;      // guarded by evict_mu_

  std::atomic<size_t> hot_bytes_{0};
  std::atomic<uint64_t> num_promotions_{0};
  std::atomic<uint64_t> num_evictions_{0};
  std::atomic<uint64_t> num_alias_loads_{0};
  std::atomic<uint64_t> num_batched_{0};
  std::atomic<uint64_t> num_inline_{0};

  // --- Batcher -------------------------------------------------------------
  std::mutex producer_mu_;  // folds many callers into the SPSC contract
  std::unique_ptr<SpscRing<BatchRequest*>> ring_;
  /// Incremented per push; the worker sleeps on it when the ring drains.
  std::atomic<uint64_t> doorbell_{0};
  /// Callers currently inside BatchedLookup: the uncontended (== 1) case
  /// skips the ring entirely.
  std::atomic<int> active_callers_{0};
  std::atomic<bool> stop_{false};
  std::thread batcher_;
};

}  // namespace ccf

#endif  // CCF_SERVE_FILTER_CATALOG_H_
