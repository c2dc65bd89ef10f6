// The ONE software-pipelined batch skeleton behind every batched path in
// the library, reads AND writes (CcfBase::BatchResolve / InsertBatch,
// ShardedCcf's ShardedTwoPass, and the
// CuckooFilter / BloomFilter / MarkedKeyFilter ContainsBatch loops all
// instantiate this — no call site hand-rolls hash+prefetch+resolve any
// more, so block size, prefetch policy, and pipeline depth cannot
// diverge).
//
// Per block of kBatchPipelineBlock items:
//   1. address pass  — compute each item's probe address (hashing);
//   2. radix cluster (optional, BatchPipelineOptions::radix_cluster) —
//      counting-sort the block's indices by the high bits of each
//      address's cluster key, so resolution visits the table in ascending
//      address ranges. Results are written to out[original index], so
//      output is bit-identical to the unclustered order (tested). The
//      insert paths and the CuckooFilter / BloomFilter / MarkedKeyFilter /
//      ShardedCcf probe batches cluster. For chained builds on and off
//      measured within noise of each other beyond L3, inside L2 and on a
//      range build (see kInsertBatchBlock; placement order depends on it).
//      CcfBase's probe batches (LookupBatch, ContainsKeyBatch) do not
//      cluster: there it measured slower on perfbench probe-dram (see
//      CcfBase::BatchResolve);
//   3. resolve loop  — an N-way interleaved software pipeline (below).
//
// The resolve loop is SOFTWARE-PIPELINED three deep: in one iteration it
// (a) prefetches the buckets of the next N-item group (the "k+1" stage),
// (b) computes a proportional strip of the NEXT block's address pass (the
// "k+2" stage — hashing is pure ALU work that overlaps the current
// group's outstanding line fills instead of serializing after them), and
// (c) resolves the current N-item group ("k"). N (`pipeline way`) is
// tunable at compile time via CCF_PIPELINE_WAY (default 4) and sweepable
// at runtime for tests (SetBatchPipelineWay / per-call pipeline_way); a
// scalar epilogue handles the trailing partial group, so results are
// bit-identical for every N (tested: N=1 == N=4 == N=8). The next block's
// addresses land in a second scratch buffer (double buffering), and its
// radix cluster runs after the current block fully resolves — the address
// callback must therefore be pure with respect to table state, which
// every call site's is (it only hashes the input keys).
//
// The two-wave flavour defers an item's SECOND memory target (a cuckoo
// pair's alt bucket) until its first target has proven insufficient: wave
// 1 prefetches and scans only the primary bucket; items it cannot settle
// prefetch their alt bucket on the spot and finish in wave 2 after the
// rest of the block's wave 1 has given those prefetches time to land.
// Keys answered by their primary bucket (the common present-key case)
// never touch — or even fetch — the alt line, cutting DRAM traffic on the
// dominant cost axis of out-of-cache batches. Wave 1 carries the same
// N-way interleave and next-block hash overlap as the single-wave loop.
//
// Bulk insertion re-purposes the same two waves: wave 1 is the
// displacement-free placement pass (dedupe + free-slot writes against
// prefetched pairs), wave 2 runs the kick / chain-walk logic for the
// leftovers only (see CcfBase::InsertBatch and CuckooFilter::InsertBatch).
#ifndef CCF_UTIL_BATCH_PIPELINE_H_
#define CCF_UTIL_BATCH_PIPELINE_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>

namespace ccf {

/// Block size of the two-pass batch loop: small enough that the address
/// scratch and the block's prefetched lines stay inside L2, large enough
/// that the radix bins of clustered callers are populated.
inline constexpr size_t kBatchPipelineBlock = 2048;

/// Pipeline block size of the batched INSERT paths (CcfBase::InsertBatch,
/// CuckooFilter::InsertBatch). Sized so that the lines a block prefetches
/// at its start still sit in L2 when its last item resolves: an insert
/// touches both buckets of its pair, and 512 items × ~2 buckets × ~2 lines
/// ≈ 130 KB, where the read-path block of 2048 would need ~500 KB.
/// Measured against 2048 on chained builds (median ns/row of 6 interleaved
/// builds, 4-core Xeon VM, 2 MB L2): 233 vs 243 on the probe-dram table
/// (2^25 buckets, beyond L3), 119 vs 140 on a 2^16-bucket table (inside
/// L2), each inside the other's run-to-run range. Not resolved; the block
/// stays, since changing it changes placement order.
inline constexpr size_t kInsertBatchBlock = 512;

/// Smallest table, in bytes, whose batched INSERTS prefetch. A table that
/// fits in a core's L2 gains nothing from prefetching its lines, and the
/// prefetches cost: chained builds of 60k-row cache-resident tables ran
/// ~20% slower with them (median ns/row, interleaved builds, 4-core Xeon
/// VM with 2 MB L2). Builds broke even at 1.6 MB, won at 3 MB and ran 2x
/// faster beyond L3 (the 696 MB perfbench probe-dram table).
inline constexpr uint64_t kInsertPrefetchMinBytes = uint64_t{2} << 20;

/// Whether a batched insert into a table of `table_bits` prefetches.
inline bool InsertPrefetches(uint64_t table_bits) {
  return table_bits / 8 >= kInsertPrefetchMinBytes;
}

/// Batches of at most this many items run entirely on stack scratch: tiny
/// ContainsBatch / InsertBatch calls (common in interactive paths and unit
/// tests) stay allocation-free. 128 × a ~40-byte Addr record plus the order
/// indices is ≤ ~6 KB of frame — safe even on small worker-thread stacks,
/// which is why the full 2048-item block scratch lives on the heap instead.
inline constexpr size_t kBatchPipelineSmallBatch = 128;

/// Default interleave width (N) of the software-pipelined resolve loop:
/// each iteration prefetches N buckets, hashes a strip of the next block,
/// and resolves N items. Compile-time tunable.
inline constexpr size_t kBatchPipelineWay =
#if defined(CCF_PIPELINE_WAY)
    CCF_PIPELINE_WAY;
#else
    4;
#endif

struct BatchPipelineOptions {
  /// Bit width of the cluster-key domain (e.g. log2(num_buckets)); the
  /// block is clustered on the top bits of the key. <= 0 disables
  /// clustering (degenerate domains have no locality to recover).
  int cluster_bits = 0;
  /// Escape hatch for differential tests; production callers leave it on.
  bool radix_cluster = true;
  /// Items per block: 0 = kBatchPipelineBlock (the read-path tune), capped
  /// there. Paths whose resolve step does more work per item than a probe
  /// — bulk INSERTS touch both buckets, dedupe-scan, and store — shrink
  /// the block so every line prefetched at block start still sits in L2
  /// when its item resolves (2048 items × ~2 buckets × ~2 lines ≈ 500 KB
  /// would not).
  size_t block_size = 0;
  /// Interleave width of the resolve loop: 0 = the process-wide setting
  /// (SetBatchPipelineWay override, else kBatchPipelineWay). Results are
  /// bit-identical for every width; this knob exists for the equivalence
  /// sweep tests and depth experiments.
  size_t pipeline_way = 0;
};

namespace batch_pipeline_internal {

/// The block loops inline their callbacks completely: on the probe-dram
/// table (2^25 buckets, 6 x 28-bit slots) the same loop with an outlined
/// callee took ~200 ns/key for ContainsKeyBatch, flattened ~75.
#if defined(__GNUC__) || defined(__clang__)
#define CCF_PIPELINE_FLATTEN __attribute__((flatten))
#else
#define CCF_PIPELINE_FLATTEN
#endif

constexpr int kRadixBits = 6;
constexpr size_t kRadixBins = size_t{1} << kRadixBits;
static_assert(kBatchPipelineBlock <= 65535, "bin counters are 16-bit");

/// Rolling prefetch distance of the resolve loop. A hardware core only
/// tracks ~10-20 outstanding line fills; a block-wide up-front prefetch
/// pass bursts thousands of hints and the queue drops all but the first
/// handful, leaving the tail of the block cold again by resolve time.
/// Instead the loop prefetches group i+kPrefetchLead while resolving group
/// i, keeping the miss queue continuously full without ever out-running
/// L2. 24 ≈ miss-buffer depth with headroom.
constexpr size_t kPrefetchLead = 24;

/// Process-wide pipeline-way override storage (0 = none). One instance
/// across all translation units.
inline std::atomic<size_t>& PipelineWayOverride() {
  static std::atomic<size_t> v{0};
  return v;
}

/// Fills order[0..n) with a stable counting-sort permutation of the block
/// by (cluster_key >> shift) — or the identity when clustering is off.
template <typename Addr>
void ClusterBlock(const Addr* addrs, size_t n, bool cluster, int shift,
                  uint16_t* order) {
  if (cluster && n > 1) {
    uint16_t counts[kRadixBins] = {0};
    for (size_t i = 0; i < n; ++i) {
      ++counts[(addrs[i].cluster_key >> shift) & (kRadixBins - 1)];
    }
    uint16_t start = 0;
    for (size_t b = 0; b < kRadixBins; ++b) {
      uint16_t c = counts[b];
      counts[b] = start;
      start = static_cast<uint16_t>(start + c);
    }
    for (size_t i = 0; i < n; ++i) {
      size_t bin = (addrs[i].cluster_key >> shift) & (kRadixBins - 1);
      order[counts[bin]++] = static_cast<uint16_t>(i);
    }
  } else {
    for (size_t i = 0; i < n; ++i) order[i] = static_cast<uint16_t>(i);
  }
}

inline int ClusterShift(const BatchPipelineOptions& options) {
  return options.cluster_bits > kRadixBits
             ? options.cluster_bits - kRadixBits
             : 0;
}

inline size_t EffectiveWay(const BatchPipelineOptions& options) {
  size_t way = options.pipeline_way;
  if (way == 0) way = PipelineWayOverride().load(std::memory_order_relaxed);
  if (way == 0) way = kBatchPipelineWay;
  return std::min<size_t>(std::max<size_t>(way, 1), 64);
}

/// Block loop of RunBatchPipeline over caller-provided scratch. When
/// `num_items` spans more than one block the buffers are DOUBLE block
/// sized ([current][next]); single-block runs never touch the second
/// half. The resolve loop is the N-way software pipeline described in the
/// file comment: per iteration, prefetch the group `lead` ahead, hash a
/// proportional strip of the next block into the back buffer, resolve the
/// current group; a short final strip (`n % way`) forms the scalar
/// epilogue.
template <typename Addr, typename AddressFn, typename PrefetchFn,
          typename ResolveFn>
CCF_PIPELINE_FLATTEN void RunBlocks(size_t num_items, bool cluster, int shift,
                                    size_t way, Addr* addrs, uint16_t* order,
                                    size_t block, AddressFn&& address,
                                    PrefetchFn&& prefetch,
                                    ResolveFn&& resolve) {
  const size_t lead = std::min(block, kPrefetchLead);
  Addr* cur = addrs;
  Addr* nxt = addrs + block;
  uint16_t* cur_ord = order;
  uint16_t* nxt_ord = order + block;
  size_t base = 0;
  size_t n = std::min(block, num_items);
  for (size_t i = 0; i < n; ++i) cur[i] = address(i);
  ClusterBlock(cur, n, cluster, shift, cur_ord);
  while (n > 0) {
    const size_t next_base = base + n;
    const size_t next_n =
        next_base < num_items ? std::min(block, num_items - next_base) : 0;
    // Rolling window: warm the first `lead` items, then keep ~`lead`
    // prefetches in flight ahead of the resolve cursor.
    for (size_t i = 0; i < std::min(lead, n); ++i) {
      prefetch(cur[cur_ord[i]]);
    }
    size_t hashed = 0;
    for (size_t i = 0; i < n;) {
      const size_t strip = std::min(way, n - i);
      for (size_t j = 0; j < strip && i + j + lead < n; ++j) {
        prefetch(cur[cur_ord[i + j + lead]]);
      }
      if (next_n > 0) {
        // Hash the next block at a rate that finishes exactly with this
        // block's resolves: pure ALU work overlapping the misses above.
        const size_t target = next_n * (i + strip) / n;
        for (; hashed < target; ++hashed) {
          nxt[hashed] = address(next_base + hashed);
        }
      }
      for (size_t j = 0; j < strip; ++j) {
        const size_t k = cur_ord[i + j];
        resolve(base + k, cur[k]);
      }
      i += strip;
    }
    if (next_n > 0) {
      for (; hashed < next_n; ++hashed) {
        nxt[hashed] = address(next_base + hashed);
      }
      ClusterBlock(nxt, next_n, cluster, shift, nxt_ord);
    }
    std::swap(cur, nxt);
    std::swap(cur_ord, nxt_ord);
    base = next_base;
    n = next_n;
  }
}

/// Block loop of RunBatchPipelineTwoWave over caller-provided scratch.
/// Buffer layout when multi-block: addrs = [current][next]; order =
/// [current order][deferred][next order] (3 × block). Single-block runs
/// use only [order][deferred]. Wave 1 carries the same N-way interleave
/// and next-block hash overlap as RunBlocks; wave 2 (the deferred items)
/// runs after wave 1 and the hash flush, before the next block's cluster.
template <typename Addr, typename AddressFn, typename Prefetch1Fn,
          typename Resolve1Fn, typename Prefetch2Fn, typename Resolve2Fn>
CCF_PIPELINE_FLATTEN void RunBlocksTwoWave(
    size_t num_items, bool cluster, int shift, size_t way, Addr* addrs,
    uint16_t* order, size_t block, AddressFn&& address,
    Prefetch1Fn&& prefetch1, Resolve1Fn&& resolve1, Prefetch2Fn&& prefetch2,
    Resolve2Fn&& resolve2) {
  const size_t lead = std::min(block, kPrefetchLead);
  Addr* cur = addrs;
  Addr* nxt = addrs + block;
  uint16_t* cur_ord = order;
  uint16_t* deferred = order + block;
  uint16_t* nxt_ord = order + 2 * block;
  size_t base = 0;
  size_t n = std::min(block, num_items);
  for (size_t i = 0; i < n; ++i) cur[i] = address(i);
  ClusterBlock(cur, n, cluster, shift, cur_ord);
  while (n > 0) {
    const size_t next_base = base + n;
    const size_t next_n =
        next_base < num_items ? std::min(block, num_items - next_base) : 0;
    // Rolling wave-1 window (see RunBlocks); deferred items issue their
    // wave-2 prefetch on the spot, and the rest of wave 1 gives those
    // lines time to land before the wave-2 loop touches them.
    for (size_t i = 0; i < std::min(lead, n); ++i) {
      prefetch1(cur[cur_ord[i]]);
    }
    size_t hashed = 0;
    size_t num_deferred = 0;
    for (size_t i = 0; i < n;) {
      const size_t strip = std::min(way, n - i);
      for (size_t j = 0; j < strip && i + j + lead < n; ++j) {
        prefetch1(cur[cur_ord[i + j + lead]]);
      }
      if (next_n > 0) {
        const size_t target = next_n * (i + strip) / n;
        for (; hashed < target; ++hashed) {
          nxt[hashed] = address(next_base + hashed);
        }
      }
      for (size_t j = 0; j < strip; ++j) {
        const size_t k = cur_ord[i + j];
        if (!resolve1(base + k, cur[k])) {
          prefetch2(cur[k]);
          deferred[num_deferred++] = static_cast<uint16_t>(k);
        }
      }
      i += strip;
    }
    if (next_n > 0) {
      for (; hashed < next_n; ++hashed) {
        nxt[hashed] = address(next_base + hashed);
      }
    }
    for (size_t i = 0; i < num_deferred; ++i) {
      const size_t k = deferred[i];
      resolve2(base + k, cur[k]);
    }
    if (next_n > 0) ClusterBlock(nxt, next_n, cluster, shift, nxt_ord);
    std::swap(cur, nxt);
    std::swap(cur_ord, nxt_ord);
    base = next_base;
    n = next_n;
  }
}

}  // namespace batch_pipeline_internal

/// Process-wide pipeline-way override for the equivalence sweep tests and
/// depth experiments; 0 restores the compile-time default. Thread-safe;
/// per-call BatchPipelineOptions::pipeline_way takes precedence.
inline void SetBatchPipelineWay(size_t way) {
  batch_pipeline_internal::PipelineWayOverride().store(
      way, std::memory_order_relaxed);
}

/// The interleave width calls without an explicit pipeline_way will use.
inline size_t BatchPipelineWay() {
  size_t w = batch_pipeline_internal::PipelineWayOverride().load(
      std::memory_order_relaxed);
  return w != 0 ? w : kBatchPipelineWay;
}

/// Runs the blocked, software-pipelined two-pass loop over `num_items`.
///
/// Addr (explicit template argument) is the caller's per-item address
/// record; it must expose a `uint64_t cluster_key` member. The callbacks:
///   * address(i) -> Addr        — pass 1, called in input order. MUST be
///                                 pure w.r.t. the probed table: the
///                                 pipeline hashes block k+1 while block
///                                 k is still resolving;
///   * prefetch(addr)            — pass 2, called in clustered order;
///   * resolve(i, addr)          — pass 3, called in clustered order with
///                                 the ORIGINAL index i, so writing
///                                 out[i] preserves input order exactly.
template <typename Addr, typename AddressFn, typename PrefetchFn,
          typename ResolveFn>
void RunBatchPipeline(size_t num_items, const BatchPipelineOptions& options,
                      AddressFn&& address, PrefetchFn&& prefetch,
                      ResolveFn&& resolve) {
  namespace internal = batch_pipeline_internal;
  if (num_items == 0) return;
  const bool cluster = options.radix_cluster && options.cluster_bits > 0;
  const int shift = internal::ClusterShift(options);
  const size_t way = internal::EffectiveWay(options);
  const size_t block_limit =
      options.block_size > 0 ? std::min(options.block_size, kBatchPipelineBlock)
                             : kBatchPipelineBlock;
  // Small single-block batches run on stack scratch (allocation-free);
  // everything else takes one heap allocation per call, double-block
  // sized when more than one block runs (the pipeline hashes block k+1
  // into the back half while block k resolves): ~80 KB of Addr records
  // per 2048-block would be a rude stack-frame surprise for callers on
  // small worker-thread stacks, and the allocation is noise next to even
  // one block's table probes.
  if (num_items <= kBatchPipelineSmallBatch && num_items <= block_limit) {
    Addr addrs[kBatchPipelineSmallBatch];
    uint16_t order[kBatchPipelineSmallBatch];
    internal::RunBlocks(num_items, cluster, shift, way, addrs, order, num_items,
                        address, prefetch, resolve);
    return;
  }
  const size_t block = std::min(num_items, block_limit);
  const size_t buffers = num_items > block ? 2 : 1;
  std::unique_ptr<Addr[]> addrs(new Addr[buffers * block]);
  std::unique_ptr<uint16_t[]> order(new uint16_t[buffers * block]);
  internal::RunBlocks(num_items, cluster, shift, way, addrs.get(), order.get(),
                      block, address, prefetch, resolve);
}

/// The deferred-second-target flavour (see file comment). Callbacks:
///   * address(i) -> Addr        — as above (pure w.r.t. table state; the
///     insert paths' hash-memo writes are indexed by input position and
///     remain in input order, which satisfies this);
///   * prefetch1(addr)           — wave 1 prefetch (primary target only);
///   * resolve1(i, addr&) -> bool — wave 1 resolve, clustered order; may
///     mutate the addr to stash partial state (e.g. the primary bucket's
///     copy count). Returning true settles the item; returning false
///     defers it to wave 2;
///   * prefetch2(addr)           — issued by the pipeline immediately
///     after resolve1 defers an item, so its wave-2 line streams in while
///     the rest of the block's wave 1 runs;
///   * resolve2(i, addr)         — wave 2, runs after the whole block's
///     wave 1, in the same clustered order among deferred items.
template <typename Addr, typename AddressFn, typename Prefetch1Fn,
          typename Resolve1Fn, typename Prefetch2Fn, typename Resolve2Fn>
void RunBatchPipelineTwoWave(size_t num_items,
                             const BatchPipelineOptions& options,
                             AddressFn&& address, Prefetch1Fn&& prefetch1,
                             Resolve1Fn&& resolve1, Prefetch2Fn&& prefetch2,
                             Resolve2Fn&& resolve2) {
  namespace internal = batch_pipeline_internal;
  if (num_items == 0) return;
  const bool cluster = options.radix_cluster && options.cluster_bits > 0;
  const int shift = internal::ClusterShift(options);
  const size_t way = internal::EffectiveWay(options);
  const size_t block_limit =
      options.block_size > 0 ? std::min(options.block_size, kBatchPipelineBlock)
                             : kBatchPipelineBlock;
  // Stack scratch for small single-block batches, heap (with a next-block
  // back buffer when multi-block) for the same stack-frame reasons as
  // RunBatchPipeline otherwise.
  if (num_items <= kBatchPipelineSmallBatch && num_items <= block_limit) {
    Addr addrs[kBatchPipelineSmallBatch];
    uint16_t order[2 * kBatchPipelineSmallBatch];
    internal::RunBlocksTwoWave(num_items, cluster, shift, way, addrs, order,
                               num_items, address, prefetch1, resolve1,
                               prefetch2, resolve2);
    return;
  }
  const size_t block = std::min(num_items, block_limit);
  const bool multi = num_items > block;
  std::unique_ptr<Addr[]> addrs(new Addr[(multi ? 2 : 1) * block]);
  std::unique_ptr<uint16_t[]> order(new uint16_t[(multi ? 3 : 2) * block]);
  internal::RunBlocksTwoWave(num_items, cluster, shift, way, addrs.get(),
                             order.get(), block, address, prefetch1, resolve1,
                             prefetch2, resolve2);
}

}  // namespace ccf

#endif  // CCF_UTIL_BATCH_PIPELINE_H_
