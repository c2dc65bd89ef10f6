// The ONE software-pipelined batch skeleton behind every batched path in
// the library, reads AND writes (CcfBase::BatchResolve / InsertBatch,
// ShardedCcf's ShardedTwoPass, and the
// CuckooFilter / BloomFilter / MarkedKeyFilter ContainsBatch loops all
// instantiate this — no call site hand-rolls hash+prefetch+resolve any
// more, so prefetch policy and pipeline depth cannot diverge).
//
// Per block of items (kBatchPipelineBlock for reads, kInsertBatchBlock for
// inserts):
//   1. address pass  — compute each item's probe address (hashing);
//   2. resolve loop  — a 4-way interleaved software pipeline (below) that
//      resolves the block's items in input order.
//
// The resolve loop is SOFTWARE-PIPELINED three deep: in one iteration it
// (a) prefetches the buckets of the group kPrefetchLead items ahead (the
// "k+1" stage), (b) computes a proportional strip of the NEXT block's
// address pass (the "k+2" stage — hashing is pure ALU work that overlaps
// the current group's outstanding line fills instead of serializing after
// them), and (c) resolves the current 4-item group ("k"); the trailing
// partial group (`n % 4` items) is a short final strip. The next block's
// addresses land in a second scratch buffer (double buffering) — the
// address callback must therefore be pure with respect to table state,
// which every call site's is (it only hashes the input keys).
//
// The two-wave flavour defers an item's SECOND memory target (a cuckoo
// pair's alt bucket) until its first target has proven insufficient: wave
// 1 prefetches and scans only the primary bucket; items it cannot settle
// prefetch their alt bucket on the spot and finish in wave 2 after the
// rest of the block's wave 1 has given those prefetches time to land.
// Keys answered by their primary bucket (the common present-key case)
// never touch — or even fetch — the alt line, cutting DRAM traffic on the
// dominant cost axis of out-of-cache batches. Wave 1 carries the same
// interleave and next-block hash overlap as the single-wave loop.
//
// Bulk insertion re-purposes the same two waves: wave 1 is the
// displacement-free placement pass (dedupe + free-slot writes against
// prefetched pairs), wave 2 runs the kick / chain-walk logic for the
// leftovers only (see CcfBase::InsertBatch and CuckooFilter::InsertBatch).
#ifndef CCF_UTIL_BATCH_PIPELINE_H_
#define CCF_UTIL_BATCH_PIPELINE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>

namespace ccf {

/// Block size of the batched READ paths: small enough that the address
/// scratch and the block's prefetched lines stay inside L2.
inline constexpr size_t kBatchPipelineBlock = 2048;

/// Pipeline block size of the batched INSERT paths (CcfBase::InsertBatch,
/// CuckooFilter::InsertBatch). Sized so that the lines a block prefetches
/// at its start still sit in L2 when its last item resolves: an insert
/// touches both buckets of its pair, and 512 items × ~2 buckets × ~2 lines
/// ≈ 130 KB, where the read-path block of 2048 would need ~500 KB.
/// Measured against 2048 on chained builds (median ns/row of 6 interleaved
/// builds, 4-core Xeon VM, 2 MB L2): 233 vs 243 on the probe-dram table
/// (2^25 buckets, beyond L3), 119 vs 140 on a 2^16-bucket table (inside
/// L2), each inside the other's run-to-run range (measured while inserts
/// were still radix-clustered). Not resolved; the block stays, since
/// changing it changes placement order: wave 2 of a block runs after the
/// whole block's wave 1.
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
/// tests) stay allocation-free. 128 × a ~40-byte Addr record plus the
/// deferred indices is ≤ ~6 KB of frame — safe even on small worker-thread
/// stacks, which is why the full 2048-item block scratch lives on the heap
/// instead.
inline constexpr size_t kBatchPipelineSmallBatch = 128;

namespace batch_pipeline_internal {

/// The block loops inline their callbacks completely: on the probe-dram
/// table (2^25 buckets, 6 x 28-bit slots) the same loop with an outlined
/// callee took ~200 ns/key for ContainsKeyBatch, flattened ~75.
#if defined(__GNUC__) || defined(__clang__)
#define CCF_PIPELINE_FLATTEN __attribute__((flatten))
#else
#define CCF_PIPELINE_FLATTEN
#endif

static_assert(kBatchPipelineBlock <= 65535, "deferred indices are 16-bit");

/// Rolling prefetch distance of the resolve loop. A hardware core only
/// tracks ~10-20 outstanding line fills; a block-wide up-front prefetch
/// pass bursts thousands of hints and the queue drops all but the first
/// handful, leaving the tail of the block cold again by resolve time.
/// Instead the loop prefetches group i+kPrefetchLead while resolving group
/// i, keeping the miss queue continuously full without ever out-running
/// L2. 24 ≈ miss-buffer depth with headroom.
constexpr size_t kPrefetchLead = 24;

/// Interleave width of the resolve loop: each iteration prefetches this
/// many items `kPrefetchLead` ahead, hashes a strip of the next block, and
/// resolves this many items.
constexpr size_t kInterleave = 4;

/// Items per block of a run: the caller's block size, capped at
/// kBatchPipelineBlock (the 16-bit deferred indices) and at the batch.
inline size_t BlockOf(size_t num_items, size_t block_size) {
  return std::min({num_items, block_size, kBatchPipelineBlock});
}

/// Block loop of RunBatchPipeline over caller-provided scratch. When
/// `num_items` spans more than one block the buffer is DOUBLE block sized
/// ([current][next]); single-block runs never touch the second half. The
/// resolve loop is the software pipeline described in the file comment:
/// per iteration, prefetch the group `lead` ahead, hash a proportional
/// strip of the next block into the back buffer, resolve the current group.
template <typename Addr, typename AddressFn, typename PrefetchFn,
          typename ResolveFn>
CCF_PIPELINE_FLATTEN void RunBlocks(size_t num_items, Addr* addrs,
                                    size_t block, AddressFn&& address,
                                    PrefetchFn&& prefetch,
                                    ResolveFn&& resolve) {
  const size_t lead = std::min(block, kPrefetchLead);
  Addr* cur = addrs;
  Addr* nxt = addrs + block;
  size_t base = 0;
  size_t n = std::min(block, num_items);
  for (size_t i = 0; i < n; ++i) cur[i] = address(i);
  while (n > 0) {
    const size_t next_base = base + n;
    const size_t next_n =
        next_base < num_items ? std::min(block, num_items - next_base) : 0;
    // Rolling window: warm the first `lead` items, then keep ~`lead`
    // prefetches in flight ahead of the resolve cursor.
    for (size_t i = 0; i < std::min(lead, n); ++i) prefetch(cur[i]);
    size_t hashed = 0;
    for (size_t i = 0; i < n;) {
      const size_t strip = std::min(kInterleave, n - i);
      for (size_t j = 0; j < strip && i + j + lead < n; ++j) {
        prefetch(cur[i + j + lead]);
      }
      if (next_n > 0) {
        // Hash the next block at a rate that finishes exactly with this
        // block's resolves: pure ALU work overlapping the misses above.
        const size_t target = next_n * (i + strip) / n;
        for (; hashed < target; ++hashed) {
          nxt[hashed] = address(next_base + hashed);
        }
      }
      for (size_t j = 0; j < strip; ++j) resolve(base + i + j, cur[i + j]);
      i += strip;
    }
    for (; hashed < next_n; ++hashed) {
      nxt[hashed] = address(next_base + hashed);
    }
    std::swap(cur, nxt);
    base = next_base;
    n = next_n;
  }
}

/// Block loop of RunBatchPipelineTwoWave over caller-provided scratch:
/// `addrs` as in RunBlocks, `deferred` one block of indices into the
/// current block. Wave 1 carries the same interleave and next-block hash
/// overlap as RunBlocks; wave 2 (the deferred items) runs after wave 1 and
/// the hash flush.
template <typename Addr, typename AddressFn, typename Prefetch1Fn,
          typename Resolve1Fn, typename Prefetch2Fn, typename Resolve2Fn>
CCF_PIPELINE_FLATTEN void RunBlocksTwoWave(
    size_t num_items, Addr* addrs, uint16_t* deferred, size_t block,
    AddressFn&& address, Prefetch1Fn&& prefetch1, Resolve1Fn&& resolve1,
    Prefetch2Fn&& prefetch2, Resolve2Fn&& resolve2) {
  const size_t lead = std::min(block, kPrefetchLead);
  Addr* cur = addrs;
  Addr* nxt = addrs + block;
  size_t base = 0;
  size_t n = std::min(block, num_items);
  for (size_t i = 0; i < n; ++i) cur[i] = address(i);
  while (n > 0) {
    const size_t next_base = base + n;
    const size_t next_n =
        next_base < num_items ? std::min(block, num_items - next_base) : 0;
    // Rolling wave-1 window (see RunBlocks); deferred items issue their
    // wave-2 prefetch on the spot, and the rest of wave 1 gives those
    // lines time to land before the wave-2 loop touches them.
    for (size_t i = 0; i < std::min(lead, n); ++i) prefetch1(cur[i]);
    size_t hashed = 0;
    size_t num_deferred = 0;
    for (size_t i = 0; i < n;) {
      const size_t strip = std::min(kInterleave, n - i);
      for (size_t j = 0; j < strip && i + j + lead < n; ++j) {
        prefetch1(cur[i + j + lead]);
      }
      if (next_n > 0) {
        const size_t target = next_n * (i + strip) / n;
        for (; hashed < target; ++hashed) {
          nxt[hashed] = address(next_base + hashed);
        }
      }
      for (size_t j = 0; j < strip; ++j) {
        const size_t k = i + j;
        if (!resolve1(base + k, cur[k])) {
          prefetch2(cur[k]);
          deferred[num_deferred++] = static_cast<uint16_t>(k);
        }
      }
      i += strip;
    }
    for (; hashed < next_n; ++hashed) {
      nxt[hashed] = address(next_base + hashed);
    }
    for (size_t i = 0; i < num_deferred; ++i) {
      const size_t k = deferred[i];
      resolve2(base + k, cur[k]);
    }
    std::swap(cur, nxt);
    base = next_base;
    n = next_n;
  }
}

}  // namespace batch_pipeline_internal

/// Runs the blocked, software-pipelined two-pass loop over `num_items` in
/// blocks of `block_size` > 0 items (kBatchPipelineBlock for reads,
/// kInsertBatchBlock for inserts).
///
/// Addr (explicit template argument) is the caller's per-item address
/// record. The callbacks, each called in input order:
///   * address(i) -> Addr        — pass 1. MUST be pure w.r.t. the probed
///                                 table: the pipeline hashes block k+1
///                                 while block k is still resolving;
///   * prefetch(addr)            — pass 2;
///   * resolve(i, addr)          — pass 3.
template <typename Addr, typename AddressFn, typename PrefetchFn,
          typename ResolveFn>
void RunBatchPipeline(size_t num_items, size_t block_size,
                      AddressFn&& address, PrefetchFn&& prefetch,
                      ResolveFn&& resolve) {
  namespace internal = batch_pipeline_internal;
  if (num_items == 0) return;
  const size_t block = internal::BlockOf(num_items, block_size);
  // Small single-block batches run on stack scratch (allocation-free);
  // everything else takes one heap allocation per call, double-block
  // sized when more than one block runs (the pipeline hashes block k+1
  // into the back half while block k resolves): ~80 KB of Addr records
  // per 2048-block would be a rude stack-frame surprise for callers on
  // small worker-thread stacks, and the allocation is noise next to even
  // one block's table probes.
  if (num_items <= kBatchPipelineSmallBatch && block == num_items) {
    Addr addrs[kBatchPipelineSmallBatch];
    internal::RunBlocks(num_items, addrs, block, address, prefetch, resolve);
    return;
  }
  std::unique_ptr<Addr[]> addrs(new Addr[(num_items > block ? 2 : 1) * block]);
  internal::RunBlocks(num_items, addrs.get(), block, address, prefetch,
                      resolve);
}

/// The deferred-second-target flavour (see file comment). Callbacks:
///   * address(i) -> Addr        — as above (pure w.r.t. table state; the
///     insert paths' hash-memo writes are indexed by input position and
///     remain in input order, which satisfies this);
///   * prefetch1(addr)           — wave 1 prefetch (primary target only);
///   * resolve1(i, addr&) -> bool — wave 1 resolve, in input order; may
///     mutate the addr to stash partial state (e.g. the primary bucket's
///     copy count). Returning true settles the item; returning false
///     defers it to wave 2;
///   * prefetch2(addr)           — issued by the pipeline immediately
///     after resolve1 defers an item, so its wave-2 line streams in while
///     the rest of the block's wave 1 runs;
///   * resolve2(i, addr)         — wave 2, runs after the whole block's
///     wave 1, in input order among deferred items.
template <typename Addr, typename AddressFn, typename Prefetch1Fn,
          typename Resolve1Fn, typename Prefetch2Fn, typename Resolve2Fn>
void RunBatchPipelineTwoWave(size_t num_items, size_t block_size,
                             AddressFn&& address, Prefetch1Fn&& prefetch1,
                             Resolve1Fn&& resolve1, Prefetch2Fn&& prefetch2,
                             Resolve2Fn&& resolve2) {
  namespace internal = batch_pipeline_internal;
  if (num_items == 0) return;
  const size_t block = internal::BlockOf(num_items, block_size);
  // Stack scratch for small single-block batches, heap (with a next-block
  // back buffer when multi-block) for the same stack-frame reasons as
  // RunBatchPipeline otherwise.
  if (num_items <= kBatchPipelineSmallBatch && block == num_items) {
    Addr addrs[kBatchPipelineSmallBatch];
    uint16_t deferred[kBatchPipelineSmallBatch];
    internal::RunBlocksTwoWave(num_items, addrs, deferred, block, address,
                               prefetch1, resolve1, prefetch2, resolve2);
    return;
  }
  std::unique_ptr<Addr[]> addrs(new Addr[(num_items > block ? 2 : 1) * block]);
  std::unique_ptr<uint16_t[]> deferred(new uint16_t[block]);
  internal::RunBlocksTwoWave(num_items, addrs.get(), deferred.get(), block,
                             address, prefetch1, resolve1, prefetch2,
                             resolve2);
}

}  // namespace ccf

#endif  // CCF_UTIL_BATCH_PIPELINE_H_
