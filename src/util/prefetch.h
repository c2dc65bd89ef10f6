// Portable software prefetch. Batched query and insert paths hash a block
// of keys up front, issue prefetches for every bucket the block will touch,
// and only then resolve — hiding DRAM latency behind useful work instead of
// stalling once per key.
#ifndef CCF_UTIL_PREFETCH_H_
#define CCF_UTIL_PREFETCH_H_

namespace ccf {

/// Hints the cache hierarchy to load the line containing `addr` into every
/// level. Never faults, so `addr` may point past the end of an allocation;
/// correctness never depends on it.
///
/// Why not a bare __builtin_prefetch: GCC does not count the builtin as a
/// side effect, so its pure-const pass marks a function whose only effect
/// is a prefetch "looping pure", and a call to such a function whose result
/// is unused is deleted before any later inlining (GCC 12: every bulk-insert
/// prefetch of the batch pipeline vanished this way). A volatile asm cannot
/// be deleted, and neither can any wrapper around it. Off x86-64 an empty
/// volatile asm that takes the address plays the same part. There is one
/// helper, not a read/write pair: without PRFCHW in -march (x86-64-v3 and v4
/// lack it) GCC lowers a write-intent __builtin_prefetch to the same
/// prefetcht0.
inline void Prefetch(const void* addr) {
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  asm volatile("prefetcht0 %0" : : "m"(*static_cast<const char*>(addr)));
#elif defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(addr, /*rw=*/0, /*locality=*/3);
  asm volatile("" : : "r"(addr));
#else
  (void)addr;
#endif
}

}  // namespace ccf

#endif  // CCF_UTIL_PREFETCH_H_
