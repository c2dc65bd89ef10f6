// Bob Jenkins' lookup3 hash (public domain, 2006). This is the hash function
// used by the original cuckoo filter paper (Fan et al. 2014) and by the CCF
// paper's evaluation (§10.8), so we reproduce it here from the published
// algorithm.
#ifndef CCF_HASH_LOOKUP3_H_
#define CCF_HASH_LOOKUP3_H_

#include <cstddef>
#include <cstdint>

namespace ccf {

/// Hashes `length` bytes of `key`, returning a 32-bit value. `initval` seeds
/// the hash (acts as a salt).
uint32_t Lookup3Hash32(const void* key, size_t length, uint32_t initval);

/// Hashes `length` bytes producing two 32-bit values (lookup3's hashlittle2):
/// *pc is the primary hash, *pb a secondary one. Together they form a 64-bit
/// hash.
void Lookup3Hash2(const void* key, size_t length, uint32_t* pc, uint32_t* pb);

namespace lookup3_internal {

inline uint32_t Rot(uint32_t x, int k) { return (x << k) | (x >> (32 - k)); }

// lookup3's final(): irreversibly finalizes the three states into c.
inline void Final(uint32_t& a, uint32_t& b, uint32_t& c) {
  c ^= b; c -= Rot(b, 14);
  a ^= c; a -= Rot(c, 11);
  b ^= a; b -= Rot(a, 25);
  c ^= b; c -= Rot(b, 16);
  a ^= c; a -= Rot(c, 4);
  b ^= a; b -= Rot(a, 14);
  c ^= b; c -= Rot(b, 24);
}

}  // namespace lookup3_internal

/// Convenience: 64-bit hash of a 64-bit key via hashlittle2 with the two seed
/// words initialized from `seed` — Lookup3Hash2 over the key's 8
/// little-endian bytes, specialised to that length: one block, no mix(),
/// only final(). Inline because every key address and alt bucket of every
/// filter goes through it.
inline uint64_t Lookup3Hash64(uint64_t key, uint64_t seed) {
  uint32_t a, b, c;
  a = b = c = 0xdeadbeef + 8u + static_cast<uint32_t>(seed);
  c += static_cast<uint32_t>(seed >> 32);
  a += static_cast<uint32_t>(key);
  b += static_cast<uint32_t>(key >> 32);
  lookup3_internal::Final(a, b, c);
  return (static_cast<uint64_t>(b) << 32) | c;
}

}  // namespace ccf

#endif  // CCF_HASH_LOOKUP3_H_
