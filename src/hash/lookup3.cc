#include "hash/lookup3.h"

#include <cstring>

namespace ccf {

namespace {

using lookup3_internal::Final;
using lookup3_internal::Rot;

// lookup3's mix(): reversible mixing of three 32-bit states.
inline void Mix(uint32_t& a, uint32_t& b, uint32_t& c) {
  a -= c; a ^= Rot(c, 4);  c += b;
  b -= a; b ^= Rot(a, 6);  a += c;
  c -= b; c ^= Rot(b, 8);  b += a;
  a -= c; a ^= Rot(c, 16); c += b;
  b -= a; b ^= Rot(a, 19); a += c;
  c -= b; c ^= Rot(b, 4);  b += a;
}

// Portable byte-at-a-time tail handling (matches hashlittle's semantics on
// little-endian machines without requiring aligned reads).
void HashLittle2Impl(const uint8_t* k, size_t length, uint32_t* pc,
                     uint32_t* pb) {
  uint32_t a, b, c;
  a = b = c = 0xdeadbeef + static_cast<uint32_t>(length) + *pc;
  c += *pb;

  while (length > 12) {
    uint32_t w0, w1, w2;
    std::memcpy(&w0, k, 4);
    std::memcpy(&w1, k + 4, 4);
    std::memcpy(&w2, k + 8, 4);
    a += w0;
    b += w1;
    c += w2;
    Mix(a, b, c);
    length -= 12;
    k += 12;
  }

  // Last block: affect all of (a,b,c).
  switch (length) {
    case 12: c += static_cast<uint32_t>(k[11]) << 24; [[fallthrough]];
    case 11: c += static_cast<uint32_t>(k[10]) << 16; [[fallthrough]];
    case 10: c += static_cast<uint32_t>(k[9]) << 8; [[fallthrough]];
    case 9:  c += k[8]; [[fallthrough]];
    case 8:  b += static_cast<uint32_t>(k[7]) << 24; [[fallthrough]];
    case 7:  b += static_cast<uint32_t>(k[6]) << 16; [[fallthrough]];
    case 6:  b += static_cast<uint32_t>(k[5]) << 8; [[fallthrough]];
    case 5:  b += k[4]; [[fallthrough]];
    case 4:  a += static_cast<uint32_t>(k[3]) << 24; [[fallthrough]];
    case 3:  a += static_cast<uint32_t>(k[2]) << 16; [[fallthrough]];
    case 2:  a += static_cast<uint32_t>(k[1]) << 8; [[fallthrough]];
    case 1:
      a += k[0];
      break;
    case 0:
      *pc = c;
      *pb = b;
      return;  // zero-length strings require no mixing
  }

  Final(a, b, c);
  *pc = c;
  *pb = b;
}

}  // namespace

uint32_t Lookup3Hash32(const void* key, size_t length, uint32_t initval) {
  uint32_t pc = initval;
  uint32_t pb = 0;
  HashLittle2Impl(static_cast<const uint8_t*>(key), length, &pc, &pb);
  return pc;
}

void Lookup3Hash2(const void* key, size_t length, uint32_t* pc, uint32_t* pb) {
  HashLittle2Impl(static_cast<const uint8_t*>(key), length, pc, pb);
}

}  // namespace ccf
