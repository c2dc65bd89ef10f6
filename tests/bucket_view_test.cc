// Differential tests for the bucket fingerprint kernels
// (cuckoo/bucket_view.h): MatchMask must produce bit-identical match masks
// to the slot-by-slot MatchMaskScalar reference, across fingerprint widths,
// slots-per-bucket, payload strides that straddle word and cache-line
// boundaries, and erased (fingerprint 0) slots.
#include "cuckoo/bucket_view.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <vector>

#include "cuckoo/bucket_table.h"
#include "util/random.h"

namespace ccf {
namespace {

// The reference the kernels must reproduce exactly.
uint64_t ScalarReferenceMask(const BucketTable& t, uint64_t bucket,
                             uint32_t fp) {
  return t.MatchMaskScalar(bucket, fp);
}

struct Geometry {
  int fp_bits;
  int slots;
  int payload_bits;
};

// Covers both kernels: the direct SWAR word (payload 0, small buckets) and
// the per-slot strided loads (payloads incl. primes that make buckets
// straddle 64-bit words and 64-byte cache lines, wide fingerprints, and
// more than 16 slots). Fingerprint widths 4/8/12/16+, slots 2..24.
const Geometry kGeometries[] = {
    // kDirect candidates (payload-free).
    {4, 2, 0},
    {4, 4, 0},
    {4, 8, 0},
    {8, 4, 0},
    {12, 4, 0},
    {12, 2, 0},
    {16, 2, 0},
    // 16x4 = 64 bits exceeds the single-load budget: strided path.
    {16, 4, 0},
    {16, 8, 0},
    {12, 8, 0},
    // Strided slots (CCF shapes); 28-bit slots make buckets straddle both
    // word and cache-line boundaries at varying phases.
    {12, 4, 16},
    {12, 6, 16},
    {12, 8, 16},
    {8, 4, 5},
    {8, 2, 3},
    {4, 8, 7},
    {16, 8, 33},
    {12, 6, 100},
    // Wide fingerprints.
    {20, 4, 0},
    {24, 6, 9},
    {32, 4, 8},
    // More slots than fit one SWAR word or 16 lanes.
    {8, 24, 0},
    {12, 20, 4},
};

// One full randomized sweep over every geometry, comparing the production
// MatchMask against the scalar reference.
void RunEverywhereSweep(uint64_t seed) {
  Rng rng(seed);
  for (const Geometry& g : kGeometries) {
    SCOPED_TRACE(testing::Message()
                 << "fp_bits=" << g.fp_bits << " slots=" << g.slots
                 << " payload_bits=" << g.payload_bits);
    // 64 buckets * odd slot widths sweep every bit alignment, including
    // buckets whose slots straddle word and cache-line boundaries.
    auto t = BucketTable::Make(64, g.slots, g.fp_bits, g.payload_bits)
                 .ValueOrDie();
    const uint32_t fp_mask =
        g.fp_bits >= 32 ? ~uint32_t{0} : (uint32_t{1} << g.fp_bits) - 1;
    // Fill ~2/3 of all slots with random fingerprints (0 included), then
    // erase some so erased-slot (fingerprint reads 0) buckets occur.
    for (uint64_t b = 0; b < t.num_buckets(); ++b) {
      for (int s = 0; s < t.slots_per_bucket(); ++s) {
        if (rng.NextBelow(3) < 2) {
          t.Put(b, s, static_cast<uint32_t>(rng.NextBelow(fp_mask + 1ull)));
        }
      }
    }
    for (uint64_t b = 0; b < t.num_buckets(); ++b) {
      for (int s = 0; s < t.slots_per_bucket(); ++s) {
        if (t.occupied(b, s) && rng.NextBelow(5) == 0) t.Erase(b, s);
      }
    }
    for (uint64_t b = 0; b < t.num_buckets(); ++b) {
      // Probe with: every stored fingerprint, 0 (erased slots), the
      // all-ones fingerprint, and random values.
      std::vector<uint32_t> probes = {0, fp_mask};
      for (int s = 0; s < t.slots_per_bucket(); ++s) {
        probes.push_back(t.fingerprint_any(b, s));
      }
      for (int i = 0; i < 4; ++i) {
        probes.push_back(
            static_cast<uint32_t>(rng.NextBelow(fp_mask + 1ull)));
      }
      for (uint32_t fp : probes) {
        EXPECT_EQ(t.MatchMask(b, fp), ScalarReferenceMask(t, b, fp))
            << "bucket=" << b << " fp=" << fp;
      }
    }
  }
}

TEST(BucketViewTest, MatchMaskEqualsScalarScanEverywhere) {
  RunEverywhereSweep(20260727);
}

TEST(BucketViewTest, CountFingerprintMatchesBruteForce) {
  Rng rng(99);
  auto t = BucketTable::Make(32, 6, 12, 16).ValueOrDie();
  for (uint64_t b = 0; b < t.num_buckets(); ++b) {
    for (int s = 0; s < 6; ++s) {
      if (rng.NextBelow(2) == 0) {
        t.Put(b, s, static_cast<uint32_t>(rng.NextBelow(8)));  // collisions
      }
    }
  }
  for (uint64_t b = 0; b < t.num_buckets(); ++b) {
    for (uint32_t fp = 0; fp < 8; ++fp) {
      int brute = 0;
      for (int s = 0; s < 6; ++s) {
        if (t.occupied(b, s) && t.fingerprint_any(b, s) == fp) ++brute;
      }
      EXPECT_EQ(t.CountFingerprint(b, fp), brute);
    }
  }
}

// The strided kernel called directly on a table's bit store, against the
// MatchMaskScalar reference: every fingerprint width 1..32, slot widths up
// to 64 bits, and 1..16 slots per bucket. Odd slot widths put buckets at
// every bit phase, so slots straddle words and cache lines throughout.
TEST(BucketViewTest, StridedKernelMatchesScalarAcrossWidths) {
  Rng rng(20261017);
  for (int fp_bits = 1; fp_bits <= 32; ++fp_bits) {
    const uint32_t fp_mask =
        fp_bits >= 32 ? ~uint32_t{0} : (uint32_t{1} << fp_bits) - 1;
    for (int slot_bits : {fp_bits, fp_bits + 1, fp_bits + 7, 28, 33, 47, 64}) {
      if (slot_bits < fp_bits || slot_bits > 64) continue;
      for (int slots = 1; slots <= 16; ++slots) {
        SCOPED_TRACE(testing::Message() << "fp_bits=" << fp_bits
                                        << " slot_bits=" << slot_bits
                                        << " slots=" << slots);
        auto t = BucketTable::Make(8, slots, fp_bits, slot_bits - fp_bits)
                     .ValueOrDie();
        for (uint64_t b = 0; b < t.num_buckets(); ++b) {
          for (int s = 0; s < slots; ++s) {
            if (rng.NextBelow(4) == 0) continue;  // never written
            // Low-entropy fingerprints so repeated matches occur.
            t.Put(b, s, static_cast<uint32_t>(rng.NextBelow(4)) & fp_mask);
            if (slot_bits > fp_bits) {
              const int payload = slot_bits - fp_bits;
              t.SetPayloadField(b, s, 0, payload,
                                rng.Next() & (payload >= 64
                                                  ? ~uint64_t{0}
                                                  : (uint64_t{1} << payload) -
                                                        1));
            }
            if (rng.NextBelow(5) == 0) t.Erase(b, s);
          }
        }
        for (uint64_t b = 0; b < t.num_buckets(); ++b) {
          const size_t first = static_cast<size_t>(b) *
                               static_cast<size_t>(slots) *
                               static_cast<size_t>(slot_bits);
          for (uint32_t fp :
               {uint32_t{0}, uint32_t{1} & fp_mask, uint32_t{2} & fp_mask,
                uint32_t{3} & fp_mask, fp_mask,
                static_cast<uint32_t>(rng.Next()) & fp_mask}) {
            const uint64_t want = t.MatchMaskScalar(b, fp);
            ASSERT_EQ(bucket_simd::MatchStrided(*t.bits(), first, slots,
                                                slot_bits, fp_mask, fp),
                      want)
                << "bucket=" << b << " fp=" << fp;
            ASSERT_EQ(t.MatchMask(b, fp), want) << "bucket=" << b
                                                << " fp=" << fp;
          }
        }
      }
    }
  }
}

// Last-bucket edge: the per-slot loads read up to 7 bytes past each slot's
// first byte, so probing the FINAL bucket of a table reads into the
// BitVector guard word. It must stay bit-identical to scalar; the ASan CI
// leg turns any read past the guard word into a hard failure.
TEST(BucketViewTest, LastBucketGuardWordSafety) {
  Rng rng(41);
  for (const Geometry& g : {Geometry{12, 6, 16}, Geometry{12, 4, 16},
                            Geometry{16, 4, 0}, Geometry{16, 8, 0},
                            Geometry{8, 9, 5}, Geometry{4, 2, 0}}) {
    for (uint64_t num_buckets : {1, 2, 3, 5, 16}) {
      auto t = BucketTable::Make(num_buckets, g.slots, g.fp_bits,
                                 g.payload_bits)
                   .ValueOrDie();
      const uint32_t fp_mask = (uint32_t{1} << g.fp_bits) - 1;
      for (uint64_t b = 0; b < t.num_buckets(); ++b) {
        for (int s = 0; s < t.slots_per_bucket(); ++s) {
          t.Put(b, s, static_cast<uint32_t>(rng.NextBelow(fp_mask + 1ull)));
        }
      }
      const uint64_t last = t.num_buckets() - 1;
      t.PrefetchBucket(last);
      std::vector<uint32_t> probes = {0, fp_mask};
      for (int s = 0; s < t.slots_per_bucket(); ++s) {
        probes.push_back(t.fingerprint_any(last, s));
      }
      for (uint32_t fp : probes) {
        EXPECT_EQ(t.MatchMask(last, fp), ScalarReferenceMask(t, last, fp))
            << "fp_bits=" << g.fp_bits << " slots=" << g.slots
            << " payload_bits=" << g.payload_bits
            << " num_buckets=" << num_buckets << " fp=" << fp;
      }
    }
  }
}
TEST(BucketViewTest, DirectSwarKernelAgreesWithScalar) {
  Rng rng(13);
  for (int width : {1, 4, 8, 12, 16}) {
    for (int lanes = 1; lanes * width <= bucket_simd::kLoadBits && lanes <= 16;
         ++lanes) {
      bucket_simd::SwarGeometry g =
          bucket_simd::MakeSwarGeometry(width, lanes);
      uint64_t lane_mask = (width == 64) ? ~uint64_t{0}
                                         : (uint64_t{1} << width) - 1;
      for (int trial = 0; trial < 500; ++trial) {
        // Random word, including garbage above the last lane (the direct
        // path loads whatever follows the bucket; it must be ignored).
        uint64_t word = rng.Next();
        // Low-entropy probes (for collisions), capped to the lane width as
        // production fingerprints always are.
        uint64_t fp_domain = std::min<uint64_t>(4, lane_mask + 1);
        uint32_t fp = static_cast<uint32_t>(rng.NextBelow(fp_domain));
        if (trial % 3 == 0) {
          // Plant fp into some lanes so multi-match masks occur.
          for (int l = 0; l < lanes; ++l) {
            if (rng.NextBelow(2) == 0) {
              word &= ~(lane_mask << (l * width));
              word |= static_cast<uint64_t>(fp) << (l * width);
            }
          }
        }
        uint32_t expected = 0;
        for (int l = 0; l < lanes; ++l) {
          if (((word >> (l * width)) & lane_mask) == fp) {
            expected |= uint32_t{1} << l;
          }
        }
        EXPECT_EQ(bucket_simd::MatchDirectSwar(word, fp, width, g), expected)
            << "width=" << width << " lanes=" << lanes << " word=" << word
            << " fp=" << fp;
      }
    }
  }
}

}  // namespace
}  // namespace ccf
