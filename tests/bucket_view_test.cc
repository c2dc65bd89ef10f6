// Differential tests for the bucket fingerprint kernel
// (cuckoo/bucket_view.h): MatchMask and the lane kernel it runs must
// produce bit-identical match masks to the slot-by-slot MatchMaskScalar
// reference, across fingerprint widths, slots per bucket, lane counts,
// payload strides that straddle word and cache-line boundaries, and erased
// (fingerprint 0) slots.
#include "cuckoo/bucket_view.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "cuckoo/bucket_table.h"
#include "util/bit_vector.h"
#include "util/random.h"
#include "util/serde.h"

namespace ccf {
namespace {

struct Geometry {
  int fp_bits;
  int slots;
  int payload_bits;
};

uint32_t FpMask(int fp_bits) {
  return fp_bits >= 32 ? ~uint32_t{0} : (uint32_t{1} << fp_bits) - 1;
}

// Writes fingerprints drawn from [0, fp_domain) into ~3/4 of the slots with
// random payload bits, then erases ~1/5 of those, so never-written and
// erased slots (both read fingerprint 0) sit beside live ones.
void FillRandom(BucketTable* t, Rng* rng, uint64_t fp_domain) {
  const uint32_t fp_mask = FpMask(t->fingerprint_bits());
  for (uint64_t b = 0; b < t->num_buckets(); ++b) {
    for (int s = 0; s < t->slots_per_bucket(); ++s) {
      if (rng->NextBelow(4) == 0) continue;
      t->Put(b, s, static_cast<uint32_t>(rng->NextBelow(fp_domain)) & fp_mask);
      for (int pos = 0; pos < t->payload_bits(); pos += 64) {
        const int width = std::min(64, t->payload_bits() - pos);
        t->SetPayloadField(
            b, s, pos, width,
            rng->Next() & (width == 64 ? ~uint64_t{0}
                                       : (uint64_t{1} << width) - 1));
      }
      if (rng->NextBelow(5) == 0) t->Erase(b, s);
    }
  }
}

// Probes: 0 (erased and never-written slots), the all-ones fingerprint,
// every fingerprint stored in `bucket`, and a few random values.
std::vector<uint32_t> ProbesFor(const BucketTable& t, uint64_t bucket,
                                Rng* rng) {
  const uint32_t fp_mask = FpMask(t.fingerprint_bits());
  std::vector<uint32_t> probes = {0, fp_mask};
  for (int s = 0; s < t.slots_per_bucket(); ++s) {
    probes.push_back(t.fingerprint_any(bucket, s));
  }
  for (int i = 0; i < 3; ++i) {
    probes.push_back(static_cast<uint32_t>(rng->Next()) & fp_mask);
  }
  return probes;
}

// Shapes with every lane count: all slots in one load (payload-free),
// 3 lanes (12 + 8), 2 lanes (the 12 + 16 and 12 + 24 CCF slots) with
// partial final groups (5 x 28, 7 x 36), 1 lane (wide slots), buckets that
// straddle words and cache lines at every phase (prime payloads), wide
// fingerprints, and more slots than one load holds.
const Geometry kGeometries[] = {
    // Payload-free: every slot in one load, or several groups.
    {4, 2, 0},
    {4, 4, 0},
    {4, 8, 0},
    {8, 4, 0},
    {12, 4, 0},
    {12, 2, 0},
    {16, 2, 0},
    {16, 4, 0},
    {16, 8, 0},
    {12, 8, 0},
    {20, 4, 0},
    {32, 3, 0},
    {8, 24, 0},
    // CCF slots: 3 lanes, then 2 lanes with full and partial final groups.
    {12, 6, 8},
    {12, 4, 16},
    {12, 5, 16},
    {12, 6, 16},
    {12, 8, 16},
    {12, 4, 24},
    {12, 7, 24},
    // Prime payloads put buckets at every word and cache-line phase.
    {8, 4, 5},
    {8, 2, 3},
    {4, 8, 7},
    {16, 8, 33},
    {24, 6, 9},
    {12, 20, 4},
    // One lane: slots wider than a load's spare bits.
    {12, 6, 100},
    {32, 4, 8},
    // More slots than one load holds.
    {1, 40, 0},
    {1, 64, 3},
    {2, 64, 0},
};

TEST(BucketViewTest, MatchMaskEqualsScalarScanEverywhere) {
  Rng rng(20260727);
  for (const Geometry& g : kGeometries) {
    SCOPED_TRACE(testing::Message()
                 << "fp_bits=" << g.fp_bits << " slots=" << g.slots
                 << " payload_bits=" << g.payload_bits);
    // 64 buckets * odd slot widths sweep every bit alignment.
    auto t = BucketTable::Make(64, g.slots, g.fp_bits, g.payload_bits)
                 .ValueOrDie();
    FillRandom(&t, &rng, uint64_t{FpMask(g.fp_bits)} + 1);
    for (uint64_t b = 0; b < t.num_buckets(); ++b) {
      for (uint32_t fp : ProbesFor(t, b, &rng)) {
        EXPECT_EQ(t.MatchMask(b, fp), t.MatchMaskScalar(b, fp))
            << "bucket=" << b << " fp=" << fp;
      }
    }
  }
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

// The lane count the kernel picks: every fingerprint field of a group lies
// within the 57 bits one load delivers. Over every geometry the table
// accepts, the packed constants hold their values and the reciprocal
// multiply maps each field's flag bit to its lane.
TEST(BucketViewTest, LaneGeometryPacksFieldsIntoOneLoad) {
  using bucket_simd::MakeLaneGeometry;
  EXPECT_EQ(MakeLaneGeometry(4, 12, 12).lanes, 4);  // CuckooFilter
  EXPECT_EQ(MakeLaneGeometry(6, 12, 28).lanes, 2);  // probe-dram, fleet
  EXPECT_EQ(MakeLaneGeometry(4, 12, 24).lanes, 2);  // chain-join
  EXPECT_EQ(MakeLaneGeometry(4, 12, 36).lanes, 2);  // chain-join
  EXPECT_EQ(MakeLaneGeometry(6, 12, 20).lanes, 3);
  EXPECT_EQ(MakeLaneGeometry(4, 12, 48).lanes, 1);
  EXPECT_EQ(MakeLaneGeometry(4, 32, 32).lanes, 1);
  EXPECT_EQ(MakeLaneGeometry(40, 1, 1).lanes, 40);
  EXPECT_EQ(MakeLaneGeometry(64, 1, 1).lanes, 57);
  for (int fp_bits = 1; fp_bits <= 32; ++fp_bits) {
    for (int slot_bits = fp_bits; slot_bits <= fp_bits + 4096; ++slot_bits) {
      SCOPED_TRACE(testing::Message()
                   << "fp_bits=" << fp_bits << " slot_bits=" << slot_bits);
      const auto g = MakeLaneGeometry(64, fp_bits, slot_bits);
      ASSERT_GE(g.lanes, 1);
      ASSERT_LE((g.lanes - 1) * slot_bits + fp_bits, bucket_simd::kLoadBits);
      ASSERT_EQ(g.group_bits, g.lanes * slot_bits);
      ASSERT_EQ(std::popcount(g.highs), g.lanes);
      for (uint64_t flags = g.highs; flags != 0; flags &= flags - 1) {
        const int bit = std::countr_zero(flags);
        ASSERT_EQ(bucket_simd::LaneOfBit(bit, g), bit / slot_bits);
      }
    }
  }
}

// The lane kernel called directly on a table's bit store, against the
// MatchMaskScalar reference: every fingerprint width 1..32, slot widths up
// to 64 bits and past them, every slot count 1..16 (partial final lane
// groups included) plus 31, 33 and 64. When slots * slot_bits is odd, the
// 8 buckets start at the 8 intra-byte bit phases.
TEST(BucketViewTest, LaneKernelMatchesScalarAcrossWidths) {
  Rng rng(20261017);
  for (int fp_bits = 1; fp_bits <= 32; ++fp_bits) {
    const uint32_t fp_mask = FpMask(fp_bits);
    for (int slot_bits :
         {fp_bits, fp_bits + 1, fp_bits + 7, 28, 33, 36, 47, 64, 100}) {
      if (slot_bits < fp_bits) continue;
      std::vector<int> slot_counts;
      for (int slots = 1; slots <= 16; ++slots) slot_counts.push_back(slots);
      slot_counts.insert(slot_counts.end(), {31, 33, 64});
      for (int slots : slot_counts) {
        SCOPED_TRACE(testing::Message() << "fp_bits=" << fp_bits
                                        << " slot_bits=" << slot_bits
                                        << " slots=" << slots);
        auto t = BucketTable::Make(8, slots, fp_bits, slot_bits - fp_bits)
                     .ValueOrDie();
        // Low-entropy fingerprints so repeated matches occur.
        FillRandom(&t, &rng, 4);
        const auto g = bucket_simd::MakeLaneGeometry(slots, fp_bits, slot_bits);
        for (uint64_t b = 0; b < t.num_buckets(); ++b) {
          const size_t first = static_cast<size_t>(b) *
                               static_cast<size_t>(slots) *
                               static_cast<size_t>(slot_bits);
          for (uint32_t fp :
               {uint32_t{0}, uint32_t{1} & fp_mask, uint32_t{2} & fp_mask,
                uint32_t{3} & fp_mask, fp_mask,
                static_cast<uint32_t>(rng.Next()) & fp_mask}) {
            const uint64_t want = t.MatchMaskScalar(b, fp);
            ASSERT_EQ(bucket_simd::MatchLanes(*t.bits(), first, fp, g), want)
                << "bucket=" << b << " fp=" << fp;
            ASSERT_EQ(t.MatchMask(b, fp), want)
                << "bucket=" << b << " fp=" << fp;
          }
        }
      }
    }
  }
}

// Buckets with more than 32 slots: one load holds up to 57 one-bit fields,
// so the match of slot 35 must land at bit 35 of the 64-bit mask (a 32-bit
// lane mask once dropped it; UBSan flagged the shift).
TEST(BucketViewTest, WideBucketNarrowFingerprintRegression) {
  {
    auto t = BucketTable::Make(16, 40, 1, 0).ValueOrDie();
    t.Put(3, 35, 1);
    EXPECT_EQ(t.MatchMaskScalar(3, 1), uint64_t{1} << 35);
    EXPECT_EQ(t.MatchMask(3, 1), uint64_t{1} << 35);
  }
  Rng rng(7);
  for (int fp_bits : {1, 2}) {
    for (int payload_bits : {0, 1, 5}) {
      for (int slots = 33; slots <= 64; ++slots) {
        SCOPED_TRACE(testing::Message()
                     << "fp_bits=" << fp_bits << " slots=" << slots
                     << " payload_bits=" << payload_bits);
        auto t = BucketTable::Make(4, slots, fp_bits, payload_bits)
                     .ValueOrDie();
        // One match in the last slot, so the high mask bits are exercised
        // even when the random fill misses them.
        t.Put(1, slots - 1, 1);
        FillRandom(&t, &rng, uint64_t{1} << fp_bits);
        for (uint64_t b = 0; b < t.num_buckets(); ++b) {
          for (uint32_t fp = 0; fp < (uint32_t{1} << fp_bits); ++fp) {
            ASSERT_EQ(t.MatchMask(b, fp), t.MatchMaskScalar(b, fp))
                << "bucket=" << b << " fp=" << fp;
          }
        }
      }
    }
  }
}

// Geometries for the last-bucket tests: every lane count, partial final
// groups, 1-bit and 32-bit fingerprints, and 64-slot buckets.
const Geometry kEdgeGeometries[] = {
    {12, 6, 16},
    {12, 4, 16},
    {12, 5, 16},
    {12, 4, 24},
    {12, 7, 24},
    {12, 6, 8},
    {12, 4, 0},
    {16, 4, 0},
    {16, 8, 0},
    {8, 9, 5},
    {4, 2, 0},
    {1, 40, 0},
    {1, 64, 0},
    {2, 64, 1},
    {32, 4, 0},
    {32, 3, 17},
    {12, 6, 100},
};

// Last-bucket edge: the last lane group's load reads 8 bytes from its
// first slot's first byte, so probing the FINAL bucket of a table reads
// into the BitVector guard word. It must stay bit-identical to scalar; the
// ASan CI leg turns any read past the guard word into a hard failure.
TEST(BucketViewTest, LastBucketGuardWordSafety) {
  Rng rng(41);
  for (const Geometry& g : kEdgeGeometries) {
    for (uint64_t num_buckets : {1, 2, 3, 5, 16}) {
      SCOPED_TRACE(testing::Message()
                   << "fp_bits=" << g.fp_bits << " slots=" << g.slots
                   << " payload_bits=" << g.payload_bits
                   << " num_buckets=" << num_buckets);
      auto t = BucketTable::Make(num_buckets, g.slots, g.fp_bits,
                                 g.payload_bits)
                   .ValueOrDie();
      const uint32_t fp_mask = FpMask(g.fp_bits);
      for (uint64_t b = 0; b < t.num_buckets(); ++b) {
        for (int s = 0; s < t.slots_per_bucket(); ++s) {
          t.Put(b, s, static_cast<uint32_t>(rng.Next()) & fp_mask);
        }
      }
      const uint64_t last = t.num_buckets() - 1;
      t.PrefetchBucket(last);
      for (uint32_t fp : ProbesFor(t, last, &rng)) {
        EXPECT_EQ(t.MatchMask(last, fp), t.MatchMaskScalar(last, fp))
            << "fp=" << fp;
      }
    }
  }
}

// Copies `blob` into a heap buffer with exactly the 8 bytes of readable
// tail slack the AliasMapping contract documents: ASan reports any read
// further past the blob.
struct SlackBuffer {
  explicit SlackBuffer(const std::string& blob)
      : words(std::make_shared<std::vector<uint64_t>>(blob.size() / 8 + 1)) {
    std::memcpy(words->data(), blob.data(), blob.size());
  }
  std::string_view view(size_t size) const {
    return {reinterpret_cast<const char*>(words->data()), size};
  }
  AliasMapping alias() const {
    return AliasMapping{std::shared_ptr<const void>(words, words->data())};
  }
  std::shared_ptr<std::vector<uint64_t>> words;
};

// Alias-loaded tables have no owned guard word: the last bucket's loads
// may read at most the documented 8 bytes past the blob. The slot array is
// probed twice: inside an alias-loaded BucketTable, and as a bare
// BitVector blob so that the slot words are the blob's last bytes.
TEST(BucketViewTest, AliasLoadedLastBucketStaysInsideSlack) {
  Rng rng(43);
  for (const Geometry& g : kEdgeGeometries) {
    for (uint64_t num_buckets : {1, 2, 16}) {
      SCOPED_TRACE(testing::Message()
                   << "fp_bits=" << g.fp_bits << " slots=" << g.slots
                   << " payload_bits=" << g.payload_bits
                   << " num_buckets=" << num_buckets);
      auto t = BucketTable::Make(num_buckets, g.slots, g.fp_bits,
                                 g.payload_bits)
                   .ValueOrDie();
      FillRandom(&t, &rng, 4);
      const uint64_t last = t.num_buckets() - 1;

      std::string table_blob;
      ByteWriter table_writer(&table_blob);
      t.Save(&table_writer);
      SlackBuffer table_buf(table_blob);
      const AliasMapping table_alias = table_buf.alias();
      ByteReader table_reader(table_buf.view(table_blob.size()));
      auto loaded = BucketTable::Load(&table_reader, &table_alias).ValueOrDie();
      ASSERT_TRUE(loaded.bits()->aliased());

      std::string bits_blob;
      ByteWriter bits_writer(&bits_blob);
      t.bits()->Save(&bits_writer);
      SlackBuffer bits_buf(bits_blob);
      const AliasMapping bits_alias = bits_buf.alias();
      ByteReader bits_reader(bits_buf.view(bits_blob.size()));
      auto bits = BitVector::Load(&bits_reader, &bits_alias).ValueOrDie();
      ASSERT_TRUE(bits.aliased());

      const auto lanes = bucket_simd::MakeLaneGeometry(
          g.slots, g.fp_bits, g.fp_bits + g.payload_bits);
      const size_t first = static_cast<size_t>(last) *
                           static_cast<size_t>(g.slots) *
                           static_cast<size_t>(g.fp_bits + g.payload_bits);
      loaded.PrefetchBucket(last);
      for (uint32_t fp : ProbesFor(t, last, &rng)) {
        const uint64_t want = t.MatchMaskScalar(last, fp);
        EXPECT_EQ(loaded.MatchMask(last, fp), want) << "fp=" << fp;
        EXPECT_EQ(bucket_simd::MatchLanes(bits, first, fp, lanes), want)
            << "fp=" << fp;
      }
    }
  }
}

// The direct SWAR case: a payload-free bucket whose fingerprints all fit
// one load is matched with a single load, whatever bits follow the bucket
// (the next bucket, or garbage here) and at every intra-byte phase.
TEST(BucketViewTest, DirectSwarKernelAgreesWithScalar) {
  Rng rng(13);
  for (int width : {1, 4, 8, 12, 16}) {
    for (int lanes = 1; lanes * width <= bucket_simd::kLoadBits && lanes <= 16;
         ++lanes) {
      const auto g = bucket_simd::MakeLaneGeometry(lanes, width, width);
      ASSERT_EQ(g.lanes, lanes) << "width=" << width;
      const uint64_t lane_mask = (uint64_t{1} << width) - 1;
      for (int trial = 0; trial < 500; ++trial) {
        // Random word, including garbage above the last lane (the load
        // reads whatever follows the bucket; it must be ignored).
        uint64_t word = rng.Next();
        // Low-entropy probes (for collisions), capped to the lane width as
        // production fingerprints always are.
        const uint64_t fp_domain = std::min<uint64_t>(4, lane_mask + 1);
        const uint32_t fp = static_cast<uint32_t>(rng.NextBelow(fp_domain));
        if (trial % 3 == 0) {
          // Plant fp into some lanes so multi-match masks occur.
          for (int l = 0; l < lanes; ++l) {
            if (rng.NextBelow(2) == 0) {
              word &= ~(lane_mask << (l * width));
              word |= static_cast<uint64_t>(fp) << (l * width);
            }
          }
        }
        uint64_t expected = 0;
        for (int l = 0; l < lanes; ++l) {
          if (((word >> (l * width)) & lane_mask) == fp) {
            expected |= uint64_t{1} << l;
          }
        }
        const size_t phase = static_cast<size_t>(rng.NextBelow(8));
        BitVector bits(192);
        bits.SetField(phase, 64, word);
        bits.SetField(phase + 64, 64, rng.Next());
        EXPECT_EQ(bucket_simd::MatchLanes(bits, phase, fp, g), expected)
            << "width=" << width << " lanes=" << lanes << " word=" << word
            << " fp=" << fp << " phase=" << phase;
      }
    }
  }
}

}  // namespace
}  // namespace ccf
