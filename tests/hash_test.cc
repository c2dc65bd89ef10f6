#include "hash/lookup3.h"

#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "hash/fingerprint.h"
#include "hash/hasher.h"

namespace ccf {
namespace {

TEST(Lookup3Test, DeterministicAndSeedSensitive) {
  const char* data = "conditional cuckoo";
  uint32_t a = Lookup3Hash32(data, std::strlen(data), 0);
  uint32_t b = Lookup3Hash32(data, std::strlen(data), 0);
  uint32_t c = Lookup3Hash32(data, std::strlen(data), 1);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(Lookup3Test, ZeroLengthIsSeedDependentConstant) {
  uint32_t a = Lookup3Hash32(nullptr, 0, 5);
  uint32_t b = Lookup3Hash32(nullptr, 0, 5);
  EXPECT_EQ(a, b);
}

TEST(Lookup3Test, AllTailLengthsDiffer) {
  // Exercise every switch arm (1..12 trailing bytes) plus a >12 block.
  std::string base(32, 'x');
  std::set<uint32_t> hashes;
  for (size_t len = 0; len <= 32; ++len) {
    hashes.insert(Lookup3Hash32(base.data(), len, 0));
  }
  // All 33 prefixes should hash distinctly (lookup3 mixes length in).
  EXPECT_EQ(hashes.size(), 33u);
}

TEST(Lookup3Test, SingleBitChangesPropagate) {
  uint64_t key = 0x1234567890abcdefull;
  uint64_t h0 = Lookup3Hash64(key, 0);
  for (int bit = 0; bit < 64; ++bit) {
    uint64_t h = Lookup3Hash64(key ^ (uint64_t{1} << bit), 0);
    EXPECT_NE(h, h0) << "flipping bit " << bit << " left hash unchanged";
  }
}

TEST(Lookup3Test, Hash2ProducesTwoIndependentWords) {
  uint32_t pc = 0, pb = 0;
  const char* s = "abcdefgh";
  Lookup3Hash2(s, 8, &pc, &pb);
  EXPECT_NE(pc, pb);
}

// Lookup3Hash64 is hashlittle2 specialised to 8 bytes; these values were
// recorded from the general byte-wise Lookup3Hash2 path.
TEST(Lookup3Test, Hash64KnownAnswers) {
  struct Case {
    uint64_t key, seed, hash;
  };
  const Case cases[] = {
      {0x0000000000000000ull, 0x0000000000000000ull, 0x43f8ce9e58c184bfull},
      {0x0000000000000001ull, 0x0000000000000000ull, 0xcce8c71c5543253full},
      {0x0000000000000000ull, 0x0000000000000001ull, 0xb71f08f20ee58a0dull},
      {0x0123456789abcdefull, 0xfedcba9876543210ull, 0xa35364fb315b87bdull},
      {0xffffffffffffffffull, 0xffffffffffffffffull, 0x6d2c911323700e53ull},
      {0x000000000000002aull, 0x9e3779b97f4a7c15ull, 0x53e23d21c55d96c0ull},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(Lookup3Hash64(c.key, c.seed), c.hash)
        << std::hex << "key 0x" << c.key << " seed 0x" << c.seed;
  }
}

// Differential: the inline 8-byte form against Lookup3Hash2 over the key's
// little-endian bytes, seeds split the same way (low word -> *pc, high
// word -> *pb), on random keys and seeds.
TEST(Lookup3Test, Hash64MatchesHash2OverEightBytes) {
  uint64_t state = 0x853c49e6748fea9bull;
  auto next = [&state] {  // splitmix64
    uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  };
  for (int i = 0; i < 100000; ++i) {
    const uint64_t key = next();
    const uint64_t seed = next();
    unsigned char bytes[8];
    for (int j = 0; j < 8; ++j) {
      bytes[j] = static_cast<unsigned char>(key >> (8 * j));
    }
    uint32_t pc = static_cast<uint32_t>(seed);
    uint32_t pb = static_cast<uint32_t>(seed >> 32);
    Lookup3Hash2(bytes, sizeof(bytes), &pc, &pb);
    ASSERT_EQ(Lookup3Hash64(key, seed), (uint64_t{pb} << 32) | pc)
        << std::hex << "key 0x" << key << " seed 0x" << seed;
  }
}

TEST(Lookup3Test, AvalancheQuality) {
  // Flipping one input bit should flip ~half the output bits on average.
  uint64_t total_flipped = 0;
  int trials = 0;
  for (uint64_t key = 1; key <= 64; ++key) {
    uint64_t h0 = Lookup3Hash64(key, 7);
    for (int bit = 0; bit < 64; bit += 8) {
      uint64_t h1 = Lookup3Hash64(key ^ (uint64_t{1} << bit), 7);
      total_flipped += static_cast<uint64_t>(__builtin_popcountll(h0 ^ h1));
      ++trials;
    }
  }
  double mean = static_cast<double>(total_flipped) / trials;
  EXPECT_GT(mean, 24.0);
  EXPECT_LT(mean, 40.0);
}

TEST(HasherTest, FamilyMembersAreIndependent) {
  Hasher h(42);
  EXPECT_NE(h.Hash(1, 0), h.Hash(1, 1));
  EXPECT_NE(h.Hash(1, 0), h.Hash(2, 0));
}

TEST(HasherTest, SaltChangesEverything) {
  Hasher a(1), b(2);
  int collisions = 0;
  for (uint64_t k = 0; k < 100; ++k) {
    if (a.Hash(k) == b.Hash(k)) ++collisions;
  }
  EXPECT_EQ(collisions, 0);
}

TEST(HasherTest, HashBytesMatchesContent) {
  Hasher h(9);
  EXPECT_EQ(h.HashBytes("abc"), h.HashBytes("abc"));
  EXPECT_NE(h.HashBytes("abc"), h.HashBytes("abd"));
  EXPECT_NE(h.HashBytes("abc", 0), h.HashBytes("abc", 1));
}

TEST(HasherTest, HashPairDependsOnAllInputs) {
  Hasher h(3);
  uint64_t base = h.HashPair(10, 20, 0);
  EXPECT_NE(base, h.HashPair(11, 20, 0));
  EXPECT_NE(base, h.HashPair(10, 21, 0));
  EXPECT_NE(base, h.HashPair(10, 20, 1));  // cycle-extension round
  EXPECT_EQ(base, h.HashPair(10, 20, 0));
}

TEST(FingerprintTest, UsesHighBits) {
  // The fingerprint must come from the high bits so it stays uncorrelated
  // with bucket indices derived from low bits.
  uint64_t h = 0xF00D000000000000ull;
  EXPECT_EQ(FingerprintFromHash(h, 8), 0xF0u);
  EXPECT_EQ(FingerprintFromHash(h, 16), 0xF00Du);
}

TEST(FingerprintTest, SmallValueOptimizationStoresExactly) {
  Hasher h(5);
  // §9: values below 2^bits are stored as-is → zero collisions among them.
  for (uint64_t v = 0; v < 16; ++v) {
    EXPECT_EQ(AttributeFingerprint(h, v, 4, /*small_value_opt=*/true), v);
  }
  // Large values get hashed into range.
  uint32_t fp = AttributeFingerprint(h, 1'000'000, 4, true);
  EXPECT_LT(fp, 16u);
}

TEST(FingerprintTest, WithoutOptimizationSmallValuesHash) {
  Hasher h(5);
  bool any_moved = false;
  for (uint64_t v = 0; v < 16; ++v) {
    if (AttributeFingerprint(h, v, 4, /*small_value_opt=*/false) != v) {
      any_moved = true;
    }
  }
  EXPECT_TRUE(any_moved);
}

TEST(FingerprintTest, FingerprintDistributionCoversSpace) {
  Hasher h(8);
  std::set<uint32_t> seen;
  for (uint64_t v = 1000; v < 3000; ++v) {
    seen.insert(AttributeFingerprint(h, v, 8, true));
  }
  // 2000 hashed values over 256 codes should hit nearly all of them.
  EXPECT_GT(seen.size(), 250u);
}

}  // namespace
}  // namespace ccf
