// ChainWalk unit tests: the deterministic chain-of-pairs sequence (Lemma 2)
// and the cycle-extension behaviour (§6.2) that inserts and queries must
// reproduce identically.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "ccf/ccf_base.h"

namespace ccf {
namespace {

TEST(BucketPairTest, CanonicalIsOrderIndependent) {
  BucketPair a{3, 9};
  BucketPair b{9, 3};
  EXPECT_EQ(a.Canonical(16), b.Canonical(16));
  EXPECT_FALSE(a.degenerate());
  EXPECT_TRUE((BucketPair{5, 5}).degenerate());
}

TEST(ChainWalkTest, FirstPairUsesXorInvolution) {
  Hasher hasher(7);
  uint64_t mask = 1023;
  ChainWalk walk(&hasher, mask, /*start=*/17, /*fp=*/0x5A);
  EXPECT_EQ(walk.pair().primary, 17u);
  EXPECT_EQ(walk.pair().alt,
            cuckoo_addressing::AltBucket(hasher, 17, 0x5A, mask));
  EXPECT_EQ(walk.hops(), 0);
}

TEST(ChainWalkTest, IdenticalWalksFromSameInputs) {
  Hasher hasher(11);
  uint64_t mask = 255;
  ChainWalk a(&hasher, mask, 5, 0x33);
  ChainWalk b(&hasher, mask, 5, 0x33);
  for (int hop = 0; hop < 32; ++hop) {
    ASSERT_EQ(a.pair().primary, b.pair().primary) << hop;
    ASSERT_EQ(a.pair().alt, b.pair().alt) << hop;
    a.Advance();
    b.Advance();
  }
}

TEST(ChainWalkTest, WalkIsDeterminedByPairNotEntryBucket) {
  // Lemma 2: starting from either bucket of the same pair yields the same
  // chain (the chain hash uses min{ℓ, ℓ′}).
  Hasher hasher(13);
  uint64_t mask = 511;
  uint32_t fp = 0x77;
  uint64_t primary = 100;
  uint64_t alt = cuckoo_addressing::AltBucket(hasher, primary, fp, mask);
  ChainWalk from_primary(&hasher, mask, primary, fp);
  ChainWalk from_alt(&hasher, mask, alt, fp);
  for (int hop = 0; hop < 16; ++hop) {
    ASSERT_EQ(from_primary.pair().Canonical(mask + 1),
              from_alt.pair().Canonical(mask + 1))
        << hop;
    from_primary.Advance();
    from_alt.Advance();
  }
}

TEST(ChainWalkTest, AvoidsRevisitingPairsViaCycleExtension) {
  // With a tiny table, the naive chain hash must cycle quickly; the
  // extension keeps producing fresh pairs for a while.
  Hasher hasher(3);
  uint64_t mask = 15;  // 16 buckets → at most 136 distinct pairs
  ChainWalk walk(&hasher, mask, 2, 0x9);
  std::set<uint64_t> seen;
  seen.insert(walk.pair().Canonical(mask + 1));
  int fresh = 0;
  for (int hop = 0; hop < 12; ++hop) {
    walk.Advance();
    if (seen.insert(walk.pair().Canonical(mask + 1)).second) ++fresh;
  }
  // For one fingerprint every pair has the form {b, b ⊕ h(κ)}, so 16
  // buckets admit at most 8 distinct pairs; the extension should reach most
  // of them instead of looping on the first revisit (the naive chain hash
  // typically cycles within 2-3 hops at this size).
  EXPECT_GE(fresh, 5);
  EXPECT_LE(seen.size(), 8u);
}

TEST(ChainWalkTest, DifferentFingerprintsWalkDifferentChains) {
  Hasher hasher(5);
  uint64_t mask = 1023;
  ChainWalk a(&hasher, mask, 10, 0x11);
  ChainWalk b(&hasher, mask, 10, 0x12);
  int same = 0;
  for (int hop = 0; hop < 16; ++hop) {
    if (a.pair().Canonical(mask + 1) == b.pair().Canonical(mask + 1)) ++same;
    a.Advance();
    b.Advance();
  }
  EXPECT_LE(same, 1);  // only coincidental overlaps
}

// ChainWalk keeps its first kHardChainCap visited pairs inline and spills
// the rest; its pair sequence must match a plain vector-backed walk well
// past that point, including pairs first seen after the spill, and again
// after a Restart.
TEST(ChainWalkTest, MatchesVectorWalkPastHardChainCap) {
  constexpr uint32_t kMaxCycleRounds = 8;  // ChainWalk's extension bound
  struct ReferenceWalk {
    const Hasher* hasher;
    uint64_t mask;
    uint32_t fp;
    BucketPair pair;
    std::vector<uint64_t> visited;

    BucketPair MakePair(uint64_t b) const {
      return {b, cuckoo_addressing::AltBucket(*hasher, b, fp, mask)};
    }
    void Start(uint64_t b, uint32_t f) {
      fp = f;
      pair = MakePair(b);
      visited = {pair.Canonical(mask + 1)};
    }
    void Advance() {
      uint64_t base = std::min(pair.primary, pair.alt);
      for (uint32_t round = 0;; ++round) {
        BucketPair c = MakePair(hasher->HashPair(base, fp, round) & mask);
        uint64_t canonical = c.Canonical(mask + 1);
        bool seen = std::find(visited.begin(), visited.end(), canonical) !=
                    visited.end();
        if (!seen || round >= kMaxCycleRounds) {
          pair = c;
          visited.push_back(canonical);
          return;
        }
      }
    }
  };
  Hasher hasher(21);
  for (uint64_t mask : {uint64_t{255}, uint64_t{1023}}) {
    for (uint32_t fp : {0x3u, 0x5Au, 0x7FFu}) {
      ChainWalk walk(&hasher, mask, 7, fp);
      ReferenceWalk ref{&hasher, mask, 0, {}, {}};
      for (int restart = 0; restart < 2; ++restart) {
        const uint64_t start = 7 + 100 * static_cast<uint64_t>(restart);
        if (restart > 0) walk.Restart(start, fp);
        ref.Start(start, fp);
        for (int hop = 0; hop < 3 * kHardChainCap; ++hop) {
          ASSERT_EQ(walk.pair().primary, ref.pair.primary)
              << "mask " << mask << " fp " << fp << " hop " << hop;
          ASSERT_EQ(walk.pair().alt, ref.pair.alt);
          walk.Advance();
          ref.Advance();
        }
      }
    }
  }
}

TEST(ChainWalkTest, HopsCountAdvances) {
  Hasher hasher(1);
  ChainWalk walk(&hasher, 255, 0, 1);
  for (int i = 1; i <= 5; ++i) {
    walk.Advance();
    EXPECT_EQ(walk.hops(), i);
  }
}

}  // namespace
}  // namespace ccf
