#include "ccf/chained_ccf.h"

#include <gtest/gtest.h>

#include <vector>

#include "util/random.h"

namespace ccf {
namespace {

CcfConfig BaseConfig() {
  CcfConfig c;
  c.num_buckets = 1024;
  c.slots_per_bucket = 6;
  c.key_fp_bits = 12;
  c.attr_fp_bits = 8;
  c.num_attrs = 1;
  c.max_dupes = 3;
  c.max_chain = 0;  // unbounded
  c.salt = 13;
  return c;
}

std::unique_ptr<ConditionalCuckooFilter> MakeChained(const CcfConfig& c) {
  return ConditionalCuckooFilter::Make(CcfVariant::kChained, c).ValueOrDie();
}

TEST(ChainedCcfTest, BasicInsertQuery) {
  auto ccf = MakeChained(BaseConfig());
  ASSERT_TRUE(ccf->Insert(1, std::vector<uint64_t>{42}).ok());
  EXPECT_TRUE(ccf->ContainsKey(1));
  EXPECT_TRUE(ccf->Contains(1, Predicate::Equals(0, 42)));
  EXPECT_FALSE(ccf->Contains(1, Predicate::Equals(0, 43)));
  EXPECT_FALSE(ccf->ContainsKey(2));
}

TEST(ChainedCcfTest, StoresFarMoreDuplicatesThanOnePair) {
  // The headline capability: a single key with dozens of distinct attribute
  // values. A plain cuckoo pair caps at 2b = 12; chaining must absorb all.
  auto ccf = MakeChained(BaseConfig());
  constexpr uint64_t kDupes = 60;
  for (uint64_t v = 0; v < kDupes; ++v) {
    ASSERT_TRUE(ccf->Insert(7, std::vector<uint64_t>{v}).ok()) << v;
  }
  EXPECT_EQ(ccf->num_entries(), kDupes);
  // No false negatives for any of them (Theorem 3).
  for (uint64_t v = 0; v < kDupes; ++v) {
    EXPECT_TRUE(ccf->Contains(7, Predicate::Equals(0, v))) << v;
  }
  // Values never inserted (small, stored exactly) are rejected.
  EXPECT_FALSE(ccf->Contains(7, Predicate::Equals(0, 200)));
}

TEST(ChainedCcfTest, LemmaOneAtMostDCopiesPerPair) {
  CcfConfig config = BaseConfig();
  auto base = ConditionalCuckooFilter::Make(CcfVariant::kChained, config)
                  .ValueOrDie();
  auto* ccf = static_cast<ChainedCcf*>(base.get());
  Rng rng(5);
  for (int i = 0; i < 4000; ++i) {
    uint64_t key = rng.NextBelow(100);
    ASSERT_TRUE(ccf->Insert(key, std::vector<uint64_t>{rng.Next()}).ok());
  }
  // Scan every bucket pair: no fingerprint may appear more than d times in
  // the pair {ℓ, ℓ ⊕ h(κ)} (Lemma 1).
  const BucketTable& t = ccf->table();
  for (uint64_t b = 0; b < t.num_buckets(); ++b) {
    for (int s = 0; s < t.slots_per_bucket(); ++s) {
      if (!t.occupied(b, s)) continue;
      uint32_t fp = t.fingerprint(b, s);
      uint64_t alt = cuckoo_addressing::AltBucket(ccf->hasher(), b, fp,
                                                  t.bucket_mask());
      int count = t.CountFingerprint(b, fp);
      if (alt != b) count += t.CountFingerprint(alt, fp);
      ASSERT_LE(count, config.max_dupes)
          << "fp " << fp << " overflows pair {" << b << "," << alt << "}";
    }
  }
}

TEST(ChainedCcfTest, KeyOnlyQueryChecksOnlyFirstPair) {
  // §7.1: ContainsKey is pair-local. Verify positives stay correct when a
  // key's copies span multiple chain pairs.
  auto ccf = MakeChained(BaseConfig());
  for (uint64_t v = 0; v < 30; ++v) {
    ASSERT_TRUE(ccf->Insert(99, std::vector<uint64_t>{v}).ok());
  }
  EXPECT_TRUE(ccf->ContainsKey(99));
}

TEST(ChainedCcfTest, CollapsesIdenticalRowsAcrossChain) {
  auto ccf = MakeChained(BaseConfig());
  // Fill two chain pairs, then re-insert an early row — must dedupe, not
  // append.
  for (uint64_t v = 0; v < 10; ++v) {
    ASSERT_TRUE(ccf->Insert(5, std::vector<uint64_t>{v}).ok());
  }
  uint64_t entries = ccf->num_entries();
  ASSERT_TRUE(ccf->Insert(5, std::vector<uint64_t>{0}).ok());
  ASSERT_TRUE(ccf->Insert(5, std::vector<uint64_t>{9}).ok());
  EXPECT_EQ(ccf->num_entries(), entries);
}

TEST(ChainedCcfTest, FiniteChainCapReturnsTrueConservatively) {
  CcfConfig c = BaseConfig();
  c.max_chain = 2;  // Lmax = 2
  auto base = ConditionalCuckooFilter::Make(CcfVariant::kChained, c)
                  .ValueOrDie();
  auto* ccf = static_cast<ChainedCcf*>(base.get());
  // 2 pairs × d=3 = 6 storable distinct rows; the rest overflow.
  for (uint64_t v = 0; v < 20; ++v) {
    ASSERT_TRUE(ccf->Insert(3, std::vector<uint64_t>{v}).ok());
  }
  EXPECT_GT(ccf->num_overflow_rows(), 0u);
  // Overflowed rows must still answer true — even for values never
  // inserted: the terminal case is conservative by design (Theorem 3).
  for (uint64_t v = 0; v < 20; ++v) {
    EXPECT_TRUE(ccf->Contains(3, Predicate::Equals(0, v)));
  }
  EXPECT_TRUE(ccf->Contains(3, Predicate::Equals(0, 999)));
}

TEST(ChainedCcfTest, ChainLongerThanHardChainCap) {
  // A configured Lmax above kHardChainCap: one key's chain runs past the
  // walk's inline visited capacity on the insert, probe and marked-filter
  // walks alike.
  CcfConfig c = BaseConfig();
  c.max_dupes = 1;
  c.max_chain = 3 * kHardChainCap;
  const uint64_t kRows = 2 * kHardChainCap + 10;
  std::vector<uint64_t> keys(kRows, 5);
  std::vector<uint64_t> attrs;
  for (uint64_t v = 0; v < kRows; ++v) attrs.push_back(v);
  auto batch = MakeChained(c);
  ASSERT_TRUE(batch->InsertBatch(keys, attrs).ok());
  auto scalar = MakeChained(c);
  for (uint64_t v = 0; v < kRows; ++v) {
    ASSERT_TRUE(scalar->Insert(5, std::vector<uint64_t>{v}).ok());
  }
  for (const auto* ccf : {batch.get(), scalar.get()}) {
    const auto& chained = static_cast<const ChainedCcf&>(*ccf);
    EXPECT_GT(chained.max_chain_seen(), kHardChainCap);
    EXPECT_EQ(chained.num_overflow_rows(), 0u);
    for (uint64_t v = 0; v < kRows; ++v) {
      ASSERT_TRUE(ccf->Contains(5, Predicate::Equals(0, v))) << v;
    }
    auto marked = ccf->PredicateQuery(Predicate::Equals(0, kRows - 1));
    ASSERT_TRUE(marked.ok());
    EXPECT_TRUE(marked.ValueOrDie()->Contains(5));
  }
  EXPECT_EQ(batch->Serialize(), scalar->Serialize());
}

TEST(ChainedCcfTest, HighLoadFactorWithSkewedDuplicates) {
  // Figure 4's claim: chaining sustains ≈87% load at b=6 under heavy
  // duplication.
  CcfConfig c = BaseConfig();
  c.num_buckets = 512;
  auto ccf = MakeChained(c);
  uint64_t capacity = c.num_buckets * 6;
  Rng rng(21);
  uint64_t inserted = 0;
  for (uint64_t i = 0; i < capacity * 2; ++i) {
    uint64_t key = rng.NextBelow(capacity / 8);  // ~8 dupes per key
    uint64_t attr = rng.Next();
    if (!ccf->Insert(key, std::vector<uint64_t>{attr}).ok()) break;
    ++inserted;
  }
  EXPECT_GT(ccf->LoadFactor(), 0.80);
}

TEST(ChainedCcfTest, MaxChainSeenTracksWalkDepth) {
  CcfConfig c = BaseConfig();
  auto base = ConditionalCuckooFilter::Make(CcfVariant::kChained, c)
                  .ValueOrDie();
  auto* ccf = static_cast<ChainedCcf*>(base.get());
  EXPECT_EQ(ccf->max_chain_seen(), 0);
  for (uint64_t v = 0; v < 10; ++v) {
    ASSERT_TRUE(ccf->Insert(1, std::vector<uint64_t>{v}).ok());
  }
  EXPECT_GE(ccf->max_chain_seen(), 2);  // 10 rows at d=3 → at least 3 pairs
}

TEST(ChainedCcfTest, MultiAttributeCoOccurrence) {
  CcfConfig c = BaseConfig();
  c.num_attrs = 2;
  auto ccf = MakeChained(c);
  ASSERT_TRUE(ccf->Insert(1, std::vector<uint64_t>{1, 2}).ok());
  ASSERT_TRUE(ccf->Insert(1, std::vector<uint64_t>{3, 4}).ok());
  EXPECT_TRUE(ccf->Contains(1, Predicate::Equals(0, 1).AndEquals(1, 2)));
  EXPECT_FALSE(ccf->Contains(1, Predicate::Equals(0, 1).AndEquals(1, 4)));
}

TEST(ChainedCcfTest, NoFalseNegativesUnderRandomWorkload) {
  CcfConfig c = BaseConfig();
  c.num_buckets = 2048;
  auto ccf = MakeChained(c);
  Rng rng(3);
  std::vector<std::pair<uint64_t, uint64_t>> rows;
  for (int i = 0; i < 6000; ++i) {
    uint64_t key = rng.NextBelow(400);  // heavy duplication
    uint64_t attr = rng.NextBelow(1000);
    Status st = ccf->Insert(key, std::vector<uint64_t>{attr});
    ASSERT_TRUE(st.ok()) << i << ": " << st.ToString();
    rows.emplace_back(key, attr);
  }
  for (const auto& [key, attr] : rows) {
    ASSERT_TRUE(ccf->Contains(key, Predicate::Equals(0, attr)))
        << key << "," << attr;
    ASSERT_TRUE(ccf->ContainsKey(key));
  }
}

TEST(ChainedCcfTest, PredicateFprScalesWithAttributeBits) {
  // 8-bit attribute fingerprints should reject far more non-matching
  // predicates than 4-bit ones (Figure 8's observation).
  for (int bits : {4, 8}) {
    CcfConfig c = BaseConfig();
    c.attr_fp_bits = bits;
    c.small_value_opt = false;  // force hashing so collisions are possible
    auto ccf = MakeChained(c);
    Rng rng(1);
    for (uint64_t k = 0; k < 1500; ++k) {
      ASSERT_TRUE(
          ccf->Insert(k, std::vector<uint64_t>{rng.NextBelow(1000) + 1000})
              .ok());
    }
    int fp = 0;
    int probes = 0;
    for (uint64_t k = 0; k < 1500; ++k) {
      // Query present keys with an attribute value outside the inserted
      // domain: every true is an attribute-sketch false positive.
      if (ccf->Contains(k, Predicate::Equals(0, 5000))) ++fp;
      ++probes;
    }
    double fpr = static_cast<double>(fp) / probes;
    if (bits == 4) {
      EXPECT_GT(fpr, 0.01);
      EXPECT_LT(fpr, 0.25);  // ~2^-4 = 6.25% expected
    } else {
      EXPECT_LT(fpr, 0.03);  // ~2^-8 ≈ 0.4% expected
    }
  }
}

}  // namespace
}  // namespace ccf
