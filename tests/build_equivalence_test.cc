// Build-equivalence suite for the bulk-build fast path: filters built
// through the two-wave InsertBatch pipeline must agree with scalar-Insert
// built filters on everything the build contract guarantees — entry/row
// counts, load factor, and answers for inserted rows (no false negatives,
// matching-predicate queries true in both) — across all four variants and
// the sharded container. Slot assignment may differ (placement order
// differs), so absent-key false positives are compared statistically, not
// bitwise. The doubling-rebuild memo gets the strongest check available:
// a rebuild that re-places rows from the cached hashes must serialize
// bit-identically to a from-scratch rebuild at the same geometry.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "ccf/ccf.h"
#include "ccf/sharded_ccf.h"
#include "cuckoo/cuckoo_filter.h"
#include "util/batch_pipeline.h"
#include "util/random.h"

namespace ccf {
namespace {

CcfConfig EquivConfig(uint64_t num_buckets, uint64_t salt) {
  CcfConfig config;
  config.num_buckets = num_buckets;
  config.slots_per_bucket = 6;
  config.key_fp_bits = 12;
  config.attr_fp_bits = 8;
  config.num_attrs = 2;
  config.max_dupes = 3;
  config.salt = salt;
  return config;
}

struct Rows {
  std::vector<uint64_t> keys;
  std::vector<uint64_t> flat_attrs;  // row-major, 2 per key
};

// Every key appears ~4 times with varying attributes: exercises duplicate
// collapsing, chain growth past d, and Mixed's Bloom conversion.
Rows MakeRows(size_t n, uint64_t seed) {
  Rows rows;
  Rng rng(seed);
  size_t num_keys = n / 4;
  for (size_t i = 0; i < n; ++i) {
    rows.keys.push_back(static_cast<uint64_t>(i % num_keys));
    rows.flat_attrs.push_back(rng.NextBelow(200));
    rows.flat_attrs.push_back(rng.NextBelow(50));
  }
  return rows;
}

std::span<const uint64_t> RowAttrs(const Rows& rows, size_t i) {
  return std::span<const uint64_t>(&rows.flat_attrs[2 * i], 2);
}

class BuildEquivalenceTest : public ::testing::TestWithParam<CcfVariant> {};

TEST_P(BuildEquivalenceTest, BatchBuildMatchesScalarBuild) {
  Rows rows = MakeRows(12000, 23);
  CcfConfig config = EquivConfig(4096, 17);

  auto scalar = ConditionalCuckooFilter::Make(GetParam(), config).ValueOrDie();
  for (size_t i = 0; i < rows.keys.size(); ++i) {
    ASSERT_TRUE(scalar->Insert(rows.keys[i], RowAttrs(rows, i)).ok());
  }
  auto batch = ConditionalCuckooFilter::Make(GetParam(), config).ValueOrDie();
  ASSERT_TRUE(batch->InsertBatch(rows.keys, rows.flat_attrs).ok());

  // Structural agreement: same entry multiset sizes and accepted rows.
  EXPECT_EQ(batch->num_entries(), scalar->num_entries());
  EXPECT_EQ(batch->num_rows(), scalar->num_rows());
  EXPECT_DOUBLE_EQ(batch->LoadFactor(), scalar->LoadFactor());
  EXPECT_EQ(batch->SizeInBits(), scalar->SizeInBits());

  // No false negatives, and matching-predicate answers agree (both true).
  for (size_t i = 0; i < rows.keys.size(); ++i) {
    ASSERT_TRUE(batch->ContainsKey(rows.keys[i])) << "row " << i;
    ASSERT_TRUE(batch->ContainsRow(rows.keys[i], RowAttrs(rows, i)))
        << "row " << i;
    ASSERT_TRUE(scalar->ContainsRow(rows.keys[i], RowAttrs(rows, i)))
        << "row " << i;
  }

  // Absent keys: slot assignment differs between the builds, so individual
  // false positives may too; the rates must stay statistically equal.
  Rng rng(99);
  Predicate pred = Predicate::Equals(0, 42).AndEquals(1, 7);
  size_t fp_scalar = 0, fp_batch = 0;
  constexpr size_t kProbes = 20000;
  for (size_t i = 0; i < kProbes; ++i) {
    uint64_t absent = (1u << 20) + rng.NextBelow(1u << 20);
    fp_scalar += scalar->Contains(absent, pred) ? 1 : 0;
    fp_batch += batch->Contains(absent, pred) ? 1 : 0;
  }
  double rate_scalar = static_cast<double>(fp_scalar) / kProbes;
  double rate_batch = static_cast<double>(fp_batch) / kProbes;
  EXPECT_NEAR(rate_batch, rate_scalar, 0.02);
}

TEST_P(BuildEquivalenceTest, InsertBatchIsDeterministic) {
  Rows rows = MakeRows(8000, 31);
  CcfConfig config = EquivConfig(4096, 3);
  auto a = ConditionalCuckooFilter::Make(GetParam(), config).ValueOrDie();
  auto b = ConditionalCuckooFilter::Make(GetParam(), config).ValueOrDie();
  ASSERT_TRUE(a->InsertBatch(rows.keys, rows.flat_attrs).ok());
  ASSERT_TRUE(b->InsertBatch(rows.keys, rows.flat_attrs).ok());
  EXPECT_EQ(a->Serialize(), b->Serialize());
}

TEST_P(BuildEquivalenceTest, MemoizedDoublingRebuildMatchesFromScratch) {
  Rows rows = MakeRows(12000, 41);

  // Force the §4.1 failure: 128 buckets × 6 slots cannot absorb 12000 rows,
  // so the first batched build must hit CapacityError — but its address
  // pass still fills the memo.
  std::vector<uint64_t> memo;
  CcfConfig small = EquivConfig(128, 29);
  auto failed = ConditionalCuckooFilter::Make(GetParam(), small).ValueOrDie();
  EXPECT_FALSE(failed->InsertBatch(rows.keys, rows.flat_attrs, &memo).ok());
  ASSERT_EQ(memo.size(), 2 * rows.keys.size());  // (key hash, payload) pairs

  // The doubling retries re-place from the memo; prove the memoized path
  // changes nothing by comparing against a from-scratch build at the same
  // (adequate) doubled geometry, bit for bit.
  CcfConfig doubled = EquivConfig(4096, 29);
  auto via_memo =
      ConditionalCuckooFilter::Make(GetParam(), doubled).ValueOrDie();
  ASSERT_TRUE(via_memo->InsertBatch(rows.keys, rows.flat_attrs, &memo).ok());
  auto from_scratch =
      ConditionalCuckooFilter::Make(GetParam(), doubled).ValueOrDie();
  ASSERT_TRUE(from_scratch->InsertBatch(rows.keys, rows.flat_attrs).ok());
  EXPECT_EQ(via_memo->Serialize(), from_scratch->Serialize());
}

TEST_P(BuildEquivalenceTest, ShardedBatchBuildMatchesScalarRoute) {
  Rows rows = MakeRows(12000, 53);
  CcfConfig config = EquivConfig(8192, 11);
  ShardedCcfOptions opts;
  opts.num_shards = 4;

  auto scalar = ShardedCcf::Make(GetParam(), config, opts).ValueOrDie();
  for (size_t i = 0; i < rows.keys.size(); ++i) {
    ASSERT_TRUE(scalar->Insert(rows.keys[i], RowAttrs(rows, i)).ok());
  }
  auto batch = ShardedCcf::Make(GetParam(), config, opts).ValueOrDie();
  ASSERT_TRUE(
      batch->InsertParallel(rows.keys, rows.flat_attrs, /*num_threads=*/4)
          .ok());

  EXPECT_EQ(batch->num_entries(), scalar->num_entries());
  EXPECT_EQ(batch->num_rows(), scalar->num_rows());
  for (size_t i = 0; i < rows.keys.size(); ++i) {
    ASSERT_TRUE(batch->ContainsRow(rows.keys[i], RowAttrs(rows, i)))
        << "row " << i;
  }

  // Memoized sharded rebuild == from-scratch sharded rebuild, bit for bit
  // (the shard route and in-shard hashes are both salt-only).
  std::vector<uint64_t> memo;
  auto first = ShardedCcf::Make(GetParam(), config, opts).ValueOrDie();
  ASSERT_TRUE(first
                  ->InsertParallel(rows.keys, rows.flat_attrs,
                                   /*num_threads=*/2, &memo)
                  .ok());
  ASSERT_EQ(memo.size(), 2 * rows.keys.size());
  auto rebuilt = ShardedCcf::Make(GetParam(), config, opts).ValueOrDie();
  ASSERT_TRUE(rebuilt
                  ->InsertParallel(rows.keys, rows.flat_attrs,
                                   /*num_threads=*/2, &memo)
                  .ok());
  EXPECT_EQ(rebuilt->Serialize(), batch->Serialize());
  EXPECT_EQ(rebuilt->Serialize(), first->Serialize());
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, BuildEquivalenceTest,
    ::testing::Values(CcfVariant::kPlain, CcfVariant::kChained,
                      CcfVariant::kBloom, CcfVariant::kMixed),
    [](const ::testing::TestParamInfo<CcfVariant>& pinfo) {
      return std::string(CcfVariantName(pinfo.param));
    });

TEST(CuckooFilterInsertBatchTest, MatchesScalarInsertSemantics) {
  // A table small enough to skip the insert prefetches and one large
  // enough to issue them.
  for (uint64_t buckets : {uint64_t{4096}, uint64_t{1} << 19}) {
    CuckooFilterConfig config;
    config.num_buckets = buckets;
    config.fingerprint_bits = 12;
    config.salt = 5;
    std::vector<uint64_t> keys;
    Rng rng(61);
    for (int i = 0; i < 10000; ++i) keys.push_back(rng.NextBelow(8000));

    auto scalar = CuckooFilter::Make(config).ValueOrDie();
    for (uint64_t k : keys) ASSERT_TRUE(scalar.Insert(k).ok());
    auto batch = CuckooFilter::Make(config).ValueOrDie();
    EXPECT_EQ(InsertPrefetches(batch.SizeInBits()), buckets > 4096);
    ASSERT_TRUE(batch.InsertBatch(keys).ok());

    // Set semantics collapse duplicates identically in either order.
    EXPECT_EQ(batch.num_items(), scalar.num_items());
    EXPECT_DOUBLE_EQ(batch.LoadFactor(), scalar.LoadFactor());
    for (uint64_t k : keys) {
      ASSERT_TRUE(batch.Contains(k)) << "key " << k;
    }
  }
}

TEST(CuckooFilterInsertBatchTest, MultisetMode) {
  // Moderate load: multiset copies share one bucket pair, and a pair packed
  // entirely with same-fp copies is kick-dead (every victim's alt bucket is
  // inside the pair), so WHERE capacity failures strike is placement-order
  // dependent — batch and scalar agree on semantics, not failure points.
  CuckooFilterConfig config;
  config.num_buckets = 8192;
  config.fingerprint_bits = 12;
  config.multiset = true;
  config.salt = 9;
  std::vector<uint64_t> keys;
  for (int i = 0; i < 6000; ++i) {
    keys.push_back(static_cast<uint64_t>(i % 2000));
  }

  auto scalar = CuckooFilter::Make(config).ValueOrDie();
  for (uint64_t k : keys) ASSERT_TRUE(scalar.Insert(k).ok());
  auto batch = CuckooFilter::Make(config).ValueOrDie();
  ASSERT_TRUE(batch.InsertBatch(keys).ok());

  EXPECT_EQ(batch.num_items(), scalar.num_items());
  for (uint64_t k : keys) {
    ASSERT_TRUE(batch.Contains(k)) << "key " << k;
  }
}

}  // namespace
}  // namespace ccf
