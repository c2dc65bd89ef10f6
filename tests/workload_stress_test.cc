// Workload stress differentials: the batched lookup/insert pipelines must
// stay bit-identical to the scalar paths under the workload SHAPES that
// stress their scheduling — Zipf-skewed keys (hot buckets revisited within
// one interleave group), all-miss probes (every resolve takes the
// empty-mask early exit), and all-collide probes (two keys, degenerate
// radix distribution, maximally contended buckets). Each shape runs across
// all four CCF variants, and the chained variant additionally sweeps the
// pipeline way so interleave width is proven independent of workload skew.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "ccf/ccf.h"
#include "data/zipf.h"
#include "util/batch_pipeline.h"
#include "util/random.h"

namespace ccf {
namespace {

constexpr uint64_t kRows = 3000;

CcfConfig TestConfig() {
  CcfConfig config;
  config.num_buckets = 1 << 10;
  config.slots_per_bucket = 4;
  config.key_fp_bits = 12;
  config.attr_fp_bits = 8;
  config.num_attrs = 2;
  config.max_dupes = 3;
  config.salt = 17;
  return config;
}

std::unique_ptr<ConditionalCuckooFilter> BuildFilter(CcfVariant variant) {
  auto ccf = ConditionalCuckooFilter::Make(variant, TestConfig()).ValueOrDie();
  std::vector<uint64_t> attrs(2);
  for (uint64_t k = 0; k < kRows; ++k) {
    attrs[0] = k % 13;
    attrs[1] = k % 7;
    EXPECT_TRUE(ccf->Insert(k, attrs).ok());
  }
  return ccf;
}

// The three adversarial key mixes, mirroring the perf_throughput rows.
std::vector<uint64_t> ZipfKeys(size_t n, uint64_t seed) {
  Rng rng(seed);
  auto zipf = ZipfMandelbrot::Make(1.07, 2.7, uint64_t{1} << 16).ValueOrDie();
  std::vector<uint64_t> keys(n);
  // Golden-ratio scramble decorrelates popularity rank from table
  // locality, as in the bench fixture.
  for (auto& k : keys) k = (zipf.Sample(rng) * 2654435761u) % (2 * kRows);
  return keys;
}

std::vector<uint64_t> AllMissKeys(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint64_t> keys(n);
  for (auto& k : keys) k = 2 * kRows + rng.NextBelow(uint64_t{1} << 40);
  return keys;
}

std::vector<uint64_t> AllCollideKeys(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint64_t> keys(n);
  for (auto& k : keys) k = rng.NextBelow(2) == 0 ? 123 : 2 * kRows + 1;
  return keys;
}

void ExpectBatchedMatchesScalar(const ConditionalCuckooFilter& ccf,
                                const std::vector<uint64_t>& keys,
                                const Predicate& pred) {
  std::vector<bool> expected(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    expected[i] = ccf.Contains(keys[i], pred);
  }
  std::unique_ptr<bool[]> out(new bool[keys.size()]);
  ASSERT_TRUE(ccf.LookupBatch(keys, std::span<const Predicate>(&pred, 1),
                              std::span<bool>(out.get(), keys.size()))
                  .ok());
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_EQ(out[i], expected[i]) << "key " << keys[i] << " at " << i;
  }
}

TEST(WorkloadStressTest, SkewedAndAdversarialMixesMatchScalarAllVariants) {
  const size_t n = 2 * kBatchPipelineBlock + 77;
  Predicate pred = Predicate::Equals(0, 4).AndEquals(1, 2);
  for (CcfVariant variant : {CcfVariant::kPlain, CcfVariant::kChained,
                             CcfVariant::kBloom, CcfVariant::kMixed}) {
    SCOPED_TRACE(testing::Message() << "variant=" << CcfVariantName(variant));
    auto ccf = BuildFilter(variant);
    ExpectBatchedMatchesScalar(*ccf, ZipfKeys(n, 101), pred);
    ExpectBatchedMatchesScalar(*ccf, AllMissKeys(n, 103), pred);
    ExpectBatchedMatchesScalar(*ccf, AllCollideKeys(n, 107), pred);
  }
}

// The way grid on the chained variant: interleave width must not interact
// with workload skew. Each grid point re-checks all three mixes against the
// scalar reference. (The bucket kernel is a single portable one, so the
// grid's former SIMD-tier axis has one point.)
TEST(WorkloadStressTest, ChainedTierByWayGridMatchesScalar) {
  struct WayGuard {
    ~WayGuard() { SetBatchPipelineWay(0); }
  } guard;
  const size_t n = kBatchPipelineBlock + 191;
  Predicate pred = Predicate::Equals(0, 4).AndEquals(1, 2);
  auto ccf = BuildFilter(CcfVariant::kChained);
  const std::vector<uint64_t> zipf = ZipfKeys(n, 211);
  const std::vector<uint64_t> miss = AllMissKeys(n, 223);
  const std::vector<uint64_t> collide = AllCollideKeys(n, 227);
  for (size_t way : {size_t{1}, size_t{4}, size_t{8}}) {
    SetBatchPipelineWay(way);
    SCOPED_TRACE(testing::Message() << "way=" << way);
    ExpectBatchedMatchesScalar(*ccf, zipf, pred);
    ExpectBatchedMatchesScalar(*ccf, miss, pred);
    ExpectBatchedMatchesScalar(*ccf, collide, pred);
  }
}

// InsertBatch under skew: the two-wave pipelined insert path (clustered,
// interleaved, deferred second-bucket wave) must build a filter with no
// false negatives and batched==scalar lookup agreement, even when the
// batch hammers duplicate keys up to max_dupes.
TEST(WorkloadStressTest, PipelinedInsertBatchUnderSkewServesAllRows) {
  struct WayGuard {
    ~WayGuard() { SetBatchPipelineWay(0); }
  } guard;
  Rng rng(307);
  // Skewed row ids with repeats (max_dupes = 3 in TestConfig).
  std::vector<uint64_t> keys;
  std::vector<uint64_t> flat_attrs;
  std::vector<uint64_t> seen_count(kRows, 0);
  auto zipf = ZipfMandelbrot::Make(1.07, 2.7, kRows).ValueOrDie();
  while (keys.size() < 2500) {
    uint64_t k = zipf.Sample(rng) - 1;  // [0, kRows)
    if (seen_count[k] >= 3) continue;
    ++seen_count[k];
    keys.push_back(k);
    flat_attrs.push_back(k % 13);
    flat_attrs.push_back(k % 7);
  }
  for (size_t way : {size_t{1}, size_t{8}}) {
    SetBatchPipelineWay(way);
    SCOPED_TRACE(testing::Message() << "way=" << way);
    auto ccf =
        ConditionalCuckooFilter::Make(CcfVariant::kChained, TestConfig())
            .ValueOrDie();
    ASSERT_TRUE(ccf->InsertBatch(keys, flat_attrs).ok());
    // No false negatives on exact-row membership.
    for (size_t i = 0; i < keys.size(); ++i) {
      std::vector<uint64_t> attrs = {keys[i] % 13, keys[i] % 7};
      EXPECT_TRUE(ccf->ContainsRow(keys[i], attrs)) << "row " << keys[i];
    }
    // Batched and scalar lookups agree on the built filter.
    Predicate pred = Predicate::Equals(0, 4).AndEquals(1, 2);
    ExpectBatchedMatchesScalar(*ccf, ZipfKeys(kBatchPipelineBlock + 33, 311),
                               pred);
  }
}

}  // namespace
}  // namespace ccf
