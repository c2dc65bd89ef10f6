// Differential tests for the batched probe pipeline (CcfBase::BatchResolve
// and the bucket kernel beneath it): every batched answer must equal the
// scalar one, on all four variants, RangeCcf and ShardedCcf with staged
// erases, across the shapes that stress the pipeline's line selection and
// the occupancy shortcut of ForEachOccupiedMatch:
//   * fingerprint-0 probes against never-written and erased slots (the only
//     probes that must still read occupancy);
//   * 6 x 28-bit slots, so buckets straddle cache lines at every phase;
//   * tiny tables, where degenerate pairs (alt == primary) are common;
//   * η-duplicate chains that saturate max_dupes and continue the walk;
//   * batch sizes at the stack-scratch and multi-block edges.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "ccf/ccf.h"
#include "ccf/ccf_base.h"
#include "ccf/range_ccf.h"
#include "ccf/sharded_ccf.h"
#include "cuckoo/cuckoo_filter.h"
#include "util/batch_pipeline.h"
#include "util/random.h"

namespace ccf {
namespace {

const size_t kBatchSizes[] = {1,
                              kBatchPipelineSmallBatch - 1,
                              kBatchPipelineSmallBatch,
                              kBatchPipelineSmallBatch + 1,
                              kBatchPipelineBlock,
                              kBatchPipelineBlock + 1};

CcfConfig StraddleConfig(uint64_t num_buckets, uint64_t salt) {
  CcfConfig c;
  c.num_buckets = num_buckets;
  c.slots_per_bucket = 6;
  c.key_fp_bits = 12;
  c.attr_fp_bits = 8;
  c.num_attrs = 2;
  c.max_dupes = 3;
  c.salt = salt;
  return c;
}

// Keys whose key fingerprint is 0 under `filter`'s hasher and geometry.
std::vector<uint64_t> FingerprintZeroKeys(const CcfBase& filter, size_t want,
                                          uint64_t first) {
  std::vector<uint64_t> out;
  for (uint64_t k = first; out.size() < want; ++k) {
    uint64_t bucket;
    uint32_t fp;
    cuckoo_addressing::IndexAndFingerprint(
        filter.hasher(), k, filter.table().bucket_mask(),
        filter.config().key_fp_bits, &bucket, &fp);
    if (fp == 0) out.push_back(k);
  }
  return out;
}

// Batched LookupBatch (broadcast and per-key) and ContainsKeyBatch against
// the scalar calls, for every batch size (prefixes of `probes`).
void ExpectBatchedEqualsScalar(const ConditionalCuckooFilter& f,
                               const std::vector<uint64_t>& probes,
                               const Predicate& pred) {
  for (size_t n : kBatchSizes) {
    SCOPED_TRACE(testing::Message() << "batch=" << n);
    ASSERT_LE(n, probes.size());
    std::span<const uint64_t> keys(probes.data(), n);
    std::unique_ptr<bool[]> got(new bool[n]);
    std::span<bool> out(got.get(), n);
    ASSERT_TRUE(f.LookupBatch(keys, std::span<const Predicate>(&pred, 1), out)
                    .ok());
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(got[i], f.Contains(keys[i], pred)) << "key " << keys[i];
    }
    std::vector<Predicate> preds;
    for (size_t i = 0; i < n; ++i) {
      preds.push_back(Predicate::Equals(0, keys[i] % 4));
    }
    ASSERT_TRUE(f.LookupBatch(keys, preds, out).ok());
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(got[i], f.Contains(keys[i], preds[i])) << "key " << keys[i];
    }
    f.ContainsKeyBatch(keys, out);
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(got[i], f.ContainsKey(keys[i])) << "key " << keys[i];
    }
  }
}

class ProbePipelineTest : public ::testing::TestWithParam<CcfVariant> {};

TEST_P(ProbePipelineTest, BatchedEqualsScalarOnEdgeShapes) {
  for (uint64_t num_buckets : {uint64_t{16}, uint64_t{4096}}) {
    SCOPED_TRACE(testing::Message() << "buckets=" << num_buckets);
    auto filter = ConditionalCuckooFilter::Make(
                      GetParam(), StraddleConfig(num_buckets, 41))
                      .ValueOrDie();
    const auto& base = static_cast<const CcfBase&>(*filter);
    const uint64_t capacity = num_buckets * 6;
    Rng rng(43);
    // Fingerprint-0 keys: half inserted (then some erased), half probed
    // only, so fp-0 probes meet occupied, erased and never-written slots.
    std::vector<uint64_t> zero = FingerprintZeroKeys(base, 8, 1u << 20);
    std::vector<uint64_t> keys, attrs;
    for (size_t i = 0; i < zero.size() / 2; ++i) {
      keys.push_back(zero[i]);
      attrs.push_back(i % 4);
      attrs.push_back(i % 3);
    }
    // η-duplicate rows: a few keys with more rows than max_dupes (chains).
    const uint64_t dup_keys = num_buckets == 16 ? 1 : 8;
    for (uint64_t k = 0; k < dup_keys; ++k) {
      for (uint64_t v = 0; v < 7; ++v) {
        keys.push_back(500000 + k);
        attrs.push_back(v % 4);
        attrs.push_back(v % 3);
      }
    }
    // Ordinary rows up to ~40% load.
    for (uint64_t k = 1; keys.size() < capacity * 2 / 5; ++k) {
      keys.push_back(k);
      attrs.push_back(rng.NextBelow(4));
      attrs.push_back(rng.NextBelow(3));
    }
    for (size_t i = 0; i < keys.size(); ++i) {
      // Row-at-a-time: some variants reject rows a full pair cannot take,
      // which the differential ignores (the scalar path sees the same
      // table).
      filter->Insert(keys[i], std::span<const uint64_t>(&attrs[2 * i], 2))
          .ok();
    }
    auto* mutable_base = static_cast<CcfBase*>(filter.get());
    for (size_t i = 0; i < zero.size() / 4; ++i) {
      uint64_t key_hash, payload;
      mutable_base->MemoizeRow(zero[i],
                               std::span<const uint64_t>(&attrs[2 * i], 2),
                               &key_hash, &payload);
      mutable_base->EraseRowMemoized(key_hash, payload);
    }

    std::vector<uint64_t> probes = zero;
    for (uint64_t k = 0; k < dup_keys; ++k) probes.push_back(500000 + k);
    while (probes.size() < kBatchPipelineBlock + 1) {
      probes.push_back(rng.NextBelow(2 * keys.size()) + 1);
    }
    ExpectBatchedEqualsScalar(*filter, probes, Predicate::Equals(0, 2));
    ExpectBatchedEqualsScalar(*filter, probes,
                              Predicate::Equals(0, 1).AndEquals(1, 2));
  }
}

INSTANTIATE_TEST_SUITE_P(AllVariants, ProbePipelineTest,
                         ::testing::Values(CcfVariant::kPlain,
                                           CcfVariant::kChained,
                                           CcfVariant::kBloom,
                                           CcfVariant::kMixed),
                         [](const auto& info) {
                           return std::string(CcfVariantName(info.param));
                         });

TEST(ProbePipelineRangeTest, RangeBatchEqualsScalar) {
  auto filter =
      RangeCcf::Make(CcfVariant::kChained, StraddleConfig(4096, 47), 1, 6)
          .ValueOrDie();
  Rng rng(53);
  std::vector<uint64_t> keys, attrs;
  for (uint64_t k = 1; k <= 1500; ++k) {
    keys.push_back(k);
    attrs.push_back(rng.NextBelow(4));
    attrs.push_back(rng.NextBelow(64));
  }
  ASSERT_TRUE(filter->InsertBatch(keys, attrs).ok());
  std::vector<uint64_t> probes;
  while (probes.size() < kBatchPipelineBlock + 1) {
    probes.push_back(rng.NextBelow(3000) + 1);
  }
  const CompiledRangePredicate range =
      filter->CompileRange(10, 40).ValueOrDie();
  for (size_t n : kBatchSizes) {
    std::span<const uint64_t> batch(probes.data(), n);
    std::unique_ptr<bool[]> got(new bool[n]);
    ASSERT_TRUE(filter
                    ->ContainsInRangeBatch(batch, range,
                                           std::span<bool>(got.get(), n))
                    .ok());
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(got[i], filter->ContainsInRange(batch[i], 10, 40))
          << "batch=" << n << " key " << batch[i];
    }
  }
}

TEST(ProbePipelineShardedTest, StagedErasesBatchEqualsScalar) {
  ShardedCcfOptions opts;
  opts.num_shards = 4;
  auto sharded =
      ShardedCcf::Make(CcfVariant::kChained, StraddleConfig(1024, 59), opts)
          .ValueOrDie();
  Rng rng(61);
  std::vector<uint64_t> keys, attrs;
  for (uint64_t k = 1; k <= 3000; ++k) {
    keys.push_back(k);
    attrs.push_back(rng.NextBelow(4));
    attrs.push_back(rng.NextBelow(3));
  }
  ASSERT_TRUE(sharded->InsertBatch(keys, attrs).ok());
  for (size_t i = 0; i < keys.size(); i += 5) {
    ASSERT_TRUE(sharded
                    ->BufferErase(keys[i],
                                  std::span<const uint64_t>(&attrs[2 * i], 2))
                    .ok());
  }
  std::vector<uint64_t> probes;
  while (probes.size() < kBatchPipelineBlock + 1) {
    probes.push_back(rng.NextBelow(6000) + 1);
  }
  ExpectBatchedEqualsScalar(*sharded, probes, Predicate::Equals(0, 3));
}

}  // namespace
}  // namespace ccf
