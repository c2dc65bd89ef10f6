// Tests for the unified two-pass batch skeleton (util/batch_pipeline.h):
// both flavours must resolve every item exactly once, in input order, with
// the output the scalar reference gives, across the stack/heap, block and
// interleave-group boundaries. Plus an end-to-end differential through a
// filter whose batch path instantiates the pipeline.
#include "util/batch_pipeline.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "ccf/ccf.h"
#include "util/random.h"

namespace ccf {
namespace {

struct TestAddr {
  uint64_t value;
};

uint64_t Reference(uint64_t item) { return item * 2 + 1; }

std::vector<uint64_t> RunEcho(const std::vector<uint64_t>& items,
                              std::vector<size_t>* visit_order) {
  std::vector<uint64_t> out(items.size());
  RunBatchPipeline<TestAddr>(
      items.size(), kBatchPipelineBlock,
      [&](size_t i) { return TestAddr{Reference(items[i])}; },
      [](const TestAddr&) {},
      [&](size_t i, const TestAddr& a) {
        out[i] = a.value;
        if (visit_order != nullptr) visit_order->push_back(i);
      });
  return out;
}

// Batch sizes of the two-wave input-order sweep: 1-9 cover every `n % 4`
// final strip of the 4-way resolve loop, 127/128/129 the stack-scratch edge,
// and the rest the boundaries of blocks of `block` items.
std::vector<size_t> SweepSizes(size_t block) {
  std::vector<size_t> sizes = {1, 2, 3, 4, 5, 6, 7, 8, 9,
                               kBatchPipelineSmallBatch - 1,
                               kBatchPipelineSmallBatch,
                               kBatchPipelineSmallBatch + 1};
  for (size_t n : {block - 1, block, block + 1, 2 * block + 3}) {
    sizes.push_back(n);
  }
  return sizes;
}

// Every item of `items` resolves exactly once, in input order, with the
// scalar reference's output.
void ExpectInputOrderEcho(const std::vector<uint64_t>& items) {
  const size_t n = items.size();
  std::vector<size_t> order;
  std::vector<uint64_t> out = RunEcho(items, &order);
  ASSERT_EQ(order.size(), n) << "n=" << n;
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(order[i], i) << "n=" << n;
    EXPECT_EQ(out[i], Reference(items[i])) << "n=" << n << " i=" << i;
  }
}

std::vector<uint64_t> RandomItems(Rng& rng, size_t n) {
  std::vector<uint64_t> items(n);
  for (auto& v : items) v = rng.NextBelow(uint64_t{1} << 20);
  return items;
}

// Batches no longer reorder: the output a batch writes at out[i] is the
// scalar pass's output for item i, visited in input order, at sizes that
// straddle block boundaries (empty, one, partial, exact multiples and a
// large ragged batch).
TEST(BatchPipelineTest, ClusteredOutputIsOrderIdenticalToUnclustered) {
  Rng rng(42);
  for (size_t n : {size_t{0}, size_t{1}, size_t{17}, kBatchPipelineBlock - 1,
                   kBatchPipelineBlock, kBatchPipelineBlock + 1,
                   4 * kBatchPipelineBlock, 4 * kBatchPipelineBlock + 97}) {
    ExpectInputOrderEcho(RandomItems(rng, n));
  }
}

TEST(BatchPipelineTest, StableWithinBin) {
  // Equal items must keep input order, so callers with order-sensitive side
  // effects keep deterministic behaviour.
  ExpectInputOrderEcho(std::vector<uint64_t>(kBatchPipelineBlock, 12345));
}

TEST(BatchPipelineTest, SmallBatchStackPathIsEquivalent) {
  // Batches of n <= kBatchPipelineSmallBatch run on stack scratch; the
  // boundary must be seamless in both directions.
  Rng rng(23);
  for (size_t n : {kBatchPipelineSmallBatch - 1, kBatchPipelineSmallBatch,
                   kBatchPipelineSmallBatch + 1}) {
    ExpectInputOrderEcho(RandomItems(rng, n));
  }
}

// The resolve loop interleaves a fixed 4 items: sizes 1-9 end on every
// `n % 4` final strip, and the larger sizes on strips after a full block.
TEST(BatchPipelineTest, PipelineWaySweepIsEquivalent) {
  Rng rng(61);
  for (size_t n = 1; n <= 9; ++n) ExpectInputOrderEcho(RandomItems(rng, n));
  for (size_t n : {kBatchPipelineBlock + 1, kBatchPipelineBlock + 2,
                   kBatchPipelineBlock + 3, 2 * kBatchPipelineBlock + 13}) {
    ExpectInputOrderEcho(RandomItems(rng, n));
  }
}

// The same sweep through the two-wave skeleton, at both real block sizes:
// odd items settle in wave 1 and even items defer. Wave 1 visits every item
// of a block in input order; wave 2 then visits the block's deferred items
// in input order, before the next block's wave 1.
TEST(BatchPipelineTest, TwoWaveInputOrderSweepMatchesReference) {
  Rng rng(67);
  for (size_t block : {kBatchPipelineBlock, kInsertBatchBlock}) {
    for (size_t n : SweepSizes(block)) {
      std::vector<uint64_t> items(n);
      for (auto& v : items) v = rng.NextBelow(uint64_t{1} << 20);
      std::vector<uint64_t> out(n, 0);
      std::vector<int> resolved(n, 0);
      std::vector<size_t> order;
      RunBatchPipelineTwoWave<TestAddr>(
          n, block, [&](size_t i) { return TestAddr{Reference(items[i])}; },
          [](const TestAddr&) {},
          [&](size_t i, TestAddr& a) {
            order.push_back(i);
            if (items[i] % 2 == 0) return false;
            out[i] = a.value;
            ++resolved[i];
            return true;
          },
          [](const TestAddr&) {},
          [&](size_t i, const TestAddr& a) {
            order.push_back(i);
            out[i] = a.value;
            ++resolved[i];
          });
      std::vector<size_t> expected_order;
      for (size_t base = 0; base < n; base += block) {
        const size_t end = std::min(n, base + block);
        for (size_t i = base; i < end; ++i) expected_order.push_back(i);
        for (size_t i = base; i < end; ++i) {
          if (items[i] % 2 == 0) expected_order.push_back(i);
        }
      }
      EXPECT_EQ(order, expected_order) << "block=" << block << " n=" << n;
      for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(out[i], Reference(items[i]))
            << "block=" << block << " n=" << n << " i=" << i;
        EXPECT_EQ(resolved[i], 1)
            << "block=" << block << " n=" << n << " i=" << i;
      }
    }
  }
}

TEST(BatchPipelineTest, TwoWaveResolvesEveryItemExactlyOnceAcrossSizes) {
  // Two-wave flavour across the stack/heap boundary and block boundaries:
  // odd items settle in wave 1, even items defer and must finish in wave 2.
  Rng rng(29);
  for (size_t n : {size_t{1}, kBatchPipelineSmallBatch - 1,
                   kBatchPipelineSmallBatch, kBatchPipelineSmallBatch + 1,
                   kBatchPipelineBlock, 2 * kBatchPipelineBlock + 13}) {
    std::vector<uint64_t> items(n);
    for (auto& v : items) v = rng.NextBelow(uint64_t{1} << 20);
    std::vector<uint64_t> out(n, 0);
    std::vector<int> resolved(n, 0);
    size_t wave2_prefetches = 0;
    RunBatchPipelineTwoWave<TestAddr>(
        n, kBatchPipelineBlock,
        [&](size_t i) { return TestAddr{Reference(items[i])}; },
        [](const TestAddr&) {},
        [&](size_t i, TestAddr& a) {
          if (a.value % 4 == 3) {  // item odd → value % 4 == 3
            out[i] = a.value;
            ++resolved[i];
            return true;
          }
          return false;
        },
        [&](const TestAddr&) { ++wave2_prefetches; },
        [&](size_t i, const TestAddr& a) {
          out[i] = a.value;
          ++resolved[i];
        });
    size_t expected_deferred = 0;
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(out[i], Reference(items[i])) << "n=" << n << " i=" << i;
      EXPECT_EQ(resolved[i], 1) << "n=" << n << " i=" << i;
      if (items[i] % 2 == 0) ++expected_deferred;
    }
    EXPECT_EQ(wave2_prefetches, expected_deferred) << "n=" << n;
  }
}

// End-to-end: the pipeline behind LookupBatch must give answers identical
// to the scalar loop, including on batches that are not block-multiples.
// The per-variant equivalence is covered exhaustively in
// batch_lookup_test.cc; this pins the pipeline on a bigger, skewed key mix
// where many keys share buckets.
TEST(BatchPipelineTest, ClusteredLookupBatchMatchesScalarContains) {
  CcfConfig config;
  config.num_buckets = 1 << 10;
  config.slots_per_bucket = 4;
  config.key_fp_bits = 12;
  config.attr_fp_bits = 8;
  config.num_attrs = 2;
  config.max_dupes = 3;
  config.salt = 5;
  auto ccf =
      ConditionalCuckooFilter::Make(CcfVariant::kChained, config).ValueOrDie();
  Rng rng(11);
  std::vector<uint64_t> attrs(2);
  for (uint64_t k = 0; k < 2000; ++k) {
    attrs[0] = k % 13;
    attrs[1] = k % 7;
    ASSERT_TRUE(ccf->Insert(k, attrs).ok());
  }
  Predicate pred = Predicate::Equals(0, 4).AndEquals(1, 2);
  std::vector<uint64_t> keys(3 * kBatchPipelineBlock + 41);
  for (auto& k : keys) k = rng.NextBelow(4000);  // half present, skewed
  std::vector<bool> expected(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    expected[i] = ccf->Contains(keys[i], pred);
  }
  std::unique_ptr<bool[]> out(new bool[keys.size()]);
  ASSERT_TRUE(ccf->LookupBatch(keys, std::span<const Predicate>(&pred, 1),
                               std::span<bool>(out.get(), keys.size()))
                  .ok());
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(out[i], expected[i]) << "key " << keys[i] << " at " << i;
  }
}

}  // namespace
}  // namespace ccf
