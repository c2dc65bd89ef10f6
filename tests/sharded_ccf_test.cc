// ShardedCcf: routing correctness (answers identical to the owning shard),
// no false negatives through scalar/batched/parallel-build paths,
// equivalence of sequential and parallel builds and commits, batch-vs-scalar
// answers under staged writes and erases, teardown with maintenance in
// flight, derived key filters, and serialization round-trips through the
// ConditionalCuckooFilter dispatch.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "ccf/sharded_ccf.h"
#include "util/random.h"

namespace ccf {
namespace {

CcfConfig TestConfig(uint64_t salt) {
  CcfConfig config;
  config.num_buckets = 8192;  // total budget across shards
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

Rows MakeRows(int n, uint64_t seed) {
  // Every key appears exactly 3 times (with varying attributes), exercising
  // the duplicate paths of all variants while staying inside the Plain
  // variant's one-pair capacity.
  Rows rows;
  Rng rng(seed);
  int num_keys = n / 3;
  for (int i = 0; i < n; ++i) {
    rows.keys.push_back(static_cast<uint64_t>(i % num_keys));
    rows.flat_attrs.push_back(rng.NextBelow(200));
    rows.flat_attrs.push_back(rng.NextBelow(50));
  }
  return rows;
}

class ShardedCcfTest : public ::testing::TestWithParam<CcfVariant> {};

TEST_P(ShardedCcfTest, ParallelBuildIsThreadCountInvariant) {
  // Shards never share mutable state and each shard's batched insertion
  // order is the gathered input order regardless of which thread runs it,
  // so any thread count yields identical state. (Batch-vs-scalar-route
  // equivalence lives in build_equivalence_test.cc.)
  ShardedCcfOptions opts;
  opts.num_shards = 4;
  Rows rows = MakeRows(12000, 101);

  auto one_thread =
      ShardedCcf::Make(GetParam(), TestConfig(51), opts).ValueOrDie();
  ASSERT_TRUE(one_thread
                  ->InsertParallel(rows.keys, rows.flat_attrs,
                                   /*num_threads=*/1)
                  .ok());

  auto four_threads =
      ShardedCcf::Make(GetParam(), TestConfig(51), opts).ValueOrDie();
  ASSERT_TRUE(four_threads
                  ->InsertParallel(rows.keys, rows.flat_attrs,
                                   /*num_threads=*/4)
                  .ok());

  EXPECT_EQ(one_thread->Serialize(), four_threads->Serialize());
  EXPECT_EQ(one_thread->num_rows(), four_threads->num_rows());

  // The scalar per-row route agrees on the structural counters.
  auto routed =
      ShardedCcf::Make(GetParam(), TestConfig(51), opts).ValueOrDie();
  for (size_t i = 0; i < rows.keys.size(); ++i) {
    ASSERT_TRUE(routed
                    ->Insert(rows.keys[i],
                             std::span<const uint64_t>(
                                 &rows.flat_attrs[2 * i], 2))
                    .ok());
  }
  EXPECT_EQ(routed->num_rows(), four_threads->num_rows());
  EXPECT_EQ(routed->num_entries(), four_threads->num_entries());
}

TEST_P(ShardedCcfTest, NoFalseNegativesAndBatchMatchesScalar) {
  ShardedCcfOptions opts;
  opts.num_shards = 8;
  auto sharded =
      ShardedCcf::Make(GetParam(), TestConfig(7), opts).ValueOrDie();
  Rows rows = MakeRows(10000, 19);
  ASSERT_TRUE(sharded->InsertParallel(rows.keys, rows.flat_attrs).ok());

  // Every inserted row must answer true under its own attributes.
  for (size_t i = 0; i < rows.keys.size(); ++i) {
    EXPECT_TRUE(sharded->Contains(
        rows.keys[i], Predicate::Equals(0, rows.flat_attrs[2 * i])
                          .AndEquals(1, rows.flat_attrs[2 * i + 1])))
        << "false negative at row " << i;
  }

  // Batched answers are bit-identical to scalar ones, present or absent.
  Rng rng(77);
  std::vector<uint64_t> probe_keys;
  std::vector<Predicate> preds;
  for (int i = 0; i < 5000; ++i) {
    probe_keys.push_back(rng.NextBelow(8000));
    preds.push_back(Predicate::Equals(0, rng.NextBelow(200)));
  }
  size_t n = probe_keys.size();
  std::unique_ptr<bool[]> out(new bool[n]);
  ASSERT_TRUE(
      sharded->LookupBatch(probe_keys, preds, std::span<bool>(out.get(), n))
          .ok());
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(out[i], sharded->Contains(probe_keys[i], preds[i]))
        << "i=" << i;
  }

  sharded->ContainsKeyBatch(probe_keys, std::span<bool>(out.get(), n));
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(out[i], sharded->ContainsKey(probe_keys[i])) << "i=" << i;
  }

  // Broadcast shape (one predicate, many keys): the production join-probe
  // pattern, which takes the per-shard gather/delegate/scatter path.
  Predicate broadcast = Predicate::Equals(0, 42);
  ASSERT_TRUE(sharded
                  ->LookupBatch(probe_keys,
                                std::span<const Predicate>(&broadcast, 1),
                                std::span<bool>(out.get(), n))
                  .ok());
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(out[i], sharded->Contains(probe_keys[i], broadcast))
        << "broadcast i=" << i;
  }
}

TEST_P(ShardedCcfTest, AggregateCountersSumOverShards) {
  ShardedCcfOptions opts;
  opts.num_shards = 4;
  auto sharded =
      ShardedCcf::Make(GetParam(), TestConfig(13), opts).ValueOrDie();
  Rows rows = MakeRows(6000, 29);
  ASSERT_TRUE(sharded->InsertParallel(rows.keys, rows.flat_attrs).ok());

  uint64_t entries = 0, rows_sum = 0, bits = 0;
  for (int s = 0; s < sharded->num_shards(); ++s) {
    entries += sharded->shard(s).num_entries();
    rows_sum += sharded->shard(s).num_rows();
    bits += sharded->shard(s).SizeInBits();
  }
  EXPECT_EQ(sharded->num_entries(), entries);
  EXPECT_EQ(sharded->num_rows(), rows_sum);
  EXPECT_EQ(sharded->SizeInBits(), bits);
  EXPECT_GT(sharded->num_entries(), 0u);
}

TEST_P(ShardedCcfTest, PredicateQueryRoutesLikeSource) {
  ShardedCcfOptions opts;
  opts.num_shards = 4;
  auto sharded =
      ShardedCcf::Make(GetParam(), TestConfig(3), opts).ValueOrDie();
  Rows rows = MakeRows(8000, 37);
  ASSERT_TRUE(sharded->InsertParallel(rows.keys, rows.flat_attrs).ok());

  Predicate pred = Predicate::Equals(0, 42);
  auto derived = sharded->PredicateQuery(pred).ValueOrDie();
  // No false negatives: every key inserted with a0 == 42 must be present.
  for (size_t i = 0; i < rows.keys.size(); ++i) {
    if (rows.flat_attrs[2 * i] == 42) {
      EXPECT_TRUE(derived->Contains(rows.keys[i]));
    }
  }
  EXPECT_GT(derived->SizeInBits(), 0u);

  // The derived filter's batched path answers identically to scalar.
  std::vector<uint64_t> probes;
  Rng rng(71);
  for (int i = 0; i < 3000; ++i) probes.push_back(rng.NextBelow(6000));
  std::unique_ptr<bool[]> out(new bool[probes.size()]);
  derived->ContainsBatch(probes, std::span<bool>(out.get(), probes.size()));
  for (size_t i = 0; i < probes.size(); ++i) {
    EXPECT_EQ(out[i], derived->Contains(probes[i])) << "i=" << i;
  }
}

TEST_P(ShardedCcfTest, SerializeRoundTripsThroughBaseDispatch) {
  ShardedCcfOptions opts;
  opts.num_shards = 2;
  auto sharded =
      ShardedCcf::Make(GetParam(), TestConfig(23), opts).ValueOrDie();
  Rows rows = MakeRows(4000, 53);
  ASSERT_TRUE(sharded->InsertParallel(rows.keys, rows.flat_attrs).ok());

  std::string blob = sharded->Serialize();
  auto restored = ConditionalCuckooFilter::Deserialize(blob).ValueOrDie();
  EXPECT_EQ(restored->variant(), sharded->variant());
  EXPECT_EQ(restored->num_rows(), sharded->num_rows());
  EXPECT_EQ(restored->SizeInBits(), sharded->SizeInBits());

  Rng rng(61);
  for (int i = 0; i < 3000; ++i) {
    uint64_t key = rng.NextBelow(8000);
    Predicate pred = Predicate::Equals(0, rng.NextBelow(200));
    EXPECT_EQ(restored->Contains(key, pred), sharded->Contains(key, pred));
    EXPECT_EQ(restored->ContainsKey(key), sharded->ContainsKey(key));
  }
}

TEST_P(ShardedCcfTest, StripedCommitMatchesSequentialCommit) {
  // CommitWrites stripes non-empty shards over worker threads; each shard
  // still commits its own staged rows in staging order, so the published
  // tables are byte-identical to a one-thread commit.
  ShardedCcfOptions opts;
  opts.num_shards = 8;
  Rows rows = MakeRows(6000, 41);
  auto seq = ShardedCcf::Make(GetParam(), TestConfig(59), opts).ValueOrDie();
  auto striped =
      ShardedCcf::Make(GetParam(), TestConfig(59), opts).ValueOrDie();
  ASSERT_TRUE(seq->BufferWriteBatch(rows.keys, rows.flat_attrs).ok());
  ASSERT_TRUE(striped->BufferWriteBatch(rows.keys, rows.flat_attrs).ok());
  ASSERT_TRUE(seq->CommitWrites(/*num_threads=*/1).ok());
  ASSERT_TRUE(striped->CommitWrites(/*num_threads=*/8).ok());
  EXPECT_EQ(seq->Serialize(), striped->Serialize());
  EXPECT_EQ(seq->pending_writes(), 0u);
  EXPECT_EQ(striped->pending_writes(), 0u);
}

TEST_P(ShardedCcfTest, StagedWritesAndErasesBatchMatchesScalar) {
  // Staged inserts ride the overlay fast path and staged erases force the
  // exact per-key slow path; ContainsKeyBatch and broadcast LookupBatch
  // must agree with the scalar calls through both. A striped commit of the
  // erase-carrying batch then matches a one-thread commit byte for byte.
  ShardedCcfOptions opts;
  opts.num_shards = 8;
  Rows rows = MakeRows(9000, 17);
  auto seq = ShardedCcf::Make(GetParam(), TestConfig(77), opts).ValueOrDie();
  auto striped =
      ShardedCcf::Make(GetParam(), TestConfig(77), opts).ValueOrDie();
  std::vector<uint64_t> staged_keys;
  std::vector<uint64_t> staged_attrs;
  for (uint64_t k = 500000; k < 500200; ++k) {
    staged_keys.push_back(k);
    staged_attrs.push_back(k % 97);
    staged_attrs.push_back(k % 13);
  }
  for (ShardedCcf* f : {seq.get(), striped.get()}) {
    ASSERT_TRUE(f->InsertParallel(rows.keys, rows.flat_attrs).ok());
    ASSERT_TRUE(f->BufferWriteBatch(staged_keys, staged_attrs).ok());
    for (size_t i = 0; i < 300; i += 3) {
      std::span<const uint64_t> attrs(&rows.flat_attrs[2 * i], 2);
      ASSERT_TRUE(f->BufferErase(rows.keys[i], attrs).ok());
    }
  }

  // Probe set: committed hits, staged hits, erased rows, and misses.
  std::vector<uint64_t> probes;
  for (size_t i = 0; i < rows.keys.size(); i += 7) {
    probes.push_back(rows.keys[i]);
  }
  probes.insert(probes.end(), staged_keys.begin(), staged_keys.end());
  for (uint64_t k = 900000; k < 900500; ++k) probes.push_back(k);
  const size_t n = probes.size();
  std::unique_ptr<bool[]> out(new bool[n]);

  seq->ContainsKeyBatch(probes, std::span<bool>(out.get(), n));
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(out[i], seq->ContainsKey(probes[i])) << "probe " << i;
  }
  // A value most committed rows can carry, so hit and miss branches fire.
  Predicate pred = Predicate::Equals(1, 7);
  ASSERT_TRUE(seq->LookupBatch(probes, std::span<const Predicate>(&pred, 1),
                               std::span<bool>(out.get(), n))
                  .ok());
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(out[i], seq->Contains(probes[i], pred)) << "probe " << i;
  }

  ASSERT_TRUE(seq->CommitWrites(/*num_threads=*/1).ok());
  ASSERT_TRUE(striped->CommitWrites(/*num_threads=*/4).ok());
  EXPECT_EQ(seq->Serialize(), striped->Serialize());
  EXPECT_EQ(seq->num_rows(), striped->num_rows());
}

TEST_P(ShardedCcfTest, DestructionReapsInFlightMaintenance) {
  // Watermark resizes capture `this` and the epoch domain holds retire
  // hooks that touch the shards: a filter destroyed with maintenance in
  // flight (no DrainMaintenance call) must join and synchronize
  // everything itself. Sanitizer runs catch any use-after-free here.
  Rows rows = MakeRows(9000, 67);
  for (int round = 0; round < 3; ++round) {
    ShardedCcfOptions opts;
    opts.num_shards = 8;
    opts.resize_watermark = 0.10;  // absurdly low: every commit schedules
    auto filter =
        ShardedCcf::Make(GetParam(), TestConfig(83), opts).ValueOrDie();
    ASSERT_TRUE(filter->BufferWriteBatch(rows.keys, rows.flat_attrs).ok());
    ASSERT_TRUE(filter->CommitWrites(/*num_threads=*/4).ok());
    std::unique_ptr<bool[]> out(new bool[rows.keys.size()]);
    filter->ContainsKeyBatch(rows.keys,
                             std::span<bool>(out.get(), rows.keys.size()));
    // Destroy immediately: maintenance futures join, then the domain
    // synchronizes.
  }
}

TEST(ShardedCcfValidationTest, WorkerThreadsCappedAtHardware) {
  // Explicit request, then options.build_threads, then one per shard.
  EXPECT_EQ(ShardedCcf::WorkerThreads(3, 0, 8, 64), 3);
  EXPECT_EQ(ShardedCcf::WorkerThreads(0, 5, 8, 64), 5);
  EXPECT_EQ(ShardedCcf::WorkerThreads(0, 0, 8, 64), 8);
  // Never more threads than shards.
  EXPECT_EQ(ShardedCcf::WorkerThreads(16, 0, 8, 64), 8);
  // Never more threads than the hardware runs, however many shards a
  // (possibly deserialized) filter has.
  EXPECT_EQ(ShardedCcf::WorkerThreads(0, 0, 4096, 4), 4);
  EXPECT_EQ(ShardedCcf::WorkerThreads(4096, 4096, 4096, 16), 16);
  // An unknown hardware count (0) means one thread.
  EXPECT_EQ(ShardedCcf::WorkerThreads(0, 0, 4096, 0), 1);
}

TEST(ShardedCcfValidationTest, RejectsBadShapes) {
  ShardedCcfOptions opts;
  opts.num_shards = 4;
  auto sharded =
      ShardedCcf::Make(CcfVariant::kChained, TestConfig(1), opts)
          .ValueOrDie();
  std::vector<uint64_t> keys = {1, 2};
  std::vector<uint64_t> bad_attrs = {1, 2, 3};  // not keys.size() * num_attrs
  EXPECT_FALSE(sharded->InsertParallel(keys, bad_attrs).ok());
  EXPECT_FALSE(
      ShardedCcf::Make(CcfVariant::kChained, TestConfig(1), {.num_shards = 0})
          .ok());
}

TEST(ShardedCcfValidationTest, InsertParallelReportsLowestFailingShard) {
  // Overload several shards at once (Plain variant, keys duplicated far
  // beyond one pair's capacity, auto-resize disabled): whichever thread
  // observes an error first, the reported Status must be the LOWEST failing
  // shard's, so the result is invariant to thread count and scheduling.
  CcfConfig config = TestConfig(101);
  config.num_buckets = 64;
  ShardedCcfOptions opts;
  opts.num_shards = 4;
  opts.max_auto_resizes = 0;  // surface CapacityError instead of resizing
  std::vector<uint64_t> keys;
  std::vector<uint64_t> attrs;
  Rng rng(5);
  for (int i = 0; i < 4000; ++i) {
    keys.push_back(static_cast<uint64_t>(i % 40));  // 100 dupes per key
    attrs.push_back(rng.NextBelow(1000));
    attrs.push_back(rng.NextBelow(1000));
  }

  auto run = [&](int threads) {
    auto sharded =
        ShardedCcf::Make(CcfVariant::kPlain, config, opts).ValueOrDie();
    return sharded->InsertParallel(keys, attrs, threads);
  };
  Status st1 = run(1);
  Status st4 = run(4);
  ASSERT_FALSE(st1.ok());
  ASSERT_FALSE(st4.ok());
  EXPECT_EQ(st1.code(), StatusCode::kCapacityError);
  EXPECT_EQ(st1.message(), st4.message())
      << "error aggregation must be deterministic across thread counts";
  EXPECT_EQ(st1.message().rfind("shard ", 0), 0u)
      << "error should name the failing shard: " << st1.message();
}

TEST(ShardedCcfValidationTest, ShardCountRoundsUpToPowerOfTwo) {
  ShardedCcfOptions opts;
  opts.num_shards = 3;
  auto sharded =
      ShardedCcf::Make(CcfVariant::kMixed, TestConfig(1), opts).ValueOrDie();
  EXPECT_EQ(sharded->num_shards(), 4);
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, ShardedCcfTest,
    ::testing::Values(CcfVariant::kPlain, CcfVariant::kChained,
                      CcfVariant::kBloom, CcfVariant::kMixed),
    [](const ::testing::TestParamInfo<CcfVariant>& pinfo) {
      return std::string(CcfVariantName(pinfo.param));
    });

}  // namespace
}  // namespace ccf
