// Range-predicate serving-path tests: the batched dyadic fast path must be
// bit-identical to the scalar ContainsInRange loop on every variant and
// every pipeline depth — bulk-built, sharded-with-staged-rows,
// serialized/alias-loaded, and catalog-served alike — and RangeCcf::Insert
// must be all-or-nothing per row (a mid-η capacity failure may not leave
// partial dyadic levels behind).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "ccf/ccf.h"
#include "ccf/range_ccf.h"
#include "ccf/sharded_ccf.h"
#include "predicate/dyadic.h"
#include "serve/filter_catalog.h"
#include "util/batch_pipeline.h"
#include "util/file_io.h"
#include "util/random.h"

namespace ccf {
namespace {

constexpr int kMaxLevel = 10;
constexpr int kRangeAttr = 1;

/// kPlain keeps every copy of a key in its single bucket pair (2 x 4
/// slots), so its η must stay well under 8; the chain/bloom/mixed variants
/// absorb arbitrary duplicate counts.
int LevelFor(CcfVariant variant) {
  return variant == CcfVariant::kPlain ? 3 : kMaxLevel;
}

// Geometry note: every row inserts η = max_level + 1 dyadic labels, so a
// 3000-row fixture at max_level 10 occupies 33k of the 65k slots (≈ 0.5).
CcfConfig RangeConfig(uint64_t salt, uint64_t num_buckets = 16384) {
  CcfConfig config;
  config.num_buckets = num_buckets;
  config.slots_per_bucket = 4;
  config.key_fp_bits = 12;
  config.attr_fp_bits = 12;
  config.num_attrs = 2;
  config.salt = salt;
  return config;
}

struct RangeRows {
  std::vector<uint64_t> keys;
  std::vector<uint64_t> flat_attrs;  // {category, value} per row
};

RangeRows MakeRows(size_t n, uint64_t seed) {
  RangeRows rows;
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) {
    rows.keys.push_back(i + 1);
    rows.flat_attrs.push_back(rng.NextBelow(5));
    rows.flat_attrs.push_back(1880 + rng.NextBelow(132));
  }
  return rows;
}

struct RangeQuery {
  uint64_t lo;
  uint64_t hi;
  Predicate other;
};

std::vector<RangeQuery> MakeQueries() {
  return {
      {1880, 2011, Predicate()},
      {1950, 1950, Predicate()},                     // single value
      {1990, 2005, Predicate::Equals(0, 2)},         // + equality term
      {2011, 1880, Predicate()},                     // inverted: empty
      {0, UINT64_MAX, Predicate()},                  // open-ended: clamps
      {3000, 4000, Predicate()},                     // disjoint from data
      {1879, 1880, Predicate()},                     // left boundary
  };
}

/// Scalar reference + batched answers must agree exactly.
void ExpectBatchedMatchesScalar(const RangeCcf& filter,
                                const std::vector<uint64_t>& probes,
                                const char* context) {
  for (const RangeQuery& q : MakeQueries()) {
    CompiledRangePredicate compiled =
        filter.CompileRange(q.lo, q.hi, q.other).ValueOrDie();
    std::unique_ptr<bool[]> got(new bool[probes.size()]());
    ASSERT_TRUE(filter
                    .ContainsInRangeBatch(
                        probes, compiled,
                        std::span<bool>(got.get(), probes.size()))
                    .ok());
    for (size_t i = 0; i < probes.size(); ++i) {
      bool want = filter.ContainsInRange(probes[i], q.lo, q.hi, q.other);
      ASSERT_EQ(got[i], want)
          << context << ": key " << probes[i] << " range [" << q.lo << ", "
          << q.hi << "]";
    }
  }
}

std::vector<uint64_t> MakeProbes(size_t n, uint64_t seed) {
  std::vector<uint64_t> probes;
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) probes.push_back(rng.NextBelow(2 * n));
  return probes;
}

class RangeBatchDifferentialTest : public ::testing::TestWithParam<CcfVariant> {
 protected:
  void TearDown() override { SetBatchPipelineWay(0); }
};

// The tentpole invariant: one compiled cover broadcast through the batch
// pipeline answers exactly like the per-key scalar loop, across pipeline
// interleave widths. (The bucket kernel is a single portable one, so the
// former SIMD-tier axis of this sweep has one point.)
TEST_P(RangeBatchDifferentialTest, BatchedMatchesScalarAcrossTiersAndWays) {
  RangeRows rows = MakeRows(3000, 11);
  auto filter = RangeCcf::Make(GetParam(), RangeConfig(29), kRangeAttr,
                               LevelFor(GetParam()))
                    .ValueOrDie();
  ASSERT_TRUE(filter->InsertBatch(rows.keys, rows.flat_attrs).ok());
  std::vector<uint64_t> probes = MakeProbes(4000, 13);

  for (size_t way : {size_t{1}, size_t{2}, size_t{8}}) {
    SetBatchPipelineWay(way);
    ExpectBatchedMatchesScalar(*filter, probes, "bulk");
  }
}

// Sharded inner: staged (uncommitted) rows must be visible to range probes
// through the write-buffer overlay, and stay visible after the commit.
TEST_P(RangeBatchDifferentialTest, ShardedStagedRowsVisibleToRangeProbes) {
  RangeRows rows = MakeRows(1500, 17);
  ShardedCcfOptions sharded;
  sharded.num_shards = 4;
  auto filter = RangeCcf::MakeSharded(GetParam(), RangeConfig(37), kRangeAttr,
                                      LevelFor(GetParam()), sharded)
                    .ValueOrDie();
  size_t half = rows.keys.size() / 2;
  ASSERT_TRUE(filter
                  ->BufferWriteBatch(
                      std::span<const uint64_t>(rows.keys.data(), half),
                      std::span<const uint64_t>(rows.flat_attrs.data(),
                                                2 * half))
                  .ok());
  ASSERT_TRUE(filter->CommitWrites().ok());
  // Second half stays STAGED: probes must see it through the overlay.
  ASSERT_TRUE(filter
                  ->BufferWriteBatch(
                      std::span<const uint64_t>(rows.keys.data() + half,
                                                rows.keys.size() - half),
                      std::span<const uint64_t>(
                          rows.flat_attrs.data() + 2 * half,
                          rows.flat_attrs.size() - 2 * half))
                  .ok());
  EXPECT_GT(filter->pending_writes(), 0u);
  for (size_t i = 0; i < rows.keys.size(); ++i) {
    uint64_t value = rows.flat_attrs[2 * i + 1];
    EXPECT_TRUE(
        filter->ContainsInRange(rows.keys[i], value, value, Predicate()))
        << (i < half ? "committed" : "staged") << " row " << i;
  }
  std::vector<uint64_t> probes = MakeProbes(2000, 19);
  ExpectBatchedMatchesScalar(*filter, probes, "sharded+staged");
  ASSERT_TRUE(filter->CommitWrites().ok());
  ExpectBatchedMatchesScalar(*filter, probes, "sharded+committed");
}

// Serialization round-trip (copy mode and zero-copy alias mode) preserves
// every range answer and the row log.
TEST_P(RangeBatchDifferentialTest, SerializeRoundTripPreservesRangeAnswers) {
  RangeRows rows = MakeRows(2000, 23);
  auto filter = RangeCcf::Make(GetParam(), RangeConfig(41), kRangeAttr,
                               LevelFor(GetParam()))
                    .ValueOrDie();
  ASSERT_TRUE(filter->InsertBatch(rows.keys, rows.flat_attrs).ok());
  std::string blob = filter->Serialize();

  auto copy = ConditionalCuckooFilter::Deserialize(blob).ValueOrDie();
  auto* copy_range = dynamic_cast<RangeCcf*>(copy.get());
  ASSERT_NE(copy_range, nullptr);
  EXPECT_EQ(copy_range->num_rows(), filter->num_rows());
  EXPECT_EQ(copy_range->range_attr(), kRangeAttr);
  EXPECT_EQ(copy_range->max_level(), LevelFor(GetParam()));
  EXPECT_EQ(copy_range->Serialize(), blob);

  const char* tmp = ::getenv("TMPDIR");
  std::string path = std::string(tmp ? tmp : "/tmp") + "/range_ccf_alias_" +
                     std::string(CcfVariantName(GetParam())) + ".bin";
  ASSERT_TRUE(WriteFileBytes(path, blob).ok());
  auto mapping =
      std::make_shared<MappedFile>(MmapFileBytes(path).ValueOrDie());
  AliasMapping alias{
      std::shared_ptr<const void>(mapping, mapping->view().data())};
  auto aliased =
      ConditionalCuckooFilter::Deserialize(mapping->view(), alias)
          .ValueOrDie();
  auto* alias_range = dynamic_cast<RangeCcf*>(aliased.get());
  ASSERT_NE(alias_range, nullptr);

  std::vector<uint64_t> probes = MakeProbes(2500, 43);
  for (const RangeQuery& q : MakeQueries()) {
    for (uint64_t key : probes) {
      bool want = filter->ContainsInRange(key, q.lo, q.hi, q.other);
      EXPECT_EQ(copy_range->ContainsInRange(key, q.lo, q.hi, q.other), want);
      EXPECT_EQ(alias_range->ContainsInRange(key, q.lo, q.hi, q.other), want);
    }
  }
  ExpectBatchedMatchesScalar(*copy_range, probes, "deserialized");
  ExpectBatchedMatchesScalar(*alias_range, probes, "alias-loaded");
}

// A sharded range filter round-trips through serialization too (committed
// state only), and keeps accepting live writes afterwards.
TEST_P(RangeBatchDifferentialTest, ShardedSerializeRoundTrip) {
  RangeRows rows = MakeRows(1200, 47);
  ShardedCcfOptions sharded;
  sharded.num_shards = 4;
  auto filter = RangeCcf::MakeSharded(GetParam(), RangeConfig(53), kRangeAttr,
                                      LevelFor(GetParam()), sharded)
                    .ValueOrDie();
  ASSERT_TRUE(filter->BufferWriteBatch(rows.keys, rows.flat_attrs).ok());
  ASSERT_TRUE(filter->CommitWrites().ok());
  auto restored =
      ConditionalCuckooFilter::Deserialize(filter->Serialize()).ValueOrDie();
  auto* range = dynamic_cast<RangeCcf*>(restored.get());
  ASSERT_NE(range, nullptr);
  ASSERT_NE(range->sharded_inner(), nullptr);
  EXPECT_EQ(range->num_rows(), filter->num_rows());
  std::vector<uint64_t> probes = MakeProbes(1500, 59);
  for (uint64_t key : probes) {
    EXPECT_EQ(range->ContainsInRange(key, 1900, 1980, Predicate()),
              filter->ContainsInRange(key, 1900, 1980, Predicate()));
  }
  // Still live-writable after the round trip.
  uint64_t extra_key = 999983;
  std::vector<uint64_t> extra_attrs = {1, 1955};
  ASSERT_TRUE(range->BufferWrite(extra_key, extra_attrs).ok());
  EXPECT_TRUE(range->ContainsInRange(extra_key, 1955, 1955, Predicate()));
}

INSTANTIATE_TEST_SUITE_P(AllVariants, RangeBatchDifferentialTest,
                         ::testing::Values(CcfVariant::kPlain,
                                           CcfVariant::kChained,
                                           CcfVariant::kBloom,
                                           CcfVariant::kMixed),
                         [](const auto& info) {
                           return std::string(CcfVariantName(info.param));
                         });

// --- All-or-nothing insertion (satellite bugfix) ----------------------------

// Per-level observation: an aligned range [v̄, v̄ + 2^ℓ - 1] compiles to the
// single level-ℓ label containing v, so each dyadic level's presence is
// independently probeable.
bool LevelPresent(const RangeCcf& f, uint64_t key, uint64_t value,
                  int level) {
  uint64_t lo = (value >> level) << level;
  uint64_t hi = lo + ((uint64_t{1} << level) - 1);
  return f.ContainsInRange(key, lo, hi, Predicate());
}

// Pre-fix, RangeCcf::Insert walked the η dyadic levels with independent
// inner inserts: a CapacityError at level j > 0 returned an error but left
// levels 0..j-1 resident — partially-present rows that answer some aligned
// range probes and not others. Post-fix a failed Insert must leave the row
// either fully present (impossible here — it failed) or fully absent.
TEST(RangeCcfAtomicInsertTest, MidRowCapacityFailureLeavesNoPartialLevels) {
  // Tiny plain-variant table with wide fingerprints: capacity errors arrive
  // quickly, and 16-bit attribute fingerprints keep the false-positive rate
  // of the per-level probes below noise.
  CcfConfig config;
  config.num_buckets = 64;
  config.slots_per_bucket = 4;
  config.key_fp_bits = 16;
  config.attr_fp_bits = 16;
  config.num_attrs = 2;
  config.salt = 71;
  auto filter =
      RangeCcf::Make(CcfVariant::kPlain, config, kRangeAttr, kMaxLevel)
          .ValueOrDie();

  Rng rng(73);
  int failures = 0;
  for (uint64_t key = 1; key <= 2000 && failures < 20; ++key) {
    uint64_t value = 1880 + rng.NextBelow(132);
    std::vector<uint64_t> attrs = {rng.NextBelow(5), value};
    Status st = filter->Insert(key, attrs);
    if (st.ok()) {
      // Successful rows must answer at EVERY level (no-false-negative).
      for (int level = 0; level <= kMaxLevel; ++level) {
        ASSERT_TRUE(LevelPresent(*filter, key, value, level))
            << "inserted key " << key << " missing at level " << level;
      }
      continue;
    }
    if (st.code() == StatusCode::kCapacityError) {
      // All-or-nothing: a capacity-failed row may not be partially
      // resident. (Status::Internal would flag the documented degraded
      // mode — rollback rebuild itself failed — which is reported, not
      // silent; it does not occur in this deterministic fixture.)
      ++failures;
      int present = 0;
      for (int level = 0; level <= kMaxLevel; ++level) {
        present += LevelPresent(*filter, key, value, level);
      }
      ASSERT_EQ(present, 0)
          << "capacity-failed key " << key << " is partially resident ("
          << present << " of " << (kMaxLevel + 1) << " levels)";
    } else {
      FAIL() << "unexpected insert status: " << st.message();
    }
  }
  ASSERT_GT(failures, 0) << "fixture never hit a capacity failure";
}

// InsertBatch validates before mutating: a batch with an out-of-domain
// range value is rejected whole — no prefix of it lands in the filter.
TEST(RangeCcfAtomicInsertTest, BatchWithBadRowInsertsNothing) {
  auto filter = RangeCcf::Make(CcfVariant::kChained, RangeConfig(79),
                               kRangeAttr, kMaxLevel)
                    .ValueOrDie();
  std::vector<uint64_t> keys = {1, 2, 3};
  std::vector<uint64_t> attrs = {0, 1900, 0, kDyadicDomainSize, 0, 1950};
  ASSERT_FALSE(filter->InsertBatch(keys, attrs).ok());
  EXPECT_EQ(filter->num_rows(), 0u);
  EXPECT_FALSE(filter->ContainsInRange(1, 1900, 1900, Predicate()));
}

// --- Catalog integration ----------------------------------------------------

TEST(RangeCatalogTest, LookupRangeBatchMatchesDirectProbes) {
  RangeRows rows = MakeRows(1500, 83);
  auto filter = RangeCcf::Make(CcfVariant::kChained, RangeConfig(89),
                               kRangeAttr, kMaxLevel)
                    .ValueOrDie();
  ASSERT_TRUE(filter->InsertBatch(rows.keys, rows.flat_attrs).ok());
  auto reference = RangeCcf::Make(CcfVariant::kChained, RangeConfig(89),
                                  kRangeAttr, kMaxLevel)
                       .ValueOrDie();
  ASSERT_TRUE(reference->InsertBatch(rows.keys, rows.flat_attrs).ok());

  FilterCatalog catalog;
  ASSERT_TRUE(catalog.AddFilter("years", std::move(filter)).ok());
  std::vector<uint64_t> probes = MakeProbes(2000, 97);
  std::unique_ptr<bool[]> got(new bool[probes.size()]());
  std::span<bool> got_span(got.get(), probes.size());
  for (const RangeQuery& q : MakeQueries()) {
    ASSERT_TRUE(
        catalog.LookupRangeBatch("years", probes, q.lo, q.hi, q.other,
                                 got_span)
            .ok());
    for (size_t i = 0; i < probes.size(); ++i) {
      EXPECT_EQ(got[i],
                reference->ContainsInRange(probes[i], q.lo, q.hi, q.other));
    }
  }
  // Non-range entries answer Invalid, not garbage.
  auto plain =
      ConditionalCuckooFilter::Make(CcfVariant::kChained, RangeConfig(89))
          .ValueOrDie();
  ASSERT_TRUE(catalog.AddFilter("plain", std::move(plain)).ok());
  EXPECT_FALSE(
      catalog.LookupRangeBatch("plain", probes, 1900, 1950, Predicate(),
                               got_span)
          .ok());
}

// Eviction compresses a range entry to its cold blob; promote-on-access
// restores it with every range answer intact (RCF1 round-trips through the
// catalog's tiering, not just direct Serialize calls).
TEST(RangeCatalogTest, RangeEntrySurvivesEvictAndPromote) {
  RangeRows rows = MakeRows(1200, 101);
  auto filter = RangeCcf::Make(CcfVariant::kMixed, RangeConfig(103),
                               kRangeAttr, kMaxLevel)
                    .ValueOrDie();
  ASSERT_TRUE(filter->InsertBatch(rows.keys, rows.flat_attrs).ok());
  auto* raw = filter.get();
  std::vector<uint64_t> probes = MakeProbes(1200, 107);
  std::vector<bool> want;
  for (uint64_t key : probes) {
    want.push_back(raw->ContainsInRange(key, 1920, 1980, Predicate()));
  }
  FilterCatalog catalog;
  ASSERT_TRUE(catalog.AddFilter("years", std::move(filter)).ok());
  ASSERT_TRUE(catalog.Evict("years").ok());
  std::unique_ptr<bool[]> got(new bool[probes.size()]());
  ASSERT_TRUE(catalog
                  .LookupRangeBatch("years", probes, 1920, 1980, Predicate(),
                                    std::span<bool>(got.get(), probes.size()))
                  .ok());
  for (size_t i = 0; i < probes.size(); ++i) EXPECT_EQ(got[i], want[i]);
  EXPECT_GE(catalog.stats().promotions, 1u);
}

// Catalog InsertBatch on a sharded range entry routes raw-schema rows
// through the filter's staged overlay (η labels expanded inside RangeCcf,
// not by the catalog).
TEST(RangeCatalogTest, InsertBatchRoutesThroughShardedRangeOverlay) {
  ShardedCcfOptions sharded;
  sharded.num_shards = 4;
  auto filter = RangeCcf::MakeSharded(CcfVariant::kChained, RangeConfig(109),
                                      kRangeAttr, kMaxLevel, sharded)
                    .ValueOrDie();
  FilterCatalog catalog;
  ASSERT_TRUE(catalog.AddFilter("live", std::move(filter)).ok());
  RangeRows rows = MakeRows(600, 113);
  ASSERT_TRUE(catalog.InsertBatch("live", rows.keys, rows.flat_attrs).ok());
  std::unique_ptr<bool[]> got(new bool[rows.keys.size()]());
  ASSERT_TRUE(catalog
                  .LookupRangeBatch(
                      "live", rows.keys, 1880, 2011, Predicate(),
                      std::span<bool>(got.get(), rows.keys.size()))
                  .ok());
  for (size_t i = 0; i < rows.keys.size(); ++i) {
    EXPECT_TRUE(got[i]) << "staged row " << i << " invisible to range probe";
  }
}

// --- Live-write stress (TSan leg) -------------------------------------------

// One writer staging + committing row batches while reader threads hammer
// batched range probes: committed rows must never answer false, and the
// run must be race-free under TSan (the |Range CI leg).
TEST(RangeLiveWriteStressTest, ConcurrentStagersAndBatchedRangeReaders) {
  ShardedCcfOptions sharded;
  sharded.num_shards = 4;
  auto filter =
      RangeCcf::MakeSharded(CcfVariant::kChained, RangeConfig(127, 16384),
                            kRangeAttr, /*max_level=*/7, sharded)
          .ValueOrDie();
  RangeRows rows = MakeRows(4000, 131);
  constexpr size_t kChunk = 250;
  std::atomic<size_t> committed_rows{0};
  std::atomic<bool> done{false};

  std::thread writer([&] {
    for (size_t off = 0; off < rows.keys.size(); off += kChunk) {
      size_t n = std::min(kChunk, rows.keys.size() - off);
      filter
          ->BufferWriteBatch(
              std::span<const uint64_t>(rows.keys.data() + off, n),
              std::span<const uint64_t>(rows.flat_attrs.data() + 2 * off,
                                        2 * n))
          .Abort();
      filter->CommitWrites().Abort();
      committed_rows.store(off + n, std::memory_order_release);
    }
    done.store(true, std::memory_order_release);
  });

  std::vector<std::thread> readers;
  std::atomic<uint64_t> false_negatives{0};
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(137 + t);
      while (!done.load(std::memory_order_acquire)) {
        size_t visible = committed_rows.load(std::memory_order_acquire);
        if (visible == 0) continue;
        size_t n = std::min<size_t>(visible, 512);
        size_t start = rng.NextBelow(visible - n + 1);
        std::span<const uint64_t> probe(rows.keys.data() + start, n);
        CompiledRangePredicate compiled =
            filter->CompileRange(1880, 2011, Predicate()).ValueOrDie();
        std::unique_ptr<bool[]> out(new bool[n]());
        if (!filter
                 ->ContainsInRangeBatch(probe, compiled,
                                        std::span<bool>(out.get(), n))
                 .ok()) {
          continue;
        }
        for (size_t i = 0; i < n; ++i) {
          if (!out[i]) false_negatives.fetch_add(1);
        }
      }
    });
  }
  writer.join();
  for (auto& r : readers) r.join();
  EXPECT_EQ(false_negatives.load(), 0u);
  // Final state: every row answers its exact year.
  for (size_t i = 0; i < rows.keys.size(); ++i) {
    uint64_t value = rows.flat_attrs[2 * i + 1];
    ASSERT_TRUE(
        filter->ContainsInRange(rows.keys[i], value, value, Predicate()));
  }
}

}  // namespace
}  // namespace ccf
