// Pinned bit-identity digests of the chained CCF's bulk build. Each case
// builds a filter, hashes its Serialize() blob with the library's lookup3
// (hashlittle2, fixed seeds) and compares against a digest recorded before
// the bulk-build shortcuts it guards existed (the wave-2 chain cursor; the
// once-per-run key hashing and the wave-1 saturation skip): any change to slot
// placement, duplicate collapsing, chain walking or overflow accounting
// shows up as a digest mismatch. Every inserted row must also answer
// Contains true (Theorem 3). The InsertBatch digests assume each block
// resolves its rows in input order; they were taken from an independent
// build that ran the insert pipeline in input order with the shortcuts in
// place, not from the code under test.
//
// The cases target the duplicate-key chaining paths:
//  * a RangeCcf anchor over synthetic IMDB title rows (η = 11 label rows
//    per key: the chain-join build), below and past the insert prefetch
//    gate;
//  * 4-bit key fingerprints on a 64-bucket table, so chains of different
//    keys share pairs, ChainWalk exhausts its cycle-extension rounds and
//    revisits pairs, and exact-duplicate rows share a batch;
//  * one chain's deferred rows split by an InsertBatch block boundary, with
//    a wave-1 write into that chain in between;
//  * a key's first pair saturated by another key of its fingerprint before
//    the key's run arrives, in the same batch and in an earlier one;
//  * equal keys that are not adjacent in the batch;
//  * rows of other fingerprints in a saturated pair's bucket, which wave 1
//    must still place in order;
//  * a ShardedCcf whose shards hit CapacityError and double through the
//    memoized rebuild;
//  * a wide geometry (slot_bits() > 64, no packed payload word) and the
//    scalar Insert route over the same fixtures.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "ccf/ccf.h"
#include "ccf/ccf_base.h"
#include "ccf/chained_ccf.h"
#include "ccf/range_ccf.h"
#include "ccf/sharded_ccf.h"
#include "cuckoo/cuckoo_filter.h"
#include "data/imdb_synth.h"
#include "hash/hasher.h"
#include "hash/lookup3.h"
#include "util/batch_pipeline.h"
#include "util/random.h"

namespace ccf {
namespace {

uint64_t Digest(const std::string& blob) {
  uint32_t c = 0x243f6a88u;
  uint32_t b = 0x85a308d3u;
  Lookup3Hash2(blob.data(), blob.size(), &c, &b);
  return (static_cast<uint64_t>(b) << 32) | c;
}

std::string Hex(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

struct Rows {
  std::vector<uint64_t> keys;
  std::vector<uint64_t> flat_attrs;
  size_t num_attrs = 0;

  std::span<const uint64_t> attrs(size_t i) const {
    return std::span<const uint64_t>(flat_attrs.data() + i * num_attrs,
                                     num_attrs);
  }
};

void ExpectAllRowsPresent(const ConditionalCuckooFilter& filter,
                          const Rows& rows) {
  for (size_t i = 0; i < rows.keys.size(); ++i) {
    ASSERT_TRUE(filter.ContainsRow(rows.keys[i], rows.attrs(i)))
        << "row " << i << " key " << rows.keys[i];
  }
}

// --- Case 1: chain-join's anchor build --------------------------------------

Rows TitleRows(const ImdbDataset& dataset, int* range_attr) {
  const TableData& title = dataset.title();
  Rows rows;
  rows.num_attrs = title.spec.predicate_columns.size();
  const std::vector<uint64_t>& keys =
      *title.table.column(title.spec.key_column).ValueOrDie();
  std::vector<const std::vector<uint64_t>*> cols;
  for (size_t c = 0; c < rows.num_attrs; ++c) {
    const std::string& name = title.spec.predicate_columns[c];
    cols.push_back(title.table.column(name).ValueOrDie());
    if (name == "production_year") *range_attr = static_cast<int>(c);
  }
  rows.keys = keys;
  for (size_t i = 0; i < keys.size(); ++i) {
    for (const auto* col : cols) rows.flat_attrs.push_back((*col)[i]);
  }
  return rows;
}

// The anchor geometry of RunMultiJoinChain: 4 slots, 12-bit key and
// attribute fingerprints, ≤ 0.5 load at η = 11 entries per row. Reports
// the table size through `table_bytes` when non-null.
uint64_t RangeAnchorDigest(uint64_t seed, double scale = 1.0 / 1024,
                           uint64_t* table_bytes = nullptr) {
  ImdbDataset dataset = GenerateImdb(scale, seed).ValueOrDie();
  int range_attr = -1;
  Rows rows = TitleRows(dataset, &range_attr);
  EXPECT_GE(range_attr, 0);
  constexpr int kMaxLevel = 10;
  CcfConfig config;
  config.slots_per_bucket = 4;
  config.key_fp_bits = 12;
  config.attr_fp_bits = 12;
  config.num_attrs = static_cast<int>(rows.num_attrs);
  config.salt = seed;
  uint64_t buckets = 64;
  while (buckets * 4 < rows.keys.size() * (kMaxLevel + 1) * 2) buckets <<= 1;
  config.num_buckets = buckets;
  auto filter = RangeCcf::Make(CcfVariant::kChained, config, range_attr,
                               kMaxLevel)
                    .ValueOrDie();
  EXPECT_TRUE(filter->InsertBatch(rows.keys, rows.flat_attrs).ok());
  EXPECT_EQ(filter->num_rows(), rows.keys.size());
  ExpectAllRowsPresent(*filter, rows);
  if (table_bytes != nullptr) *table_bytes = filter->SizeInBits() / 8;
  return Digest(filter->Serialize());
}

TEST(ChainedBuildDigestTest, RangeAnchorOverImdbTitle) {
  const uint64_t kPinned[] = {0x28a0df22f182df55ull, 0x31730e847c6b7efaull,
                               0xe056a39063a19eeeull};
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    EXPECT_EQ(Hex(RangeAnchorDigest(seed)), Hex(kPinned[seed - 1]))
        << "seed " << seed;
  }
}

// The chain-join scale puts the anchor table past the insert prefetch
// gate, where wave 1 walks saturated chains ahead and wave 2's cursor
// takes those hops from it instead of walking them again.
TEST(ChainedBuildDigestTest, RangeAnchorPastPrefetchGate) {
  uint64_t table_bytes = 0;
  EXPECT_EQ(Hex(RangeAnchorDigest(1, 1.0 / 128, &table_bytes)),
            Hex(0xb31b02ca7e814ae3ull));
  EXPECT_TRUE(InsertPrefetches(table_bytes * 8)) << table_bytes;
}

// --- Case 2: 4-bit fingerprints on a 64-bucket table -------------------------

CcfConfig TinyConfig(int max_dupes) {
  CcfConfig config;
  config.num_buckets = 64;
  config.slots_per_bucket = 4;
  config.key_fp_bits = 4;
  config.attr_fp_bits = 8;
  config.num_attrs = 2;
  config.max_dupes = max_dupes;
  config.salt = 17;
  return config;
}

// Keys picked by fingerprint: four keys share fingerprint 3 and two share
// fingerprint 9, each with 16-48 distinct rows, every distinct row repeated
// 1-3 times at shuffled positions. Same-fingerprint keys walk the same ≤ 32
// bucket pairs of the 64-bucket table, so their chains share pairs, run
// past the fingerprint's distinct pairs (ChainWalk exhausts its
// cycle-extension rounds and revisits), and overflow at the chain cap.
Rows TinyRows(uint64_t seed) {
  const CcfConfig config = TinyConfig(1);
  const Hasher hasher(config.salt);
  std::vector<uint64_t> keys;
  int want3 = 4, want9 = 2;
  for (uint64_t k = 1; want3 + want9 > 0; ++k) {
    uint64_t bucket;
    uint32_t fp;
    cuckoo_addressing::IndexAndFingerprint(hasher, k, config.num_buckets - 1,
                                           config.key_fp_bits, &bucket, &fp);
    if (fp == 3 && want3 > 0) {
      keys.push_back(k);
      --want3;
    } else if (fp == 9 && want9 > 0) {
      keys.push_back(k);
      --want9;
    }
  }
  Rng rng(seed);
  Rows distinct;
  distinct.num_attrs = 2;
  for (uint64_t key : keys) {
    uint64_t n = 16 + rng.NextBelow(33);
    for (uint64_t r = 0; r < n; ++r) {
      distinct.keys.push_back(key);
      distinct.flat_attrs.push_back(r);
      distinct.flat_attrs.push_back(rng.NextBelow(4));
    }
  }
  std::vector<size_t> order;
  for (size_t i = 0; i < distinct.keys.size(); ++i) {
    uint64_t copies = 1 + rng.NextBelow(3);
    for (uint64_t c = 0; c < copies; ++c) order.push_back(i);
  }
  for (size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.NextBelow(i)]);
  }
  // Keep runs of one key together in places (the range build's shape) by
  // stably grouping the first half by key.
  std::stable_sort(order.begin(), order.begin() + order.size() / 2,
                   [&](size_t a, size_t b) {
                     return distinct.keys[a] < distinct.keys[b];
                   });
  Rows rows;
  rows.num_attrs = 2;
  for (size_t i : order) {
    rows.keys.push_back(distinct.keys[i]);
    rows.flat_attrs.push_back(distinct.flat_attrs[2 * i]);
    rows.flat_attrs.push_back(distinct.flat_attrs[2 * i + 1]);
  }
  return rows;
}

uint64_t TinyBatchDigest(int max_dupes, uint64_t seed, bool scalar) {
  Rows rows = TinyRows(seed);
  auto filter =
      ConditionalCuckooFilter::Make(CcfVariant::kChained, TinyConfig(max_dupes))
          .ValueOrDie();
  if (scalar) {
    for (size_t i = 0; i < rows.keys.size(); ++i) {
      EXPECT_TRUE(filter->Insert(rows.keys[i], rows.attrs(i)).ok());
    }
  } else {
    // Two calls: the second batch's chains continue ones the first built.
    const size_t half = rows.keys.size() / 2;
    EXPECT_TRUE(filter
                    ->InsertBatch(std::span(rows.keys).first(half),
                                  std::span(rows.flat_attrs).first(2 * half))
                    .ok());
    EXPECT_TRUE(filter
                    ->InsertBatch(std::span(rows.keys).subspan(half),
                                  std::span(rows.flat_attrs).subspan(2 * half))
                    .ok());
  }
  const auto& chained = static_cast<const ChainedCcf&>(*filter);
  // The fixture must actually reach the paths it exists for: both
  // fingerprints have non-degenerate pairs, so each owns at most 32
  // distinct pairs and a chain longer than that has revisited one.
  for (uint32_t fp : {3u, 9u}) {
    EXPECT_NE(cuckoo_addressing::AltBucket(chained.hasher(), 0, fp, 63), 0u);
  }
  EXPECT_GT(chained.num_overflow_rows(), 0u);
  EXPECT_GT(chained.max_chain_seen(), 32);
  ExpectAllRowsPresent(*filter, rows);
  return Digest(filter->Serialize());
}

TEST(ChainedBuildDigestTest, SharedPairsAndCycleExtension) {
  EXPECT_EQ(Hex(TinyBatchDigest(1, 5, /*scalar=*/false)),
            Hex(0x8614cd22aeeef607ull));
  EXPECT_EQ(Hex(TinyBatchDigest(2, 6, /*scalar=*/false)),
            Hex(0x579e63d1cddc2b1eull));
}

TEST(ChainedBuildDigestTest, ScalarInsertSharedPairs) {
  EXPECT_EQ(Hex(TinyBatchDigest(1, 5, /*scalar=*/true)),
            Hex(0x726bc613eb76a880ull));
  EXPECT_EQ(Hex(TinyBatchDigest(2, 6, /*scalar=*/true)),
            Hex(0x7b04bd77a92bc044ull));
}

// A chain whose run of deferred rows spans an InsertBatch block boundary,
// with a wave-1 write into the chain's last pair in between: block 0 is
// filler that collapses in wave 1 plus five rows of key A (max_dupes 2, so
// A's chain ends at hop 2 holding one copy); block 1 opens with a row of
// key B — same fingerprint, first pair = A's hop-2 pair — which wave 1
// places there, saturating it, and then more rows of A. A's next wave-2 row
// must see hop 2 saturated and move on to hop 3.
TEST(ChainedBuildDigestTest, ChainRunAcrossBlockBoundary) {
  const CcfConfig config = TinyConfig(2);
  const Hasher hasher(config.salt);
  const uint64_t mask = config.num_buckets - 1;
  auto address = [&](uint64_t key, uint64_t* bucket, uint32_t* fp) {
    cuckoo_addressing::IndexAndFingerprint(hasher, key, mask,
                                           config.key_fp_bits, bucket, fp);
  };
  const uint64_t key_a = 1;
  uint64_t a_bucket;
  uint32_t a_fp;
  address(key_a, &a_bucket, &a_fp);
  ChainWalk walk(&hasher, mask, a_bucket, a_fp);
  walk.Advance();
  walk.Advance();
  const BucketPair hop2 = walk.pair();
  uint64_t key_b = 0, key_x = 0;
  for (uint64_t k = 2; key_b == 0 || key_x == 0; ++k) {
    uint64_t bucket;
    uint32_t fp;
    address(k, &bucket, &fp);
    if (fp == a_fp && bucket != a_bucket &&
        (bucket == hop2.primary || bucket == hop2.alt)) {
      key_b = k;
    } else if (fp != a_fp && key_x == 0) {
      key_x = k;
    }
  }

  Rows rows;
  rows.num_attrs = 2;
  auto add = [&](uint64_t key, uint64_t a0, uint64_t a1) {
    rows.keys.push_back(key);
    rows.flat_attrs.push_back(a0);
    rows.flat_attrs.push_back(a1);
  };
  for (uint64_t r = 0; r < 5; ++r) add(key_a, r, 0);
  while (rows.keys.size() < kInsertBatchBlock) add(key_x, 7, 7);
  add(key_b, 100, 1);
  for (uint64_t r = 5; r < 8; ++r) add(key_a, r, 0);

  auto filter =
      ConditionalCuckooFilter::Make(CcfVariant::kChained, config).ValueOrDie();
  ASSERT_TRUE(filter->InsertBatch(rows.keys, rows.flat_attrs).ok());
  EXPECT_EQ(filter->num_rows(), 10u);  // 8 of A, 1 of B, 1 of X
  EXPECT_EQ(static_cast<const ChainedCcf&>(*filter).max_chain_seen(), 4);
  ExpectAllRowsPresent(*filter, rows);
  EXPECT_EQ(Hex(Digest(filter->Serialize())), Hex(0xc45d0fc745c9b0c7ull));
}

// Keys sharing key A's fingerprint: B with A's first pair from the same
// primary bucket, C with it from the other side (primary = A's alt bucket).
struct SharedPairKeys {
  uint64_t a = 1, b = 0, c = 0, x = 0;  // x: a different fingerprint
};

SharedPairKeys FindSharedPairKeys(const CcfConfig& config) {
  const Hasher hasher(config.salt);
  const uint64_t mask = config.num_buckets - 1;
  SharedPairKeys keys;
  uint64_t a_bucket;
  uint32_t a_fp;
  cuckoo_addressing::IndexAndFingerprint(hasher, keys.a, mask,
                                         config.key_fp_bits, &a_bucket, &a_fp);
  const uint64_t a_alt =
      cuckoo_addressing::AltBucket(hasher, a_bucket, a_fp, mask);
  EXPECT_NE(a_alt, a_bucket);
  for (uint64_t k = 2; keys.b == 0 || keys.c == 0 || keys.x == 0; ++k) {
    uint64_t bucket;
    uint32_t fp;
    cuckoo_addressing::IndexAndFingerprint(hasher, k, mask, config.key_fp_bits,
                                           &bucket, &fp);
    if (fp != a_fp) {
      if (keys.x == 0) keys.x = k;
    } else if (bucket == a_bucket && keys.b == 0) {
      keys.b = k;
    } else if (bucket == a_alt && keys.c == 0) {
      keys.c = k;
    }
  }
  return keys;
}

// Before key A's run arrives, keys B and C — A's fingerprint and A's first
// pair — saturate that pair (max_dupes 2) and start its chain. A's rows
// must then walk on, and A's rows whose attributes equal a B row must
// collapse into it wherever on the chain it sits. Run once as one batch
// and once with B and C in an earlier batch, so the saturation is found
// both by this batch's own wave 1 and in the table a previous batch left.
uint64_t SaturatedBeforeRunDigest(bool split) {
  const CcfConfig config = TinyConfig(2);
  const SharedPairKeys keys = FindSharedPairKeys(config);
  Rows rows;
  rows.num_attrs = 2;
  auto add = [&](uint64_t key, uint64_t a0, uint64_t a1) {
    rows.keys.push_back(key);
    rows.flat_attrs.push_back(a0);
    rows.flat_attrs.push_back(a1);
  };
  for (uint64_t r = 0; r < 3; ++r) add(keys.b, r, 1);
  add(keys.c, 50, 2);
  add(keys.x, 7, 7);
  const size_t first_batch = rows.keys.size();
  // r = 0 and r = 2 repeat B's rows (0, 1) and (2, 1): collapses at hop 0
  // and hop 1.
  for (uint64_t r = 0; r < 8; ++r) add(keys.a, r, r % 2 == 0 ? 1 : 0);

  auto filter =
      ConditionalCuckooFilter::Make(CcfVariant::kChained, config).ValueOrDie();
  if (split) {
    EXPECT_TRUE(filter
                    ->InsertBatch(std::span(rows.keys).first(first_batch),
                                  std::span(rows.flat_attrs)
                                      .first(2 * first_batch))
                    .ok());
    EXPECT_TRUE(filter
                    ->InsertBatch(std::span(rows.keys).subspan(first_batch),
                                  std::span(rows.flat_attrs)
                                      .subspan(2 * first_batch))
                    .ok());
  } else {
    EXPECT_TRUE(filter->InsertBatch(rows.keys, rows.flat_attrs).ok());
  }
  EXPECT_EQ(filter->num_rows(), 11u);  // 3 B + 1 C + 1 X + 6 new A rows
  EXPECT_GE(static_cast<const ChainedCcf&>(*filter).max_chain_seen(), 4);
  ExpectAllRowsPresent(*filter, rows);
  return Digest(filter->Serialize());
}

// Both runs place every row in input order, so the one batch and the split
// batches build the same table and share one digest.
TEST(ChainedBuildDigestTest, PairSaturatedByAnotherKeyBeforeRun) {
  EXPECT_EQ(Hex(SaturatedBeforeRunDigest(/*split=*/false)),
            Hex(0xa17ecb4caf208684ull));
  EXPECT_EQ(Hex(SaturatedBeforeRunDigest(/*split=*/true)),
            Hex(0xa17ecb4caf208684ull));
}

// Equal keys that are not adjacent: A's rows interleaved with rows of X (a
// different fingerprint) and of B (A's address), so neither a key's hash
// nor a saturated address carries over from the previous row, and
// repeated rows of one key arrive apart.
TEST(ChainedBuildDigestTest, EqualKeysNotAdjacent) {
  const CcfConfig config = TinyConfig(2);
  const SharedPairKeys keys = FindSharedPairKeys(config);
  const uint64_t cycle[] = {keys.a, keys.x, keys.a, keys.b, keys.x,
                            keys.b, keys.a, keys.c};
  Rows rows;
  rows.num_attrs = 2;
  // The key cycles every 8 rows and the attributes every 6, so each row
  // recurs 24 positions later.
  for (uint64_t i = 0; i < 48; ++i) {
    rows.keys.push_back(cycle[i % 8]);
    rows.flat_attrs.push_back(i % 6);
    rows.flat_attrs.push_back(1);
  }
  auto filter =
      ConditionalCuckooFilter::Make(CcfVariant::kChained, config).ValueOrDie();
  ASSERT_TRUE(filter->InsertBatch(rows.keys, rows.flat_attrs).ok());
  ExpectAllRowsPresent(*filter, rows);
  EXPECT_EQ(Hex(Digest(filter->Serialize())), Hex(0x7be099a40d83e1a8ull));
}

// Wave 1 may skip a row only for the exact saturated (first pair, fp): a
// row of another fingerprint in the same primary bucket must still be
// placed in wave 1, ahead of a later wave-1 row competing for the same
// free slot. Key A saturates its first pair (max_dupes 2, both copies in
// A's primary bucket), then a row of Y (another fingerprint, same primary
// bucket) arrives, then a row of V, whose pair has A's primary bucket as
// its ALT bucket and whose own primary bucket — clustered after A's — is
// already full. Y must take the first free slot of the shared bucket and
// V the next.
TEST(ChainedBuildDigestTest, SaturationSkipIsPerFingerprint) {
  const CcfConfig config = TinyConfig(2);
  const Hasher hasher(config.salt);
  const uint64_t mask = config.num_buckets - 1;
  auto address = [&](uint64_t key, uint64_t* bucket, uint32_t* fp) {
    cuckoo_addressing::IndexAndFingerprint(hasher, key, mask,
                                           config.key_fp_bits, bucket, fp);
  };
  // A: the first key whose primary bucket leaves room for V's above it.
  uint64_t key_a = 0, a_bucket = 0;
  uint32_t a_fp = 0;
  uint64_t key_y = 0, key_v = 0, v_bucket = 0;
  uint32_t v_fp = 0;
  for (uint64_t a = 1; key_v == 0; ++a) {
    address(a, &a_bucket, &a_fp);
    if (a_bucket >= mask / 2) continue;
    key_a = a;
    key_y = key_v = 0;
    uint32_t y_fp = 0;
    for (uint64_t k = 1; k < 200000 && (key_y == 0 || key_v == 0); ++k) {
      uint64_t bucket;
      uint32_t fp;
      address(k, &bucket, &fp);
      if (fp == a_fp) continue;
      if (key_y == 0 && bucket == a_bucket) {
        key_y = k;
        y_fp = fp;
      } else if (key_v == 0 && bucket > a_bucket &&
                 cuckoo_addressing::AltBucket(hasher, bucket, fp, mask) ==
                     a_bucket) {
        key_v = k;
        v_bucket = bucket;
        v_fp = fp;
      }
    }
    if (key_v != 0 && (key_y == 0 || v_fp == y_fp)) key_v = 0;
  }
  // Four keys that fill V's primary bucket, none with V's fingerprint.
  std::vector<uint64_t> fillers;
  for (uint64_t k = 1; fillers.size() < 4; ++k) {
    uint64_t bucket;
    uint32_t fp;
    address(k, &bucket, &fp);
    if (bucket == v_bucket && fp != v_fp && k != key_v) fillers.push_back(k);
  }

  Rows rows;
  rows.num_attrs = 2;
  auto add = [&](uint64_t key, uint64_t a0, uint64_t a1) {
    rows.keys.push_back(key);
    rows.flat_attrs.push_back(a0);
    rows.flat_attrs.push_back(a1);
  };
  for (uint64_t f : fillers) add(f, 1, 1);
  for (uint64_t r = 0; r < 3; ++r) add(key_a, r, 0);
  add(key_y, 9, 9);
  add(key_v, 8, 8);

  auto filter =
      ConditionalCuckooFilter::Make(CcfVariant::kChained, config).ValueOrDie();
  ASSERT_TRUE(filter->InsertBatch(rows.keys, rows.flat_attrs).ok());
  EXPECT_EQ(filter->num_rows(), rows.keys.size());
  const BucketTable& table = static_cast<const ChainedCcf&>(*filter).table();
  EXPECT_EQ(table.OccupiedMask(v_bucket), 0xfu);
  EXPECT_EQ(table.OccupiedMask(a_bucket), 0xfu);
  ExpectAllRowsPresent(*filter, rows);
  EXPECT_EQ(Hex(Digest(filter->Serialize())), Hex(0x0d86b7b43dd836deull));
}

// --- Case 3: memoized doubling rebuild through ShardedCcf --------------------

Rows DupHeavyRows(size_t n, size_t num_attrs, uint64_t seed) {
  Rows rows;
  rows.num_attrs = num_attrs;
  Rng rng(seed);
  const size_t num_keys = n / 8;
  for (size_t i = 0; i < n; ++i) {
    rows.keys.push_back(1000 + (i / 8) % num_keys * 7919 + i % 8 / 4);
    for (size_t a = 0; a < num_attrs; ++a) {
      rows.flat_attrs.push_back(rng.NextBelow(a == 0 ? 64 : 6));
    }
  }
  return rows;
}

TEST(ChainedBuildDigestTest, ShardedMemoizedDoublingRebuild) {
  Rows rows = DupHeavyRows(12000, 2, 71);
  CcfConfig config;
  config.num_buckets = 256;  // 64 per shard: every shard must double
  config.slots_per_bucket = 4;
  config.key_fp_bits = 12;
  config.attr_fp_bits = 8;
  config.num_attrs = 2;
  config.max_dupes = 2;
  config.salt = 23;
  ShardedCcfOptions opts;
  opts.num_shards = 4;
  opts.build_threads = 2;
  auto sharded =
      ShardedCcf::Make(CcfVariant::kChained, config, opts).ValueOrDie();
  ASSERT_TRUE(sharded->InsertParallel(rows.keys, rows.flat_attrs).ok());
  EXPECT_GE(sharded->num_resizes(), 4u);
  ExpectAllRowsPresent(*sharded, rows);
  EXPECT_EQ(Hex(Digest(sharded->Serialize())), Hex(0x06b2122c4728fba9ull));
}

// --- Case 4: wide slots (no packed payload word) -----------------------------

TEST(ChainedBuildDigestTest, WideSlotsBatchAndScalar) {
  Rows rows = DupHeavyRows(3000, 9, 83);
  CcfConfig config;
  config.num_buckets = 1024;
  config.slots_per_bucket = 4;
  config.key_fp_bits = 12;
  config.attr_fp_bits = 8;  // 9 × 8 + 12 = 84-bit slots
  config.num_attrs = 9;
  config.max_dupes = 2;
  config.salt = 29;
  auto batch =
      ConditionalCuckooFilter::Make(CcfVariant::kChained, config).ValueOrDie();
  ASSERT_EQ(static_cast<const ChainedCcf&>(*batch).table().slot_bits(), 84);
  ASSERT_TRUE(batch->InsertBatch(rows.keys, rows.flat_attrs).ok());
  ExpectAllRowsPresent(*batch, rows);
  EXPECT_EQ(Hex(Digest(batch->Serialize())), Hex(0x464bbfb9d8708cb0ull));

  auto scalar =
      ConditionalCuckooFilter::Make(CcfVariant::kChained, config).ValueOrDie();
  for (size_t i = 0; i < rows.keys.size(); ++i) {
    ASSERT_TRUE(scalar->Insert(rows.keys[i], rows.attrs(i)).ok());
  }
  ExpectAllRowsPresent(*scalar, rows);
  EXPECT_EQ(Hex(Digest(scalar->Serialize())), Hex(0x03b41d8d682dc9ecull));
}

}  // namespace
}  // namespace ccf
