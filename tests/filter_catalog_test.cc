// FilterCatalog serving tier: alias-mode (zero-copy mmap) deserialization
// is bit-identical to copy mode on every variant, small file-backed blobs
// promote by copy-load with identical answers and large ones by mmap,
// corrupt files leave their entry cold, writes to file-backed entries
// survive eviction, mutation after an alias load copy-on-writes and never
// touches the mapping, promote/evict
// churn under concurrent readers never produces a false negative, the
// cross-request batcher is differentially byte-equal to the inline path,
// and ShardedCcf's size/age auto-commit folds staged rows in the
// background.
#include "serve/filter_catalog.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "ccf/ccf.h"
#include "ccf/range_ccf.h"
#include "ccf/sharded_ccf.h"
#include "util/file_io.h"
#include "util/random.h"
#include "util/serde.h"

namespace ccf {
namespace {

CcfConfig TestConfig(uint64_t salt) {
  CcfConfig config;
  config.num_buckets = 2048;
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

Rows MakeRows(int n, uint64_t seed, uint64_t key_base = 0) {
  Rows rows;
  Rng rng(seed);
  int num_keys = n / 3;
  for (int i = 0; i < n; ++i) {
    rows.keys.push_back(key_base + static_cast<uint64_t>(i % num_keys));
    rows.flat_attrs.push_back(rng.NextBelow(200));
    rows.flat_attrs.push_back(rng.NextBelow(50));
  }
  return rows;
}

std::string TempPath(const std::string& name) {
  const char* dir = std::getenv("TMPDIR");
  return std::string(dir ? dir : "/tmp") + "/" + name;
}

std::unique_ptr<ConditionalCuckooFilter> BuildFilter(CcfVariant variant,
                                                     const Rows& rows,
                                                     uint64_t salt) {
  auto ccf =
      ConditionalCuckooFilter::Make(variant, TestConfig(salt)).ValueOrDie();
  ccf->InsertBatch(rows.keys, rows.flat_attrs).Abort();
  return ccf;
}

// Loads `path` through the catalog's zero-copy path: mmap + aliasing
// shared_ptr keepalive + alias-mode Deserialize.
std::unique_ptr<ConditionalCuckooFilter> AliasLoad(
    const std::string& path, std::shared_ptr<MappedFile>* mapping_out) {
  auto mapping =
      std::make_shared<MappedFile>(MmapFileBytes(path).ValueOrDie());
  AliasMapping alias{
      std::shared_ptr<const void>(mapping, mapping->view().data())};
  auto filter =
      ConditionalCuckooFilter::Deserialize(mapping->view(), alias)
          .ValueOrDie();
  if (mapping_out != nullptr) *mapping_out = mapping;
  return filter;
}

std::vector<bool> Probe(const ConditionalCuckooFilter& f,
                        const std::vector<uint64_t>& keys,
                        const Predicate& pred) {
  std::vector<bool> out;
  std::unique_ptr<bool[]> flat(new bool[keys.size()]());
  f.LookupBatch(keys, std::span<const Predicate>(&pred, 1),
                std::span<bool>(flat.get(), keys.size()))
      .Abort();
  out.assign(flat.get(), flat.get() + keys.size());
  return out;
}

class FilterCatalogAliasTest : public ::testing::TestWithParam<CcfVariant> {};

// The tentpole invariant: an alias-mode (zero-copy) load answers every
// query bit-identically to a copy-mode load, and re-serializes to the
// exact same bytes, on all four variants.
TEST_P(FilterCatalogAliasTest, AliasLoadBitIdenticalToCopyLoad) {
  Rows rows = MakeRows(6000, 7);
  auto built = BuildFilter(GetParam(), rows, 31);
  std::string blob = built->Serialize();
  std::string path =
      TempPath("ccf_alias_" + std::string(CcfVariantName(GetParam())) +
               ".bin");
  ASSERT_TRUE(WriteFileBytes(path, blob).ok());

  std::shared_ptr<MappedFile> mapping;
  auto aliased = AliasLoad(path, &mapping);
  auto copied = ConditionalCuckooFilter::Deserialize(blob).ValueOrDie();

  EXPECT_EQ(aliased->Serialize(), blob);
  EXPECT_EQ(copied->Serialize(), blob);

  std::vector<uint64_t> probes;
  Rng rng(11);
  for (int i = 0; i < 4000; ++i) probes.push_back(rng.NextBelow(4000));
  for (uint64_t a0 : {uint64_t{5}, uint64_t{100}, uint64_t{199}}) {
    Predicate pred = Predicate::Equals(0, a0);
    EXPECT_EQ(Probe(*aliased, probes, pred), Probe(*copied, probes, pred));
    EXPECT_EQ(Probe(*aliased, probes, pred), Probe(*built, probes, pred));
  }
  // No false negatives through the alias path.
  for (size_t i = 0; i < rows.keys.size(); i += 17) {
    EXPECT_TRUE(aliased->ContainsKey(rows.keys[i]));
  }
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(AllVariants, FilterCatalogAliasTest,
                         ::testing::Values(CcfVariant::kPlain,
                                           CcfVariant::kChained,
                                           CcfVariant::kBloom,
                                           CcfVariant::kMixed));

TEST(FilterCatalogShardedAliasTest, ShardedAliasBitIdentical) {
  Rows rows = MakeRows(12000, 23);
  ShardedCcfOptions opts;
  opts.num_shards = 4;
  auto sharded =
      ShardedCcf::Make(CcfVariant::kChained, TestConfig(47), opts)
          .ValueOrDie();
  ASSERT_TRUE(sharded->InsertParallel(rows.keys, rows.flat_attrs).ok());
  std::string blob = sharded->Serialize();
  std::string path = TempPath("ccf_alias_sharded.bin");
  ASSERT_TRUE(WriteFileBytes(path, blob).ok());

  std::shared_ptr<MappedFile> mapping;
  auto aliased = AliasLoad(path, &mapping);
  auto copied = ConditionalCuckooFilter::Deserialize(blob).ValueOrDie();

  EXPECT_EQ(aliased->Serialize(), blob);
  std::vector<uint64_t> probes;
  Rng rng(3);
  for (int i = 0; i < 4000; ++i) probes.push_back(rng.NextBelow(8000));
  Predicate pred = Predicate::Equals(0, 42);
  EXPECT_EQ(Probe(*aliased, probes, pred), Probe(*copied, probes, pred));
  std::remove(path.c_str());
}

// Catalog answers for `probes` under every predicate in `preds`, then
// key-only: the observable state of one catalog entry.
std::vector<bool> CatalogAnswers(FilterCatalog& catalog, const std::string& id,
                                 const std::vector<uint64_t>& probes,
                                 const std::vector<Predicate>& preds) {
  std::vector<bool> all;
  std::unique_ptr<bool[]> out(new bool[probes.size()]());
  std::span<bool> out_span(out.get(), probes.size());
  for (const Predicate& pred : preds) {
    EXPECT_TRUE(catalog.LookupBatch(id, probes, pred, out_span).ok());
    all.insert(all.end(), out.get(), out.get() + probes.size());
  }
  EXPECT_TRUE(catalog.ContainsKeyBatch(id, probes, out_span).ok());
  all.insert(all.end(), out.get(), out.get() + probes.size());
  return all;
}

// The same answers from a filter object.
std::vector<bool> FilterAnswers(const ConditionalCuckooFilter& f,
                                const std::vector<uint64_t>& probes,
                                const std::vector<Predicate>& preds) {
  std::vector<bool> all;
  for (const Predicate& pred : preds) {
    std::vector<bool> part = Probe(f, probes, pred);
    all.insert(all.end(), part.begin(), part.end());
  }
  std::unique_ptr<bool[]> out(new bool[probes.size()]());
  f.ContainsKeyBatch(probes, std::span<bool>(out.get(), probes.size()));
  all.insert(all.end(), out.get(), out.get() + probes.size());
  return all;
}

std::vector<uint64_t> ProbeKeys(uint64_t bound, uint64_t seed) {
  std::vector<uint64_t> probes;
  Rng rng(seed);
  for (int i = 0; i < 4000; ++i) probes.push_back(rng.NextBelow(bound));
  return probes;
}

const std::vector<Predicate>& TestPredicates() {
  static const std::vector<Predicate> preds = {
      Predicate::Equals(0, 5), Predicate::Equals(0, 100),
      Predicate::Equals(0, 42).AndEquals(1, 7)};
  return preds;
}

// Registers `blob` as a file-backed entry, promotes it through the
// catalog and checks every answer against a copy-mode load of the same
// bytes. Returns the catalog's stats after the probes.
CatalogStats ExpectFileEntryMatchesCopyLoad(const std::string& blob,
                                            const std::string& name) {
  std::string path = TempPath("ccf_catalog_" + name + ".bin");
  EXPECT_TRUE(WriteFileBytes(path, blob).ok());
  auto copied = ConditionalCuckooFilter::Deserialize(blob).ValueOrDie();
  CatalogOptions options;
  options.enable_batcher = false;
  FilterCatalog catalog(options);
  EXPECT_TRUE(catalog.AddFile("f", path).ok());
  std::vector<uint64_t> probes = ProbeKeys(8000, 11);
  EXPECT_EQ(CatalogAnswers(catalog, "f", probes, TestPredicates()),
            FilterAnswers(*copied, probes, TestPredicates()));
  EXPECT_EQ(catalog.hot_bytes(),
            static_cast<size_t>(copied->SizeInBits() / 8));
  std::remove(path.c_str());
  return catalog.stats();
}

class FilterCatalogCopyLoadTest
    : public ::testing::TestWithParam<CcfVariant> {};

// A small file-backed blob promotes by read + copy-load: answers equal a
// copy-mode Deserialize of the same bytes, and nothing is mapped.
TEST_P(FilterCatalogCopyLoadTest, SmallFilePromotionMatchesCopyLoad) {
  Rows rows = MakeRows(6000, 7);
  std::string blob = BuildFilter(GetParam(), rows, 31)->Serialize();
  ASSERT_LT(blob.size(), FilterCatalog::kCopyLoadBytes);
  CatalogStats stats = ExpectFileEntryMatchesCopyLoad(
      blob, "copy_" + std::string(CcfVariantName(GetParam())));
  EXPECT_EQ(stats.promotions, 1u);
  EXPECT_EQ(stats.alias_loads, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllVariants, FilterCatalogCopyLoadTest,
                         ::testing::Values(CcfVariant::kPlain,
                                           CcfVariant::kChained,
                                           CcfVariant::kBloom,
                                           CcfVariant::kMixed));

TEST(FilterCatalogCopyLoadShardedTest, SmallShardedFileMatchesCopyLoad) {
  Rows rows = MakeRows(12000, 23);
  ShardedCcfOptions opts;
  opts.num_shards = 4;
  auto sharded =
      ShardedCcf::Make(CcfVariant::kChained, TestConfig(47), opts)
          .ValueOrDie();
  ASSERT_TRUE(sharded->InsertParallel(rows.keys, rows.flat_attrs).ok());
  std::string blob = sharded->Serialize();
  ASSERT_LT(blob.size(), FilterCatalog::kCopyLoadBytes);
  CatalogStats stats = ExpectFileEntryMatchesCopyLoad(blob, "copy_sharded");
  EXPECT_EQ(stats.promotions, 1u);
  EXPECT_EQ(stats.alias_loads, 0u);
}

TEST(FilterCatalogCopyLoadRangeTest, SmallRangeFileMatchesCopyLoad) {
  Rows rows = MakeRows(1500, 29);
  CcfConfig config = TestConfig(53);  // η = 4 labels per row: ~0.5 load
  auto range = RangeCcf::Make(CcfVariant::kChained, config,
                              /*range_attr_index=*/1, /*max_level=*/3)
                   .ValueOrDie();
  ASSERT_TRUE(range->InsertBatch(rows.keys, rows.flat_attrs).ok());
  std::string blob = range->Serialize();
  ASSERT_LT(blob.size(), FilterCatalog::kCopyLoadBytes);
  std::string path = TempPath("ccf_catalog_copy_range.bin");
  ASSERT_TRUE(WriteFileBytes(path, blob).ok());
  auto copied = ConditionalCuckooFilter::Deserialize(blob).ValueOrDie();
  const auto* copied_range = dynamic_cast<const RangeCcf*>(copied.get());
  ASSERT_NE(copied_range, nullptr);

  FilterCatalog catalog{CatalogOptions{}};
  ASSERT_TRUE(catalog.AddFile("r", path).ok());
  std::vector<uint64_t> probes = ProbeKeys(2000, 5);
  std::unique_ptr<bool[]> got(new bool[probes.size()]());
  std::unique_ptr<bool[]> want(new bool[probes.size()]());
  for (auto [lo, hi] : {std::pair<uint64_t, uint64_t>{0, 9}, {10, 30},
                        {7, 7}, {0, 49}}) {
    ASSERT_TRUE(catalog
                    .LookupRangeBatch("r", probes, lo, hi, Predicate(),
                                      std::span<bool>(got.get(),
                                                      probes.size()))
                    .ok());
    CompiledRangePredicate pred =
        copied_range->CompileRange(lo, hi).ValueOrDie();
    ASSERT_TRUE(copied_range
                    ->ContainsInRangeBatch(
                        probes, pred,
                        std::span<bool>(want.get(), probes.size()))
                    .ok());
    EXPECT_TRUE(std::equal(got.get(), got.get() + probes.size(),
                           want.get()))
        << "range [" << lo << ", " << hi << "]";
  }
  EXPECT_EQ(catalog.stats().promotions, 1u);
  EXPECT_EQ(catalog.stats().alias_loads, 0u);
  std::remove(path.c_str());
}

// A blob of exactly kCopyLoadBytes takes the mmap + alias path; one byte
// less is copy-loaded. Trailing bytes past a blob are ignored by
// Deserialize, so zero padding sets the file size exactly.
TEST(FilterCatalogCutTest, BlobAtTheCutIsMapped) {
  Rows rows = MakeRows(3000, 31);
  std::string blob =
      BuildFilter(CcfVariant::kChained, rows, 37)->Serialize();
  ASSERT_LT(blob.size(), FilterCatalog::kCopyLoadBytes - 1);
  std::string at_cut = blob;
  at_cut.resize(FilterCatalog::kCopyLoadBytes, '\0');
  std::string below_cut = blob;
  below_cut.resize(FilterCatalog::kCopyLoadBytes - 1, '\0');

  CatalogStats mapped = ExpectFileEntryMatchesCopyLoad(at_cut, "at_cut");
  EXPECT_EQ(mapped.promotions, 1u);
  EXPECT_EQ(mapped.alias_loads, 1u);
  CatalogStats copied =
      ExpectFileEntryMatchesCopyLoad(below_cut, "below_cut");
  EXPECT_EQ(copied.promotions, 1u);
  EXPECT_EQ(copied.alias_loads, 0u);
}

// A truncated or corrupt small file fails its lookup with an error Status
// and leaves the entry cold; once the file is repaired the same entry
// promotes normally.
TEST(FilterCatalogBadFileTest, BadSmallFileLeavesEntryCold) {
  Rows rows = MakeRows(3000, 41);
  std::string blob =
      BuildFilter(CcfVariant::kChained, rows, 43)->Serialize();
  std::string bad_magic = blob;
  bad_magic[0] = static_cast<char>(bad_magic[0] ^ 0x5a);
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"empty", std::string()},
      {"header_only", blob.substr(0, 16)},
      {"truncated", blob.substr(0, blob.size() / 2)},
      {"one_short", blob.substr(0, blob.size() - 1)},
      {"bad_magic", bad_magic},
  };
  std::vector<uint64_t> keys(rows.keys.begin(), rows.keys.begin() + 512);
  std::unique_ptr<bool[]> out(new bool[keys.size()]());
  std::span<bool> out_span(out.get(), keys.size());
  for (const auto& [name, bytes] : cases) {
    SCOPED_TRACE(name);
    std::string path = TempPath("ccf_catalog_bad_" + name + ".bin");
    ASSERT_TRUE(WriteFileBytes(path, bytes).ok());
    FilterCatalog catalog{CatalogOptions{}};
    ASSERT_TRUE(catalog.AddFile("f", path).ok());
    EXPECT_FALSE(catalog.ContainsKeyBatch("f", keys, out_span).ok());
    EXPECT_FALSE(
        catalog.InsertBatch("f", rows.keys, rows.flat_attrs).ok());
    EXPECT_EQ(catalog.stats().promotions, 0u);
    EXPECT_EQ(catalog.hot_bytes(), 0u);

    ASSERT_TRUE(WriteFileBytes(path, blob).ok());
    ASSERT_TRUE(catalog.ContainsKeyBatch("f", keys, out_span).ok());
    for (size_t i = 0; i < keys.size(); ++i) EXPECT_TRUE(out[i]);
    EXPECT_EQ(catalog.stats().promotions, 1u);
    std::remove(path.c_str());
  }
}

// A write acknowledged on a file-backed entry must survive the entry's
// eviction: the write makes the entry memory-backed, so demotion encodes
// the written state instead of falling back to the unchanged file.
TEST(FilterCatalogInsertTest, WriteToFileBackedEntrySurvivesEviction) {
  Rows rows = MakeRows(3000, 47);
  ShardedCcfOptions opts;
  opts.num_shards = 2;
  auto sharded =
      ShardedCcf::Make(CcfVariant::kChained, TestConfig(61), opts)
          .ValueOrDie();
  ASSERT_TRUE(sharded->InsertParallel(rows.keys, rows.flat_attrs).ok());
  const std::vector<std::pair<std::string, std::string>> blobs = {
      {"chained",
       BuildFilter(CcfVariant::kChained, rows, 59)->Serialize()},
      {"sharded", sharded->Serialize()},
  };
  Rows extra = MakeRows(600, 97, /*key_base=*/uint64_t{1} << 24);
  for (const auto& [name, blob] : blobs) {
    SCOPED_TRACE(name);
    std::string path = TempPath("ccf_catalog_write_" + name + ".bin");
    ASSERT_TRUE(WriteFileBytes(path, blob).ok());
    FilterCatalog catalog{CatalogOptions{}};
    ASSERT_TRUE(catalog.AddFile("f", path).ok());
    ASSERT_TRUE(catalog.InsertBatch("f", extra.keys, extra.flat_attrs).ok());
    ASSERT_TRUE(catalog.Evict("f").ok());
    ASSERT_EQ(catalog.hot_bytes(), 0u);

    for (const Rows* r : {&extra, &rows}) {
      std::unique_ptr<bool[]> out(new bool[r->keys.size()]());
      ASSERT_TRUE(catalog
                      .ContainsKeyBatch("f", r->keys,
                                        std::span<bool>(out.get(),
                                                        r->keys.size()))
                      .ok());
      size_t missing = 0;
      for (size_t i = 0; i < r->keys.size(); ++i) missing += out[i] ? 0 : 1;
      EXPECT_EQ(missing, 0u);
    }
    EXPECT_EQ(catalog.stats().promotions, 2u);
    // The file is never written.
    EXPECT_EQ(ReadFileBytes(path).ValueOrDie(), blob);
    std::remove(path.c_str());
  }
}

TEST(FilterCatalogCowTest, MutationAfterAliasLoadNeverTouchesMapping) {
  Rows rows = MakeRows(3000, 13);
  auto built = BuildFilter(CcfVariant::kChained, rows, 59);
  std::string blob = built->Serialize();
  std::string path = TempPath("ccf_alias_cow.bin");
  ASSERT_TRUE(WriteFileBytes(path, blob).ok());

  std::shared_ptr<MappedFile> mapping;
  auto aliased = AliasLoad(path, &mapping);

  // Mutate the alias-loaded filter: the write must copy-on-write into
  // owned memory, leaving every byte of the read-only mapping intact.
  Rows extra = MakeRows(900, 77, /*key_base=*/1 << 20);
  ASSERT_TRUE(aliased->InsertBatch(extra.keys, extra.flat_attrs).ok());

  EXPECT_EQ(mapping->view(), std::string_view(blob));
  // And the mutated filter serves both old and new rows.
  for (size_t i = 0; i < rows.keys.size(); i += 29) {
    EXPECT_TRUE(aliased->ContainsKey(rows.keys[i]));
  }
  for (size_t i = 0; i < extra.keys.size(); i += 29) {
    EXPECT_TRUE(aliased->ContainsKey(extra.keys[i]));
  }
  // The file itself is untouched: a fresh copy-load still matches the
  // original blob.
  EXPECT_EQ(ReadFileBytes(path).ValueOrDie(), blob);
  std::remove(path.c_str());
}

TEST(FilterCatalogChurnTest, PromoteEvictChurnHasNoFalseNegatives) {
  // 12 file-backed filters, hot budget ≈ 3 of them: the clock must churn
  // while 3 reader threads sweep every filter's full key set. Epoch
  // protection means no reader may ever miss a present key.
  constexpr int kFilters = 12;
  constexpr int kReaders = 3;
  std::vector<std::string> paths;
  std::vector<Rows> per_filter_rows;
  uint64_t filter_bytes = 0;
  for (int i = 0; i < kFilters; ++i) {
    Rows rows = MakeRows(3000, 100 + static_cast<uint64_t>(i),
                         static_cast<uint64_t>(i) << 32);
    auto built = BuildFilter(CcfVariant::kChained, rows, 7);
    filter_bytes = built->SizeInBits() / 8;
    std::string path =
        TempPath("ccf_churn_" + std::to_string(i) + ".bin");
    ASSERT_TRUE(WriteFileBytes(path, built->Serialize()).ok());
    paths.push_back(path);
    per_filter_rows.push_back(std::move(rows));
  }

  CatalogOptions options;
  options.hot_budget_bytes = 3 * filter_bytes;
  options.enable_batcher = false;
  FilterCatalog catalog(options);
  for (int i = 0; i < kFilters; ++i) {
    ASSERT_TRUE(catalog.AddFile("f" + std::to_string(i), paths[i]).ok());
  }

  std::atomic<int> false_negatives{0};
  std::atomic<int> errors{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      // Each reader sweeps the fleet from a different starting filter so
      // promotions and evictions interleave across threads.
      std::unique_ptr<bool[]> out(new bool[1024]);
      for (int round = 0; round < 6; ++round) {
        for (int i = 0; i < kFilters; ++i) {
          int slot = (i + t * 4) % kFilters;
          const Rows& rows = per_filter_rows[static_cast<size_t>(slot)];
          size_t n = std::min<size_t>(1024, rows.keys.size());
          Status st = catalog.ContainsKeyBatch(
              "f" + std::to_string(slot),
              std::span<const uint64_t>(rows.keys.data(), n),
              std::span<bool>(out.get(), n));
          if (!st.ok()) {
            errors.fetch_add(1);
            continue;
          }
          for (size_t k = 0; k < n; ++k) {
            if (!out[k]) false_negatives.fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& r : readers) r.join();

  EXPECT_EQ(errors.load(), 0);
  EXPECT_EQ(false_negatives.load(), 0);
  CatalogStats stats = catalog.stats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_GT(stats.promotions, static_cast<uint64_t>(kFilters));
  for (const std::string& path : paths) std::remove(path.c_str());
}

TEST(FilterCatalogBatcherTest, BatcherDifferentialByteEqualToInline) {
  // Concurrent BatchedLookup callers (mixed predicates and key-only) must
  // produce exactly the bytes the inline path produces for the same
  // requests.
  constexpr int kFilters = 4;
  constexpr int kCallers = 4;
  constexpr int kRequests = 64;
  constexpr size_t kKeysPerRequest = 256;

  FilterCatalog catalog{CatalogOptions{}};
  std::vector<Rows> per_filter_rows;
  for (int i = 0; i < kFilters; ++i) {
    Rows rows = MakeRows(3000, 200 + static_cast<uint64_t>(i),
                         static_cast<uint64_t>(i) << 32);
    ASSERT_TRUE(
        catalog
            .AddFilter("f" + std::to_string(i),
                       BuildFilter(CcfVariant::kChained, rows, 7))
            .ok());
    per_filter_rows.push_back(std::move(rows));
  }
  Predicate preds[2] = {Predicate::Equals(0, 42),
                        Predicate::Equals(0, 7).AndEquals(1, 3)};

  struct Request {
    std::string id;
    std::vector<uint64_t> keys;
    const Predicate* pred;  // null = key-only
    std::vector<char> batched;
    std::vector<char> inlined;
  };
  std::vector<std::vector<Request>> per_caller(kCallers);
  for (int t = 0; t < kCallers; ++t) {
    Rng rng(300 + static_cast<uint64_t>(t));
    for (int r = 0; r < kRequests; ++r) {
      Request req;
      int slot = static_cast<int>(rng.NextBelow(kFilters));
      req.id = "f" + std::to_string(slot);
      uint64_t base = static_cast<uint64_t>(slot) << 32;
      for (size_t k = 0; k < kKeysPerRequest; ++k) {
        req.keys.push_back(base + rng.NextBelow(4000));
      }
      uint64_t which = rng.NextBelow(3);
      req.pred = which == 2 ? nullptr : &preds[which];
      req.batched.resize(kKeysPerRequest);
      req.inlined.resize(kKeysPerRequest);
      per_caller[static_cast<size_t>(t)].push_back(std::move(req));
    }
  }

  std::atomic<int> errors{0};
  std::vector<std::thread> callers;
  for (int t = 0; t < kCallers; ++t) {
    callers.emplace_back([&, t] {
      std::unique_ptr<bool[]> out(new bool[kKeysPerRequest]);
      for (Request& req : per_caller[static_cast<size_t>(t)]) {
        Status st = catalog.BatchedLookup(
            req.id, req.keys, req.pred,
            std::span<bool>(out.get(), kKeysPerRequest));
        if (!st.ok()) {
          errors.fetch_add(1);
          continue;
        }
        for (size_t k = 0; k < kKeysPerRequest; ++k) {
          req.batched[k] = out[k] ? 1 : 0;
        }
      }
    });
  }
  for (auto& c : callers) c.join();
  ASSERT_EQ(errors.load(), 0);

  // Inline reference pass (single-threaded, same catalog).
  std::unique_ptr<bool[]> out(new bool[kKeysPerRequest]);
  for (auto& requests : per_caller) {
    for (Request& req : requests) {
      Status st;
      if (req.pred != nullptr) {
        st = catalog.LookupBatch(
            req.id, req.keys, *req.pred,
            std::span<bool>(out.get(), kKeysPerRequest));
      } else {
        st = catalog.ContainsKeyBatch(
            req.id, req.keys, std::span<bool>(out.get(), kKeysPerRequest));
      }
      ASSERT_TRUE(st.ok());
      for (size_t k = 0; k < kKeysPerRequest; ++k) {
        req.inlined[k] = out[k] ? 1 : 0;
      }
      EXPECT_EQ(req.batched, req.inlined);
    }
  }
  CatalogStats stats = catalog.stats();
  EXPECT_GT(stats.batched_requests + stats.inline_requests, 0u);
}

TEST(FilterCatalogInsertTest, MutationSurvivesEvictionOnMemoryBackedEntry) {
  Rows rows = MakeRows(3000, 17);
  FilterCatalog catalog{CatalogOptions{}};
  ASSERT_TRUE(
      catalog.AddFilter("f", BuildFilter(CcfVariant::kChained, rows, 7))
          .ok());

  Rows extra = MakeRows(600, 91, /*key_base=*/1 << 20);
  ASSERT_TRUE(catalog.InsertBatch("f", extra.keys, extra.flat_attrs).ok());

  auto expect_all_present = [&] {
    std::unique_ptr<bool[]> out(new bool[extra.keys.size()]);
    ASSERT_TRUE(catalog
                    .ContainsKeyBatch(
                        "f", extra.keys,
                        std::span<bool>(out.get(), extra.keys.size()))
                    .ok());
    for (size_t i = 0; i < extra.keys.size(); ++i) EXPECT_TRUE(out[i]);
  };
  expect_all_present();

  // Demote to the compressed blob and promote back: the mutation must be
  // part of the cold form.
  ASSERT_TRUE(catalog.Evict("f").ok());
  expect_all_present();
  EXPECT_GT(catalog.stats().promotions, 0u);
}

TEST(FilterCatalogInsertTest, StagedShardedRowsSurviveEviction) {
  // Rows written to a sharded entry sit in the write-buffer overlay until
  // a commit, but ShardedCcf::Serialize captures committed tables only:
  // demotion must commit the staged rows first, or the re-promoted filter
  // silently answers false negatives for them.
  ShardedCcfOptions opts;
  opts.num_shards = 2;
  auto sharded =
      ShardedCcf::Make(CcfVariant::kChained, TestConfig(5), opts)
          .ValueOrDie();
  Rows rows = MakeRows(3000, 19);
  ASSERT_TRUE(sharded->InsertParallel(rows.keys, rows.flat_attrs).ok());

  FilterCatalog catalog{CatalogOptions{}};
  ASSERT_TRUE(catalog.AddFilter("f", std::move(sharded)).ok());

  // No autocommit configured: these rows stay staged until demotion.
  Rows extra = MakeRows(600, 93, /*key_base=*/uint64_t{1} << 21);
  ASSERT_TRUE(catalog.InsertBatch("f", extra.keys, extra.flat_attrs).ok());
  ASSERT_TRUE(catalog.Evict("f").ok());

  auto expect_all_present = [&](const Rows& r) {
    std::unique_ptr<bool[]> out(new bool[r.keys.size()]);
    ASSERT_TRUE(catalog
                    .ContainsKeyBatch("f", r.keys,
                                      std::span<bool>(out.get(),
                                                      r.keys.size()))
                    .ok());
    for (size_t i = 0; i < r.keys.size(); ++i) EXPECT_TRUE(out[i]);
  };
  expect_all_present(extra);  // staged rows made it into the cold form
  expect_all_present(rows);   // committed rows unharmed
  EXPECT_GT(catalog.stats().promotions, 0u);
}

TEST(FilterCatalogInsertTest, WriteSidePromotionEnforcesHotBudget) {
  // InsertBatch on cold entries promotes them; without a write-side budget
  // sweep a write-only workload would pile hot entries past the budget
  // until some lookup happened to run.
  Rows rows_a = MakeRows(3000, 21);
  Rows rows_b = MakeRows(3000, 22, /*key_base=*/uint64_t{1} << 32);
  auto a = BuildFilter(CcfVariant::kChained, rows_a, 7);
  const size_t one_filter = static_cast<size_t>(a->SizeInBits() / 8);

  CatalogOptions options;
  options.hot_budget_bytes = one_filter + one_filter / 2;  // fits ~1 of 2
  options.enable_batcher = false;
  FilterCatalog catalog(options);
  ASSERT_TRUE(catalog.AddFilter("a", std::move(a)).ok());
  ASSERT_TRUE(
      catalog.AddFilter("b", BuildFilter(CcfVariant::kChained, rows_b, 7))
          .ok());
  // Registration already swept: one of the two is cold.
  ASSERT_LE(catalog.hot_bytes(), options.hot_budget_bytes);

  // Write to both: whichever is cold gets promoted by the write, and the
  // sweep must run without any lookup in between.
  Rows extra_a = MakeRows(300, 94, /*key_base=*/uint64_t{1} << 22);
  Rows extra_b = MakeRows(300, 95, /*key_base=*/uint64_t{3} << 32);
  ASSERT_TRUE(
      catalog.InsertBatch("a", extra_a.keys, extra_a.flat_attrs).ok());
  EXPECT_LE(catalog.hot_bytes(), options.hot_budget_bytes);
  ASSERT_TRUE(
      catalog.InsertBatch("b", extra_b.keys, extra_b.flat_attrs).ok());
  EXPECT_LE(catalog.hot_bytes(), options.hot_budget_bytes);
  EXPECT_GT(catalog.stats().evictions, 0u);
}

TEST(FilterCatalogAutoCommitTest, SizeTriggerCommitsInBackground) {
  ShardedCcfOptions opts;
  opts.num_shards = 2;
  opts.autocommit_pending_rows = 64;
  auto sharded =
      ShardedCcf::Make(CcfVariant::kChained, TestConfig(5), opts)
          .ValueOrDie();
  Rows rows = MakeRows(3000, 41);
  ASSERT_TRUE(sharded->BufferWriteBatch(rows.keys, rows.flat_attrs).ok());
  sharded->DrainMaintenance();
  EXPECT_GT(sharded->num_autocommits(), 0u);
  // Staged-or-committed, every row answers (the overlay already
  // guaranteed this; the trigger must not lose rows).
  for (size_t i = 0; i < rows.keys.size(); i += 13) {
    EXPECT_TRUE(sharded->ContainsKey(rows.keys[i]));
  }
}

TEST(FilterCatalogAutoCommitTest, AgeTriggerCommitsOldPendingRows) {
  ShardedCcfOptions opts;
  opts.num_shards = 2;
  opts.autocommit_interval = std::chrono::milliseconds(5);
  auto sharded =
      ShardedCcf::Make(CcfVariant::kChained, TestConfig(5), opts)
          .ValueOrDie();
  std::vector<uint64_t> attrs = {1, 2};
  // Seed every shard with a pending row, age it past the interval, then
  // write again: whichever shard the new writes land on holds an old
  // first_staged stamp, so the trigger must fire.
  for (uint64_t k = 0; k < 8; ++k) {
    ASSERT_TRUE(sharded->BufferWrite(k, attrs).ok());
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  for (uint64_t k = 100; k < 108; ++k) {
    ASSERT_TRUE(sharded->BufferWrite(k, attrs).ok());
  }
  sharded->DrainMaintenance();
  EXPECT_GT(sharded->num_autocommits(), 0u);
  for (uint64_t k = 0; k < 8; ++k) EXPECT_TRUE(sharded->ContainsKey(k));
  for (uint64_t k = 100; k < 108; ++k) {
    EXPECT_TRUE(sharded->ContainsKey(k));
  }
}

}  // namespace
}  // namespace ccf
