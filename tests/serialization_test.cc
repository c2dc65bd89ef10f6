// Serialization round-trips: every filter type must answer identically
// after Save → Load, and corrupted/truncated buffers must be rejected
// without crashing.
#include <gtest/gtest.h>

#include <bit>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "ccf/ccf.h"
#include "ccf/range_ccf.h"
#include "ccf/sharded_ccf.h"
#include "cuckoo/cuckoo_filter.h"
#include "util/random.h"
#include "util/serde.h"

namespace ccf {
namespace {

TEST(SerdeTest, PrimitivesRoundTrip) {
  std::string buf;
  ByteWriter writer(&buf);
  writer.WriteU8(0xAB);
  writer.WriteU32(0xDEADBEEF);
  writer.WriteU64(0x0123456789ABCDEFull);
  writer.WriteI64(-42);
  writer.WriteDouble(3.14159);
  writer.WriteBool(true);
  writer.WriteBytes("hello");

  ByteReader reader(buf);
  EXPECT_EQ(*reader.ReadU8(), 0xAB);
  EXPECT_EQ(*reader.ReadU32(), 0xDEADBEEFu);
  EXPECT_EQ(*reader.ReadU64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(*reader.ReadI64(), -42);
  EXPECT_DOUBLE_EQ(*reader.ReadDouble(), 3.14159);
  EXPECT_TRUE(*reader.ReadBool());
  EXPECT_EQ(*reader.ReadBytes(), "hello");
  EXPECT_TRUE(reader.AtEnd());
}

TEST(SerdeTest, TruncatedReadsFail) {
  std::string buf;
  ByteWriter writer(&buf);
  writer.WriteU32(7);
  ByteReader reader(buf);
  EXPECT_TRUE(reader.ReadU32().ok());
  EXPECT_FALSE(reader.ReadU64().ok());
  EXPECT_FALSE(reader.ReadU8().ok());
}

TEST(SerdeTest, BytesLengthIsBoundsChecked) {
  std::string buf;
  ByteWriter writer(&buf);
  writer.WriteU64(1000000);  // claims 1MB follows; nothing does
  ByteReader reader(buf);
  EXPECT_FALSE(reader.ReadBytes().ok());
}

TEST(CuckooFilterSerdeTest, RoundTripPreservesAnswers) {
  CuckooFilterConfig config;
  config.num_buckets = 512;
  config.fingerprint_bits = 12;
  config.salt = 9;
  auto filter = CuckooFilter::Make(config).ValueOrDie();
  for (uint64_t k = 0; k < 1500; ++k) filter.Insert(k).Abort();

  std::string bytes = filter.Serialize();
  auto loaded = CuckooFilter::Deserialize(bytes).ValueOrDie();
  EXPECT_EQ(loaded.num_items(), filter.num_items());
  for (uint64_t k = 0; k < 5000; ++k) {
    ASSERT_EQ(loaded.Contains(k), filter.Contains(k)) << k;
  }
}

TEST(CuckooFilterSerdeTest, LoadedFilterKeepsWorking) {
  CuckooFilterConfig config;
  config.num_buckets = 512;
  auto filter = CuckooFilter::Make(config).ValueOrDie();
  for (uint64_t k = 0; k < 500; ++k) filter.Insert(k).Abort();
  auto loaded = CuckooFilter::Deserialize(filter.Serialize()).ValueOrDie();
  // Inserts and deletes still function after load.
  ASSERT_TRUE(loaded.Insert(99999).ok());
  EXPECT_TRUE(loaded.Contains(99999));
  EXPECT_TRUE(loaded.Delete(99999));
  EXPECT_FALSE(loaded.Contains(99999));
}

TEST(CuckooFilterSerdeTest, RejectsGarbageAndWrongMagic) {
  EXPECT_FALSE(CuckooFilter::Deserialize("garbage").ok());
  EXPECT_FALSE(CuckooFilter::Deserialize("").ok());
  std::string zeros(64, '\0');
  EXPECT_FALSE(CuckooFilter::Deserialize(zeros).ok());
}

class CcfSerdeTest : public ::testing::TestWithParam<CcfVariant> {
 protected:
  std::unique_ptr<ConditionalCuckooFilter> BuildFilter() {
    CcfConfig config;
    config.num_buckets = 1024;
    config.slots_per_bucket = GetParam() == CcfVariant::kBloom ? 4 : 6;
    config.num_attrs = 2;
    config.attr_fp_bits = 8;
    config.bloom_bits = 16;
    config.salt = 17;
    auto ccf =
        ConditionalCuckooFilter::Make(GetParam(), config).ValueOrDie();
    Rng rng(4);
    for (int i = 0; i < 3000; ++i) {
      // Duplicate-heavy so Mixed converts and Chained chains.
      uint64_t key = rng.NextBelow(400);
      std::vector<uint64_t> attrs = {rng.NextBelow(300), rng.NextBelow(300)};
      Status st = ccf->Insert(key, attrs);
      if (!st.ok()) break;  // Plain fills up; fine
    }
    return ccf;
  }
};

TEST_P(CcfSerdeTest, RoundTripPreservesEveryAnswer) {
  auto original = BuildFilter();
  std::string bytes = original->Serialize();
  auto loaded = ConditionalCuckooFilter::Deserialize(bytes).ValueOrDie();

  EXPECT_EQ(loaded->variant(), original->variant());
  EXPECT_EQ(loaded->num_entries(), original->num_entries());
  EXPECT_EQ(loaded->num_rows(), original->num_rows());
  EXPECT_EQ(loaded->SizeInBits(), original->SizeInBits());

  Rng rng(77);
  for (int i = 0; i < 5000; ++i) {
    uint64_t key = rng.NextBelow(1000);
    Predicate pred = Predicate::Equals(0, rng.NextBelow(600));
    ASSERT_EQ(loaded->Contains(key, pred), original->Contains(key, pred));
    ASSERT_EQ(loaded->ContainsKey(key), original->ContainsKey(key));
  }
}

TEST_P(CcfSerdeTest, LoadedFilterAcceptsMoreInserts) {
  auto original = BuildFilter();
  auto loaded =
      ConditionalCuckooFilter::Deserialize(original->Serialize())
          .ValueOrDie();
  std::vector<uint64_t> attrs = {7, 8};
  ASSERT_TRUE(loaded->Insert(123456789, attrs).ok());
  EXPECT_TRUE(loaded->ContainsRow(123456789, attrs));
}

TEST_P(CcfSerdeTest, TruncatedBufferRejected) {
  auto original = BuildFilter();
  std::string bytes = original->Serialize();
  for (size_t cut : {size_t{0}, size_t{3}, size_t{10}, bytes.size() / 2,
                     bytes.size() - 1}) {
    EXPECT_FALSE(
        ConditionalCuckooFilter::Deserialize(bytes.substr(0, cut)).ok())
        << "cut at " << cut;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, CcfSerdeTest,
    ::testing::Values(CcfVariant::kPlain, CcfVariant::kChained,
                      CcfVariant::kBloom, CcfVariant::kMixed),
    [](const ::testing::TestParamInfo<CcfVariant>& pinfo) {
      return std::string(CcfVariantName(pinfo.param));
    });


// --- Hostile geometry --------------------------------------------------------
//
// A structurally valid blob whose bucket count is patched far beyond what
// its bytes back must come back as an error Status — never an allocation
// attempt sized by the header (which aborted the process with an uncaught
// std::bad_alloc).

constexpr uint64_t kHostileBuckets = 1024;

CcfConfig HostileConfig() {
  CcfConfig config;
  config.num_buckets = kHostileBuckets;
  config.slots_per_bucket = 4;
  config.key_fp_bits = 12;
  config.attr_fp_bits = 8;
  config.num_attrs = 2;
  config.salt = 3;
  return config;
}

// Offset of the first plain-CCF ("CCF2") sub-blob in `blob`, verified by its
// variant tag and header bucket count.
size_t CcfBlobOffset(const std::string& blob, uint64_t num_buckets) {
  const char magic[4] = {'2', 'F', 'C', 'C'};  // 0x43434632, little-endian
  for (size_t at = blob.find(std::string(magic, 4)); at != std::string::npos;
       at = blob.find(std::string(magic, 4), at + 1)) {
    uint64_t header;
    if (at + 13 > blob.size()) break;
    std::memcpy(&header, blob.data() + at + 5, 8);
    if (blob[at + 4] == static_cast<char>(CcfVariant::kChained) &&
        header == num_buckets) {
      return at;
    }
  }
  ADD_FAILURE() << "no CCF2 sub-blob found";
  return 0;
}

// Offsets of the two bucket counts of a CCF2 blob at `at`: the config
// header's (after magic + variant tag) and the table header's (after the
// 54-byte config and the u64 row count).
std::vector<size_t> BucketCountOffsets(size_t at) {
  return {at + 5, at + 5 + 54 + 8};
}

// Deserializes `blob` through the copy path and the alias path (8-aligned
// buffer).
std::vector<Status> DeserializeBothPaths(const std::string& blob) {
  std::vector<Status> out;
  out.push_back(ConditionalCuckooFilter::Deserialize(blob).status());
  auto words = std::make_shared<std::vector<uint64_t>>((blob.size() + 7) / 8);
  std::memcpy(words->data(), blob.data(), blob.size());
  AliasMapping alias{std::shared_ptr<const void>(words, words->data())};
  std::string_view view(reinterpret_cast<const char*>(words->data()),
                        blob.size());
  out.push_back(ConditionalCuckooFilter::Deserialize(view, alias).status());
  return out;
}

void ExpectHostileGeometryRejected(const std::string& blob,
                                   const char* what) {
  // The unpatched blob loads on both paths.
  for (const Status& st : DeserializeBothPaths(blob)) {
    ASSERT_TRUE(st.ok()) << what << ": " << st.ToString();
  }
  const size_t at = CcfBlobOffset(blob, kHostileBuckets);
  for (size_t offset : BucketCountOffsets(at)) {
    for (uint64_t buckets : {uint64_t{1} << 40, uint64_t{1} << 50}) {
      std::string patched = blob;
      std::memcpy(patched.data() + offset, &buckets, 8);
      for (const Status& st : DeserializeBothPaths(patched)) {
        EXPECT_FALSE(st.ok())
            << what << ": num_buckets 2^" << std::countr_zero(buckets)
            << " at offset " << offset;
      }
    }
  }
}

std::vector<uint64_t> HostileRow(uint64_t i) {
  return {i % 97, 1900 + i % 100};
}

TEST(HostileGeometryTest, ChainedBlobRejected) {
  auto ccf = ConditionalCuckooFilter::Make(CcfVariant::kChained,
                                           HostileConfig())
                 .ValueOrDie();
  for (uint64_t i = 0; i < 500; ++i) {
    ASSERT_TRUE(ccf->Insert(i % 200, HostileRow(i)).ok());
  }
  ExpectHostileGeometryRejected(ccf->Serialize(), "chained");
}

TEST(HostileGeometryTest, ShardedBlobRejected) {
  CcfConfig config = HostileConfig();
  config.num_buckets = 2 * kHostileBuckets;  // 2 shards of 1024
  ShardedCcfOptions opts;
  opts.num_shards = 2;
  auto sharded =
      ShardedCcf::Make(CcfVariant::kChained, config, opts).ValueOrDie();
  for (uint64_t i = 0; i < 500; ++i) {
    ASSERT_TRUE(sharded->Insert(i % 200, HostileRow(i)).ok());
  }
  ExpectHostileGeometryRejected(sharded->Serialize(), "sharded");
}

TEST(HostileGeometryTest, RangeBlobRejected) {
  auto range = RangeCcf::Make(CcfVariant::kChained, HostileConfig(),
                              /*range_attr_index=*/1, /*max_level=*/4)
                   .ValueOrDie();
  for (uint64_t i = 0; i < 200; ++i) {
    ASSERT_TRUE(range->Insert(i % 100, HostileRow(i)).ok());
  }
  ExpectHostileGeometryRejected(range->Serialize(), "range");
}

// --- Sketch hash count ---------------------------------------------------------
//
// Bloom and Mixed filters read bloom_hashes from the blob header and hash
// every sketch probe that many times. A patched 2e8 used to load: one Insert
// then took seconds, and Contains answered false for a stored row.

// Magic, variant tag, num_buckets, then the seven u32 fields before it.
constexpr size_t kBloomHashesOffset = 4 + 1 + 8 + 7 * 4;

CcfConfig SketchConfig() {
  CcfConfig config;
  config.num_buckets = 64;
  config.num_attrs = 2;
  config.salt = 5;
  return config;
}

TEST(SketchHashCountTest, MakeRejectsOutOfRange) {
  for (CcfVariant variant : {CcfVariant::kBloom, CcfVariant::kMixed}) {
    for (int hashes : {-1, 0, kMaxBloomHashes + 1, 200000000}) {
      CcfConfig config = SketchConfig();
      config.bloom_hashes = hashes;
      EXPECT_FALSE(ConditionalCuckooFilter::Make(variant, config).ok())
          << static_cast<int>(variant) << " bloom_hashes " << hashes;
    }
    CcfConfig config = SketchConfig();
    config.bloom_hashes = kMaxBloomHashes;
    EXPECT_TRUE(ConditionalCuckooFilter::Make(variant, config).ok());
  }
}

TEST(SketchHashCountTest, DeserializeRejectsOutOfRange) {
  for (CcfVariant variant : {CcfVariant::kBloom, CcfVariant::kMixed}) {
    auto ccf =
        ConditionalCuckooFilter::Make(variant, SketchConfig()).ValueOrDie();
    const std::vector<uint64_t> attrs = {1, 2};
    ASSERT_TRUE(ccf->Insert(42, attrs).ok());
    const std::string blob = ccf->Serialize();
    uint32_t stored;
    std::memcpy(&stored, blob.data() + kBloomHashesOffset, 4);
    ASSERT_EQ(stored, static_cast<uint32_t>(SketchConfig().bloom_hashes));
    for (const Status& st : DeserializeBothPaths(blob)) {
      ASSERT_TRUE(st.ok()) << st.ToString();
    }
    for (uint32_t hashes : {0u, 17u, 200000000u, 0x7fffffffu, 0xffffffffu}) {
      std::string patched = blob;
      std::memcpy(patched.data() + kBloomHashesOffset, &hashes, 4);
      for (const Status& st : DeserializeBothPaths(patched)) {
        EXPECT_FALSE(st.ok()) << static_cast<int>(variant)
                              << " bloom_hashes " << hashes;
      }
    }
  }
}

}  // namespace
}  // namespace ccf
