// §10.8 run-time performance: single-threaded insert and query throughput
// for every CCF variant, the cuckoo-filter baseline, and the Jenkins
// lookup3 hash itself — plus the batched/sharded serving hot path: scalar
// vs LookupBatch vs ShardedCcf lookups/sec over 2^20 probe keys against an
// out-of-cache table, and sharded parallel-build scaling by thread count.
// The paper reports ≥1M matches/second on a 2016 Xeon core; items/second
// appear in google-benchmark's counters.
//
// `--json <path>` additionally writes one machine-readable row per run
// (name, variant/mode label, keys/s, ns/key, table MB) so perf
// trajectories can accumulate across commits (CI uploads the smoke run's
// file as an artifact).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.h"
#include "bench_util.h"
#include "ccf/ccf.h"
#include "ccf/range_ccf.h"
#include "ccf/sharded_ccf.h"
#include "cuckoo/cuckoo_filter.h"
#include "data/imdb_synth.h"
#include "data/workload.h"
#include "data/zipf.h"
#include "join/multi_join.h"
#include "hash/lookup3.h"
#include "util/random.h"

namespace ccf {
namespace {

CcfConfig BenchConfig(CcfVariant variant) {
  CcfConfig c;
  c.num_buckets = 1 << 16;
  c.slots_per_bucket = variant == CcfVariant::kBloom ? 4 : 6;
  c.key_fp_bits = 12;
  c.attr_fp_bits = 8;
  c.num_attrs = 2;
  c.max_dupes = 3;
  c.bloom_bits = 16;
  c.salt = 77;
  return c;
}

CcfVariant VariantOf(int64_t i) {
  switch (i) {
    case 0: return CcfVariant::kPlain;
    case 1: return CcfVariant::kChained;
    case 2: return CcfVariant::kBloom;
    default: return CcfVariant::kMixed;
  }
}

void BM_Lookup3Hash64(benchmark::State& state) {
  uint64_t x = 0x12345;
  for (auto _ : state) {
    x = Lookup3Hash64(x, 7);
    benchmark::DoNotOptimize(x);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Lookup3Hash64);

void BM_CuckooFilterInsert(benchmark::State& state) {
  CuckooFilterConfig c;
  c.num_buckets = 1 << 16;
  c.fingerprint_bits = 12;
  uint64_t key = 0;
  auto filter = CuckooFilter::Make(c).ValueOrDie();
  for (auto _ : state) {
    if (filter.LoadFactor() > 0.9) {
      state.PauseTiming();
      filter = CuckooFilter::Make(c).ValueOrDie();
      state.ResumeTiming();
    }
    benchmark::DoNotOptimize(filter.Insert(key++).ok());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CuckooFilterInsert);

void BM_CuckooFilterQuery(benchmark::State& state) {
  CuckooFilterConfig c;
  c.num_buckets = 1 << 16;
  c.fingerprint_bits = 12;
  auto filter = CuckooFilter::Make(c).ValueOrDie();
  for (uint64_t k = 0; k < (1u << 17); ++k) filter.Insert(k).Abort();
  uint64_t key = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(filter.Contains(key));
    key += 3;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CuckooFilterQuery);

void BM_CcfInsert(benchmark::State& state) {
  CcfVariant variant = VariantOf(state.range(0));
  CcfConfig config = BenchConfig(variant);
  auto ccf = ConditionalCuckooFilter::Make(variant, config).ValueOrDie();
  Rng rng(5);
  uint64_t key = 0;
  std::vector<uint64_t> attrs(2);
  for (auto _ : state) {
    if (ccf->LoadFactor() > 0.75) {
      state.PauseTiming();
      ccf = ConditionalCuckooFilter::Make(variant, config).ValueOrDie();
      state.ResumeTiming();
    }
    attrs[0] = rng.NextBelow(1000);
    attrs[1] = rng.NextBelow(1000);
    benchmark::DoNotOptimize(ccf->Insert(key++, attrs).ok());
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(std::string(CcfVariantName(variant)));
}
BENCHMARK(BM_CcfInsert)->DenseRange(0, 3);

// The §10.8 headline: (key, predicate) match throughput. The paper's
// unoptimized implementation processed 1M matches/second.
void BM_CcfPredicateQuery(benchmark::State& state) {
  CcfVariant variant = VariantOf(state.range(0));
  CcfConfig config = BenchConfig(variant);
  auto ccf = ConditionalCuckooFilter::Make(variant, config).ValueOrDie();
  Rng rng(5);
  constexpr uint64_t kKeys = 200000;
  std::vector<uint64_t> attrs(2);
  for (uint64_t k = 0; k < kKeys; ++k) {
    attrs[0] = k % 997;
    attrs[1] = k % 31;
    ccf->Insert(k, attrs).Abort();
  }
  Predicate pred = Predicate::Equals(0, 123).AndEquals(1, 7);
  uint64_t key = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ccf->Contains(key, pred));
    key = (key + 1) % (2 * kKeys);  // half present, half absent
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(std::string(CcfVariantName(variant)));
}
BENCHMARK(BM_CcfPredicateQuery)->DenseRange(0, 3);

void BM_CcfKeyOnlyQuery(benchmark::State& state) {
  CcfVariant variant = VariantOf(state.range(0));
  CcfConfig config = BenchConfig(variant);
  auto ccf = ConditionalCuckooFilter::Make(variant, config).ValueOrDie();
  std::vector<uint64_t> attrs(2, 5);
  for (uint64_t k = 0; k < 200000; ++k) ccf->Insert(k, attrs).Abort();
  uint64_t key = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ccf->ContainsKey(key));
    key += 7;
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(std::string(CcfVariantName(variant)));
}
BENCHMARK(BM_CcfKeyOnlyQuery)->DenseRange(0, 3);

// --- Batched / sharded serving hot path --------------------------------------
//
// The join-pushdown access pattern: one predicate, millions of probe keys,
// against a filter much larger than L2. Scalar, batched (prefetched
// two-pass), and sharded flavours share one probe set so lookups/sec are
// directly comparable.

constexpr size_t kHotProbes = 1 << 20;

// log2 of the hot-path table's bucket count. The default (2^22 buckets,
// ~92 MB chained table) deliberately exceeds a core's L3 slice so probes
// pay real DRAM latency — the regime the prefetched batch path targets.
// CI smoke runs set CCF_HOT_BUCKETS_LOG2 smaller to keep setup cheap.
int HotBucketsLog2() {
  if (const char* s = std::getenv("CCF_HOT_BUCKETS_LOG2")) {
    int v = std::atoi(s);
    if (v >= 10 && v <= 26) return v;
  }
  return 22;
}

CcfConfig HotPathConfig() {
  CcfConfig c;
  c.num_buckets = uint64_t{1} << HotBucketsLog2();
  c.slots_per_bucket = 6;
  c.key_fp_bits = 12;
  c.attr_fp_bits = 8;
  c.num_attrs = 2;
  c.max_dupes = 3;
  c.salt = 77;
  return c;
}

// ~70% load.
uint64_t HotRows() { return (uint64_t{1} << HotBucketsLog2()) * 6 * 7 / 10; }

// ~50% load for the duplicate-heavy build benches: triple-rows concentrate
// three entries per bucket pair, which lumps occupancy enough that higher
// loads (the probe table runs 70% on distinct keys) exhaust kick budgets.
uint64_t HotBuildRows() {
  return (uint64_t{1} << HotBucketsLog2()) * 6 * 5 / 10;
}

struct HotPathFixture {
  std::unique_ptr<ConditionalCuckooFilter> ccf;
  std::unique_ptr<ShardedCcf> sharded;
  std::vector<uint64_t> probe_keys;
  // Branch-hostile probe distributions (same length as probe_keys):
  std::vector<uint64_t> zipf_keys;     // Zipf-Mandelbrot skewed ranks
  std::vector<uint64_t> miss_keys;     // every key absent from the table
  std::vector<uint64_t> collide_keys;  // two keys → two bucket pairs total
  Predicate pred;
};

const HotPathFixture& HotPath() {
  static const HotPathFixture* fixture = [] {
    auto* f = new HotPathFixture();
    CcfConfig config = HotPathConfig();
    f->ccf = ConditionalCuckooFilter::Make(CcfVariant::kChained, config)
                 .ValueOrDie();
    ShardedCcfOptions opts;
    opts.num_shards = 8;
    f->sharded =
        ShardedCcf::Make(CcfVariant::kChained, config, opts).ValueOrDie();

    uint64_t rows = HotRows();
    std::vector<uint64_t> keys;
    std::vector<uint64_t> flat_attrs;
    keys.reserve(rows);
    flat_attrs.reserve(rows * 2);
    for (uint64_t k = 0; k < rows; ++k) {
      keys.push_back(k);
      flat_attrs.push_back(k % 997);
      flat_attrs.push_back(k % 31);
    }
    for (uint64_t k = 0; k < rows; ++k) {
      f->ccf->Insert(keys[k], std::span<const uint64_t>(&flat_attrs[2 * k], 2))
          .Abort();
    }
    f->sharded->InsertParallel(keys, flat_attrs).Abort();

    // Probe keys half present, half absent, in random order so the bucket
    // access stream is cache-hostile (the serving-time reality).
    Rng rng(13);
    f->probe_keys.reserve(kHotProbes);
    for (size_t i = 0; i < kHotProbes; ++i) {
      f->probe_keys.push_back(rng.NextBelow(2 * rows));
    }
    f->pred = Predicate::Equals(0, 123).AndEquals(1, 7);

    // Zipf-skewed probes: ranks drawn from the paper's Zipf-Mandelbrot
    // model (α=1.07, c=2.7) over a 2^20 domain, scattered across the key
    // space with a fixed odd stride so popularity is NOT correlated with
    // key locality — a handful of hot keys dominate the stream (their
    // buckets go cache-resident) over a long uniform-ish tail, the
    // classic serving skew.
    auto zipf = ZipfMandelbrot::Make(1.07, 2.7, uint64_t{1} << 20)
                    .ValueOrDie();
    f->zipf_keys.reserve(kHotProbes);
    for (size_t i = 0; i < kHotProbes; ++i) {
      uint64_t rank = zipf.Sample(rng) - 1;
      f->zipf_keys.push_back((rank * 2654435761u) % (2 * rows));
    }

    // All-miss probes: uniform keys strictly above the inserted range, so
    // (fp false positives aside) every probe scans both buckets to a
    // clean miss — the join-pushdown case a filter exists to make cheap.
    f->miss_keys.reserve(kHotProbes);
    for (size_t i = 0; i < kHotProbes; ++i) {
      f->miss_keys.push_back(2 * rows + rng.NextBelow(uint64_t{1} << 40));
    }

    // All-collide probes: the whole stream collapses onto TWO keys (one
    // present, one absent) in random order — at most two bucket pairs of
    // table traffic (fully cache-resident), a degenerate radix-cluster
    // distribution (two bins), and a ~50% unpredictable present/absent
    // branch. Isolates the pipeline's non-memory overhead and proves the
    // kernels on collision-degenerate input.
    f->collide_keys.reserve(kHotProbes);
    for (size_t i = 0; i < kHotProbes; ++i) {
      f->collide_keys.push_back(rng.NextBelow(2) == 0 ? 123 : 2 * rows + 1);
    }
    return f;
  }();
  return *fixture;
}

void SetTableMb(benchmark::State& state, uint64_t size_in_bits) {
  state.counters["table_mb"] = benchmark::Counter(
      static_cast<double>(size_in_bits) / 8.0 / 1e6);
}

// Scalar baseline: one dependent cache-missing probe per key.
void BM_HotLookupScalar(benchmark::State& state) {
  const HotPathFixture& f = HotPath();
  for (auto _ : state) {
    size_t hits = 0;
    for (uint64_t key : f.probe_keys) {
      hits += f.ccf->Contains(key, f.pred) ? 1 : 0;
    }
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kHotProbes));
  SetTableMb(state, f.ccf->SizeInBits());
  state.SetLabel("scalar");
}
BENCHMARK(BM_HotLookupScalar)->Unit(benchmark::kMillisecond);

// Batched: hash a block up front, prefetch both buckets per key, resolve.
void BM_HotLookupBatch(benchmark::State& state) {
  const HotPathFixture& f = HotPath();
  std::unique_ptr<bool[]> out(new bool[kHotProbes]);
  for (auto _ : state) {
    f.ccf->LookupBatch(f.probe_keys,
                       std::span<const Predicate>(&f.pred, 1),
                       std::span<bool>(out.get(), kHotProbes))
        .Abort();
    benchmark::DoNotOptimize(out.get());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kHotProbes));
  SetTableMb(state, f.ccf->SizeInBits());
  state.SetLabel("batched");
}
BENCHMARK(BM_HotLookupBatch)->Unit(benchmark::kMillisecond);

// Key-only membership, scalar: same probe set, no predicate.
void BM_HotContainsKeyScalar(benchmark::State& state) {
  const HotPathFixture& f = HotPath();
  for (auto _ : state) {
    size_t hits = 0;
    for (uint64_t key : f.probe_keys) {
      hits += f.ccf->ContainsKey(key) ? 1 : 0;
    }
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kHotProbes));
  SetTableMb(state, f.ccf->SizeInBits());
  state.SetLabel("key-scalar");
}
BENCHMARK(BM_HotContainsKeyScalar)->Unit(benchmark::kMillisecond);

// Key-only membership, batched: the two-wave pipeline — a key whose
// primary bucket holds a copy never fetches its alt bucket.
void BM_HotContainsKeyBatch(benchmark::State& state) {
  const HotPathFixture& f = HotPath();
  std::unique_ptr<bool[]> out(new bool[kHotProbes]);
  for (auto _ : state) {
    f.ccf->ContainsKeyBatch(f.probe_keys,
                            std::span<bool>(out.get(), kHotProbes));
    benchmark::DoNotOptimize(out.get());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kHotProbes));
  SetTableMb(state, f.ccf->SizeInBits());
  state.SetLabel("key-batched");
}
BENCHMARK(BM_HotContainsKeyBatch)->Unit(benchmark::kMillisecond);

// One batched-lookup row over an alternate probe distribution.
void RunHotLookupBatchRow(benchmark::State& state,
                          const std::vector<uint64_t>& keys,
                          const char* label) {
  const HotPathFixture& f = HotPath();
  std::unique_ptr<bool[]> out(new bool[kHotProbes]);
  for (auto _ : state) {
    f.ccf->LookupBatch(keys, std::span<const Predicate>(&f.pred, 1),
                       std::span<bool>(out.get(), kHotProbes))
        .Abort();
    benchmark::DoNotOptimize(out.get());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kHotProbes));
  SetTableMb(state, f.ccf->SizeInBits());
  state.SetLabel(label);
}

// Zipf-skewed batched lookups: a few hot keys dominate (cache-resident
// buckets) over a uniform-ish tail — the pipelined kernel must win here
// too, not just on uniformly cache-hostile streams.
void BM_HotLookupBatchZipf(benchmark::State& state) {
  RunHotLookupBatchRow(state, HotPath().zipf_keys, "batched-zipf");
}
BENCHMARK(BM_HotLookupBatchZipf)->Unit(benchmark::kMillisecond);

// All-miss batched lookups: every probe walks both buckets to a miss.
void BM_HotLookupBatchAllMiss(benchmark::State& state) {
  RunHotLookupBatchRow(state, HotPath().miss_keys, "batched-all-miss");
}
BENCHMARK(BM_HotLookupBatchAllMiss)->Unit(benchmark::kMillisecond);

// All-collide batched lookups: two keys, two bucket pairs, unpredictable
// hit/miss branch — memory drops out and pipeline overhead is laid bare.
void BM_HotLookupBatchAllCollide(benchmark::State& state) {
  RunHotLookupBatchRow(state, HotPath().collide_keys, "batched-all-collide");
}
BENCHMARK(BM_HotLookupBatchAllCollide)->Unit(benchmark::kMillisecond);

// Per-batch latency percentiles of the serving hot path: the production
// metric throughput rows hide. Times every 2048-key LookupBatch sub-batch
// (the pipeline's block size — one radix-clustered pass each) with a
// steady clock and reports p50/p99/p999 nanoseconds PER SUB-BATCH as
// counters; they ride into the JSON rows. keys/s is measured over the
// same timed region, so this row is comparable with BM_HotLookupBatch
// (minus ~40ns of clock overhead per sub-batch).
void BM_HotLookupBatchLatency(benchmark::State& state) {
  const HotPathFixture& f = HotPath();
  constexpr size_t kSubBatch = 2048;
  std::unique_ptr<bool[]> out(new bool[kSubBatch]);
  std::vector<double> samples;
  samples.reserve((kHotProbes / kSubBatch) * 4);
  for (auto _ : state) {
    for (size_t begin = 0; begin < kHotProbes; begin += kSubBatch) {
      const size_t n = std::min(kSubBatch, kHotProbes - begin);
      const auto t0 = std::chrono::steady_clock::now();
      f.ccf->LookupBatch(
              std::span<const uint64_t>(f.probe_keys.data() + begin, n),
              std::span<const Predicate>(&f.pred, 1),
              std::span<bool>(out.get(), n))
          .Abort();
      const auto t1 = std::chrono::steady_clock::now();
      samples.push_back(
          std::chrono::duration<double, std::nano>(t1 - t0).count());
      benchmark::DoNotOptimize(out.get());
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kHotProbes));
  SetTableMb(state, f.ccf->SizeInBits());
  state.counters["p50_ns"] =
      benchmark::Counter(bench::PercentileNs(samples, 50.0));
  state.counters["p99_ns"] =
      benchmark::Counter(bench::PercentileNs(samples, 99.0));
  state.counters["p999_ns"] =
      benchmark::Counter(bench::PercentileNs(samples, 99.9));
  state.SetLabel("batched-latency");
}
BENCHMARK(BM_HotLookupBatchLatency)->Unit(benchmark::kMillisecond);

// --- Range-predicate hot path ------------------------------------------------
//
// Batched vs scalar range lookups against a RangeCcf (dyadic labels,
// max_level 10 → η = 11 entries per row): the predicate's dyadic cover is
// compiled ONCE per batch, then every key rides the same prefetched
// two-pass pipeline as the equality rows above — so these rows are
// directly comparable with BM_HotLookupScalar/Batch and show what the
// per-batch cover compilation buys over per-key cover computation.

struct RangePathFixture {
  std::unique_ptr<RangeCcf> filter;
  std::vector<uint64_t> probe_keys;
  uint64_t lo = 0;
  uint64_t hi = 0;
};

const RangePathFixture& RangePath() {
  static const RangePathFixture* fixture = [] {
    auto* f = new RangePathFixture();
    CcfConfig config;
    // η = 11 label insertions per row: 2^18 buckets x 6 slots at ~50%
    // load holds ~71k rows while the table (≈7 MB) still exceeds L2.
    // Capped by CCF_HOT_BUCKETS_LOG2 so CI smoke runs stay cheap.
    config.num_buckets = uint64_t{1} << std::min(HotBucketsLog2(), 18);
    config.slots_per_bucket = 6;
    config.key_fp_bits = 12;
    config.attr_fp_bits = 12;
    config.num_attrs = 2;
    config.max_dupes = 3;
    config.salt = 77;
    constexpr int kMaxLevel = 10;
    constexpr int kRangeAttr = 1;
    f->filter = RangeCcf::Make(CcfVariant::kChained, config, kRangeAttr,
                               kMaxLevel)
                    .ValueOrDie();
    const uint64_t rows =
        config.num_buckets * 6 / 2 / (kMaxLevel + 1);  // ~50% load
    std::vector<uint64_t> keys;
    std::vector<uint64_t> flat_attrs;
    keys.reserve(rows);
    flat_attrs.reserve(2 * rows);
    for (uint64_t k = 0; k < rows; ++k) {
      keys.push_back(k);
      flat_attrs.push_back(k % 31);
      flat_attrs.push_back(1880 + k % 132);  // production_year-shaped
    }
    f->filter->InsertBatch(keys, flat_attrs).Abort();
    Rng rng(13);
    f->probe_keys.reserve(kHotProbes);
    for (size_t i = 0; i < kHotProbes; ++i) {
      f->probe_keys.push_back(rng.NextBelow(2 * rows));
    }
    f->lo = 1950;  // ~1/3 of the year domain matches
    f->hi = 1995;
    return f;
  }();
  return *fixture;
}

// Scalar range baseline: the dyadic cover is recomputed for EVERY key.
void BM_RangeLookupScalar(benchmark::State& state) {
  const RangePathFixture& f = RangePath();
  for (auto _ : state) {
    size_t hits = 0;
    for (uint64_t key : f.probe_keys) {
      hits += f.filter->ContainsInRange(key, f.lo, f.hi) ? 1 : 0;
    }
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kHotProbes));
  SetTableMb(state, f.filter->SizeInBits());
  state.SetLabel("range-scalar");
}
BENCHMARK(BM_RangeLookupScalar)->Unit(benchmark::kMillisecond);

// Batched: cover compiled once, keys through the prefetched pipeline.
void BM_RangeLookupBatch(benchmark::State& state) {
  const RangePathFixture& f = RangePath();
  CompiledRangePredicate pred =
      f.filter->CompileRange(f.lo, f.hi).ValueOrDie();
  std::unique_ptr<bool[]> out(new bool[kHotProbes]);
  for (auto _ : state) {
    f.filter
        ->ContainsInRangeBatch(f.probe_keys, pred,
                               std::span<bool>(out.get(), kHotProbes))
        .Abort();
    benchmark::DoNotOptimize(out.get());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kHotProbes));
  SetTableMb(state, f.filter->SizeInBits());
  state.SetLabel("range-batched");
}
BENCHMARK(BM_RangeLookupBatch)->Unit(benchmark::kMillisecond);

// Sharded scalar: routing plus the shard's (smaller) table per key.
void BM_HotLookupShardedScalar(benchmark::State& state) {
  const HotPathFixture& f = HotPath();
  for (auto _ : state) {
    size_t hits = 0;
    for (uint64_t key : f.probe_keys) {
      hits += f.sharded->Contains(key, f.pred) ? 1 : 0;
    }
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kHotProbes));
  SetTableMb(state, f.sharded->SizeInBits());
  state.SetLabel("sharded-scalar");
}
BENCHMARK(BM_HotLookupShardedScalar)->Unit(benchmark::kMillisecond);

// Sharded batched: the full serving hot path.
void BM_HotLookupShardedBatch(benchmark::State& state) {
  const HotPathFixture& f = HotPath();
  std::unique_ptr<bool[]> out(new bool[kHotProbes]);
  for (auto _ : state) {
    f.sharded
        ->LookupBatch(f.probe_keys, std::span<const Predicate>(&f.pred, 1),
                      std::span<bool>(out.get(), kHotProbes))
        .Abort();
    benchmark::DoNotOptimize(out.get());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kHotProbes));
  SetTableMb(state, f.sharded->SizeInBits());
  state.SetLabel("sharded-batched");
}
BENCHMARK(BM_HotLookupShardedBatch)->Unit(benchmark::kMillisecond);

// Mixed read/write serving: batched lookups interleaved with staged
// write-batch commits on one sharded filter — the live-traffic shape the
// wait-free write path exists for. Arg = write percentage of the op mix
// (5 → the 95/5 read-mostly row, 50 → the 50/50 churn row). Reads run
// through LookupBatch (overlay-visible staged rows included); writes are
// BufferWriteBatch + CommitWrites per block, with the 0.85 load-factor
// watermark keeping growth off the commit path. ops/s counts reads AND
// writes.
void BM_HotMixedReadWrite(benchmark::State& state) {
  const int write_pct = static_cast<int>(state.range(0));
  CcfConfig config = HotPathConfig();
  // Mid-size sharded table (capped at 2^16 buckets): the bench mutates, so
  // each iteration rebuilds its filter — keep that affordable while still
  // exceeding L2.
  config.num_buckets = uint64_t{1} << std::min(HotBucketsLog2(), 16);
  ShardedCcfOptions opts;
  opts.num_shards = 8;
  opts.resize_watermark = 0.85;

  const uint64_t base_rows = config.num_buckets * 6 / 2;  // ~50% load
  std::vector<uint64_t> keys;
  std::vector<uint64_t> flat_attrs;
  keys.reserve(base_rows);
  flat_attrs.reserve(2 * base_rows);
  for (uint64_t k = 0; k < base_rows; ++k) {
    keys.push_back(k);
    flat_attrs.push_back(k % 997);
    flat_attrs.push_back(k % 31);
  }
  constexpr size_t kOps = 1 << 18;
  constexpr size_t kBlock = 8192;
  Rng rng(29);
  std::vector<uint64_t> probe_keys;
  probe_keys.reserve(kOps);
  for (size_t i = 0; i < kOps; ++i) {
    probe_keys.push_back(rng.NextBelow(2 * base_rows));
  }
  Predicate pred = Predicate::Equals(0, 123).AndEquals(1, 7);
  std::unique_ptr<bool[]> out(new bool[kBlock]);
  std::vector<uint64_t> write_keys;
  std::vector<uint64_t> write_attrs;
  uint64_t size_bits = 0;

  for (auto _ : state) {
    state.PauseTiming();
    auto sharded =
        ShardedCcf::Make(CcfVariant::kChained, config, opts).ValueOrDie();
    sharded->InsertParallel(keys, flat_attrs).Abort();
    uint64_t next_key = base_rows;
    state.ResumeTiming();

    for (size_t begin = 0; begin < kOps; begin += kBlock) {
      size_t block = std::min(kBlock, kOps - begin);
      size_t writes = block * static_cast<size_t>(write_pct) / 100;
      size_t reads = block - writes;
      sharded
          ->LookupBatch(
              std::span<const uint64_t>(probe_keys.data() + begin, reads),
              std::span<const Predicate>(&pred, 1),
              std::span<bool>(out.get(), reads))
          .Abort();
      if (writes > 0) {
        write_keys.clear();
        write_attrs.clear();
        for (size_t w = 0; w < writes; ++w, ++next_key) {
          write_keys.push_back(next_key);
          write_attrs.push_back(next_key % 997);
          write_attrs.push_back(next_key % 31);
        }
        sharded->BufferWriteBatch(write_keys, write_attrs).Abort();
        sharded->CommitWrites().Abort();
      }
      benchmark::DoNotOptimize(out.get());
    }
    state.PauseTiming();
    // Background watermark resizes run off the serving path by design;
    // join them outside the timed region so the row measures foreground
    // serving cost.
    sharded->DrainMaintenance();
    size_bits = sharded->SizeInBits();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(kOps));
  SetTableMb(state, size_bits);
  state.SetLabel("mix-" + std::to_string(100 - write_pct) + "/" +
                 std::to_string(write_pct));
}
BENCHMARK(BM_HotMixedReadWrite)
    ->Arg(5)
    ->Arg(50)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Full-CRUD serving mix on one sharded filter: 80% batched lookups, 20%
// writes split across BufferWriteBatch inserts, BufferUpdate attribute
// swaps, and BufferErase tombstones, committed per block — the serving
// shape the tombstone/compaction machinery exists for. Updates and erases
// target previously committed rows with their exact current attribute
// vectors, so every tombstone does real reclamation work, and the 0.3
// compact watermark makes log compactions part of the measured steady
// state (their count is reported as a counter).
void BM_HotCrudMix(benchmark::State& state) {
  CcfConfig config = HotPathConfig();
  config.num_buckets = uint64_t{1} << std::min(HotBucketsLog2(), 16);
  ShardedCcfOptions opts;
  opts.num_shards = 8;
  opts.resize_watermark = 0.85;
  opts.compact_watermark = 0.3;

  const uint64_t base_rows = config.num_buckets * 6 / 2;  // ~50% load
  std::vector<uint64_t> keys;
  std::vector<uint64_t> flat_attrs;
  keys.reserve(base_rows);
  flat_attrs.reserve(2 * base_rows);
  for (uint64_t k = 0; k < base_rows; ++k) {
    keys.push_back(k);
    flat_attrs.push_back(k % 997);
    flat_attrs.push_back(k % 31);
  }
  constexpr size_t kOps = 1 << 18;
  constexpr size_t kBlock = 8192;
  Rng rng(43);
  std::vector<uint64_t> probe_keys;
  probe_keys.reserve(kOps);
  for (size_t i = 0; i < kOps; ++i) {
    probe_keys.push_back(rng.NextBelow(2 * base_rows));
  }
  Predicate pred = Predicate::Equals(0, 123).AndEquals(1, 7);
  std::unique_ptr<bool[]> out(new bool[kBlock]);
  // Churn rows live above the base key range; attrs are a deterministic
  // function of (row, version) so updates/erases always present the exact
  // current vector.
  auto churn_attr = [](uint64_t i, uint64_t version, uint64_t* a0,
                       uint64_t* a1) {
    uint64_t v = i * 131 + version * 17;
    *a0 = v % 997;
    *a1 = v % 31;
  };
  std::vector<uint64_t> write_keys;
  std::vector<uint64_t> write_attrs;
  uint64_t size_bits = 0;
  uint64_t compactions = 0;

  for (auto _ : state) {
    state.PauseTiming();
    auto sharded =
        ShardedCcf::Make(CcfVariant::kChained, config, opts).ValueOrDie();
    sharded->InsertParallel(keys, flat_attrs).Abort();
    std::vector<uint32_t> version;  // per churn row; grows with inserts
    size_t erase_cursor = 0;        // churn rows [0, erase_cursor) are gone
    state.ResumeTiming();

    for (size_t begin = 0; begin < kOps; begin += kBlock) {
      size_t block = std::min(kBlock, kOps - begin);
      size_t writes = block * 20 / 100;
      size_t reads = block - writes;
      sharded
          ->LookupBatch(
              std::span<const uint64_t>(probe_keys.data() + begin, reads),
              std::span<const Predicate>(&pred, 1),
              std::span<bool>(out.get(), reads))
          .Abort();
      size_t live = version.size() - erase_cursor;
      size_t erases = std::min(writes / 3, live);
      size_t updates = std::min(writes / 3, live - erases);
      size_t inserts = writes - erases - updates;
      uint64_t a0, a1;
      for (size_t e = 0; e < erases; ++e, ++erase_cursor) {
        uint64_t i = erase_cursor;
        churn_attr(i, version[i], &a0, &a1);
        uint64_t attrs[2] = {a0, a1};
        sharded->BufferErase(base_rows + i, attrs).Abort();
      }
      for (size_t u = 0; u < updates; ++u) {
        uint64_t i = erase_cursor + u;
        churn_attr(i, version[i], &a0, &a1);
        uint64_t old_attrs[2] = {a0, a1};
        churn_attr(i, version[i] + 1, &a0, &a1);
        uint64_t new_attrs[2] = {a0, a1};
        sharded->BufferUpdate(base_rows + i, old_attrs, new_attrs).Abort();
        ++version[i];
      }
      if (inserts > 0) {
        write_keys.clear();
        write_attrs.clear();
        for (size_t w = 0; w < inserts; ++w) {
          uint64_t i = version.size();
          churn_attr(i, 0, &a0, &a1);
          write_keys.push_back(base_rows + i);
          write_attrs.push_back(a0);
          write_attrs.push_back(a1);
          version.push_back(0);
        }
        sharded->BufferWriteBatch(write_keys, write_attrs).Abort();
      }
      sharded->CommitWrites().Abort();
      benchmark::DoNotOptimize(out.get());
    }
    state.PauseTiming();
    sharded->DrainMaintenance();
    size_bits = sharded->SizeInBits();
    compactions += sharded->num_compactions();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(kOps));
  SetTableMb(state, size_bits);
  state.counters["compactions"] =
      benchmark::Counter(static_cast<double>(compactions));
  state.SetLabel("crud-80/20");
}
BENCHMARK(BM_HotCrudMix)->Unit(benchmark::kMillisecond)->UseRealTime();

// Sharded parallel build: rows/sec by build thread count.
void BM_ShardedParallelBuild(benchmark::State& state) {
  int threads = static_cast<int>(state.range(0));
  constexpr uint64_t kBuildRows = 1 << 18;
  CcfConfig config = HotPathConfig();
  config.num_buckets = 1 << 16;
  std::vector<uint64_t> keys;
  std::vector<uint64_t> flat_attrs;
  for (uint64_t k = 0; k < kBuildRows; ++k) {
    keys.push_back(k);
    flat_attrs.push_back(k % 997);
    flat_attrs.push_back(k % 31);
  }
  ShardedCcfOptions opts;
  opts.num_shards = 8;
  for (auto _ : state) {
    state.PauseTiming();
    auto sharded =
        ShardedCcf::Make(CcfVariant::kChained, config, opts).ValueOrDie();
    state.ResumeTiming();
    sharded->InsertParallel(keys, flat_attrs, threads).Abort();
    benchmark::DoNotOptimize(sharded->num_rows());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kBuildRows));
  state.SetLabel("build_threads=" + std::to_string(threads));
}
// Wall time, not main-thread CPU time: the build threads do the work.
BENCHMARK(BM_ShardedParallelBuild)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

// Multi-caller sharded serving: T caller threads concurrently issue
// 2048-key LookupBatch sub-batches over disjoint slices of the shared
// probe stream against ONE sharded filter — the many-caller serving
// shape. Epoch pins make concurrent readers safe;
// keys/s is aggregate across callers (UseRealTime) and p99_ns is the 99th
// percentile sub-batch latency pooled over every caller, so tail
// inflation from cross-thread interference is visible next to the
// single-caller BM_HotLookupBatchLatency row. The callers start once,
// before the timed loop, and a barrier releases them for each iteration:
// spawning them inside it made the smoke-size row measure thread creation
// (flat keys/s over 1/2/4 callers). MinTime overrides the smoke runs'
// --benchmark_min_time so the row always averages several iterations.
void BM_ShardedParallelLookup(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  const HotPathFixture& f = HotPath();
  constexpr size_t kSubBatch = 2048;
  const size_t slice = kHotProbes / static_cast<size_t>(threads);
  std::vector<std::vector<double>> samples(
      static_cast<size_t>(threads));
  std::barrier<> start(threads + 1);
  std::barrier<> done(threads + 1);
  std::atomic<bool> stop{false};
  std::vector<std::thread> callers;
  callers.reserve(static_cast<size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    callers.emplace_back([&, t] {
      std::unique_ptr<bool[]> out(new bool[kSubBatch]);
      std::vector<double>& my_samples = samples[static_cast<size_t>(t)];
      const size_t begin0 = slice * static_cast<size_t>(t);
      const size_t end = t == threads - 1 ? kHotProbes : begin0 + slice;
      for (;;) {
        start.arrive_and_wait();
        if (stop.load(std::memory_order_relaxed)) return;
        for (size_t begin = begin0; begin < end; begin += kSubBatch) {
          const size_t n = std::min(kSubBatch, end - begin);
          const auto t0 = std::chrono::steady_clock::now();
          f.sharded
              ->LookupBatch(
                  std::span<const uint64_t>(f.probe_keys.data() + begin, n),
                  std::span<const Predicate>(&f.pred, 1),
                  std::span<bool>(out.get(), n))
              .Abort();
          const auto t1 = std::chrono::steady_clock::now();
          my_samples.push_back(
              std::chrono::duration<double, std::nano>(t1 - t0).count());
          benchmark::DoNotOptimize(out.get());
        }
        done.arrive_and_wait();
      }
    });
  }
  for (auto _ : state) {
    start.arrive_and_wait();
    done.arrive_and_wait();
  }
  stop.store(true, std::memory_order_relaxed);
  start.arrive_and_wait();
  for (auto& c : callers) c.join();
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kHotProbes));
  SetTableMb(state, f.sharded->SizeInBits());
  std::vector<double> pooled;
  for (const auto& s : samples) {
    pooled.insert(pooled.end(), s.begin(), s.end());
  }
  state.counters["p99_ns"] =
      benchmark::Counter(bench::PercentileNs(pooled, 99.0));
  state.SetLabel("lookup_threads=" + std::to_string(threads));
}
// Thread counts 1/2/4/ncores, deduped and sorted so single-digit-core CI
// runners don't register the same row twice.
void ShardedLookupThreadArgs(benchmark::internal::Benchmark* b) {
  std::vector<int> counts = {1, 2, 4,
                             static_cast<int>(
                                 std::thread::hardware_concurrency())};
  std::sort(counts.begin(), counts.end());
  counts.erase(std::unique(counts.begin(), counts.end()), counts.end());
  for (int c : counts) {
    if (c >= 1) b->Arg(c);
  }
}
BENCHMARK(BM_ShardedParallelLookup)->Apply(ShardedLookupThreadArgs)
    ->MinTime(0.5)->Unit(benchmark::kMillisecond)->UseRealTime();

// --- Bulk-build hot path -----------------------------------------------------
//
// Build-rate rows (rows/s): scalar per-row Insert vs the two-wave batched
// InsertBatch, per variant on a mid-size table; the large JOB-light-scale
// chained table headline; and the §4.1 doubling-rebuild cost with and
// without the hash memo.

struct BuildRows {
  std::vector<uint64_t> keys;
  std::vector<uint64_t> flat_attrs;
};

// Distinct keys with small-domain attribute values (stored exactly under
// §9's small-value optimization): the uniform shape every variant absorbs,
// for like-for-like per-variant build rates.
BuildRows MakeBuildRows(uint64_t n) {
  BuildRows rows;
  rows.keys.reserve(n);
  rows.flat_attrs.reserve(2 * n);
  for (uint64_t k = 0; k < n; ++k) {
    rows.keys.push_back(k);
    rows.flat_attrs.push_back(k * 7 % 251);
    rows.flat_attrs.push_back(k % 31);
  }
  return rows;
}

// JOB-light-shaped rows for the chained headline: fact-table join keys
// repeat (~3 rows per key, interleaved so a key's rows are far apart in
// insertion order, like a table scan) with distinct attribute vectors per
// row. The duplicate rows exercise the dedupe/chain machinery both build
// paths must run — the workload CCFs exist for. (Plain would overflow a
// bucket pair under this shape at this load; that failure mode is the
// paper's point, so only the chained benches use it.)
BuildRows MakeJoblightRows(uint64_t n) {
  BuildRows rows;
  rows.keys.reserve(n);
  rows.flat_attrs.reserve(2 * n);
  uint64_t num_keys = n / 3 + 1;
  for (uint64_t k = 0; k < n; ++k) {
    rows.keys.push_back(k % num_keys);
    rows.flat_attrs.push_back(k * 7 % 251);
    rows.flat_attrs.push_back(k % 31);
  }
  return rows;
}

// ~70% load on a 2^16-bucket table per variant (slots differ for Bloom).
uint64_t MidBuildRows(const CcfConfig& c) {
  return c.num_buckets * static_cast<uint64_t>(c.slots_per_bucket) * 7 / 10;
}

void BM_CcfBuildScalar(benchmark::State& state) {
  CcfVariant variant = VariantOf(state.range(0));
  CcfConfig config = BenchConfig(variant);
  BuildRows rows = MakeBuildRows(MidBuildRows(config));
  for (auto _ : state) {
    state.PauseTiming();
    auto ccf = ConditionalCuckooFilter::Make(variant, config).ValueOrDie();
    state.ResumeTiming();
    for (size_t i = 0; i < rows.keys.size(); ++i) {
      ccf->Insert(rows.keys[i],
                  std::span<const uint64_t>(&rows.flat_attrs[2 * i], 2))
          .Abort();
    }
    benchmark::DoNotOptimize(ccf->num_rows());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(rows.keys.size()));
  state.SetLabel("build-scalar " + std::string(CcfVariantName(variant)));
}
BENCHMARK(BM_CcfBuildScalar)->DenseRange(0, 3)->Unit(benchmark::kMillisecond);

void BM_CcfBuildBatch(benchmark::State& state) {
  CcfVariant variant = VariantOf(state.range(0));
  CcfConfig config = BenchConfig(variant);
  BuildRows rows = MakeBuildRows(MidBuildRows(config));
  for (auto _ : state) {
    state.PauseTiming();
    auto ccf = ConditionalCuckooFilter::Make(variant, config).ValueOrDie();
    state.ResumeTiming();
    ccf->InsertBatch(rows.keys, rows.flat_attrs).Abort();
    benchmark::DoNotOptimize(ccf->num_rows());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(rows.keys.size()));
  state.SetLabel("build-batched " + std::string(CcfVariantName(variant)));
}
BENCHMARK(BM_CcfBuildBatch)->DenseRange(0, 3)->Unit(benchmark::kMillisecond);

// The headline: building the large (out-of-cache) JOB-light-scale chained
// table, scalar vs batched — the acceptance row for the bulk-build PR.
void BM_HotBuildScalar(benchmark::State& state) {
  CcfConfig config = HotPathConfig();
  BuildRows rows = MakeJoblightRows(HotBuildRows());
  for (auto _ : state) {
    state.PauseTiming();
    auto ccf =
        ConditionalCuckooFilter::Make(CcfVariant::kChained, config)
            .ValueOrDie();
    state.ResumeTiming();
    for (size_t i = 0; i < rows.keys.size(); ++i) {
      ccf->Insert(rows.keys[i],
                  std::span<const uint64_t>(&rows.flat_attrs[2 * i], 2))
          .Abort();
    }
    benchmark::DoNotOptimize(ccf->num_rows());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(rows.keys.size()));
  state.SetLabel("hot-build-scalar");
}
BENCHMARK(BM_HotBuildScalar)->Unit(benchmark::kMillisecond);

void BM_HotBuildBatch(benchmark::State& state) {
  CcfConfig config = HotPathConfig();
  BuildRows rows = MakeJoblightRows(HotBuildRows());
  for (auto _ : state) {
    state.PauseTiming();
    auto ccf =
        ConditionalCuckooFilter::Make(CcfVariant::kChained, config)
            .ValueOrDie();
    state.ResumeTiming();
    ccf->InsertBatch(rows.keys, rows.flat_attrs).Abort();
    benchmark::DoNotOptimize(ccf->num_rows());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(rows.keys.size()));
  state.SetLabel("hot-build-batched");
}
BENCHMARK(BM_HotBuildBatch)->Unit(benchmark::kMillisecond);

// §4.1 doubling rebuild of the hot table: re-place every row into a table
// with twice the buckets. Arg 0 = the pre-batching retry path (scalar
// re-insert row by row — what BuildCcf did before the bulk-build fast
// path), 1 = batched from scratch (re-hash everything), 2 = batched from
// the hash memo the first build filled (re-mask cached key hashes, reuse
// packed payload words — the BuildCcf retry loop today).
void BM_HotRebuild(benchmark::State& state) {
  const int mode = static_cast<int>(state.range(0));
  CcfConfig doubled = HotPathConfig();
  doubled.num_buckets *= 2;
  BuildRows rows = MakeJoblightRows(HotBuildRows());
  std::vector<uint64_t> memo;
  if (mode == 2) {
    // Fill the memo exactly as the failed first attempt would have.
    auto first =
        ConditionalCuckooFilter::Make(CcfVariant::kChained, HotPathConfig())
            .ValueOrDie();
    first->InsertBatch(rows.keys, rows.flat_attrs, &memo).Abort();
  }
  for (auto _ : state) {
    state.PauseTiming();
    auto ccf =
        ConditionalCuckooFilter::Make(CcfVariant::kChained, doubled)
            .ValueOrDie();
    state.ResumeTiming();
    if (mode == 0) {
      for (size_t i = 0; i < rows.keys.size(); ++i) {
        ccf->Insert(rows.keys[i],
                    std::span<const uint64_t>(&rows.flat_attrs[2 * i], 2))
            .Abort();
      }
    } else {
      ccf->InsertBatch(rows.keys, rows.flat_attrs,
                       mode == 2 ? &memo : nullptr)
          .Abort();
    }
    benchmark::DoNotOptimize(ccf->num_rows());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(rows.keys.size()));
  state.SetLabel(mode == 0   ? "rebuild-scalar"
                 : mode == 1 ? "rebuild-scratch"
                             : "rebuild-memo");
}
BENCHMARK(BM_HotRebuild)->Arg(0)->Arg(1)->Arg(2)->Unit(benchmark::kMillisecond);

void BM_PredicateOnlyDerivation(benchmark::State& state) {
  // Algorithm 2 cost: deriving a key filter from a built CCF (per call).
  CcfConfig config = BenchConfig(CcfVariant::kBloom);
  config.num_buckets = 1 << 12;
  auto ccf =
      ConditionalCuckooFilter::Make(CcfVariant::kBloom, config).ValueOrDie();
  std::vector<uint64_t> attrs(2);
  for (uint64_t k = 0; k < 12000; ++k) {
    attrs[0] = k % 16;
    attrs[1] = k % 8;
    ccf->Insert(k, attrs).Abort();
  }
  Predicate pred = Predicate::Equals(0, 3);
  for (auto _ : state) {
    auto derived = ccf->PredicateQuery(pred).ValueOrDie();
    benchmark::DoNotOptimize(derived->Contains(42));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PredicateOnlyDerivation);

// --- Roofline row ------------------------------------------------------------

// Expected DRAM bytes touched per batched predicate probe, from table
// geometry: both buckets' slot-run lines (present keys still read both —
// the predicate rarely matches; absent keys miss both) plus the primary
// bucket's occupancy line, which only keys with a fingerprint candidate
// read (counted for every probe: an upper bound). A contiguous B-bit field
// at a random bit offset touches 1 + (B-1)/512 cache lines in expectation.
double RooflineBytesPerProbe(const CcfConfig& c) {
  const double line_bits = 512.0;
  const int slot_bits = c.key_fp_bits + c.num_attrs * c.attr_fp_bits;
  const double bucket_bits =
      static_cast<double>(c.slots_per_bucket) * slot_bits;
  const double slot_lines = 1.0 + (bucket_bits - 1.0) / line_bits;
  const double occ_lines =
      1.0 + (static_cast<double>(c.slots_per_bucket) - 1.0) / line_bits;
  return (2.0 * slot_lines + occ_lines) * 64.0;
}

// Synthesizes the roofline row against the measured BM_HotLookupBatch
// throughput: roofline keys/s = (triad DRAM bytes/s) / (bytes per probe),
// the bandwidth-bound ceiling for this table geometry; the tracked metric
// is measured/roofline. keys_per_second is deliberately 0 so
// bench_history_check treats the row as advisory metadata, never a
// blocking throughput row.
void AppendRooflineRow(bench::JsonRowsReporter* reporter) {
  const double measured = reporter->KeysPerSecond("BM_HotLookupBatch");
  if (measured <= 0.0) return;  // hot row filtered out: fixture not built
  const CcfConfig config = HotPathConfig();
  const double bytes_per_probe = RooflineBytesPerProbe(config);
  const double dram_gbs = bench::MeasureDramBandwidthGBs();
  const double roofline_kps = dram_gbs * 1e9 / bytes_per_probe;
  const double fraction = measured / roofline_kps;
  const HotPathFixture& f = HotPath();
  char row[512];
  std::snprintf(
      row, sizeof(row),
      "  {\"name\": \"Roofline\", \"label\": \"chained-batched-lookup\", "
      "\"aggregate\": \"\", \"iterations\": 0, "
      "\"real_time_ms\": 0, \"keys_per_second\": 0, \"ns_per_key\": 0, "
      "\"table_mb\": %.3f, \"bytes_per_probe\": %.1f, \"dram_gbs\": %.2f, "
      "\"roofline_kps\": %.1f, \"measured_kps\": %.1f, "
      "\"roofline_fraction\": %.4f}",
      static_cast<double>(f.ccf->SizeInBits()) / 8.0 / 1e6, bytes_per_probe,
      dram_gbs, roofline_kps, measured, fraction);
  std::printf(
      "Roofline: %.1f bytes/probe, %.2f GB/s DRAM -> ceiling %.2fM keys/s; "
      "measured %.2fM keys/s = %.1f%% of roofline\n",
      bytes_per_probe, dram_gbs, roofline_kps / 1e6, measured / 1e6,
      fraction * 100.0);
  reporter->AppendRow(row);
}

// Joblight range rows (fig07-style): the first few 3+-table range queries
// of the standard workload run as multi-join chains at a tiny scale, and
// each emits one JSON row — probe keys/s over the batched chain plus the
// chain's aggregate reduction factor next to the exact-semijoin floor, so
// bench history tracks the range serving path end-to-end, not just the
// microbenchmark above. Names carry "Range" so the CI screen keeps them
// --advisory until the rolling baseline folds them in.
void AppendJoblightRangeRows(bench::JsonRowsReporter* reporter) {
  double scale = 1.0 / 512;
  if (const char* s = std::getenv("CCF_JOBLIGHT_SCALE_DEN")) {
    int den = std::atoi(s);
    if (den >= 1) scale = 1.0 / den;
  }
  auto dataset_r = GenerateImdb(scale, 7);
  if (!dataset_r.ok()) return;
  const ImdbDataset& dataset = dataset_r.ValueOrDie();
  WorkloadConfig wc;
  auto queries_r = GenerateWorkload(dataset, wc);
  if (!queries_r.ok()) return;

  MultiJoinOptions options;
  options.max_level = 10;
  int emitted = 0;
  for (const JoinQuery& query : queries_r.ValueOrDie()) {
    if (query.tables.size() < 3) continue;
    bool has_range = false;
    for (const auto& p : query.predicates) has_range |= p.is_range;
    if (!has_range) continue;

    const auto t0 = std::chrono::steady_clock::now();
    auto chain_r = RunMultiJoinChain(dataset, query, options);
    const auto t1 = std::chrono::steady_clock::now();
    if (!chain_r.ok()) continue;
    auto exact_r = ExactChainReference(dataset, query);
    if (!exact_r.ok()) continue;
    const MultiJoinResult& chain = chain_r.ValueOrDie();
    const MultiJoinResult& exact = exact_r.ValueOrDie();

    uint64_t probes = 0;
    for (const MultiJoinStep& s : chain.steps) probes += s.rows_after_local;
    const double secs =
        std::chrono::duration<double>(t1 - t0).count();
    // Aggregate RF: final survivors over the last step's locally-passing
    // rows (the fig06/fig07 convention), floored by the exact chain.
    const MultiJoinStep& last = chain.steps.back();
    const double rf_chain = last.rf();
    const double rf_exact = exact.steps.back().rf();
    char row[512];
    std::snprintf(
        row, sizeof(row),
        "  {\"name\": \"RangeJoblightRf\", \"label\": \"q%d steps=%zu\", "
        "\"aggregate\": \"\", \"iterations\": 1, \"real_time_ms\": %.3f, "
        "\"keys_per_second\": %.1f, \"ns_per_key\": %.2f, "
        "\"table_mb\": %.3f, \"rf_chain\": %.4f, \"rf_exact\": %.4f}",
        query.id, chain.steps.size(), secs * 1e3,
        secs > 0 ? static_cast<double>(probes) / secs : 0.0,
        probes > 0 ? secs * 1e9 / static_cast<double>(probes) : 0.0,
        static_cast<double>(chain.total_filter_bits) / 8.0 / 1e6, rf_chain,
        rf_exact);
    reporter->AppendRow(row);
    std::printf(
        "RangeJoblightRf q%d: %zu steps, %.0f probe keys/s, rf %.4f "
        "(exact floor %.4f)\n",
        query.id, chain.steps.size(),
        secs > 0 ? static_cast<double>(probes) / secs : 0.0, rf_chain,
        rf_exact);
    if (++emitted >= 3) break;
  }
}

}  // namespace
}  // namespace ccf

int main(int argc, char** argv) {
  std::string json_path;
  std::vector<char*> args =
      ccf::bench::ExtractJsonFlag(argc, argv, &json_path);
  int filtered_argc = static_cast<int>(args.size());
  benchmark::Initialize(&filtered_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(filtered_argc, args.data())) {
    return 1;
  }
  if (json_path.empty()) {
    benchmark::RunSpecifiedBenchmarks();
  } else {
    ccf::bench::JsonRowsReporter reporter(json_path);
    benchmark::RunSpecifiedBenchmarks(&reporter);
    // Roofline row: only when the hot batched row actually ran (its
    // fixture is then already built) — a filtered bench run should not
    // pay the 92 MB fixture or the DRAM sweep.
    ccf::AppendRooflineRow(&reporter);
    ccf::AppendJoblightRangeRows(&reporter);
    if (!reporter.WriteFile()) {
      std::fprintf(stderr, "failed to write JSON rows to %s\n",
                   json_path.c_str());
      return 1;
    }
  }
  benchmark::Shutdown();
  return 0;
}
