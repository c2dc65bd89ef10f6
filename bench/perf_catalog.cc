// Filter-fleet serving benchmark: a FilterCatalog holding many file-backed
// filters (default 1024) probed with Zipf-skewed filter popularity
// (s = 1.1) — the deployment shape the catalog exists for: a handful of
// hot filters absorb most traffic over a long cold tail.
//
// Rows:
//   * BM_CatalogZipfLookup/T   — T caller threads through BatchedLookup;
//     aggregate keys/s across callers plus promotion/eviction/batching
//     counters.
//   * BM_CatalogCopySingleCaller — the pre-catalog baseline: the whole
//     fleet copy-deserialized up front, one caller serving the same Zipf
//     stream via direct LookupBatch. The acceptance bar: cross-request
//     batching must not lose to this.
//   * BM_CatalogZipfLatency    — per-request p50/p99/p999 nanoseconds of
//     the single-caller catalog path (keys_per_second carried too).
//   * BM_CatalogTieredChurn    — hot budget ~1/8 of the fleet: every
//     iteration promotes, evicts, and decompresses under the clock.
//   * BM_CatalogPromote/R      — what one promoting request costs: a cold
//     promote of an R-row file-backed filter, its first 512-key probe and
//     the eviction it triggers, as per-request p50/p99 for 2 callers. R =
//     4096 is the fleet's 22 KB blob (copy-loaded); R = 32768 is a 174 KB
//     blob, above FilterCatalog::kCopyLoadBytes (mmap + alias load).
//
// `--json <path>` writes the same machine-readable rows perf_throughput
// emits (bench_json.h); CI's bench-smoke runs this binary with scaled-down
// env knobs and gates on the rows via `bench_history_check --advisory
// Catalog`.
//
// Env knobs (CI smoke sets them small):
//   CCF_CATALOG_FILTERS — fleet size           (default 1024)
//   CCF_CATALOG_ROWS    — rows per filter      (default 4096)
//   CCF_CATALOG_QUERIES — probes per iteration (default 2^18)
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.h"
#include "bench_util.h"
#include "ccf/ccf.h"
#include "data/zipf.h"
#include "serve/filter_catalog.h"
#include "util/file_io.h"
#include "util/random.h"

namespace ccf {
namespace {

size_t EnvSize(const char* name, size_t def) {
  if (const char* s = std::getenv(name)) {
    long long v = std::atoll(s);
    if (v > 0) return static_cast<size_t>(v);
  }
  return def;
}

size_t NumFilters() { return EnvSize("CCF_CATALOG_FILTERS", 1024); }
size_t RowsPerFilter() { return EnvSize("CCF_CATALOG_ROWS", 4096); }
size_t QueriesPerIter() {
  return EnvSize("CCF_CATALOG_QUERIES", size_t{1} << 18);
}

constexpr size_t kRequestKeys = 512;  // keys per client request

CcfConfig CatalogFilterConfig(size_t rows) {
  CcfConfig c;
  // Size each filter for ~70% load on its row count.
  uint64_t buckets = 64;
  while (buckets * 6 * 7 / 10 < rows) buckets *= 2;
  c.num_buckets = buckets;
  c.slots_per_bucket = 6;
  c.key_fp_bits = 12;
  c.attr_fp_bits = 8;
  c.num_attrs = 2;
  c.max_dupes = 3;
  c.salt = 77;
  return c;
}

struct CatalogFixture {
  std::string dir;
  std::vector<std::string> ids;     // filter id per fleet slot
  std::vector<uint64_t> zipf_slot;  // Zipf(s=1.1) slot per request
  std::vector<uint64_t> probe_keys;  // offsets in [0, 2*rows)
  Predicate pred;
  uint64_t filter_bits = 0;  // one filter's SizeInBits
  size_t num_filters = 0;

  std::string PathOf(size_t slot) const {
    return dir + "/filter_" + std::to_string(slot) + ".ccf";
  }

  ~CatalogFixture() {
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }
};

// Builds the fleet once: every filter is the same shape but a distinct
// key space (slot number in the high key bits), serialized to its own file
// under a scratch dir in the working directory. Requests draw a fleet slot
// from Zipf-Mandelbrot (α = 1.1, c = 0 — plain Zipf s = 1.1), so slot 0
// dominates the stream.
const CatalogFixture& Fixture() {
  static const CatalogFixture* fixture = [] {
    auto* f = new CatalogFixture();
    f->num_filters = NumFilters();
    const size_t rows = RowsPerFilter();
    f->dir = "perf_catalog_scratch";
    std::filesystem::create_directories(f->dir);

    CcfConfig config = CatalogFilterConfig(rows);
    std::vector<uint64_t> keys;
    std::vector<uint64_t> flat_attrs;
    keys.reserve(rows);
    flat_attrs.reserve(2 * rows);
    for (size_t i = 0; i < f->num_filters; ++i) {
      keys.clear();
      flat_attrs.clear();
      const uint64_t base = static_cast<uint64_t>(i) << 32;
      for (uint64_t k = 0; k < rows; ++k) {
        keys.push_back(base + k);
        flat_attrs.push_back(k % 997);
        flat_attrs.push_back(k % 31);
      }
      auto ccf = ConditionalCuckooFilter::Make(CcfVariant::kChained, config)
                     .ValueOrDie();
      ccf->InsertBatch(keys, flat_attrs).Abort();
      f->filter_bits = ccf->SizeInBits();
      std::string blob = ccf->Serialize();
      std::ofstream out(f->PathOf(i), std::ios::binary);
      out.write(blob.data(), static_cast<std::streamsize>(blob.size()));
      f->ids.push_back("f" + std::to_string(i));
    }

    const size_t queries = QueriesPerIter();
    const size_t requests = (queries + kRequestKeys - 1) / kRequestKeys;
    auto zipf =
        ZipfMandelbrot::Make(1.1, 0.0, f->num_filters).ValueOrDie();
    Rng rng(19);
    f->zipf_slot.reserve(requests);
    for (size_t r = 0; r < requests; ++r) {
      f->zipf_slot.push_back(zipf.Sample(rng) - 1);  // 0-based slot
    }
    f->probe_keys.reserve(queries);
    for (size_t i = 0; i < queries; ++i) {
      // Half land in the target filter's inserted range, half miss; the
      // request loop rebases the offset onto the drawn filter's key space.
      f->probe_keys.push_back(rng.NextBelow(2 * rows));
    }
    f->pred = Predicate::Equals(0, 123).AndEquals(1, 7);
    return f;
  }();
  return *fixture;
}

std::unique_ptr<FilterCatalog> MakeCatalog(const CatalogFixture& f,
                                           CatalogOptions options) {
  auto catalog = std::make_unique<FilterCatalog>(options);
  for (size_t i = 0; i < f.ids.size(); ++i) {
    catalog->AddFile(f.ids[i], f.PathOf(i)).Abort();
  }
  return catalog;
}

void SetCatalogCounters(benchmark::State& state, const FilterCatalog& c) {
  CatalogStats s = c.stats();
  state.counters["promotions"] =
      benchmark::Counter(static_cast<double>(s.promotions));
  state.counters["evictions"] =
      benchmark::Counter(static_cast<double>(s.evictions));
  state.counters["batched"] =
      benchmark::Counter(static_cast<double>(s.batched_requests));
  state.counters["table_mb"] =
      benchmark::Counter(static_cast<double>(c.hot_bytes()) / 1e6);
}

// Issues the fixture's request stream [begin, end) against the catalog on
// the calling thread, rebasing each request's probe offsets onto the drawn
// filter's key space. Returns a per-request latency sample vector when
// `samples` is non-null.
void RunRequests(const CatalogFixture& f, FilterCatalog& catalog,
                 size_t begin, size_t end, std::vector<double>* samples) {
  std::vector<uint64_t> req_keys(kRequestKeys);
  std::unique_ptr<bool[]> out(new bool[kRequestKeys]);
  const size_t queries = f.probe_keys.size();
  for (size_t r = begin; r < end; ++r) {
    const uint64_t slot = f.zipf_slot[r];
    const uint64_t base = slot << 32;
    const size_t off = (r * kRequestKeys) % queries;
    for (size_t i = 0; i < kRequestKeys; ++i) {
      req_keys[i] = base + f.probe_keys[(off + i) % queries];
    }
    const auto t0 = std::chrono::steady_clock::now();
    catalog
        .BatchedLookup(f.ids[slot], req_keys, &f.pred,
                       std::span<bool>(out.get(), kRequestKeys))
        .Abort();
    if (samples != nullptr) {
      const auto t1 = std::chrono::steady_clock::now();
      samples->push_back(
          std::chrono::duration<double, std::nano>(t1 - t0).count());
    }
    benchmark::DoNotOptimize(out.get());
  }
}

// T concurrent callers stream Zipf-routed requests through BatchedLookup
// against one shared catalog (unlimited budget: the hot set stays hot, so
// steady state measures serving and aggregation, not churn). keys/s is
// aggregate across callers.
void BM_CatalogZipfLookup(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  const CatalogFixture& f = Fixture();
  auto catalog = MakeCatalog(f, CatalogOptions{});
  const size_t requests = f.zipf_slot.size();
  const size_t slice = requests / static_cast<size_t>(threads);
  for (auto _ : state) {
    std::vector<std::thread> callers;
    callers.reserve(static_cast<size_t>(threads));
    for (int t = 0; t < threads; ++t) {
      const size_t begin = slice * static_cast<size_t>(t);
      const size_t end =
          t == threads - 1 ? requests : begin + slice;
      callers.emplace_back(
          [&, begin, end] { RunRequests(f, *catalog, begin, end, nullptr); });
    }
    for (auto& c : callers) c.join();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(requests * kRequestKeys));
  SetCatalogCounters(state, *catalog);
  state.SetLabel("zipf-batched threads=" + std::to_string(threads));
}
BENCHMARK(BM_CatalogZipfLookup)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// The pre-catalog baseline: every filter deserialized up front in copy
// mode (full fleet resident, no tiering, no mmap), one caller issuing the
// SAME Zipf request stream via direct 512-key LookupBatch calls — what
// serving looked like before the catalog existed. Cross-request batching
// on the hot set must not lose to this row.
void BM_CatalogCopySingleCaller(benchmark::State& state) {
  const CatalogFixture& f = Fixture();
  std::vector<std::unique_ptr<ConditionalCuckooFilter>> fleet;
  fleet.reserve(f.num_filters);
  for (size_t i = 0; i < f.num_filters; ++i) {
    std::string blob = ReadFileBytes(f.PathOf(i)).ValueOrDie();
    fleet.push_back(ConditionalCuckooFilter::Deserialize(blob).ValueOrDie());
  }
  const size_t requests = f.zipf_slot.size();
  const size_t queries = f.probe_keys.size();
  std::vector<uint64_t> req_keys(kRequestKeys);
  std::unique_ptr<bool[]> out(new bool[kRequestKeys]);
  for (auto _ : state) {
    for (size_t r = 0; r < requests; ++r) {
      const uint64_t slot = f.zipf_slot[r];
      const uint64_t base = slot << 32;
      const size_t off = (r * kRequestKeys) % queries;
      for (size_t i = 0; i < kRequestKeys; ++i) {
        req_keys[i] = base + f.probe_keys[(off + i) % queries];
      }
      fleet[slot]
          ->LookupBatch(req_keys, std::span<const Predicate>(&f.pred, 1),
                        std::span<bool>(out.get(), kRequestKeys))
          .Abort();
      benchmark::DoNotOptimize(out.get());
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(requests * kRequestKeys));
  state.counters["table_mb"] = benchmark::Counter(
      static_cast<double>(f.filter_bits) / 8.0 / 1e6 *
      static_cast<double>(f.num_filters));
  state.SetLabel("copy-single-caller");
}
BENCHMARK(BM_CatalogCopySingleCaller)->Unit(benchmark::kMillisecond);

// Per-request latency percentiles of the single-caller catalog path (the
// uncontended BatchedLookup resolves inline). keys/s covers the same timed
// region, so the row is comparable with the threads=1 throughput row.
void BM_CatalogZipfLatency(benchmark::State& state) {
  const CatalogFixture& f = Fixture();
  auto catalog = MakeCatalog(f, CatalogOptions{});
  const size_t requests = f.zipf_slot.size();
  std::vector<double> samples;
  samples.reserve(requests * 4);
  for (auto _ : state) {
    RunRequests(f, *catalog, 0, requests, &samples);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(requests * kRequestKeys));
  state.counters["p50_ns"] =
      benchmark::Counter(bench::PercentileNs(samples, 50.0));
  state.counters["p99_ns"] =
      benchmark::Counter(bench::PercentileNs(samples, 99.0));
  state.counters["p999_ns"] =
      benchmark::Counter(bench::PercentileNs(samples, 99.9));
  SetCatalogCounters(state, *catalog);
  state.SetLabel("zipf-latency");
}
BENCHMARK(BM_CatalogZipfLatency)->Unit(benchmark::kMillisecond);

// Budget-constrained serving: the hot tier holds ~1/8 of the fleet, so the
// Zipf tail constantly promotes (a copy-load below kCopyLoadBytes, else
// mmap + alias-load) and the clock constantly evicts — the churn regime.
// Promotion/eviction counts ride into the row; a collapse in keys/s here
// means the epoch machinery is blocking readers.
void BM_CatalogTieredChurn(benchmark::State& state) {
  const CatalogFixture& f = Fixture();
  CatalogOptions options;
  options.hot_budget_bytes =
      std::max<size_t>(1, f.num_filters / 8) * (f.filter_bits / 8);
  auto catalog = MakeCatalog(f, options);
  const size_t requests = f.zipf_slot.size();
  for (auto _ : state) {
    RunRequests(f, *catalog, 0, requests, nullptr);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(requests * kRequestKeys));
  SetCatalogCounters(state, *catalog);
  state.SetLabel("tiered-churn budget=1/8");
}
BENCHMARK(BM_CatalogTieredChurn)->Unit(benchmark::kMillisecond);

// One R-row filter serialized to its own file for BM_CatalogPromote,
// built once per R and removed at exit.
struct PromoteFile {
  std::string path;
  size_t blob_bytes = 0;
  ~PromoteFile() {
    std::error_code ec;
    std::filesystem::remove(path, ec);
  }
};

const PromoteFile& PromoteFileFor(size_t rows) {
  static std::map<size_t, std::unique_ptr<PromoteFile>> files;
  std::unique_ptr<PromoteFile>& file = files[rows];
  if (file == nullptr) {
    file = std::make_unique<PromoteFile>();
    file->path = "perf_catalog_promote_" + std::to_string(rows) + ".ccf";
    std::vector<uint64_t> keys;
    std::vector<uint64_t> flat_attrs;
    for (uint64_t k = 0; k < rows; ++k) {
      keys.push_back(k);
      flat_attrs.push_back(k % 997);
      flat_attrs.push_back(k % 31);
    }
    auto ccf = ConditionalCuckooFilter::Make(CcfVariant::kChained,
                                             CatalogFilterConfig(rows))
                   .ValueOrDie();
    ccf->InsertBatch(keys, flat_attrs).Abort();
    std::string blob = ccf->Serialize();
    file->blob_bytes = blob.size();
    WriteFileBytes(file->path, blob).Abort();
  }
  return *file;
}

constexpr int kPromoteCallers = 2;
constexpr size_t kPromoteIdsPerCaller = 4;
constexpr size_t kPromoteRequestsPerCaller = 64;

// Two callers each cycle through their own 4 entries (all backed by one
// file) under a 1-byte hot budget, so every request finds its entry cold,
// promotes it, probes it with 512 keys, and its budget sweep evicts what
// is hot — the promoting-request path of the fleet, isolated from the
// requests that hit. The callers resolve inline (batcher off).
void BM_CatalogPromote(benchmark::State& state) {
  const size_t rows = static_cast<size_t>(state.range(0));
  const PromoteFile& file = PromoteFileFor(rows);
  CatalogOptions options;
  options.hot_budget_bytes = 1;
  options.enable_batcher = false;
  FilterCatalog catalog(options);
  std::vector<std::string> ids;
  for (size_t i = 0; i < kPromoteCallers * kPromoteIdsPerCaller; ++i) {
    ids.push_back("p" + std::to_string(i));
    catalog.AddFile(ids.back(), file.path).Abort();
  }
  const Predicate pred = Predicate::Equals(0, 123).AndEquals(1, 7);
  std::vector<std::vector<double>> samples(kPromoteCallers);
  for (auto _ : state) {
    std::vector<std::thread> callers;
    for (int c = 0; c < kPromoteCallers; ++c) {
      callers.emplace_back([&, c] {
        // Half the probe keys hit the filter's key range, half miss.
        Rng rng(static_cast<uint64_t>(c) + 1);
        std::vector<uint64_t> keys(kRequestKeys);
        for (uint64_t& k : keys) k = rng.NextBelow(2 * rows);
        std::unique_ptr<bool[]> out(new bool[kRequestKeys]);
        for (size_t r = 0; r < kPromoteRequestsPerCaller; ++r) {
          const std::string& id =
              ids[static_cast<size_t>(c) * kPromoteIdsPerCaller +
                  r % kPromoteIdsPerCaller];
          const auto t0 = std::chrono::steady_clock::now();
          catalog
              .LookupBatch(id, keys, pred,
                           std::span<bool>(out.get(), kRequestKeys))
              .Abort();
          const auto t1 = std::chrono::steady_clock::now();
          benchmark::DoNotOptimize(out.get());
          samples[static_cast<size_t>(c)].push_back(
              std::chrono::duration<double, std::nano>(t1 - t0).count());
        }
      });
    }
    for (auto& c : callers) c.join();
  }
  std::vector<double> all;
  for (const auto& s : samples) all.insert(all.end(), s.begin(), s.end());
  const size_t requests = all.size();
  state.SetItemsProcessed(static_cast<int64_t>(requests * kRequestKeys));
  state.counters["p50_ns"] =
      benchmark::Counter(bench::PercentileNs(all, 50.0));
  state.counters["p99_ns"] =
      benchmark::Counter(bench::PercentileNs(all, 99.0));
  CatalogStats stats = catalog.stats();
  // Both ratios should read 1: every request promotes, every promotion is
  // evicted again.
  state.counters["promotions_per_request"] = benchmark::Counter(
      static_cast<double>(stats.promotions) / static_cast<double>(requests));
  state.counters["evictions_per_request"] = benchmark::Counter(
      static_cast<double>(stats.evictions) / static_cast<double>(requests));
  state.counters["alias_loads"] =
      benchmark::Counter(static_cast<double>(stats.alias_loads));
  state.counters["blob_kb"] =
      benchmark::Counter(static_cast<double>(file.blob_bytes) / 1024.0);
  state.SetLabel("promote+probe+evict callers=2 rows=" +
                 std::to_string(rows));
}
BENCHMARK(BM_CatalogPromote)
    ->Arg(4096)
    ->Arg(32768)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

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
    if (!reporter.WriteFile()) {
      std::fprintf(stderr, "failed to write JSON rows to %s\n",
                   json_path.c_str());
      return 1;
    }
  }
  benchmark::Shutdown();
  return 0;
}
