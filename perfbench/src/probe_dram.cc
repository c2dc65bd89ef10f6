// probe-dram: one precomputed chained CCF of 2^25 buckets (~730 MB, over
// twice a 300 MB L3), probed by one thread with batches of semijoin keys.
// Half the keys are present. Batches alternate between LookupBatch with a
// broadcast predicate and ContainsKeyBatch, so the batched probe pipeline
// (hashing, radix clustering, prefetch, two-wave resolution) meets real
// DRAM latency on both paths.
//
// The table is built at load 0.05 (a twentieth of its slots filled) to bound
// set-up time. Probes address buckets uniformly at any load, so the memory
// traffic per probe is that of a full table. The run builds the table three
// times and probes each build for a third of the run.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <span>
#include <vector>

#include "ccf/ccf.h"
#include "stats.h"
#include "sysinfo.h"
#include "trace.h"
#include "util/random.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr double kLoad = 0.05;
constexpr size_t kBatchKeys = 4096;
constexpr uint64_t kAttr0Values = 4;

ccf::CcfConfig DramConfig(int buckets_log2, uint64_t seed) {
  ccf::CcfConfig c;
  c.num_buckets = uint64_t{1} << buckets_log2;
  c.slots_per_bucket = 6;
  c.key_fp_bits = 12;
  c.attr_fp_bits = 8;
  c.num_attrs = 2;
  c.max_dupes = 3;
  c.salt = seed;
  return c;
}

// Row i: key Mix64(i + offset), attributes (i % 4, (i / 4) % 3). Rows
// [0, n) are inserted; indices at or above n give keys known to be absent.
struct KeySpace {
  uint64_t offset;
  uint64_t rows;
  uint64_t Key(uint64_t i) const { return Mix64(i + offset); }
};

ccf::Result<std::unique_ptr<ccf::ConditionalCuckooFilter>> Build(
    const ccf::CcfConfig& config, const KeySpace& ks) {
  CCF_ASSIGN_OR_RETURN(auto filter, ccf::ConditionalCuckooFilter::Make(
                                        ccf::CcfVariant::kChained, config));
  constexpr uint64_t kChunk = uint64_t{1} << 20;
  std::vector<uint64_t> keys, attrs;
  for (uint64_t lo = 0; lo < ks.rows; lo += kChunk) {
    const uint64_t hi = std::min(ks.rows, lo + kChunk);
    keys.clear();
    attrs.clear();
    for (uint64_t i = lo; i < hi; ++i) {
      keys.push_back(ks.Key(i));
      attrs.push_back(i % kAttr0Values);
      attrs.push_back((i / kAttr0Values) % 3);
    }
    CCF_RETURN_NOT_OK(filter->InsertBatch(keys, attrs));
  }
  return filter;
}

struct Tally {
  std::vector<double> lookup_us, keyonly_us;
  double lookup_ns = 0, keyonly_ns = 0;
  uint64_t lookup_keys = 0, keyonly_keys = 0;
  uint64_t absent = 0, absent_true = 0;
  uint64_t keyonly_absent = 0, keyonly_absent_true = 0;
};

}  // namespace

Report RunProbeDram(const RunConfig& cfg) {
  Report r;
  r.threads_planned = 1;
  const int buckets_log2 = cfg.smoke ? 16 : 25;
  const ccf::CcfConfig config = DramConfig(buckets_log2, cfg.seed);
  KeySpace ks;
  ks.offset = Mix64(cfg.seed);
  ks.rows = static_cast<uint64_t>(kLoad * static_cast<double>(
                                              config.num_buckets * 6));

  // Probe batches: half present rows, half absent ones, drawn fresh per
  // batch so no batch repeats another's cache lines.
  ccf::Rng rng(Mix64(cfg.seed ^ 0xd1a3));
  std::vector<uint64_t> keys(kBatchKeys);
  std::vector<int8_t> cls(kBatchKeys);  // row's attr0, or -1 if absent
  std::unique_ptr<bool[]> out(new bool[kBatchKeys]);
  std::span<bool> out_span(out.get(), kBatchKeys);
  std::vector<ccf::Predicate> preds;
  for (uint64_t v = 0; v < kAttr0Values; ++v) {
    preds.push_back(ccf::Predicate::Equals(0, v));
  }
  SpanLog traced(true), untraced(false);
  uint64_t b = 0;
  // Probes `filter` for `seconds`. In the traced run, pairs of batches
  // alternate between traced (into `on`) and untraced (into `off`).
  auto probe = [&](const ccf::ConditionalCuckooFilter& filter,
                   double seconds, Tally* on, Tally* off) {
    const int64_t deadline = NowNs() + static_cast<int64_t>(seconds * 1e9);
    for (const uint64_t first = b; NowNs() < deadline || b < first + 64;
         ++b) {
      SpanLog& log = cfg.trace && (b / 2) % 2 == 0 ? traced : untraced;
      Tally& t = &log == &traced ? *on : *off;
      Scoped root(log, "bench.batch", b);
      for (size_t i = 0; i < kBatchKeys; ++i) {
        uint64_t row = rng.NextBelow(ks.rows);
        if (i % 2 == 1) row += ks.rows;  // absent
        keys[i] = ks.Key(row);
        cls[i] = row < ks.rows ? static_cast<int8_t>(row % kAttr0Values) : -1;
      }
      const bool with_pred = b % 2 == 0;
      const uint64_t v = (b / 2) % kAttr0Values;
      ++r.attempted;
      const int64_t t0 = NowNs();
      if (with_pred) {
        Scoped s(log, "ccf.lookup_batch", b);
        ccf::Status st = filter.LookupBatch(
            keys, std::span<const ccf::Predicate>(&preds[v], 1), out_span);
        if (!st.ok()) {
          r.Fail("LookupBatch: " + st.message());
          continue;
        }
      } else {
        Scoped s(log, "ccf.contains_key_batch", b);
        filter.ContainsKeyBatch(keys, out_span);
      }
      const double ns = static_cast<double>(NowNs() - t0);
      uint64_t false_neg = 0;
      for (size_t i = 0; i < kBatchKeys; ++i) {
        if (cls[i] < 0) {
          ++t.absent;
          t.absent_true += out[i];
          if (!with_pred) {
            ++t.keyonly_absent;
            t.keyonly_absent_true += out[i];
          }
        } else if (!out[i] &&
                   (!with_pred || static_cast<uint64_t>(cls[i]) == v)) {
          ++false_neg;
        }
      }
      if (false_neg != 0) {
        r.Fail("batch " + std::to_string(b) + ": " +
               std::to_string(false_neg) + " false negatives");
      }
      if (with_pred) {
        t.lookup_us.push_back(ns * 1e-3);
        t.lookup_ns += ns;
        t.lookup_keys += kBatchKeys;
      } else {
        t.keyonly_us.push_back(ns * 1e-3);
        t.keyonly_ns += ns;
        t.keyonly_keys += kBatchKeys;
      }
    }
  };

  // Three rounds, each building a fresh table (set-up) and probing it for
  // a third of the run. Figures are medians over the rounds, so one
  // table's page placement cannot set them.
  constexpr int kRounds = 3;
  std::vector<Tally> on(kRounds), off(kRounds);
  std::vector<double> setup_s;
  uint64_t size_bits = 0, rows = 0;
  double load = 0;
  for (int round = 0; round < kRounds; ++round) {
    const int64_t t0 = NowNs();
    auto built = Build(config, ks);
    setup_s.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
    if (!built.ok()) {
      r.attempted = 1;
      r.Fail("build: " + built.status().message());
      return r;
    }
    auto filter = std::move(built).ValueOrDie();
    if (round == 0) r.e2e["rss_mb"] = ResidentMb();
    size_bits = filter->SizeInBits();
    rows = filter->num_rows();
    load = filter->LoadFactor();
    probe(*filter, cfg.seconds / kRounds, &on[round], &off[round]);
  }
  r.e2e["setup_s"] = Median(setup_s);
  std::printf("probe-dram: 2^%d buckets, %.0f MB, %llu rows (load %.2f)\n",
              buckets_log2, static_cast<double>(size_bits) / 8 / (1 << 20),
              static_cast<unsigned long long>(rows), load);
  r.SeeThreads(ThreadCount());

  // The untraced run's figures come from its untraced batches; the traced
  // run reports per-layer figures from its traced ones.
  const std::vector<Tally>& rounds = cfg.trace ? on : off;
  Tally t;  // all rounds pooled
  std::vector<double> p50, tmean, tail_us, kps;
  double tail_pct = 0;
  for (const Tally& x : rounds) {
    p50.push_back(Median(x.lookup_us));
    tmean.push_back(TrimmedMean(x.lookup_us, kLatencyTrim));
    const Tail tail = TailOf(x.lookup_us);
    tail_us.push_back(tail.value);
    tail_pct = tail.percentile;
    kps.push_back(static_cast<double>(x.lookup_keys + x.keyonly_keys) /
                  std::max((x.lookup_ns + x.keyonly_ns) * 1e-9, 1e-12));
    t.lookup_us.insert(t.lookup_us.end(), x.lookup_us.begin(),
                       x.lookup_us.end());
    t.keyonly_us.insert(t.keyonly_us.end(), x.keyonly_us.begin(),
                        x.keyonly_us.end());
    t.lookup_ns += x.lookup_ns;
    t.keyonly_ns += x.keyonly_ns;
    t.lookup_keys += x.lookup_keys;
    t.keyonly_keys += x.keyonly_keys;
    t.absent += x.absent;
    t.absent_true += x.absent_true;
    t.keyonly_absent += x.keyonly_absent;
    t.keyonly_absent_true += x.keyonly_absent_true;
  }
  const double keys_per_s = Median(kps);
  const double fpr = static_cast<double>(t.absent_true) /
                     std::max<double>(1.0, static_cast<double>(t.absent));
  r.e2e["latency_trimmed_mean_us"] = Median(tmean);
  r.e2e["latency_tail_us"] = Median(tail_us);
  r.e2e["throughput_per_s"] = keys_per_s;
  r.e2e["filter_bits_per_row"] =
      static_cast<double>(size_bits) / static_cast<double>(rows);
  r.named = {
      {"dram_keys_per_s", keys_per_s, "1/s"},
      {"lookup_batch_p50_us", Median(p50), "us"},
      {"lookup_batch_trimmed_mean_us", r.e2e["latency_trimmed_mean_us"],
       "us"},
      {"lookup_batch_p" + std::to_string(static_cast<int>(tail_pct)) + "_us",
       r.e2e["latency_tail_us"], "us"},
      {"lookup_batches_timed", static_cast<double>(t.lookup_us.size()),
       "count"},
      {"absent_key_fp_frac", fpr, "frac"},
      {"table_mb", static_cast<double>(size_bits) / 8 / (1 << 20), "MB"},
      {"load_factor", load, "frac"},
  };
  if (cfg.trace) {
    std::vector<double> all_us = t.lookup_us;
    all_us.insert(all_us.end(), t.keyonly_us.begin(), t.keyonly_us.end());
    r.layer["ccf.lookup_ns_per_key"] =
        t.lookup_ns / std::max<double>(1.0, static_cast<double>(t.lookup_keys));
    r.layer["ccf.keyonly_ns_per_key"] =
        t.keyonly_ns /
        std::max<double>(1.0, static_cast<double>(t.keyonly_keys));
    r.layer["ccf.batch_us_p50"] = Median(all_us);
    r.layer["ccf.batch_us_p99"] = Percentile(all_us, 99);
    r.layer["ccf.observed_fpr"] =
        static_cast<double>(t.keyonly_absent_true) /
        std::max<double>(1.0, static_cast<double>(t.keyonly_absent));
    r.layer["ccf.build_rows_per_s"] =
        static_cast<double>(ks.rows) / std::max(Median(setup_s), 1e-12);
    auto ns_per_key = [](const std::vector<Tally>& ts) {
      double ns = 0, n = 0;
      for (const Tally& x : ts) {
        ns += x.lookup_ns + x.keyonly_ns;
        n += static_cast<double>(x.lookup_keys + x.keyonly_keys);
      }
      return ns / std::max(n, 1.0);
    };
    r.layer["trace.overhead_frac"] =
        ns_per_key(on) / std::max(ns_per_key(off), 1e-12) - 1.0;
    ReportSpans(cfg, {&traced}, &r);
  }
  return r;
}

}  // namespace perfbench
