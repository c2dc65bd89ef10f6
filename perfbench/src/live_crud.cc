// live-crud: one L3-resident ShardedCcf (2^18 buckets, ~6 MB) read and
// written at once. One closed-loop writer (the main thread) runs
// fixed-count rounds: erase the rows born two rounds back, update the rows
// born last round, insert a new round of rows, then CommitWrites. Two
// closed-loop readers run LookupBatch throughout. Watermark resize and
// compaction are on; the live row count holds steady, so compaction runs at
// a fixed round cadence.
//
// Thread budget: writer + readers + at most one maintenance thread. The
// filter has one shard, so a commit never stripes and at most one
// watermark resize can run at a time.
//
// Correctness, as in the live CRUD stress test: core rows (never touched
// after set-up) must answer true on every probe; a churn row counts as a
// false negative only if, re-checked after the probe, the round that erases
// it had not begun staging.
//
// Not in BENCHMARK.json: readers see transient false negatives on rows
// whose BufferUpdate is being published (STEADINESS.md gives the cause in
// ShardedCcf::ResolveKeyWithOps), so every run reports correct: false. It
// runs on its own to reproduce that, and joins the benchmark once fixed.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "ccf/sharded_ccf.h"
#include "stats.h"
#include "sysinfo.h"
#include "trace.h"
#include "util/random.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr uint64_t kChurnBase = uint64_t{1} << 40;
constexpr uint64_t kAbsentBase = uint64_t{1} << 50;
constexpr size_t kReadBatch = 1024;
constexpr size_t kReadAbsent = 256;  // of each read batch
constexpr size_t kReadPool = 32;     // distinct read batches, cycled
constexpr double kCoreLoad = 0.4;

ccf::CcfConfig CrudConfig(int buckets_log2, uint64_t seed) {
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

struct Keys {
  uint64_t offset = 0;
  uint64_t churn = 0;  // rows per round
  uint64_t Core(uint64_t i) const { return Mix64(i + offset); }
  uint64_t Churn(uint64_t round, uint64_t i) const {
    return Mix64(kChurnBase + round * churn + i + offset);
  }
  uint64_t Absent(uint64_t i) const { return Mix64(kAbsentBase + i + offset); }
  static std::vector<uint64_t> CoreAttrs(uint64_t i) {
    return {i % 200, (i / 200) % 50};
  }
  static std::vector<uint64_t> ChurnAttrs(uint64_t key, uint64_t version) {
    return {(key + version * 17) % 200, (key + version * 17) % 50};
  }
};

struct ReadBatch {
  std::vector<uint64_t> keys;
  std::vector<ccf::Predicate> preds;
  size_t core = 0;  // keys[0, core) are core rows; the rest are absent
};

struct ReaderResult {
  std::vector<double> at_s, read_us;  // every read: start time, latency
  std::vector<double> idle_us, during_us;
  std::vector<double> traced_us, plain_us;  // traced run: overhead halves
  uint64_t batches = 0, errors = 0;
  uint64_t false_negatives = 0, failed_batches = 0;
  uint64_t absent = 0, absent_true = 0;
  std::string first_error;
};

}  // namespace

Report RunLiveCrud(const RunConfig& cfg) {
  Report r;
  const int readers = std::clamp(cfg.nproc - 2, 1, 2);
  r.threads_planned = 1 + readers + 1;  // writer, readers, maintenance
  const int buckets_log2 = cfg.smoke ? 12 : 18;
  const ccf::CcfConfig config = CrudConfig(buckets_log2, cfg.seed);
  ccf::ShardedCcfOptions options;
  options.num_shards = 1;
  options.build_threads = 1;
  options.resize_watermark = 0.85;
  options.compact_watermark = 0.5;
  Keys keys;
  keys.offset = Mix64(cfg.seed);
  keys.churn = cfg.smoke ? 64 : 2048;
  const uint64_t core_rows = static_cast<uint64_t>(
      kCoreLoad * static_cast<double>(config.num_buckets * 6));

  std::unique_ptr<ccf::ShardedCcf> filter;
  std::vector<double> setup_s;
  for (int i = 0; i < 3; ++i) {
    filter.reset();
    const int64_t t0 = NowNs();
    auto made = ccf::ShardedCcf::Make(ccf::CcfVariant::kChained, config,
                                      options);
    ccf::Status st = made.status();
    if (made.ok()) {
      filter = std::move(made).ValueOrDie();
      std::vector<uint64_t> k, a;
      for (uint64_t row = 0; row < core_rows; ++row) {
        k.push_back(keys.Core(row));
        for (uint64_t v : Keys::CoreAttrs(row)) a.push_back(v);
      }
      st = filter->InsertBatch(k, a);
    }
    setup_s.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
    if (!st.ok()) {
      r.attempted = 1;
      r.Fail("set-up: " + st.message());
      return r;
    }
  }
  r.e2e["setup_s"] = Median(setup_s);
  r.e2e["rss_mb"] = ResidentMb();
  std::printf(
      "live-crud: 2^%d buckets (%.1f MB), %llu core rows, %llu churn rows "
      "per round, %d readers\n",
      buckets_log2, static_cast<double>(filter->SizeInBits()) / 8 / (1 << 20),
      static_cast<unsigned long long>(core_rows),
      static_cast<unsigned long long>(keys.churn), readers);

  // Read batches: core rows with their exact attributes, then absent keys
  // under a core row's predicate.
  std::vector<ReadBatch> pool(kReadPool);
  ccf::Rng rng(Mix64(cfg.seed ^ 0xc7d));
  for (size_t b = 0; b < kReadPool; ++b) {
    ReadBatch& batch = pool[b];
    batch.core = kReadBatch - kReadAbsent;
    for (size_t i = 0; i < kReadBatch; ++i) {
      const uint64_t row = rng.NextBelow(core_rows);
      const std::vector<uint64_t> a = Keys::CoreAttrs(row);
      batch.keys.push_back(i < batch.core
                               ? keys.Core(row)
                               : keys.Absent(b * kReadBatch + i));
      batch.preds.push_back(ccf::Predicate::Equals(0, a[0]).AndEquals(1, a[1]));
    }
  }

  std::atomic<bool> stop{false};
  std::atomic<int64_t> staging_round{-1};    // set before round r stages
  std::atomic<int64_t> committed_round{-1};  // set after round r commits
  std::atomic<uint64_t> commit_seq{0};       // odd while a commit runs
  std::vector<ReaderResult> results(static_cast<size_t>(readers));
  std::vector<SpanLog> reader_logs;
  for (int t = 0; t < readers; ++t) reader_logs.emplace_back(cfg.trace);
  SpanLog off(false);
  const int64_t run_start = NowNs();
  auto reader = [&](int t) {
    ReaderResult& res = results[static_cast<size_t>(t)];
    std::unique_ptr<bool[]> out(new bool[kReadBatch]);
    std::vector<uint64_t> churn_keys;
    std::unique_ptr<bool[]> churn_out(new bool[keys.churn]);
    for (uint64_t n = 0; !stop.load(std::memory_order_acquire); ++n) {
      const ReadBatch& batch = pool[(n + static_cast<uint64_t>(t) * 7) %
                                    kReadPool];
      // Traced runs alternate traced and untraced batch pairs.
      SpanLog& log = cfg.trace && (n / 2) % 2 == 0
                         ? reader_logs[static_cast<size_t>(t)]
                         : off;
      const uint64_t seq0 = commit_seq.load(std::memory_order_acquire);
      const int64_t t0 = NowNs();
      ccf::Status st;
      {
        Scoped s(log, "ccf.sharded.lookup_batch", n);
        st = filter->LookupBatch(batch.keys, batch.preds,
                                 std::span<bool>(out.get(), kReadBatch));
      }
      const double us = static_cast<double>(NowNs() - t0) * 1e-3;
      const uint64_t seq1 = commit_seq.load(std::memory_order_acquire);
      ++res.batches;
      if (!st.ok()) {
        ++res.errors;
        if (res.first_error.empty()) res.first_error = st.message();
        continue;
      }
      res.at_s.push_back(static_cast<double>(t0 - run_start) * 1e-9);
      res.read_us.push_back(us);
      ((seq0 % 2 == 1 || seq0 != seq1) ? res.during_us : res.idle_us)
          .push_back(us);
      (&log == &off ? res.plain_us : res.traced_us).push_back(us);
      Scoped check(log, "bench.check", n);
      const uint64_t fn_before = res.false_negatives;
      for (size_t i = 0; i < kReadBatch; ++i) {
        if (i < batch.core) {
          res.false_negatives += !out[i];
        } else {
          ++res.absent;
          res.absent_true += out[i];
        }
      }
      // The freshest committed round, key-only: a miss is a false negative
      // only if its erasing round (k + 2) had provably not begun staging.
      const int64_t k = committed_round.load(std::memory_order_acquire);
      churn_keys.clear();
      for (uint64_t i = 0; k >= 0 && i < keys.churn; ++i) {
        churn_keys.push_back(keys.Churn(static_cast<uint64_t>(k), i));
      }
      filter->ContainsKeyBatch(
          churn_keys, std::span<bool>(churn_out.get(), churn_keys.size()));
      const bool still_live =
          staging_round.load(std::memory_order_acquire) < k + 2;
      for (size_t i = 0; i < churn_keys.size(); ++i) {
        res.false_negatives += !churn_out[i] && still_live;
      }
      res.failed_batches += res.false_negatives != fn_before;
    }
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < readers; ++t) threads.emplace_back(reader, t);

  // The writer.
  SpanLog writer_log(cfg.trace);
  std::vector<double> stage_us, commit_ms, pending;
  std::vector<double> round_end_s, round_rows, round_s;
  const uint64_t compactions0 = filter->num_compactions();
  const uint64_t resizes0 = filter->num_watermark_resizes();
  const int64_t deadline = NowNs() + static_cast<int64_t>(cfg.seconds * 1e9);
  int64_t round = 0;
  for (; NowNs() < deadline || round < 4; ++round) {
    staging_round.store(round, std::memory_order_release);
    const int64_t t0 = NowNs();
    ccf::Status st;
    {
      Scoped s(writer_log, "ccf.sharded.stage", static_cast<uint64_t>(round));
      if (round >= 2) {
        for (uint64_t i = 0; st.ok() && i < keys.churn; ++i) {
          const uint64_t c = keys.Churn(static_cast<uint64_t>(round - 2), i);
          st = filter->BufferErase(c, Keys::ChurnAttrs(c, 1));
        }
      }
      if (round >= 1) {
        for (uint64_t i = 0; st.ok() && i < keys.churn; ++i) {
          const uint64_t c = keys.Churn(static_cast<uint64_t>(round - 1), i);
          st = filter->BufferUpdate(c, Keys::ChurnAttrs(c, 0),
                                    Keys::ChurnAttrs(c, 1));
        }
      }
      std::vector<uint64_t> k, a;
      for (uint64_t i = 0; i < keys.churn; ++i) {
        const uint64_t c = keys.Churn(static_cast<uint64_t>(round), i);
        k.push_back(c);
        for (uint64_t v : Keys::ChurnAttrs(c, 0)) a.push_back(v);
      }
      if (st.ok()) st = filter->BufferWriteBatch(k, a);
    }
    const int64_t t1 = NowNs();
    ++r.attempted;
    if (!st.ok()) {
      r.Fail("stage round " + std::to_string(round) + ": " + st.message());
      break;
    }
    pending.push_back(static_cast<double>(filter->pending_writes()));
    commit_seq.fetch_add(1, std::memory_order_acq_rel);
    {
      Scoped s(writer_log, "ccf.sharded.commit", static_cast<uint64_t>(round));
      st = filter->CommitWrites(1);
    }
    commit_seq.fetch_add(1, std::memory_order_acq_rel);
    const int64_t t2 = NowNs();
    if (!st.ok()) {
      r.Fail("commit round " + std::to_string(round) + ": " + st.message());
      break;
    }
    committed_round.store(round, std::memory_order_release);
    stage_us.push_back(static_cast<double>(t1 - t0) * 1e-3);
    commit_ms.push_back(static_cast<double>(t2 - t1) * 1e-6);
    // Erases and updates exist from rounds 2 and 1 on.
    const uint64_t rows = keys.churn * (1 + (round >= 1) + (round >= 2));
    round_end_s.push_back(static_cast<double>(t2 - run_start) * 1e-9);
    round_rows.push_back(static_cast<double>(rows));
    round_s.push_back(static_cast<double>(t2 - t0) * 1e-9);
    if (round % 64 == 0) r.SeeThreads(ThreadCount());
  }
  stop.store(true, std::memory_order_release);
  r.SeeThreads(ThreadCount());
  for (auto& t : threads) t.join();
  filter->DrainMaintenance();

  ReaderResult all;
  uint64_t false_negatives = 0;
  for (ReaderResult& res : results) {
    false_negatives += res.false_negatives;
    all.at_s.insert(all.at_s.end(), res.at_s.begin(), res.at_s.end());
    all.read_us.insert(all.read_us.end(), res.read_us.begin(),
                       res.read_us.end());
    all.idle_us.insert(all.idle_us.end(), res.idle_us.begin(),
                       res.idle_us.end());
    all.during_us.insert(all.during_us.end(), res.during_us.begin(),
                         res.during_us.end());
    all.traced_us.insert(all.traced_us.end(), res.traced_us.begin(),
                         res.traced_us.end());
    all.plain_us.insert(all.plain_us.end(), res.plain_us.begin(),
                        res.plain_us.end());
    r.attempted += res.batches;
    for (uint64_t i = 0; i < res.errors; ++i) {
      r.Fail("LookupBatch: " + res.first_error);
    }
    for (uint64_t i = 0; i < res.failed_batches; ++i) {
      r.Fail("read batch with false negatives");
    }
    all.absent += res.absent;
    all.absent_true += res.absent_true;
  }
  // Quiesced: the last two rounds are live at versions 0 and 1.
  const int64_t last = round - 1;
  for (int64_t k = std::max<int64_t>(0, last - 1); k <= last; ++k) {
    const uint64_t version = k == last ? 0 : 1;
    for (uint64_t i = 0; i < keys.churn; ++i) {
      const uint64_t c = keys.Churn(static_cast<uint64_t>(k), i);
      ++r.attempted;
      if (!filter->ContainsRow(c, Keys::ChurnAttrs(c, version))) {
        r.Fail("live churn row missing after the run");
      }
    }
  }

  // Medians over two-second windows (each holds over a thousand reads, so
  // the tail rule gives p99), so a host stall, which lands in one window,
  // cannot set the figures.
  const double span_s = static_cast<double>(NowNs() - run_start) * 1e-9;
  const double window_s = std::min(2.0, span_s);
  std::vector<double> p50s, tails, rates;
  double tail_pct = 0;
  for (const auto& w : SplitByTime(all.at_s, all.read_us, span_s, window_s)) {
    p50s.push_back(Median(w));
    const Tail t = TailOf(w);
    tails.push_back(t.value);
    tail_pct = t.percentile;
  }
  const auto rows_w = SplitByTime(round_end_s, round_rows, span_s, window_s);
  const auto secs_w = SplitByTime(round_end_s, round_s, span_s, window_s);
  for (size_t w = 0; w < rows_w.size(); ++w) {
    double rows = 0, secs = 0;
    for (double x : rows_w[w]) rows += x;
    for (double x : secs_w[w]) secs += x;
    if (secs > 0) rates.push_back(rows / secs);
  }
  const double rows_per_s = Median(rates);
  const double live_rows = static_cast<double>(filter->num_rows());
  r.e2e["latency_trimmed_mean_us"] = TrimmedMean(all.read_us, kLatencyTrim);
  r.e2e["latency_tail_us"] = Median(tails);
  r.e2e["throughput_per_s"] = rows_per_s;
  r.e2e["filter_bits_per_row"] =
      static_cast<double>(filter->SizeInBits()) / std::max(live_rows, 1.0);
  r.named = {
      {"crud_read_p50_us", Median(p50s), "us"},
      {"crud_read_trimmed_mean_us", r.e2e["latency_trimmed_mean_us"], "us"},
      {"crud_read_p" + std::to_string(static_cast<int>(tail_pct)) + "_us",
       r.e2e["latency_tail_us"], "us"},
      {"crud_read_batches_timed", static_cast<double>(all.read_us.size()),
       "count"},
      {"crud_write_rows_per_s", rows_per_s, "1/s"},
      {"crud_rounds", static_cast<double>(round), "count"},
      {"crud_false_negatives", static_cast<double>(false_negatives),
       "count"},
      {"absent_key_fp_frac",
       static_cast<double>(all.absent_true) /
           std::max<double>(1.0, static_cast<double>(all.absent)),
       "frac"},
  };
  if (cfg.trace) {
    r.layer["ccf.sharded.stage_us_p50"] = Median(stage_us);
    r.layer["ccf.sharded.commit_ms_p50"] = Median(commit_ms);
    r.layer["ccf.sharded.commit_ms_p99"] = Percentile(commit_ms, 99);
    r.layer["ccf.sharded.pending_at_commit"] = Median(pending);
    r.layer["ccf.sharded.read_us_during_commit_p99"] =
        Percentile(all.during_us, 99);
    r.layer["ccf.sharded.read_us_idle_p99"] = Percentile(all.idle_us, 99);
    r.layer["ccf.sharded.compactions"] =
        static_cast<double>(filter->num_compactions() - compactions0);
    r.layer["ccf.sharded.watermark_resizes"] =
        static_cast<double>(filter->num_watermark_resizes() - resizes0);
    r.layer["ccf.sharded.dead_log_frac"] =
        static_cast<double>(filter->dead_log_rows()) /
        std::max<double>(1.0,
                         static_cast<double>(filter->retained_log_rows()));
    r.layer["ccf.sharded.bits_per_live_row"] = r.e2e["filter_bits_per_row"];
    std::vector<const SpanLog*> views{&writer_log};
    for (const SpanLog& l : reader_logs) views.push_back(&l);
    r.layer["trace.overhead_frac"] =
        Median(all.traced_us) / std::max(Median(all.plain_us), 1e-9) - 1.0;
    ReportSpans(cfg, views, &r);
  }
  return r;
}

}  // namespace perfbench
