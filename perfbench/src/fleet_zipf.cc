// fleet-zipf: a FilterCatalog of file-backed filters (the perf_catalog
// fleet shape: 1024 chained filters of 4096 rows) under Zipf s=1.1 filter
// popularity, served as 512-key BatchedLookup requests. The hot budget is a
// quarter of the fleet, below the working set, so promotion (mmap + alias
// load), eviction and re-promotion run in steady state.
//
// Load is open-loop: each caller thread sends on a fixed schedule whatever
// the replies do, and every request is timed from its due time, so a stall
// charges the wait it imposes on later requests. One phase runs a fixed
// offered rate (the latency metrics); a ladder of rising rates then finds
// the highest rate whose p99 stays within kLimitUs without a growing
// backlog. The main thread is caller 0; with the catalog's batcher thread
// that makes callers + 1 threads, never more than nproc. No request writes:
// writes to file-backed entries are not durable across eviction.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "ccf/ccf.h"
#include "data/zipf.h"
#include "serve/filter_catalog.h"
#include "stats.h"
#include "sysinfo.h"
#include "trace.h"
#include "util/random.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr size_t kRequestKeys = 512;
constexpr double kZipfS = 1.1;
constexpr double kLimitUs = 1000;  // p99 latency limit for the ladder
constexpr uint64_t kAttr0Values = 4;
constexpr int kFixedWindows = 10;  // latency windows of the fixed phase
constexpr int kRungWindows = 3;    // latency windows of a ladder rung

struct Fleet {
  size_t filters = 0;
  uint64_t rows = 0;  // per filter
  uint64_t offset = 0;
  std::string dir;
  uint64_t fleet_bytes = 0;
  uint64_t filter_bits = 0;

  // Row k of filter f; offsets k >= rows are keys known to be absent.
  uint64_t Key(size_t f, uint64_t k) const {
    return Mix64(((static_cast<uint64_t>(f) << 32) | k) + offset);
  }
  std::vector<std::string> ids;  // catalog id of each filter

  std::string Path(size_t f) const {
    return dir + "/filter_" + ids[f] + ".ccf";
  }
};

ccf::CcfConfig FleetConfig(uint64_t rows, uint64_t salt) {
  ccf::CcfConfig c;
  uint64_t buckets = 64;
  while (buckets * 6 * 7 / 10 < rows) buckets *= 2;  // ~70% load
  c.num_buckets = buckets;
  c.slots_per_bucket = 6;
  c.key_fp_bits = 12;
  c.attr_fp_bits = 8;
  c.num_attrs = 2;
  c.max_dupes = 3;
  c.salt = salt;
  return c;
}

// Builds every filter and writes it to its file.
ccf::Status WriteFleet(Fleet* fleet, uint64_t salt) {
  const ccf::CcfConfig config = FleetConfig(fleet->rows, salt);
  std::vector<uint64_t> keys, attrs;
  fleet->fleet_bytes = 0;
  for (size_t f = 0; f < fleet->filters; ++f) {
    keys.clear();
    attrs.clear();
    for (uint64_t k = 0; k < fleet->rows; ++k) {
      keys.push_back(fleet->Key(f, k));
      attrs.push_back(k % kAttr0Values);
      attrs.push_back(k % 3);
    }
    CCF_ASSIGN_OR_RETURN(auto filter, ccf::ConditionalCuckooFilter::Make(
                                          ccf::CcfVariant::kChained, config));
    CCF_RETURN_NOT_OK(filter->InsertBatch(keys, attrs));
    fleet->filter_bits = filter->SizeInBits();
    fleet->fleet_bytes += filter->SizeInBits() / 8;
    const std::string blob = filter->Serialize();
    std::ofstream out(fleet->Path(f), std::ios::binary | std::ios::trunc);
    out.write(blob.data(), static_cast<std::streamsize>(blob.size()));
    if (!out) return ccf::Status::Internal("write failed: " + fleet->Path(f));
  }
  // Finish write-back now: pages still under write-back stall the first
  // mmap faults of a promotion, which would land in the measured phase.
  ::sync();
  return ccf::Status::OK();
}

/// One request's timing, in microseconds from its due time.
struct Sample {
  double due_s;       // due time, seconds into the phase
  double latency_us;  // done - due
  double wait_us;     // send - due
  double service_us;  // done - send
  bool idle_at_due;   // the caller was free when the request fell due
  bool promoted;      // a promotion completed while it was in flight
};

struct CallerResult {
  std::vector<Sample> samples;
  uint64_t attempted = 0;
  uint64_t false_negatives = 0;
  uint64_t errors = 0;
  uint64_t absent = 0, absent_true = 0;
  std::string first_error;
};

struct Phase {
  double rate = 0;     // offered requests/s over all callers
  double seconds = 0;  // schedule length
  bool traced = false;
  int windows = kFixedWindows;
  int64_t start_ns = 0;  // the callers' shared schedule origin
};

// One caller's share of a phase: requests every callers/rate seconds,
// shifted by the caller's index so the callers interleave.
void RunCaller(ccf::FilterCatalog& catalog, const Fleet& fleet,
               const ccf::ZipfMandelbrot& zipf, const Phase& phase,
               int caller, int callers, uint64_t seed, SpanLog& log,
               CallerResult* res) {
  ccf::Rng rng(Mix64(seed * 131 + static_cast<uint64_t>(caller) +
                     static_cast<uint64_t>(phase.rate)));
  std::vector<ccf::Predicate> preds;
  for (uint64_t v = 0; v < kAttr0Values; ++v) {
    preds.push_back(ccf::Predicate::Equals(0, v));
  }
  std::vector<uint64_t> keys(kRequestKeys), offsets(kRequestKeys);
  std::unique_ptr<bool[]> out(new bool[kRequestKeys]);
  const double period_ns = 1e9 * callers / phase.rate;
  const int64_t start = phase.start_ns;
  const size_t count = static_cast<size_t>(phase.seconds * phase.rate /
                                           callers);
  int64_t prev_done = 0;
  for (size_t j = 0; j < count; ++j) {
    const int64_t due =
        start + static_cast<int64_t>(period_ns * (static_cast<double>(j) +
                                                  static_cast<double>(caller) /
                                                      callers));
    // Draw the request before waiting: generation is not service time.
    const size_t f = zipf.Sample(rng) - 1;
    const bool key_only = j % 2 == 0;
    const uint64_t v = (j / 2) % kAttr0Values;
    for (size_t i = 0; i < kRequestKeys; ++i) {
      offsets[i] = rng.NextBelow(2 * fleet.rows);
      keys[i] = fleet.Key(f, offsets[i]);
    }
    // Spin to the due time: a sleeping caller's wake-up jitter on a
    // virtual machine would show up as generator lateness.
    while (NowNs() < due) {
    }
    const uint64_t promotions_before = catalog.stats().promotions;
    const int64_t send = NowNs();
    ccf::Status st;
    {
      Scoped s(log, "serve.batched_lookup", j);
      st = catalog.BatchedLookup(fleet.ids[f], keys,
                                 key_only ? nullptr : &preds[v],
                                 std::span<bool>(out.get(), kRequestKeys));
    }
    const int64_t done = NowNs();
    const bool promoted = catalog.stats().promotions != promotions_before;
    ++res->attempted;
    if (!st.ok()) {
      ++res->errors;
      if (res->first_error.empty()) res->first_error = st.message();
    } else {
      Scoped s(log, "bench.check", j);
      for (size_t i = 0; i < kRequestKeys; ++i) {
        const uint64_t k = offsets[i];
        if (k >= fleet.rows) {
          ++res->absent;
          res->absent_true += out[i];
        } else if (!out[i] && (key_only || k % kAttr0Values == v)) {
          ++res->false_negatives;
        }
      }
    }
    res->samples.push_back(Sample{
        static_cast<double>(due - start) * 1e-9,
        static_cast<double>(done - due) * 1e-3,
        static_cast<double>(send - due) * 1e-3,
        static_cast<double>(done - send) * 1e-3, prev_done <= due, promoted});
    prev_done = done;
  }
}

struct PhaseResult {
  std::vector<Sample> samples;  // all callers, schedule order per caller
  bool backlog_grew = false;
  /// p90 and p99 latency of each equal slice of the schedule.
  std::vector<double> window_p90_us;
  std::vector<double> window_p99_us;
};

// Percentile p of latency per equal window of a phase's due times. A host
// stall lands in one window, so the median over windows stays steady where
// one percentile over the whole phase would not.
std::vector<double> WindowPercentile(const std::vector<Sample>& samples,
                                     double seconds, int windows, double p) {
  std::vector<double> due, lat;
  for (const Sample& s : samples) {
    due.push_back(s.due_s);
    lat.push_back(s.latency_us);
  }
  std::vector<double> out;
  for (const auto& w : SplitByTime(due, lat, seconds, seconds / windows)) {
    out.push_back(Percentile(w, p));
  }
  return out;
}

}  // namespace

Report RunFleetZipf(const RunConfig& cfg) {
  Report r;
  const int callers = std::clamp(cfg.nproc - 2, 1, 2);
  r.threads_planned = callers + 1;  // + the catalog's batcher thread

  Fleet fleet;
  fleet.filters = cfg.smoke ? 64 : 1024;
  fleet.rows = cfg.smoke ? 512 : 4096;
  fleet.offset = Mix64(cfg.seed);
  fleet.dir = cfg.scratch_dir + "/fleet";
  for (size_t f = 0; f < fleet.filters; ++f) {
    fleet.ids.push_back(std::to_string(f));
  }
  std::error_code ec;
  std::filesystem::create_directories(fleet.dir, ec);
  if (ec) {
    r.attempted = 1;
    r.Fail("cannot create " + fleet.dir + ": " + ec.message());
    return r;
  }

  // Set-up: write the fleet and register it, three times.
  std::unique_ptr<ccf::FilterCatalog> catalog;
  std::vector<double> setup_s;
  for (int i = 0; i < 3; ++i) {
    catalog.reset();
    const int64_t t0 = NowNs();
    ccf::Status st = WriteFleet(&fleet, cfg.seed);
    ccf::CatalogOptions options;
    options.hot_budget_bytes = fleet.fleet_bytes / 4;
    catalog = std::make_unique<ccf::FilterCatalog>(options);
    for (size_t f = 0; st.ok() && f < fleet.filters; ++f) {
      st = catalog->AddFile(fleet.ids[f], fleet.Path(f));
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
  auto zipf = ccf::ZipfMandelbrot::Make(kZipfS, 0.0, fleet.filters)
                  .ValueOrDie();
  std::printf(
      "fleet-zipf: %zu file-backed filters x %llu rows (%.1f MB), hot "
      "budget %.1f MB, %d callers + batcher\n",
      fleet.filters, static_cast<unsigned long long>(fleet.rows),
      static_cast<double>(fleet.fleet_bytes) / 1e6,
      static_cast<double>(fleet.fleet_bytes / 4) / 1e6, callers);

  std::vector<SpanLog> logs;
  for (int c = 0; c < callers; ++c) logs.emplace_back(cfg.trace);
  SpanLog off(false);
  uint64_t fp_absent = 0, fp_true = 0;
  auto run_phase = [&](Phase phase) {
    phase.start_ns = NowNs() + 2'000'000;  // after the callers have started
    std::vector<CallerResult> res(static_cast<size_t>(callers));
    std::vector<std::thread> threads;
    for (int c = 1; c < callers; ++c) {
      threads.emplace_back([&, c] {
        RunCaller(*catalog, fleet, zipf, phase, c, callers, cfg.seed,
                  phase.traced ? logs[static_cast<size_t>(c)] : off,
                  &res[static_cast<size_t>(c)]);
      });
    }
    RunCaller(*catalog, fleet, zipf, phase, 0, callers, cfg.seed,
              phase.traced ? logs[0] : off, &res[0]);
    r.SeeThreads(ThreadCount());
    for (auto& t : threads) t.join();
    PhaseResult out;
    for (CallerResult& cr : res) {
      r.attempted += cr.attempted;
      for (uint64_t i = 0; i < cr.errors; ++i) {
        r.Fail("BatchedLookup: " + cr.first_error);
      }
      for (uint64_t i = 0; i < cr.false_negatives; ++i) {
        r.Fail("false negative");
      }
      fp_absent += cr.absent;
      fp_true += cr.absent_true;
      // Backlog: the last quarter of a caller's requests started later
      // behind schedule than half the latency limit.
      const size_t n = cr.samples.size();
      std::vector<double> tail_wait;
      for (size_t i = n - n / 4; i < n; ++i) {
        tail_wait.push_back(cr.samples[i].wait_us);
      }
      if (n >= 8 && Median(tail_wait) > kLimitUs / 2) out.backlog_grew = true;
      out.samples.insert(out.samples.end(), cr.samples.begin(),
                         cr.samples.end());
    }
    const int windows = std::max(phase.windows, 1);
    out.window_p90_us =
        WindowPercentile(out.samples, phase.seconds, windows, 90);
    out.window_p99_us =
        WindowPercentile(out.samples, phase.seconds, windows, 99);
    return out;
  };

  const double fixed_rate = cfg.smoke ? 500 : 2000;
  const double total = cfg.seconds;
  // Warm-up fills the hot tier; it is not measured.
  run_phase(Phase{fixed_rate, std::min(1.0, 0.1 * total), false});
  const ccf::CatalogStats before = catalog->stats();

  // Fixed offered rate: the latency metrics (traced run: alternating
  // traced / untraced halves give the tracing overhead).
  const double fixed_s = 0.5 * total;
  PhaseResult fixed = run_phase(Phase{fixed_rate, fixed_s, cfg.trace});
  PhaseResult fixed_off;
  if (cfg.trace) fixed_off = run_phase(Phase{fixed_rate, fixed_s / 2, false});
  const ccf::CatalogStats after = catalog->stats();

  // Rate ladder: rise by 1.25x from the fixed rate until a rung fails,
  // then bisect between the last passing and the first failing rate. A
  // rung passes when its backlog did not grow and the median of its
  // windows' p99 is within kLimitUs.
  const double rung_s = cfg.smoke ? 0.2 : 0.8;
  auto passes = [&](double rate) {
    PhaseResult pr = run_phase(Phase{rate, rung_s, false, kRungWindows});
    return !pr.backlog_grew && Median(pr.window_p99_us) <= kLimitUs;
  };
  const int64_t ladder_end =
      NowNs() + static_cast<int64_t>(0.4 * total * 1e9);
  double lo = 0, hi = 0;
  for (double rate = fixed_rate; NowNs() < ladder_end; rate *= 1.25) {
    if (!passes(rate)) {
      hi = rate;
      break;
    }
    lo = rate;
  }
  for (int step = 0; hi > 0 && lo > 0 && step < 4; ++step) {
    const double mid = std::sqrt(lo * hi);
    (passes(mid) ? lo : hi) = mid;
  }
  const double max_rps = lo;
  std::filesystem::remove_all(fleet.dir, ec);

  std::vector<double> lat, service, wait, late, promote;
  for (const Sample& s : fixed.samples) {
    lat.push_back(s.latency_us);
    service.push_back(s.service_us);
    wait.push_back(s.wait_us);
    if (s.idle_at_due) late.push_back(s.wait_us);
    if (s.promoted) promote.push_back(s.service_us);
  }
  // The fixed phase has at least 1000 requests per window, so the tail
  // rule would give p99 there. The gated tail is p90 instead: host stalls
  // of a few ms that cover 1% of a window (steal on a shared host) set a
  // window's p99 but not its p90, while promotions, which about 30% of
  // requests make, set the p90. p99 is printed by name.
  const double p90 = Median(fixed.window_p90_us);
  const double p99 = Median(fixed.window_p99_us);
  r.e2e["latency_trimmed_mean_us"] = TrimmedMean(lat, kLatencyTrim);
  r.e2e["latency_tail_us"] = p90;
  // The ladder's max rate does not hold steady on a host with CPU steal
  // (see perfbench/STEADINESS.md), so the gated throughput is the serving
  // rate per busy caller at the fixed rate: keys resolved per second of
  // BatchedLookup time, the median over the phase's windows.
  std::vector<double> due;
  for (const Sample& s : fixed.samples) due.push_back(s.due_s);
  std::vector<double> window_kps;
  for (const auto& w :
       SplitByTime(due, service, fixed_s, fixed_s / kFixedWindows)) {
    double us = 0;
    for (double x : w) us += x;
    window_kps.push_back(static_cast<double>(w.size() * kRequestKeys) /
                         std::max(us * 1e-6, 1e-9));
  }
  const double keys_per_service_s = Median(window_kps);
  r.e2e["throughput_per_s"] = keys_per_service_s;
  r.e2e["filter_bits_per_row"] = static_cast<double>(fleet.filter_bits) /
                                 static_cast<double>(fleet.rows);
  const double requests = static_cast<double>(fixed.samples.size());
  r.named = {
      {"fleet_offered_rps", fixed_rate, "1/s"},
      {"fleet_p50_us", Median(lat), "us"},
      {"fleet_trimmed_mean_us", r.e2e["latency_trimmed_mean_us"], "us"},
      {"fleet_p90_us (median of " + std::to_string(kFixedWindows) +
           " windows)",
       p90, "us"},
      {"fleet_p99_us (median of " + std::to_string(kFixedWindows) +
           " windows)",
       p99, "us"},
      {"fleet_requests_timed", requests, "count"},
      {"fleet_max_rps", max_rps, "1/s"},
      {"fleet_keys_per_service_s", keys_per_service_s, "1/s"},
      {"fleet_first_failing_rps", hi, "1/s"},
      {"gen_late_us_p99", Percentile(late, 99), "us"},
      {"absent_key_fp_frac",
       static_cast<double>(fp_true) /
           std::max<double>(1.0, static_cast<double>(fp_absent)),
       "frac"},
  };
  if (cfg.trace) {
    r.layer["serve.service_us_p50"] = Median(service);
    r.layer["serve.service_us_p99"] = Percentile(service, 99);
    r.layer["serve.queue_wait_us_p99"] = Percentile(wait, 99);
    r.layer["serve.promote_request_us_p50"] = Median(promote);
    r.layer["serve.hot_hit_rate"] =
        1.0 - static_cast<double>(after.promotions - before.promotions) /
                  std::max(requests, 1.0);
    r.layer["serve.evictions"] =
        static_cast<double>(after.evictions - before.evictions);
    r.layer["serve.alias_loads"] =
        static_cast<double>(after.alias_loads - before.alias_loads);
    r.layer["serve.hot_mb"] = static_cast<double>(after.hot_bytes) / 1e6;
    const double batched =
        static_cast<double>(after.batched_requests - before.batched_requests);
    const double inline_n =
        static_cast<double>(after.inline_requests - before.inline_requests);
    r.layer["serve.batched_frac"] = batched / std::max(1.0, batched + inline_n);
    r.layer["gen.late_us_p99"] = Percentile(late, 99);
    std::vector<double> lat_off;
    for (const Sample& s : fixed_off.samples) lat_off.push_back(s.latency_us);
    r.layer["trace.overhead_frac"] =
        Median(lat) / std::max(Median(lat_off), 1e-9) - 1.0;
    std::vector<const SpanLog*> views;
    for (const SpanLog& l : logs) views.push_back(&l);
    ReportSpans(cfg, views, &r);
  }
  return r;
}

}  // namespace perfbench
