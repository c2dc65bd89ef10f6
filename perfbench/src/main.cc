// perfbench: runs one workload and prints its metrics, then one JSON line
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics (untraced run) or the per-layer metrics
// (traced run, --trace 1).
//
//   perfbench --workload chain-join|probe-dram|fleet-zipf|live-crud
//             --seed N --seconds S --trace 0|1 [--smoke] [--trace-out PATH]
//             [--scratch DIR]
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <string>
#include <vector>

#include "sysinfo.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Every workload reports each of these under the same name; what the name
// measures on each workload is printed beside it (see the workload files).
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"rss_mb", "MB"},
    {"latency_trimmed_mean_us", "us"},
    {"latency_tail_us", "us"},
    {"throughput_per_s", "1/s"},
    {"filter_bits_per_row", "bits"},
};

// Per-layer metrics. A layer a workload does not call reports 0 there.
constexpr MetricSpec kPerLayer[] = {
    // chain-join
    {"ccf.range.build_ms", "ms"},
    {"ccf.range.build_entries_per_s", "1/s"},
    {"ccf.range.load_factor", "frac"},
    {"join.scan_ms", "ms"},
    {"join.distinct_per_row", "frac"},
    {"join.gather_ms", "ms"},
    {"predicate.compile_us", "us"},
    {"predicate.cover_intervals", "count"},
    {"ccf.range.probe_ns_per_key", "ns"},
    {"ccf.step.probe_ns_per_key", "ns"},
    {"ccf.step.build_rows_per_s", "1/s"},
    {"ccf.capacity_errors", "count"},
    {"join.fp_rows_frac", "frac"},
    {"join.fp_rows_step1", "count"},
    {"join.fp_rows_step2", "count"},
    {"join.fp_rows_step3", "count"},
    {"join.fp_rows_step4", "count"},
    // probe-dram
    {"ccf.lookup_ns_per_key", "ns"},
    {"ccf.keyonly_ns_per_key", "ns"},
    {"ccf.batch_us_p50", "us"},
    {"ccf.batch_us_p99", "us"},
    {"ccf.observed_fpr", "frac"},
    {"ccf.build_rows_per_s", "1/s"},
    // fleet-zipf
    {"serve.service_us_p50", "us"},
    {"serve.service_us_p99", "us"},
    {"serve.queue_wait_us_p99", "us"},
    {"serve.promote_request_us_p50", "us"},
    {"serve.hot_hit_rate", "frac"},
    {"serve.evictions", "count"},
    {"serve.alias_loads", "count"},
    {"serve.hot_mb", "MB"},
    {"serve.batched_frac", "frac"},
    {"gen.late_us_p99", "us"},
    // every workload: self-time share per layer, tracing cost
    {"bench.self_frac", "frac"},
    {"data.self_frac", "frac"},
    {"join.self_frac", "frac"},
    {"predicate.self_frac", "frac"},
    {"ccf.self_frac", "frac"},
    {"serve.self_frac", "frac"},
    {"trace.overhead_frac", "frac"},
    {"trace.spans", "count"},
};

// live-crud's own per-layer metrics. live-crud is not in BENCHMARK.json:
// its readers hit a ShardedCcf false negative (see STEADINESS.md), so it
// runs on its own and adds these to the metrics above.
constexpr MetricSpec kLiveCrudLayer[] = {
    {"ccf.sharded.stage_us_p50", "us"},
    {"ccf.sharded.commit_ms_p50", "ms"},
    {"ccf.sharded.commit_ms_p99", "ms"},
    {"ccf.sharded.pending_at_commit", "count"},
    {"ccf.sharded.read_us_during_commit_p99", "us"},
    {"ccf.sharded.read_us_idle_p99", "us"},
    {"ccf.sharded.compactions", "count"},
    {"ccf.sharded.watermark_resizes", "count"},
    {"ccf.sharded.dead_log_frac", "frac"},
    {"ccf.sharded.bits_per_live_row", "bits"},
};

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload chain-join|probe-dram|fleet-zipf|"
               "live-crud --seed N --seconds S --trace 0|1 [--smoke] "
               "[--trace-out PATH] [--scratch DIR]\n",
               argv0);
  return 2;
}

// Appends `"name": {"value": v, "unit": u}` with every digit of v; a
// non-finite value fails the run.
void AppendMetric(Report& r, const char* name, double value,
                  const char* unit, std::string* out) {
  if (!std::isfinite(value)) {
    r.Fail(std::string("metric ") + name + " is not finite");
    value = 0;
  }
  char buf[256];
  std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                out->empty() ? "" : ", ", name, value, unit);
  *out += buf;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunConfig cfg;
  bool have_workload = false, have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--smoke") {
      cfg.smoke = true;
    } else if (arg == "--workload" && (v = next())) {
      cfg.workload = v;
      have_workload = true;
    } else if (arg == "--seed" && (v = next())) {
      cfg.seed = std::strtoull(v, nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds" && (v = next())) {
      cfg.seconds = std::strtod(v, nullptr);
      have_seconds = cfg.seconds > 0;
    } else if (arg == "--trace" && (v = next())) {
      cfg.trace = std::string(v) == "1";
    } else if (arg == "--trace-out" && (v = next())) {
      cfg.trace_path = v;
    } else if (arg == "--scratch" && (v = next())) {
      cfg.scratch_dir = v;
    } else {
      return Usage(argv[0]);
    }
  }
  if (!have_workload || !have_seed || !have_seconds) return Usage(argv[0]);
  cfg.nproc = NumCpus();

  Report r;
  if (cfg.workload == "chain-join") {
    r = RunChainJoin(cfg);
  } else if (cfg.workload == "probe-dram") {
    r = RunProbeDram(cfg);
  } else if (cfg.workload == "fleet-zipf") {
    r = RunFleetZipf(cfg);
  } else if (cfg.workload == "live-crud") {
    r = RunLiveCrud(cfg);
  } else {
    return Usage(argv[0]);
  }
  r.SeeThreads(ThreadCount());
  if (r.threads_seen > cfg.nproc || r.threads_planned > cfg.nproc) {
    r.Fail("thread budget exceeded: " + std::to_string(r.threads_seen) +
           " threads seen, " + std::to_string(r.threads_planned) +
           " planned, nproc " + std::to_string(cfg.nproc));
  }

  std::printf(
      "run: workload=%s seed=%llu seconds=%g trace=%d nproc=%d l3_mb=%.0f "
      "threads_planned=%d threads_seen=%d\n",
      cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
      cfg.seconds, cfg.trace ? 1 : 0, cfg.nproc,
      static_cast<double>(L3Bytes()) / (1 << 20), r.threads_planned,
      r.threads_seen);
  for (const Named& m : r.named) {
    std::printf("  %-40s %16.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("  %-40s %16.6g frac (%llu of %llu)\n", "ops_failed_frac",
              r.attempted == 0 ? 0.0
                               : static_cast<double>(r.failed) /
                                     static_cast<double>(r.attempted),
              static_cast<unsigned long long>(r.failed),
              static_cast<unsigned long long>(r.attempted));
  for (size_t i = 0; i < r.failures.size(); ++i) {
    if (i > 0 && r.failures[i] == r.failures[i - 1]) continue;
    std::fprintf(stderr, "FAILED: %s\n", r.failures[i].c_str());
  }

  // Render the metrics first: a non-finite value counts as a failure, which
  // the JSON header must already include.
  std::string metrics;
  if (cfg.trace) {
    std::vector<MetricSpec> specs(std::begin(kPerLayer), std::end(kPerLayer));
    if (cfg.workload == "live-crud") {
      specs.insert(specs.end(), std::begin(kLiveCrudLayer),
                   std::end(kLiveCrudLayer));
    }
    for (const MetricSpec& m : specs) {
      auto it = r.layer.find(m.name);
      AppendMetric(r, m.name, it == r.layer.end() ? 0.0 : it->second, m.unit,
                   &metrics);
    }
  } else {
    for (const MetricSpec& m : kEndToEnd) {
      auto it = r.e2e.find(m.name);
      if (it == r.e2e.end()) r.Fail(std::string("missing ") + m.name);
      AppendMetric(r, m.name, it == r.e2e.end() ? 0.0 : it->second, m.unit,
                   &metrics);
    }
  }
  if (r.attempted == 0) r.attempted = 1, r.Fail("nothing attempted");
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      r.failed == 0 ? "true" : "false",
      static_cast<unsigned long long>(r.attempted),
      static_cast<unsigned long long>(r.failed), metrics.c_str());
  return 0;
}
