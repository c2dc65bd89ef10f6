// The benchmark's workloads. Each takes the run configuration, generates
// its inputs from the seed, measures for the configured time, checks the
// answers, and returns a Report.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "trace.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  /// Traced run: per-layer metrics instead of end-to-end ones.
  bool trace = false;
  /// Seconds-long configuration for the benchmark's own tests.
  bool smoke = false;
  /// Where a traced run writes its spans.
  std::string trace_path;
  /// Directory for files a workload writes (removed when it ends).
  std::string scratch_dir = ".bench_build/perfbench-scratch";
  /// The thread budget: no workload runs more threads than this.
  int nproc = 1;
};

/// A metric printed by the name the workload's design uses, with its unit.
struct Named {
  std::string name;
  double value;
  std::string unit;
};

struct Report {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;  // first few failure messages
  /// End-to-end metrics under the benchmark's shared names (setup_s,
  /// rss_mb, latency_trimmed_mean_us, latency_tail_us, throughput_per_s,
  /// filter_bits_per_row).
  std::map<std::string, double> e2e;
  /// The same measurements under the workload's own names.
  std::vector<Named> named;
  /// Per-layer metrics (traced run).
  std::map<std::string, double> layer;
  /// Threads this workload plans to run at most, and the most seen.
  int threads_planned = 1;
  int threads_seen = 0;

  void Fail(const std::string& why) {
    ++failed;
    if (failures.size() < 8) failures.push_back(why);
  }
  void SeeThreads(int n) { threads_seen = std::max(threads_seen, n); }
};

/// The traced run's common per-layer figures: each layer's share of the
/// spans' self time, the span count; also writes the spans out.
inline void ReportSpans(const RunConfig& cfg,
                        const std::vector<const SpanLog*>& logs, Report* r) {
  size_t spans = 0;
  for (const SpanLog* l : logs) spans += l->spans().size();
  r->layer["trace.spans"] = static_cast<double>(spans);
  const std::map<std::string, int64_t> self = LayerSelfNs(logs);
  double total = 0;
  for (const auto& [layer, ns] : self) total += static_cast<double>(ns);
  for (const auto& [layer, ns] : self) {
    r->layer[layer + ".self_frac"] =
        static_cast<double>(ns) / std::max(total, 1.0);
  }
  if (!cfg.trace_path.empty() && !WriteSpans(cfg.trace_path, logs)) {
    r->Fail("could not write spans to " + cfg.trace_path);
  }
}

Report RunChainJoin(const RunConfig& config);
Report RunProbeDram(const RunConfig& config);
Report RunFleetZipf(const RunConfig& config);
Report RunLiveCrud(const RunConfig& config);

/// splitmix64: a bijection on uint64, so distinct inputs give distinct
/// keys (the present and absent key sets below never collide).
inline uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
