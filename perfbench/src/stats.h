// Order statistics for the benchmark's reports.
#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstddef>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile (p in [0, 100]) of `values`; 0 when empty.
/// With n samples the result has floor(n * (1 - p/100)) samples above its
/// rank, which is what the tail rule below counts.
double Percentile(std::vector<double> values, double p);

double Median(std::vector<double> values);

/// Mean of `values` without the lowest and the highest `trim` share of
/// them (0.1: the 10% trimmed mean); 0 when empty. On a host whose speed
/// switches between a fast and a slow state, per-operation times are
/// bimodal and their median jumps from one mode to the other as the share
/// of time in each crosses a half; the trimmed mean moves in proportion to
/// that share, and, unlike the mean, a few stalls cannot set it.
double TrimmedMean(std::vector<double> values, double trim);

/// The trim of every workload's latency_trimmed_mean_us.
constexpr double kLatencyTrim = 0.1;

/// A latency tail reported the way the benchmark's rule asks: the highest
/// percentile of {99, 90, 50} that still has at least ten samples beyond
/// it, with the sample count it was taken from.
struct Tail {
  double percentile = 0;
  double value = 0;
  size_t samples = 0;
};

/// Applies the tail rule; a percentile of 0 means fewer than 20 samples, so
/// not even the median has ten beyond it (value is then the maximum).
Tail TailOf(const std::vector<double>& values);

/// Samples strictly above the nearest-rank percentile p of n samples.
size_t SamplesBeyond(size_t n, double p);

/// Splits values[i] into consecutive windows of `width` by times[i]
/// (window k holds times in [k*width, (k+1)*width)); times past the last
/// full window join it. Windowed medians keep a host stall, which lands in
/// one window, from setting a run's figure.
std::vector<std::vector<double>> SplitByTime(const std::vector<double>& times,
                                             const std::vector<double>& values,
                                             double span, double width);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
