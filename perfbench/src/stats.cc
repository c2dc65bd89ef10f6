#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

namespace {

// 0-based nearest rank of percentile p among n sorted samples.
size_t RankOf(size_t n, double p) {
  double rank = std::ceil(p / 100.0 * static_cast<double>(n));
  if (rank < 1) rank = 1;
  return std::min(n, static_cast<size_t>(rank)) - 1;
}

}  // namespace

size_t SamplesBeyond(size_t n, double p) {
  return n == 0 ? 0 : n - 1 - RankOf(n, p);
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  size_t k = RankOf(values.size(), p);
  std::nth_element(values.begin(), values.begin() + static_cast<long>(k),
                   values.end());
  return values[k];
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50);
}

double TrimmedMean(std::vector<double> values, double trim) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t cut = static_cast<size_t>(
      std::floor(trim * static_cast<double>(values.size())));
  if (2 * cut >= values.size()) return Median(std::move(values));
  double sum = 0;
  for (size_t i = cut; i < values.size() - cut; ++i) sum += values[i];
  return sum / static_cast<double>(values.size() - 2 * cut);
}

Tail TailOf(const std::vector<double>& values) {
  Tail t;
  t.samples = values.size();
  for (double p : {99.0, 90.0, 50.0}) {
    if (SamplesBeyond(values.size(), p) >= 10) {
      t.percentile = p;
      t.value = Percentile(values, p);
      return t;
    }
  }
  t.value = values.empty() ? 0 : *std::max_element(values.begin(),
                                                    values.end());
  return t;
}

std::vector<std::vector<double>> SplitByTime(const std::vector<double>& times,
                                             const std::vector<double>& values,
                                             double span, double width) {
  const size_t windows = std::max<size_t>(1, static_cast<size_t>(span / width));
  std::vector<std::vector<double>> out(windows);
  for (size_t i = 0; i < times.size() && i < values.size(); ++i) {
    const double k = std::max(0.0, times[i] / width);
    out[std::min(windows - 1, static_cast<size_t>(k))].push_back(values[i]);
  }
  return out;
}

}  // namespace perfbench
