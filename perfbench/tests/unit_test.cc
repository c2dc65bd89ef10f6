// Unit checks of the benchmark's own arithmetic: the tail-percentile rule,
// the trimmed mean and span self times. Exits non-zero on the first failed check.
#include <cmath>
#include <cstdio>
#include <vector>

#include "stats.h"
#include "trace.h"

namespace {

int failures = 0;

#define CHECK(cond)                                                   \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::fprintf(stderr, "%s:%d: CHECK(%s)\n", __FILE__, __LINE__, \
                   #cond);                                            \
      ++failures;                                                     \
    }                                                                 \
  } while (0)

std::vector<double> OneTo(size_t n) {
  std::vector<double> v;
  for (size_t i = n; i >= 1; --i) v.push_back(static_cast<double>(i));
  return v;
}

void TestTrimmedMean() {
  using perfbench::TrimmedMean;
  // 1..10 without the lowest and highest one: mean of 2..9.
  CHECK(TrimmedMean(OneTo(10), 0.1) == 5.5);
  // One huge outlier among 20 samples is trimmed away.
  std::vector<double> v = OneTo(19);
  v.push_back(1e9);
  CHECK(TrimmedMean(v, 0.1) == 10.5);  // mean of 3..18
  CHECK(TrimmedMean(OneTo(4), 0) == 2.5);
  // Fewer samples than the trim can drop: the median.
  CHECK(TrimmedMean(OneTo(3), 0.5) == 2);
  CHECK(TrimmedMean({}, 0.1) == 0);
}

void TestPercentileRule() {
  using perfbench::TailOf;
  // Nearest rank: p90 of 1..100 is 90, with exactly 10 samples beyond.
  CHECK(perfbench::Percentile(OneTo(100), 90) == 90);
  CHECK(perfbench::SamplesBeyond(100, 90) == 10);
  CHECK(perfbench::Percentile(OneTo(1000), 99) == 990);
  CHECK(perfbench::Median(OneTo(9)) == 5);

  // 100 samples: p99 has 1 beyond, p90 has 10 -> p90.
  perfbench::Tail t = TailOf(OneTo(100));
  CHECK(t.percentile == 90 && t.value == 90 && t.samples == 100);
  // 99 samples: p90 has only 9 beyond -> p50.
  t = TailOf(OneTo(99));
  CHECK(t.percentile == 50 && t.value == 50);
  // 1000 samples: p99 has exactly 10 beyond.
  t = TailOf(OneTo(1000));
  CHECK(t.percentile == 99 && t.value == 990);
  // 999 samples: p99 has 9 beyond -> p90.
  t = TailOf(OneTo(999));
  CHECK(t.percentile == 90);
  // Too few samples for any percentile: 0 and the maximum.
  t = TailOf(OneTo(19));
  CHECK(t.percentile == 0 && t.value == 19);
  CHECK(TailOf({}).value == 0);
}

perfbench::Span S(uint32_t id, uint32_t parent, int64_t start, int64_t end) {
  perfbench::Span s;
  s.name = "x.y";
  s.id = id;
  s.parent = parent;
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

void TestSelfTime() {
  using perfbench::SelfTimes;
  // Root [0, 100) with children [10, 30) and [50, 60): self 70. A
  // grandchild [15, 20) counts against its parent only.
  std::vector<perfbench::Span> spans = {S(1, 0, 0, 100), S(2, 1, 10, 30),
                                        S(3, 1, 50, 60), S(4, 2, 15, 20)};
  std::vector<int64_t> self = SelfTimes(spans);
  CHECK(self[0] == 70);
  CHECK(self[1] == 15);
  CHECK(self[2] == 10);
  CHECK(self[3] == 5);

  // Overlapping children (threads of one request) cover their union;
  // a child poking out of its parent is clipped.
  spans = {S(1, 0, 0, 100), S(2, 1, 10, 40), S(3, 1, 30, 50),
           S(4, 1, 90, 120)};
  self = SelfTimes(spans);
  CHECK(self[0] == 100 - 40 - 10);

  // No children: self equals duration.
  CHECK(SelfTimes({S(1, 0, 5, 9)})[0] == 4);

  // SpanLog nests spans and the per-layer sums add up to the root.
  perfbench::SpanLog log(true);
  {
    perfbench::Scoped root(log, "bench.root", 7);
    perfbench::Scoped child(log, "ccf.call", 7);
  }
  CHECK(log.spans().size() == 2);
  CHECK(log.spans()[1].parent == 1);
  CHECK(log.spans()[1].request == 7);
  auto layers = perfbench::LayerSelfNs({&log});
  const int64_t root = log.spans()[0].end_ns - log.spans()[0].start_ns;
  CHECK(layers["bench"] + layers["ccf"] == root);

  // A disabled log records nothing.
  perfbench::SpanLog off(false);
  { perfbench::Scoped s(off, "bench.root"); }
  CHECK(off.spans().empty());
}

}  // namespace

int main() {
  TestPercentileRule();
  TestTrimmedMean();
  TestSelfTime();
  if (failures != 0) {
    std::fprintf(stderr, "%d check(s) failed\n", failures);
    return 1;
  }
  std::printf("perfbench_unit: all checks passed\n");
  return 0;
}
