// In-memory spans around calls into the library's public layers. Each
// span has a name ("<layer>.<call>"), start and end times, the span that
// caused it, and the request it belongs to. Spans stay in memory during the
// run and are written out when it ends; per-layer self times come from
// them. A disabled log records nothing, so the untraced run pays a branch.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";  // static string: "<layer>.<call>"
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint32_t id = 0;      // 1-based index in its log
  uint32_t parent = 0;  // 0 = no parent
  uint64_t request = 0;
};

/// One thread's spans. Not thread-safe: give each thread its own log.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Opens a span nested in the innermost open one; returns its id (0 when
  /// disabled).
  uint32_t Begin(const char* name, uint64_t request);
  void End(uint32_t id);

  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<uint32_t> open_;
};

/// RAII span.
class Scoped {
 public:
  Scoped(SpanLog& log, const char* name, uint64_t request = 0)
      : log_(log), id_(log.Begin(name, request)) {}
  ~Scoped() { log_.End(id_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  SpanLog& log_;
  uint32_t id_;
};

/// Self time of every span (same order as `spans`): its duration minus the
/// part of its interval covered by its direct children. Children may
/// overlap one another; the covered part is their union, clipped to the
/// parent.
std::vector<int64_t> SelfTimes(const std::vector<Span>& spans);

/// Sums self time per layer (the name up to the first '.') over all logs.
std::map<std::string, int64_t> LayerSelfNs(
    const std::vector<const SpanLog*>& logs);

/// Sums duration per span name over all logs.
std::map<std::string, int64_t> NameTotalNs(
    const std::vector<const SpanLog*>& logs);

/// Writes every span as one JSON object per line; false on I/O failure.
bool WriteSpans(const std::string& path,
                const std::vector<const SpanLog*>& logs);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
