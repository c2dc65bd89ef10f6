#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench {

uint32_t SpanLog::Begin(const char* name, uint64_t request) {
  if (!enabled_) return 0;
  Span s;
  s.name = name;
  s.id = static_cast<uint32_t>(spans_.size() + 1);
  s.parent = open_.empty() ? 0 : open_.back();
  s.request = request;
  s.start_ns = NowNs();
  spans_.push_back(s);
  open_.push_back(s.id);
  return s.id;
}

void SpanLog::End(uint32_t id) {
  if (id == 0) return;
  spans_[id - 1].end_ns = NowNs();
  // Spans close in LIFO order; tolerate a skipped End by unwinding to id.
  while (!open_.empty()) {
    uint32_t top = open_.back();
    open_.pop_back();
    if (top == id) break;
  }
}

std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent == 0 || s.parent > spans.size()) continue;
    children[s.parent - 1].emplace_back(s.start_ns, s.end_ns);
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const int64_t lo = spans[i].start_ns;
    const int64_t hi = spans[i].end_ns;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t cur_lo = 0, cur_hi = 0;
    bool open = false;
    for (auto [a, b] : kids) {
      a = std::max(a, lo);
      b = std::min(b, hi);
      if (b <= a) continue;
      if (open && a <= cur_hi) {
        cur_hi = std::max(cur_hi, b);
        continue;
      }
      if (open) covered += cur_hi - cur_lo;
      cur_lo = a;
      cur_hi = b;
      open = true;
    }
    if (open) covered += cur_hi - cur_lo;
    self[i] = (hi - lo) - covered;
  }
  return self;
}

std::map<std::string, int64_t> LayerSelfNs(
    const std::vector<const SpanLog*>& logs) {
  std::map<std::string, int64_t> out;
  for (const SpanLog* log : logs) {
    std::vector<int64_t> self = SelfTimes(log->spans());
    for (size_t i = 0; i < self.size(); ++i) {
      std::string name = log->spans()[i].name;
      out[name.substr(0, name.find('.'))] += self[i];
    }
  }
  return out;
}

std::map<std::string, int64_t> NameTotalNs(
    const std::vector<const SpanLog*>& logs) {
  std::map<std::string, int64_t> out;
  for (const SpanLog* log : logs) {
    for (const Span& s : log->spans()) out[s.name] += s.end_ns - s.start_ns;
  }
  return out;
}

bool WriteSpans(const std::string& path,
                const std::vector<const SpanLog*>& logs) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (size_t t = 0; t < logs.size(); ++t) {
    for (const Span& s : logs[t]->spans()) {
      std::fprintf(f,
                   "{\"log\":%zu,\"id\":%u,\"parent\":%u,\"request\":%llu,"
                   "\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld}\n",
                   t, s.id, s.parent,
                   static_cast<unsigned long long>(s.request), s.name,
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
