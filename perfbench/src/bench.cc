#include "bench.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>

namespace perfbench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = std::clamp(q, 0.0, 1.0) * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double sum(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return s;
}

double mean(const std::vector<double>& v) {
  return v.empty() ? 0.0 : sum(v) / static_cast<double>(v.size());
}

const std::vector<double>& SelfTimes::of(const std::string& name) const {
  static const std::vector<double> kNone;
  for (size_t i = 0; i < names.size(); ++i) {
    if (names[i] == name) return seconds[i];
  }
  return kNone;
}

SelfTimes self_times(const std::vector<const SpanBuffer*>& buffers) {
  SelfTimes out;
  std::map<std::string, size_t> slot;
  for (const SpanBuffer* buf : buffers) {
    const std::vector<Span>& spans = buf->spans();
    std::vector<double> child(spans.size(), 0.0);
    for (const Span& s : spans) {
      if (s.parent >= 0) child[static_cast<size_t>(s.parent)] += s.end_s - s.start_s;
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const auto [it, fresh] = slot.try_emplace(spans[i].name, out.names.size());
      if (fresh) {
        out.names.emplace_back(spans[i].name);
        out.seconds.emplace_back();
      }
      out.seconds[it->second].push_back(spans[i].end_s - spans[i].start_s - child[i]);
    }
  }
  return out;
}

bool write_spans(const std::string& path,
                 const std::vector<const SpanBuffer*>& buffers, double t0_s) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("[\n", f);
  int64_t offset = 0;
  bool first = true;
  for (size_t b = 0; b < buffers.size(); ++b) {
    const std::vector<Span>& spans = buffers[b]->spans();
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::fprintf(f,
                   "%s{\"id\":%lld,\"name\":\"%s\",\"start_us\":%.3f,"
                   "\"end_us\":%.3f,\"parent\":%lld,\"query\":%lld,"
                   "\"thread\":%zu,\"tag\":%d}",
                   first ? "" : ",\n", static_cast<long long>(offset + static_cast<int64_t>(i)),
                   s.name, (s.start_s - t0_s) * 1e6, (s.end_s - t0_s) * 1e6,
                   static_cast<long long>(s.parent < 0 ? -1 : offset + s.parent),
                   static_cast<long long>(s.query), b, s.tag);
      first = false;
    }
    offset += static_cast<int64_t>(spans.size());
  }
  std::fputs("\n]\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
