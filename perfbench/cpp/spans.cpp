// Clocks, order statistics and the traced run's span log.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <fstream>

#include "bench.hpp"
#include "common/error.hpp"

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double seconds_between(std::int64_t begin_ns, std::int64_t end_ns) {
  return static_cast<double>(end_ns - begin_ns) * 1e-9;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  if (values.size() % 2 == 1) return values[mid];
  const double upper = values[mid];
  const double lower =
      *std::max_element(values.begin(), values.begin() + mid);
  return 0.5 * (lower + upper);
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const std::size_t index = static_cast<std::size_t>(
      std::clamp(rank, 1.0, static_cast<double>(values.size())));
  return values[index - 1];
}

SpanLog::SpanLog(std::size_t raw_cap) : raw_cap_(raw_cap) {
  // Reserved up front so the log itself makes no heap calls inside the
  // spans it measures.
  raw_.reserve(raw_cap_);
  stack_.reserve(64);
  totals_.reserve(64);
}

int SpanLog::open(const char* name, int parent) {
  stack_.push_back(Open{next_id_, name, parent, now_ns(), heap_count()});
  return next_id_++;
}

std::int64_t SpanLog::close(int id) {
  const std::int64_t end = now_ns();
  const HeapCount heap = heap_count();
  RRF_REQUIRE(!stack_.empty() && stack_.back().id == id,
              "perfbench: spans must close innermost first");
  const Open span = stack_.back();
  stack_.pop_back();
  finish(span, end, heap);
  return end - span.start_ns;
}

void SpanLog::add(const char* name, int parent, std::int64_t start_ns,
                  std::int64_t end_ns) {
  const HeapCount now = heap_count();
  finish(Open{next_id_++, name, parent, start_ns, now}, end_ns, now);
}

void SpanLog::finish(const Open& span, std::int64_t end_ns, HeapCount heap) {
  const std::uint64_t allocs = heap.allocs - span.heap.allocs;
  const std::uint64_t bytes = heap.bytes - span.heap.bytes;
  auto it = std::find_if(totals_.begin(), totals_.end(), [&](const auto& t) {
    return t.first == span.name || std::strcmp(t.first, span.name) == 0;
  });
  if (it == totals_.end()) {
    totals_.emplace_back(span.name, Totals{});
    it = totals_.end() - 1;
  }
  ++it->second.count;
  it->second.ns += end_ns - span.start_ns;
  it->second.allocs += allocs;
  it->second.bytes += bytes;
  if (raw_.size() < raw_cap_) {
    raw_.push_back(Span{span.id, span.name, span.parent, span.start_ns,
                        end_ns, allocs, bytes});
  } else {
    ++dropped_;
  }
}

SpanLog::Totals SpanLog::totals(const std::string& name) const {
  for (const auto& [n, t] : totals_) {
    if (name == n) return t;
  }
  return Totals{};
}

void SpanLog::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw rrf::DomainError("perfbench: cannot write " + path);
  std::int64_t origin = 0;
  for (const Span& s : raw_) {
    if (origin == 0 || s.start_ns < origin) origin = s.start_ns;
  }
  for (const Span& s : raw_) {
    out << "{\"id\":" << s.id << ",\"name\":\"" << s.name
        << "\",\"parent\":" << s.parent
        << ",\"start_ns\":" << s.start_ns - origin
        << ",\"end_ns\":" << s.end_ns - origin << ",\"allocs\":" << s.allocs
        << ",\"bytes\":" << s.bytes << "}\n";
  }
}

}  // namespace perfbench
