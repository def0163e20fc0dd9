#include "trace.hpp"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <stdexcept>

namespace e2e {

Tracer::Tracer(bool enabled, int ranks, std::size_t capacity)
    : enabled_(enabled),
      origin_(std::chrono::steady_clock::now()),
      buf_(static_cast<std::size_t>(ranks) + 1),
      dropped_(static_cast<std::size_t>(ranks) + 1, 0) {
  if (!enabled_) return;
  for (auto& b : buf_) b.reserve(capacity);
}

std::int64_t Tracer::now_ns() const noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

void Tracer::record(int slot, const Span& s) noexcept {
  auto& b = buf_[static_cast<std::size_t>(slot)];
  if (b.size() < b.capacity()) {
    b.push_back(s);
  } else {
    ++dropped_[static_cast<std::size_t>(slot)];
  }
}

std::uint64_t Tracer::dropped() const noexcept {
  std::uint64_t n = 0;
  for (const auto d : dropped_) n += d;
  return n;
}

std::vector<double> Tracer::client_us(const char* name) const {
  std::vector<double> out;
  for (const Span& s : spans(kClient)) {
    if (std::strcmp(s.name, name) == 0) out.push_back(s.host_us());
  }
  return out;
}

std::vector<double> Tracer::per_call_max(const char* name, bool virtual_clock) const {
  std::vector<std::vector<double>> per_rank(static_cast<std::size_t>(ranks()));
  std::size_t calls = SIZE_MAX;
  for (int r = 0; r < ranks(); ++r) {
    auto& v = per_rank[static_cast<std::size_t>(r)];
    for (const Span& s : spans(1 + r)) {
      if (std::strcmp(s.name, name) == 0) v.push_back(virtual_clock ? s.virt_s() : s.host_us());
    }
    calls = std::min(calls, v.size());
  }
  std::vector<double> out(calls == SIZE_MAX ? 0 : calls, 0.0);
  for (const auto& v : per_rank) {
    for (std::size_t k = 0; k < out.size(); ++k) out[k] = std::max(out[k], v[k]);
  }
  return out;
}

std::vector<double> Tracer::run_overhead_us() const {
  const std::vector<double> runs = client_us("mp.run");
  const std::vector<double> bodies = per_call_max("mp.rank_body", false);
  std::vector<double> out;
  for (std::size_t k = 0; k < std::min(runs.size(), bodies.size()); ++k) {
    out.push_back(runs[k] - bodies[k]);
  }
  return out;
}

std::vector<Tracer::Row> Tracer::table() const {
  struct Acc {
    std::uint64_t count = 0;
    double total_ns = 0.0;
    double child_ns = 0.0;
  };
  std::map<std::string, Acc> acc;
  for (const auto& slot : buf_) {
    // Spans are stored as they close (children before parents); sorting by
    // (begin asc, end desc) puts every parent before its children, and a
    // stack of open ancestors finds each span's direct parent.
    std::vector<const Span*> order;
    order.reserve(slot.size());
    for (const Span& s : slot) order.push_back(&s);
    std::sort(order.begin(), order.end(), [](const Span* a, const Span* b) {
      return a->host_begin_ns != b->host_begin_ns ? a->host_begin_ns < b->host_begin_ns
                                                  : a->host_end_ns > b->host_end_ns;
    });
    std::vector<const Span*> open;
    for (const Span* s : order) {
      while (!open.empty() && open.back()->host_end_ns <= s->host_begin_ns) open.pop_back();
      const auto dur = static_cast<double>(s->host_end_ns - s->host_begin_ns);
      if (!open.empty()) acc[open.back()->name].child_ns += dur;
      Acc& a = acc[s->name];
      ++a.count;
      a.total_ns += dur;
      open.push_back(s);
    }
  }
  std::vector<Row> rows;
  for (const auto& [name, a] : acc) {
    rows.push_back(Row{name, a.count, a.total_ns * 1e-6, (a.total_ns - a.child_ns) * 1e-6});
  }
  return rows;
}

void Tracer::write_chrome(const std::string& path, std::size_t per_slot_cap) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write trace file " + path);
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", f);
  bool first = true;
  auto sep = [&] {
    if (!first) std::fputs(",\n", f);
    first = false;
  };
  std::uint64_t omitted = 0;
  for (std::size_t slot = 0; slot < buf_.size(); ++slot) {
    sep();
    const std::string thread =
        slot == 0 ? "client" : "rank " + std::to_string(static_cast<int>(slot) - 1);
    std::fprintf(f,
                 "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%zu,"
                 "\"args\":{\"name\":\"%s\"}}",
                 slot, thread.c_str());
    const auto& spans = buf_[slot];
    const std::size_t n = std::min(spans.size(), per_slot_cap);
    omitted += spans.size() - n + dropped_[slot];
    for (std::size_t i = 0; i < n; ++i) {
      const Span& s = spans[i];
      const char* dot = std::strchr(s.name, '.');
      const int cat_len = dot == nullptr ? static_cast<int>(std::strlen(s.name))
                                         : static_cast<int>(dot - s.name);
      sep();
      std::fprintf(f,
                   "{\"name\":\"%s\",\"cat\":\"%.*s\",\"ph\":\"X\",\"pid\":1,\"tid\":%zu,"
                   "\"ts\":%.3f,\"dur\":%.3f",
                   s.name, cat_len, s.name, slot, static_cast<double>(s.host_begin_ns) * 1e-3,
                   s.host_us());
      if (s.virt_begin >= 0.0) {
        std::fprintf(f, ",\"args\":{\"virt_begin_s\":%.9g,\"virt_end_s\":%.9g,\"bytes\":%llu}",
                     s.virt_begin, s.virt_end, static_cast<unsigned long long>(s.bytes));
      }
      std::fputs("}", f);
    }
  }
  std::fprintf(f, "\n],\"otherData\":{\"spans_omitted\":%llu}}\n",
               static_cast<unsigned long long>(omitted));
  const bool ok = std::fflush(f) == 0 && std::ferror(f) == 0;
  if (std::fclose(f) != 0 || !ok) throw std::runtime_error("failed writing trace file " + path);
}

}  // namespace e2e
