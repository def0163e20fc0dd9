// Span recorder for stance_e2e's traced run (--trace=PATH).
//
// The benchmark records one span around each public library call it makes:
// on the client thread (slot 0) and on every rank thread (slot 1 + rank).
// Each slot owns a buffer preallocated at construction, so recording never
// allocates and slots never share memory; buffers are read only after the
// cluster run that filled them has joined its threads. A rank span carries
// both clocks — host steady_clock and the rank's virtual clock — and the
// bytes the rank sent inside it (mp::CommStats::bytes_sent delta).
//
// With tracing off every Scope is a single predictable branch: the
// untraced run that yields the end-to-end metrics pays nothing else.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "mp/process.hpp"

namespace e2e {

struct Span {
  const char* name = nullptr;  ///< string literal "<layer>.<call>"
  std::int64_t host_begin_ns = 0;
  std::int64_t host_end_ns = 0;
  double virt_begin = -1.0;  ///< rank clock at entry; negative on the client
  double virt_end = -1.0;
  std::uint64_t bytes = 0;  ///< bytes this rank sent inside the span

  [[nodiscard]] double host_us() const {
    return static_cast<double>(host_end_ns - host_begin_ns) * 1e-3;
  }
  [[nodiscard]] double virt_s() const { return virt_end - virt_begin; }
};

class Tracer {
 public:
  static constexpr int kClient = 0;

  /// `ranks` rank slots plus the client slot, `capacity` spans each. A
  /// disabled tracer allocates nothing and records nothing.
  Tracer(bool enabled, int ranks, std::size_t capacity);

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  [[nodiscard]] int ranks() const noexcept { return static_cast<int>(buf_.size()) - 1; }
  [[nodiscard]] std::int64_t now_ns() const noexcept;

  /// Store a finished span; a full slot counts the span as dropped.
  void record(int slot, const Span& s) noexcept;

  [[nodiscard]] const std::vector<Span>& spans(int slot) const {
    return buf_[static_cast<std::size_t>(slot)];
  }
  [[nodiscard]] std::uint64_t dropped() const noexcept;

  /// Host durations (µs) of the client spans named `name`, in order.
  [[nodiscard]] std::vector<double> client_us(const char* name) const;

  /// One value per collective call of `name` on the rank slots: the k-th
  /// span of every rank is the same SPMD call, and its cost is the slowest
  /// rank's — host µs, or virtual seconds when `virtual_clock`.
  [[nodiscard]] std::vector<double> per_call_max(const char* name, bool virtual_clock) const;

  /// Cluster::run host time minus its slowest rank body (µs), per run the
  /// benchmark traced ("mp.run" on the client, "mp.rank_body" on ranks).
  [[nodiscard]] std::vector<double> run_overhead_us() const;

  struct Row {
    std::string name;
    std::uint64_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;  ///< total minus directly nested spans on the same thread
  };
  /// Per span name: count, total and self host time, summed over slots.
  [[nodiscard]] std::vector<Row> table() const;

  /// Chrome trace-event JSON (opens in Perfetto / chrome://tracing). At most
  /// `per_slot_cap` spans per slot are written, in recording order; the
  /// per-layer numbers always use every recorded span.
  void write_chrome(const std::string& path, std::size_t per_slot_cap) const;

 private:
  bool enabled_;
  std::chrono::steady_clock::time_point origin_;
  std::vector<std::vector<Span>> buf_;
  std::vector<std::uint64_t> dropped_;
};

[[nodiscard]] inline int slot_of(const stance::mp::Process& p) { return 1 + p.rank(); }

/// RAII span. Pass the rank's Process to stamp the virtual clock and bytes.
class Scope {
 public:
  Scope(Tracer& t, int slot, const char* name, const stance::mp::Process* p = nullptr)
      : t_(t.enabled() ? &t : nullptr), slot_(slot), p_(p) {
    if (t_ == nullptr) return;
    span_.name = name;
    if (p_ != nullptr) {
      span_.virt_begin = p_->now();
      bytes0_ = p_->stats().bytes_sent;
    }
    span_.host_begin_ns = t_->now_ns();
  }
  ~Scope() {
    if (t_ == nullptr) return;
    span_.host_end_ns = t_->now_ns();
    if (p_ != nullptr) {
      span_.virt_end = p_->now();
      span_.bytes = p_->stats().bytes_sent - bytes0_;
    }
    t_->record(slot_, span_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  /// Name the span after an outcome known only at the end of the call.
  void rename(const char* name) noexcept { span_.name = name; }

 private:
  Tracer* t_;
  int slot_;
  const stance::mp::Process* p_;
  Span span_;
  std::uint64_t bytes0_ = 0;
};

}  // namespace e2e
