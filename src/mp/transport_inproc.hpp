// In-process transport backend.
//
// VirtualTransport is the original simulator plumbing — the base class's
// per-rank Mailboxes plus the shared Rendezvous — kept bit-identical as the
// deterministic oracle. Every send is a co-resident deliver; receives block
// forever by design (no peer deadline), so hangs there are the watchdog's
// job.
#pragma once

#include "mp/transport.hpp"

namespace stance::mp {

class VirtualTransport final : public Transport {
 public:
  explicit VirtualTransport(int nprocs) : Transport(nprocs) {}

  [[nodiscard]] const char* name() const noexcept override { return "virtual"; }
  [[nodiscard]] TransportKind kind() const noexcept override {
    return TransportKind::kVirtual;
  }

  void send(Rank from, Rank to, Tag tag, std::span<const std::byte> data,
            double arrival) override;
  [[nodiscard]] RawMessage recv(Rank self, Rank from, Tag tag) override;
};

}  // namespace stance::mp
