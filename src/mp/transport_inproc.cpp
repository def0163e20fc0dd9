#include "mp/transport_inproc.hpp"

namespace stance::mp {

void VirtualTransport::send(Rank from, Rank to, Tag tag,
                            std::span<const std::byte> data, double arrival) {
  // Epoch is read BEFORE the failure guard: a send racing a mark_dead either
  // sees the failure here, or carries the pre-bump epoch and is dropped by
  // the receiver's fence floor.
  const std::uint32_t e = epoch();
  guard_send(from);
  std::vector<std::byte> scratch;
  if (!apply_frame_faults(from, to, data, arrival, scratch)) return;
  deliver_local(from, to, tag, data, arrival, e);
}

RawMessage VirtualTransport::recv(Rank self, Rank from, Tag tag) {
  heartbeat(self);
  return box(self).take(from, tag);
}

}  // namespace stance::mp
