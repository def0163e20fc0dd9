// One remap, as data — the spine of the delta pipeline.
//
// A RemapDelta names everything a downstream consumer needs to patch an
// artifact built for partition `from` into one valid for partition `to` of
// (possibly) an edited graph: the two interval partitions plus the sorted
// set of global vertices whose *adjacency* changed. Produced by the
// load balancer's Phase D (pure drift), by graph edits (graph::CsrDelta),
// or both at once; consumed by sched::rebuild_incremental (send-list
// splice) and sched::patch_coalesce (via the spliced schedules). The
// executor then rebinds to the spliced schedule and re-prewarms only the
// arenas it grew.
#pragma once

#include <vector>

#include "partition/interval.hpp"

namespace stance::graph {
struct CsrDelta;
}

namespace stance::partition {

struct RemapDelta {
  IntervalPartition from;
  IntervalPartition to;
  /// Global ids whose adjacency changed (sorted, unique). Empty for a pure
  /// repartition: every kept vertex's edges — and therefore its send
  /// destinations, up to ownership — survive.
  std::vector<Vertex> dirty;

  [[nodiscard]] bool pure_drift() const noexcept { return dirty.empty(); }

  /// A repartition with no graph edit.
  static RemapDelta drift(IntervalPartition from, IntervalPartition to);

  /// A graph edit with no repartition (from == to == part).
  static RemapDelta graph_edit(const IntervalPartition& part,
                               const graph::CsrDelta& delta);

  /// Repartition and graph edit in one step.
  static RemapDelta combined(IntervalPartition from, IntervalPartition to,
                             const graph::CsrDelta& delta);
};

}  // namespace stance::partition
