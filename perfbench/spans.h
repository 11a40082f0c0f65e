// Reduces a span trace to per-layer self time.
//
// The stack threads one op id (the committing transaction's id) from the
// workload's "txn" span through the TMF's "txn.commit", the ADP's
// "adp.flush", the PM client's "pm.write*" spans and the fabric's "rdma.*"
// spans. For each op id and layer, self time is the length of the union of
// that layer's spans minus the part covered by any deeper layer's spans of
// the same op id. An op that rode another transaction's group-commit flush
// has no PM or fabric spans of its own, so its whole flush wait counts as
// ADP self time.
#pragma once

#include <array>
#include <cstddef>
#include <vector>

#include "common/trace.h"

namespace perfbench {

enum Layer : std::size_t { kTxn, kTmfCommit, kAdpFlush, kPmWrite, kRdma };
inline constexpr std::size_t kLayers = 5;

struct SelfTimes {
  // Self time in ms of every op id in which the layer appears.
  std::array<std::vector<double>, kLayers> ms;
  std::size_t spans = 0;  // spans attributed to a layer
  bool operator==(const SelfTimes&) const = default;
};

[[nodiscard]] SelfTimes ReduceSpans(const ods::Tracer& tracer);

}  // namespace perfbench
