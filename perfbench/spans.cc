#include "spans.h"

#include <algorithm>
#include <cstdint>
#include <deque>
#include <optional>
#include <string_view>
#include <unordered_map>
#include <utility>

namespace perfbench {

using ods::TraceEvent;
using ods::TraceLane;
using ods::TracePhase;

namespace {

using Interval = std::pair<std::int64_t, std::int64_t>;

std::optional<Layer> LayerOf(const TraceEvent& ev) {
  const std::string_view name(ev.name);
  switch (ev.lane) {
    case TraceLane::kWorkload:
      if (name == "txn") return kTxn;
      break;
    case TraceLane::kTmf:
      if (name == "txn.commit") return kTmfCommit;
      break;
    case TraceLane::kAdp:
      if (name == "adp.flush") return kAdpFlush;
      break;
    case TraceLane::kPmClient:
      if (name.starts_with("pm.write")) return kPmWrite;
      break;
    case TraceLane::kFabric:
      if (name.starts_with("rdma.")) return kRdma;
      break;
    default:
      break;
  }
  return std::nullopt;
}

struct OpSpans {
  std::array<std::vector<Interval>, kLayers> closed;
  std::array<std::deque<std::int64_t>, kLayers> open;  // async begins
};

// Sorts and merges in place.
void Merge(std::vector<Interval>& v) {
  std::sort(v.begin(), v.end());
  std::size_t out = 0;
  for (const Interval& iv : v) {
    if (out > 0 && iv.first <= v[out - 1].second) {
      v[out - 1].second = std::max(v[out - 1].second, iv.second);
    } else {
      v[out++] = iv;
    }
  }
  v.resize(out);
}

std::int64_t Length(const std::vector<Interval>& merged) {
  std::int64_t n = 0;
  for (const auto& [a, b] : merged) n += b - a;
  return n;
}

std::int64_t Overlap(const std::vector<Interval>& x,
                     const std::vector<Interval>& y) {
  std::int64_t n = 0;
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < x.size() && j < y.size()) {
    const std::int64_t lo = std::max(x[i].first, y[j].first);
    const std::int64_t hi = std::min(x[i].second, y[j].second);
    if (hi > lo) n += hi - lo;
    if (x[i].second < y[j].second) {
      ++i;
    } else {
      ++j;
    }
  }
  return n;
}

}  // namespace

SelfTimes ReduceSpans(const ods::Tracer& tracer) {
  std::unordered_map<std::uint64_t, OpSpans> ops;
  SelfTimes out;
  tracer.ForEach([&](const TraceEvent& ev) {
    if (ev.op_id == 0) return;
    const std::optional<Layer> layer = LayerOf(ev);
    if (!layer) return;
    OpSpans& op = ops[ev.op_id];
    switch (ev.phase) {
      case TracePhase::kComplete:
        op.closed[*layer].emplace_back(ev.ts_ns, ev.ts_ns + ev.dur_ns);
        ++out.spans;
        break;
      case TracePhase::kAsyncBegin:
        op.open[*layer].push_back(ev.ts_ns);
        break;
      case TracePhase::kAsyncEnd:
        // Several ADPs flush for one commit under the same op id; pairing
        // begins and ends first-in first-out keeps their union exact.
        if (!op.open[*layer].empty()) {
          op.closed[*layer].emplace_back(op.open[*layer].front(), ev.ts_ns);
          op.open[*layer].pop_front();
          ++out.spans;
        }
        break;
      case TracePhase::kInstant:
        break;
    }
  });

  // Ops in id order, so the output does not depend on hash iteration.
  std::vector<std::pair<std::uint64_t, OpSpans*>> sorted;
  sorted.reserve(ops.size());
  for (auto& [id, op] : ops) sorted.emplace_back(id, &op);
  std::sort(sorted.begin(), sorted.end());
  for (auto& [id, op] : sorted) {
    for (auto& v : op->closed) Merge(v);
    std::vector<Interval> deeper;
    for (std::size_t l = kLayers; l-- > 0;) {
      const std::vector<Interval>& mine = op->closed[l];
      if (!mine.empty()) {
        const std::int64_t self = Length(mine) - Overlap(mine, deeper);
        out.ms[l].push_back(static_cast<double>(self) / 1e6);
      }
      deeper.insert(deeper.end(), mine.begin(), mine.end());
      Merge(deeper);
    }
  }
  return out;
}

}  // namespace perfbench
