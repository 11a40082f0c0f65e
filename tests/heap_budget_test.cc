// Heap-traffic budget for the commit path.
//
// A record's bytes travel from the client through DP2, the ADP and both
// backups. Message and checkpoint payloads are shared, immutable buffers
// (common/payload.h), so each hop should add only the copies its durable
// destination needs. This test pins that with a counting operator new:
// a per-hop copy that comes back multiplies the heap bytes allocated per
// committed user byte and fails the ceiling below, instead of showing up
// as a quiet host-time loss.
//
// Methodology: build and bring up a small hot-stock rig (not measured),
// then count every byte requested from operator new while the drivers
// run. EXPECTs stay outside the measured window.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "sim/simulation.h"
#include "workload/hot_stock.h"
#include "workload/rig.h"

namespace {

// Counting global operator new/delete. Only the byte total matters; the
// allocations themselves are forwarded to malloc/free.
std::uint64_t g_bytes = 0;

}  // namespace

void* operator new(std::size_t n) {
  g_bytes += n;
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  g_bytes += n;
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace ods::workload {
namespace {

// Measured at 22.3 heap bytes per committed user byte with shared
// payloads, plus 10%. Copying each message payload per hop and per retry
// attempt (payloads as plain byte vectors) measured 35.6.
constexpr double kMaxHeapBytesPerUserByte = 24.5;

TEST(HeapBudgetTest, HotStockHeapBytesPerCommittedUserByte) {
  sim::Simulation sim(11);
  RigConfig cfg;
  cfg.num_files = 2;
  cfg.partitions_per_file = 2;
  cfg.num_adps = 2;
  cfg.log_medium = tp::LogMedium::kPm;
  cfg.pm_device = PmDeviceKind::kNpmuPair;
  cfg.pm_tcb = true;
  cfg.retain_log_image = true;
  cfg.cluster.fabric.durability_mode = DurabilityMode::kNativeFlush;
  cfg.npmu.volatile_staging = true;
  Rig rig(sim, cfg);
  sim.RunFor(sim::Seconds(1));  // bring-up is not measured

  HotStockConfig hs;
  hs.drivers = 2;
  hs.inserts_per_txn = 8;
  hs.records_per_driver = 20 * 8;  // 20 boxcars per driver
  hs.record_bytes = 4096;

  const std::uint64_t before = g_bytes;
  const HotStockResult result = RunHotStock(rig, hs);
  const std::uint64_t allocated = g_bytes - before;

  ASSERT_EQ(result.TotalCommitted(), 2u * 20u);
  const double user_bytes = static_cast<double>(
      result.TotalCommitted() * static_cast<std::uint64_t>(hs.inserts_per_txn) *
      hs.record_bytes);
  const double per_user_byte = static_cast<double>(allocated) / user_bytes;
  RecordProperty("heap_bytes_per_user_byte", std::to_string(per_user_byte));
  EXPECT_LT(per_user_byte, kMaxHeapBytesPerUserByte)
      << allocated << " heap bytes for " << user_bytes
      << " committed user bytes";
}

}  // namespace
}  // namespace ods::workload
