// Log-append wire accounting: what tp::PmLogDevice::Append puts on the
// fabric, checked against the fabric's own packet counters. Every append
// is one chained write per mirror, [data extent(s)..., control block], so
// the packet and op counts follow from the append sizes alone.
//
// The arithmetic being verified (FabricConfig defaults, mtu = 512):
//   * every mirrored write is TWO chained RDMA ops (primary + mirror),
//     each counting once in rdma_write_ops;
//   * a chain's packet count is the sum over its segments of
//     ceil(len/mtu);
//   * an append that fits the ring is one chain of [data, 16B control],
//     so 2 * (ceil(n/mtu) + 1) packets per append;
//   * an append that wraps is one chain of [head extent, wrapped extent,
//     16B control]: still 2 ops, 2 * (ceil(a/mtu) + ceil(b/mtu) + 1)
//     packets;
//   * ops round-robin over the two healthy rails, so mirror pairs split
//     evenly and the per-rail packet counters balance exactly.
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/serialize.h"
#include "net/fabric.h"
#include "nsk/cluster.h"
#include "pm/client.h"
#include "pm/manager.h"
#include "pm/npmu.h"
#include "sim/simulation.h"
#include "tp/log_device.h"

namespace ods {
namespace {

using sim::Task;

class TestProcess : public nsk::NskProcess {
 public:
  using Body = std::function<Task<void>(TestProcess&)>;
  TestProcess(nsk::Cluster& cluster, int cpu, std::string name, Body body)
      : NskProcess(cluster, cpu, std::move(name)), body_(std::move(body)) {}

 protected:
  Task<void> Main() override { return body_(*this); }

 private:
  Body body_;
};

struct FabricSnapshot {
  std::uint64_t write_ops = 0;
  std::uint64_t write_packets = 0;
  std::uint64_t read_packets = 0;
  std::uint64_t rail0 = 0;
  std::uint64_t rail1 = 0;

  static FabricSnapshot Take(const net::Fabric& f) {
    return {f.rdma_write_ops(), f.write_packets(), f.read_packets(),
            f.rail_packets(0), f.rail_packets(1)};
  }
};

// Packets for one leg of `n` bytes at the default 512-byte MTU.
constexpr std::uint64_t Pkts(std::uint64_t n) { return (n + 511) / 512; }

std::vector<std::byte> Fill(std::size_t n, std::uint8_t v) {
  return std::vector<std::byte>(n, static_cast<std::byte>(v));
}

// PMM pair + mirrored NPMUs, probe process on CPU 2 (pm_test's rig).
struct LogAppendWireFixture : ::testing::Test {
  LogAppendWireFixture()
      : sim(23), cluster(sim, MakeConfig()),
        npmu_a(cluster.fabric(), "npmu-a"),
        npmu_b(cluster.fabric(), "npmu-b") {
    auto& pmm_p = sim.AdoptStopped<pm::PmManager>(
        cluster, 0, "$PMM", "$PMM-P", pm::PmDevice(npmu_a),
        pm::PmDevice(npmu_b), "$PM1");
    auto& pmm_b = sim.AdoptStopped<pm::PmManager>(
        cluster, 1, "$PMM", "$PMM-B", pm::PmDevice(npmu_a),
        pm::PmDevice(npmu_b), "$PM1");
    pmm_p.SetPeer(&pmm_b);
    pmm_b.SetPeer(&pmm_p);
    pmm_p.Start();
    pmm_b.Start();
  }

  ~LogAppendWireFixture() override { sim.Shutdown(); }

  static nsk::ClusterConfig MakeConfig() {
    nsk::ClusterConfig c;
    c.num_cpus = 4;
    return c;
  }

  sim::Simulation sim;
  nsk::Cluster cluster;
  pm::Npmu npmu_a;
  pm::Npmu npmu_b;
};

TEST_F(LogAppendWireFixture, EveryAppendIsOneChainPerMirror) {
  const std::uint64_t sizes[] = {100, 512, 513, 4096, 8000};
  bool done = false;
  sim.Adopt<TestProcess>(cluster, 2, "probe",
                         [&](TestProcess& self) -> Task<void> {
    tp::PmLogConfig cfg;
    cfg.region_name = "audit-chain";
    cfg.region_bytes = 1 << 20;
    tp::PmLogDevice dev(cfg);
    EXPECT_TRUE((co_await dev.Open(self)).ok());

    const auto before = FabricSnapshot::Take(cluster.fabric());
    std::uint64_t expect_packets = 0;
    for (std::uint64_t n : sizes) {
      EXPECT_TRUE((co_await dev.Append(self, Fill(n, 0x5A))).ok());
      // One chain per mirror: data segment + 16-byte control segment.
      expect_packets += 2 * (Pkts(n) + 1);
    }
    const auto after = FabricSnapshot::Take(cluster.fabric());

    EXPECT_EQ(after.write_ops - before.write_ops, 2 * std::size(sizes));
    EXPECT_EQ(after.write_packets - before.write_packets, expect_packets);
    EXPECT_EQ(after.read_packets, before.read_packets);  // write-only phase
    // Primary and mirror chains of one append are the same size and land
    // on alternating rails, so the rail counters advance in lockstep.
    EXPECT_EQ(after.rail0 - before.rail0, expect_packets / 2);
    EXPECT_EQ(after.rail1 - before.rail1, expect_packets / 2);
    done = true;
  });
  sim.Run();
  EXPECT_TRUE(done);
}

TEST_F(LogAppendWireFixture, RingWrapIsStillOneChainPerMirror) {
  bool done = false;
  sim.Adopt<TestProcess>(cluster, 2, "probe",
                         [&](TestProcess& self) -> Task<void> {
    tp::PmLogConfig cfg;
    cfg.region_name = "audit-wrap";
    cfg.region_bytes = 4096;  // tiny ring so the second append wraps
    tp::PmLogDevice dev(cfg);
    EXPECT_TRUE((co_await dev.Open(self)).ok());

    EXPECT_TRUE((co_await dev.Append(self, Fill(3000, 1))).ok());
    // Wraps (3000 + 2000 > 4096): extents of 1096 and 904 bytes, then
    // the control block, all in one chain per mirror.
    const auto before = FabricSnapshot::Take(cluster.fabric());
    EXPECT_TRUE((co_await dev.Append(self, Fill(2000, 2))).ok());
    const auto after = FabricSnapshot::Take(cluster.fabric());
    EXPECT_EQ(dev.tail(), 5000u);

    EXPECT_EQ(after.write_ops - before.write_ops, 2u);
    EXPECT_EQ(after.write_packets - before.write_packets,
              2 * (Pkts(1096) + Pkts(904) + 1));

    // The extents landed where the ring puts them: the head up to the
    // ring end, the rest at the ring base (region offset 64), and the
    // control block covers both.
    pm::PmClient client(self, "$PMM");
    auto region = co_await client.Open("audit-wrap");
    EXPECT_TRUE(region.ok()) << region.status().ToString();
    if (!region.ok()) co_return;
    auto image = co_await region->Read(0, 64 + 4096);
    EXPECT_TRUE(image.ok());
    if (!image.ok()) co_return;
    const auto at = [&](std::size_t off) {
      return std::to_integer<int>((*image)[64 + off]);
    };
    EXPECT_EQ(at(0), 2);
    EXPECT_EQ(at(903), 2);
    EXPECT_EQ(at(904), 1);
    EXPECT_EQ(at(2999), 1);
    EXPECT_EQ(at(3000), 2);
    EXPECT_EQ(at(4095), 2);
    Deserializer d(*image);
    std::uint32_t magic = 0;
    std::uint64_t tail = 0;
    EXPECT_TRUE(d.GetU32(magic) && d.GetU64(tail));
    EXPECT_EQ(tail, 5000u);
    done = true;
  });
  sim.Run();
  EXPECT_TRUE(done);
}

TEST_F(LogAppendWireFixture, AppendPastTheRegionEndFailsWithoutMovingTheTail) {
  // 6000 bytes at ring position 3000 of a 4096-byte ring: the wrapped
  // extent (4904 bytes) would run past the region end. The head extent
  // (1096 bytes) still goes out to both mirrors, then the append fails;
  // the control block is never written, so the durable tail stays put.
  bool done = false;
  sim.Adopt<TestProcess>(cluster, 2, "probe",
                         [&](TestProcess& self) -> Task<void> {
    tp::PmLogConfig cfg;
    cfg.region_name = "audit-oversize";
    cfg.region_bytes = 4096;
    tp::PmLogDevice dev(cfg);
    EXPECT_TRUE((co_await dev.Open(self)).ok());
    EXPECT_TRUE((co_await dev.Append(self, Fill(3000, 1))).ok());

    const auto before = FabricSnapshot::Take(cluster.fabric());
    auto st = co_await dev.Append(self, Fill(6000, 2));
    const auto after = FabricSnapshot::Take(cluster.fabric());
    EXPECT_EQ(st.code(), ErrorCode::kOutOfRange) << st.ToString();
    EXPECT_EQ(after.write_ops - before.write_ops, 2u);
    EXPECT_EQ(after.write_packets - before.write_packets, 2 * Pkts(1096));
    EXPECT_EQ(dev.tail(), 3000u);

    tp::PmLogDevice fresh(cfg);
    auto log = co_await fresh.RecoverLog(self);
    EXPECT_TRUE(log.ok()) << log.status().ToString();
    EXPECT_EQ(fresh.tail(), 3000u);

    // A ring-sized append still fits, wrapped.
    EXPECT_TRUE((co_await dev.Append(self, Fill(4096, 3))).ok());
    EXPECT_EQ(dev.tail(), 7096u);
    done = true;
  });
  sim.Run();
  EXPECT_TRUE(done);
}

}  // namespace
}  // namespace ods
