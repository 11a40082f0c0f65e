// Scale-out placement and multi-log recovery tests.
//
// Part 1 pins the three ShardMap placement properties the sharded
// persistence plane is built on (pm/shard_map.h): the map is a pure
// function of (name, shard_count); load spreads within 20% of even; and
// growing the shard count moves only the regions the new shard wins —
// everything else keeps its owner, so a scale-out event does not
// reshuffle the plane.
//
// Part 2 is a crash sweep over the multi-log device (ShardedPmLogDevice):
// a writer stripes flushes over four shard pairs and is killed at every
// instrumented site of the final, unacked flush — the per-shard epoch
// commit boundaries ("shardlog:commit:s<k>") and the RDMA write acks the
// stripes ride on. Recovery must merge the per-shard streams and truncate
// at the first hole: the recovered image is a byte-exact prefix of the
// logical log, ends on a record boundary, and never loses an acked byte
// (the cross-shard form of invariants I1/I2/I4). Recovery is also durably
// idempotent, and the log must accept appends again afterwards.
#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "net/fabric.h"
#include "nsk/cluster.h"
#include "pm/manager.h"
#include "pm/npmu.h"
#include "pm/shard_map.h"
#include "sim/fault_plan.h"
#include "sim/simulation.h"
#include "tp/audit.h"
#include "tp/log_device.h"

namespace ods {
namespace {

using sim::Task;

// ------------------------------------------------------------ placement

std::string RegionName(int i) {
  // Shaped like the rig's real stream names so the balance numbers are
  // representative, not an artifact of toy keys.
  return "audit-$A" + std::to_string(i) + "-s0";
}

TEST(ShardMapPlacement, PureFunctionOfNameAndCount) {
  const pm::ShardMap a("$PMM", 4);
  const pm::ShardMap b("$PMM", 4);
  for (int i = 0; i < 1000; ++i) {
    const std::string name = RegionName(i);
    const int owner = a.ShardFor(name);
    ASSERT_GE(owner, 0);
    ASSERT_LT(owner, 4);
    EXPECT_EQ(owner, b.ShardFor(name)) << name;
    // The owner is derivable from the statics alone — no map state.
    const std::uint64_t h = pm::ShardMap::HashName(name);
    int best = 0;
    for (int s = 1; s < 4; ++s) {
      if (pm::ShardMap::Weight(h, s) > pm::ShardMap::Weight(h, best)) best = s;
    }
    EXPECT_EQ(owner, best) << name;
  }
}

TEST(ShardMapPlacement, ServiceNamingKeepsSingleShardLegacy) {
  const pm::ShardMap one("$PMM", 1);
  EXPECT_EQ(one.ServiceForShard(0), "$PMM");  // goldens depend on this
  EXPECT_EQ(one.ServiceFor("audit-$A0"), "$PMM");
  const pm::ShardMap four("$PMM", 4);
  EXPECT_EQ(four.ServiceForShard(0), "$PMM0");
  EXPECT_EQ(four.ServiceForShard(3), "$PMM3");
  const std::string name = RegionName(7);
  EXPECT_EQ(four.ServiceFor(name),
            four.ServiceForShard(four.ShardFor(name)));
}

TEST(ShardMapPlacement, BalancedWithinTwentyPercent) {
  constexpr int kNames = 10000;
  for (int shards : {2, 4, 8}) {
    const pm::ShardMap map("$PMM", shards);
    std::vector<int> count(static_cast<std::size_t>(shards), 0);
    for (int i = 0; i < kNames; ++i) {
      ++count[static_cast<std::size_t>(map.ShardFor(RegionName(i)))];
    }
    const double mean = static_cast<double>(kNames) / shards;
    for (int s = 0; s < shards; ++s) {
      EXPECT_GE(count[static_cast<std::size_t>(s)], mean * 0.8)
          << "shard " << s << "/" << shards << " underloaded";
      EXPECT_LE(count[static_cast<std::size_t>(s)], mean * 1.2)
          << "shard " << s << "/" << shards << " overloaded";
    }
  }
}

TEST(ShardMapPlacement, GrowthMovesOnlyWinnersOfTheNewShard) {
  constexpr int kNames = 10000;
  for (int n = 1; n < 8; ++n) {
    const pm::ShardMap old_map("$PMM", n);
    const pm::ShardMap new_map("$PMM", n + 1);
    int moved = 0;
    for (int i = 0; i < kNames; ++i) {
      const std::string name = RegionName(i);
      const int before = old_map.ShardFor(name);
      const int after = new_map.ShardFor(name);
      if (before != after) {
        // A region only ever moves TO the shard that joined; the old
        // shards' pairwise weight order is unchanged by growth.
        EXPECT_EQ(after, n) << name << " moved " << before << "->" << after
                            << " at " << n << "->" << n + 1;
        ++moved;
      }
    }
    // Rendezvous moves ~1/(n+1) of regions on growth. With 10k samples
    // the deviation is small; bound it loosely so the test pins the
    // property, not the hash.
    const double frac = static_cast<double>(moved) / kNames;
    const double want = 1.0 / (n + 1);
    EXPECT_GT(frac, want * 0.6) << n << "->" << n + 1;
    EXPECT_LT(frac, want * 1.5) << n << "->" << n + 1;
  }
}

// ---------------------------------------------- multi-log crash recovery

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

// One framed audit record big enough that an 8-record flush stripes
// across all four streams (cuts need >= kMinStripeBytes per stripe).
std::vector<std::byte> BigChunk(std::uint64_t lsn) {
  tp::AuditRecord r;
  r.lsn = lsn;
  r.txn = lsn;
  r.type = tp::AuditType::kUpdate;
  r.file_id = 1;
  r.key = lsn * 7;
  r.after_image.assign(63u << 10,
                       std::byte{static_cast<unsigned char>(lsn & 0xFF)});
  std::vector<std::byte> out;
  tp::FrameRecord(r, out);
  return out;
}

// gtest's ASSERT_* need a void function; inside a Task<void> coroutine we
// want "record the failure and bail" semantics instead.
#define ASSERT_CO(expr)                       \
  do {                                        \
    const Status _st = (expr);                \
    EXPECT_TRUE(_st.ok()) << _st.ToString();  \
    if (!_st.ok()) co_return;                 \
  } while (0)

struct TornFlushResult {
  std::vector<sim::FaultSite> trace;  // writer-phase fault sites
  std::optional<std::size_t> fired_at;
  std::size_t pre_final_sites = 0;  // sites reached before the torn flush
  std::uint64_t acked_tail = 0;     // bytes acked before the final flush
  bool final_acked = false;
  std::vector<std::byte> expected;          // full logical log, incl. final
  std::vector<std::uint64_t> boundaries;    // global record-end offsets
  bool recover_ok = false;
  std::string recover_err;
  std::vector<std::byte> recovered;
  bool idempotent = false;      // a second cold recovery returned the same
  bool post_append_ok = false;  // the log accepts appends again afterwards
};

// Builds a 4-shard persistence plane (four PMM pairs, each on its own
// NPMU pair), streams four 8-record flushes through a ShardedPmLogDevice,
// and — when `crash_index` is set — kills the writer at that fault site.
// A second process then cold-recovers the multi-log from the surviving
// NPMUs. Fully deterministic: a given crash_index replays byte-identically.
TornFlushResult RunTornFlushScenario(std::optional<std::size_t> crash_index) {
  constexpr int kShards = 4;
  constexpr int kFlushes = 4;  // the last one is the torn candidate
  TornFlushResult out;

  sim::Simulation sim(17);
  nsk::ClusterConfig ccfg;
  ccfg.num_cpus = 4;
  nsk::Cluster cluster(sim, ccfg);
  const pm::ShardMap map("$PMM", kShards);

  std::vector<std::unique_ptr<pm::Npmu>> npmus;
  for (int s = 0; s < kShards; ++s) {
    const std::string suffix = "-s" + std::to_string(s);
    pm::Npmu& a = *npmus.emplace_back(
        std::make_unique<pm::Npmu>(cluster.fabric(), "npmu-a" + suffix));
    pm::Npmu& b = *npmus.emplace_back(
        std::make_unique<pm::Npmu>(cluster.fabric(), "npmu-b" + suffix));
    const std::string service = map.ServiceForShard(s);
    auto* p = &sim.AdoptStopped<pm::PmManager>(
        cluster, s % ccfg.num_cpus, service, service + "-P", pm::PmDevice(a),
        pm::PmDevice(b), "$PM1-" + std::to_string(s),
        pm::ShardIdentity{static_cast<std::uint32_t>(s), kShards});
    auto* bk = &sim.AdoptStopped<pm::PmManager>(
        cluster, (s + 1) % ccfg.num_cpus, service, service + "-B",
        pm::PmDevice(a), pm::PmDevice(b), "$PM1-" + std::to_string(s),
        pm::ShardIdentity{static_cast<std::uint32_t>(s), kShards});
    p->SetPeer(bk);
    bk->SetPeer(p);
    p->Start();
    bk->Start();
  }

  sim::FaultPlan plan;
  sim.set_fault_plan(&plan);

  tp::ShardedPmLogConfig dcfg;
  dcfg.map = map;
  dcfg.region_prefix = "audit-T-s";
  dcfg.region_bytes = 2ull << 20;

  // The flush's bytes, its record-boundary marks (one per chunk), and
  // its contribution to the logical log.
  struct Flush {
    std::vector<std::byte> bytes;
    std::vector<std::uint64_t> marks;
  };
  auto build_flush = [&](int f) {
    Flush flush;
    for (int c = 0; c < 8; ++c) {
      const std::vector<std::byte> chunk =
          BigChunk(1 + static_cast<std::uint64_t>(f) * 8 +
                   static_cast<std::uint64_t>(c));
      flush.bytes.insert(flush.bytes.end(), chunk.begin(), chunk.end());
      flush.marks.push_back(flush.bytes.size());
      out.expected.insert(out.expected.end(), chunk.begin(), chunk.end());
      out.boundaries.push_back(out.expected.size());
    }
    return flush;
  };
  auto append = [&](tp::ShardedPmLogDevice& dev, TestProcess& self,
                    Flush flush) {
    return dev.Append(self, std::move(flush.bytes), std::move(flush.marks));
  };

  TestProcess& writer = sim.Adopt<TestProcess>(
      cluster, 0, "writer", [&](TestProcess& self) -> Task<void> {
        tp::ShardedPmLogDevice dev(dcfg);
        ASSERT_CO(co_await dev.Open(self));
        for (int f = 0; f < kFlushes - 1; ++f) {
          ASSERT_CO(co_await append(dev, self, build_flush(f)));
          out.acked_tail = dev.tail();
        }
        out.pre_final_sites = plan.sites_reached();
        const Status st =
            co_await append(dev, self, build_flush(kFlushes - 1));
        out.final_acked = st.ok();
      });
  if (crash_index.has_value()) {
    plan.ArmAt(*crash_index,
               [&writer](const sim::FaultSite&) { writer.Kill(); });
  }
  sim.Run();
  out.trace = plan.trace();
  out.fired_at = plan.fired_at();
  sim.set_fault_plan(nullptr);

  // Cold recovery against the surviving NPMUs/PMMs, three times over:
  // recover, recover again (durable idempotence — the truncation was
  // written back), then append and recover once more (the erased stale
  // stripes cannot conflict with the new bytes).
  sim.Adopt<TestProcess>(
      cluster, 1, "recover", [&](TestProcess& self) -> Task<void> {
        tp::ShardedPmLogDevice fresh(dcfg);
        auto log = co_await fresh.RecoverLog(self);
        if (!log.ok()) {
          out.recover_err = log.status().ToString();
          co_return;
        }
        out.recover_ok = true;
        out.recovered = *log;

        tp::ShardedPmLogDevice again(dcfg);
        auto log2 = co_await again.RecoverLog(self);
        out.idempotent = log2.ok() && *log2 == out.recovered;
        if (!out.idempotent) co_return;

        const std::vector<std::byte> extra = BigChunk(999);
        if (!(co_await again.Append(self, extra)).ok()) co_return;
        tp::ShardedPmLogDevice third(dcfg);
        auto log3 = co_await third.RecoverLog(self);
        std::vector<std::byte> want = out.recovered;
        want.insert(want.end(), extra.begin(), extra.end());
        out.post_append_ok = log3.ok() && *log3 == want;
      });
  sim.Run();
  sim.Shutdown();
  return out;
}

TEST(ShardedLogRecovery, RecordPassRecoversTheFullLog) {
  TornFlushResult r = RunTornFlushScenario(std::nullopt);
  ASSERT_TRUE(r.final_acked);
  ASSERT_TRUE(r.recover_ok) << r.recover_err;
  EXPECT_EQ(r.recovered, r.expected);
  EXPECT_TRUE(r.idempotent);
  EXPECT_TRUE(r.post_append_ok);
  EXPECT_FALSE(r.fired_at.has_value());
  // The epoch-commit boundary of every stream is instrumented — the
  // sweep below gets real cross-shard coverage.
  std::set<std::string> labels;
  for (const auto& s : r.trace) labels.insert(s.label);
  for (int s = 0; s < 4; ++s) {
    EXPECT_TRUE(labels.count("shardlog:commit:s" + std::to_string(s)))
        << "stream " << s << " never committed a stripe";
  }
  // The torn-candidate window must contain sites to sweep.
  ASSERT_GT(r.trace.size(), r.pre_final_sites);
}

TEST(ShardedLogRecovery, RecordPassIsDeterministic) {
  TornFlushResult a = RunTornFlushScenario(std::nullopt);
  TornFlushResult b = RunTornFlushScenario(std::nullopt);
  ASSERT_EQ(a.trace.size(), b.trace.size());
  EXPECT_EQ(a.trace, b.trace);
  EXPECT_EQ(a.recovered, b.recovered);
}

TEST(ShardedLogRecovery, TornFlushSweepHoldsInvariants) {
  const TornFlushResult record = RunTornFlushScenario(std::nullopt);
  ASSERT_TRUE(record.recover_ok) << record.recover_err;
  ASSERT_GT(record.trace.size(), record.pre_final_sites);

  const std::set<std::uint64_t> boundaries(record.boundaries.begin(),
                                           record.boundaries.end());
  // Kill the writer at a stride of sites across the final flush: the
  // per-shard epoch-commit boundaries and the RDMA acks between them.
  // (Earlier sites would tear an *acked* flush, which the serial flush
  // loop makes impossible in the real ADP.)
  const std::size_t stride = 5;
  for (std::size_t i = record.pre_final_sites; i < record.trace.size();
       i += stride) {
    TornFlushResult r = RunTornFlushScenario(i);
    SCOPED_TRACE("crash @ site " + std::to_string(i) + " (" +
                 record.trace[i].ToString() + ")");
    // The pre-crash prefix replays the record pass exactly.
    ASSERT_TRUE(r.fired_at.has_value());
    EXPECT_EQ(*r.fired_at, i);
    for (std::size_t k = 0; k <= i && k < r.trace.size(); ++k) {
      ASSERT_EQ(r.trace[k], record.trace[k]) << "diverged at site " << k;
    }
    // I1 holds inside RecoverLog (stream epoch == committed frame
    // count per shard, else it returns kDataLoss) — so ok() is itself
    // the cross-shard epoch consistency check.
    ASSERT_TRUE(r.recover_ok) << r.recover_err;
    // I4: every byte acked before the torn flush survives.
    EXPECT_GE(r.recovered.size(), r.acked_tail);
    // The merge is a byte-exact prefix of the logical log...
    ASSERT_LE(r.recovered.size(), record.expected.size());
    EXPECT_TRUE(std::equal(r.recovered.begin(), r.recovered.end(),
                           record.expected.begin()))
        << "recovered image is not a prefix of the logical log";
    // ...that ends on a record boundary (stripe cuts snap to record
    // cohorts, and truncation lands on a stripe edge or the acked tail).
    EXPECT_TRUE(r.recovered.empty() || boundaries.count(r.recovered.size()))
        << "recovered tail " << r.recovered.size()
        << " is not a record boundary";
    // Every whole record in the image parses back.
    tp::LogScanner scan(r.recovered);
    std::size_t n = 0;
    while (scan.Next().has_value()) ++n;
    EXPECT_EQ(scan.offset(), r.recovered.size());
    EXPECT_EQ(n * (BigChunk(1).size()), r.recovered.size());
    // Truncation was written back durably, and the log is writable again.
    EXPECT_TRUE(r.idempotent);
    EXPECT_TRUE(r.post_append_ok);
  }
}

// A one-shard plane with a 4096-byte stream ring. A 6000-byte flush at
// stream position 3012 (one 3000-byte frame already there) is one
// 6012-byte stripe whose wrapped extent would run past the region end.
// Each attempt sends the 1084-byte head extent to both mirrors and then
// fails; the retry on the "next" stream is the same stream and fails the
// same way, so the flush poisons the device: later appends fail without
// touching the fabric, and the durable log still ends at the acked tail.
TEST(ShardedLogOversize, StripePastTheRegionEndPoisonsTheDevice) {
  sim::Simulation sim(5);
  nsk::ClusterConfig ccfg;
  ccfg.num_cpus = 4;
  nsk::Cluster cluster(sim, ccfg);
  const pm::ShardMap map("$PMM", 1);
  pm::Npmu a(cluster.fabric(), "npmu-a");
  pm::Npmu b(cluster.fabric(), "npmu-b");
  const std::string service = map.ServiceForShard(0);
  auto& p = sim.AdoptStopped<pm::PmManager>(
      cluster, 0, service, service + "-P", pm::PmDevice(a), pm::PmDevice(b),
      "$PM1-0", pm::ShardIdentity{0, 1});
  auto& bk = sim.AdoptStopped<pm::PmManager>(
      cluster, 1, service, service + "-B", pm::PmDevice(a), pm::PmDevice(b),
      "$PM1-0", pm::ShardIdentity{0, 1});
  p.SetPeer(&bk);
  bk.SetPeer(&p);
  p.Start();
  bk.Start();

  tp::ShardedPmLogConfig dcfg;
  dcfg.map = map;
  dcfg.region_prefix = "audit-O-s";
  dcfg.region_bytes = 4096;
  auto fill = [](std::size_t n, std::uint8_t v) {
    return std::vector<std::byte>(n, std::byte{v});
  };

  bool done = false;
  sim.Adopt<TestProcess>(
      cluster, 2, "writer", [&](TestProcess& self) -> Task<void> {
        tp::ShardedPmLogDevice dev(dcfg);
        ASSERT_CO(co_await dev.Open(self));
        ASSERT_CO(co_await dev.Append(self, fill(3000, 1)));

        const net::Fabric& fabric = cluster.fabric();
        const std::uint64_t ops0 = fabric.rdma_write_ops();
        const Status st = co_await dev.Append(self, fill(6000, 2));
        EXPECT_EQ(st.code(), ErrorCode::kOutOfRange) << st.ToString();
        // Two attempts, each one head-extent write per mirror.
        EXPECT_EQ(fabric.rdma_write_ops() - ops0, 4u);
        EXPECT_EQ(dev.tail(), 3000u);

        const std::uint64_t ops1 = fabric.rdma_write_ops();
        const Status later = co_await dev.Append(self, fill(100, 3));
        EXPECT_EQ(later.code(), ErrorCode::kOutOfRange) << later.ToString();
        EXPECT_EQ(fabric.rdma_write_ops(), ops1);
        EXPECT_EQ(dev.tail(), 3000u);

        tp::ShardedPmLogDevice fresh(dcfg);
        auto log = co_await fresh.RecoverLog(self);
        EXPECT_TRUE(log.ok()) << log.status().ToString();
        if (log.ok()) EXPECT_EQ(*log, fill(3000, 1));
        done = true;
      });
  sim.Run();
  sim.Shutdown();
  EXPECT_TRUE(done);
}

}  // namespace
}  // namespace ods
