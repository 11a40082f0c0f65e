// Service-level tests for the transaction monitor (TMF) and log writer
// (ADP): transaction state machine, audit flush semantics, group commit,
// LSN continuity across failover, PM-resident TCB recovery, and failure
// behaviour when the audit trail is unavailable.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "common/crc32.h"
#include "common/serialize.h"
#include "db/txn_client.h"
#include "nsk/cluster.h"
#include "pm/client.h"
#include "pm/manager.h"
#include "pm/npmu.h"
#include "sim/simulation.h"
#include "tp/kinds.h"
#include "tp/log_device.h"
#include "tp/tmf.h"
#include "workload/rig.h"

namespace ods::tp {
namespace {

using db::TxnClient;
using sim::Milliseconds;
using sim::Seconds;
using sim::SimTime;
using sim::Task;

class App : public nsk::NskProcess {
 public:
  using Body = std::function<Task<void>(App&)>;
  App(nsk::Cluster& cluster, int cpu, std::string name, Body body)
      : NskProcess(cluster, cpu, std::move(name)), body_(std::move(body)) {}

 protected:
  Task<void> Main() override { return body_(*this); }

 private:
  Body body_;
};

struct TmfAdpFixture : ::testing::Test {
  void Start(bool pm, bool pm_tcb = false) {
    rig.reset();
    sim.reset();
    sim = std::make_unique<sim::Simulation>(19);
    workload::RigConfig cfg;
    cfg.num_files = 2;
    cfg.partitions_per_file = 2;
    cfg.num_adps = 2;
    cfg.retain_log_image = true;
    if (pm) {
      cfg.log_medium = LogMedium::kPm;
      cfg.pm_device = workload::PmDeviceKind::kNpmuPair;
      cfg.pm_tcb = pm_tcb;
    }
    rig = std::make_unique<workload::Rig>(*sim, cfg);
    sim->RunFor(Seconds(1));
  }

  void RunApp(App::Body body, int cpu = 2) {
    done = false;
    sim->Adopt<App>(rig->cluster(), cpu, "app" + std::to_string(seq++),
                    [this, body = std::move(body)](App& self) -> Task<void> {
                      co_await body(self);
                      done = true;
                    });
    sim->RunFor(Seconds(120));
    EXPECT_TRUE(done) << "app did not finish";
  }

  std::unique_ptr<sim::Simulation> sim;
  std::unique_ptr<workload::Rig> rig;
  bool done = false;
  int seq = 0;
};

// ------------------------------------------------------------- TMF states

TEST_F(TmfAdpFixture, TxnStateMachine) {
  Start(false);
  RunApp([&](App& self) -> Task<void> {
    TxnClient client(self, rig->catalog());
    auto t1 = co_await client.Begin();
    EXPECT_TRUE(t1.ok());
    EXPECT_EQ(rig->tmf().StateOf(t1->id), TxnState::kActive);
    EXPECT_TRUE((co_await client.Insert(*t1, 0, 1,
                                        std::vector<std::byte>(16,
                                                               std::byte{1})))
                    .ok());
    EXPECT_TRUE((co_await client.Commit(*t1)).ok());
    EXPECT_EQ(rig->tmf().StateOf(t1->id), TxnState::kCommitted);

    auto t2 = co_await client.Begin();
    EXPECT_TRUE((co_await client.Insert(*t2, 0, 2,
                                        std::vector<std::byte>(16,
                                                               std::byte{2})))
                    .ok());
    EXPECT_TRUE((co_await client.Abort(*t2)).ok());
    EXPECT_EQ(rig->tmf().StateOf(t2->id), TxnState::kAborted);
  });
  EXPECT_EQ(rig->tmf().commits(), 1u);
  EXPECT_EQ(rig->tmf().aborts(), 1u);
}

TEST_F(TmfAdpFixture, CommitOfUnknownTxnRejected) {
  Start(false);
  Status st;
  RunApp([&](App& self) -> Task<void> {
    Serializer s;
    s.PutU64(0xDEAD);  // never begun
    s.PutU32(0);
    s.PutU32(0);
    auto r = co_await self.Call("$TMF", kTmfCommit, std::move(s).Take());
    st = r.ok() ? r->status : r.status();
  });
  EXPECT_EQ(st.code(), ErrorCode::kFailedPrecondition);
}

TEST_F(TmfAdpFixture, DoubleCommitRejected) {
  Start(false);
  RunApp([&](App& self) -> Task<void> {
    TxnClient client(self, rig->catalog());
    auto txn = co_await client.Begin();
    EXPECT_TRUE((co_await client.Insert(*txn, 0, 1,
                                        std::vector<std::byte>(16,
                                                               std::byte{1})))
                    .ok());
    EXPECT_TRUE((co_await client.Commit(*txn)).ok());
    auto again = co_await client.Commit(*txn);
    EXPECT_EQ(again.code(), ErrorCode::kFailedPrecondition);
  });
}

TEST_F(TmfAdpFixture, TxnIdsAreMonotonic) {
  Start(false);
  std::vector<std::uint64_t> ids;
  RunApp([&](App& self) -> Task<void> {
    TxnClient client(self, rig->catalog());
    for (int i = 0; i < 5; ++i) {
      auto txn = co_await client.Begin();
      EXPECT_TRUE(txn.ok());
      ids.push_back(txn->id);
      (void)co_await client.Abort(*txn);
    }
  });
  for (std::size_t i = 1; i < ids.size(); ++i) {
    EXPECT_GT(ids[i], ids[i - 1]);
  }
}

TEST_F(TmfAdpFixture, CommitFailsCleanlyWhenAuditUnavailable) {
  // Kill BOTH members of an ADP pair: transactions that logged there
  // must abort at commit, and the abort must leave the store consistent.
  Start(false);
  RunApp([&](App& self) -> Task<void> {
    TxnClient client(self, rig->catalog());
    // Find a key on each ADP: insert into both files to involve both.
    auto txn = co_await client.Begin();
    EXPECT_TRUE((co_await client.Insert(*txn, 0, 1,
                                        std::vector<std::byte>(16,
                                                               std::byte{1})))
                    .ok());
    EXPECT_TRUE((co_await client.Insert(*txn, 1, 2,
                                        std::vector<std::byte>(16,
                                                               std::byte{2})))
                    .ok());
    // Kill one ADP pair entirely.
    rig->adps()[1]->Kill();
    if (auto* peer = rig->adps()[1]->peer(); peer != nullptr) peer->Kill();
    auto st = co_await client.Commit(*txn);
    EXPECT_FALSE(st.ok()) << "commit must not succeed without its audit";
    EXPECT_EQ(rig->tmf().StateOf(txn->id), TxnState::kAborted);
    // The aborted writes must be invisible.
    auto check = co_await client.Begin();
    EXPECT_TRUE(check.ok());
    auto cv = co_await client.Read(*check, 0, 1);
    EXPECT_EQ(cv.status().code(), ErrorCode::kNotFound);
  });
}

// ---------------------------------------------------------- PM TCB / MTTR

TEST_F(TmfAdpFixture, PmTcbStateSurvivesPowerLoss) {
  Start(true, /*pm_tcb=*/true);
  std::uint64_t committed_id = 0, aborted_id = 0;
  RunApp([&](App& self) -> Task<void> {
    TxnClient client(self, rig->catalog());
    auto t1 = co_await client.Begin();
    EXPECT_TRUE((co_await client.Insert(*t1, 0, 1,
                                        std::vector<std::byte>(16,
                                                               std::byte{1})))
                    .ok());
    EXPECT_TRUE((co_await client.Commit(*t1)).ok());
    committed_id = t1->id;
    auto t2 = co_await client.Begin();
    (void)co_await client.Abort(*t2);
    aborted_id = t2->id;
  });
  rig->PowerLoss();
  sim->RunFor(Seconds(1));
  rig->RestartAfterPowerLoss();
  sim->RunFor(Seconds(20));

  // The recovered TMF must know both outcomes directly from the PM TCB
  // trail (no audit scan).
  EXPECT_EQ(rig->tmf().StateOf(committed_id), TxnState::kCommitted);
  EXPECT_EQ(rig->tmf().StateOf(aborted_id), TxnState::kAborted);
  EXPECT_LT(sim::ToMillisD(rig->tmf().last_recovery_time()), 5.0)
      << "PM TCB recovery is direct reads, not a scan";
}

TEST_F(TmfAdpFixture, ScanBasedTcbRecoveryAlsoWorksButSlower) {
  Start(false);
  std::uint64_t committed_id = 0;
  RunApp([&](App& self) -> Task<void> {
    TxnClient client(self, rig->catalog());
    auto t1 = co_await client.Begin();
    EXPECT_TRUE((co_await client.Insert(*t1, 0, 1,
                                        std::vector<std::byte>(16,
                                                               std::byte{1})))
                    .ok());
    EXPECT_TRUE((co_await client.Commit(*t1)).ok());
    committed_id = t1->id;
  });
  rig->PowerLoss();
  sim->RunFor(Seconds(1));
  rig->RestartAfterPowerLoss();
  sim->RunFor(Seconds(30));

  EXPECT_EQ(rig->tmf().StateOf(committed_id), TxnState::kCommitted);
  EXPECT_GT(sim::ToMillisD(rig->tmf().last_recovery_time()), 10.0)
      << "scan-based recovery pays the audit-trail search";
}

// ------------------------------------------------------------------- ADP

TEST_F(TmfAdpFixture, GroupCommitSharesFlushes) {
  // N concurrent committers against ONE audit trail must need far fewer
  // media flushes than N.
  Start(false);
  rig.reset();
  sim.reset();
  sim = std::make_unique<sim::Simulation>(19);
  workload::RigConfig cfg;
  cfg.num_files = 2;
  cfg.partitions_per_file = 2;
  cfg.num_adps = 1;  // one shared trail
  rig = std::make_unique<workload::Rig>(*sim, cfg);
  sim->RunFor(Seconds(1));

  constexpr int kApps = 8;
  constexpr int kTxns = 6;
  int finished = 0;
  for (int a = 0; a < kApps; ++a) {
    sim->Adopt<App>(rig->cluster(), a % 4, "app" + std::to_string(a),
                    [&, a](App& self) -> Task<void> {
                      TxnClient client(self, rig->catalog());
                      for (int t = 0; t < kTxns; ++t) {
                        auto txn = co_await client.Begin();
                        if (!txn.ok()) continue;
                        (void)co_await client.Insert(
                            *txn, 0,
                            static_cast<std::uint64_t>(a) * 1000 +
                                static_cast<std::uint64_t>(t),
                            std::vector<std::byte>(512, std::byte{1}));
                        (void)co_await client.Commit(*txn);
                      }
                      ++finished;
                    });
  }
  sim->RunFor(Seconds(120));
  EXPECT_EQ(finished, kApps);
  const std::uint64_t flushes = rig->adps()[0]->flushes();
  EXPECT_LT(flushes, static_cast<std::uint64_t>(kApps * kTxns))
      << "group commit must batch concurrent commit flushes";
  EXPECT_GT(flushes, 0u);
}

TEST_F(TmfAdpFixture, LsnsContinueAcrossFailover) {
  Start(true);
  RunApp([&](App& self) -> Task<void> {
    TxnClient client(self, rig->catalog());
    for (int i = 0; i < 3; ++i) {
      auto txn = co_await client.Begin();
      EXPECT_TRUE((co_await client.Insert(
                       *txn, 0, static_cast<std::uint64_t>(i),
                       std::vector<std::byte>(64, std::byte{1})))
                      .ok());
      EXPECT_TRUE((co_await client.Commit(*txn)).ok());
    }
  });
  const std::uint64_t lsn_before = rig->adps()[0]->next_lsn();
  ASSERT_GT(lsn_before, 1u);
  auto* backup = static_cast<AdpProcess*>(rig->adps()[0]->peer());
  ASSERT_NE(backup, nullptr);
  rig->KillAdpPrimary(0);
  sim->RunFor(Seconds(2));
  ASSERT_TRUE(backup->is_primary());
  EXPECT_GE(backup->next_lsn(), lsn_before)
      << "the promoted backup must not reissue LSNs";
}

// A batch whose second record is malformed is rejected whole: no record
// counted, no byte buffered, no LSN consumed. The next good batch then
// buffers normally.
TEST_F(TmfAdpFixture, RejectedAuditBatchChangesNothing) {
  Start(true);
  AdpProcess& adp = *rig->adps()[0];
  const std::vector<std::byte> image(64, std::byte{7});
  AuditRecordView rec;
  rec.txn = 77;
  rec.key = 1;
  rec.after_image = image;
  Serializer one;
  rec.SerializeInto(one);
  Serializer bad;
  bad.PutU32(2);
  bad.PutBlob(one.bytes());
  bad.PutBlob(std::span(one.bytes()).first(one.size() - 10));  // truncated

  const std::uint64_t records = adp.records_buffered();
  const std::uint64_t pending = adp.pending_bytes();
  const std::uint64_t lsn = adp.next_lsn();
  Status rejected, accepted;
  RunApp([&](App& self) -> Task<void> {
    auto r = co_await self.Call(adp.service_name(), kAdpBuffer,
                                std::move(bad).Take());
    rejected = r.ok() ? r->status : r.status();
  });
  EXPECT_EQ(rejected.code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(adp.records_buffered(), records);
  EXPECT_EQ(adp.pending_bytes(), pending);
  EXPECT_EQ(adp.next_lsn(), lsn);

  RunApp([&](App& self) -> Task<void> {
    auto r = co_await self.Call(adp.service_name(), kAdpBuffer,
                                EncodeAuditBatch(rec));
    accepted = r.ok() ? r->status : r.status();
  });
  EXPECT_TRUE(accepted.ok()) << accepted.ToString();
  EXPECT_EQ(adp.records_buffered(), records + 1);
  EXPECT_EQ(adp.pending_bytes(), pending + rec.WireSize());
  EXPECT_EQ(adp.next_lsn(), lsn + 1);
}

TEST_F(TmfAdpFixture, FlushLatencyMatchesMedium) {
  for (bool pm : {false, true}) {
    Start(pm);
    RunApp([&](App& self) -> Task<void> {
      TxnClient client(self, rig->catalog());
      for (int i = 0; i < 5; ++i) {
        auto txn = co_await client.Begin();
        EXPECT_TRUE((co_await client.Insert(
                         *txn, 0, static_cast<std::uint64_t>(i),
                         std::vector<std::byte>(1024, std::byte{1})))
                        .ok());
        EXPECT_TRUE((co_await client.Commit(*txn)).ok());
      }
    });
    double mean_us = 0;
    std::uint64_t n = 0;
    for (auto* adp : rig->adps()) {
      mean_us += adp->flush_latency().mean() *
                 static_cast<double>(adp->flush_latency().count());
      n += adp->flush_latency().count();
    }
    ASSERT_GT(n, 0u);
    mean_us = mean_us / static_cast<double>(n) / 1e3;
    if (pm) {
      EXPECT_LT(mean_us, 500.0) << "PM flush must be sub-millisecond";
    } else {
      EXPECT_GT(mean_us, 2000.0) << "disk flush pays rotational latency";
    }
  }
}

// ------------------------------------------------- torn-write durability

// A length/payload/crc frame exactly as the audit path lays them down.
std::vector<std::byte> MakeFrame(std::size_t payload_len, std::uint8_t fill) {
  std::vector<std::byte> payload(payload_len, static_cast<std::byte>(fill));
  Serializer s;
  s.PutU32(static_cast<std::uint32_t>(payload.size()));
  std::vector<std::byte> out = std::move(s).Take();
  out.insert(out.end(), payload.begin(), payload.end());
  Serializer c;
  c.PutU32(Crc32c(payload));
  std::vector<std::byte> crc = std::move(c).Take();
  out.insert(out.end(), crc.begin(), crc.end());
  return out;
}

struct TornAppendRun {
  std::uint64_t acked = 0;     // bytes of appends acknowledged durable
  std::uint64_t torn_len = 0;  // length of the append that tore (0 = none)
  std::uint64_t recovered_tail = 0;  // a fresh device's tail() afterwards
  Result<std::vector<std::byte>> log = std::vector<std::byte>{};
  std::vector<std::byte> ring;  // raw data ring, as recovery reads it
};

// Appends frames to a PM log with a `ring_bytes` data ring; from append
// `corrupt_from` on, fabric packets are corrupted at `rate` until an
// append tears (at most `max_appends` appends). Then "power fails" — the
// writer's tail is volatile and gone — and a fresh device instance
// recovers purely from the durable control block and ring contents.
TornAppendRun RunTornAppend(std::uint64_t seed, std::uint64_t ring_bytes,
                            int corrupt_from, int max_appends, double rate) {
  sim::Simulation sim(seed);
  nsk::ClusterConfig ccfg;
  ccfg.num_cpus = 4;
  nsk::Cluster cluster(sim, ccfg);
  pm::Npmu npmu_a(cluster.fabric(), "npmu-a");
  pm::Npmu npmu_b(cluster.fabric(), "npmu-b");
  auto& pmm_p = sim.AdoptStopped<pm::PmManager>(
      cluster, 0, "$PMM", "$PMM-P", pm::PmDevice(npmu_a), pm::PmDevice(npmu_b),
      "$PM1");
  auto& pmm_b = sim.AdoptStopped<pm::PmManager>(
      cluster, 1, "$PMM", "$PMM-B", pm::PmDevice(npmu_a), pm::PmDevice(npmu_b),
      "$PM1");
  pmm_p.SetPeer(&pmm_b);
  pmm_b.SetPeer(&pmm_p);
  pmm_p.Start();
  pmm_b.Start();

  PmLogConfig cfg;
  cfg.region_name = "torn-log";
  cfg.region_bytes = ring_bytes;
  TornAppendRun run;
  sim.Adopt<App>(cluster, 2, "writer", [&](App& self) -> Task<void> {
    PmLogDevice dev(cfg);
    EXPECT_TRUE((co_await dev.Open(self)).ok());
    // Each ~600B frame is several packets (data + control, plus a second
    // data extent on wrap); a corrupted packet anywhere tears the chain
    // at that point.
    for (int i = 0; i < max_appends && run.torn_len == 0; ++i) {
      if (i == corrupt_from) cluster.fabric().SetCorruptionRate(rate);
      std::vector<std::byte> frame =
          MakeFrame(600, static_cast<std::uint8_t>(i + 1));
      const std::uint64_t n = frame.size();
      auto st = co_await dev.Append(self, std::move(frame));
      if (st.ok()) {
        run.acked += n;
      } else {
        run.torn_len = n;  // power fails at the torn write
      }
    }
    cluster.fabric().SetCorruptionRate(0);
  });
  sim.RunFor(Seconds(30));
  if (run.torn_len == 0) {
    sim.Shutdown();
    return run;
  }
  sim.Adopt<App>(cluster, 3, "recover", [&](App& self) -> Task<void> {
    PmLogDevice dev(cfg);
    run.log = co_await dev.RecoverLog(self);
    run.recovered_tail = dev.tail();
    // The data ring sits behind the 64-byte control block.
    pm::PmClient client(self, "$PMM");
    auto region = co_await client.Open("torn-log");
    EXPECT_TRUE(region.ok()) << region.status().ToString();
    if (!region.ok()) co_return;
    auto ring = co_await region->Read(64, ring_bytes);
    EXPECT_TRUE(ring.ok()) << ring.status().ToString();
    if (ring.ok()) run.ring = std::move(*ring);
  });
  sim.RunFor(Seconds(30));
  sim.Shutdown();
  return run;
}

TEST(PmLogTornWrite, ControlBlockNeverDurableBeforeItsData) {
  // The §3.4 invariant: the control block rides the SAME chained RDMA op
  // as the data, and the chain aborts all later segments when a packet
  // fails its CRC check. Inject per-packet corruption until an append
  // tears mid-chain, then power fail and recover from the raw region:
  // every byte the durable tail covers must be a whole, valid frame.
  const TornAppendRun run =
      RunTornAppend(23, 1ull << 20, /*corrupt_from=*/0, 400, 0.04);
  ASSERT_GT(run.torn_len, 0u) << "corruption never tore an append";
  ASSERT_GT(run.acked, 0u);
  ASSERT_TRUE(run.log.ok()) << run.log.status().ToString();
  const std::vector<std::byte>& img = *run.log;
  // The invariant: the tail pointer is never durable before the data it
  // covers — the recovered prefix parses as whole valid frames, and no
  // acknowledged append is missing.
  EXPECT_EQ(ValidFramePrefix(img), img.size())
      << "durable tail covers bytes that never validly landed";
  EXPECT_GE(img.size(), run.acked) << "an acknowledged append was lost";

  // The same invariant when the torn append wraps the ring: six 608-byte
  // frames fill 3648 of a 4096-byte ring, so the seventh is one chain of
  // [448-byte head extent, 160-byte wrapped extent, control]. Only that
  // append runs under corruption; seeds whose seventh append survives are
  // skipped. The recovered tail is the last acked tail, or that plus the
  // torn append when the leg recovery reads (the primary) landed whole
  // while its mirror tore — never a tail the chain order cannot produce.
  // In the second case both wrapped extents must have landed before the
  // control block: the ring holds the whole torn frame.
  int torn_wraps = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const TornAppendRun wrap =
        RunTornAppend(seed, 4096, /*corrupt_from=*/6, 7, 0.25);
    if (wrap.torn_len == 0) continue;
    ++torn_wraps;
    ASSERT_EQ(wrap.acked, 6u * 608u) << "seed " << seed;
    EXPECT_TRUE(wrap.recovered_tail == wrap.acked ||
                wrap.recovered_tail == wrap.acked + wrap.torn_len)
        << "seed " << seed << ": recovered tail " << wrap.recovered_tail
        << ", acked " << wrap.acked << ", torn append " << wrap.torn_len;
    if (wrap.recovered_tail == wrap.acked + wrap.torn_len) {
      ASSERT_EQ(wrap.ring.size(), 4096u);
      std::vector<std::byte> frame(
          wrap.ring.begin() + static_cast<std::ptrdiff_t>(wrap.acked),
          wrap.ring.end());
      frame.insert(frame.end(), wrap.ring.begin(),
                   wrap.ring.begin() +
                       static_cast<std::ptrdiff_t>(wrap.torn_len - frame.size()));
      EXPECT_EQ(ValidFramePrefix(frame), wrap.torn_len)
          << "seed " << seed << ": control covers a torn wrapped extent";
    }
  }
  EXPECT_GT(torn_wraps, 0) << "corruption never tore a wrapping append";
}

// --------------------------------------------- failed ADP cold recovery

TEST(AdpColdRecovery, WrappedLogFailureIsCounted) {
  // A PM log ring small enough to wrap cannot be recovered after a power
  // loss ("log wrapped; full history not retained"). The ADP keeps
  // serving from a fresh tail, so the failure must at least be counted.
  sim::Simulation sim(19);
  workload::RigConfig cfg;
  cfg.num_files = 2;
  cfg.partitions_per_file = 2;
  cfg.num_adps = 1;
  cfg.log_medium = LogMedium::kPm;
  cfg.pm_device = workload::PmDeviceKind::kNpmuPair;
  cfg.pm_log_region_bytes = 4096;
  workload::Rig rig(sim, cfg);
  sim.RunFor(Seconds(1));

  int committed = 0;
  sim.Adopt<App>(rig.cluster(), 2, "app", [&](App& self) -> Task<void> {
    TxnClient client(self, rig.catalog());
    for (int i = 0; i < 12; ++i) {
      auto txn = co_await client.Begin();
      if (!txn.ok()) continue;
      if (!(co_await client.Insert(*txn, 0, static_cast<std::uint64_t>(i),
                                   std::vector<std::byte>(512, std::byte{1})))
               .ok()) {
        continue;
      }
      if ((co_await client.Commit(*txn)).ok()) ++committed;
    }
  });
  sim.RunFor(Seconds(30));
  ASSERT_EQ(committed, 12);
  ASSERT_GT(rig.adps()[0]->device().tail(), cfg.pm_log_region_bytes)
      << "the audit trail must have wrapped its ring";
  EXPECT_EQ(sim.metrics().FindCounter("adp.log_recovery_failures"), nullptr)
      << "no failure is registered before one happens";

  rig.PowerLoss();
  sim.RunFor(Seconds(1));
  rig.RestartAfterPowerLoss();
  sim.RunFor(Seconds(20));
  const Counter* failures =
      sim.metrics().FindCounter("adp.log_recovery_failures");
  ASSERT_NE(failures, nullptr);
  EXPECT_EQ(failures->value(), 1u);
}

}  // namespace
}  // namespace ods::tp
