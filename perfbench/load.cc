#include "load.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <string>
#include <tuple>
#include <utility>

#include "common/keyhash.h"
#include "common/rng.h"
#include "common/trace.h"
#include "db/txn_client.h"
#include "sim/sync.h"
#include "workload/scenario.h"

namespace perfbench {

using namespace ods;
using sim::SimTime;
using sim::Task;

namespace {

// ---- workload parameters (NOTES.md says why each was chosen) ----

// hotstock: the paper's §4.3 load, 4 closed-loop drivers, boxcar 8.
constexpr int kHotDrivers = 4;
constexpr int kHotTxnsPerDriver = 250;  // 2000 records per driver
constexpr int kBoxcar = 8;
// Trade sizes are drawn per record around the paper's 4 KiB.
constexpr std::uint32_t kTradeMinBytes = 3584;
constexpr std::uint32_t kTradeMaxBytes = 4608;
constexpr sim::SimDuration kPerRecordCpu = sim::Microseconds(15);

// openloop: Poisson fleet with a diurnal swell and a flash spike.
constexpr int kFleetDrivers = 256;
constexpr double kFleetRateHz = 20.0;
constexpr double kFleetWindowS = 1.0;
constexpr double kDiurnalAmplitude = 0.5;
constexpr double kSpikeFactor = 2.5;
constexpr double kSpikeStartS = 0.5 * kFleetWindowS;
constexpr double kSpikeLengthS = 0.125 * kFleetWindowS;
constexpr int kFleetInFlight = 4;

// zipf_oltp: read/write mix over a shared, preloaded keyspace.
constexpr int kOltpDrivers = 8;
constexpr double kOltpWindowS = 3.0;  // drivers start txns this long
constexpr int kOltpOps = 4;
constexpr double kOltpReadFraction = 0.5;
constexpr double kOltpTheta = 0.8;
constexpr std::uint64_t kOltpKeysPerFile = 400;
constexpr std::uint32_t kOltpRecordBytes = 256;
constexpr sim::SimDuration kOltpOpCpu = sim::Microseconds(5);
constexpr std::uint64_t kOltpMaxAttempts = 16;
constexpr std::uint64_t kOltpBackoffUs = 1000;  // doubles per retry, to 16 ms
constexpr std::uint64_t kBackoffStream = 0x6261636b6f6666ull;

constexpr std::uint64_t kProbeKey = 0xFFFF0001ull;
constexpr std::uint32_t kProbeBytes = 128;

// A benchmark-side NSK process running one coroutine body.
class Client : public nsk::NskProcess {
 public:
  using Body = std::function<Task<void>(Client&)>;
  Client(nsk::Cluster& cluster, int cpu, std::string name, Body body)
      : NskProcess(cluster, cpu, std::move(name)), body_(std::move(body)) {}

 protected:
  Task<void> Main() override { return body_(*this); }

 private:
  Body body_;
};

// Values carry a tag in their first 8 bytes so a stale version of a
// record is told apart from the committed one.
std::vector<std::byte> MakeValue(std::uint32_t length, std::uint64_t tag) {
  std::vector<std::byte> v(length, static_cast<std::byte>(tag & 0xffu));
  std::memcpy(v.data(), &tag, sizeof tag);
  return v;
}

struct Trade {
  std::uint32_t file;
  std::uint64_t key;
  std::uint32_t length;
};

// One boxcar of trades: op i goes to file i % files, keys are the
// driver's next ones, sizes are drawn from the driver's stream.
std::vector<Trade> DrawTrades(Rng& rng, std::uint64_t& next_key, int files) {
  std::vector<Trade> trades(kBoxcar);
  for (int i = 0; i < kBoxcar; ++i) {
    trades[static_cast<std::size_t>(i)] = Trade{
        static_cast<std::uint32_t>(i % files), next_key++,
        kTradeMinBytes + static_cast<std::uint32_t>(
                             rng.Below(kTradeMaxBytes - kTradeMinBytes + 1))};
  }
  return trades;
}

void NoteCommit(Client& self, Ledger& ledger, std::uint64_t txn_id,
                SimTime due) {
  const SimTime now = self.sim().Now();
  ++ledger.committed;
  ledger.due_ns.push_back(due.ns);
  ledger.response_ns.push_back((now - due).ns);
  // The workload-layer span; the stack below records its own.
  if (Tracer* tr = self.sim().tracer(); tr != nullptr && tr->enabled()) {
    tr->Complete(TraceLane::kWorkload, "txn", due.ns, now.ns, txn_id);
  }
}

Task<void> CommitTrades(Client& self, db::TxnClient& client,
                        std::vector<Trade> trades, SimTime due,
                        Ledger& ledger) {
  ++ledger.attempted;
  auto txn = co_await client.Begin();
  if (!txn.ok()) {
    ++ledger.failed;
    co_return;
  }
  co_await self.Compute(kPerRecordCpu * static_cast<std::int64_t>(trades.size()));
  std::vector<db::TxnClient::InsertOp> ops;
  ops.reserve(trades.size());
  for (const Trade& t : trades) {
    ops.push_back({t.file, t.key, MakeValue(t.length, t.key)});
  }
  Status st = co_await client.InsertMany(*txn, std::move(ops));
  if (!st.ok()) {
    (void)co_await client.Abort(*txn);
    ++ledger.failed;
    co_return;
  }
  if (!(co_await client.Commit(*txn)).ok()) {
    ++ledger.failed;
    co_return;
  }
  for (const Trade& t : trades) {
    ledger.expected[tp::LockKey{t.file, t.key}] = Expected{t.length, t.key};
    ledger.user_bytes += t.length;
  }
  NoteCommit(self, ledger, txn->id, due);
}

// ---- hotstock: closed loop, next transaction after the previous commit

Client::Body HotStockDriver(int d, std::uint64_t seed, const db::Catalog& cat,
                            Ledger& ledger, sim::Latch& done) {
  return [d, seed, &cat, &ledger, &done](Client& self) -> Task<void> {
    Rng rng = Rng::ForStream(seed, static_cast<std::uint64_t>(d));
    db::TxnClient client(self, cat);
    std::uint64_t next_key = (static_cast<std::uint64_t>(d) << 40) + 1;
    for (int t = 0; t < kHotTxnsPerDriver; ++t) {
      co_await CommitTrades(self, client,
                            DrawTrades(rng, next_key, cat.num_files()),
                            self.sim().Now(), ledger);
    }
    ledger.finish = std::max(ledger.finish, self.sim().Now());
    done.Arrive();
  };
}

// ---- openloop: arrivals on a schedule, drained by a few workers -------

struct Arrival {
  SimTime due;
  std::vector<Trade> trades;
};

double FleetRateAt(double t_s) {
  double rate = kFleetRateHz *
                (1.0 + kDiurnalAmplitude *
                           std::sin(2.0 * 3.14159265358979323846 * t_s /
                                    kFleetWindowS));
  if (t_s >= kSpikeStartS && t_s < kSpikeStartS + kSpikeLengthS) {
    rate *= kSpikeFactor;
  }
  return rate;
}

// The fleet's arrival schedule, drawn before the run. The offered load
// follows FleetRateAt exactly at 1 ms resolution: each bin gets the rounded
// increase of the fleet's cumulative expected count, each arrival lands at
// a uniform instant in its bin on a uniformly drawn driver. Seeds differ
// only in that fine-grained timing and placement. With independent Poisson
// drivers, a seed put a few percent more or less load into the spike, and
// the p99 behind that backlog moved between 37 and 64 ms.
std::vector<std::vector<Arrival>> PlanFleet(std::uint64_t seed, int files,
                                            SimTime start) {
  constexpr int kBins = 1000;
  const double bin_s = kFleetWindowS / kBins;
  Rng rng = Rng::ForStream(seed, kFleetDrivers);  // the fleet's own stream
  std::vector<std::vector<std::int64_t>> at_ns(kFleetDrivers);
  double expected = 0;
  std::int64_t issued = 0;
  for (int b = 0; b < kBins; ++b) {
    expected += kFleetDrivers * FleetRateAt((b + 0.5) * bin_s) * bin_s;
    for (; issued < std::llround(expected); ++issued) {
      const std::uint64_t d = rng.Below(kFleetDrivers);
      at_ns[d].push_back(
          static_cast<std::int64_t>((b + rng.NextDouble()) * bin_s * 1e9));
    }
  }
  std::vector<std::vector<Arrival>> plans(kFleetDrivers);
  for (int d = 0; d < kFleetDrivers; ++d) {
    auto& times = at_ns[static_cast<std::size_t>(d)];
    std::sort(times.begin(), times.end());
    Rng sizes = Rng::ForStream(seed, static_cast<std::uint64_t>(d));
    std::uint64_t next_key = (static_cast<std::uint64_t>(d) << 40) + 1;
    for (const std::int64_t t : times) {
      plans[static_cast<std::size_t>(d)].push_back(Arrival{
          start + sim::Nanoseconds(t), DrawTrades(sizes, next_key, files)});
    }
  }
  return plans;
}

Task<void> FleetWorker(Client& self, db::TxnClient& client,
                       const std::vector<Arrival>& plan, std::size_t& next,
                       Ledger& ledger, sim::Latch& workers) {
  while (next < plan.size()) {
    const Arrival& a = plan[next++];
    if (a.due > self.sim().Now()) co_await self.Sleep(a.due - self.sim().Now());
    co_await CommitTrades(self, client, a.trades, a.due, ledger);
  }
  workers.Arrive();
}

Client::Body FleetDriver(std::vector<Arrival> plan, const db::Catalog& cat,
                         Ledger& ledger, sim::Latch& done) {
  return [plan = std::move(plan), &cat, &ledger,
          &done](Client& self) -> Task<void> {
    db::TxnClient client(self, cat);
    std::size_t next = 0;
    sim::Latch workers(self.sim(), kFleetInFlight);
    for (int w = 0; w < kFleetInFlight; ++w) {
      self.SpawnFiber(FleetWorker(self, client, plan, next, ledger, workers));
    }
    co_await workers.Wait(self);
    ledger.finish = std::max(ledger.finish, self.sim().Now());
    done.Arrive();
  };
}

// ---- zipf_oltp: closed-loop read/write mix, aborted attempts retried --

struct OltpOp {
  bool read;
  std::uint32_t file;
  std::uint64_t key;
};

Client::Body OltpDriver(int d, std::uint64_t seed, const db::Catalog& cat,
                        const workload::ZipfianGenerator& zipf,
                        Ledger& ledger, sim::Latch& done) {
  return [d, seed, &cat, &zipf, &ledger, &done](Client& self) -> Task<void> {
    Rng rng = Rng::ForStream(seed, static_cast<std::uint64_t>(d));
    // Backoff draws come from their own stream, so the operation draws
    // stay a pure function of (seed, driver).
    Rng backoff = Rng::ForStream(seed ^ kBackoffStream,
                                 static_cast<std::uint64_t>(d));
    db::TxnClient client(self, cat);
    const auto files = static_cast<std::uint64_t>(cat.num_files());
    std::vector<OltpOp> ops;
    for (std::uint64_t t = 0; self.sim().Now() < ledger.window_end; ++t) {
      ops.clear();
      for (int i = 0; i < kOltpOps; ++i) {
        const bool read = rng.Bernoulli(kOltpReadFraction);
        const auto file = static_cast<std::uint32_t>(rng.Below(files));
        ops.push_back(OltpOp{read, file, 1 + zipf.Next(rng)});
      }
      // Locks are taken in (file, key) order, a key's write before its
      // reads, so no two transactions deadlock: a deadlock is broken only
      // by the 500 ms lock timeout, which stalls every waiter queued on a
      // hot key behind it.
      std::sort(ops.begin(), ops.end(), [](const OltpOp& a, const OltpOp& b) {
        return std::tie(a.file, a.key, a.read) < std::tie(b.file, b.key, b.read);
      });
      ++ledger.attempted;
      const SimTime first_begin = self.sim().Now();
      bool committed = false;
      for (std::uint64_t attempt = 0;
           attempt < kOltpMaxAttempts && !committed; ++attempt) {
        if (attempt > 0) {
          // Randomized backoff, so two transactions that deadlocked and
          // timed out do not collide again in lockstep.
          ++ledger.aborted_attempts;
          co_await self.Sleep(sim::Microseconds(static_cast<std::int64_t>(
              backoff.Below(kOltpBackoffUs << std::min<std::uint64_t>(attempt, 4)))));
        }
        // Unique per write, so a lost or stale update is visible.
        const std::uint64_t tag_base =
            (static_cast<std::uint64_t>(d + 1) << 48) | (t << 16) |
            (attempt << 8);
        auto txn = co_await client.Begin();
        if (!txn.ok()) continue;
        bool ok = true;
        for (std::size_t i = 0; i < ops.size() && ok; ++i) {
          const OltpOp& op = ops[i];
          co_await self.Compute(kOltpOpCpu);
          if (op.read) {
            auto r = co_await client.Read(*txn, op.file, op.key);
            if (!r.ok()) {
              ok = false;
            } else if (r->size() != kOltpRecordBytes) {
              ++ledger.bad_reads;
            }
          } else {
            ok = (co_await client.Insert(*txn, op.file, op.key,
                                         MakeValue(kOltpRecordBytes,
                                                   tag_base | i)))
                     .ok();
          }
        }
        if (!ok) {
          (void)co_await client.Abort(*txn);
          continue;
        }
        if (!(co_await client.Commit(*txn)).ok()) continue;
        for (std::size_t i = 0; i < ops.size(); ++i) {
          if (ops[i].read) continue;
          ledger.expected[tp::LockKey{ops[i].file, ops[i].key}] =
              Expected{kOltpRecordBytes, tag_base | i};
          ledger.user_bytes += kOltpRecordBytes;
        }
        NoteCommit(self, ledger, txn->id, first_begin);
        committed = true;
      }
      if (!committed) ++ledger.failed;
    }
    ledger.finish = std::max(ledger.finish, self.sim().Now());
    done.Arrive();
  };
}

void RunUntilDone(sim::Simulation& sim, sim::Latch& done) {
  while (done.count() > 0) {
    if (sim.RunFor(sim::Seconds(60)) == 0) break;  // stalled
  }
}

std::uint64_t Interconnect(workload::Rig& rig) {
  auto& f = rig.cluster().fabric();
  return f.bytes_transferred() + f.command_bytes() + f.message_bytes() +
         rig.cluster().message_bytes();
}

}  // namespace

std::optional<Workload> ParseWorkload(std::string_view name) {
  if (name == "hotstock") return Workload::kHotStock;
  if (name == "openloop") return Workload::kOpenLoop;
  if (name == "zipf_oltp") return Workload::kZipfOltp;
  return std::nullopt;
}

workload::RigConfig RigFor(Workload w) {
  workload::RigConfig cfg;
  cfg.log_medium = tp::LogMedium::kPm;
  cfg.pm_device = workload::PmDeviceKind::kNpmuPair;
  cfg.retain_log_image = true;
  cfg.cluster.fabric.durability_mode = DurabilityMode::kNativeFlush;
  cfg.npmu.volatile_staging = true;
  switch (w) {
    case Workload::kHotStock:  // §4.3: 4 CPUs, 4 files x 4 partitions
      cfg.num_cpus = 4;
      cfg.num_files = 4;
      cfg.partitions_per_file = 4;
      cfg.num_adps = 4;
      cfg.pm_tcb = true;
      cfg.pm_log_region_bytes = 16ull << 20;
      break;
    case Workload::kOpenLoop:  // bench/scaleout_sweep.cc ShardedRig(4)
      cfg.num_cpus = 16;
      cfg.num_files = 4;
      cfg.partitions_per_file = 4;
      cfg.num_adps = 16;
      cfg.num_pm_shards = 4;
      cfg.pm_log_region_bytes = 4ull << 20;
      cfg.tmf_resolve_timeout = sim::Seconds(4);
      cfg.cluster.message_overhead = sim::Microseconds(5);
      break;
    case Workload::kZipfOltp:  // bench/scenario_sweep.cc ScenarioRig()
      cfg.num_cpus = 4;
      cfg.num_files = 4;
      cfg.partitions_per_file = 2;
      cfg.num_adps = 4;
      cfg.pm_tcb = true;
      cfg.pm_log_region_bytes = 8ull << 20;
      cfg.tmf_resolve_timeout = sim::Seconds(4);
      break;
  }
  return cfg;
}

Status Prepare(Workload w, workload::Rig& rig) {
  if (w != Workload::kZipfOltp) return OkStatus();
  return workload::PreloadKeyspace(rig, kOltpKeysPerFile, kOltpRecordBytes);
}

void RunLoad(Workload w, workload::Rig& rig, std::uint64_t seed,
             Ledger& ledger) {
  sim::Simulation& sim = rig.sim();
  const db::Catalog& cat = rig.catalog();
  const int cpus = rig.config().num_cpus;
  ledger.start = ledger.finish = ledger.window_end = sim.Now();
  auto spawn = [&](int d, Client::Body body) {
    sim.Adopt<Client>(rig.cluster(), d % cpus, "load" + std::to_string(d),
                      std::move(body));
  };
  switch (w) {
    case Workload::kHotStock: {
      sim::Latch done(sim, kHotDrivers);
      for (int d = 0; d < kHotDrivers; ++d) {
        spawn(d, HotStockDriver(d, seed, cat, ledger, done));
      }
      RunUntilDone(sim, done);
      break;
    }
    case Workload::kOpenLoop: {
      sim::Latch done(sim, kFleetDrivers);
      auto plans = PlanFleet(seed, cat.num_files(), sim.Now());
      for (int d = 0; d < kFleetDrivers; ++d) {
        spawn(d, FleetDriver(std::move(plans[static_cast<std::size_t>(d)]),
                             cat, ledger, done));
      }
      RunUntilDone(sim, done);
      break;
    }
    case Workload::kZipfOltp: {
      ledger.window_end = sim.Now() + sim::FromSecondsD(kOltpWindowS);
      const workload::ZipfianGenerator zipf(kOltpKeysPerFile, kOltpTheta);
      sim::Latch done(sim, kOltpDrivers);
      for (int d = 0; d < kOltpDrivers; ++d) {
        spawn(d, OltpDriver(d, seed, cat, zipf, ledger, done));
      }
      RunUntilDone(sim, done);
      break;
    }
  }
  if (w != Workload::kZipfOltp) ledger.window_end = ledger.finish;
}

Recovery CrashAndRecover(workload::Rig& rig, Ledger& ledger) {
  sim::Simulation& sim = rig.sim();
  rig.PowerLoss();
  sim.RunFor(sim::Seconds(1));
  const std::uint64_t bytes_before = Interconnect(rig);
  const SimTime restart_at = sim.Now();
  rig.RestartAfterPowerLoss();

  Recovery r;
  std::uint64_t bytes_at_commit = bytes_before;
  // Commits one record as soon as the stack answers again.
  sim.Adopt<Client>(
      rig.cluster(), rig.config().num_cpus - 1, "prober",
      [&](Client& self) -> Task<void> {
        db::TxnClient client(self, rig.catalog());
        while (!r.committed) {
          auto txn = co_await client.Begin();
          if (!txn.ok()) continue;
          if (!(co_await client.Insert(*txn, 0, kProbeKey,
                                       MakeValue(kProbeBytes, kProbeKey)))
                   .ok()) {
            (void)co_await client.Abort(*txn);
            continue;
          }
          if ((co_await client.Commit(*txn)).ok()) {
            r.committed = true;
            r.first_commit_ms = sim::ToMillisD(self.sim().Now() - restart_at);
            bytes_at_commit = Interconnect(rig);
          }
        }
      });
  for (int i = 0; i < 600 && !r.committed; ++i) sim.RunFor(sim::Seconds(1));
  if (!r.committed) return r;
  ledger.expected[tp::LockKey{0, kProbeKey}] = Expected{kProbeBytes, kProbeKey};
  // Let every partition finish its redo before anyone reads it.
  sim.RunFor(sim::Seconds(5));

  r.interconnect_bytes = bytes_at_commit - bytes_before;
  for (auto* adp : rig.adps()) {
    r.adp_ms = std::max(r.adp_ms, sim::ToMillisD(adp->last_recovery_time()));
  }
  r.tmf_ms = sim::ToMillisD(rig.tmf().last_recovery_time());
  for (auto* dp2 : rig.dp2s()) {
    r.dp2_ms = std::max(r.dp2_ms, sim::ToMillisD(dp2->last_recovery_time()));
  }
  return r;
}

std::uint64_t CountLostRecords(workload::Rig& rig, const Ledger& ledger) {
  const auto ppf =
      static_cast<std::uint64_t>(rig.config().partitions_per_file);
  std::uint64_t lost = 0;
  for (const auto& [key, want] : ledger.expected) {
    const tp::Dp2Process* dp2 =
        rig.dp2s()[key.file * ppf + KeyPartition(key.key, ppf)];
    const std::vector<std::byte>* v = dp2->Peek(key);
    std::uint64_t tag = 0;
    if (v != nullptr && v->size() >= sizeof tag) {
      std::memcpy(&tag, v->data(), sizeof tag);
    }
    if (v == nullptr || v->size() != want.length || tag != want.tag) ++lost;
  }
  return lost;
}

double RedoAppliedPerOwned(workload::Rig& rig, Workload w,
                           const Ledger& ledger) {
  const std::uint64_t preload_keys =
      w == Workload::kZipfOltp ? kOltpKeysPerFile : 0;
  std::uint64_t owned =
      preload_keys * static_cast<std::uint64_t>(rig.config().num_files);
  for (const auto& entry : ledger.expected) {
    if (entry.first.key > preload_keys) ++owned;
  }
  std::uint64_t held = 0;
  for (const tp::Dp2Process* dp2 : rig.dp2s()) held += dp2->record_count();
  return owned == 0 ? 0.0
                    : static_cast<double>(held) / static_cast<double>(owned);
}

}  // namespace perfbench
