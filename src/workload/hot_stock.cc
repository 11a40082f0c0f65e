#include "workload/hot_stock.h"

#include <cmath>

#include "common/log.h"
#include "common/rng.h"
#include "common/trace.h"

namespace ods::workload {

using sim::Task;

double HotStockResult::MeanResponseUs() const {
  double total = 0;
  std::uint64_t n = 0;
  for (const auto& d : drivers) {
    total += d.txn_response.mean() * static_cast<double>(d.txn_response.count());
    n += d.txn_response.count();
  }
  return n == 0 ? 0 : total / static_cast<double>(n) / 1e3;
}

std::uint64_t HotStockResult::TotalCommitted() const {
  std::uint64_t n = 0;
  for (const auto& d : drivers) n += d.committed_txns;
  return n;
}

LatencyHistogram HotStockResult::MergedResponse() const {
  LatencyHistogram merged;
  for (const auto& d : drivers) merged.Merge(d.txn_response);
  return merged;
}

HotStockDriver::HotStockDriver(nsk::Cluster& cluster, int cpu_index,
                               int driver_index, const db::Catalog& catalog,
                               HotStockConfig config, sim::Latch& done,
                               DriverStats& stats)
    : NskProcess(cluster, cpu_index,
                 "driver" + std::to_string(driver_index)),
      driver_index_(driver_index), catalog_(&catalog),
      config_(std::move(config)), done_(&done), stats_(&stats) {}

Task<void> HotStockDriver::Main() {
  if (config_.open_loop) {
    co_await RunOpenLoop();
  } else {
    co_await RunClosedLoop();
  }
  stats_->finished = sim().Now();
  done_->Arrive();
}

// One transaction: begin, produce the trades (driver CPU), fan the
// inserts out asynchronously across the files, commit. Response time is
// measured from `measure_from` — the loop top for closed-loop drivers,
// the ARRIVAL time for open-loop ones (so queueing delay is included).
Task<bool> HotStockDriver::RunOneTxn(db::TxnClient& client,
                                     sim::SimTime measure_from, int batch,
                                     std::uint64_t& next_key) {
  auto txn = co_await client.Begin();
  if (!txn.ok()) {
    ++stats_->aborted_txns;
    ++stats_->begin_failures;
    co_return false;
  }
  co_await Compute(config_.per_record_cpu * batch);
  std::vector<db::TxnClient::InsertOp> ops;
  ops.reserve(static_cast<std::size_t>(batch));
  for (int i = 0; i < batch; ++i) {
    db::TxnClient::InsertOp op;
    op.file = static_cast<std::uint32_t>(i % catalog_->num_files());
    op.key = next_key++;
    op.value.assign(config_.record_bytes,
                    static_cast<std::byte>(driver_index_ + 1));
    ops.push_back(std::move(op));
  }
  Status st = co_await client.InsertMany(*txn, std::move(ops));
  if (!st.ok()) {
    (void)co_await client.Abort(*txn);
    ++stats_->aborted_txns;
    ++stats_->insert_failures;
    co_return false;
  }
  st = co_await client.Commit(*txn);
  if (!st.ok()) {
    ++stats_->aborted_txns;
    ++stats_->commit_failures;
    co_return false;
  }
  ++stats_->committed_txns;
  stats_->records_inserted += static_cast<std::uint64_t>(batch);
  const auto resp_ns =
      static_cast<std::uint64_t>((sim().Now() - measure_from).ns);
  stats_->txn_response.Record(resp_ns);
  if (config_.response_windows != nullptr) {
    config_.response_windows->Record(measure_from.ns, resp_ns);
  }
  if (txn_response_hist_ == nullptr) {
    txn_response_hist_ =
        &sim().metrics().GetHistogram("workload.txn_response_ns");
  }
  txn_response_hist_->Record(resp_ns);
  if (Tracer* tr = sim().tracer(); tr != nullptr && tr->enabled()) {
    tr->Complete(TraceLane::kWorkload, "txn", measure_from.ns, sim().Now().ns,
                 txn->id, "driver", static_cast<std::uint64_t>(driver_index_),
                 "records", static_cast<std::uint64_t>(batch));
  }
  co_return true;
}

Task<void> HotStockDriver::RunClosedLoop() {
  db::TxnClient client(*this, *catalog_);
  // Keys are unique per driver (each driver is its own hot stock; the
  // contention the benchmark models is the *ordering* constraint, not
  // lock conflicts).
  std::uint64_t next_key = (static_cast<std::uint64_t>(driver_index_) << 40) + 1;
  std::uint64_t remaining =
      static_cast<std::uint64_t>(config_.records_per_driver);
  int consecutive_failures = 0;

  while (remaining > 0) {
    if (consecutive_failures > 20) {
      ODS_ELOG("hotstock", "driver %d giving up after repeated failures",
               driver_index_);
      break;
    }
    const int batch = static_cast<int>(std::min<std::uint64_t>(
        remaining, static_cast<std::uint64_t>(config_.inserts_per_txn)));
    const sim::SimTime t0 = sim().Now();
    const bool committed = co_await RunOneTxn(client, t0, batch, next_key);
    if (!committed) {
      ++consecutive_failures;
      continue;
    }
    consecutive_failures = 0;
    // Committed: the regulatory constraint is satisfied; the next
    // iteration may begin.
    remaining -= static_cast<std::uint64_t>(batch);
  }
}

double HotStockDriver::ArrivalRateAt(sim::SimDuration since_start) const {
  double rate = config_.arrival_rate_hz;
  if (config_.diurnal_amplitude != 0.0) {
    const double t = sim::ToSecondsD(since_start);
    const double period = sim::ToSecondsD(config_.diurnal_period);
    rate *= 1.0 + config_.diurnal_amplitude *
                      std::sin(2.0 * 3.14159265358979323846 * t / period);
  }
  if (config_.spike_factor != 1.0 && since_start >= config_.spike_start &&
      since_start < config_.spike_start + config_.spike_duration) {
    rate *= config_.spike_factor;
  }
  return rate < 1e-9 ? 1e-9 : rate;
}

Task<void> HotStockDriver::OpenLoopWorker(db::TxnClient& client,
                                          sim::Channel<sim::SimTime>& arrivals,
                                          const bool& generating,
                                          std::uint64_t& next_key,
                                          sim::Latch& workers_done) {
  // Drain until the generator has stopped AND the backlog is empty. The
  // periodic timeout only re-checks `generating`; every transaction is
  // pinned to one arrival, so a saturated system accumulates backlog and
  // the arrival-to-commit percentiles show the queueing delay.
  while (generating || !arrivals.empty()) {
    auto arrival = co_await arrivals.ReceiveFor(*this, sim::Milliseconds(100));
    if (!arrival.has_value()) continue;
    (void)co_await RunOneTxn(client, *arrival, config_.inserts_per_txn,
                             next_key);
  }
  workers_done.Arrive();
}

Task<void> HotStockDriver::RunOpenLoop() {
  db::TxnClient client(*this, *catalog_);
  std::uint64_t next_key = (static_cast<std::uint64_t>(driver_index_) << 40) + 1;
  // Positionally-stable arrival stream: driver d's draws are a pure
  // function of (arrival_seed, d), so growing the fleet never perturbs
  // the arrival processes that were already there.
  Rng rng = Rng::ForStream(config_.arrival_seed,
                           static_cast<std::uint64_t>(driver_index_));

  sim::Channel<sim::SimTime> arrivals(sim());
  bool generating = true;
  sim::Latch workers_done(sim(), config_.max_in_flight);
  for (int w = 0; w < config_.max_in_flight; ++w) {
    SpawnFiber(
        OpenLoopWorker(client, arrivals, generating, next_key, workers_done));
  }

  const sim::SimTime start = sim().Now();
  const sim::SimTime end = start + config_.open_loop_duration;
  while (sim().Now() < end) {
    // Exponential inter-arrival at the instantaneous rate (a standard
    // piecewise approximation of the non-homogeneous Poisson process:
    // the rate drifts slowly relative to the gaps).
    const double rate = ArrivalRateAt(sim().Now() - start);
    const double gap_s = -std::log1p(-rng.NextDouble()) / rate;
    co_await Sleep(sim::Nanoseconds(
        static_cast<std::int64_t>(gap_s * 1e9) + 1));
    if (sim().Now() >= end) break;
    ++stats_->arrivals;
    arrivals.Send(sim().Now());
    stats_->max_backlog = std::max(
        stats_->max_backlog, static_cast<std::uint64_t>(arrivals.size()));
  }
  generating = false;
  co_await workers_done.Wait(*this);
}

HotStockResult RunHotStock(Rig& rig, const HotStockConfig& config) {
  HotStockResult result;
  result.drivers.resize(static_cast<std::size_t>(config.drivers));
  sim::Simulation& sim = rig.sim();
  sim::Latch done(sim, config.drivers);

  const sim::SimTime start = sim.Now();
  for (int d = 0; d < config.drivers; ++d) {
    result.drivers[static_cast<std::size_t>(d)].driver = d;
    // Paper: one driver per CPU (4 drivers on the 4-processor S86000).
    // Open-loop fleets (hundreds-thousands of drivers) wrap around the
    // CPUs the same way.
    const int cpu = d % rig.config().num_cpus;
    sim.Adopt<HotStockDriver>(rig.cluster(), cpu, d, rig.catalog(), config,
                              done, result.drivers[static_cast<std::size_t>(d)]);
  }
  // Run until every driver has finished.
  while (done.count() > 0) {
    if (sim.RunFor(sim::Seconds(60)) == 0 && done.count() > 0) {
      ODS_ELOG("hotstock", "benchmark stalled with %d drivers pending",
               done.count());
      break;
    }
  }
  sim::SimTime finish = start;
  for (const auto& d : result.drivers) {
    finish = std::max(finish, d.finished);
  }
  result.elapsed_seconds = sim::ToSecondsD(finish - start);
  for (tp::AdpProcess* adp : rig.adps()) {
    result.flushes += adp->flushes();
    result.coalesced_checkpoints += adp->coalesced_checkpoints();
    if (const PipelineStats* ps = adp->device().pipeline_stats()) {
      result.piggybacked_controls += ps->piggybacked.value();
    }
  }
  return result;
}

}  // namespace ods::workload
