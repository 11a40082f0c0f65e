// The repository benchmark (see NOTES.md). One process runs one workload:
//
//   perfbench --workload hotstock|openloop|zipf_oltp --seed N
//             --seconds S --trace 0|1
//
// A repetition builds the workload's rig, brings the stack up, drives the
// seeded load, then loses power to the whole node, restarts it and checks
// that every committed record survived. Repetitions run back to back in
// this process, on this thread, until S seconds have passed. Simulated-time
// results must be identical in every repetition. Host times are this
// thread's CPU time, normalized against a calibration kernel, as medians
// over every repetition but the first.
//
// --trace 0 prints the end-to-end metrics. --trace 1 alternates untraced
// and traced repetitions and prints the per-layer metrics: counters read
// from public accessors, host-timed calls into common/crc32, and self time
// per layer from the stack's existing spans (spans.h).
//
// The last line of stdout is one JSON object:
//   {"correct": bool, "attempted": N, "failed": N, "metrics": {...}}
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/crc32.h"
#include "common/trace.h"
#include "load.h"
#include "sim/simulation.h"
#include "spans.h"
#include "workload/rig.h"
#include "workload/scenario.h"

namespace perfbench {
namespace {

using namespace ods;

struct Options {
  Workload workload = Workload::kHotStock;
  std::string name;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
};

std::optional<Options> ParseOptions(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view flag(argv[i]);
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      const auto w = ParseWorkload(value);
      if (!w) return std::nullopt;
      o.workload = *w;
      o.name = value;
      have_workload = true;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(value, &end, 10);
      have_seed = end != value && *end == '\0';
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(value, &end);
      if (end == value || *end != '\0' || !(o.seconds > 0)) return std::nullopt;
    } else if (flag == "--trace") {
      const std::string_view t(value);
      if (t != "0" && t != "1") return std::nullopt;
      o.trace = t == "1";
    } else {
      return std::nullopt;
    }
  }
  if (argc % 2 != 1 || !have_workload || !have_seed || o.seconds <= 0) {
    return std::nullopt;
  }
  return o;
}

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank quantile of exact samples.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size(), std::max<std::size_t>(rank, 1)) - 1];
}

std::vector<double> ToMillis(const std::vector<std::int64_t>& ns) {
  std::vector<double> ms;
  ms.reserve(ns.size());
  for (const std::int64_t v : ns) ms.push_back(static_cast<double>(v) / 1e6);
  return ms;
}

// Layer counters from public accessors, diffed over the measured phase.
struct Counters {
  std::uint64_t events = 0;
  std::uint64_t ipc_bytes = 0;
  std::uint64_t rdma_writes = 0;
  std::uint64_t packets = 0;
  std::uint64_t persist_ops = 0;
  std::uint64_t data_writes = 0;
  std::uint64_t lock_waits = 0;
  std::uint64_t lock_timeouts = 0;
  std::vector<std::int64_t> disk_busy_ns;
  workload::Rig::PersistenceAccounting acct;

  static Counters Read(workload::Rig& rig) {
    Counters c;
    net::Fabric& fabric = rig.cluster().fabric();
    c.events = rig.sim().events_executed();
    c.ipc_bytes = rig.cluster().message_bytes();
    c.rdma_writes = fabric.rdma_write_ops();
    c.packets = fabric.packets_sent();
    c.persist_ops = fabric.persist_ops();
    for (storage::DiskVolume* v : rig.data_volumes()) {
      c.data_writes += v->writes();
      c.disk_busy_ns.push_back(v->busy_time().ns);
    }
    const workload::LockStats locks = workload::AggregateLockStats(rig);
    c.lock_waits = locks.waits;
    c.lock_timeouts = locks.timeouts;
    c.acct = rig.Account();
    return c;
  }
};

// Committed transactions per simulated second of offered load.
double TxnPerSecond(const Ledger& ledger) {
  std::uint64_t n = 0;
  for (std::size_t i = 0; i < ledger.due_ns.size(); ++i) {
    if (ledger.due_ns[i] + ledger.response_ns[i] <= ledger.window_end.ns) ++n;
  }
  const double s = sim::ToSecondsD(ledger.window_end - ledger.start);
  return s > 0 ? static_cast<double>(n) / s : 0;
}

// Highest 250 ms-window rate of due transactions whose window p99 response
// stays within 50 ms.
double SloRate(const Ledger& ledger) {
  constexpr std::int64_t kWindowNs = 250'000'000;
  constexpr double kSloMs = 50.0;
  std::map<std::int64_t, std::vector<double>> windows;
  for (std::size_t i = 0; i < ledger.due_ns.size(); ++i) {
    windows[(ledger.due_ns[i] - ledger.start.ns) / kWindowNs].push_back(
        static_cast<double>(ledger.response_ns[i]) / 1e6);
  }
  double best = 0;
  for (auto& [idx, resp] : windows) {
    if (Quantile(resp, 0.99) <= kSloMs) {
      best = std::max(best, static_cast<double>(resp.size()) * 1e9 /
                                static_cast<double>(kWindowNs));
    }
  }
  return best;
}

// Host times are normalized against a fixed calibration kernel run in the
// same repetition: on a shared host the same work takes 10-30% more CPU
// time from one minute to the next, and the kernel slows with it. The
// kernel does table lookups, a copy larger than the L2 cache and a walk of
// a node-based map, the kinds of work the simulator's hot paths are made
// of, and it does not depend on the code under test. A reported host time
// is CPU seconds x kCalibrationReferenceS / kernel CPU seconds, i.e.
// seconds on a host where the kernel takes kCalibrationReferenceS (a
// 2.1 GHz Xeon VM, where the figures read close to raw CPU time).
constexpr double kCalibrationReferenceS = 0.075;

// Returns the kernel's thread CPU seconds.
double CalibrationSeconds() {
  static std::vector<std::uint32_t> table = [] {
    std::vector<std::uint32_t> t(256);
    for (std::uint32_t i = 0; i < 256; ++i) t[i] = i * 2654435761u;
    return t;
  }();
  static std::vector<std::byte> src(8u << 20, std::byte{1});
  static std::vector<std::byte> dst(8u << 20);
  static std::map<std::uint64_t, std::uint64_t> tree = [] {
    std::map<std::uint64_t, std::uint64_t> m;
    for (std::uint64_t i = 0; i < 100'000; ++i) m[i * 0x9E3779B97F4A7C15ull] = i;
    return m;
  }();
  const double t0 = ThreadCpuSeconds();
  std::uint32_t h = 0;
  for (int round = 0; round < 4; ++round) {
    for (std::size_t i = 0; i < src.size(); i += 2) {
      h = (h >> 8) ^ table[(h ^ static_cast<std::uint32_t>(src[i])) & 0xffu];
    }
    std::memcpy(dst.data(), src.data(), src.size());
    src[static_cast<std::size_t>(h) % src.size()] = dst[h % 4096];
    std::uint64_t sum = 0;
    for (std::uint64_t i = 0; i < 100'000; i += 3) {
      auto it = tree.lower_bound((i + h) * 0x9E3779B97F4A7C15ull);
      if (it != tree.end()) sum += it->second;
    }
    h += static_cast<std::uint32_t>(sum);
  }
  dst[0] = static_cast<std::byte>(h);
  return ThreadCpuSeconds() - t0;
}

struct Measure {
  double value = 0;
  std::string_view unit;
  bool operator==(const Measure&) const = default;
};

struct Rep {
  bool traced = false;
  // Host CPU seconds of each phase.
  double rig_build_s = 0;
  double bringup_s = 0;
  double prepare_s = 0;
  double load_s = 0;
  double recovery_s = 0;
  double calibration_s = 0;  // mean of the kernel before and after the run
  // Simulated-time results; identical in every repetition of a seed.
  Ledger ledger;
  Recovery recovery;
  std::string registry;
  std::map<std::string, Measure> layer;
  std::uint64_t events = 0;  // simulation events in the measured phase
  std::uint64_t lost = 0;
  std::uint64_t persist_failures = 0;
  // Traced repetitions only.
  SelfTimes self;
  std::uint64_t trace_dropped = 0;
  std::size_t trace_events = 0;

  [[nodiscard]] double setup_s() const {
    return rig_build_s + bringup_s + prepare_s;
  }
  // Host CPU seconds normalized to the calibration reference.
  [[nodiscard]] double Normalized(double cpu_s) const {
    return cpu_s * kCalibrationReferenceS / calibration_s;
  }
};

// Ring large enough for the measured phase of every workload.
constexpr std::size_t kTraceCapacity = std::size_t{1} << 21;

Rep RunRep(Workload w, std::uint64_t seed, Tracer* tracer) {
  Rep rep;
  rep.traced = tracer != nullptr;
  const double calibration_before = CalibrationSeconds();
  sim::Simulation sim(seed);

  double t = ThreadCpuSeconds();
  auto lap = [&t] {
    const double now = ThreadCpuSeconds();
    const double d = now - t;
    t = now;
    return d;
  };
  auto rig = std::make_unique<workload::Rig>(sim, RigFor(w));
  rep.rig_build_s = lap();
  sim.RunFor(sim::Seconds(1));  // stack bring-up
  rep.bringup_s = lap();
  if (Status st = Prepare(w, *rig); !st.ok()) {
    std::fprintf(stderr, "prepare failed: %s\n", st.ToString().c_str());
  }
  rep.prepare_s = lap();

  const Counters before = Counters::Read(*rig);
  if (tracer != nullptr) {
    tracer->Enable(kTraceCapacity);
    sim.set_tracer(tracer);
  }
  lap();
  RunLoad(w, *rig, seed, rep.ledger);
  rep.load_s = lap();
  if (tracer != nullptr) {
    sim.set_tracer(nullptr);
    rep.trace_dropped = tracer->dropped();
    rep.trace_events = tracer->size();
    rep.self = ReduceSpans(*tracer);
    tracer->Disable();
  }
  const Counters after = Counters::Read(*rig);

  // Per-layer counts over the measured phase (simulated, deterministic).
  const Ledger& L = rep.ledger;
  const double txns = static_cast<double>(std::max<std::uint64_t>(L.committed, 1));
  const double sim_s = sim::ToSecondsD(L.finish - L.start);
  auto per_txn = [txns](std::uint64_t a, std::uint64_t b) {
    return static_cast<double>(b - a) / txns;
  };
  auto set = [&rep](const char* name, double value, std::string_view unit) {
    rep.layer[name] = Measure{value, unit};
  };
  rep.events = after.events - before.events;
  set("sim.events_per_txn", per_txn(before.events, after.events), "events/txn");
  set("sim.record_capacity",
      static_cast<double>(sim.engine_stats().record_capacity), "records");
  set("nsk.msg_bytes_per_txn", per_txn(before.ipc_bytes, after.ipc_bytes),
      "B/txn");
  set("nsk.ckpt_msgs_per_txn",
      per_txn(before.acct.checkpoint_messages, after.acct.checkpoint_messages),
      "msgs/txn");
  set("nsk.ckpt_bytes_per_txn",
      per_txn(before.acct.checkpoint_bytes, after.acct.checkpoint_bytes),
      "B/txn");
  set("net.rdma_writes_per_txn", per_txn(before.rdma_writes, after.rdma_writes),
      "writes/txn");
  set("net.packets_per_txn", per_txn(before.packets, after.packets),
      "packets/txn");
  set("net.persist_ops_per_txn", per_txn(before.persist_ops, after.persist_ops),
      "ops/txn");
  set("pm.bytes_per_user_byte",
      static_cast<double>(after.acct.pm_bytes_written -
                          before.acct.pm_bytes_written) /
          static_cast<double>(std::max<std::uint64_t>(L.user_bytes, 1)),
      "B/B");
  const std::uint64_t flushes =
      after.acct.audit_flushes - before.acct.audit_flushes;
  set("adp.flushes_per_commit", static_cast<double>(flushes) / txns,
      "flushes/txn");
  set("adp.bytes_per_flush",
      static_cast<double>(after.acct.audit_bytes - before.acct.audit_bytes) /
          static_cast<double>(std::max<std::uint64_t>(flushes, 1)),
      "B/flush");
  // The ADP and lock histograms are cumulative; bring-up and the OLTP
  // preload add a few uncontended samples.
  LatencyHistogram flush_wait;
  for (tp::AdpProcess* adp : rig->adps()) flush_wait.Merge(adp->flush_latency());
  set("adp.flush_wait_p50_ms",
      static_cast<double>(flush_wait.Percentile(0.50)) / 1e6, "ms");
  set("adp.flush_wait_p99_ms",
      static_cast<double>(flush_wait.Percentile(0.99)) / 1e6, "ms");
  set("lock.waits_per_txn", per_txn(before.lock_waits, after.lock_waits),
      "waits/txn");
  set("lock.wait_p99_ms",
      static_cast<double>(
          workload::AggregateLockStats(*rig).wait_time.Percentile(0.99)) /
          1e6,
      "ms");
  set("lock.timeouts",
      static_cast<double>(after.lock_timeouts - before.lock_timeouts), "count");
  set("storage.data_writes_per_txn",
      per_txn(before.data_writes, after.data_writes), "writes/txn");
  double max_busy_ns = 0;
  for (std::size_t i = 0; i < after.disk_busy_ns.size(); ++i) {
    max_busy_ns = std::max(max_busy_ns,
                           static_cast<double>(after.disk_busy_ns[i] -
                                               before.disk_busy_ns[i]));
  }
  set("storage.max_busy_frac", sim_s > 0 ? max_busy_ns / 1e9 / sim_s : 0,
      "frac");
  set("workload.aborted_attempts_per_txn",
      static_cast<double>(L.aborted_attempts) / txns, "attempts/txn");
  set("workload.txn_fail_frac",
      static_cast<double>(L.failed) /
          static_cast<double>(std::max<std::uint64_t>(L.attempted, 1)),
      "frac");

  lap();
  rep.recovery = CrashAndRecover(*rig, rep.ledger);
  rep.recovery_s = lap();
  set("workload.recovery_ms", rep.recovery.first_commit_ms, "ms");
  set("adp.recovery_ms", rep.recovery.adp_ms, "ms");
  set("tmf.recovery_ms", rep.recovery.tmf_ms, "ms");
  set("dp2.recovery_ms", rep.recovery.dp2_ms, "ms");
  set("net.recovery_bytes",
      static_cast<double>(rep.recovery.interconnect_bytes), "B");
  set("dp2.redo_applied_per_owned", RedoAppliedPerOwned(*rig, w, rep.ledger),
      "records/record");

  rep.lost = CountLostRecords(*rig, rep.ledger);
  rep.persist_failures = rig->cluster().fabric().persist_failures();
  rep.calibration_s = 0.5 * (calibration_before + CalibrationSeconds());
  rep.registry = sim.metrics().Snapshot().Serialize();
  return rep;
}

// Host-timed Crc32c throughput over `bytes`-sized buffers, MB/s: the
// median of five ~20 ms batches.
double CrcMbps(std::size_t bytes) {
  std::vector<std::byte> buf(bytes);
  for (std::size_t i = 0; i < bytes; ++i) buf[i] = static_cast<std::byte>(i * 131u);
  std::vector<double> rates;
  std::uint32_t sink = 0;
  for (int batch = 0; batch < 5; ++batch) {
    std::uint64_t done = 0;
    const double t0 = ThreadCpuSeconds();
    double elapsed = 0;
    while (elapsed < 0.02) {
      for (int i = 0; i < 64; ++i) {
        sink ^= Crc32c(std::span<const std::byte>(buf));
        buf[0] = static_cast<std::byte>(sink);
      }
      done += 64 * bytes;
      elapsed = ThreadCpuSeconds() - t0;
    }
    rates.push_back(static_cast<double>(done) / elapsed / 1e6);
  }
  return Median(rates);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// Every repetition must reproduce the first one's simulated results, and
// every committed record must survive the crash.
bool Check(const std::vector<Rep>& reps) {
  bool ok = true;
  auto fail = [&ok](int rep, const char* what) {
    std::fprintf(stderr, "check failed (rep %d): %s\n", rep, what);
    ok = false;
  };
  const Rep& first = reps.front();
  for (std::size_t i = 0; i < reps.size(); ++i) {
    const Rep& r = reps[i];
    const int n = static_cast<int>(i);
    if (r.ledger.committed == 0) fail(n, "no transaction committed");
    if (!r.recovery.committed) fail(n, "no commit after restart");
    if (r.lost != 0) fail(n, "committed records lost in recovery");
    if (r.ledger.bad_reads != 0) fail(n, "reads returned wrong records");
    if (r.persist_failures != 0) fail(n, "fabric persist failures");
    if (r.traced && r.trace_dropped != 0) fail(n, "trace ring dropped spans");
    if (!(r.ledger == first.ledger)) fail(n, "load results differ from rep 0");
    if (!(r.recovery == first.recovery)) fail(n, "recovery differs from rep 0");
    if (r.registry != first.registry) fail(n, "registry snapshot differs");
    if (r.layer != first.layer) fail(n, "layer counters differ from rep 0");
    if (r.traced && !(r.self == reps[1].self)) fail(n, "span self times differ");
  }
  return ok;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(bool correct, const Ledger& ledger,
                 const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%-34s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  bool finite = true;
  std::string json = "\"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    finite = finite && std::isfinite(m.value);
    char buf[256];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", m.name.c_str(),
                  std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
    json += buf;
  }
  json += "}";
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, %s}\n",
              correct && finite ? "true" : "false",
              static_cast<unsigned long long>(ledger.attempted),
              static_cast<unsigned long long>(ledger.failed), json.c_str());
}

int Main(int argc, char** argv) {
  const std::optional<Options> opt = ParseOptions(argc, argv);
  if (!opt) {
    std::fprintf(stderr,
                 "usage: perfbench --workload hotstock|openloop|zipf_oltp "
                 "--seed N --seconds S --trace 0|1\n");
    return 2;
  }
  // Keep freed memory in the heap: warm repetitions then reuse the pages
  // the first one faulted in, instead of faulting the device arrays (each
  // larger than glibc's mmap threshold) in again, a cost that varied 3x
  // from run to run.
  mallopt(M_MMAP_MAX, 0);
  mallopt(M_TRIM_THRESHOLD, std::numeric_limits<int>::max());
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(opt->seconds));

  // Repetitions until the time is up. Every result is compared against
  // an identical repetition, and host times skip the first one, so at
  // least three run (five when tracing, alternating untraced and traced).
  std::vector<Rep> reps;
  Tracer tracer;
  const std::size_t min_reps = opt->trace ? 5 : 3;
  double peak_rss_mb = 0;
  while (reps.size() < min_reps ||
         std::chrono::steady_clock::now() < deadline) {
    const bool traced = opt->trace && reps.size() % 2 == 1;
    reps.push_back(RunRep(opt->workload, opt->seed, traced ? &tracer : nullptr));
    // One repetition's footprint: later ones reuse the heap, which
    // fragments and would add to the peak.
    if (reps.size() == 1) peak_rss_mb = PeakRssMb();
  }
  const bool correct = Check(reps);
  const Rep& first = reps.front();
  const Ledger& L = first.ledger;

  std::vector<double> setup;
  std::vector<double> rig_build;
  std::vector<double> bringup;
  std::vector<double> load;
  std::vector<double> traced_load;
  std::vector<double> recovery;
  // Host times come from warm repetitions: the first one also pays for
  // faulting in the process's memory, which later ones reuse.
  std::vector<double> calibration;
  for (std::size_t i = 1; i < reps.size(); ++i) {
    const Rep& r = reps[i];
    setup.push_back(r.Normalized(r.setup_s()));
    rig_build.push_back(r.Normalized(r.rig_build_s));
    bringup.push_back(r.Normalized(r.bringup_s));
    (r.traced ? traced_load : load).push_back(r.Normalized(r.load_s));
    recovery.push_back(r.Normalized(r.recovery_s));
    calibration.push_back(r.calibration_s);
  }
  const std::vector<double> response_ms = ToMillis(L.response_ns);
  const double sim_s = sim::ToSecondsD(L.finish - L.start);
  std::printf("workload %s seed %llu: %zu repetitions (%zu traced), host "
              "times from all but the first\n",
              opt->name.c_str(), static_cast<unsigned long long>(opt->seed), reps.size(),
              traced_load.size());
  std::printf("transactions: %llu attempted, %llu committed, %llu failed "
              "(txn_fail_frac %.6f), %llu aborted attempts retried; "
              "%zu latency samples\n",
              static_cast<unsigned long long>(L.attempted),
              static_cast<unsigned long long>(L.committed),
              static_cast<unsigned long long>(L.failed),
              static_cast<double>(L.failed) /
                  static_cast<double>(std::max<std::uint64_t>(L.attempted, 1)),
              static_cast<unsigned long long>(L.aborted_attempts),
              response_ms.size());
  std::printf("simulated load %.3f s, max response %.3f ms\n", sim_s,
              Quantile(response_ms, 1.0));
  for (const Rep& r : reps) {
    std::printf("rep%s: CPU seconds: setup %.4f (build %.4f, bring-up %.4f, "
                "prepare %.4f), load %.4f, recovery %.4f; calibration %.4f\n",
                r.traced ? " traced" : "", r.setup_s(), r.rig_build_s,
                r.bringup_s, r.prepare_s, r.load_s, r.recovery_s,
                r.calibration_s);
  }
  std::printf("lost_acked_records %llu of %zu checked\n",
              static_cast<unsigned long long>(first.lost), L.expected.size());

  std::vector<Metric> metrics;
  if (!opt->trace) {
    metrics = {
        {"setup_s", Median(setup), "s"},
        {"host_s", Median(load), "s"},
        {"recovery_host_s", Median(recovery), "s"},
        {"peak_rss_mb", peak_rss_mb, "MB"},
        {"txn_per_s", TxnPerSecond(L), "1/s"},
        {"commit_p50_ms", Quantile(response_ms, 0.50), "ms"},
        {"commit_p99_ms", Quantile(response_ms, 0.99), "ms"},
        {"slo_rate_txn_per_s", SloRate(L), "1/s"},
    };
  } else {
    const Rep& traced = reps[1];
    for (const auto& [name, m] : first.layer) {
      metrics.push_back({name, m.value, std::string(m.unit)});
    }
    metrics.push_back({"sim.host_ns_per_event",
                       Median(load) * 1e9 / static_cast<double>(first.events),
                       "ns/event"});
    metrics.push_back({"host.rig_build_s", Median(rig_build), "s"});
    metrics.push_back({"host.bringup_s", Median(bringup), "s"});
    // Throughput scales the other way: a slow moment (long calibration)
    // is corrected upward.
    const double speed = Median(calibration) / kCalibrationReferenceS;
    metrics.push_back({"common.crc32c_mbps_4k", CrcMbps(4096) * speed, "MB/s"});
    metrics.push_back({"common.crc32c_mbps_256", CrcMbps(256) * speed, "MB/s"});
    metrics.push_back({"trace.overhead_frac",
                       Median(traced_load) / Median(load) - 1.0, "frac"});
    static constexpr const char* kSelfNames[kLayers] = {
        "workload.txn_self", "tmf.commit_self", "adp.flush_self",
        "pm.write", "fabric.rdma"};
    for (std::size_t l = 0; l < kLayers; ++l) {
      const std::string base = kSelfNames[l];
      metrics.push_back({base + "_p50_ms", Quantile(traced.self.ms[l], 0.50),
                         "ms"});
      metrics.push_back({base + "_p99_ms", Quantile(traced.self.ms[l], 0.99),
                         "ms"});
    }
    std::printf("trace: %zu events held, %zu layer spans, %llu dropped\n",
                traced.trace_events, traced.self.spans,
                static_cast<unsigned long long>(traced.trace_dropped));
  }
  std::sort(metrics.begin(), metrics.end(),
            [](const Metric& a, const Metric& b) { return a.name < b.name; });
  PrintResult(correct, L, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
