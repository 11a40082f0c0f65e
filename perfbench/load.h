// Workloads of the repository benchmark: the fixed rig per workload, the
// seeded load generators that drive it through db::TxnClient, the
// whole-node crash and recovery probe, and the durability check.
//
// The generators draw every input (trade sizes, arrival times, Zipfian
// ranks) from Rng::ForStream streams of the seed, so the system under test
// only sees the generated transactions, and the same seed gives the same
// run.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string_view>
#include <vector>

#include "sim/time.h"
#include "tp/lock.h"
#include "workload/rig.h"

namespace perfbench {

enum class Workload { kHotStock, kOpenLoop, kZipfOltp };

[[nodiscard]] std::optional<Workload> ParseWorkload(std::string_view name);

// The workload's node. Every rig pins the correct persist primitive
// (native flush with volatile NPMU staging) and keeps the host-side log
// image that passive DP2 redo needs after a power loss.
[[nodiscard]] ods::workload::RigConfig RigFor(Workload w);

// Work done before the measured phase that is not stack bring-up (the
// OLTP keyspace preload). Runs the sim until it completes.
ods::Status Prepare(Workload w, ods::workload::Rig& rig);

// What a record must read back as after recovery.
struct Expected {
  std::uint32_t length = 0;
  std::uint64_t tag = 0;  // first 8 bytes of the value
  bool operator==(const Expected&) const = default;
};

// Everything the generators observed, in simulated time. Identical for
// identical seeds.
struct Ledger {
  std::uint64_t attempted = 0;         // transactions issued
  std::uint64_t committed = 0;
  std::uint64_t failed = 0;            // transactions that never committed
  std::uint64_t aborted_attempts = 0;  // attempts aborted, then retried
  std::uint64_t bad_reads = 0;         // reads of the wrong record
  std::uint64_t user_bytes = 0;        // committed record payload
  // Per committed transaction, in commit order: when it was due (arrival
  // for open-loop, first begin for closed-loop) and its response time.
  std::vector<std::int64_t> due_ns;
  std::vector<std::int64_t> response_ns;
  ods::sim::SimTime start{0};
  ods::sim::SimTime finish{0};  // the last generator finished
  // End of the offered load: closed-loop OLTP drivers stop starting
  // transactions here; for the other workloads it is `finish`.
  ods::sim::SimTime window_end{0};
  // Last committed value of every record a transaction wrote.
  std::map<ods::tp::LockKey, Expected> expected;

  bool operator==(const Ledger&) const = default;
};

// Runs the measured load until every generator has finished.
void RunLoad(Workload w, ods::workload::Rig& rig, std::uint64_t seed,
             Ledger& ledger);

struct Recovery {
  bool committed = false;        // the probe committed after restart
  double first_commit_ms = 0;    // restart -> first post-crash commit
  double adp_ms = 0;             // slowest ADP log-tail recovery
  double tmf_ms = 0;
  double dp2_ms = 0;             // slowest DP2 redo
  std::uint64_t interconnect_bytes = 0;  // RDMA + commands + IPC payloads
  bool operator==(const Recovery&) const = default;
};

// Whole-node power loss once the load has drained, restart, and a prober
// that commits one record (added to the ledger's expected set).
Recovery CrashAndRecover(ods::workload::Rig& rig, Ledger& ledger);

// Committed records missing, short or stale in their owning partition.
[[nodiscard]] std::uint64_t CountLostRecords(ods::workload::Rig& rig,
                                             const Ledger& ledger);

// Records held by every partition after recovery over the records the
// partitions own (the preloaded keyspace plus every committed record).
[[nodiscard]] double RedoAppliedPerOwned(ods::workload::Rig& rig,
                                         Workload w, const Ledger& ledger);

}  // namespace perfbench
