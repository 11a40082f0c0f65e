// Client PM access library (§4.1-§4.2).
//
// "Once a PM region has been opened by the PMM, clients can perform RDMA
// read and write operations directly to the NPMU memory comprising that
// region. ... To preserve data integrity the API writes data to both the
// primary and mirror NPMUs; reads need not be replicated. API operations
// are typically synchronous ... when the call returns the data is either
// persistent or the call will return in error."
//
// The control path (create/open/delete) is messages to the PMM service;
// the data path never touches the PMM. On device failure the client
// reports to the PMM (kPmMirrorDown), refreshes its handle, and continues
// on the surviving mirror — data remains durable throughout.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "nsk/process.h"
#include "pm/manager.h"
#include "pm/shard_map.h"

namespace ods::pm {

class PmClient;

// An open region bound to one host process. Byte-grained, synchronous.
class PmRegion {
 public:
  PmRegion() = default;

  [[nodiscard]] const RegionHandle& handle() const noexcept { return handle_; }
  [[nodiscard]] std::uint64_t size() const noexcept { return handle_.length; }
  [[nodiscard]] bool valid() const noexcept { return host_ != nullptr; }

  // Ordered-chain write, the one PM write primitive: all segments go out
  // as ONE chained RDMA op per mirror (a single software-latency
  // initiation). Segments land strictly in order and a failure in segment
  // k suppresses every later segment — the ordering the log device relies
  // on to carry its control block behind the data it covers (§3.4).
  // Returns once the chain is persistent on every up-to-date mirror
  // (after failover to a survivor) or an error; a segment outside the
  // region fails the whole chain before anything is issued.
  //
  // Every write/read takes a trailing `op_id` — an opaque correlation id
  // (0 = untagged) carried into the fabric's trace stream so one commit
  // can be followed across layers.
  struct ScatterOp {
    std::uint64_t offset;
    std::vector<std::byte> bytes;
  };
  sim::Task<Status> WriteChain(std::vector<ScatterOp> ops,
                               std::uint64_t op_id = 0);

  // One-segment WriteChain.
  sim::Task<Status> Write(std::uint64_t offset, std::vector<std::byte> data,
                          std::uint64_t op_id = 0);

  // Scatter variant: independent (offset, bytes) writes issued
  // concurrently (RDMA queue depth) and awaited together — the data path
  // for incremental pointer-fixing flushes (§3.4). Unlike a chain, each
  // op succeeds or fails on its own. Returns the first failure, but all
  // writes are attempted.
  sim::Task<Status> WriteScatter(std::vector<ScatterOp> ops,
                                 std::uint64_t op_id = 0);

  // Synchronous read from the primary mirror (failover to the other).
  sim::Task<Result<std::vector<std::byte>>> Read(std::uint64_t offset,
                                                 std::uint64_t len,
                                                 std::uint64_t op_id = 0);

  // Ships a device command (pm/offload.h) to the region's NPMU and
  // returns its response. `mirrored` = the command mutates device state
  // (CompactTo): it is issued to both mirrors and succeeds only when
  // every up-to-date mirror executed it — same durability contract as a
  // write, including survivor failover. Queries (VerifyScan, ShipReplay)
  // go to the primary with read-style failover. kFailedPrecondition
  // means the device is passive — callers fall back to the host path.
  sim::Task<Result<std::vector<std::byte>>> DeviceCommand(
      std::uint32_t opcode, std::vector<std::byte> request,
      bool mirrored = false, std::uint64_t op_id = 0);

  // ---- durability (common/durability.h) ----
  //
  // Per-region override of the fabric-wide durability mode; every write
  // this region issues carries it down to the persist phase. nullopt
  // (default) = follow FabricConfig::durability_mode.
  void set_durability(std::optional<DurabilityMode> mode) noexcept {
    durability_ = mode;
  }
  [[nodiscard]] std::optional<DurabilityMode> durability() const noexcept {
    return durability_;
  }
  // The mode this region's writes actually run under (override or the
  // fabric default). Only meaningful on a bound region.
  [[nodiscard]] DurabilityMode EffectiveDurability() const noexcept;

  // Service name of the PMM pair owning this region (the routed shard).
  [[nodiscard]] const std::string& owner_service() const noexcept {
    return owner_service_;
  }

 private:
  friend class PmClient;
  PmRegion(PmClient& client, nsk::NskProcess& host, RegionHandle handle,
           std::string owner_service)
      : client_(&client), host_(&host), handle_(std::move(handle)),
        owner_service_(std::move(owner_service)) {}

  // Tells the PMM a device looks dead and refreshes the handle. Returns
  // true only once the PMM acknowledged, i.e. the role change is durable
  // — a survivor-only write may be acknowledged to the application only
  // on top of a durable demotion, or a later recovery could resurrect
  // the stale device as a live mirror.
  sim::Task<bool> ReportDeviceDown(std::uint32_t endpoint);

  // Shared completion logic for mirrored writes: both-acked success,
  // single-mirror-dead failover (report + refresh + succeed on the
  // survivor), hard error otherwise. `sm` is nullopt when no mirror leg
  // was issued.
  sim::Task<Status> ResolveMirrored(Status sp, std::optional<Status> sm);
  // WriteChain's body; `span_name` (a string literal) names the
  // completion span on the pm_client trace lane.
  sim::Task<Status> IssueChain(std::vector<ScatterOp> ops,
                               std::uint64_t op_id, const char* span_name);

  PmClient* client_ = nullptr;
  nsk::NskProcess* host_ = nullptr;
  RegionHandle handle_;
  std::string owner_service_;
  std::optional<DurabilityMode> durability_;
};

class PmClient {
 public:
  // `host` is the process on whose behalf operations run (its CPU's
  // fabric endpoint is the RDMA initiator). `pmm_service` is the PMM
  // pair's service name.
  PmClient(nsk::NskProcess& host, std::string pmm_service)
      : host_(&host), map_(pmm_service, 1),
        pmm_service_(std::move(pmm_service)) {}

  // Shard-routed client: control operations for a region go to the shard
  // the map places that region name on; each returned PmRegion stays
  // bound to its owning shard for later failure reports. Volume-wide
  // calls (Info, Resilver) address shard 0 — use a per-shard plain
  // client to manage other shards individually.
  PmClient(nsk::NskProcess& host, ShardMap map)
      : host_(&host), map_(std::move(map)),
        pmm_service_(map_.ServiceForShard(0)) {}

  // Creates a region of `length` bytes. `access_list` restricts which
  // CPUs (fabric endpoints) may touch it; empty = any. The caller's CPU
  // is always included. Retries that race a completed create return the
  // existing region (idempotent).
  sim::Task<Result<PmRegion>> Create(const std::string& name,
                                     std::uint64_t length,
                                     std::vector<std::uint32_t> access_list = {});

  sim::Task<Result<PmRegion>> Open(const std::string& name);
  sim::Task<Status> Delete(const std::string& name);
  sim::Task<Result<VolumeInfo>> Info();

  // Asks the PMM to rebuild a repaired mirror from the primary (full
  // copy). Returns the number of bytes copied. Callers should quiesce
  // writers for a consistent rebuild.
  sim::Task<Result<std::uint64_t>> Resilver();

  [[nodiscard]] const std::string& pmm_service() const noexcept {
    return pmm_service_;
  }
  [[nodiscard]] const ShardMap& shard_map() const noexcept { return map_; }
  // Service owning `name` under this client's map (== pmm_service() for
  // an unsharded client).
  [[nodiscard]] std::string RouteFor(const std::string& name) const {
    return map_.ServiceFor(name);
  }
  [[nodiscard]] nsk::NskProcess& host() noexcept { return *host_; }

 private:
  friend class PmRegion;

  nsk::NskProcess* host_;
  ShardMap map_;
  std::string pmm_service_;
};

}  // namespace ods::pm
