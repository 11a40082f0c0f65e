// ADP — the audit data process (log writer), §1.2 and §4.2.
//
// Database writers send audit deltas here (kAdpBuffer); the transaction
// monitor forces the trail to durable media at commit (kAdpFlush). The
// ADP is a process pair: buffered audit is checkpointed to the backup
// BEFORE it is acknowledged, so a primary failure loses no acknowledged
// record (§1.3's externalization rule).
//
// The durable medium is pluggable (tp/log_device.h):
//   * DiskLogDevice — the unmodified NSK ADP flushing to audit volumes;
//   * PmLogDevice — the paper's "modified ADP [that] synchronously writes
//     database log data to persistent memory", making "the database log
//     persistent immediately" so "transactions can commit faster".
//
// Flushes use group commit: requests arriving while a flush is in flight
// ride the next one. This is what keeps the multi-driver disk baseline
// competitive at high boxcar degrees (E1's declining speedup).
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "common/stats.h"
#include "nsk/pair.h"
#include "tp/audit.h"
#include "tp/log_device.h"

namespace ods::tp {

struct AdpConfig {
  // Keep an in-memory mirror of the durable log so DP2 recovery can read
  // it without re-scanning the device (costs host memory ∝ log size;
  // enable in recovery tests, off for long benchmarks).
  bool retain_log_image = false;
  // Cold recovery via the device's summary scan (VerifyScan on an active
  // NPMU): re-derive durable tail and next LSN without pulling the log
  // image across the fabric. Falls back to the host scan when the device
  // is passive or the command fails. No effect when retain_log_image is
  // set (DP2 replay then needs the host-side image anyway).
  bool offload_recovery = false;
};

class AdpProcess : public nsk::PairMember {
 public:
  AdpProcess(nsk::Cluster& cluster, int cpu_index, std::string service_name,
             std::string member_name, std::unique_ptr<LogDevice> device,
             AdpConfig config = {});

  // ---- accounting ----
  // Successful flushes; each overlaps its device append with the backup
  // checkpoint.
  [[nodiscard]] std::uint64_t flushes() const noexcept { return flushes_; }
  [[nodiscard]] std::uint64_t flushed_bytes() const noexcept {
    return flushed_bytes_;
  }
  [[nodiscard]] std::uint64_t records_buffered() const noexcept {
    return records_buffered_;
  }
  // kAdpBuffer checkpoints absorbed into an already-pending one.
  [[nodiscard]] std::uint64_t coalesced_checkpoints() const noexcept {
    return coalesced_checkpoints_;
  }
  [[nodiscard]] const LatencyHistogram& flush_latency() const noexcept {
    return flush_latency_;
  }
  [[nodiscard]] sim::SimDuration last_recovery_time() const noexcept {
    return last_recovery_time_;
  }
  [[nodiscard]] std::uint64_t next_lsn() const noexcept { return next_lsn_; }
  // Framed bytes buffered but not yet durable.
  [[nodiscard]] std::uint64_t pending_bytes() const noexcept {
    return buffer_.size() - buffer_head_;
  }
  [[nodiscard]] LogDevice& device() noexcept { return *device_; }

 protected:
  sim::Task<void> HandleRequest(nsk::Request req) override;
  void ApplyCheckpoint(std::span<const std::byte> delta) override;
  std::vector<std::byte> SnapshotState() override;
  void InstallState(std::span<const std::byte> snapshot) override;
  sim::Task<void> OnBecomePrimary(bool via_takeover) override;

  void OnRestart() override {
    PairMember::OnRestart();
    buffer_.clear();
    buffer_head_ = 0;
    buffer_marks_.clear();
    log_image_.clear();
    flush_waiters_.clear();
    flusher_running_ = false;
    durable_tail_ = 0;
    next_lsn_ = 1;
    state_valid_ = false;
    buffered_tail_ = 0;
    ckpt_acked_tail_ = 0;
    durable_confirmed_ = 0;
    flush_intent_ = 0;
    ckpt_pending_.clear();
    ckpt_waiters_.clear();
    ckpt_pump_running_ = false;
    device_->Reset();
  }

 private:
  // Parses serialized records from `payload`, assigns LSNs, frames them
  // into buffer_, checkpoints the delta, then calls done. When `last_txn`
  // is non-null it receives the txn id of the batch's final record — the
  // op-id used to correlate the flush that makes this batch durable.
  sim::Task<Status> BufferRecords(std::span<const std::byte> payload,
                                  std::uint64_t* last_txn = nullptr);

  void EnsureFlusher();
  sim::Task<void> FlushLoop();
  void EnsureCkptPump();
  sim::Task<void> CkptPumpLoop();
  // Backup side: advances durable_tail_ to `tail` (never backwards) and
  // trims the now-durable prefix off the pending buffer.
  void AdvanceDurable(std::uint64_t tail);
  // Erases buffer_'s durable prefix [0, buffer_head_).
  void CompactBuffer();

  std::unique_ptr<LogDevice> device_;
  AdpConfig config_;

  // Volatile primary state, checkpointed to the backup.
  std::vector<std::byte> buffer_;     // framed records not yet durable
  // Backup side: buffer_[0, buffer_head_) is already durable and awaits
  // compaction. Always 0 on the primary.
  std::uint64_t buffer_head_ = 0;
  // Record-cohort ends within buffer_ (ascending, offsets from buffer_'s
  // start) — the stripe-cut boundaries handed to the device so a sharded
  // flush never splits a record across streams.
  std::vector<std::uint64_t> buffer_marks_;
  std::uint64_t durable_tail_ = 0;    // logical bytes durable on media
  std::uint64_t next_lsn_ = 1;
  bool state_valid_ = false;  // false until recovered or resynced

  // Logical end of every byte ever framed into buffer_ (monotonic; equals
  // durable_tail_ + buffer_.size() except while a flush is in flight).
  std::uint64_t buffered_tail_ = 0;
  // Highest logical tail covered by an ACKED kCkptBuffer checkpoint.
  // Checkpoint delivery is not FIFO (a small confirm can overtake a large
  // buffer delta on the wire), so durable confirms sent to the backup are
  // capped here — the backup must never trim bytes it has not received.
  std::uint64_t ckpt_acked_tail_ = 0;
  // Highest durable tail the backup has been told to trim to.
  std::uint64_t durable_confirmed_ = 0;
  // Backup side: highest flush intent received (diagnostics at takeover).
  std::uint64_t flush_intent_ = 0;

  struct FlushWaiter {
    std::uint64_t target;  // durable_tail_ must reach this
    nsk::Request request;
    sim::SimTime enqueued;
    std::uint64_t op_id = 0;  // trace correlation id (committing txn)
  };
  std::deque<FlushWaiter> flush_waiters_;
  bool flusher_running_ = false;

  // Buffer-checkpoint coalescing: the next kCkptBuffer checkpoint, built
  // in place (header reserved, framed bytes appended), and the fibers
  // awaiting its ack.
  std::vector<std::byte> ckpt_pending_;
  std::deque<sim::Promise<Status>> ckpt_waiters_;
  bool ckpt_pump_running_ = false;

  std::vector<std::byte> log_image_;  // mirror (config_.retain_log_image)

  std::uint64_t flushes_ = 0;
  std::uint64_t flushed_bytes_ = 0;
  std::uint64_t records_buffered_ = 0;
  std::uint64_t coalesced_checkpoints_ = 0;
  LatencyHistogram flush_latency_;
  // Registry handles, resolved on first use (see FlushLoop).
  Counter* flushes_counter_ = nullptr;
  Counter* flushed_bytes_counter_ = nullptr;
  LatencyHistogram* flush_latency_hist_ = nullptr;
  sim::SimDuration last_recovery_time_{0};
};

}  // namespace ods::tp
