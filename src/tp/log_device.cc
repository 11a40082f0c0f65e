#include "tp/log_device.h"

#include <algorithm>

#include "common/crc32.h"
#include "common/framescan.h"
#include "common/serialize.h"
#include "pm/offload.h"
#include "sim/fault_plan.h"

namespace ods::tp {

using sim::Task;

namespace {

constexpr std::uint32_t kControlMagic = 0x41445054;       // "ADPT" v1
constexpr std::uint32_t kControlMagicV2 = 0x41445055;     // "ADPU" v2 (+base)
constexpr std::uint32_t kShardControlMagic = 0x41445053;  // "ADPS"

// ADP log control block. v1 is the seed format {magic, tail, crc}; v2
// adds the retained base a Compact leaves behind. v1 is written for as
// long as base == 0 and offload is off, so passive runs stay
// byte-identical to the seed.
std::vector<std::byte> EncodeAdpControl(std::uint64_t tail,
                                        std::uint64_t base, bool v2) {
  Serializer s;
  if (v2) {
    s.PutU32(kControlMagicV2);
    s.PutU64(tail);
    s.PutU64(base);
  } else {
    s.PutU32(kControlMagic);
    s.PutU64(tail);
  }
  s.PutU32(Crc32c(s.bytes()));
  return std::move(s).Take();
}

// Splits a ring write into at most two physical extents.
template <typename WriteFn>
Task<Status> RingWrite(std::uint64_t tail, std::uint64_t capacity,
                       std::uint64_t base, std::vector<std::byte> bytes,
                       WriteFn&& write) {
  const std::uint64_t phys = tail % capacity;
  const std::uint64_t first = std::min<std::uint64_t>(bytes.size(),
                                                      capacity - phys);
  if (first == bytes.size()) {
    co_return co_await write(base + phys, std::move(bytes));
  }
  std::vector<std::byte> head(bytes.begin(),
                              bytes.begin() + static_cast<std::ptrdiff_t>(first));
  std::vector<std::byte> rest(bytes.begin() + static_cast<std::ptrdiff_t>(first),
                              bytes.end());
  Status s1 = co_await write(base + phys, std::move(head));
  if (!s1.ok()) co_return s1;
  co_return co_await write(base, std::move(rest));
}

}  // namespace

// ---------------------------------------------------------------- LogDevice

Task<Status> LogDevice::AppendBatch(nsk::NskProcess& host,
                                    std::vector<std::vector<std::byte>> batch,
                                    std::uint64_t op_id) {
  for (std::vector<std::byte>& bytes : batch) {
    auto st = co_await Append(host, std::move(bytes), op_id);
    if (!st.ok()) co_return st;
  }
  co_return OkStatus();
}

Task<Status> LogDevice::AppendAligned(nsk::NskProcess& host,
                                      std::vector<std::byte> bytes,
                                      std::vector<std::uint64_t> marks,
                                      std::uint64_t op_id) {
  // Not a coroutine: forward straight to Append (the hints are advisory
  // and this device appends the bytes whole), adding no frame of its own.
  (void)marks;
  return Append(host, std::move(bytes), op_id);
}

Task<Result<LogDevice::RecoverySummary>> LogDevice::RecoverSummary(
    nsk::NskProcess& host) {
  // Host-side default: recover the full image, then scan it here. The
  // active-offload devices override this with a device command that
  // returns the same numbers without the image ever crossing the fabric.
  auto log = co_await RecoverLog(host);
  if (!log.ok()) co_return log.status();
  RecoverySummary s;
  s.durable_tail = tail();
  FrameScanState scan;
  FrameScanStep(*log, scan);
  s.frame_count = scan.frame_count;
  if (scan.frame_count > 0) {
    FramedRecordHeader h;
    if (PeekFramedRecord(*log, scan.last_frame_off, h)) s.next_lsn = h.lsn + 1;
  }
  co_return s;
}

Task<Status> LogDevice::Compact(nsk::NskProcess& host, std::uint64_t cut) {
  (void)host;
  (void)cut;
  co_return Status(ErrorCode::kFailedPrecondition,
                   "log device does not support compaction");
}

// ------------------------------------------------------------ DiskLogDevice

Task<Status> DiskLogDevice::Open(nsk::NskProcess& host) {
  (void)host;
  co_return OkStatus();
}

Task<Status> DiskLogDevice::Append(nsk::NskProcess& host,
                                   std::vector<std::byte> bytes,
                                   std::uint64_t op_id) {
  (void)op_id;  // disk volumes sit below the traced fabric
  // Synchronous append: rotational wait (no write cache), then the
  // sequential volume write.
  co_await host.Sleep(config_.sync_rotational_wait);
  const std::uint64_t n = bytes.size();
  auto st = co_await RingWrite(
      tail_, volume_.capacity(), 0, std::move(bytes),
      [&](std::uint64_t off, std::vector<std::byte> b) -> Task<Status> {
        co_return co_await volume_.Write(host, off, std::move(b));
      });
  if (st.ok()) tail_ += n;
  co_return st;
}

// Walks length/crc frames without deserializing payloads (the canonical
// walk in common/framescan.h, shared with the device-side VerifyScan).
std::uint64_t ValidFramePrefix(std::span<const std::byte> image) {
  return FrameScanPrefix(image);
}

Task<Result<std::vector<std::byte>>> ScanFramedVolume(
    nsk::NskProcess& host, storage::DiskVolume& volume) {
  constexpr std::uint64_t kScanChunk = 4 << 20;
  std::vector<std::byte> log;
  FrameScanState scan;
  for (std::uint64_t off = 0; off < volume.capacity(); off += kScanChunk) {
    const std::uint64_t n =
        std::min<std::uint64_t>(kScanChunk, volume.capacity() - off);
    auto chunk = co_await volume.Read(host, off, n);
    if (!chunk.ok()) co_return chunk.status();
    log.insert(log.end(), chunk->begin(), chunk->end());
    // Resume the walk from the previous chunk's durable tail (O(total),
    // not O(n²)). Only a hard stop — the len==0 sentinel or a CRC
    // mismatch — ends the scan early: a frame merely extending past the
    // bytes read so far may straddle the chunk boundary, and the next
    // chunk decides whether it completes or is the torn tail.
    FrameScanStep(log, scan);
    if (scan.hard_stop) break;
  }
  log.resize(scan.durable_tail);
  co_return log;
}

Task<Result<std::vector<std::byte>>> DiskLogDevice::RecoverLog(
    nsk::NskProcess& host) {
  // No durable tail pointer on disk: scan the volume sequentially from
  // the start until the frames stop validating. This is the "costly
  // heuristic searching of audit trail information" the paper's PM
  // design eliminates. The scan cost is real (simulated) disk reads at
  // sequential bandwidth.
  auto log = co_await ScanFramedVolume(host, volume_);
  if (!log.ok()) co_return log.status();
  tail_ = log->size();
  co_return std::move(*log);
}

// -------------------------------------------------------------- PmLogDevice

std::vector<std::byte> PmLogDevice::EncodeControlBlock(
    std::uint64_t tail) const {
  return EncodeAdpControl(tail, base_, config_.offload || base_ != 0);
}

Result<bool> PmLogDevice::DecodeControlBlock(std::span<const std::byte> cb,
                                             std::uint64_t& tail,
                                             std::uint64_t& base) {
  Deserializer d(cb);
  std::uint32_t magic = 0;
  if (!d.GetU32(magic) ||
      (magic != kControlMagic && magic != kControlMagicV2)) {
    return false;  // virgin region: empty log
  }
  std::uint64_t t = 0, b = 0;
  std::uint32_t stored_crc = 0;
  if (!d.GetU64(t) ||
      (magic == kControlMagicV2 && !d.GetU64(b)) ||
      !d.GetU32(stored_crc)) {
    return false;
  }
  Serializer check;
  check.PutU32(magic);
  check.PutU64(t);
  if (magic == kControlMagicV2) check.PutU64(b);
  if (Crc32c(check.bytes()) != stored_crc) {
    return Status(ErrorCode::kDataLoss, "PM log control block corrupt");
  }
  tail = t;
  base = b;
  return true;
}

Task<Status> PmLogDevice::Open(nsk::NskProcess& host) {
  pm::PmClient client(host, config_.pmm_service);
  auto region = co_await client.Create(config_.region_name,
                                       kDataBase + config_.region_bytes);
  if (!region.ok()) co_return region.status();
  region_ = std::move(*region);
  region_->set_durability(config_.durability);
  pipeline_.emplace(*region_,
                    pm::PmWritePipeline::Config{config_.pipeline_depth,
                                                /*coalesce_adjacent=*/true,
                                                /*max_coalesce_bytes=*/256 << 10},
                    &stats_);
  co_return OkStatus();
}

Task<Status> PmLogDevice::Append(nsk::NskProcess& host,
                                 std::vector<std::byte> bytes,
                                 std::uint64_t op_id) {
  std::vector<std::vector<std::byte>> batch;
  batch.push_back(std::move(bytes));
  co_return co_await AppendBatch(host, std::move(batch), op_id);
}

Task<Status> PmLogDevice::AppendBatch(
    nsk::NskProcess& host, std::vector<std::vector<std::byte>> batch,
    std::uint64_t op_id) {
  (void)host;
  if (!region_) co_return Status(ErrorCode::kFailedPrecondition, "not open");
  std::uint64_t n = 0;
  for (const auto& b : batch) n += b.size();
  if (n == 0) co_return OkStatus();
  // The whole batch lands back-to-back at the tail; gather it into one
  // contiguous image (the NIC's gather DMA, modelled as a memcpy).
  std::vector<std::byte> flat;
  if (batch.size() == 1) {
    flat = std::move(batch.front());
  } else {
    flat.reserve(n);
    for (const auto& b : batch) flat.insert(flat.end(), b.begin(), b.end());
  }

  const std::uint64_t cap = config_.region_bytes;
  const bool wraps = Phys(tail_) + n > cap;
  if (config_.piggyback_control && !wraps) {
    // Fast path: data and the control block carrying the advanced tail go
    // out as ONE chained RDMA op — a single software-latency round trip
    // instead of two. The chain lands in posting order and aborts on
    // error, so the tail pointer can never become durable before the data
    // it covers (§3.4 recovery invariant holds without the second round).
    const std::uint64_t new_tail = tail_ + n;
    std::vector<pm::PmRegion::ScatterOp> ops;
    ops.reserve(2);
    ops.push_back({kDataBase + Phys(tail_), std::move(flat)});
    ops.push_back({0, EncodeControlBlock(new_tail)});
    auto st = co_await region_->WriteChain(std::move(ops), op_id);
    if (!st.ok()) co_return st;
    stats_.piggybacked.Increment();
    tail_ = new_tail;
    co_return OkStatus();
  }

  // Wrap / ablation path: pipeline the data extents, drain the pipeline,
  // then write the control block as its own op — the seed's ordering
  // (data fully durable before the tail pointer covers it).
  auto st = co_await RingWrite(
      tail_ - base_, cap, kDataBase, std::move(flat),
      [&](std::uint64_t off, std::vector<std::byte> b) -> Task<Status> {
        co_return co_await pipeline_->Submit(off, std::move(b), op_id);
      });
  if (st.ok()) st = co_await pipeline_->Drain();
  if (!st.ok()) co_return st;
  tail_ += n;
  co_return co_await region_->Write(0, EncodeControlBlock(tail_), op_id);
}

Task<Result<std::vector<std::byte>>> PmLogDevice::RecoverLog(
    nsk::NskProcess& host) {
  if (!region_) {
    auto st = co_await Open(host);
    if (!st.ok()) co_return st;
  }
  // Direct read of the durable tail pointer — no scanning.
  auto cb = co_await region_->Read(0, 64);
  if (!cb.ok()) co_return cb.status();
  std::uint64_t tail = 0, base = 0;
  auto present = DecodeControlBlock(*cb, tail, base);
  if (!present.ok()) co_return present.status();
  if (!*present) {
    // Virgin region: empty log.
    tail_ = 0;
    base_ = 0;
    co_return std::vector<std::byte>{};
  }
  tail_ = tail;
  base_ = base;
  if (tail - base > config_.region_bytes) {
    co_return Status(ErrorCode::kFailedPrecondition,
                     "log wrapped; full history not retained");
  }
  if (tail == base) co_return std::vector<std::byte>{};
  // The retained suffix [base, tail) sits at physical 0 — a Compact
  // re-anchors the ring there.
  auto data = co_await region_->Read(kDataBase, tail - base);
  if (!data.ok()) co_return data.status();
  co_return std::move(*data);
}

Task<Result<LogDevice::RecoverySummary>> PmLogDevice::RecoverSummary(
    nsk::NskProcess& host) {
  if (!config_.offload) co_return co_await LogDevice::RecoverSummary(host);
  if (!region_) {
    auto st = co_await Open(host);
    if (!st.ok()) co_return st;
  }
  auto cb = co_await region_->Read(0, 64);
  if (!cb.ok()) co_return cb.status();
  std::uint64_t tail = 0, base = 0;
  auto present = DecodeControlBlock(*cb, tail, base);
  if (!present.ok()) co_return present.status();
  RecoverySummary summary;
  summary.offloaded = true;
  if (!*present) {
    tail_ = 0;
    base_ = 0;
    co_return summary;
  }
  const std::uint64_t retained = tail - base;
  if (retained > config_.region_bytes) {
    co_return Status(ErrorCode::kFailedPrecondition,
                     "log wrapped; full history not retained");
  }
  // Device-side scan of the retained frames: only the summary crosses
  // the fabric, never the log. A passive device (or any command failure)
  // drops to the host path — correctness never depends on the offload.
  auto resp = co_await region_->DeviceCommand(
      pm::kCmdVerifyScan,
      pm::BuildVerifyScanRequest(pm::kScanCrcFrames,
                                 region_->handle().nva + kDataBase,
                                 retained));
  if (!resp.ok()) co_return co_await LogDevice::RecoverSummary(host);
  pm::VerifyScanResult vs;
  if (!pm::ParseVerifyScanResponse(*resp, vs)) {
    co_return Status(ErrorCode::kInternal, "malformed VerifyScan response");
  }
  if (vs.durable_tail != retained) {
    // The control block covers these bytes; a scan stopping short of it
    // means a frame below the committed tail is torn.
    co_return Status(ErrorCode::kDataLoss,
                     "torn frame below the committed log tail");
  }
  tail_ = tail;
  base_ = base;
  summary.durable_tail = tail;
  summary.frame_count = vs.frame_count;
  summary.next_lsn = vs.last_lsn + 1;
  co_return summary;
}

Task<Status> PmLogDevice::Compact(nsk::NskProcess& host, std::uint64_t cut) {
  (void)host;
  if (!region_) co_return Status(ErrorCode::kFailedPrecondition, "not open");
  if (cut < base_ || cut > tail_) {
    co_return Status(ErrorCode::kOutOfRange, "cut outside the retained log");
  }
  if (tail_ - base_ > config_.region_bytes) {
    co_return Status(ErrorCode::kFailedPrecondition,
                     "log wrapped; full history not retained");
  }
  if (cut == base_) co_return OkStatus();
  const std::uint64_t keep = tail_ - cut;
  std::vector<std::byte> control = EncodeAdpControl(tail_, cut, /*v2=*/true);
  if (config_.offload) {
    // One durable device command per mirror: the NPMU moves the retained
    // suffix to the ring base and installs the re-based control block,
    // atomically at the command ack. Nothing but the request crosses the
    // fabric.
    auto resp = co_await region_->DeviceCommand(
        pm::kCmdCompactTo,
        pm::BuildCompactRequest(region_->handle().nva + kDataBase + Phys(cut),
                                region_->handle().nva + kDataBase, keep,
                                region_->handle().nva, control),
        /*mirrored=*/true);
    if (resp.ok()) {
      base_ = cut;
      co_return OkStatus();
    }
    if (resp.status().code() != ErrorCode::kFailedPrecondition) {
      co_return resp.status();
    }
    // Passive device: fall through to the host path.
  }
  // Host path: read the suffix back, rewrite it at the ring base, then
  // commit the re-based control. Costs two crossings of the retained
  // bytes, and a crash between the rewrite and the control commit can
  // leave the ring mid-move — the exposure the single-command offload
  // closes.
  if (keep > 0) {
    auto suffix = co_await region_->Read(kDataBase + Phys(cut), keep);
    if (!suffix.ok()) co_return suffix.status();
    auto st = co_await region_->Write(kDataBase, std::move(*suffix));
    if (!st.ok()) co_return st;
  }
  auto st = co_await region_->Write(0, std::move(control));
  if (!st.ok()) co_return st;
  base_ = cut;
  co_return OkStatus();
}

std::optional<LogDevice::ReplaySource> PmLogDevice::replay_source() const {
  if (!config_.offload || !region_.has_value() ||
      tail_ - base_ > config_.region_bytes) {
    return std::nullopt;
  }
  return ReplaySource{config_.pmm_service, config_.region_name,
                      /*base_offset=*/kDataBase, tail_ - base_};
}

// ------------------------------------------------------- ShardedPmLogDevice

std::vector<std::byte> ShardedPmLogDevice::EncodeStreamControl(
    std::uint64_t epoch, std::uint64_t stream_tail,
    std::uint64_t global_tail) const {
  Serializer s;
  s.PutU32(kShardControlMagic);
  s.PutU64(epoch);
  s.PutU64(stream_tail);
  s.PutU64(global_tail);
  s.PutU32(Crc32c(s.bytes()));
  return std::move(s).Take();
}

Task<Status> ShardedPmLogDevice::Open(nsk::NskProcess& host) {
  // Idempotent: OnBecomePrimary opens unconditionally, and a promoted
  // backup must not clobber live in-memory stream state with older
  // durable controls.
  if (!streams_.empty()) co_return OkStatus();
  const int n_shards = config_.map.shard_count();
  std::vector<Stream> streams;
  std::uint64_t t_max = 0;
  std::uint64_t flushes = 0;
  for (int s = 0; s < n_shards; ++s) {
    pm::PmClient client(host, config_.map.ServiceForShard(s));
    auto region = co_await client.Create(
        config_.region_prefix + std::to_string(s),
        kStreamDataBase + config_.region_bytes);
    if (!region.ok()) co_return region.status();
    Stream st;
    st.region = std::move(*region);
    st.region->set_durability(config_.durability);
    // Restore the stream's committed state from its control block — this
    // is what lets a promoted backup keep appending without a scan.
    auto cb = co_await st.region->Read(0, kStreamDataBase);
    if (!cb.ok()) co_return cb.status();
    Deserializer d(*cb);
    std::uint32_t magic = 0;
    if (d.GetU32(magic) && magic == kShardControlMagic) {
      std::uint64_t epoch = 0, stream_tail = 0, global_tail = 0;
      std::uint32_t stored_crc = 0;
      if (!d.GetU64(epoch) || !d.GetU64(stream_tail) ||
          !d.GetU64(global_tail) || !d.GetU32(stored_crc)) {
        co_return Status(ErrorCode::kDataLoss,
                         "stream control block truncated");
      }
      Serializer check;
      check.PutU32(magic);
      check.PutU64(epoch);
      check.PutU64(stream_tail);
      check.PutU64(global_tail);
      if (Crc32c(check.bytes()) != stored_crc) {
        co_return Status(ErrorCode::kDataLoss,
                         "stream control block corrupt");
      }
      st.epoch = epoch;
      st.tail = stream_tail;
      st.global_tail = global_tail;
    }  // else: virgin stream, all zeroes
    t_max = std::max(t_max, st.global_tail);
    flushes += st.epoch;
    streams.push_back(std::move(st));
  }
  streams_ = std::move(streams);
  // Pipelines hold a PmRegion*, so they are created only once streams_
  // has its final addresses (the vector never grows after this).
  for (Stream& st : streams_) {
    st.pipeline.emplace(
        *st.region,
        pm::PmWritePipeline::Config{config_.pipeline_depth,
                                    /*coalesce_adjacent=*/true,
                                    /*max_coalesce_bytes=*/256 << 10},
        &stats_);
  }
  tail_ = t_max;
  flush_seq_ = flushes;
  co_return OkStatus();
}

Task<Status> ShardedPmLogDevice::Append(nsk::NskProcess& host,
                                        std::vector<std::byte> bytes,
                                        std::uint64_t op_id) {
  // No boundary hints: the append is one indivisible chunk (unstriped).
  std::vector<std::uint64_t> whole{bytes.size()};
  co_return co_await AppendAligned(host, std::move(bytes), std::move(whole),
                                   op_id);
}

Task<Status> ShardedPmLogDevice::StripeAppend(Stream& st,
                                              std::vector<std::byte> framed,
                                              std::uint64_t new_global,
                                              std::uint64_t op_id) {
  const std::uint64_t fn = framed.size();
  const std::uint64_t cap = config_.region_bytes;
  const std::uint64_t new_epoch = st.epoch + 1;
  const bool wraps = (st.tail % cap) + fn > cap;
  if (config_.piggyback_control && !wraps) {
    // One chained RDMA per stripe: the stream's framed data, then its
    // control block. In-order/abort-on-error chain semantics keep the
    // per-stream control from ever covering un-landed data.
    std::vector<pm::PmRegion::ScatterOp> ops;
    ops.reserve(2);
    ops.push_back({kStreamDataBase + (st.tail % cap), std::move(framed)});
    ops.push_back({0, EncodeStreamControl(new_epoch, st.tail + fn,
                                          new_global)});
    auto status = co_await st.region->WriteChain(std::move(ops), op_id);
    if (!status.ok()) co_return status;
    stats_.piggybacked.Increment();
  } else {
    auto status = co_await RingWrite(
        st.tail, cap, kStreamDataBase, std::move(framed),
        [&](std::uint64_t off, std::vector<std::byte> b) -> Task<Status> {
          co_return co_await st.pipeline->Submit(off, std::move(b), op_id);
        });
    if (status.ok()) status = co_await st.pipeline->Drain();
    if (!status.ok()) co_return status;
    status = co_await st.region->Write(
        0, EncodeStreamControl(new_epoch, st.tail + fn, new_global), op_id);
    if (!status.ok()) co_return status;
  }
  st.tail += fn;
  st.epoch = new_epoch;
  st.global_tail = new_global;
  co_return OkStatus();
}

Task<Status> ShardedPmLogDevice::AppendBatch(
    nsk::NskProcess& host, std::vector<std::vector<std::byte>> batch,
    std::uint64_t op_id) {
  // Each batch element is an indivisible chunk: gather and stripe with
  // cuts only at chunk ends.
  std::uint64_t n = 0;
  for (const auto& b : batch) n += b.size();
  std::vector<std::byte> flat;
  flat.reserve(n);
  std::vector<std::uint64_t> marks;
  marks.reserve(batch.size());
  for (const auto& b : batch) {
    flat.insert(flat.end(), b.begin(), b.end());
    marks.push_back(flat.size());
  }
  co_return co_await AppendAligned(host, std::move(flat), std::move(marks),
                                   op_id);
}

Task<Status> ShardedPmLogDevice::AppendAligned(
    nsk::NskProcess& host, std::vector<std::byte> flat,
    std::vector<std::uint64_t> marks, std::uint64_t op_id) {
  if (streams_.empty()) {
    co_return Status(ErrorCode::kFailedPrecondition, "not open");
  }
  if (!poison_.ok()) co_return poison_;
  const std::uint64_t n = flat.size();
  if (n == 0) co_return OkStatus();
  const std::size_t S = streams_.size();
  // Cut into stripes — every stream gets one unless the flush is too
  // small for stripes of kMinStripeBytes to be worth their control
  // commits — snapping each cut DOWN to a record boundary so that a
  // recovery truncated at any stripe edge still ends on a whole record.
  const std::size_t k_target =
      static_cast<std::size_t>(std::clamp<std::uint64_t>(
          n / kMinStripeBytes, 1, static_cast<std::uint64_t>(S)));
  std::vector<std::uint64_t> cuts;  // stripe end offsets within flat
  cuts.reserve(k_target);
  for (std::size_t i = 1; i < k_target; ++i) {
    const std::uint64_t want = i * n / k_target;
    auto it = std::upper_bound(marks.begin(), marks.end(), want);
    const std::uint64_t snapped = it == marks.begin() ? 0 : *std::prev(it);
    if (snapped > 0 && snapped < n &&
        (cuts.empty() || snapped > cuts.back())) {
      cuts.push_back(snapped);
    }
  }
  cuts.push_back(n);
  const std::size_t k = cuts.size();
  const std::size_t base = static_cast<std::size_t>(flush_seq_ % S);
  const std::uint64_t new_global = tail_ + n;

  struct StripePlan {
    std::size_t stream;
    std::uint64_t goff;  // global offset of the stripe's first byte
    std::uint64_t len;
  };
  std::vector<StripePlan> plan;
  plan.reserve(k);
  std::uint64_t cut = 0;
  for (std::size_t i = 0; i < k; ++i) {
    plan.push_back({(base + i) % S, tail_ + cut, cuts[i] - cut});
    cut = cuts[i];
  }

  auto frame = [&](const StripePlan& p) {
    Serializer f(kFrameHeader + p.len);
    f.PutU64(p.goff);
    f.PutU32(static_cast<std::uint32_t>(p.len));
    f.PutBytes(std::span<const std::byte>(flat).subspan(
        static_cast<std::size_t>(p.goff - tail_),
        static_cast<std::size_t>(p.len)));
    return std::move(f).Take();
  };

  // Launch every stripe in parallel — one per stream, so each rides its
  // own shard pair's links and the flush's wire time divides by k.
  std::vector<sim::Future<Status>> pending;
  pending.reserve(k);
  for (const StripePlan& p : plan) {
    Stream& st = streams_[p.stream];
    // Crash-injection site on the boundary between per-shard epoch
    // commits: a crash armed here lands after every earlier flush's
    // commits and before any byte of this stripe reaches its shard.
    sim::FaultPoint(host.sim(), sim::FaultSiteKind::kCustom,
                    "shardlog:commit:s" + std::to_string(p.stream),
                    {static_cast<std::uint64_t>(p.stream), st.epoch + 1,
                     p.goff + p.len});
    pending.push_back(sim::SpawnTask(
        host, StripeAppend(st, frame(p), p.goff + p.len, op_id)));
  }
  std::vector<Status> results;
  results.reserve(k);
  for (auto& f : pending) results.push_back(co_await f.Wait(host));

  // A stripe that failed outright (shard down) is retried once on the
  // next stream — frames carry their global offset, so any stream can
  // host any interval. A flush that still cannot land poisons the
  // device: later appends above the hole would break I4.
  for (std::size_t i = 0; i < k; ++i) {
    if (results[i].ok()) continue;
    Stream& next = streams_[(plan[i].stream + 1) % S];
    Status retried = co_await StripeAppend(next, frame(plan[i]),
                                           plan[i].goff + plan[i].len, op_id);
    if (!retried.ok()) {
      poison_ = std::move(retried);
      co_return poison_;
    }
  }
  tail_ = new_global;
  ++flush_seq_;
  co_return OkStatus();
}

Task<Result<std::vector<std::byte>>> ShardedPmLogDevice::RecoverLog(
    nsk::NskProcess& host) {
  if (streams_.empty()) {
    auto status = co_await Open(host);
    if (!status.ok()) co_return status;
  }
  // T = the newest global tail any stream recorded. The serial flush
  // loop guarantees every flush before the one that recorded T also
  // committed, so the union of stream frames must cover [0, T).
  std::uint64_t t_max = 0;
  for (const Stream& st : streams_) t_max = std::max(t_max, st.global_tail);
  if (t_max == 0) {
    tail_ = 0;
    co_return std::vector<std::byte>{};
  }
  struct Frame {
    std::uint64_t goff;      // global interval [goff, gend)
    std::uint64_t gend;
    std::uint64_t spos_end;  // stream position just past this frame
  };
  std::vector<std::vector<Frame>> frames_by_stream(streams_.size());
  std::vector<std::byte> image(t_max);
  for (std::size_t si = 0; si < streams_.size(); ++si) {
    Stream& st = streams_[si];
    if (st.tail == 0) continue;
    if (st.tail > config_.region_bytes) {
      co_return Status(ErrorCode::kFailedPrecondition,
                       "log stream wrapped; full history not retained");
    }
    auto data = co_await st.region->Read(kStreamDataBase, st.tail);
    if (!data.ok()) co_return data.status();
    std::uint64_t pos = 0;
    while (pos < data->size()) {
      Deserializer d(std::span<const std::byte>(*data).subspan(pos));
      std::uint64_t goff = 0;
      std::uint32_t len = 0;
      if (!d.GetU64(goff) || !d.GetU32(len) || len == 0 ||
          pos + kFrameHeader + len > data->size() || goff + len > t_max) {
        co_return Status(ErrorCode::kDataLoss,
                         "torn frame below a committed stream tail");
      }
      std::copy_n(
          data->begin() + static_cast<std::ptrdiff_t>(pos + kFrameHeader),
          len, image.begin() + static_cast<std::ptrdiff_t>(goff));
      pos += kFrameHeader + len;
      frames_by_stream[si].push_back({goff, goff + len, pos});
    }
    // Cross-shard I1: a stream's durable epoch is exactly its committed
    // stripe count, i.e. the frames below its control's stream tail.
    if (frames_by_stream[si].size() != st.epoch) {
      co_return Status(ErrorCode::kDataLoss,
                       "stream epoch does not match its frame count");
    }
  }
  std::vector<std::pair<std::uint64_t, std::uint64_t>> intervals;
  for (const auto& fs : frames_by_stream) {
    for (const Frame& f : fs) intervals.emplace_back(f.goff, f.gend);
  }
  std::sort(intervals.begin(), intervals.end());
  // Overlaps are legal (a takeover re-flushes byte-identical records).
  // The contiguous prefix is the recovered log: a hole can only be a
  // missing stripe of the single flush in flight at the crash (I4 — the
  // flush loop is serial and acks only fully-landed flushes), so every
  // acked byte lies below the first gap.
  std::uint64_t covered = 0;
  for (const auto& [begin, end] : intervals) {
    if (begin > covered) break;
    covered = std::max(covered, end);
  }
  if (covered < t_max) {
    // Truncate the hole's committed sibling stripes — necessarily each
    // stream's final frames, since only the last flush can be partial.
    // Their controls are rewritten so a future append of the same global
    // interval (with different bytes) can never conflict with them.
    for (std::size_t si = 0; si < streams_.size(); ++si) {
      auto& fs = frames_by_stream[si];
      if (fs.empty() || fs.back().gend <= covered) continue;
      Stream& st = streams_[si];
      while (!fs.empty() && fs.back().gend > covered) {
        fs.pop_back();
        st.epoch -= 1;
      }
      st.tail = fs.empty() ? 0 : fs.back().spos_end;
      st.global_tail = fs.empty() ? 0 : fs.back().gend;
      auto status = co_await st.region->Write(
          0, EncodeStreamControl(st.epoch, st.tail, st.global_tail));
      if (!status.ok()) co_return status;
    }
    image.resize(covered);
  }
  tail_ = covered;
  co_return std::move(image);
}

Task<Result<LogDevice::RecoverySummary>> ShardedPmLogDevice::RecoverSummary(
    nsk::NskProcess& host) {
  if (!config_.offload) co_return co_await LogDevice::RecoverSummary(host);
  if (streams_.empty()) {
    auto status = co_await Open(host);
    if (!status.ok()) co_return status;
  }
  std::uint64_t t_max = 0;
  for (const Stream& st : streams_) t_max = std::max(t_max, st.global_tail);
  RecoverySummary summary;
  summary.offloaded = true;
  if (t_max == 0) {
    tail_ = 0;
    co_return summary;
  }
  // Same merge as RecoverLog, but built from device-side stripe scans:
  // each stream returns its frame TABLE (headers only) — the payloads
  // never cross the fabric. Stream positions follow from the cumulative
  // frame sizes.
  struct Frame {
    std::uint64_t goff;
    std::uint64_t gend;
    std::uint64_t spos_end;
  };
  std::vector<std::vector<Frame>> frames_by_stream(streams_.size());
  for (std::size_t si = 0; si < streams_.size(); ++si) {
    Stream& st = streams_[si];
    if (st.tail == 0) continue;
    if (st.tail > config_.region_bytes) {
      co_return Status(ErrorCode::kFailedPrecondition,
                       "log stream wrapped; full history not retained");
    }
    auto resp = co_await st.region->DeviceCommand(
        pm::kCmdVerifyScan,
        pm::BuildVerifyScanRequest(pm::kScanStripeFrames,
                                   st.region->handle().nva + kStreamDataBase,
                                   st.tail));
    if (!resp.ok()) co_return co_await LogDevice::RecoverSummary(host);
    std::vector<pm::StripeFrame> table;
    if (!pm::ParseStripeScanResponse(*resp, table)) {
      co_return Status(ErrorCode::kInternal, "malformed stripe scan response");
    }
    std::uint64_t pos = 0;
    for (const pm::StripeFrame& f : table) {
      if (f.len == 0 || pos + kFrameHeader + f.len > st.tail ||
          f.goff + f.len > t_max) {
        co_return Status(ErrorCode::kDataLoss,
                         "torn frame below a committed stream tail");
      }
      pos += kFrameHeader + f.len;
      frames_by_stream[si].push_back({f.goff, f.goff + f.len, pos});
    }
    if (pos != st.tail) {
      co_return Status(ErrorCode::kDataLoss,
                       "torn frame below a committed stream tail");
    }
    if (frames_by_stream[si].size() != st.epoch) {
      co_return Status(ErrorCode::kDataLoss,
                       "stream epoch does not match its frame count");
    }
    summary.frame_count += frames_by_stream[si].size();
  }
  std::vector<std::pair<std::uint64_t, std::uint64_t>> intervals;
  for (const auto& fs : frames_by_stream) {
    for (const Frame& f : fs) intervals.emplace_back(f.goff, f.gend);
  }
  std::sort(intervals.begin(), intervals.end());
  std::uint64_t covered = 0;
  for (const auto& [begin, end] : intervals) {
    if (begin > covered) break;
    covered = std::max(covered, end);
  }
  if (covered < t_max) {
    // Truncate stale sibling stripes of the torn final flush, exactly as
    // the image-based recovery does.
    for (std::size_t si = 0; si < streams_.size(); ++si) {
      auto& fs = frames_by_stream[si];
      if (fs.empty() || fs.back().gend <= covered) continue;
      Stream& st = streams_[si];
      while (!fs.empty() && fs.back().gend > covered) {
        fs.pop_back();
        st.epoch -= 1;
      }
      st.tail = fs.empty() ? 0 : fs.back().spos_end;
      st.global_tail = fs.empty() ? 0 : fs.back().gend;
      auto status = co_await st.region->Write(
          0, EncodeStreamControl(st.epoch, st.tail, st.global_tail));
      if (!status.ok()) co_return status;
    }
  }
  tail_ = covered;
  summary.durable_tail = covered;
  if (covered > 0) {
    // The final record lives wholly inside the stripe ending at the
    // covered tail (stripes cut only at record boundaries) — read just
    // that stripe's payload to learn the next LSN.
    bool found = false;
    for (std::size_t si = 0; si < streams_.size() && !found; ++si) {
      for (const Frame& f : frames_by_stream[si]) {
        if (f.gend != covered) continue;
        const std::uint64_t len = f.gend - f.goff;
        auto data = co_await streams_[si].region->Read(
            kStreamDataBase + (f.spos_end - len), len);
        if (!data.ok()) co_return data.status();
        FrameScanState scan;
        FrameScanStep(*data, scan);
        if (scan.frame_count > 0) {
          FramedRecordHeader h;
          if (PeekFramedRecord(*data, scan.last_frame_off, h)) {
            summary.next_lsn = h.lsn + 1;
          }
        }
        found = true;
        break;
      }
    }
  }
  co_return summary;
}

}  // namespace ods::tp
