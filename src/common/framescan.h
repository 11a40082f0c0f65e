// Canonical walk over `[len u32][payload][crc32c u32]` log frames,
// shared by the host-side recovery scans (tp/log_device.cc) and the
// device-side VerifyScan command executor (pm/npmu.cc) so both sides
// agree byte-for-byte on the durable prefix of a log image. The writer
// of this format is tp/audit.cc (FrameRecord), which also pins down the
// payload header layout mirrored by PeekFramedRecord below.
//
// The scan distinguishes two ways a walk can stop:
//
//   * hard stop — a zero length word (the end-of-log sentinel: regions
//     and volumes start zeroed, and audit payloads are never empty) or
//     a CRC mismatch. No amount of further data changes the verdict.
//   * needs-more-data — the next frame extends past the end of the
//     buffer. A caller streaming a log in chunks keeps reading: the
//     frame may simply straddle the chunk boundary. Only when no more
//     bytes exist is this a torn tail.
//
// FrameScanStep resumes from a previous state's durable_tail, so a
// chunked scan is O(total bytes), not O(n²).
#pragma once

#include <cstdint>
#include <span>

namespace ods {

// [len u32] ... [crc u32] around each payload (tp::kFrameOverhead).
inline constexpr std::uint64_t kFrameScanOverhead = 8;

struct FrameScanState {
  std::uint64_t durable_tail = 0;   // end of the last fully valid frame
  std::uint64_t frame_count = 0;    // valid frames walked so far
  std::uint64_t last_frame_off = 0; // start offset of the final valid frame
  // True once the walk hit a definitive end (len == 0 sentinel or CRC
  // mismatch). False means the scan consumed everything it could and
  // more data may extend the prefix.
  bool hard_stop = false;
};

// Walks frames in `image` starting at `state.durable_tail`, updating
// `state` in place. Idempotent once `hard_stop` is set.
void FrameScanStep(std::span<const std::byte> image, FrameScanState& state);

// One-shot convenience: the length of the valid frame prefix of `image`.
[[nodiscard]] std::uint64_t FrameScanPrefix(std::span<const std::byte> image);

// Fixed-position peek into an audit-record payload (layout written by
// tp/audit.cc AuditRecordView::SerializeInto): lsn u64, txn u64, type u32,
// file_id u32, key u64. Used by the device-side ShipReplay filter and
// the VerifyScan last-LSN summary; tests assert it agrees with the tp
// deserializer.
struct FramedRecordHeader {
  std::uint64_t lsn = 0;
  std::uint64_t txn = 0;
  std::uint32_t type = 0;
  std::uint32_t file_id = 0;
  std::uint64_t key = 0;
};

// Reads the header of the frame starting at `frame_off` (which must be
// the offset of a `[len]` word). Returns false if the frame or its
// header is out of bounds.
[[nodiscard]] bool PeekFramedRecord(std::span<const std::byte> image,
                                    std::uint64_t frame_off,
                                    FramedRecordHeader& out);

// tp::AuditType values mirrored for the device-side replay filter
// (tests pin these against the tp enum).
inline constexpr std::uint32_t kFramedAuditUpdate = 1;
inline constexpr std::uint32_t kFramedAuditCommit = 2;

}  // namespace ods
