// The database audit trail (§1.2): "It explicitly records the changes
// made to the database by each transaction, and implicitly records the
// serial order in which the transactions committed. Before a transaction
// can commit, the relevant portion of the audit trail must be flushed to
// durable media."
//
// Records are framed ([len][payload][crc]) so a recovery scan can walk a
// raw log image and stop at the first torn/invalid frame.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/status.h"

namespace ods {
class Serializer;
}

namespace ods::tp {

// Frame overhead around each record: [len u32] ... [crc u32].
inline constexpr std::size_t kFrameOverhead = 8;

enum class AuditType : std::uint32_t {
  kUpdate = 1,   // redo/undo images for one record mutation
  kCommit = 2,   // transaction committed
  kAbort = 3,    // transaction aborted
  kWatermark = 4 // data-volume flush watermark (bounds redo scan)
};

// A record whose images point into the buffer it was decoded from (or
// the AuditRecord it was taken from). Valid only while that buffer
// lives; recovery scans hand these out so records whose images are
// never read cost no copy.
struct AuditRecordView {
  std::uint64_t lsn = 0;
  std::uint64_t txn = 0;
  AuditType type = AuditType::kUpdate;
  std::uint32_t file_id = 0;
  std::uint64_t key = 0;
  std::span<const std::byte> after_image;
  std::span<const std::byte> before_image;

  // Decodes an unframed payload; nullopt when a field or image runs past
  // the end of `bytes`.
  static std::optional<AuditRecordView> Parse(
      std::span<const std::byte> bytes) noexcept;
  // Appends the unframed payload to an existing serializer (framing and
  // batch encoders reuse the caller's buffer instead of a temporary).
  void SerializeInto(Serializer& s) const;
  // Serialized size including the frame (for boxcar/flush sizing).
  [[nodiscard]] std::size_t WireSize() const noexcept;
};

struct AuditRecord {
  std::uint64_t lsn = 0;  // assigned by the log writer at append time
  std::uint64_t txn = 0;
  AuditType type = AuditType::kUpdate;
  std::uint32_t file_id = 0;
  std::uint64_t key = 0;
  std::vector<std::byte> after_image;   // redo
  std::vector<std::byte> before_image;  // undo (empty for inserts)

  [[nodiscard]] AuditRecordView View() const noexcept;
};

// The kAdpBuffer/kAdpFlush request body for one record, serialized in a
// single allocation: [count u32 = 1][len u32][unframed payload]. The ADP
// assigns the LSN, so `rec.lsn` is sent as given (normally 0).
[[nodiscard]] std::vector<std::byte> EncodeAuditBatch(
    const AuditRecordView& rec);

// Appends a framed record to `out`.
void FrameRecord(const AuditRecordView& rec, std::vector<std::byte>& out);
inline void FrameRecord(const AuditRecord& rec, std::vector<std::byte>& out) {
  FrameRecord(rec.View(), out);
}

// Walks framed records in a raw log image. Iteration stops cleanly at
// the first invalid frame (torn tail after a crash) or at the image end.
class LogScanner {
 public:
  explicit LogScanner(std::span<const std::byte> image) noexcept
      : image_(image) {}

  // Returns the next valid record, or nullopt at end-of-log. The view's
  // images point into the scanned image.
  std::optional<AuditRecordView> Next() noexcept;

  // Bytes consumed so far (the durable tail after a full scan).
  [[nodiscard]] std::uint64_t offset() const noexcept { return pos_; }

 private:
  std::span<const std::byte> image_;
  std::uint64_t pos_ = 0;
};

// Redo set of a log image, from one scan: the kUpdate records of every
// transaction whose kCommit record precedes the first invalid frame, in
// log (= LSN) order. Views point into `image`.
[[nodiscard]] std::vector<AuditRecordView> CommittedUpdates(
    std::span<const std::byte> image);

}  // namespace ods::tp
