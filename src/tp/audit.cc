#include "tp/audit.h"

#include <cassert>
#include <unordered_set>

#include "common/crc32.h"
#include "common/serialize.h"

namespace ods::tp {

std::optional<AuditRecordView> AuditRecordView::Parse(
    std::span<const std::byte> bytes) noexcept {
  Deserializer d(bytes);
  AuditRecordView r;
  if (!d.GetU64(r.lsn) || !d.GetU64(r.txn) || !d.GetEnum(r.type) ||
      !d.GetU32(r.file_id) || !d.GetU64(r.key) ||
      !d.GetBlobView(r.after_image) || !d.GetBlobView(r.before_image)) {
    return std::nullopt;
  }
  return r;
}

void AuditRecordView::SerializeInto(Serializer& s) const {
  s.PutU64(lsn);
  s.PutU64(txn);
  s.PutEnum(type);
  s.PutU32(file_id);
  s.PutU64(key);
  s.PutBlob(after_image);
  s.PutBlob(before_image);
}

std::size_t AuditRecordView::WireSize() const noexcept {
  // Header fields + two length-prefixed blobs + frame overhead.
  return 8 + 8 + 4 + 4 + 8 + 4 + after_image.size() + 4 +
         before_image.size() + kFrameOverhead;
}

AuditRecordView AuditRecord::View() const noexcept {
  return {lsn, txn, type, file_id, key, after_image, before_image};
}

std::vector<std::byte> EncodeAuditBatch(const AuditRecordView& rec) {
  const std::size_t payload_size = rec.WireSize() - kFrameOverhead;
  Serializer s(4 + 4 + payload_size);
  s.PutU32(1);
  s.PutU32(static_cast<std::uint32_t>(payload_size));
  rec.SerializeInto(s);
  return std::move(s).Take();
}

void FrameRecord(const AuditRecordView& rec, std::vector<std::byte>& out) {
  // Serialize straight into `out` — the payload size is known up front,
  // so the frame needs no temporary payload vector and at most one
  // reallocation of the accumulating buffer.
  const std::size_t payload_size = rec.WireSize() - kFrameOverhead;
  // A zero-length payload is unrepresentable (the fixed header alone is
  // 40 bytes); recovery scans — host and device alike — rely on that to
  // treat a zero length word as the end-of-log sentinel rather than a
  // valid empty frame.
  assert(payload_size > 0 && "framed audit payload must be non-empty");
  Serializer s(std::move(out));
  s.Reserve(payload_size + kFrameOverhead);
  s.PutU32(static_cast<std::uint32_t>(payload_size));
  const std::size_t start = s.size();
  rec.SerializeInto(s);
  assert(s.size() - start == payload_size && "WireSize out of sync");
  s.PutU32(Crc32c(std::span(s.bytes()).subspan(start)));
  out = std::move(s).Take();
}

std::optional<AuditRecordView> LogScanner::Next() noexcept {
  if (pos_ + 8 > image_.size()) return std::nullopt;
  Deserializer d(image_.subspan(pos_));
  std::uint32_t len = 0;
  if (!d.GetU32(len) || len == 0 || pos_ + 4 + len + 4 > image_.size()) {
    return std::nullopt;
  }
  const auto payload = image_.subspan(pos_ + 4, len);
  Deserializer tail(image_.subspan(pos_ + 4 + len, 4));
  std::uint32_t stored = 0;
  (void)tail.GetU32(stored);
  if (Crc32c(payload) != stored) return std::nullopt;  // torn tail
  auto rec = AuditRecordView::Parse(payload);
  if (!rec) return std::nullopt;
  pos_ += 4 + len + 4;
  return rec;
}

std::vector<AuditRecordView> CommittedUpdates(
    std::span<const std::byte> image) {
  // Commit records follow their updates, so collect every update and
  // filter once the whole valid prefix — and with it the committed set —
  // has been seen.
  std::vector<AuditRecordView> updates;
  std::unordered_set<std::uint64_t> committed;
  LogScanner scan(image);
  while (auto rec = scan.Next()) {
    if (rec->type == AuditType::kCommit) {
      committed.insert(rec->txn);
    } else if (rec->type == AuditType::kUpdate) {
      updates.push_back(*rec);
    }
  }
  std::erase_if(updates, [&committed](const AuditRecordView& u) {
    return !committed.contains(u.txn);
  });
  return updates;
}

}  // namespace ods::tp
