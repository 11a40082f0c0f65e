#include "common/serialize.h"

namespace ods {

void Serializer::PutBytes(std::span<const std::byte> bytes) {
  out_.insert(out_.end(), bytes.begin(), bytes.end());
}

void Serializer::PutString(std::string_view s) {
  PutU32(static_cast<std::uint32_t>(s.size()));
  PutBytes(std::as_bytes(std::span<const char>(s.data(), s.size())));
}

void Serializer::PutBlob(std::span<const std::byte> blob) {
  PutU32(static_cast<std::uint32_t>(blob.size()));
  PutBytes(blob);
}

bool Deserializer::GetBytes(std::span<std::byte> dst) noexcept {
  if (failed_ || in_.size() - pos_ < dst.size()) {
    failed_ = true;
    return false;
  }
  std::copy_n(in_.begin() + static_cast<std::ptrdiff_t>(pos_), dst.size(),
              dst.begin());
  pos_ += dst.size();
  return true;
}

bool Deserializer::GetString(std::string& out) {
  std::uint32_t n = 0;
  if (!GetU32(n)) return false;
  if (in_.size() - pos_ < n) {
    failed_ = true;
    return false;
  }
  out.assign(reinterpret_cast<const char*>(in_.data() + pos_), n);
  pos_ += n;
  return true;
}

bool Deserializer::GetBlob(std::vector<std::byte>& out) {
  std::span<const std::byte> view;
  if (!GetBlobView(view)) return false;
  out.assign(view.begin(), view.end());
  return true;
}

bool Deserializer::GetBlobView(std::span<const std::byte>& out) noexcept {
  std::uint32_t n = 0;
  if (!GetU32(n)) return false;
  if (in_.size() - pos_ < n) {
    failed_ = true;
    return false;
  }
  out = in_.subspan(pos_, n);
  pos_ += n;
  return true;
}

}  // namespace ods
