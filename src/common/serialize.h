// Byte-order-stable serialization used for audit records, checkpoint
// messages, PMM metadata and wire messages. Little-endian on the wire,
// independent of host order (the simulated cluster is homogeneous but the
// format is still pinned down so golden tests are portable).
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace ods {

class Serializer {
 public:
  // A fresh serializer starts with a small reservation: nearly every
  // message is a few header fields plus a blob, and letting the vector
  // grow 1->2->4->... costs half a dozen reallocations per message on
  // the hot request path.
  Serializer() { out_.reserve(kInitialReserve); }
  explicit Serializer(std::vector<std::byte> buffer)
      : out_(std::move(buffer)) {}
  // Sized for `capacity` bytes: a message whose wire size is known up
  // front costs exactly one allocation.
  explicit Serializer(std::size_t capacity) { out_.reserve(capacity); }

  // Pre-sizes for `extra` more bytes; callers that know the wire size
  // up front (audit framing) make the whole message one allocation.
  // Keeps geometric growth when the buffer is an accumulating log image
  // — an exact reserve per append would degrade to quadratic copying.
  void Reserve(std::size_t extra) {
    const std::size_t need = out_.size() + extra;
    if (need <= out_.capacity()) return;
    out_.reserve(std::max(need, out_.capacity() * 2));
  }

  void PutU8(std::uint8_t v) { out_.push_back(static_cast<std::byte>(v)); }
  void PutU16(std::uint16_t v) { PutLittleEndian(v); }
  void PutU32(std::uint32_t v) { PutLittleEndian(v); }
  void PutU64(std::uint64_t v) { PutLittleEndian(v); }
  void PutI64(std::int64_t v) { PutU64(static_cast<std::uint64_t>(v)); }
  void PutBool(bool v) { PutU8(v ? 1 : 0); }

  template <typename E>
    requires std::is_enum_v<E>
  void PutEnum(E v) {
    PutU32(static_cast<std::uint32_t>(v));
  }

  void PutBytes(std::span<const std::byte> bytes);
  // Length-prefixed string / blob.
  void PutString(std::string_view s);
  void PutBlob(std::span<const std::byte> blob);

  [[nodiscard]] const std::vector<std::byte>& bytes() const noexcept {
    return out_;
  }
  [[nodiscard]] std::vector<std::byte> Take() && noexcept {
    return std::move(out_);
  }
  [[nodiscard]] std::size_t size() const noexcept { return out_.size(); }

 private:
  static constexpr std::size_t kInitialReserve = 64;

  template <typename T>
  void PutLittleEndian(T v) {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      out_.push_back(static_cast<std::byte>((v >> (8 * i)) & 0xFF));
    }
  }

  std::vector<std::byte> out_;
};

// Deserializer over a borrowed buffer. All getters return false (and latch
// a failure flag) on truncation; callers check `ok()` once at the end.
class Deserializer {
 public:
  explicit Deserializer(std::span<const std::byte> in) noexcept : in_(in) {}

  bool GetU8(std::uint8_t& v) noexcept { return GetLittleEndian(v); }
  bool GetU16(std::uint16_t& v) noexcept { return GetLittleEndian(v); }
  bool GetU32(std::uint32_t& v) noexcept { return GetLittleEndian(v); }
  bool GetU64(std::uint64_t& v) noexcept { return GetLittleEndian(v); }
  bool GetI64(std::int64_t& v) noexcept {
    std::uint64_t u = 0;
    if (!GetU64(u)) return false;
    v = static_cast<std::int64_t>(u);
    return true;
  }
  bool GetBool(bool& v) noexcept {
    std::uint8_t u = 0;
    if (!GetU8(u)) return false;
    v = (u != 0);
    return true;
  }

  template <typename E>
    requires std::is_enum_v<E>
  bool GetEnum(E& v) noexcept {
    std::uint32_t u = 0;
    if (!GetU32(u)) return false;
    v = static_cast<E>(u);
    return true;
  }

  bool GetBytes(std::span<std::byte> dst) noexcept;
  bool GetString(std::string& out);
  bool GetBlob(std::vector<std::byte>& out);
  // Length-prefixed blob as a view into the borrowed buffer (no copy;
  // valid only while that buffer lives).
  bool GetBlobView(std::span<const std::byte>& out) noexcept;

  [[nodiscard]] bool ok() const noexcept { return !failed_; }
  [[nodiscard]] std::size_t remaining() const noexcept {
    return in_.size() - pos_;
  }

 private:
  template <typename T>
  bool GetLittleEndian(T& v) noexcept {
    if (failed_ || in_.size() - pos_ < sizeof(T)) {
      failed_ = true;
      return false;
    }
    T out = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      out |= static_cast<T>(static_cast<std::uint8_t>(in_[pos_ + i]))
             << (8 * i);
    }
    pos_ += sizeof(T);
    v = out;
    return true;
  }

  std::span<const std::byte> in_;
  std::size_t pos_ = 0;
  bool failed_ = false;
};

}  // namespace ods
