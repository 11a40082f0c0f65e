// Immutable, reference-counted message bytes.
//
// Every request, reply and process-pair checkpoint carries its body as a
// Payload. Building one moves a byte vector in (no copy); copying one
// only bumps a count, so a retried call, a fan-out to several servers or
// a reply held past its handler all share the sender's single buffer.
// Readers see the bytes as a std::span, valid while any Payload that
// shares the buffer lives. The bytes never change after construction.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

namespace ods {

class Payload {
 public:
  Payload() noexcept = default;
  // Implicit so serializer output and byte vectors pass straight to
  // Call/Cast/Respond. An empty vector allocates nothing.
  Payload(std::vector<std::byte> bytes)  // NOLINT: implicit by design
      : bytes_(bytes.empty() ? nullptr
                             : std::make_shared<const std::vector<std::byte>>(
                                   std::move(bytes))) {}

  [[nodiscard]] const std::byte* data() const noexcept {
    return bytes_ ? bytes_->data() : nullptr;
  }
  [[nodiscard]] std::size_t size() const noexcept {
    return bytes_ ? bytes_->size() : 0;
  }
  [[nodiscard]] bool empty() const noexcept { return size() == 0; }
  [[nodiscard]] std::span<const std::byte> span() const noexcept {
    return {data(), size()};
  }
  operator std::span<const std::byte>() const noexcept {  // NOLINT
    return span();
  }
  // Bounds-checked under hardened builds, like std::span's.
  [[nodiscard]] std::byte operator[](std::size_t i) const noexcept {
    return span()[i];
  }
  [[nodiscard]] const std::byte* begin() const noexcept { return data(); }
  [[nodiscard]] const std::byte* end() const noexcept {
    return bytes_ ? bytes_->data() + bytes_->size() : nullptr;
  }

 private:
  std::shared_ptr<const std::vector<std::byte>> bytes_;
};

}  // namespace ods
