#include "common/crc32.h"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#define ODS_CRC32C_SSE42 1
#endif

namespace ods {
namespace {

using Table = std::array<std::uint32_t, 256>;

// Slicing-by-8 tables for CRC-32C (polynomial 0x1EDC6F41, reflected
// 0x82F63B78). kTables[0] is the classic byte-at-a-time table;
// kTables[k][b] is the CRC of byte b followed by k zero bytes, so eight
// independent lookups fold one 8-byte word.
constexpr std::array<Table, 8> MakeTables() {
  std::array<Table, 8> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1u) ? (crc >> 1) ^ 0x82F63B78u : crc >> 1;
    }
    t[0][i] = crc;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = t[k - 1][i];
      t[k][i] = t[0][prev & 0xFFu] ^ (prev >> 8);
    }
  }
  return t;
}

constexpr std::array<Table, 8> kTables = MakeTables();

// Little-endian load, independent of host byte order.
std::uint32_t LoadLe32(const std::byte* p) noexcept {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

// Raw (un-inverted) CRC state update over [p, p + n).
std::uint32_t UpdatePortable(const std::byte* p, std::size_t n,
                             std::uint32_t crc) noexcept {
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = crc ^ LoadLe32(p);
    const std::uint32_t hi = LoadLe32(p + 4);
    crc = kTables[7][lo & 0xFFu] ^ kTables[6][(lo >> 8) & 0xFFu] ^
          kTables[5][(lo >> 16) & 0xFFu] ^ kTables[4][lo >> 24] ^
          kTables[3][hi & 0xFFu] ^ kTables[2][(hi >> 8) & 0xFFu] ^
          kTables[1][(hi >> 16) & 0xFFu] ^ kTables[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    crc = kTables[0][(crc ^ static_cast<std::uint32_t>(*p)) & 0xFFu] ^
          (crc >> 8);
  }
  return crc;
}

#ifdef ODS_CRC32C_SSE42
// One crc32 instruction per 8-byte word (the instruction implements the
// reflected Castagnoli polynomial, so a little-endian word load matches
// the bytewise definition).
__attribute__((target("sse4.2"))) std::uint32_t UpdateSse42(
    const std::byte* p, std::size_t n, std::uint32_t crc) noexcept {
  std::uint64_t c = crc;
  for (; n >= 8; p += 8, n -= 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, p, sizeof(word));
    c = _mm_crc32_u64(c, word);
  }
  crc = static_cast<std::uint32_t>(c);
  for (; n > 0; ++p, --n) {
    crc = _mm_crc32_u8(crc, static_cast<std::uint8_t>(*p));
  }
  return crc;
}
#endif

using UpdateFn = std::uint32_t (*)(const std::byte*, std::size_t,
                                   std::uint32_t) noexcept;

UpdateFn SelectUpdate() noexcept {
#ifdef ODS_CRC32C_SSE42
  __builtin_cpu_init();
  if (__builtin_cpu_supports("sse4.2")) return &UpdateSse42;
#endif
  return &UpdatePortable;
}

}  // namespace

std::uint32_t Crc32c(std::span<const std::byte> data,
                     std::uint32_t seed) noexcept {
  static const UpdateFn update = SelectUpdate();
  return ~update(data.data(), data.size(), ~seed);
}

std::uint32_t Crc32c(const void* data, std::size_t size,
                     std::uint32_t seed) noexcept {
  return Crc32c(
      std::span<const std::byte>(static_cast<const std::byte*>(data), size),
      seed);
}

namespace detail {

std::uint32_t Crc32cPortable(std::span<const std::byte> data,
                             std::uint32_t seed) noexcept {
  return ~UpdatePortable(data.data(), data.size(), ~seed);
}

}  // namespace detail
}  // namespace ods
