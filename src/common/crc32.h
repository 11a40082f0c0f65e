// CRC-32C (Castagnoli) used for ServerNet packet checksums and PMM
// metadata self-consistency, mirroring the paper's reliance on link CRCs
// ("when ServerNet transfer completes without error, the packet is
// guaranteed to have arrived in the remote NIC with a correct CRC").
//
// Crc32c picks its implementation once per process: the SSE4.2 crc32
// instruction when the CPU has it, else a portable slicing-by-8 table
// loop. Both compute the same function, so every checksum (and every
// byte derived from one) is independent of the host.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace ods {

// Computes CRC-32C over `data`, seeded with `seed` (pass a previous crc to
// chain computations over discontiguous buffers).
[[nodiscard]] std::uint32_t Crc32c(std::span<const std::byte> data,
                                   std::uint32_t seed = 0) noexcept;

[[nodiscard]] std::uint32_t Crc32c(const void* data, std::size_t size,
                                   std::uint32_t seed = 0) noexcept;

namespace detail {

// The portable slicing-by-8 fallback, callable directly so tests can
// check the dispatched Crc32c against it.
[[nodiscard]] std::uint32_t Crc32cPortable(std::span<const std::byte> data,
                                           std::uint32_t seed = 0) noexcept;

}  // namespace detail
}  // namespace ods
