// CRC32C (Castagnoli) — corruption detection for the EpTO wire format.
//
// Balls traverse lossy, possibly-mangling transports; the codec trailer
// carries a CRC32C over the frame body so that a corrupted ball is
// rejected instead of poisoning the ordering state. Every frame and
// every fragment is checksummed, and each event travels in ~K·TTL ball
// copies, so the per-byte cost is paid many times per delivery.
//
// On x86-64 CPUs with SSE4.2 the `crc32` instruction folds 8 bytes per
// step: ~0.17 ns/B against the table loop's ~4 ns/B on a 1,077-byte
// frame (a 4-core x86-64 VM). The path is chosen once per process from
// the CPU's feature bits, with no build flag. Every other CPU and
// architecture runs the one-table byte loop. Both paths compute the same
// function, so the wire bytes do not depend on the host.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace epto::codec {

/// CRC32C of `data` (initial value per the standard: all-ones, reflected).
[[nodiscard]] std::uint32_t crc32c(std::span<const std::byte> data) noexcept;

namespace detail {

/// The byte-at-a-time table loop `crc32c` runs without SSE4.2.
[[nodiscard]] std::uint32_t crc32cTable(std::span<const std::byte> data) noexcept;

/// True when this build and CPU can run `crc32cHardware`.
[[nodiscard]] bool crc32cHardwareAvailable() noexcept;

/// The SSE4.2 path `crc32c` runs when `crc32cHardwareAvailable()`.
/// On an x86-64 CPU without SSE4.2 calling it is undefined; off x86-64
/// it is the table loop.
[[nodiscard]] std::uint32_t crc32cHardware(std::span<const std::byte> data) noexcept;

}  // namespace detail

}  // namespace epto::codec
