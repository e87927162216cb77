#include "codec/checksum.h"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace epto::codec {

namespace {

/// Table for the reflected CRC32C polynomial 0x82F63B78.
constexpr std::array<std::uint32_t, 256> makeTable() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1) != 0 ? (crc >> 1) ^ 0x82F63B78u : crc >> 1;
    }
    table[i] = crc;
  }
  return table;
}

constexpr std::array<std::uint32_t, 256> kTable = makeTable();

}  // namespace

namespace detail {

std::uint32_t crc32cTable(std::span<const std::byte> data) noexcept {
  std::uint32_t crc = 0xFFFFFFFFu;
  for (const std::byte b : data) {
    crc = kTable[(crc ^ static_cast<std::uint32_t>(b)) & 0xFF] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

#if defined(__x86_64__)

bool crc32cHardwareAvailable() noexcept {
  // A function-local static is initialised on first use, thread-safely,
  // even when that use comes from another translation unit's static
  // initialiser; __builtin_cpu_init makes the feature bits valid there.
  static const bool available = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("sse4.2") != 0;
  }();
  return available;
}

// The instruction consumes little-endian words, which is the byte order
// of the reflected CRC, so it agrees with the table loop byte for byte.
__attribute__((target("sse4.2")))
std::uint32_t crc32cHardware(std::span<const std::byte> data) noexcept {
  const std::byte* p = data.data();
  std::size_t n = data.size();
  std::uint64_t crc64 = 0xFFFFFFFFu;
  for (; n >= 8; n -= 8, p += 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, p, sizeof word);
    crc64 = _mm_crc32_u64(crc64, word);
  }
  auto crc = static_cast<std::uint32_t>(crc64);
  for (; n > 0; --n, ++p) {
    crc = _mm_crc32_u8(crc, static_cast<std::uint8_t>(*p));
  }
  return crc ^ 0xFFFFFFFFu;
}

#else

bool crc32cHardwareAvailable() noexcept { return false; }

std::uint32_t crc32cHardware(std::span<const std::byte> data) noexcept {
  return crc32cTable(data);
}

#endif

}  // namespace detail

std::uint32_t crc32c(std::span<const std::byte> data) noexcept {
  if (detail::crc32cHardwareAvailable()) return detail::crc32cHardware(data);
  return detail::crc32cTable(data);
}

}  // namespace epto::codec
