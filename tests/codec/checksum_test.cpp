#include <gtest/gtest.h>

#include <cstring>
#include <span>
#include <string_view>
#include <vector>

#include "codec/checksum.h"

namespace epto::codec {
namespace {

std::vector<std::byte> bytesOf(std::string_view text) {
  std::vector<std::byte> out(text.size());
  std::memcpy(out.data(), text.data(), text.size());
  return out;
}

TEST(Crc32c, KnownVectors) {
  // Published CRC32C test vectors.
  EXPECT_EQ(crc32c({}), 0x00000000u);
  EXPECT_EQ(crc32c(bytesOf("123456789")), 0xE3069283u);
  const std::vector<std::byte> zeros(32, std::byte{0});
  EXPECT_EQ(crc32c(zeros), 0x8A9136AAu);
  const std::vector<std::byte> ones(32, std::byte{0xFF});
  EXPECT_EQ(crc32c(ones), 0x62A8AB43u);
}

TEST(Crc32c, SensitiveToEveryBit) {
  auto data = bytesOf("the quick brown fox jumps over the lazy dog");
  const std::uint32_t reference = crc32c(data);
  for (std::size_t i = 0; i < data.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      data[i] ^= static_cast<std::byte>(1 << bit);
      EXPECT_NE(crc32c(data), reference) << "byte " << i << " bit " << bit;
      data[i] ^= static_cast<std::byte>(1 << bit);
    }
  }
  EXPECT_EQ(crc32c(data), reference);  // restored
}

std::vector<std::byte> patterned(std::size_t size) {
  std::vector<std::byte> out(size);
  std::uint32_t state = 0x2545F491U;
  for (std::byte& b : out) {
    state = state * 1664525U + 1013904223U;
    b = static_cast<std::byte>(state >> 24);
  }
  return out;
}

std::vector<std::byte> counting(std::size_t size, bool up) {
  std::vector<std::byte> out(size);
  for (std::size_t i = 0; i < size; ++i) {
    out[i] = static_cast<std::byte>(up ? i : size - 1 - i);
  }
  return out;
}

/// The standard "123456789" check value (a 1-byte tail after one 8-byte
/// step) and the 32-byte RFC 3720 (iSCSI) vectors (four whole steps).
void expectPublishedVectors(std::uint32_t (*crc)(std::span<const std::byte>) noexcept) {
  EXPECT_EQ(crc({}), 0x00000000u);
  EXPECT_EQ(crc(bytesOf("123456789")), 0xE3069283u);
  EXPECT_EQ(crc(std::vector<std::byte>(32, std::byte{0})), 0x8A9136AAu);
  EXPECT_EQ(crc(std::vector<std::byte>(32, std::byte{0xFF})), 0x62A8AB43u);
  EXPECT_EQ(crc(counting(32, /*up=*/true)), 0x46DD794Eu);
  EXPECT_EQ(crc(counting(32, /*up=*/false)), 0x113FDB5Cu);
}

TEST(Crc32c, TablePathGivesThePublishedVectors) {
  expectPublishedVectors(&detail::crc32cTable);
}

TEST(Crc32c, HardwarePathGivesThePublishedVectors) {
  if (!detail::crc32cHardwareAvailable()) GTEST_SKIP() << "CPU lacks SSE4.2";
  expectPublishedVectors(&detail::crc32cHardware);
}

TEST(Crc32c, HardwarePathMatchesTheTableAtEveryLengthAndOffset) {
  if (!detail::crc32cHardwareAvailable()) GTEST_SKIP() << "CPU lacks SSE4.2";
  // Every tail length and every start alignment of the 8-byte loads,
  // past udp_bulk's ~1 KB frames and the default 1,400 B datagram.
  const std::vector<std::byte> data = patterned(2048 + 7);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t length = 0; length <= 2048; ++length) {
      const std::span<const std::byte> slice(data.data() + offset, length);
      ASSERT_EQ(detail::crc32cHardware(slice), detail::crc32cTable(slice))
          << "offset " << offset << " length " << length;
    }
  }
}

TEST(Crc32c, Deterministic) {
  const auto data = bytesOf("epto");
  EXPECT_EQ(crc32c(data), crc32c(data));
}

}  // namespace
}  // namespace epto::codec
