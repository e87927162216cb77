// EpTO wire format: serialization of balls for real transports.
//
// Frame layout (all multi-byte integers are varints unless noted):
//
//   magic      u16-LE     0xE970 ("EpTO")
//   version    u8         1 or 2
//   flags      u8         version 2 only; bit 0 = per-event lineage,
//                         bit 1 = per-event QoS class
//   count      varint     number of events
//   events     count x {
//     source      varint
//     sequence    varint
//     ts          varint
//     ttl         varint
//     hop         varint   only with the lineage flag
//     originRound varint   only with the lineage flag
//     incarnation varint   only with the lineage flag
//     qos         u8       only with the qos flag; 0 = Safe, 1 = Fast
//     payloadLen  varint
//     payload     payloadLen raw bytes
//   }
//   crc32c     u32-LE     over everything above
//
// Versioning: version 1 is the original frame and is still emitted by
// encodeBall(ball) byte-for-byte, so a fleet mixing old and new nodes
// interoperates — a new decoder accepts both versions (v1 events carry
// zeroed lineage), an old decoder rejects v2 frames as BadVersion and
// a sender falls back by encoding with EncodeOptions::lineage off. The
// flags byte keeps future extensions orthogonal; unknown flag bits are
// rejected because they change the per-event layout. The lineage flag is independent of
// EPTO_TRACE: wire lineage is protocol data, not trace plumbing, so an
// EPTO_TRACE=OFF build still relays it intact.
//
// Decoding is fully defensive: truncated frames, bad magic, unsupported
// versions, overflowing varints, lying length fields and checksum
// mismatches are all rejected with a precise error code — network input
// is never trusted. A decode allocates at most `count` events and the
// declared payload bytes, both bounded by the frame size itself.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "core/types.h"

namespace epto::codec {

inline constexpr std::uint16_t kMagic = 0xE970;
inline constexpr std::uint8_t kVersion = 1;
inline constexpr std::uint8_t kVersionLineage = 2;
/// Version-2 flags byte, bit 0: events carry {hop, originRound,
/// incarnation} varints between ttl and payloadLen.
inline constexpr std::uint8_t kFlagLineage = 0x01;
/// Version-2 flags byte, bit 1: events carry a QoS class byte just
/// before payloadLen. The encoder sets this bit only when the ball
/// actually contains a Fast-class event, so all-Safe traffic stays
/// byte-identical whether or not the sender has QoS enabled.
inline constexpr std::uint8_t kFlagQos = 0x02;

enum class DecodeError : std::uint8_t {
  None,
  Truncated,        ///< frame ends mid-field
  BadMagic,         ///< first two bytes are not kMagic
  BadVersion,       ///< version byte unsupported
  BadVarint,        ///< malformed or overflowing varint
  LengthOverflow,   ///< a declared length exceeds the remaining frame
  ChecksumMismatch, ///< CRC32C trailer does not match the body
  TrailingGarbage,  ///< bytes left after the checksum
};

[[nodiscard]] std::string_view toString(DecodeError error) noexcept;

struct EncodeOptions {
  /// Emit a version-2 frame carrying per-event lineage. Off emits the
  /// version-1 frame older decoders understand.
  bool lineage = false;
  /// Allow the frame to carry per-event QoS classes. Even when on, the
  /// qos flag bit (and the per-event byte) appears only in frames that
  /// contain at least one Fast event — a ball of Safe events encodes
  /// byte-identically with qos on or off, so enabling speculation on a
  /// sender does not perturb the wire traffic of Safe-only workloads.
  bool qos = false;
};

/// Serialize a ball into a self-contained frame. The single-argument
/// overload emits version 1, byte-identical to what it always produced.
[[nodiscard]] std::vector<std::byte> encodeBall(const Ball& ball);
[[nodiscard]] std::vector<std::byte> encodeBall(const Ball& ball, EncodeOptions options);

struct DecodeResult {
  Ball ball;
  DecodeError error = DecodeError::None;

  [[nodiscard]] bool ok() const noexcept { return error == DecodeError::None; }
};

/// Parse one frame. On failure, `ball` is empty and `error` says why.
[[nodiscard]] DecodeResult decodeBall(std::span<const std::byte> frame);

}  // namespace epto::codec
