#include "codec/ball_codec.h"

#include <limits>

#include "codec/checksum.h"
#include "codec/varint.h"

namespace epto::codec {

std::string_view toString(DecodeError error) noexcept {
  switch (error) {
    case DecodeError::None:
      return "none";
    case DecodeError::Truncated:
      return "truncated frame";
    case DecodeError::BadMagic:
      return "bad magic";
    case DecodeError::BadVersion:
      return "unsupported version";
    case DecodeError::BadVarint:
      return "malformed varint";
    case DecodeError::LengthOverflow:
      return "length exceeds frame";
    case DecodeError::ChecksumMismatch:
      return "checksum mismatch";
    case DecodeError::TrailingGarbage:
      return "trailing garbage";
  }
  return "unknown";
}

std::vector<std::byte> encodeBall(const Ball& ball) { return encodeBall(ball, {}); }

std::vector<std::byte> encodeBall(const Ball& ball, EncodeOptions options) {
  std::vector<std::byte> out;
  // Rough reservation: header + ~12 bytes per event (+ lineage) + payloads.
  std::size_t payloadTotal = 0;
  bool anyFast = false;
  for (const Event& event : ball) {
    if (event.payload != nullptr) payloadTotal += event.payload->size();
    if (event.qos == QosClass::Fast) anyFast = true;
  }
  // The qos flag bit is demand-driven: a Safe-only ball encodes exactly
  // as it would with qos disabled (see kFlagQos).
  const bool carryQos = options.qos && anyFast;
  const bool v2 = options.lineage || carryQos;
  out.reserve(9 + ball.size() * (options.lineage ? 19 : 13) + payloadTotal);

  out.push_back(static_cast<std::byte>(kMagic & 0xFF));
  out.push_back(static_cast<std::byte>(kMagic >> 8));
  out.push_back(static_cast<std::byte>(v2 ? kVersionLineage : kVersion));
  if (v2) {
    std::uint8_t flags = 0;
    if (options.lineage) flags |= kFlagLineage;
    if (carryQos) flags |= kFlagQos;
    out.push_back(static_cast<std::byte>(flags));
  }
  putVarint(out, ball.size());
  for (const Event& event : ball) {
    putVarint(out, event.id.source);
    putVarint(out, event.id.sequence);
    putVarint(out, event.ts);
    putVarint(out, event.ttl);
    if (options.lineage) {
      putVarint(out, event.hop);
      putVarint(out, event.originRound);
      putVarint(out, event.incarnation);
    }
    if (carryQos) {
      out.push_back(static_cast<std::byte>(static_cast<std::uint8_t>(event.qos)));
    }
    if (event.payload != nullptr) {
      putVarint(out, event.payload->size());
      out.insert(out.end(), event.payload->begin(), event.payload->end());
    } else {
      putVarint(out, 0);
    }
  }
  const std::uint32_t crc = crc32c(out);
  out.push_back(static_cast<std::byte>(crc & 0xFF));
  out.push_back(static_cast<std::byte>((crc >> 8) & 0xFF));
  out.push_back(static_cast<std::byte>((crc >> 16) & 0xFF));
  out.push_back(static_cast<std::byte>((crc >> 24) & 0xFF));
  return out;
}

namespace {

DecodeResult fail(DecodeError error) {
  DecodeResult result;
  result.error = error;
  return result;
}

}  // namespace

DecodeResult decodeBall(std::span<const std::byte> frame) {
  // The CRC trailer is fixed-width; split it off first.
  if (frame.size() < 4) return fail(DecodeError::Truncated);
  const std::span<const std::byte> body = frame.first(frame.size() - 4);
  const std::span<const std::byte> trailer = frame.last(4);
  std::uint32_t storedCrc = 0;
  for (int i = 3; i >= 0; --i) {
    storedCrc = (storedCrc << 8) | static_cast<std::uint32_t>(trailer[static_cast<std::size_t>(i)]);
  }
  if (crc32c(body) != storedCrc) return fail(DecodeError::ChecksumMismatch);

  ByteReader reader(body);
  const auto magicLo = reader.readByte();
  const auto magicHi = reader.readByte();
  if (!magicLo.has_value() || !magicHi.has_value()) return fail(DecodeError::Truncated);
  if ((static_cast<std::uint16_t>(*magicHi) << 8 | *magicLo) != kMagic) {
    return fail(DecodeError::BadMagic);
  }
  const auto version = reader.readByte();
  if (!version.has_value()) return fail(DecodeError::Truncated);
  if (*version != kVersion && *version != kVersionLineage) {
    return fail(DecodeError::BadVersion);
  }
  bool lineage = false;
  bool qos = false;
  if (*version == kVersionLineage) {
    const auto flags = reader.readByte();
    if (!flags.has_value()) return fail(DecodeError::Truncated);
    // Unknown flag bits change the per-event layout, so they cannot be
    // skipped over — reject rather than misparse.
    if ((static_cast<std::uint8_t>(*flags) & ~(kFlagLineage | kFlagQos)) != 0) {
      return fail(DecodeError::BadVersion);
    }
    lineage = (static_cast<std::uint8_t>(*flags) & kFlagLineage) != 0;
    qos = (static_cast<std::uint8_t>(*flags) & kFlagQos) != 0;
  }

  const auto count = reader.readVarint();
  if (!count.has_value()) return fail(DecodeError::BadVarint);
  // An event costs at least 5 body bytes (source, sequence, ts, ttl and
  // payload length, one varint byte each), plus 3 for the lineage block
  // and 1 for the qos byte; reject counts that a frame of this size
  // cannot possibly hold before allocating.
  const std::size_t minEventBytes = std::size_t{5} + (lineage ? 3U : 0U) + (qos ? 1U : 0U);
  if (*count > reader.remaining() / minEventBytes) {
    return fail(DecodeError::LengthOverflow);
  }

  DecodeResult result;
  result.ball.reserve(static_cast<std::size_t>(*count));
  for (std::uint64_t i = 0; i < *count; ++i) {
    Event event;
    const auto source = reader.readVarint();
    const auto sequence = reader.readVarint();
    const auto ts = reader.readVarint();
    const auto ttl = reader.readVarint();
    if (!source.has_value() || !sequence.has_value() || !ts.has_value() ||
        !ttl.has_value()) {
      return fail(DecodeError::BadVarint);
    }
    if (*source > std::numeric_limits<ProcessId>::max() ||
        *sequence > std::numeric_limits<std::uint32_t>::max() ||
        *ttl > std::numeric_limits<std::uint32_t>::max()) {
      return fail(DecodeError::LengthOverflow);
    }
    event.id = EventId{static_cast<ProcessId>(*source),
                       static_cast<std::uint32_t>(*sequence)};
    event.ts = *ts;
    event.ttl = static_cast<std::uint32_t>(*ttl);
    if (lineage) {
      const auto hop = reader.readVarint();
      const auto originRound = reader.readVarint();
      const auto incarnation = reader.readVarint();
      if (!hop.has_value() || !originRound.has_value() || !incarnation.has_value()) {
        return fail(DecodeError::BadVarint);
      }
      if (*hop > std::numeric_limits<std::uint16_t>::max() ||
          *originRound > std::numeric_limits<std::uint32_t>::max() ||
          *incarnation > std::numeric_limits<std::uint16_t>::max()) {
        return fail(DecodeError::LengthOverflow);
      }
      event.hop = static_cast<std::uint16_t>(*hop);
      event.originRound = static_cast<std::uint32_t>(*originRound);
      event.incarnation = static_cast<std::uint16_t>(*incarnation);
    }
    if (qos) {
      const auto qosByte = reader.readByte();
      if (!qosByte.has_value()) return fail(DecodeError::Truncated);
      // Only the two defined classes are valid; anything else is a
      // layout we do not understand, not data to be clamped.
      if (static_cast<std::uint8_t>(*qosByte) > static_cast<std::uint8_t>(QosClass::Fast)) {
        return fail(DecodeError::BadVersion);
      }
      event.qos = static_cast<QosClass>(*qosByte);
    }
    const auto payloadLen = reader.readVarint();
    if (!payloadLen.has_value()) return fail(DecodeError::BadVarint);
    if (*payloadLen > 0) {
      const auto payload = reader.readBytes(static_cast<std::size_t>(*payloadLen));
      if (!payload.has_value()) return fail(DecodeError::LengthOverflow);
      event.payload =
          std::make_shared<PayloadBytes>(payload->begin(), payload->end());
    }
    result.ball.push_back(std::move(event));
  }
  if (!reader.exhausted()) return fail(DecodeError::TrailingGarbage);
  return result;
}

}  // namespace epto::codec
