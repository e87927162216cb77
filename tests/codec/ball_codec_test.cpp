#include <gtest/gtest.h>

#include <vector>

#include "codec/ball_codec.h"
#include "codec/checksum.h"
#include "codec/varint.h"
#include "util/rng.h"

namespace epto::codec {
namespace {

Event makeEvent(ProcessId source, std::uint32_t seq, Timestamp ts, std::uint32_t ttl,
                std::size_t payloadBytes = 0) {
  Event e;
  e.id = EventId{source, seq};
  e.ts = ts;
  e.ttl = ttl;
  if (payloadBytes > 0) {
    auto payload = std::make_shared<PayloadBytes>();
    for (std::size_t i = 0; i < payloadBytes; ++i) {
      payload->push_back(static_cast<std::byte>(i * 31 + source));
    }
    e.payload = std::move(payload);
  }
  return e;
}

void expectSameBall(const Ball& a, const Ball& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id);
    EXPECT_EQ(a[i].ts, b[i].ts);
    EXPECT_EQ(a[i].ttl, b[i].ttl);
    EXPECT_EQ(a[i].hop, b[i].hop);
    EXPECT_EQ(a[i].originRound, b[i].originRound);
    EXPECT_EQ(a[i].incarnation, b[i].incarnation);
    EXPECT_EQ(a[i].qos, b[i].qos);
    const bool aHas = a[i].payload != nullptr && !a[i].payload->empty();
    const bool bHas = b[i].payload != nullptr && !b[i].payload->empty();
    ASSERT_EQ(aHas, bHas);
    if (aHas) {
      EXPECT_EQ(*a[i].payload, *b[i].payload);
    }
  }
}

TEST(BallCodec, EmptyBallRoundTrips) {
  const auto frame = encodeBall({});
  const auto decoded = decodeBall(frame);
  ASSERT_TRUE(decoded.ok()) << toString(decoded.error);
  EXPECT_TRUE(decoded.ball.empty());
}

TEST(BallCodec, TypicalBallRoundTrips) {
  Ball ball{makeEvent(1, 0, 100, 3), makeEvent(2, 7, 101, 15, 32),
            makeEvent(0xFFFFFFFF, 0xFFFFFFFF, 0xFFFFFFFFFFFFFFFFULL, 0xFFFFFFFF),
            makeEvent(3, 1, 0, 0, 1)};
  const auto frame = encodeBall(ball);
  const auto decoded = decodeBall(frame);
  ASSERT_TRUE(decoded.ok()) << toString(decoded.error);
  expectSameBall(ball, decoded.ball);
}

TEST(BallCodec, RandomBallsRoundTrip) {
  util::Rng rng(2718);
  for (int trial = 0; trial < 300; ++trial) {
    Ball ball;
    const std::size_t count = rng.below(40);
    for (std::size_t i = 0; i < count; ++i) {
      ball.push_back(makeEvent(static_cast<ProcessId>(rng()),
                               static_cast<std::uint32_t>(rng()), rng(),
                               static_cast<std::uint32_t>(rng()), rng.below(64)));
    }
    const auto frame = encodeBall(ball);
    const auto decoded = decodeBall(frame);
    ASSERT_TRUE(decoded.ok()) << toString(decoded.error);
    expectSameBall(ball, decoded.ball);
  }
}

TEST(BallCodec, EveryTruncationRejected) {
  const auto frame = encodeBall({makeEvent(1, 2, 3, 4, 10), makeEvent(5, 6, 7, 8)});
  for (std::size_t keep = 0; keep < frame.size(); ++keep) {
    const auto decoded = decodeBall(std::span(frame.data(), keep));
    EXPECT_FALSE(decoded.ok()) << "kept " << keep << " bytes";
  }
}

TEST(BallCodec, EverySingleBitFlipRejected) {
  // The CRC32C trailer guarantees any single-bit corruption is caught.
  auto frame = encodeBall({makeEvent(1, 2, 3, 4, 8)});
  for (std::size_t i = 0; i < frame.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      frame[i] ^= static_cast<std::byte>(1 << bit);
      const auto decoded = decodeBall(frame);
      EXPECT_FALSE(decoded.ok()) << "byte " << i << " bit " << bit;
      frame[i] ^= static_cast<std::byte>(1 << bit);
    }
  }
  EXPECT_TRUE(decodeBall(frame).ok());  // restored frame is fine again
}

TEST(BallCodec, BadMagicReported) {
  auto frame = encodeBall({});
  frame[0] = std::byte{0x00};
  // Re-stamp the CRC so the specific error is BadMagic, not checksum.
  const auto body = std::span(frame.data(), frame.size() - 4);
  const std::uint32_t crc = crc32c(body);
  for (int i = 0; i < 4; ++i) {
    frame[frame.size() - 4 + static_cast<std::size_t>(i)] =
        static_cast<std::byte>((crc >> (8 * i)) & 0xFF);
  }
  EXPECT_EQ(decodeBall(frame).error, DecodeError::BadMagic);
}

TEST(BallCodec, BadVersionReported) {
  auto frame = encodeBall({});
  frame[2] = std::byte{99};
  const std::uint32_t crc = crc32c(std::span(frame.data(), frame.size() - 4));
  for (int i = 0; i < 4; ++i) {
    frame[frame.size() - 4 + static_cast<std::size_t>(i)] =
        static_cast<std::byte>((crc >> (8 * i)) & 0xFF);
  }
  EXPECT_EQ(decodeBall(frame).error, DecodeError::BadVersion);
}

TEST(BallCodec, LyingEventCountRejectedWithoutHugeAllocation) {
  // Hand-craft a frame declaring 2^40 events in a 20-byte body.
  std::vector<std::byte> frame;
  frame.push_back(std::byte{0x70});
  frame.push_back(std::byte{0xE9});
  frame.push_back(std::byte{1});
  putVarint(frame, 1ULL << 40);
  const std::uint32_t crc = crc32c(frame);
  for (int i = 0; i < 4; ++i) {
    frame.push_back(static_cast<std::byte>((crc >> (8 * i)) & 0xFF));
  }
  EXPECT_EQ(decodeBall(frame).error, DecodeError::LengthOverflow);
}

/// A sealed frame declaring `declared` events whose body after the count
/// holds one complete payload-free event of the layout `flags` selects,
/// then `extra` bytes of a second one: too few for the declared count.
std::vector<std::byte> shortCountFrame(std::uint64_t declared, std::uint8_t flags,
                                       std::size_t extra) {
  std::vector<std::byte> frame;
  frame.push_back(std::byte{0x70});
  frame.push_back(std::byte{0xE9});
  frame.push_back(std::byte{flags == 0 ? kVersion : kVersionLineage});
  if (flags != 0) frame.push_back(static_cast<std::byte>(flags));
  putVarint(frame, declared);
  std::size_t eventBytes = 5;
  if ((flags & kFlagLineage) != 0) eventBytes += 3;
  if ((flags & kFlagQos) != 0) eventBytes += 1;
  // One-byte fields: 1 everywhere (a valid qos class too), then an
  // empty payload; the partial second event repeats the 1s.
  for (std::size_t i = 0; i + 1 < eventBytes; ++i) putVarint(frame, 1);
  putVarint(frame, 0);
  for (std::size_t i = 0; i < extra; ++i) putVarint(frame, 1);
  const std::uint32_t crc = crc32c(frame);
  for (int i = 0; i < 4; ++i) {
    frame.push_back(static_cast<std::byte>((crc >> (8 * i)) & 0xFF));
  }
  return frame;
}

TEST(BallCodec, EventCountBoundedByTheLayoutsMinimumEventSize) {
  // v1: 2 events declared, 9 body bytes (one 5-byte event plus 4) —
  // rejected before the reservation, not after parsing one event.
  EXPECT_EQ(decodeBall(shortCountFrame(2, 0, 4)).error, DecodeError::LengthOverflow);
  // The lineage block adds 3 bytes per event and the qos byte 1; a bound
  // that missed either would let these through to fail later.
  EXPECT_EQ(decodeBall(shortCountFrame(2, kFlagLineage, 7)).error,
            DecodeError::LengthOverflow);
  EXPECT_EQ(decodeBall(shortCountFrame(2, kFlagLineage | kFlagQos, 8)).error,
            DecodeError::LengthOverflow);
  // One declared event that fits every layout still decodes.
  EXPECT_TRUE(decodeBall(shortCountFrame(1, 0, 0)).ok());
  EXPECT_TRUE(decodeBall(shortCountFrame(1, kFlagLineage | kFlagQos, 0)).ok());
}

TEST(BallCodec, LyingPayloadLengthRejected) {
  std::vector<std::byte> frame;
  frame.push_back(std::byte{0x70});
  frame.push_back(std::byte{0xE9});
  frame.push_back(std::byte{1});
  putVarint(frame, 1);   // one event
  putVarint(frame, 1);   // source
  putVarint(frame, 0);   // sequence
  putVarint(frame, 10);  // ts
  putVarint(frame, 2);   // ttl
  putVarint(frame, 1000);  // payload length: lies
  const std::uint32_t crc = crc32c(frame);
  for (int i = 0; i < 4; ++i) {
    frame.push_back(static_cast<std::byte>((crc >> (8 * i)) & 0xFF));
  }
  EXPECT_EQ(decodeBall(frame).error, DecodeError::LengthOverflow);
}

TEST(BallCodec, TrailingGarbageRejected) {
  std::vector<std::byte> frame;
  frame.push_back(std::byte{0x70});
  frame.push_back(std::byte{0xE9});
  frame.push_back(std::byte{1});
  putVarint(frame, 0);               // zero events
  frame.push_back(std::byte{0xAB});  // stray byte
  const std::uint32_t crc = crc32c(frame);
  for (int i = 0; i < 4; ++i) {
    frame.push_back(static_cast<std::byte>((crc >> (8 * i)) & 0xFF));
  }
  EXPECT_EQ(decodeBall(frame).error, DecodeError::TrailingGarbage);
}

TEST(BallCodec, RandomGarbageNeverCrashesOrSucceeds) {
  util::Rng rng(777);
  int accepted = 0;
  for (int trial = 0; trial < 20000; ++trial) {
    std::vector<std::byte> junk(rng.below(64));
    for (auto& b : junk) b = static_cast<std::byte>(rng());
    if (decodeBall(junk).ok()) ++accepted;
  }
  // 32-bit CRC + magic: the odds of random junk validating are ~2^-48.
  EXPECT_EQ(accepted, 0);
}

TEST(BallCodec, OversizedFieldsInValidFrameRejected) {
  // A frame can be internally consistent (CRC fine) yet declare a source
  // id beyond 32 bits — the decoder must range-check.
  std::vector<std::byte> frame;
  frame.push_back(std::byte{0x70});
  frame.push_back(std::byte{0xE9});
  frame.push_back(std::byte{1});
  putVarint(frame, 1);
  putVarint(frame, 1ULL << 40);  // source exceeds ProcessId
  putVarint(frame, 0);
  putVarint(frame, 1);
  putVarint(frame, 1);
  putVarint(frame, 0);
  const std::uint32_t crc = crc32c(frame);
  for (int i = 0; i < 4; ++i) {
    frame.push_back(static_cast<std::byte>((crc >> (8 * i)) & 0xFF));
  }
  EXPECT_EQ(decodeBall(frame).error, DecodeError::LengthOverflow);
}

TEST(BallCodec, WireSizeIsCompact) {
  // 100 payload-free events with small ts/ttl must encode well under the
  // 24-byte in-memory footprint per event.
  Ball ball;
  for (std::uint32_t i = 0; i < 100; ++i) ball.push_back(makeEvent(i, i, 1000 + i, 5));
  const auto frame = encodeBall(ball);
  EXPECT_LT(frame.size(), 100 * 10 + 16);
}

// ---- version 2: per-event lineage ----------------------------------------

Event makeLineageEvent(ProcessId source, std::uint32_t seq, std::uint16_t hop,
                       std::uint32_t originRound, std::uint16_t incarnation) {
  Event e = makeEvent(source, seq, 100 + seq, 3, seq % 7);
  e.hop = hop;
  e.originRound = originRound;
  e.incarnation = incarnation;
  return e;
}

void restampCrc(std::vector<std::byte>& frame) {
  const std::uint32_t crc = crc32c(std::span(frame.data(), frame.size()));
  for (int i = 0; i < 4; ++i) {
    frame.push_back(static_cast<std::byte>((crc >> (8 * i)) & 0xFF));
  }
}

TEST(BallCodecV2, LineageRoundTrips) {
  Ball ball{makeLineageEvent(1, 0, 0, 0, 0), makeLineageEvent(2, 7, 3, 41, 2),
            makeLineageEvent(9, 5, 0xFFFF, 0xFFFFFFFF, 0xFFFF)};
  const auto frame = encodeBall(ball, EncodeOptions{.lineage = true});
  EXPECT_EQ(frame[2], std::byte{kVersionLineage});
  EXPECT_EQ(frame[3], std::byte{kFlagLineage});
  const auto decoded = decodeBall(frame);
  ASSERT_TRUE(decoded.ok()) << toString(decoded.error);
  expectSameBall(ball, decoded.ball);
}

TEST(BallCodecV2, RandomLineageBallsRoundTrip) {
  util::Rng rng(424242);
  for (int trial = 0; trial < 200; ++trial) {
    Ball ball;
    const std::size_t count = rng.below(20);
    for (std::size_t i = 0; i < count; ++i) {
      ball.push_back(makeLineageEvent(
          static_cast<ProcessId>(rng()), static_cast<std::uint32_t>(rng()),
          static_cast<std::uint16_t>(rng()), static_cast<std::uint32_t>(rng()),
          static_cast<std::uint16_t>(rng())));
    }
    const auto decoded = decodeBall(encodeBall(ball, EncodeOptions{.lineage = true}));
    ASSERT_TRUE(decoded.ok()) << toString(decoded.error);
    expectSameBall(ball, decoded.ball);
  }
}

TEST(BallCodecV2, LegacyEncoderStaysByteIdentical) {
  // A node that never opts into lineage must keep emitting the exact v1
  // frame — the mixed-fleet interop guarantee.
  Ball ball{makeLineageEvent(3, 1, 5, 99, 1)};
  EXPECT_EQ(encodeBall(ball), encodeBall(ball, EncodeOptions{.lineage = false}));
  EXPECT_EQ(encodeBall(ball)[2], std::byte{kVersion});
}

TEST(BallCodecV2, V1FrameDecodesWithZeroedLineage) {
  // Old sender -> new decoder: lineage silently defaults to zero.
  Ball ball{makeLineageEvent(4, 2, 7, 123, 3)};
  const auto decoded = decodeBall(encodeBall(ball));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.ball[0].hop, 0u);
  EXPECT_EQ(decoded.ball[0].originRound, 0u);
  EXPECT_EQ(decoded.ball[0].incarnation, 0u);
  EXPECT_EQ(decoded.ball[0].id, ball[0].id);
}

TEST(BallCodecV2, UnknownFlagBitsRejected) {
  // Unknown flags change the per-event layout, so they must not be
  // silently ignored.
  std::vector<std::byte> frame;
  frame.push_back(std::byte{0x70});
  frame.push_back(std::byte{0xE9});
  frame.push_back(std::byte{kVersionLineage});
  frame.push_back(std::byte{0x04});  // neither kFlagLineage nor kFlagQos
  putVarint(frame, 0);
  restampCrc(frame);
  EXPECT_EQ(decodeBall(frame).error, DecodeError::BadVersion);
}

TEST(BallCodecV2, OversizedLineageFieldsRejected) {
  const auto craft = [](std::uint64_t hop, std::uint64_t origin,
                        std::uint64_t incarnation) {
    std::vector<std::byte> frame;
    frame.push_back(std::byte{0x70});
    frame.push_back(std::byte{0xE9});
    frame.push_back(std::byte{kVersionLineage});
    frame.push_back(std::byte{kFlagLineage});
    putVarint(frame, 1);   // one event
    putVarint(frame, 1);   // source
    putVarint(frame, 0);   // sequence
    putVarint(frame, 10);  // ts
    putVarint(frame, 2);   // ttl
    putVarint(frame, hop);
    putVarint(frame, origin);
    putVarint(frame, incarnation);
    putVarint(frame, 0);  // payload length
    restampCrc(frame);
    return frame;
  };
  EXPECT_TRUE(decodeBall(craft(1, 2, 3)).ok());
  EXPECT_EQ(decodeBall(craft(1ULL << 20, 2, 3)).error, DecodeError::LengthOverflow);
  EXPECT_EQ(decodeBall(craft(1, 1ULL << 40, 3)).error, DecodeError::LengthOverflow);
  EXPECT_EQ(decodeBall(craft(1, 2, 1ULL << 20)).error, DecodeError::LengthOverflow);
}

TEST(BallCodecV2, EveryTruncationRejected) {
  const auto frame =
      encodeBall({makeLineageEvent(1, 2, 3, 400, 5), makeLineageEvent(6, 7, 8, 900, 1)},
                 EncodeOptions{.lineage = true});
  for (std::size_t keep = 0; keep < frame.size(); ++keep) {
    EXPECT_FALSE(decodeBall(std::span(frame.data(), keep)).ok())
        << "kept " << keep << " bytes";
  }
}

// ---- version 2: per-event QoS class --------------------------------------

Event makeFastEvent(ProcessId source, std::uint32_t seq, std::size_t payloadBytes = 0) {
  Event e = makeEvent(source, seq, 200 + seq, 4, payloadBytes);
  e.qos = QosClass::Fast;
  return e;
}

TEST(BallCodecQos, MixedClassesRoundTrip) {
  Ball ball{makeEvent(1, 0, 100, 3), makeFastEvent(2, 7, 16), makeEvent(3, 1, 101, 5),
            makeFastEvent(4, 9)};
  const auto frame = encodeBall(ball, EncodeOptions{.qos = true});
  EXPECT_EQ(frame[2], std::byte{kVersionLineage});
  EXPECT_EQ(frame[3], std::byte{kFlagQos});
  const auto decoded = decodeBall(frame);
  ASSERT_TRUE(decoded.ok()) << toString(decoded.error);
  expectSameBall(ball, decoded.ball);
  EXPECT_EQ(decoded.ball[1].qos, QosClass::Fast);
  EXPECT_EQ(decoded.ball[2].qos, QosClass::Safe);
}

TEST(BallCodecQos, SafeOnlyBallStaysByteIdenticalWithQosEnabled) {
  // The flag bit is demand-driven: a fleet that never tags anything Fast
  // keeps emitting the exact v1 frame even with the option on — the
  // speculation-off identity guarantee at the wire layer.
  Ball ball{makeEvent(1, 0, 100, 3), makeEvent(2, 7, 101, 15, 32)};
  EXPECT_EQ(encodeBall(ball, EncodeOptions{.qos = true}), encodeBall(ball));
  EXPECT_EQ(encodeBall(ball, EncodeOptions{.qos = true})[2], std::byte{kVersion});
}

TEST(BallCodecQos, EncoderWithoutTheOptionDropsTheClass) {
  // A legacy encoder flattens Fast to the wire default; the receiver
  // treats the event as Safe (never speculates) — the conservative side.
  Ball ball{makeFastEvent(5, 3, 8)};
  const auto decoded = decodeBall(encodeBall(ball));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.ball[0].qos, QosClass::Safe);
}

TEST(BallCodecQos, ComposesWithLineage) {
  Ball ball{makeLineageEvent(1, 0, 3, 41, 2), makeFastEvent(2, 7, 16)};
  ball[1].hop = 9;
  const auto frame =
      encodeBall(ball, EncodeOptions{.lineage = true, .qos = true});
  EXPECT_EQ(frame[3], std::byte{kFlagLineage | kFlagQos});
  const auto decoded = decodeBall(frame);
  ASSERT_TRUE(decoded.ok()) << toString(decoded.error);
  expectSameBall(ball, decoded.ball);
}

TEST(BallCodecQos, InvalidClassByteRejected) {
  const auto craft = [](std::uint8_t qosByte) {
    std::vector<std::byte> frame;
    frame.push_back(std::byte{0x70});
    frame.push_back(std::byte{0xE9});
    frame.push_back(std::byte{kVersionLineage});
    frame.push_back(std::byte{kFlagQos});
    putVarint(frame, 1);   // one event
    putVarint(frame, 1);   // source
    putVarint(frame, 0);   // sequence
    putVarint(frame, 10);  // ts
    putVarint(frame, 2);   // ttl
    frame.push_back(std::byte{qosByte});
    putVarint(frame, 0);   // payload length
    restampCrc(frame);
    return frame;
  };
  EXPECT_TRUE(decodeBall(craft(0)).ok());
  EXPECT_TRUE(decodeBall(craft(1)).ok());
  // Beyond the two defined classes the per-event layout is unknowable.
  EXPECT_EQ(decodeBall(craft(2)).error, DecodeError::BadVersion);
  EXPECT_EQ(decodeBall(craft(0xFF)).error, DecodeError::BadVersion);
}

TEST(BallCodecQos, EveryTruncationRejected) {
  const auto frame = encodeBall({makeFastEvent(1, 2, 10), makeFastEvent(3, 4)},
                                EncodeOptions{.qos = true});
  for (std::size_t keep = 0; keep < frame.size(); ++keep) {
    EXPECT_FALSE(decodeBall(std::span(frame.data(), keep)).ok())
        << "kept " << keep << " bytes";
  }
}

TEST(BallCodec, ErrorStringsAreHuman) {
  EXPECT_EQ(toString(DecodeError::None), "none");
  EXPECT_EQ(toString(DecodeError::ChecksumMismatch), "checksum mismatch");
  EXPECT_EQ(toString(DecodeError::Truncated), "truncated frame");
}

}  // namespace
}  // namespace epto::codec
