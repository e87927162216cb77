#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "core/ingress_guard.h"
#include "obs/registry.h"
#include "util/ensure.h"

namespace epto::core {
namespace {

PayloadPtr payloadOf(const std::string& text) {
  PayloadBytes bytes;
  for (const char c : text) bytes.push_back(static_cast<std::byte>(c));
  return std::make_shared<const PayloadBytes>(std::move(bytes));
}

Event makeEvent(ProcessId source, std::uint32_t sequence, Timestamp ts,
                std::uint32_t ttl, std::uint16_t hop,
                const std::string& payload = "p") {
  Event event;
  event.id = {source, sequence};
  event.ts = ts;
  event.ttl = ttl;
  event.hop = hop;
  event.originRound = 1;
  event.payload = payloadOf(payload);
  return event;
}

TEST(IngressGuard, RejectsZeroFingerprintCapacity) {
  EXPECT_THROW(IngressGuard({.fingerprintCapacity = 0}),
               util::ContractViolation);
}

TEST(IngressGuard, CleanBallIsAdmittedZeroCopy) {
  IngressGuard guard({.maxTtl = 8});
  const Ball ball{makeEvent(1, 0, 10, 3, 2), makeEvent(2, 0, 11, 1, 0)};
  const auto verdict = guard.inspect(/*senderKey=*/1, ball);
  EXPECT_TRUE(verdict.admitted);
  EXPECT_EQ(verdict.cause, IngressCause::None);
  EXPECT_EQ(verdict.filtered, 0u);
  // Clean path: `kept` stays disengaged so the caller reuses the original.
  EXPECT_FALSE(verdict.kept.has_value());
  EXPECT_EQ(guard.stats().ballsInspected, 1u);
  EXPECT_EQ(guard.stats().ballsRejected(), 0u);
}

TEST(IngressGuard, RejectsHopExceedingTtl) {
  IngressGuard guard({});
  const Ball ball{makeEvent(1, 0, 10, 3, 4)};  // hop 4 > ttl 3: impossible
  const auto verdict = guard.inspect(1, ball);
  EXPECT_FALSE(verdict.admitted);
  EXPECT_EQ(verdict.cause, IngressCause::Lineage);
  EXPECT_EQ(guard.stats().ballsRejectedLineage, 1u);
}

TEST(IngressGuard, RejectsTtlBeyondProtocolCeilingOnlyWhenConfigured) {
  IngressGuard unbounded({.maxTtl = 0});
  const Ball tall{makeEvent(1, 0, 10, 1'000, 2)};
  EXPECT_TRUE(unbounded.inspect(1, tall).admitted);

  IngressGuard bounded({.maxTtl = 12});
  const auto verdict = bounded.inspect(1, tall);
  EXPECT_FALSE(verdict.admitted);
  EXPECT_EQ(verdict.cause, IngressCause::Lineage);
}

TEST(IngressGuard, RejectsImplausibleOriginRound) {
  IngressGuard guard({.maxOriginRound = 100});
  Event event = makeEvent(1, 0, 10, 3, 1);
  event.originRound = 101;
  const auto verdict = guard.inspect(1, Ball{event});
  EXPECT_FALSE(verdict.admitted);
  EXPECT_EQ(verdict.cause, IngressCause::OriginRound);
  EXPECT_EQ(guard.stats().ballsRejectedOriginRound, 1u);
}

TEST(IngressGuard, RejectsUnknownSourceOnlyWithStaticMembership) {
  IngressGuard dynamic({.knownSources = 0});
  const Ball ball{makeEvent(/*source=*/500, 0, 10, 3, 1)};
  EXPECT_TRUE(dynamic.inspect(1, ball).admitted);

  IngressGuard fixed({.knownSources = 16});
  const auto verdict = fixed.inspect(1, ball);
  EXPECT_FALSE(verdict.admitted);
  EXPECT_EQ(verdict.cause, IngressCause::UnknownSource);
}

TEST(IngressGuard, RateCapTripsPerSenderAndResetsEachRound) {
  IngressGuard guard({.maxBallsPerSenderPerRound = 2});
  const Ball ball{makeEvent(1, 0, 10, 3, 1)};
  EXPECT_TRUE(guard.inspect(7, ball).admitted);
  EXPECT_TRUE(guard.inspect(7, ball).admitted);
  const auto third = guard.inspect(7, ball);
  EXPECT_FALSE(third.admitted);
  EXPECT_EQ(third.cause, IngressCause::Rate);
  // Another sender has its own budget.
  EXPECT_TRUE(guard.inspect(8, ball).admitted);
  // A new round wipes the window.
  guard.onRound();
  EXPECT_TRUE(guard.inspect(7, ball).admitted);
  EXPECT_EQ(guard.stats().ballsRejectedRate, 1u);
}

TEST(IngressGuard, FirstEquivocationVariantWinsLaterDivergentsDrop) {
  IngressGuard guard({});
  const Event honest = makeEvent(1, 0, /*ts=*/10, 3, 1, "original");
  EXPECT_TRUE(guard.inspect(1, Ball{honest}).admitted);

  // Same EventId + incarnation, different payload: equivocation.
  Event forged = makeEvent(1, 0, 10, 3, 1, "tampered");
  const Event bystander = makeEvent(2, 0, 11, 3, 1);
  const auto verdict = guard.inspect(2, Ball{forged, bystander});
  EXPECT_TRUE(verdict.admitted);  // ball survives — event-level filtering
  EXPECT_EQ(verdict.cause, IngressCause::Equivocation);
  EXPECT_EQ(verdict.filtered, 1u);
  ASSERT_TRUE(verdict.kept.has_value());
  ASSERT_EQ(verdict.kept->size(), 1u);
  EXPECT_EQ((*verdict.kept)[0].id, bystander.id);
  EXPECT_EQ(guard.stats().eventsFilteredEquivocation, 1u);

  // A divergent timestamp with identical payload is equally an
  // equivocation: the fingerprint folds both.
  Event shifted = makeEvent(1, 0, /*ts=*/99, 3, 1, "original");
  const auto again = guard.inspect(3, Ball{shifted});
  EXPECT_EQ(again.filtered, 1u);
  ASSERT_TRUE(again.kept.has_value());
  EXPECT_TRUE(again.kept->empty());

  // The honest first variant keeps flowing (honest relays carry it).
  EXPECT_EQ(guard.inspect(4, Ball{honest}).filtered, 0u);
}

TEST(IngressGuard, IncarnationRegressionFiltersButRestartSupersedes) {
  IngressGuard guard({});
  Event current = makeEvent(1, 0, 10, 3, 1, "post-restart");
  current.incarnation = 2;
  EXPECT_EQ(guard.inspect(1, Ball{current}).filtered, 0u);

  // A replayed pre-restart copy regresses the incarnation: filtered.
  Event stale = makeEvent(1, 0, 10, 3, 1, "pre-restart");
  stale.incarnation = 1;
  const auto verdict = guard.inspect(2, Ball{stale});
  EXPECT_EQ(verdict.cause, IngressCause::Incarnation);
  EXPECT_EQ(verdict.filtered, 1u);
  EXPECT_EQ(guard.stats().eventsFilteredIncarnation, 1u);

  // A higher incarnation supersedes the record instead of equivocating.
  Event newer = makeEvent(1, 0, 12, 3, 1, "post-second-restart");
  newer.incarnation = 3;
  EXPECT_EQ(guard.inspect(3, Ball{newer}).filtered, 0u);
  // ...and the superseded fingerprint governs from now on.
  EXPECT_EQ(guard.inspect(4, Ball{current}).cause, IngressCause::Incarnation);
}

TEST(IngressGuard, KeptBallPreservesSurvivorsAroundMultipleFilteredEvents) {
  IngressGuard guard({});
  const Event a = makeEvent(1, 0, 10, 3, 1, "a");
  const Event b = makeEvent(2, 0, 11, 3, 1, "b");
  EXPECT_TRUE(guard.inspect(1, Ball{a, b}).admitted);

  Event aForged = makeEvent(1, 0, 10, 3, 1, "a'");
  Event bForged = makeEvent(2, 0, 11, 3, 1, "b'");
  const Event fresh = makeEvent(3, 0, 12, 3, 1, "c");
  const auto verdict = guard.inspect(2, Ball{aForged, fresh, bForged});
  EXPECT_TRUE(verdict.admitted);
  EXPECT_EQ(verdict.filtered, 2u);
  ASSERT_TRUE(verdict.kept.has_value());
  ASSERT_EQ(verdict.kept->size(), 1u);
  EXPECT_EQ((*verdict.kept)[0].id, fresh.id);
}

TEST(IngressGuard, FingerprintGenerationsRotateAndHotIdsSurvive) {
  IngressGuard guard({.fingerprintCapacity = 4});
  const Event hot = makeEvent(1, 0, 10, 3, 1, "hot");
  EXPECT_EQ(guard.inspect(1, Ball{hot}).filtered, 0u);
  // Fill well past one generation; touch `hot` along the way so lookups
  // keep promoting it into the current generation.
  for (std::uint32_t seq = 1; seq <= 20; ++seq) {
    EXPECT_EQ(guard.inspect(1, Ball{makeEvent(2, seq, 20 + seq, 3, 1)}).filtered,
              0u);
    EXPECT_EQ(guard.inspect(1, Ball{hot}).filtered, 0u);
  }
  EXPECT_GT(guard.stats().fingerprintRotations, 0u);
  // Despite many rotations, the hot id's fingerprint is still live and a
  // divergent variant is still caught.
  Event hotForged = makeEvent(1, 0, 10, 3, 1, "hot'");
  EXPECT_EQ(guard.inspect(2, Ball{hotForged}).cause, IngressCause::Equivocation);
}

TEST(IngressGuard, PayloadDigestIsNullSafeAndContentSensitive) {
  EXPECT_EQ(payloadDigest(nullptr), payloadDigest(nullptr));
  EXPECT_EQ(payloadDigest(nullptr),
            payloadDigest(std::make_shared<const PayloadBytes>()));
  EXPECT_NE(payloadDigest(payloadOf("a")), payloadDigest(payloadOf("b")));
  EXPECT_EQ(payloadDigest(payloadOf("same")), payloadDigest(payloadOf("same")));
}

PayloadPtr patternedPayload(std::size_t size) {
  PayloadBytes bytes(size);
  for (std::size_t i = 0; i < size; ++i) {
    bytes[i] = static_cast<std::byte>((i * 37 + 11) & 0xFFU);
  }
  return std::make_shared<const PayloadBytes>(std::move(bytes));
}

TEST(IngressGuard, PayloadDigestSeesEveryBitFlipInWordsAndTail) {
  // 256 B is udp_bulk's payload (whole words only); 13 B ends in a
  // 5-byte tail folded bytewise.
  for (const std::size_t size : {std::size_t{256}, std::size_t{13}}) {
    const PayloadPtr original = patternedPayload(size);
    const std::uint64_t reference = payloadDigest(original);
    for (std::size_t i = 0; i < size; ++i) {
      for (unsigned bit = 0; bit < 8; ++bit) {
        PayloadBytes flipped = *original;
        flipped[i] ^= static_cast<std::byte>(1U << bit);
        EXPECT_NE(payloadDigest(std::make_shared<const PayloadBytes>(std::move(flipped))),
                  reference)
            << "size " << size << " byte " << i << " bit " << bit;
      }
    }
  }
}

TEST(IngressGuard, PayloadDigestIsAPureFunctionOfTheBytes) {
  for (std::size_t size = 1; size <= 40; ++size) {
    const PayloadPtr a = patternedPayload(size);
    const PayloadPtr b = std::make_shared<const PayloadBytes>(*a);
    ASSERT_NE(a->data(), b->data());
    EXPECT_EQ(payloadDigest(a), payloadDigest(b)) << "size " << size;
  }
  // The length is folded in: zero-filled payloads of different lengths
  // differ, and only the empty one matches null.
  std::vector<std::uint64_t> zeroDigests;
  for (std::size_t size = 0; size <= 40; ++size) {
    const std::uint64_t digest =
        payloadDigest(std::make_shared<const PayloadBytes>(size, std::byte{0}));
    for (const std::uint64_t earlier : zeroDigests) EXPECT_NE(digest, earlier) << size;
    zeroDigests.push_back(digest);
  }
  EXPECT_EQ(zeroDigests.front(), payloadDigest(nullptr));
}

TEST(IngressGuard, PublishesLabeledRejectionCounters) {
  IngressGuard guard({.maxTtl = 4, .maxBallsPerSenderPerRound = 1});
  (void)guard.inspect(1, Ball{makeEvent(1, 0, 10, 3, 4)});  // lineage
  (void)guard.inspect(2, Ball{makeEvent(2, 0, 10, 3, 1)});  // clean
  (void)guard.inspect(2, Ball{makeEvent(2, 1, 11, 3, 1)});  // rate

  obs::Registry registry;
  guard.recordTo(registry);
  std::uint64_t lineage = 0;
  std::uint64_t rate = 0;
  std::uint64_t inspected = 0;
  for (const obs::Sample& sample : registry.snapshot()) {
    if (sample.name == "epto_ingress_rejected_total") {
      ASSERT_EQ(sample.labels.size(), 1u);
      EXPECT_EQ(sample.labels[0].first, "cause");
      if (sample.labels[0].second == "lineage") lineage = sample.counter;
      if (sample.labels[0].second == "rate") rate = sample.counter;
    }
    if (sample.name == "epto_ingress_inspected_total") {
      inspected = sample.counter;
    }
  }
  EXPECT_EQ(lineage, 1u);
  EXPECT_EQ(rate, 1u);
  EXPECT_EQ(inspected, 3u);
}

}  // namespace
}  // namespace epto::core
