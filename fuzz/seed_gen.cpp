// Corpus seed generator: writes the checked-in fuzz corpora using the
// repo's own encoders, so every seed is a real frame the decoders accept
// (or a precise one-knob corruption of one). Regenerate after any wire
// format change:
//
//   build/fuzz/epto_fuzz_seed_gen fuzz/corpus
//
// Seeds deliberately cover the decode branch points: v1 vs v2, lineage
// and qos flag combinations, maximum varint widths on every lineage
// field, each unknown flag bit, a one-byte truncation at every header
// offset, and a stale CRC — the same fixtures the boundary unit tests
// pin down (tests/codec/ball_codec_boundary_test.cpp).
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "codec/ball_codec.h"
#include "codec/checksum.h"
#include "codec/fragment_codec.h"
#include "core/types.h"

namespace {

using epto::Ball;
using epto::Event;

Event makeEvent(std::uint32_t source, std::uint32_t sequence) {
  Event event;
  event.id.source = source;
  event.id.sequence = sequence;
  event.ts = 1000 + sequence;
  event.ttl = 12;
  event.hop = 3;
  event.originRound = 40;
  event.incarnation = 1;
  event.qos = epto::QosClass::Safe;
  event.payload = std::make_shared<const epto::PayloadBytes>(
      epto::PayloadBytes{std::byte{0xAB}, std::byte{0xCD},
                         static_cast<std::byte>(sequence & 0xFFU)});
  return event;
}

Event maxWidthEvent() {
  // Every varint at its widest legal encoding for its field type — the
  // boundary the lineage block's caps discriminate on.
  Event event;
  event.id.source = std::numeric_limits<std::uint32_t>::max();
  event.id.sequence = std::numeric_limits<std::uint32_t>::max();
  event.ts = std::numeric_limits<std::uint64_t>::max();
  event.ttl = std::numeric_limits<std::uint32_t>::max();
  event.hop = std::numeric_limits<std::uint16_t>::max();
  event.originRound = std::numeric_limits<std::uint32_t>::max();
  event.incarnation = std::numeric_limits<std::uint16_t>::max();
  event.qos = epto::QosClass::Fast;
  event.payload = std::make_shared<const epto::PayloadBytes>(epto::PayloadBytes(64, std::byte{0x5A}));
  return event;
}

void writeFile(const std::filesystem::path& path, std::span<const std::byte> bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  if (!out) {
    std::fprintf(stderr, "seed-gen: failed to write %s\n", path.string().c_str());
    std::exit(1);
  }
}

/// Replace the CRC32C trailer after editing the body in place.
std::vector<std::byte> withFixedCrc(std::vector<std::byte> frame) {
  frame.resize(frame.size() - 4);
  const std::uint32_t crc = epto::codec::crc32c(frame);
  for (int i = 0; i < 4; ++i) {
    frame.push_back(static_cast<std::byte>((crc >> (8 * i)) & 0xFFU));
  }
  return frame;
}

std::vector<std::byte> encode(const Ball& ball, bool lineage, bool qos) {
  epto::codec::EncodeOptions options;
  options.lineage = lineage;
  options.qos = qos;
  return epto::codec::encodeBall(ball, options);
}

void emitBallCorpus(const std::filesystem::path& dir) {
  std::filesystem::create_directories(dir);
  const Ball small{makeEvent(1, 1), makeEvent(2, 7)};
  const Ball wide{maxWidthEvent()};
  Ball mixed = small;
  mixed.push_back(maxWidthEvent());

  writeFile(dir / "v1_two_events", epto::codec::encodeBall(small));
  writeFile(dir / "v2_plain", encode(small, false, false));
  writeFile(dir / "v2_lineage", encode(small, true, false));
  writeFile(dir / "v2_lineage_qos", encode(mixed, true, true));
  writeFile(dir / "v2_max_widths", encode(wide, true, true));
  writeFile(dir / "empty_ball", epto::codec::encodeBall(Ball{}));

  // Each unknown flag bit, CRC valid: the decoder must hit BadVersion on
  // the flag check, never on the checksum.
  auto v2 = encode(small, true, false);
  for (unsigned bit = 2; bit < 8; ++bit) {
    auto frame = v2;
    frame[3] = static_cast<std::byte>(std::to_integer<unsigned>(frame[3]) | (1U << bit));
    writeFile(dir / ("unknown_flag_bit" + std::to_string(bit)), withFixedCrc(std::move(frame)));
  }

  // One-byte truncations across the header region (and one mid-frame):
  // every early-exit offset of the decoder's header walk.
  const auto full = encode(mixed, true, true);
  for (std::size_t keep = 0; keep < 8 && keep < full.size(); ++keep) {
    writeFile(dir / ("truncated_at_" + std::to_string(keep)),
              std::span<const std::byte>(full.data(), keep));
  }
  writeFile(dir / "truncated_mid_frame",
            std::span<const std::byte>(full.data(), full.size() - full.size() / 3));
  writeFile(dir / "truncated_last_byte",
            std::span<const std::byte>(full.data(), full.size() - 1));

  // Stale CRC: body intact, trailer flipped.
  auto bad = full;
  bad.back() ^= std::byte{0xFF};
  writeFile(dir / "bad_crc", bad);

  // Wrong magic / wrong version, otherwise intact.
  auto wrongMagic = full;
  wrongMagic[0] = std::byte{0x00};
  writeFile(dir / "bad_magic", wrongMagic);
  auto wrongVersion = full;
  wrongVersion[2] = std::byte{0x7F};
  writeFile(dir / "bad_version", withFixedCrc(std::move(wrongVersion)));
}

/// Length-prefix one datagram into the fragment harness's stream format.
void appendChunk(std::vector<std::byte>& stream, std::span<const std::byte> datagram) {
  stream.push_back(static_cast<std::byte>(datagram.size() & 0xFFU));
  stream.push_back(static_cast<std::byte>((datagram.size() >> 8U) & 0xFFU));
  stream.insert(stream.end(), datagram.begin(), datagram.end());
}

void emitFragmentCorpus(const std::filesystem::path& dir) {
  std::filesystem::create_directories(dir);
  // A ball big enough to fragment at the minimum MTU.
  Ball big;
  for (std::uint32_t i = 0; i < 8; ++i) {
    auto event = makeEvent(3, i);
    event.payload = std::make_shared<const epto::PayloadBytes>(
        epto::PayloadBytes(96, static_cast<std::byte>(i)));
    big.push_back(event);
  }
  const auto frame = encode(big, true, true);
  const auto fragments =
      epto::codec::fragmentFrame(frame, epto::codec::kMinFragmentMtu, /*ballId=*/77);

  // In-order completion.
  std::vector<std::byte> inOrder;
  for (const auto& fragment : fragments) appendChunk(inOrder, fragment);
  writeFile(dir / "complete_in_order", inOrder);

  // Reverse order: completion via out-of-order arrival.
  std::vector<std::byte> reversed;
  for (auto it = fragments.rbegin(); it != fragments.rend(); ++it) appendChunk(reversed, *it);
  writeFile(dir / "complete_reversed", reversed);

  // Duplicates plus a missing tail: exercises the duplicate counter and
  // leaves a partial for the TTL sweep to evict.
  std::vector<std::byte> partial;
  appendChunk(partial, fragments.front());
  appendChunk(partial, fragments.front());
  for (std::size_t i = 0; i + 1 < fragments.size() && i < 3; ++i) {
    appendChunk(partial, fragments[i]);
  }
  writeFile(dir / "duplicates_then_partial", partial);

  // Two interleaved ballIds, second one geometry-corrupted at the CRC
  // level (dropped as if lost).
  const auto other =
      epto::codec::fragmentFrame(frame, epto::codec::kMinFragmentMtu, /*ballId=*/78);
  std::vector<std::byte> interleaved;
  for (std::size_t i = 0; i < fragments.size(); ++i) {
    appendChunk(interleaved, fragments[i]);
    auto corrupted = other[i];
    corrupted.back() ^= std::byte{0x01};
    appendChunk(interleaved, corrupted);
  }
  writeFile(dir / "interleaved_one_corrupt", interleaved);

  // A raw unfragmented ball frame inside the stream (not a fragment —
  // decodeFragment must reject on magic) plus junk chunks.
  std::vector<std::byte> mixed;
  appendChunk(mixed, std::span<const std::byte>(frame.data(), std::min<std::size_t>(frame.size(), 200)));
  const std::vector<std::byte> junk(32, std::byte{0xEE});
  appendChunk(mixed, junk);
  appendChunk(mixed, fragments.front());
  writeFile(dir / "mixed_junk", mixed);
}

void emitIngressCorpus(const std::filesystem::path& dir) {
  std::filesystem::create_directories(dir);
  const auto emit = [&](const std::string& name, std::uint8_t senderKey, std::uint8_t control,
                        std::span<const std::byte> frame) {
    std::vector<std::byte> input;
    input.push_back(std::byte{senderKey});
    input.push_back(std::byte{control});
    input.insert(input.end(), frame.begin(), frame.end());
    writeFile(dir / name, input);
  };

  const Ball honest{makeEvent(1, 1), makeEvent(2, 2)};
  emit("honest_all_guards", 5, 0x3F, encode(honest, true, true));
  emit("honest_no_guards", 5, 0x00, encode(honest, true, false));

  // hop > ttl: the lineage rejection the guard exists for.
  Ball forged{makeEvent(1, 9)};
  forged[0].hop = 50;
  forged[0].ttl = 4;
  emit("lineage_hop_exceeds_ttl", 6, 0x01, encode(forged, true, false));

  // originRound beyond the tightened cap (control bit 1 sets cap 256).
  Ball future{makeEvent(2, 11)};
  future[0].originRound = 100000;
  emit("origin_round_forged", 7, 0x02, encode(future, true, false));

  // Source outside knownSources=8 (control bit 3).
  Ball stranger{makeEvent(200, 1)};
  emit("unknown_source", 8, 0x08, encode(stranger, true, false));

  // Rate cap 1 (control bit 2): the second inspect must reject.
  emit("rate_capped", 9, 0x04, encode(honest, true, false));

  // Incarnation regression across the repeat-inspection.
  Ball reborn{makeEvent(3, 5)};
  reborn[0].incarnation = 0;
  emit("incarnation_floor", 10, 0x20, encode(reborn, true, false));
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <corpus-root>\n", argv[0]);
    return 2;
  }
  const std::filesystem::path root(argv[1]);
  emitBallCorpus(root / "decode_ball");
  emitFragmentCorpus(root / "fragment");
  emitIngressCorpus(root / "ingress_guard");
  std::printf("seed-gen: corpora written under %s\n", root.string().c_str());
  return 0;
}
