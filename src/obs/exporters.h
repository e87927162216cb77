// Exporters for obs::Registry snapshots.
//
// Two formats, chosen for the two ways this repository is operated:
//   * Prometheus text exposition — pull-style scraping of a live cluster
//     (UdpCluster exposes it on demand); counters carry the
//     `_total` suffix, histograms expand to `_bucket`/`_sum`/`_count`
//     with cumulative `le` edges, exactly as promtool expects.
//   * JSONL time series — one self-contained JSON object per scrape, with
//     the scrape timestamp and every sample inline. Append-only, so a
//     crashed run still leaves every completed scrape readable; plot with
//     any JSON-lines-aware tool (jq, pandas.read_json(lines=True)).
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

#include "obs/registry.h"

namespace epto::obs {

/// Escape a string for inclusion in a JSON string or Prometheus label
/// value (the escape sets coincide for the characters we emit).
[[nodiscard]] std::string escape(std::string_view raw);

/// Full Prometheus text exposition of a snapshot. Samples of the same
/// metric family are grouped under one `# TYPE` line regardless of
/// registration interleaving.
[[nodiscard]] std::string prometheusText(const Snapshot& snapshot);

/// One JSONL record: {"ts":<ts>,"samples":[...]} with no trailing newline.
[[nodiscard]] std::string jsonLine(const Snapshot& snapshot, std::uint64_t ts);

/// One sample as a JSON object (used by jsonLine; exposed for tests and
/// for callers composing custom records).
[[nodiscard]] std::string sampleJson(const Sample& sample);

/// Append-mode JSONL sink. Not thread-safe; owned by one scrape loop or
/// one bench main().
class JsonlWriter {
 public:
  explicit JsonlWriter(const std::string& path);
  ~JsonlWriter();

  JsonlWriter(const JsonlWriter&) = delete;
  JsonlWriter& operator=(const JsonlWriter&) = delete;

  [[nodiscard]] bool ok() const noexcept { return file_ != nullptr; }

  /// Write one registry scrape as a single line.
  void write(const Snapshot& snapshot, std::uint64_t ts);
  /// Write a caller-composed record (no validation, newline appended).
  void writeRaw(std::string_view line);
  void flush();

 private:
  std::FILE* file_ = nullptr;
};

}  // namespace epto::obs
