// ScrapeLoop — background metrics collection for the UDP runtime.
//
// Owns one thread that, every `interval`, (optionally) lets the host
// refresh derived instruments via the `beforeScrape` hook, snapshots the
// registry and appends the snapshot as one JSONL record. stop() performs
// a final scrape so short runs always leave at least one record. The
// registry's own thread-safety does the heavy lifting: shard threads keep
// storing into atomics while the loop snapshots.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>

#include "obs/exporters.h"
#include "obs/registry.h"

namespace epto::obs {

class ScrapeLoop {
 public:
  struct Options {
    std::chrono::milliseconds interval{100};
    /// Empty = scrape (drive beforeScrape) without persisting.
    std::string jsonlPath;
  };

  /// `timeSource` supplies the `ts` field of each record; `beforeScrape`
  /// (optional) runs on the scrape thread right before each snapshot.
  ScrapeLoop(Registry& registry, Options options,
             std::function<std::uint64_t()> timeSource,
             std::function<void()> beforeScrape = {});
  ~ScrapeLoop();

  ScrapeLoop(const ScrapeLoop&) = delete;
  ScrapeLoop& operator=(const ScrapeLoop&) = delete;

  void start();
  /// Final scrape, then join. Idempotent.
  void stop();

  [[nodiscard]] std::uint64_t scrapeCount() const noexcept {
    return scrapes_.load(std::memory_order_relaxed);
  }

 private:
  void scrapeOnce();

  // Concurrency contract (DESIGN.md §12): no capability of its own. The
  // non-atomic members (writer_, thread_, options_) are touched only by
  // the owning thread — start()/stop() callers on one side, the scrape
  // thread on the other, ordered by thread creation and join — and the
  // cross-thread signals (scrapes_, running_, stopRequested_) are
  // atomics. The registry reference is safe to share because Registry
  // carries its own capability.
  Registry& registry_;
  Options options_;
  std::function<std::uint64_t()> timeSource_;
  std::function<void()> beforeScrape_;
  std::unique_ptr<JsonlWriter> writer_;
  std::atomic<std::uint64_t> scrapes_{0};
  std::atomic<bool> running_{false};
  std::atomic<bool> stopRequested_{false};
  std::thread thread_;
};

}  // namespace epto::obs
