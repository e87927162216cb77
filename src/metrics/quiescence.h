// QuiescenceLedger — fault-aware bookkeeping of which process still owes
// a delivery of which event.
//
// The real-thread runtime used to await quiescence by comparing a single
// delivery counter against broadcasts * nodeCount, which breaks the
// moment a node crashes (its deliveries never arrive) or rejoins (it
// legitimately misses events broadcast while it was down). The ledger
// keeps, per event, the exact set of processes still expected to deliver
// it: a crash erases the process from every pending set, a broadcast
// adds the then-live membership, and a delivery removes one entry. When
// every set drains the cluster is quiescent; on timeout missingReport()
// names the concrete (event, processes) pairs still outstanding instead
// of a bare counter mismatch.
//
// Thread safety: none — callers (UdpCluster) already
// serialize tracker updates behind a mutex and reuse it for the ledger.
#pragma once

#include <cstddef>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/types.h"

namespace epto::metrics {

class QuiescenceLedger {
 public:
  /// Record a broadcast: `expected` is the membership that should
  /// eventually deliver `id` (typically the live nodes at broadcast
  /// time, including the source).
  void onBroadcast(const EventId& id, const std::vector<ProcessId>& expected);

  /// `process` delivered `id`; it no longer owes it.
  void onDeliver(ProcessId process, const EventId& id);

  /// `process` crashed: it owes nothing any more. A later restart does
  /// not reinstate old debts — the fresh incarnation only owes events
  /// broadcast after it rejoined.
  void onCrash(ProcessId process);

  /// True when no event is owed by anyone.
  [[nodiscard]] bool quiescent() const noexcept { return pending_.empty(); }

  /// Number of events with at least one outstanding delivery.
  [[nodiscard]] std::size_t pendingEvents() const noexcept { return pending_.size(); }

  /// Human-readable digest of up to `maxEvents` outstanding events and
  /// who still owes them — the payload of awaitQuiescence timeouts.
  [[nodiscard]] std::string missingReport(std::size_t maxEvents = 8) const;

 private:
  std::unordered_map<EventId, std::unordered_set<ProcessId>, EventIdHash> pending_;
};

}  // namespace epto::metrics
