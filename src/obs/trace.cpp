#include "obs/trace.h"

#include <cinttypes>

namespace epto::obs {

const char* traceTypeName(TraceType type) {
  switch (type) {
    case TraceType::Broadcast: return "broadcast";
    case TraceType::BallSent: return "ball_sent";
    case TraceType::BallReceived: return "ball_received";
    case TraceType::TtlMerge: return "ttl_merge";
    case TraceType::StabilityDecision: return "stability_decision";
    case TraceType::Deliver: return "deliver";
    case TraceType::Drop: return "drop";
    case TraceType::Fault: return "fault";
    case TraceType::FirstSeen: return "first_seen";
    case TraceType::BecameDeliverable: return "became_deliverable";
    case TraceType::Speculate: return "speculate";
    case TraceType::SpecConfirm: return "spec_confirm";
    case TraceType::SpecRevoke: return "spec_revoke";
    case TraceType::Retune: return "retune";
  }
  return "unknown";
}

const char* dropReasonName(DropReason reason) {
  switch (reason) {
    case DropReason::Expired: return "expired";
    case DropReason::OutOfOrder: return "out_of_order";
    case DropReason::Duplicate: return "duplicate";
  }
  return "unknown";
}

std::string traceEventJson(const TraceEvent& event) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "{\"type\":\"%s\",\"node\":%u,\"round\":%" PRIu64
                ",\"source\":%u,\"seq\":%u,\"ts\":%" PRIu64 ",\"ttl\":%u,\"size\":%" PRIu64
                ",\"aux\":%" PRIu64 ",\"detail\":%u}",
                traceTypeName(event.type), event.node, event.round, event.event.source,
                event.event.sequence, event.ts, event.ttl, event.size, event.aux,
                event.detail);
  return buf;
}

JsonlTraceSink::JsonlTraceSink(const std::string& path)
    : file_(std::fopen(path.c_str(), "w")) {
  // Line-buffered: every completed line reaches the kernel, so a crashed
  // node loses at most one partial record instead of a buffer of tail
  // events (the chaos scenarios dump cores mid-round by design).
  if (file_ != nullptr) std::setvbuf(file_, nullptr, _IOLBF, 1U << 16U);
}

JsonlTraceSink::~JsonlTraceSink() {
  if (file_ != nullptr) std::fclose(file_);
}

void JsonlTraceSink::consume(const TraceEvent& event) {
  writeLine(traceEventJson(event));
}

void JsonlTraceSink::writeLine(std::string_view line) {
  if (file_ == nullptr) return;
  std::string out(line);
  out += '\n';
  // One fwrite per line: stdio locks the FILE per call, so lines from
  // concurrent writers interleave whole, never torn.
  std::fwrite(out.data(), 1, out.size(), file_);
}

}  // namespace epto::obs
