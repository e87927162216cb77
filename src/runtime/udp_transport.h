// UDP datagram transport — EpTO over real sockets (paper §8.5).
//
// Each node owns one UDP socket bound to 127.0.0.1; balls travel as
// wire-codec frames (codec/ball_codec.h), fragmented at a configurable
// MTU (codec/fragment_codec.h) when they outgrow a datagram. UDP's
// semantics are exactly EpTO's assumptions: unordered, unreliable,
// unacknowledged — the protocol needs nothing more. Frames that fail
// validation (truncated datagrams, corruption) are counted and dropped,
// indistinguishable from loss, which the dissemination redundancy
// absorbs.
//
// Send-side hardening: the OS refusing a send is not one condition.
// EAGAIN/ENOBUFS mean "socket buffer momentarily full" — a few hundred
// microseconds of jittered backoff usually clears it — while EMSGSIZE
// or a dead interface will never succeed on retry. trySendTo()
// classifies the two; sendWithBackoff() retries only the transient
// class before declaring the datagram lost.
//
// Receive-side hardening: receive() passes MSG_TRUNC so kernel
// truncation (a datagram larger than the receive buffer) is detected
// explicitly and reported on the returned Datagram, instead of
// surfacing later as a mysterious frame-validation failure.
//
// UdpSocket is a small RAII wrapper; UdpCluster (udp_cluster.h) builds a
// full multi-process-style deployment on top of it.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/types.h"
#include "util/rng.h"

namespace epto::runtime {

/// Largest payload a UDP/IPv4 datagram can carry; the default receive
/// buffer size.
inline constexpr std::size_t kMaxUdpDatagramBytes = 65536;

/// SO_RCVBUF/SO_SNDBUF requested at socket construction. A fragmented
/// jumbo ball is a burst of hundreds of datagrams; the kernel default
/// (net.core.rmem_default, typically ~208 KiB) cannot even hold one
/// such burst, so fragments of concurrent senders are silently dropped
/// whenever the receiver is momentarily busy. The kernel clamps the
/// request to rmem_max/wmem_max — best-effort by design.
inline constexpr int kSocketBufferBytes = 4 << 20;

/// Outcome of one datagram transmission attempt. EINTR is neither: a
/// signal interrupting the syscall says nothing about the socket, so the
/// send is simply re-issued without consuming a backoff slot.
enum class SendStatus : std::uint8_t {
  Sent,       ///< handed to the OS in full.
  Transient,  ///< momentary refusal (EAGAIN/ENOBUFS/...); retry may succeed.
  Hard,       ///< permanent refusal (EMSGSIZE/...); retrying is pointless.
};

/// One datagram queued in a send aggregator. `frame` is a non-owning
/// pointer: the referenced buffer must outlive the flush (the same ball
/// frame is typically shared, uncopied, across every fanout target).
struct OutgoingDatagram {
  std::uint16_t port = 0;
  const std::vector<std::byte>* frame = nullptr;
  bool isFragment = false;
};

/// RAII UDP/IPv4 socket bound to 127.0.0.1 on an OS-assigned port.
class UdpSocket {
 public:
  /// Binds immediately; throws util::ContractViolation on OS failure.
  /// `receiveBufferBytes` caps the datagram size receive() can return in
  /// full — anything larger is truncated by the kernel and flagged.
  explicit UdpSocket(std::size_t receiveBufferBytes = kMaxUdpDatagramBytes);
  ~UdpSocket();

  UdpSocket(const UdpSocket&) = delete;
  UdpSocket& operator=(const UdpSocket&) = delete;
  UdpSocket(UdpSocket&& other) noexcept;
  UdpSocket& operator=(UdpSocket&&) = delete;

  /// The locally bound port (the node's address).
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  /// The OS file descriptor — for callers multiplexing many sockets in
  /// one ppoll() set (UdpCluster's shard loops). Ownership stays here.
  [[nodiscard]] int nativeHandle() const noexcept { return fd_; }

  /// One transmission attempt to 127.0.0.1:`port`, classified.
  SendStatus trySendTo(std::uint16_t port, const std::vector<std::byte>& frame);

  /// Fire-and-forget single attempt. Returns false when the OS refused
  /// the send for any reason (treated as loss by callers).
  bool sendTo(std::uint16_t port, const std::vector<std::byte>& frame) {
    return trySendTo(port, frame) == SendStatus::Sent;
  }

  /// One received datagram. `truncated` means the kernel cut the payload
  /// to the receive buffer size — `bytes` is the surviving prefix, which
  /// can never validate as a frame. `fromPort` is the sender's bound
  /// loopback port — the per-channel identity ingress hardening keys its
  /// rate accounting on (spoofable on a real network, exact on loopback).
  struct Datagram {
    std::vector<std::byte> bytes;
    std::uint16_t fromPort = 0;
    bool truncated = false;
  };

  /// Blocking receive with a timeout. Returns the datagram, or nullopt
  /// on timeout.
  [[nodiscard]] std::optional<Datagram> receive(int timeoutMillis);

  /// Batched receive: drain up to `maxBatch` queued datagrams in one
  /// recvmmsg() syscall, appending to `out`. With timeoutMillis > 0,
  /// blocks in poll() first; with 0 it goes straight to a non-blocking
  /// recvmmsg (the caller already knows the fd is readable — the sharded
  /// executor's poll loop). Returns the number appended (0 when nothing
  /// was queued). Each datagram's bytes are copied out at its received
  /// length. Truncation is flagged per datagram exactly as in receive().
  std::size_t receiveBatch(std::vector<Datagram>& out, std::size_t maxBatch,
                           int timeoutMillis);

  /// One sendmmsg() attempt over batch[offset..): returns how many
  /// consecutive datagrams the OS accepted. On 0 with a non-empty range,
  /// `headStatus` is the classification for batch[offset] (never Sent;
  /// EINTR is retried internally and never surfaces).
  std::size_t trySendBatch(std::span<const OutgoingDatagram> batch, std::size_t offset,
                           SendStatus& headStatus);

 private:
  int fd_ = -1;
  std::uint16_t port_ = 0;
  std::size_t receiveBufferBytes_ = kMaxUdpDatagramBytes;
};

/// Retry schedule for transient send refusals: `maxAttempts` total
/// attempts, sleeping `initialDelay * multiplier^k` with ±50% jitter
/// between them.
struct SendBackoffPolicy {
  int maxAttempts = 4;
  std::chrono::microseconds initialDelay{200};
  double multiplier = 2.0;
};

/// Cumulative outcome of sendWithBackoff().
struct SendOutcome {
  SendStatus status = SendStatus::Sent;  ///< final classification.
  int retries = 0;                       ///< sleeps taken before the outcome.
};

/// Transmit `frame`, retrying transient refusals per `policy` with
/// jitter drawn from `rng`. Hard refusals return immediately; a
/// transient refusal surviving every attempt is returned as Transient
/// (the datagram is lost — EpTO treats it like any other loss).
SendOutcome sendWithBackoff(UdpSocket& socket, std::uint16_t port,
                            const std::vector<std::byte>& frame,
                            const SendBackoffPolicy& policy, util::Rng& rng);

/// Cumulative outcome of one sendBatchWithBackoff() flush. Every
/// datagram in the batch ends in exactly one of sent/transientLost/
/// hardLost; `syscalls` counts sendmmsg() invocations (batch-size
/// observability) and `retries` counts backoff sleeps.
struct BatchSendOutcome {
  std::size_t sent = 0;
  std::size_t transientLost = 0;  ///< lost after the whole backoff schedule.
  std::size_t hardLost = 0;
  std::size_t fragmentsSent = 0;  ///< subset of `sent` flagged isFragment.
  std::size_t syscalls = 0;
  int retries = 0;
};

/// Flush a whole batch through sendmmsg(), applying the PR 3 SendStatus
/// classification and jittered backoff *per message*: a transient
/// refusal backs off and re-attempts that message (the rest of the batch
/// waits behind it, preserving order); a message that exhausts the
/// schedule — or fails hard — is counted lost and skipped, and the flush
/// continues with the next one. EINTR re-issues immediately without
/// consuming a backoff slot, exactly like the single-datagram path.
BatchSendOutcome sendBatchWithBackoff(UdpSocket& socket,
                                      std::span<const OutgoingDatagram> batch,
                                      const SendBackoffPolicy& policy, util::Rng& rng);

/// Encode and transmit one ball as a single datagram (single attempt;
/// balls beyond the datagram limit need the fragmentation path in
/// UdpCluster).
bool sendBall(UdpSocket& socket, std::uint16_t port, const Ball& ball);

}  // namespace epto::runtime
