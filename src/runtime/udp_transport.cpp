#include "runtime/udp_transport.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstring>
#include <memory>
#include <thread>

#include "codec/ball_codec.h"
#include "util/ensure.h"

namespace epto::runtime {

UdpSocket::UdpSocket(std::size_t receiveBufferBytes)
    : receiveBufferBytes_(receiveBufferBytes) {
  EPTO_ENSURE_MSG(receiveBufferBytes_ > 0, "receive buffer must be positive");
  fd_ = ::socket(AF_INET, SOCK_DGRAM, 0);
  EPTO_ENSURE_MSG(fd_ >= 0, "socket() failed");

  // Best-effort: the kernel clamps to rmem_max/wmem_max silently, and a
  // smaller buffer only degrades to more loss, which EpTO absorbs.
  const int bufferBytes = kSocketBufferBytes;
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &bufferBytes, sizeof bufferBytes);
  ::setsockopt(fd_, SOL_SOCKET, SO_SNDBUF, &bufferBytes, sizeof bufferBytes);

  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  address.sin_port = 0;  // OS-assigned
  if (::bind(fd_, reinterpret_cast<const sockaddr*>(&address), sizeof address) != 0) {
    ::close(fd_);
    fd_ = -1;
    EPTO_ENSURE_MSG(false, "bind() failed");
  }

  sockaddr_in bound{};
  socklen_t length = sizeof bound;
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&bound), &length) != 0) {
    ::close(fd_);
    fd_ = -1;
    EPTO_ENSURE_MSG(false, "getsockname() failed");
  }
  port_ = ntohs(bound.sin_port);
}

UdpSocket::~UdpSocket() {
  if (fd_ >= 0) ::close(fd_);
}

UdpSocket::UdpSocket(UdpSocket&& other) noexcept
    : fd_(other.fd_), port_(other.port_), receiveBufferBytes_(other.receiveBufferBytes_) {
  other.fd_ = -1;
  other.port_ = 0;
}

namespace {

/// Classify a failed send's errno. EINTR must never reach here — it is
/// retried at the syscall, not treated as a socket condition.
SendStatus classifySendErrno(int error) {
  switch (error) {
    // Momentary resource exhaustion: the socket buffer (or kernel memory)
    // is full right now but will drain. Worth a short backoff.
    case EAGAIN:
#if EWOULDBLOCK != EAGAIN
    case EWOULDBLOCK:
#endif
    case ENOBUFS:
    case ENOMEM:
      return SendStatus::Transient;
    default:
      // EMSGSIZE, EACCES, network down, ... — retrying cannot help.
      return SendStatus::Hard;
  }
}

/// The area receiveBatch() points recvmmsg() at: one per thread, shared
/// by every socket that thread drains (a shard drives many, one at a
/// time), since each datagram is copied out at its received length
/// before the call returns. Grown but never filled, so a call on an empty
/// socket allocates and touches nothing.
std::byte* receiveArea(std::size_t bytes) {
  thread_local std::unique_ptr<std::byte[]> area;
  thread_local std::size_t capacity = 0;
  if (capacity < bytes) {
    area = std::make_unique_for_overwrite<std::byte[]>(bytes);
    capacity = bytes;
  }
  return area.get();
}

}  // namespace

SendStatus UdpSocket::trySendTo(std::uint16_t port, const std::vector<std::byte>& frame) {
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  address.sin_port = htons(port);
  ssize_t sent = 0;
  // EINTR means a signal landed mid-syscall, not that the socket refused
  // anything — re-issue immediately instead of burning a backoff slot.
  do {
    sent = ::sendto(fd_, frame.data(), frame.size(), 0,
                    reinterpret_cast<const sockaddr*>(&address), sizeof address);
  } while (sent < 0 && errno == EINTR);
  if (sent == static_cast<ssize_t>(frame.size())) return SendStatus::Sent;
  return classifySendErrno(errno);
}

std::optional<UdpSocket::Datagram> UdpSocket::receive(int timeoutMillis) {
  pollfd pfd{};
  pfd.fd = fd_;
  pfd.events = POLLIN;
  const int ready = ::poll(&pfd, 1, timeoutMillis);
  if (ready <= 0 || (pfd.revents & POLLIN) == 0) return std::nullopt;

  Datagram datagram;
  datagram.bytes.resize(receiveBufferBytes_);
  // MSG_TRUNC makes recvfrom return the datagram's real length even when
  // it exceeds the buffer, so truncation is detected here instead of as
  // a downstream frame-validation failure.
  sockaddr_in from{};
  socklen_t fromLength = sizeof from;
  const auto received = ::recvfrom(fd_, datagram.bytes.data(), datagram.bytes.size(),
                                   MSG_TRUNC, reinterpret_cast<sockaddr*>(&from),
                                   &fromLength);
  if (received < 0) return std::nullopt;
  if (from.sin_family == AF_INET) datagram.fromPort = ntohs(from.sin_port);
  const auto receivedBytes = static_cast<std::size_t>(received);
  datagram.truncated = receivedBytes > datagram.bytes.size();
  datagram.bytes.resize(std::min(receivedBytes, datagram.bytes.size()));
  return datagram;
}

std::size_t UdpSocket::receiveBatch(std::vector<Datagram>& out, std::size_t maxBatch,
                                    int timeoutMillis) {
  if (maxBatch == 0) return 0;
  if (timeoutMillis > 0) {
    pollfd pfd{};
    pfd.fd = fd_;
    pfd.events = POLLIN;
    const int ready = ::poll(&pfd, 1, timeoutMillis);
    if (ready <= 0 || (pfd.revents & POLLIN) == 0) return 0;
  }

  // Bounded stack footprint: one recvmmsg() drains at most kMaxIoBatch
  // datagrams; callers wanting more loop (each extra lap is one syscall,
  // which is the whole point of batching).
  constexpr std::size_t kMaxIoBatch = 64;
  const std::size_t batch = std::min(maxBatch, kMaxIoBatch);

  // Slot i starts at i * receiveBufferBytes_; recvmmsg writes only what
  // arrives.
  std::byte* const area = receiveArea(batch * receiveBufferBytes_);
  std::array<iovec, kMaxIoBatch> iovecs{};
  std::array<sockaddr_in, kMaxIoBatch> froms{};
  std::array<mmsghdr, kMaxIoBatch> messages{};
  for (std::size_t i = 0; i < batch; ++i) {
    iovecs[i] = {area + i * receiveBufferBytes_, receiveBufferBytes_};
    messages[i].msg_hdr.msg_iov = &iovecs[i];
    messages[i].msg_hdr.msg_iovlen = 1;
    messages[i].msg_hdr.msg_name = &froms[i];
    messages[i].msg_hdr.msg_namelen = sizeof froms[i];
  }

  int received = 0;
  do {
    received = ::recvmmsg(fd_, messages.data(), static_cast<unsigned>(batch),
                          MSG_DONTWAIT, nullptr);
  } while (received < 0 && errno == EINTR);
  if (received <= 0) return 0;

  for (int i = 0; i < received; ++i) {
    Datagram datagram;
    // MSG_TRUNC in msg_flags marks a datagram the kernel cut to the
    // buffer; msg_len is the surviving prefix length.
    datagram.truncated = (messages[i].msg_hdr.msg_flags & MSG_TRUNC) != 0;
    const auto index = static_cast<std::size_t>(i);
    if (froms[index].sin_family == AF_INET) {
      datagram.fromPort = ntohs(froms[index].sin_port);
    }
    const std::byte* const bytes = area + index * receiveBufferBytes_;
    datagram.bytes.assign(
        bytes, bytes + std::min<std::size_t>(messages[i].msg_len, receiveBufferBytes_));
    out.push_back(std::move(datagram));
  }
  return static_cast<std::size_t>(received);
}

std::size_t UdpSocket::trySendBatch(std::span<const OutgoingDatagram> batch,
                                    std::size_t offset, SendStatus& headStatus) {
  headStatus = SendStatus::Sent;
  if (offset >= batch.size()) return 0;

  constexpr std::size_t kMaxIoBatch = 64;
  const std::size_t count = std::min(batch.size() - offset, kMaxIoBatch);
  std::array<sockaddr_in, kMaxIoBatch> addresses{};
  std::array<iovec, kMaxIoBatch> iovecs{};
  std::array<mmsghdr, kMaxIoBatch> messages{};
  for (std::size_t i = 0; i < count; ++i) {
    const OutgoingDatagram& out = batch[offset + i];
    addresses[i].sin_family = AF_INET;
    addresses[i].sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addresses[i].sin_port = htons(out.port);
    // sendmmsg never writes through msg_iov; the const_cast is the
    // price of the kernel sharing one struct for send and receive.
    iovecs[i] = {const_cast<std::byte*>(out.frame->data()), out.frame->size()};
    messages[i].msg_hdr.msg_iov = &iovecs[i];
    messages[i].msg_hdr.msg_iovlen = 1;
    messages[i].msg_hdr.msg_name = &addresses[i];
    messages[i].msg_hdr.msg_namelen = sizeof addresses[i];
  }

  int sent = 0;
  do {
    sent = ::sendmmsg(fd_, messages.data(), static_cast<unsigned>(count), 0);
  } while (sent < 0 && errno == EINTR);
  if (sent > 0) return static_cast<std::size_t>(sent);
  headStatus = classifySendErrno(errno);
  return 0;
}

SendOutcome sendWithBackoff(UdpSocket& socket, std::uint16_t port,
                            const std::vector<std::byte>& frame,
                            const SendBackoffPolicy& policy, util::Rng& rng) {
  EPTO_ENSURE_MSG(policy.maxAttempts >= 1, "backoff needs at least one attempt");
  SendOutcome outcome;
  auto delay = policy.initialDelay;
  for (int attempt = 1;; ++attempt) {
    outcome.status = socket.trySendTo(port, frame);
    if (outcome.status != SendStatus::Transient || attempt >= policy.maxAttempts) {
      return outcome;
    }
    // ±50% jitter de-synchronizes nodes that hit a shared buffer limit
    // together — retrying in lockstep would refill it in lockstep.
    const double jitter = 0.5 + rng.uniform01();
    const auto sleep = std::chrono::microseconds(static_cast<std::int64_t>(
        std::max(1.0, static_cast<double>(delay.count()) * jitter)));
    std::this_thread::sleep_for(sleep);
    delay = std::chrono::microseconds(static_cast<std::int64_t>(
        std::max(1.0, static_cast<double>(delay.count()) * policy.multiplier)));
    ++outcome.retries;
  }
}

BatchSendOutcome sendBatchWithBackoff(UdpSocket& socket,
                                      std::span<const OutgoingDatagram> batch,
                                      const SendBackoffPolicy& policy, util::Rng& rng) {
  EPTO_ENSURE_MSG(policy.maxAttempts >= 1, "backoff needs at least one attempt");
  BatchSendOutcome outcome;
  std::size_t offset = 0;
  // Per-message backoff state: attempts/delay reset whenever the head
  // message changes, so one congested stretch cannot starve the rest of
  // the batch of its full retry schedule.
  int headAttempts = 0;
  auto headDelay = policy.initialDelay;
  while (offset < batch.size()) {
    SendStatus headStatus = SendStatus::Sent;
    const std::size_t sent = socket.trySendBatch(batch, offset, headStatus);
    ++outcome.syscalls;
    if (sent > 0) {
      for (std::size_t i = offset; i < offset + sent; ++i) {
        if (batch[i].isFragment) ++outcome.fragmentsSent;
      }
      outcome.sent += sent;
      offset += sent;
      headAttempts = 0;
      headDelay = policy.initialDelay;
      continue;
    }
    if (headStatus == SendStatus::Hard) {
      ++outcome.hardLost;
      ++offset;
      headAttempts = 0;
      headDelay = policy.initialDelay;
      continue;
    }
    // Transient refusal of the head message: back off and re-attempt it,
    // exactly like the single-datagram schedule.
    if (++headAttempts >= policy.maxAttempts) {
      ++outcome.transientLost;
      ++offset;
      headAttempts = 0;
      headDelay = policy.initialDelay;
      continue;
    }
    const double jitter = 0.5 + rng.uniform01();
    const auto sleep = std::chrono::microseconds(static_cast<std::int64_t>(
        std::max(1.0, static_cast<double>(headDelay.count()) * jitter)));
    std::this_thread::sleep_for(sleep);
    headDelay = std::chrono::microseconds(static_cast<std::int64_t>(
        std::max(1.0, static_cast<double>(headDelay.count()) * policy.multiplier)));
    ++outcome.retries;
  }
  return outcome;
}

bool sendBall(UdpSocket& socket, std::uint16_t port, const Ball& ball) {
  return socket.sendTo(port, codec::encodeBall(ball));
}

}  // namespace epto::runtime
