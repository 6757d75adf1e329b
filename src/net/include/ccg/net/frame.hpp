// Framed message transport for the distributed collector
// (docs/DISTRIBUTED.md). Reuses the store's framing discipline on a
// socket:  u32 payload_len | payload | u32 crc32(payload), little-endian.
//
// Two transports share one FrameConn type: blocking loopback TCP
// (Listener / connect_loopback, used by `ccgraph serve`) and an AF_UNIX
// socketpair (socket_pair, used by the in-process loopback tests and the
// fork-based bench). Receive distinguishes a clean end-of-stream (peer
// closed at a frame boundary) from a torn frame (EOF mid-frame), a CRC or
// length violation, and a timeout — every failure path logs a structured
// ccg::obs::log record and bumps ccg.net.* counters; nothing is dropped
// silently.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace ccg::net {

/// Largest accepted frame payload. A length prefix beyond this is treated
/// as corruption, not an allocation request.
inline constexpr std::uint32_t kMaxFramePayload = 1u << 28;  // 256 MiB

enum class RecvStatus {
  kOk,       // one whole frame delivered
  kEof,      // peer closed cleanly at a frame boundary
  kTimeout,  // no (complete) frame within the deadline
  kError,    // torn frame, CRC mismatch, oversized length, or socket error
};

/// One frame-oriented connection over a stream socket. Move-only; closes
/// its fd on destruction.
class FrameConn {
 public:
  FrameConn() = default;
  FrameConn(int fd, std::string peer) : fd_(fd), peer_(std::move(peer)) {}
  ~FrameConn() { close(); }

  FrameConn(FrameConn&& other) noexcept { *this = std::move(other); }
  FrameConn& operator=(FrameConn&& other) noexcept;
  FrameConn(const FrameConn&) = delete;
  FrameConn& operator=(const FrameConn&) = delete;

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }
  const std::string& peer() const { return peer_; }

  /// Shard id stamped into this connection's error log records (-1 unset).
  void set_shard(int shard) { shard_ = shard; }
  int shard() const { return shard_; }

  /// Writes one complete frame (handles partial writes). False on error.
  bool send(std::span<const std::uint8_t> payload);

  /// Reads one complete frame into `payload`. timeout_ms < 0 uses the
  /// `net_timeout_ms` knob; 0 waits forever. On anything but kOk the
  /// payload contents are unspecified.
  RecvStatus recv(std::vector<std::uint8_t>& payload, int timeout_ms = -1);

  void close();

 private:
  enum class ReadResult { kOk, kCleanEof, kTornEof, kTimeout, kError };
  ReadResult read_exact(std::uint8_t* dst, std::size_t n,
                        std::int64_t deadline_ns);

  int fd_ = -1;
  int shard_ = -1;
  std::string peer_;
};

/// Loopback TCP listener (127.0.0.1 only — the distributed collector is a
/// single-host scale-out, not a network service). port 0 binds ephemeral.
class Listener {
 public:
  Listener() = default;
  ~Listener() { close(); }

  Listener(Listener&& other) noexcept { *this = std::move(other); }
  Listener& operator=(Listener&& other) noexcept;
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  static std::optional<Listener> bind_loopback(std::uint16_t port = 0);

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }
  std::uint16_t port() const { return port_; }

  /// Accepts one connection. Same timeout convention as FrameConn::recv.
  std::optional<FrameConn> accept(int timeout_ms = -1);

  void close();

 private:
  int fd_ = -1;
  std::uint16_t port_ = 0;
};

/// Connects to 127.0.0.1:port, retrying with capped exponential backoff
/// (10 ms doubling to 500 ms). retries < 0 uses the `net_retries` knob.
std::optional<FrameConn> connect_loopback(std::uint16_t port, int retries = -1);

/// Connected AF_UNIX stream socketpair — the in-process / fork transport.
std::optional<std::pair<FrameConn, FrameConn>> socket_pair();

}  // namespace ccg::net
