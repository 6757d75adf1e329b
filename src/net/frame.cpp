#include "ccg/net/frame.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "ccg/obs/config.hpp"
#include "ccg/obs/log.hpp"
#include "ccg/obs/metrics.hpp"
#include "ccg/obs/trace.hpp"
#include "ccg/store/format.hpp"

namespace ccg::net {

namespace {

/// ccg.net.* instruments, registered once.
struct NetMetrics {
  obs::Counter* frames_sent;
  obs::Counter* frames_received;
  obs::Counter* bytes_sent;
  obs::Counter* bytes_received;
  obs::Counter* connect_retries;
  obs::Counter* timeouts;
  obs::Counter* errors;
};

NetMetrics& metrics() {
  static NetMetrics m = [] {
    obs::Registry& r = obs::Registry::global();
    return NetMetrics{&r.counter("ccg.net.frames_sent"),
                      &r.counter("ccg.net.frames_received"),
                      &r.counter("ccg.net.bytes_sent"),
                      &r.counter("ccg.net.bytes_received"),
                      &r.counter("ccg.net.connect_retries"),
                      &r.counter("ccg.net.timeouts"),
                      &r.counter("ccg.net.errors")};
  }();
  return m;
}

void put_u32le(std::uint8_t* dst, std::uint32_t v) {
  dst[0] = static_cast<std::uint8_t>(v);
  dst[1] = static_cast<std::uint8_t>(v >> 8);
  dst[2] = static_cast<std::uint8_t>(v >> 16);
  dst[3] = static_cast<std::uint8_t>(v >> 24);
}

std::uint32_t get_u32le(const std::uint8_t* src) {
  return std::uint32_t{src[0]} | std::uint32_t{src[1]} << 8 |
         std::uint32_t{src[2]} << 16 | std::uint32_t{src[3]} << 24;
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// deadline_ns == 0 means "no deadline".
std::int64_t deadline_from(int timeout_ms) {
  if (timeout_ms < 0) {
    timeout_ms = static_cast<int>(obs::runtime_config().net_timeout_ms);
  }
  if (timeout_ms == 0) return 0;
  return now_ns() + std::int64_t{timeout_ms} * 1'000'000;
}

void log_conn_error(const char* what, const std::string& peer, int shard,
                    int saved_errno) {
  metrics().errors->add();
  obs::log_error(what, {obs::field("peer", peer), obs::field("shard", shard),
                        obs::field("trace", obs::current_trace().trace_id),
                        obs::field("errno", saved_errno),
                        obs::field("error", saved_errno != 0
                                                ? std::strerror(saved_errno)
                                                : "-")});
}

void set_nodelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

}  // namespace

// --- FrameConn ---------------------------------------------------------------

FrameConn& FrameConn::operator=(FrameConn&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    shard_ = other.shard_;
    peer_ = std::move(other.peer_);
    other.fd_ = -1;
  }
  return *this;
}

void FrameConn::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

bool FrameConn::send(std::span<const std::uint8_t> payload) {
  if (!valid()) {
    log_conn_error("net: send on closed connection", peer_, shard_, 0);
    return false;
  }
  if (payload.size() > kMaxFramePayload) {
    log_conn_error("net: send payload exceeds frame cap", peer_, shard_, 0);
    return false;
  }
  std::vector<std::uint8_t> buf(payload.size() + 8);
  put_u32le(buf.data(), static_cast<std::uint32_t>(payload.size()));
  std::memcpy(buf.data() + 4, payload.data(), payload.size());
  put_u32le(buf.data() + 4 + payload.size(), store::crc32(payload));

  std::size_t sent = 0;
  while (sent < buf.size()) {
    const ssize_t n =
        ::send(fd_, buf.data() + sent, buf.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      log_conn_error("net: send failed", peer_, shard_, errno);
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  metrics().frames_sent->add();
  metrics().bytes_sent->add(buf.size());
  return true;
}

FrameConn::ReadResult FrameConn::read_exact(std::uint8_t* dst, std::size_t n,
                                            std::int64_t deadline_ns) {
  std::size_t got = 0;
  while (got < n) {
    if (deadline_ns != 0) {
      const std::int64_t remaining_ms = (deadline_ns - now_ns()) / 1'000'000;
      if (remaining_ms <= 0) return ReadResult::kTimeout;
      pollfd pfd{fd_, POLLIN, 0};
      const int pr = ::poll(&pfd, 1, static_cast<int>(remaining_ms));
      if (pr == 0) return ReadResult::kTimeout;
      if (pr < 0) {
        if (errno == EINTR) continue;
        return ReadResult::kError;
      }
    }
    const ssize_t r = ::recv(fd_, dst + got, n - got, 0);
    if (r == 0) return got == 0 ? ReadResult::kCleanEof : ReadResult::kTornEof;
    if (r < 0) {
      if (errno == EINTR) continue;
      return ReadResult::kError;
    }
    got += static_cast<std::size_t>(r);
  }
  return ReadResult::kOk;
}

RecvStatus FrameConn::recv(std::vector<std::uint8_t>& payload, int timeout_ms) {
  if (!valid()) {
    log_conn_error("net: recv on closed connection", peer_, shard_, 0);
    return RecvStatus::kError;
  }
  const std::int64_t deadline = deadline_from(timeout_ms);

  std::uint8_t header[4];
  switch (read_exact(header, sizeof(header), deadline)) {
    case ReadResult::kOk:
      break;
    case ReadResult::kCleanEof:
      return RecvStatus::kEof;  // peer closed between frames: not an error
    case ReadResult::kTornEof:
      log_conn_error("net: torn frame (EOF inside length prefix)", peer_,
                     shard_, 0);
      return RecvStatus::kError;
    case ReadResult::kTimeout:
      metrics().timeouts->add();
      log_conn_error("net: recv timed out waiting for frame", peer_, shard_, 0);
      return RecvStatus::kTimeout;
    case ReadResult::kError:
      log_conn_error("net: recv failed reading length prefix", peer_, shard_,
                     errno);
      return RecvStatus::kError;
  }

  const std::uint32_t len = get_u32le(header);
  if (len > kMaxFramePayload) {
    log_conn_error("net: frame length exceeds cap (corrupt stream?)", peer_,
                   shard_, 0);
    return RecvStatus::kError;
  }

  payload.resize(len + 4);  // payload bytes + trailing crc
  switch (read_exact(payload.data(), payload.size(), deadline)) {
    case ReadResult::kOk:
      break;
    case ReadResult::kCleanEof:
    case ReadResult::kTornEof:
      log_conn_error("net: torn frame (EOF inside payload)", peer_, shard_, 0);
      return RecvStatus::kError;
    case ReadResult::kTimeout:
      metrics().timeouts->add();
      log_conn_error("net: recv timed out mid-frame", peer_, shard_, 0);
      return RecvStatus::kTimeout;
    case ReadResult::kError:
      log_conn_error("net: recv failed reading payload", peer_, shard_, errno);
      return RecvStatus::kError;
  }

  const std::uint32_t stored_crc = get_u32le(payload.data() + len);
  payload.resize(len);
  const std::uint32_t actual_crc = store::crc32(payload);
  if (stored_crc != actual_crc) {
    log_conn_error("net: frame CRC mismatch", peer_, shard_, 0);
    return RecvStatus::kError;
  }
  metrics().frames_received->add();
  metrics().bytes_received->add(std::uint64_t{len} + 8);
  return RecvStatus::kOk;
}

// --- Listener ----------------------------------------------------------------

Listener& Listener::operator=(Listener&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    port_ = other.port_;
    other.fd_ = -1;
  }
  return *this;
}

void Listener::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

std::optional<Listener> Listener::bind_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    log_conn_error("net: socket() failed", "listener", -1, errno);
    return std::nullopt;
  }
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 64) != 0) {
    log_conn_error("net: bind/listen on loopback failed", "listener", -1,
                   errno);
    ::close(fd);
    return std::nullopt;
  }
  socklen_t addr_len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &addr_len) != 0) {
    log_conn_error("net: getsockname failed", "listener", -1, errno);
    ::close(fd);
    return std::nullopt;
  }
  Listener listener;
  listener.fd_ = fd;
  listener.port_ = ntohs(addr.sin_port);
  return listener;
}

std::optional<FrameConn> Listener::accept(int timeout_ms) {
  if (!valid()) return std::nullopt;
  const std::int64_t deadline = deadline_from(timeout_ms);
  for (;;) {
    if (deadline != 0) {
      const std::int64_t remaining_ms = (deadline - now_ns()) / 1'000'000;
      if (remaining_ms <= 0) {
        metrics().timeouts->add();
        log_conn_error("net: accept timed out", "listener", -1, 0);
        return std::nullopt;
      }
      pollfd pfd{fd_, POLLIN, 0};
      const int pr = ::poll(&pfd, 1, static_cast<int>(remaining_ms));
      if (pr == 0) {
        metrics().timeouts->add();
        log_conn_error("net: accept timed out", "listener", -1, 0);
        return std::nullopt;
      }
      if (pr < 0) {
        if (errno == EINTR) continue;
        log_conn_error("net: poll before accept failed", "listener", -1, errno);
        return std::nullopt;
      }
    }
    sockaddr_in peer{};
    socklen_t peer_len = sizeof(peer);
    const int conn = ::accept4(fd_, reinterpret_cast<sockaddr*>(&peer),
                               &peer_len, SOCK_CLOEXEC);
    if (conn < 0) {
      if (errno == EINTR) continue;
      log_conn_error("net: accept failed", "listener", -1, errno);
      return std::nullopt;
    }
    set_nodelay(conn);
    return FrameConn(conn, "127.0.0.1:" + std::to_string(ntohs(peer.sin_port)));
  }
}

// --- client / socketpair -----------------------------------------------------

std::optional<FrameConn> connect_loopback(std::uint16_t port, int retries) {
  if (retries < 0) {
    retries = static_cast<int>(obs::runtime_config().net_retries);
  }
  const std::string peer = "127.0.0.1:" + std::to_string(port);
  int delay_ms = 10;
  for (int attempt = 0; attempt < retries; ++attempt) {
    if (attempt > 0) {
      metrics().connect_retries->add();
      std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
      delay_ms = std::min(delay_ms * 2, 500);
    }
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) continue;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
      set_nodelay(fd);
      return FrameConn(fd, peer);
    }
    ::close(fd);
  }
  log_conn_error("net: connect failed after retries", peer, -1, errno);
  return std::nullopt;
}

std::optional<std::pair<FrameConn, FrameConn>> socket_pair() {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, fds) != 0) {
    log_conn_error("net: socketpair failed", "socketpair", -1, errno);
    return std::nullopt;
  }
  return std::make_pair(FrameConn(fds[0], "socketpair:0"),
                        FrameConn(fds[1], "socketpair:1"));
}

}  // namespace ccg::net
