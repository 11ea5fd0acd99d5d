#include "net/tcp.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "util/check.hpp"

namespace ssma::net {

namespace {

/// False (errno = EINVAL) when `host` is not a dotted IPv4 address.
bool to_sockaddr(const std::string& host, std::uint16_t port,
                 sockaddr_in* addr) {
  *addr = sockaddr_in{};
  addr->sin_family = AF_INET;
  addr->sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr->sin_addr) == 1) return true;
  errno = EINVAL;
  return false;
}

}  // namespace

int tcp_listen(const std::string& host, std::uint16_t port, int backlog,
               bool nonblocking, std::uint16_t* bound_port) {
  const int fd = ::socket(
      AF_INET, SOCK_STREAM | SOCK_CLOEXEC | (nonblocking ? SOCK_NONBLOCK : 0),
      0);
  SSMA_CHECK_MSG(fd >= 0, "socket() failed: " << std::strerror(errno));
  int one = 1;
  (void)::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  // Best effort, like every TCP_NODELAY here: latency, not correctness.
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  const char* failed = nullptr;
  if (!to_sockaddr(host, port, &addr))
    failed = "inet_pton";
  else if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0)
    failed = "bind";
  else if (::listen(fd, backlog) != 0)
    failed = "listen";
  else if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0)
    failed = "getsockname";
  if (failed != nullptr) {
    const int err = errno;
    ::close(fd);  // the caller never sees the fd, so it must not leak
    SSMA_CHECK_MSG(false, failed << "(" << host << ":" << port
                                 << ") failed: " << std::strerror(err));
  }
  *bound_port = ntohs(addr.sin_port);
  return fd;
}

int tcp_connect(const std::string& host, std::uint16_t port) {
  sockaddr_in addr{};
  if (!to_sockaddr(host, port, &addr)) return -1;
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    const int err = errno;
    ::close(fd);
    errno = err;
    return -1;
  }
  int one = 1;
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

bool send_all(int fd, const char* data, std::size_t n, std::size_t* sent) {
  std::size_t off = 0;
  while (off < n) {
    const ssize_t w = ::send(fd, data + off, n - off, MSG_NOSIGNAL);
    if (w < 0 && errno == EINTR) continue;
    if (w <= 0) break;
    off += static_cast<std::size_t>(w);
  }
  if (sent != nullptr) *sent = off;
  return off == n;
}

RecvStatus recv_frame(int fd, FrameDecoder& dec, std::string* payload) {
  char buf[64 * 1024];
  for (;;) {
    switch (dec.next(payload)) {
      case FrameDecoder::Result::kFrame:
        return RecvStatus::kFrame;
      case FrameDecoder::Result::kBad:
        return RecvStatus::kBad;
      case FrameDecoder::Result::kNeedMore:
        break;
    }
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) return RecvStatus::kError;
    if (n == 0)
      return dec.buffered_bytes() == 0 ? RecvStatus::kClosed
                                       : RecvStatus::kTruncated;
    dec.feed(buf, static_cast<std::size_t>(n));
  }
}

std::chrono::milliseconds backoff_delay(std::uint64_t attempt,
                                        std::chrono::milliseconds base,
                                        std::chrono::milliseconds cap,
                                        Rng& rng) {
  const auto b = static_cast<std::uint64_t>(base.count());
  const auto c = static_cast<std::uint64_t>(cap.count());
  std::uint64_t delay =
      std::min(c, b << std::min<std::uint64_t>(attempt, 20));
  delay += rng.next_below(delay / 2 + 1);
  return std::chrono::milliseconds(delay);
}

}  // namespace ssma::net
