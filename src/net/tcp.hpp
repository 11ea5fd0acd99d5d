// Blocking TCP plumbing shared by the front door (NetServer's listener,
// NetClient) and the replication plane (ReplicationLog, ReplicaApplier):
// listen, connect, send-all, blocking frame receive and reconnect
// backoff. The epoll loop's non-blocking accept, read and write stay in
// NetServer — only the event loop needs them.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>

#include "net/wire_protocol.hpp"
#include "util/rng.hpp"

namespace ssma::net {

/// Binds and listens on IPv4 host:port (0 = ephemeral) with
/// SO_REUSEADDR and TCP_NODELAY; Linux copies TCP_NODELAY onto every
/// accepted socket. Returns the listener fd and writes the bound port
/// to *bound_port. Throws CheckError on failure, after closing the fd.
int tcp_listen(const std::string& host, std::uint16_t port, int backlog,
               bool nonblocking, std::uint16_t* bound_port);

/// Connects to IPv4 host:port and sets TCP_NODELAY. Returns the fd, or
/// -1 with errno holding the cause (EINVAL for an unparseable host).
int tcp_connect(const std::string& host, std::uint16_t port);

/// Writes all n bytes, retrying EINTR. MSG_NOSIGNAL turns a closed peer
/// into an error instead of SIGPIPE. False on any other error, with
/// errno preserved; *sent (if given) receives the bytes that went out
/// either way.
bool send_all(int fd, const char* data, std::size_t n,
              std::size_t* sent = nullptr);
inline bool send_all(int fd, const std::string& bytes,
                     std::size_t* sent = nullptr) {
  return send_all(fd, bytes.data(), bytes.size(), sent);
}

enum class RecvStatus {
  kFrame,      ///< *payload holds one CRC-validated payload
  kClosed,     ///< peer closed at a frame boundary
  kTruncated,  ///< peer closed mid-frame
  kBad,        ///< oversized length or CRC mismatch
  kError,      ///< recv failed; errno holds the cause
};

/// Blocks until `dec` yields one frame, refilling it from `fd` through
/// a 64 KiB buffer. Frames already buffered in `dec` come first.
RecvStatus recv_frame(int fd, FrameDecoder& dec, std::string* payload);

/// Reconnect delay before retry `attempt` (0-based): base * 2^attempt
/// capped at `cap`, plus seeded jitter of up to half that step, so
/// reconnect storms decorrelate deterministically. Never above 1.5x cap.
std::chrono::milliseconds backoff_delay(std::uint64_t attempt,
                                        std::chrono::milliseconds base,
                                        std::chrono::milliseconds cap,
                                        Rng& rng);

}  // namespace ssma::net
