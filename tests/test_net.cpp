// TCP front-door tests: frame decoding (round trips, incremental
// feeds, CRC/length corruption), RPC message round trips, and loopback
// end-to-end serving — bit-exact responses under pipelining and
// connection backpressure, typed wire rejections for every refusal
// class (unknown model, malformed payload, rate limiting, expired
// deadlines, shutdown), protocol-error hangups, concurrent
// connections, and graceful stop with clients attached (no hangs, no
// lost acks). Also the shared blocking TCP transport (net/tcp.hpp):
// every recv_frame outcome over a loopback pair, send_all to a closed
// peer, connect to a dead port, backoff determinism, and no fd leak
// when a listener fails to bind.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "maddness/framing.hpp"
#include "net/server.hpp"
#include "net/tcp.hpp"
#include "net/wire_protocol.hpp"
#include "serve/server.hpp"
#include "serve_test_util.hpp"
#include "util/check.hpp"

namespace ssma::net {
namespace {

using serve::RejectReason;
using serve::ServeFixture;

RpcRequest make_request(std::uint64_t corr,
                        const std::vector<std::uint8_t>& codes,
                        std::uint64_t rows = 1,
                        const std::string& model = "m") {
  RpcRequest r;
  r.correlation_id = corr;
  r.model_ref = model;
  r.rows = rows;
  r.codes = codes;
  return r;
}

// ------------------------------------------------------- frame decoder

TEST(FrameDecoderTest, RoundTripsSingleAndMultipleFrames) {
  wire::Writer w;
  maddness::write_framed_blob(w, "alpha");
  maddness::write_framed_blob(w, "");
  maddness::write_framed_blob(w, std::string(10000, 'x'));
  const std::string bytes = w.str();

  FrameDecoder dec(1 << 20);
  dec.feed(bytes.data(), bytes.size());
  std::string payload;
  ASSERT_EQ(dec.next(&payload), FrameDecoder::Result::kFrame);
  EXPECT_EQ(payload, "alpha");
  ASSERT_EQ(dec.next(&payload), FrameDecoder::Result::kFrame);
  EXPECT_EQ(payload, "");
  ASSERT_EQ(dec.next(&payload), FrameDecoder::Result::kFrame);
  EXPECT_EQ(payload, std::string(10000, 'x'));
  EXPECT_EQ(dec.next(&payload), FrameDecoder::Result::kNeedMore);
  EXPECT_EQ(dec.buffered_bytes(), 0u);
}

TEST(FrameDecoderTest, ByteAtATimeFeedReassembles) {
  wire::Writer w;
  maddness::write_framed_blob(w, "drip-fed payload");
  const std::string bytes = w.str();

  FrameDecoder dec(1 << 20);
  std::string payload;
  for (std::size_t i = 0; i + 1 < bytes.size(); ++i) {
    dec.feed(&bytes[i], 1);
    ASSERT_EQ(dec.next(&payload), FrameDecoder::Result::kNeedMore);
  }
  dec.feed(&bytes[bytes.size() - 1], 1);
  ASSERT_EQ(dec.next(&payload), FrameDecoder::Result::kFrame);
  EXPECT_EQ(payload, "drip-fed payload");
}

TEST(FrameDecoderTest, CrcMismatchIsBad) {
  wire::Writer w;
  maddness::write_framed_blob(w, "to be corrupted");
  std::string bytes = w.str();
  bytes[bytes.size() - 1] ^= 0x01;  // flip a payload bit

  FrameDecoder dec(1 << 20);
  dec.feed(bytes.data(), bytes.size());
  std::string payload;
  EXPECT_EQ(dec.next(&payload), FrameDecoder::Result::kBad);
}

TEST(FrameDecoderTest, OversizedLengthWordIsBadImmediately) {
  // 12 header bytes claiming a larger-than-allowed frame: kBad without
  // waiting for (or buffering) the impossible payload.
  std::string hdr(12, '\0');
  const std::uint64_t huge = (1u << 20) + 1;
  std::memcpy(&hdr[0], &huge, 8);  // test host is little-endian x86
  FrameDecoder dec(1 << 20);
  dec.feed(hdr.data(), hdr.size());
  std::string payload;
  EXPECT_EQ(dec.next(&payload), FrameDecoder::Result::kBad);
}

// ----------------------------------------------------- message codecs

TEST(WireProtocolTest, RequestRoundTrips) {
  RpcRequest req;
  req.correlation_id = 0xC0FFEE;
  req.tenant = "gold";
  req.model_ref = "embed@3";
  req.deadline_ms = 250;
  req.priority = 2;
  req.rows = 3;
  req.codes = {1, 2, 3, 4, 5, 6};

  const std::string frame = req.encode();
  FrameDecoder dec(1 << 20);
  dec.feed(frame.data(), frame.size());
  std::string payload;
  ASSERT_EQ(dec.next(&payload), FrameDecoder::Result::kFrame);

  RpcRequest back;
  ASSERT_TRUE(parse_request(payload, &back));
  EXPECT_EQ(back.correlation_id, req.correlation_id);
  EXPECT_EQ(back.tenant, req.tenant);
  EXPECT_EQ(back.model_ref, req.model_ref);
  EXPECT_EQ(back.deadline_ms, req.deadline_ms);
  EXPECT_EQ(back.priority, req.priority);
  EXPECT_EQ(back.rows, req.rows);
  EXPECT_EQ(back.codes, req.codes);
}

TEST(WireProtocolTest, ResponseRoundTrips) {
  RpcResponse resp;
  resp.correlation_id = 77;
  resp.status = kStatusOk;
  resp.model = "embed";
  resp.model_version = 3;
  resp.rows = 2;
  resp.outputs = {-32768, -1, 0, 1, 32767, 123};
  resp.message = "";

  const std::string frame = resp.encode();
  FrameDecoder dec(1 << 20);
  dec.feed(frame.data(), frame.size());
  std::string payload;
  ASSERT_EQ(dec.next(&payload), FrameDecoder::Result::kFrame);

  RpcResponse back;
  ASSERT_TRUE(parse_response(payload, &back));
  EXPECT_EQ(back.correlation_id, resp.correlation_id);
  EXPECT_EQ(back.status, kStatusOk);
  EXPECT_EQ(back.model, "embed");
  EXPECT_EQ(back.model_version, 3u);
  EXPECT_EQ(back.rows, 2u);
  EXPECT_EQ(back.outputs, resp.outputs);
}

TEST(WireProtocolTest, MalformedPayloadsAreRejectedNotRead) {
  RpcRequest req = make_request(1, {1, 2, 3});
  const std::string frame = req.encode();
  FrameDecoder dec(1 << 20);
  dec.feed(frame.data(), frame.size());
  std::string payload;
  ASSERT_EQ(dec.next(&payload), FrameDecoder::Result::kFrame);

  RpcRequest out;
  ASSERT_TRUE(parse_request(payload, &out));
  // Every strict prefix is a truncation; none may parse (or crash).
  for (std::size_t cut = 0; cut < payload.size(); ++cut)
    EXPECT_FALSE(parse_request(payload.substr(0, cut), &out))
        << "prefix of length " << cut << " parsed";
  // Trailing junk must be rejected too.
  EXPECT_FALSE(parse_request(payload + "z", &out));
  // Wrong version byte.
  std::string wrong = payload;
  wrong[0] = static_cast<char>(kWireVersion + 1);
  EXPECT_FALSE(parse_request(wrong, &out));
  // A response payload is not a request.
  EXPECT_FALSE(parse_request(RpcResponse{}.encode().substr(12), &out));
}

// ------------------------------------------------------ tcp transport

std::string framed(const std::string& payload) {
  wire::Writer w;
  maddness::write_framed_blob(w, payload);
  return w.take();
}

/// A connected loopback pair: `client` from tcp_connect, `server` the
/// accepted end. Closes whatever is still open.
struct TcpPair {
  int client = -1;
  int server = -1;

  TcpPair() {
    std::uint16_t port = 0;
    const int lfd = tcp_listen("127.0.0.1", 0, 1, /*nonblocking=*/false,
                               &port);
    client = tcp_connect("127.0.0.1", port);
    server = ::accept4(lfd, nullptr, nullptr, SOCK_CLOEXEC);
    ::close(lfd);
  }
  ~TcpPair() {
    close_client();
    if (server >= 0) ::close(server);
  }
  void close_client() {
    if (client >= 0) ::close(client);
    client = -1;
  }
};

/// A port nothing listens on: bound once, then closed.
std::uint16_t unused_port() {
  std::uint16_t port = 0;
  ::close(tcp_listen("127.0.0.1", 0, 1, /*nonblocking=*/false, &port));
  return port;
}

TEST(TcpTransport, RecvFrameReportsFrameThenCleanClose) {
  TcpPair p;
  ASSERT_GE(p.client, 0);
  ASSERT_GE(p.server, 0);
  ASSERT_TRUE(send_all(p.client, framed("one") + framed("two")));
  p.close_client();

  FrameDecoder dec(1 << 20);
  std::string payload;
  ASSERT_EQ(recv_frame(p.server, dec, &payload), RecvStatus::kFrame);
  EXPECT_EQ(payload, "one");
  ASSERT_EQ(recv_frame(p.server, dec, &payload), RecvStatus::kFrame);
  EXPECT_EQ(payload, "two");
  EXPECT_EQ(recv_frame(p.server, dec, &payload), RecvStatus::kClosed);
}

TEST(TcpTransport, RecvFrameReportsCloseMidFrame) {
  TcpPair p;
  const std::string frame = framed("cut short");
  ASSERT_TRUE(send_all(p.client, frame.data(), frame.size() - 3));
  p.close_client();

  FrameDecoder dec(1 << 20);
  std::string payload;
  EXPECT_EQ(recv_frame(p.server, dec, &payload), RecvStatus::kTruncated);
}

TEST(TcpTransport, RecvFrameReportsCrcCorruptFrame) {
  TcpPair p;
  std::string frame = framed("flipped");
  frame.back() ^= 0x01;
  ASSERT_TRUE(send_all(p.client, frame));

  FrameDecoder dec(1 << 20);
  std::string payload;
  EXPECT_EQ(recv_frame(p.server, dec, &payload), RecvStatus::kBad);
}

TEST(TcpTransport, RecvFrameReportsResetAsErrorWithErrno) {
  TcpPair p;
  // Zero linger: close() sends RST, so the reader's recv fails.
  const linger abort_close{1, 0};
  ASSERT_EQ(::setsockopt(p.client, SOL_SOCKET, SO_LINGER, &abort_close,
                         sizeof(abort_close)),
            0);
  p.close_client();

  FrameDecoder dec(1 << 20);
  std::string payload;
  const RecvStatus st = recv_frame(p.server, dec, &payload);
  const int err = errno;
  EXPECT_EQ(st, RecvStatus::kError);
  EXPECT_EQ(err, ECONNRESET) << std::strerror(err);
}

TEST(TcpTransport, SendAllToClosedPeerFailsWithoutSigpipe) {
  TcpPair p;
  ::close(p.server);
  p.server = -1;
  // The first write may still be accepted locally; the peer's RST then
  // fails a later one. Without MSG_NOSIGNAL that failure is a SIGPIPE,
  // which kills this process.
  const std::string chunk(4096, 'x');
  bool failed = false;
  int err = 0;
  std::size_t sent = chunk.size();
  for (int i = 0; i < 200 && !failed; ++i) {
    failed = !send_all(p.client, chunk, &sent);
    err = errno;
    if (!failed) {
      EXPECT_EQ(sent, chunk.size());
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  ASSERT_TRUE(failed);
  EXPECT_TRUE(err == EPIPE || err == ECONNRESET) << std::strerror(err);
  EXPECT_LT(sent, chunk.size());
}

TEST(TcpTransport, ConnectToDeadPortFailsAndKeepsErrno) {
  const std::uint16_t port = unused_port();
  errno = 0;
  int fd = tcp_connect("127.0.0.1", port);
  int err = errno;
  EXPECT_EQ(fd, -1);
  EXPECT_EQ(err, ECONNREFUSED) << std::strerror(err);
  errno = 0;
  fd = tcp_connect("not-an-ipv4-address", 80);
  err = errno;
  EXPECT_EQ(fd, -1);
  EXPECT_EQ(err, EINVAL) << std::strerror(err);
}

TEST(TcpTransport, ConnectedAndAcceptedSocketsHaveNodelay) {
  TcpPair p;
  for (const int fd : {p.client, p.server}) {
    int on = 0;
    socklen_t len = sizeof(on);
    ASSERT_EQ(::getsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &on, &len), 0);
    EXPECT_NE(on, 0) << "fd " << fd;
  }
}

TEST(TcpTransport, BackoffDelayIsSeededAndCapped) {
  const std::uint64_t seed = serve::test_seed();
  SCOPED_TRACE(serve::seed_trace(seed));
  const std::chrono::milliseconds base(5);
  const std::chrono::milliseconds cap(300);
  Rng a(seed);
  Rng b(seed);
  for (std::uint64_t attempt = 0; attempt < 40; ++attempt) {
    const auto d = backoff_delay(attempt, base, cap, a);
    EXPECT_EQ(d, backoff_delay(attempt, base, cap, b)) << attempt;
    const std::int64_t step = std::min<std::int64_t>(
        cap.count(), base.count() << std::min<std::uint64_t>(attempt, 20));
    EXPECT_GE(d.count(), step) << attempt;
    EXPECT_LE(d.count(), step + step / 2) << attempt;
  }
}

/// Open descriptors of this process (the count includes the one the
/// directory walk itself holds, identically every time).
std::size_t open_fds() {
  std::size_t n = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/fd")) {
    (void)entry;
    ++n;
  }
  return n;
}

TEST(NetServerTest, FailedBindThrowsWithoutLeakingTheListener) {
  ServeFixture fix = ServeFixture::make();
  serve::InferenceServer server(serve::ServerOptions{});
  server.register_model("m", fix.amm);

  const std::size_t before = open_fds();
  std::uint16_t port = 0;
  const int taken = tcp_listen("127.0.0.1", 0, 1, /*nonblocking=*/false,
                               &port);
  NetServerOptions nopts;
  nopts.port = port;
  EXPECT_THROW({ NetServer blocked(server, nopts); }, CheckError);
  ::close(taken);
  EXPECT_EQ(open_fds(), before);
  server.shutdown();
}

// -------------------------------------------------------- end to end

/// Raw TCP peer for protocol-error tests (NetClient refuses to send
/// garbage on purpose).
class RawConn {
 public:
  void connect(std::uint16_t port) {
    fd_ = tcp_connect("127.0.0.1", port);
    ASSERT_GE(fd_, 0) << std::strerror(errno);
  }
  void send_bytes(const std::string& b) { ASSERT_TRUE(send_all(fd_, b)); }
  RecvStatus recv(FrameDecoder& dec, std::string* payload) {
    return recv_frame(fd_, dec, payload);
  }
  /// Blocks until the peer closes; true on EOF.
  bool drain_to_eof() {
    char buf[4096];
    for (;;) {
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n == 0) return true;
      if (n < 0) return false;
    }
  }
  ~RawConn() {
    if (fd_ >= 0) ::close(fd_);
  }

 private:
  int fd_ = -1;
};

struct Loopback {
  ServeFixture fix = ServeFixture::make();
  std::unique_ptr<serve::InferenceServer> server;
  std::unique_ptr<NetServer> net;

  explicit Loopback(NetServerOptions nopts = {},
                    serve::ServerOptions sopts = {}) {
    server = std::make_unique<serve::InferenceServer>(sopts);
    server->register_model("m", fix.amm);
    net = std::make_unique<NetServer>(*server, nopts);
  }
  ~Loopback() {
    net->stop();
    server->shutdown();
  }
};

TEST(NetServerTest, LoopbackPipelinedRequestsAreBitExact) {
  Loopback lb;
  NetClient cli;
  cli.connect("127.0.0.1", lb.net->port());

  constexpr std::uint64_t kN = 48;
  for (std::uint64_t i = 0; i < kN; ++i)
    cli.send(make_request(i, lb.fix.codes_for(i)));

  std::map<std::uint64_t, RpcResponse> got;
  for (std::uint64_t i = 0; i < kN; ++i) {
    RpcResponse resp;
    ASSERT_TRUE(cli.recv_response(&resp));
    got[resp.correlation_id] = std::move(resp);
  }
  ASSERT_EQ(got.size(), kN);  // every correlation id answered once
  for (std::uint64_t i = 0; i < kN; ++i) {
    const RpcResponse& r = got.at(i);
    EXPECT_EQ(r.status, kStatusOk);
    EXPECT_EQ(r.model, "m");
    EXPECT_EQ(r.model_version, 1u);
    EXPECT_EQ(r.rows, 1u);
    EXPECT_EQ(r.outputs, lb.fix.expected_for(lb.fix.codes_for(i), 1))
        << "response " << i << " not bit-exact";
  }
  const NetServerStats st = lb.net->stats();
  EXPECT_EQ(st.requests_admitted, kN);
  EXPECT_EQ(st.frames_received, kN);
  cli.close();
}

TEST(NetServerTest, UnknownModelAndBadShapeGetTypedRejections) {
  Loopback lb;
  NetClient cli;
  cli.connect("127.0.0.1", lb.net->port());

  cli.send(make_request(1, lb.fix.codes_for(0), 1, "nope"));
  RpcResponse resp;
  ASSERT_TRUE(cli.recv_response(&resp));
  EXPECT_EQ(resp.correlation_id, 1u);
  EXPECT_EQ(resp.status, status_of(RejectReason::kUnknownModel));

  // Payload size != rows x cols.
  cli.send(make_request(2, {1, 2, 3}, 1, "m"));
  ASSERT_TRUE(cli.recv_response(&resp));
  EXPECT_EQ(resp.correlation_id, 2u);
  EXPECT_EQ(resp.status, status_of(RejectReason::kMalformed));

  // rows == 0 is malformed, not a crash.
  cli.send(make_request(3, {}, 0, "m"));
  ASSERT_TRUE(cli.recv_response(&resp));
  EXPECT_EQ(resp.status, status_of(RejectReason::kMalformed));

  // The connection is still healthy after typed rejections.
  cli.send(make_request(4, lb.fix.codes_for(4)));
  ASSERT_TRUE(cli.recv_response(&resp));
  EXPECT_EQ(resp.correlation_id, 4u);
  EXPECT_EQ(resp.status, kStatusOk);
  cli.close();
}

TEST(NetServerTest, RateLimitedTenantShedsWithAckForEveryRequest) {
  NetServerOptions nopts;
  nopts.admission.tenants["limited"] =
      serve::TenantConfig{/*tokens_per_sec=*/0.001, /*burst_tokens=*/2.0,
                          serve::Priority::kLow};
  Loopback lb(nopts);
  NetClient cli;
  cli.connect("127.0.0.1", lb.net->port());

  constexpr std::uint64_t kN = 6;
  for (std::uint64_t i = 0; i < kN; ++i) {
    RpcRequest r = make_request(i, lb.fix.codes_for(i));
    r.tenant = "limited";
    cli.send(r);
  }
  std::size_t ok = 0, limited = 0;
  for (std::uint64_t i = 0; i < kN; ++i) {
    RpcResponse resp;
    ASSERT_TRUE(cli.recv_response(&resp));  // every request acked
    if (resp.status == kStatusOk)
      ok++;
    else if (resp.status == status_of(RejectReason::kRateLimited))
      limited++;
  }
  EXPECT_EQ(ok, 2u);       // exactly the burst
  EXPECT_EQ(limited, kN - 2);
  const NetServerStats st = lb.net->stats();
  EXPECT_EQ(st.rejects[static_cast<std::size_t>(
                RejectReason::kRateLimited)],
            kN - 2);
  cli.close();
}

TEST(NetServerTest, ExpiredDeadlineGetsTypedRejection) {
  // A paced engine wedges the single worker long enough that a
  // short-deadline request expires in the queue and is dropped at
  // batch formation with the typed wire status.
  serve::ServerOptions sopts;
  sopts.num_workers = 1;
  sopts.engine.backend = engine::Backend::kDevicePaced;
  sopts.engine.device_ns_per_token = 2'000'000;  // 2 ms/token
  Loopback lb({}, sopts);
  NetClient cli;
  cli.connect("127.0.0.1", lb.net->port());

  // 64 tokens x 2 ms = ~128 ms of device busy.
  std::vector<std::uint8_t> big(64 * lb.fix.pool.cols);
  for (std::size_t i = 0; i < big.size(); ++i)
    big[i] = lb.fix.codes_for(i % 8)[i % lb.fix.pool.cols];
  cli.send(make_request(1, big, 64));
  // Let the worker pick the big batch up before the doomed request
  // arrives (otherwise they could coalesce).
  std::this_thread::sleep_for(std::chrono::milliseconds(40));

  RpcRequest doomed = make_request(2, lb.fix.codes_for(2));
  doomed.deadline_ms = 5;  // expires ~80 ms before the worker frees up
  cli.send(doomed);

  std::map<std::uint64_t, std::uint8_t> status;
  for (int i = 0; i < 2; ++i) {
    RpcResponse resp;
    ASSERT_TRUE(cli.recv_response(&resp));
    status[resp.correlation_id] = resp.status;
  }
  EXPECT_EQ(status.at(1), kStatusOk);
  EXPECT_EQ(status.at(2), status_of(RejectReason::kDeadlineExpired));
  cli.close();
}

TEST(NetServerTest, ShutdownIsATypedWireRejection) {
  Loopback lb;
  NetClient cli;
  cli.connect("127.0.0.1", lb.net->port());
  lb.server->shutdown();  // drain the inference server under the net layer

  cli.send(make_request(9, lb.fix.codes_for(0)));
  RpcResponse resp;
  ASSERT_TRUE(cli.recv_response(&resp));
  EXPECT_EQ(resp.correlation_id, 9u);
  EXPECT_EQ(resp.status, status_of(RejectReason::kShutdown));
  cli.close();
}

TEST(NetServerTest, CorruptFrameClosesConnection) {
  Loopback lb;
  RawConn raw;
  raw.connect(lb.net->port());

  std::string frame = make_request(1, lb.fix.codes_for(0)).encode();
  frame[frame.size() - 1] ^= 0x40;  // break the payload CRC
  raw.send_bytes(frame);
  EXPECT_TRUE(raw.drain_to_eof()) << "server must hang up on bad CRC";

  // Wait for the close to be accounted, then check it was typed as a
  // protocol error and the server still serves new connections.
  for (int i = 0; i < 100 && lb.net->stats().protocol_errors == 0; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_EQ(lb.net->stats().protocol_errors, 1u);

  NetClient cli;
  cli.connect("127.0.0.1", lb.net->port());
  cli.send(make_request(2, lb.fix.codes_for(2)));
  RpcResponse resp;
  ASSERT_TRUE(cli.recv_response(&resp));
  EXPECT_EQ(resp.status, kStatusOk);
  cli.close();
}

TEST(NetServerTest, WellFramedGarbageAnsweredMalformedAndConnSurvives) {
  Loopback lb;
  RawConn raw;
  raw.connect(lb.net->port());

  wire::Writer w;
  maddness::write_framed_blob(w, "not an rpc message at all");
  raw.send_bytes(w.str());
  // The same socket then carries a valid request — the malformed
  // payload must not have poisoned the stream.
  raw.send_bytes(make_request(5, lb.fix.codes_for(5)).encode());

  // Read both responses through a bare decoder on the raw socket.
  FrameDecoder dec(1 << 20);
  std::map<std::uint64_t, std::uint8_t> status;
  std::string payload;
  for (int got = 0; got < 2; ++got) {
    ASSERT_EQ(raw.recv(dec, &payload), RecvStatus::kFrame);
    RpcResponse resp;
    ASSERT_TRUE(parse_response(payload, &resp));
    status[resp.correlation_id] = resp.status;
  }
  EXPECT_EQ(status.at(0), status_of(RejectReason::kMalformed));
  EXPECT_EQ(status.at(5), kStatusOk);
}

TEST(NetServerTest, BackpressurePausesReadsButLosesNothing) {
  NetServerOptions nopts;
  nopts.max_inflight_per_conn = 4;  // aggressive pause threshold
  Loopback lb(nopts);

  constexpr std::uint64_t kN = 64;
  NetClient cli;
  cli.connect("127.0.0.1", lb.net->port());

  // Sender and receiver threads pipeline hard against the tiny window.
  std::thread sender([&] {
    for (std::uint64_t i = 0; i < kN; ++i)
      cli.send(make_request(i, lb.fix.codes_for(i)));
  });
  std::map<std::uint64_t, RpcResponse> got;
  for (std::uint64_t i = 0; i < kN; ++i) {
    RpcResponse resp;
    ASSERT_TRUE(cli.recv_response(&resp));
    got[resp.correlation_id] = std::move(resp);
  }
  sender.join();
  ASSERT_EQ(got.size(), kN);
  for (std::uint64_t i = 0; i < kN; ++i) {
    ASSERT_EQ(got.at(i).status, kStatusOk);
    EXPECT_EQ(got.at(i).outputs,
              lb.fix.expected_for(lb.fix.codes_for(i), 1));
  }
  cli.close();
}

TEST(NetServerTest, ConcurrentConnectionsServeIndependently) {
  Loopback lb;
  constexpr int kConns = 4;
  constexpr std::uint64_t kPerConn = 16;
  std::vector<std::thread> clients;
  std::vector<std::string> errors(kConns);
  for (int t = 0; t < kConns; ++t) {
    clients.emplace_back([&, t] {
      try {
        NetClient cli;
        cli.connect("127.0.0.1", lb.net->port());
        for (std::uint64_t i = 0; i < kPerConn; ++i)
          cli.send(make_request(i, lb.fix.codes_for(i + 7 * t)));
        std::map<std::uint64_t, RpcResponse> got;
        for (std::uint64_t i = 0; i < kPerConn; ++i) {
          RpcResponse resp;
          if (!cli.recv_response(&resp))
            throw CheckError("early close");
          got[resp.correlation_id] = std::move(resp);
        }
        for (std::uint64_t i = 0; i < kPerConn; ++i) {
          if (got.at(i).status != kStatusOk)
            throw CheckError("non-ok status");
          if (got.at(i).outputs !=
              lb.fix.expected_for(lb.fix.codes_for(i + 7 * t), 1))
            throw CheckError("not bit-exact");
        }
        cli.close();
      } catch (const std::exception& e) {
        errors[static_cast<std::size_t>(t)] = e.what();
      }
    });
  }
  for (auto& th : clients) th.join();
  for (int t = 0; t < kConns; ++t)
    EXPECT_EQ(errors[static_cast<std::size_t>(t)], "") << "conn " << t;
}

TEST(NetServerTest, StopWithConnectedClientDoesNotHang) {
  ServeFixture fix = ServeFixture::make();
  serve::ServerOptions sopts;
  sopts.num_workers = 2;
  serve::InferenceServer server(sopts);
  server.register_model("m", fix.amm);
  auto net = std::make_unique<NetServer>(server, NetServerOptions{});

  NetClient cli;
  cli.connect("127.0.0.1", net->port());
  // One request in flight, then stop: the response must still arrive
  // (graceful drain), after which the server closes the connection.
  cli.send(make_request(3, fix.codes_for(3)));
  RpcResponse resp;
  ASSERT_TRUE(cli.recv_response(&resp));
  EXPECT_EQ(resp.status, kStatusOk);

  net->stop();  // idle client attached — must return promptly
  EXPECT_FALSE(cli.recv_response(&resp));  // clean EOF, not a hang
  cli.close();
  net.reset();
  server.shutdown();
}

}  // namespace
}  // namespace ssma::net
