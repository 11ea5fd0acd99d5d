// Replication tests: the kRepl* wire messages (round-trip + a golden
// on-the-wire fixture), the leader/follower streaming pair (byte-exact
// journal prefix, resume-from-high-water-mark handshake, lag
// watermarks per ack mode), seeded network chaos (drop / torn / dup /
// delay self-heal), typed StaleFollower / ReplicaNotReady rejections,
// in-process promotion across a hot-swap boundary, and NetClient's
// capped-backoff reconnect. The invariant under test everywhere: the
// follower journal is a byte-prefix of the leader's, so a promoted
// follower answers every replicated request bit-identically.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <future>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "engine/model_registry.hpp"
#include "maddness/framing.hpp"
#include "net/server.hpp"
#include "net/tcp.hpp"
#include "net/wire_protocol.hpp"
#include "serve/recovery/checkpoint.hpp"
#include "serve/recovery/fault_injector.hpp"
#include "serve/recovery/journal.hpp"
#include "serve/replication/replica_applier.hpp"
#include "serve/replication/replication.hpp"
#include "serve/server.hpp"
#include "serve_test_util.hpp"
#include "util/check.hpp"

namespace ssma::serve {
namespace {

using recovery::CheckpointManager;
using recovery::FaultInjector;
using recovery::FaultKind;
using recovery::FaultPlan;
using recovery::FaultSite;
using recovery::RequestJournal;
using replication::AckMode;
using replication::ApplierOptions;
using replication::ReplicaApplier;
using replication::ReplicationLog;
using replication::ReplicationOptions;

std::string slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  EXPECT_TRUE(is.is_open()) << path;
  std::ostringstream oss;
  oss << is.rdbuf();
  return oss.str();
}

std::uint32_t crc_of(const std::vector<std::int16_t>& out) {
  return maddness::crc32(out.data(), out.size() * sizeof(std::int16_t));
}

/// A port nothing listens on: bound once, then closed.
std::uint16_t unused_port() {
  std::uint16_t port = 0;
  ::close(net::tcp_listen("127.0.0.1", 0, 1, /*nonblocking=*/false, &port));
  return port;
}

// ------------------------------------------------- wire round-trips

std::vector<net::ReplMessage> canonical_messages(const std::string& rec) {
  net::ReplMessage hello;
  hello.type = net::MsgType::kReplHello;
  hello.arg = 42;   // follower durable seq
  hello.arg2 = 7;   // follower newest checkpoint version
  net::ReplMessage ckpt;
  ckpt.type = net::MsgType::kReplCheckpoint;
  ckpt.arg = 7;
  ckpt.bytes = "whole checkpoint files ship verbatim; any bytes do";
  net::ReplMessage record;
  record.type = net::MsgType::kReplRecord;
  record.arg = 43;  // journal seq
  record.bytes = rec;
  net::ReplMessage ack;
  ack.type = net::MsgType::kReplAck;
  ack.arg = 43;
  net::ReplMessage reject;
  reject.type = net::MsgType::kReplReject;
  reject.arg = static_cast<std::uint64_t>(RejectReason::kStaleFollower);
  reject.bytes = "resume seq 9 ahead of leader durable 3";
  return {hello, ckpt, record, ack, reject};
}

void expect_messages_equal(const net::ReplMessage& want,
                           const net::ReplMessage& got) {
  EXPECT_EQ(static_cast<int>(want.type), static_cast<int>(got.type));
  EXPECT_EQ(want.arg, got.arg);
  EXPECT_EQ(want.arg2, got.arg2);
  EXPECT_EQ(want.bytes, got.bytes);
}

TEST(ReplWire, EncodeParseRoundTripsEveryMessageType) {
  const auto msgs =
      canonical_messages(std::string("\x00\x01\xff raw", 7));
  for (const net::ReplMessage& m : msgs) {
    const std::string frame = m.encode();
    net::FrameDecoder dec(1u << 20);
    dec.feed(frame.data(), frame.size());
    std::string payload;
    ASSERT_EQ(dec.next(&payload), net::FrameDecoder::Result::kFrame);
    net::ReplMessage out;
    ASSERT_TRUE(net::parse_repl(payload, &out));
    expect_messages_equal(m, out);
    // A truncated payload is a parse failure, never a misparse.
    net::ReplMessage junk;
    EXPECT_FALSE(
        net::parse_repl(payload.substr(0, payload.size() - 1), &junk));
  }
}

TEST(ReplWire, ParseRejectsForeignPreludes) {
  // An infer request is not a replication message and vice versa: the
  // type ranges are disjoint, so a stream mix-up fails loudly.
  net::RpcRequest req;
  req.correlation_id = 9;
  req.model_ref = "m";
  req.rows = 1;
  req.codes = {1, 2, 3, 4};
  const std::string req_frame = req.encode();
  net::ReplMessage repl;
  EXPECT_FALSE(net::parse_repl(req_frame.substr(12), &repl));

  net::ReplMessage ack;
  ack.type = net::MsgType::kReplAck;
  ack.arg = 5;
  net::RpcRequest out;
  EXPECT_FALSE(net::parse_request(ack.encode().substr(12), &out));
}

// ------------------------------------------- golden wire fixture

// Guards the on-the-wire replication format against drift: a committed
// byte stream of one message of every type (the record carrying a real
// v2 journal record payload) must decode to exact field values and
// re-encode byte-identically. Regenerate (deliberate format bumps
// only) with --gtest_also_run_disabled_tests
// --gtest_filter='*RegenerateReplicationWireGolden*'
namespace wire_golden {

std::string path() {
  return std::string(SSMA_TEST_DATA_DIR) + "/replication_wire_golden.bin";
}

/// The canonical record payload: the sole record of a deterministic
/// journal — request 5 pinned m@2, one row of four codes.
std::string record_payload() {
  TmpDir dir("wiregold");
  const std::string p = dir.file("wire.jnl");
  {
    RequestJournal jnl(p);
    jnl.append_accepted(5, "m", 2, 1, {1, 2, 3, 4});
  }
  std::ifstream is(p, std::ios::binary);
  std::string magic(8, '\0');
  is.read(&magic[0], 8);
  return maddness::read_framed_blob(is);
}

}  // namespace wire_golden

TEST(ReplWire, GoldenWireFixtureIsStable) {
  const std::string bytes = slurp(wire_golden::path());
  const auto want = canonical_messages(wire_golden::record_payload());

  net::FrameDecoder dec(1u << 20);
  dec.feed(bytes.data(), bytes.size());
  std::string reencoded;
  std::size_t i = 0;
  std::string payload;
  while (dec.next(&payload) == net::FrameDecoder::Result::kFrame) {
    ASSERT_LT(i, want.size());
    net::ReplMessage got;
    ASSERT_TRUE(net::parse_repl(payload, &got)) << "frame " << i;
    expect_messages_equal(want[i], got);
    reencoded += got.encode();
    i++;
  }
  EXPECT_EQ(i, want.size());
  EXPECT_EQ(reencoded, bytes)
      << "replication wire re-encode changed bytes: format drift";

  // The embedded record payload is itself decodable — a follower can
  // interpret the streamed bytes without re-reading any file.
  recovery::ParsedRecord rec;
  ASSERT_TRUE(RequestJournal::parse_record(want[2].bytes, &rec));
  EXPECT_TRUE(rec.is_accepted);
  EXPECT_EQ(rec.accepted.id, 5u);
  EXPECT_EQ(rec.accepted.model, "m");
  EXPECT_EQ(rec.accepted.model_version, 2u);
  EXPECT_EQ(rec.accepted.rows, 1u);
  EXPECT_EQ(rec.accepted.codes, (std::vector<std::uint8_t>{1, 2, 3, 4}));
}

// Not a test: regenerates the golden fixture after a deliberate wire
// format bump.
TEST(ReplWire, DISABLED_RegenerateReplicationWireGolden) {
  std::ofstream os(wire_golden::path(), std::ios::binary);
  for (const auto& m : canonical_messages(wire_golden::record_payload())) {
    const std::string frame = m.encode();
    os.write(frame.data(), static_cast<std::streamsize>(frame.size()));
  }
}

// ------------------------------------------------ streaming pair

TEST(Replication, StreamKeepsFollowerJournalByteExactAndDrainsLag) {
  const std::uint64_t seed = test_seed();
  SCOPED_TRACE(seed_trace(seed));
  const ServeFixture f = ServeFixture::make();
  TmpDir dir("repl");
  CheckpointManager ckpts(dir.file("leader-ckpts"));
  RequestJournal journal(dir.file("leader.jnl"));
  ReplicationOptions ropts;  // async
  ReplicationLog repl(journal, &ckpts, ropts);

  ServerOptions opts;
  opts.num_workers = 2;
  opts.recovery.journal = &journal;
  opts.recovery.checkpoints = &ckpts;
  opts.recovery.replication = &repl;
  InferenceServer server(opts);
  server.register_model("m", f.amm);

  // With no follower, every durable record is unreplicated and the lag
  // gauges say so (records, bytes and age).
  auto warm = server.submit("m", f.codes_for(0), 1);
  EXPECT_EQ(warm.get().outputs, f.expected(0, 1));
  {
    const auto st = repl.stats();
    EXPECT_GE(st.leader_seq, 1u);
    EXPECT_EQ(st.replicated_seq, 0u);
    EXPECT_EQ(st.followers, 0u);
    EXPECT_EQ(st.lag_records, st.leader_seq);
    EXPECT_GT(st.lag_bytes, 0u);
    EXPECT_GT(st.lag_ns, 0.0);
  }

  ApplierOptions aopts;
  aopts.leader_port = repl.port();
  aopts.dir = dir.file("follower");
  aopts.server.num_workers = 2;
  ReplicaApplier applier(aopts);
  ASSERT_TRUE(repl.wait_follower(1, std::chrono::milliseconds(10000)));

  constexpr std::size_t kRequests = 24;
  std::vector<std::future<InferenceResult>> futs;
  for (std::size_t id = 1; id < kRequests; ++id)
    futs.push_back(server.submit("m", f.codes_for(id), 1));
  for (std::size_t i = 0; i < futs.size(); ++i)
    EXPECT_EQ(futs[i].get().outputs, f.expected((i + 1) % f.pool.rows, 1));
  server.shutdown();  // quiesce: the journal stops growing

  ASSERT_TRUE(applier.wait_caught_up(journal.durable_seq(),
                                     std::chrono::milliseconds(10000)));
  EXPECT_EQ(slurp(applier.journal_path()), slurp(journal.path()))
      << "follower journal is not a byte-copy of the leader's";

  // wait_caught_up() observes the *follower's* durable watermark; the
  // final kReplAck can still be in flight toward the leader, so give
  // the leader-side watermark a bounded moment to converge.
  const auto ack_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < ack_deadline) {
    const auto s = repl.stats();
    if (s.replicated_seq == s.leader_seq) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const auto st = repl.stats();
  EXPECT_EQ(st.replicated_seq, st.leader_seq);
  EXPECT_EQ(st.lag_records, 0u);
  EXPECT_EQ(st.lag_bytes, 0u);
  EXPECT_EQ(st.lag_ns, 0.0);
  EXPECT_EQ(st.followers, 1u);
  EXPECT_GE(st.checkpoints_shipped, 1u);
  // >= not ==: a slow ack can trip the idle resend, which re-offers
  // records and counts each re-offer as sent.
  EXPECT_GE(st.records_sent, st.leader_seq);

  const auto ast = applier.stats();
  EXPECT_TRUE(ast.connected);
  EXPECT_TRUE(ast.has_standby);
  EXPECT_GE(ast.checkpoints_received, 1u);
  EXPECT_EQ(ast.applied_records, kRequests);
  EXPECT_EQ(ast.completed_records, kRequests);
  EXPECT_EQ(ast.dup_records, 0u);
  EXPECT_GT(ast.apply_rate_hz, 0.0);

  // The leader's exposition carries the replication block.
  const std::string prom = server.render_prometheus();
  EXPECT_NE(prom.find("ssma_repl_role 1"), std::string::npos);
  EXPECT_NE(prom.find("ssma_repl_lag_records 0"), std::string::npos);
  EXPECT_NE(prom.find("ssma_repl_followers 1"), std::string::npos);
}

TEST(Replication, ReconnectResumesFromDurableHighWaterMark) {
  const std::uint64_t seed = test_seed();
  SCOPED_TRACE(seed_trace(seed));
  const ServeFixture f = ServeFixture::make();
  TmpDir dir("resume");
  CheckpointManager ckpts(dir.file("leader-ckpts"));
  RequestJournal journal(dir.file("leader.jnl"));
  ReplicationOptions ropts;
  ReplicationLog repl(journal, &ckpts, ropts);

  ServerOptions opts;
  opts.num_workers = 1;
  opts.recovery.journal = &journal;
  opts.recovery.checkpoints = &ckpts;
  opts.recovery.replication = &repl;
  InferenceServer server(opts);
  server.register_model("m", f.amm);

  ApplierOptions aopts;
  aopts.leader_port = repl.port();
  aopts.dir = dir.file("follower");
  aopts.server.num_workers = 1;

  const auto drain = [&](std::size_t first, std::size_t n) {
    std::vector<std::future<InferenceResult>> futs;
    for (std::size_t id = first; id < first + n; ++id)
      futs.push_back(server.submit("m", f.codes_for(id), 1));
    for (auto& fut : futs) fut.get();
  };

  drain(0, 8);
  {
    ReplicaApplier applier(aopts);
    ASSERT_TRUE(applier.wait_caught_up(journal.durable_seq(),
                                       std::chrono::milliseconds(10000)));
    EXPECT_EQ(applier.stats().dup_records, 0u);
    EXPECT_GE(applier.stats().checkpoints_received, 1u);
  }  // follower goes away mid-stream

  drain(8, 8);
  server.shutdown();

  // A new applier over the same dir handshakes with its durable seq:
  // the leader re-streams only the delta — no duplicates, no second
  // checkpoint ship (the follower's is already the newest).
  ReplicaApplier applier(aopts);
  ASSERT_TRUE(applier.wait_caught_up(journal.durable_seq(),
                                     std::chrono::milliseconds(10000)));
  EXPECT_EQ(slurp(applier.journal_path()), slurp(journal.path()));
  EXPECT_EQ(applier.stats().dup_records, 0u);
  EXPECT_EQ(applier.stats().checkpoints_received, 0u)
      << "resume handshake re-shipped a checkpoint the follower had";
}

TEST(Replication, SyncAckedWritesWaitForTheWatermark) {
  const std::uint64_t seed = test_seed();
  SCOPED_TRACE(seed_trace(seed));
  const ServeFixture f = ServeFixture::make();
  TmpDir dir("sync");
  CheckpointManager ckpts(dir.file("leader-ckpts"));
  RequestJournal journal(dir.file("leader.jnl"));
  ReplicationOptions ropts;
  ropts.ack_mode = AckMode::kSync;
  ropts.ack_timeout = std::chrono::milliseconds(10000);
  ReplicationLog repl(journal, &ckpts, ropts);

  ServerOptions opts;
  opts.num_workers = 2;
  opts.recovery.journal = &journal;
  opts.recovery.checkpoints = &ckpts;
  opts.recovery.replication = &repl;
  InferenceServer server(opts);
  server.register_model("m", f.amm);

  ApplierOptions aopts;
  aopts.leader_port = repl.port();
  aopts.dir = dir.file("follower");
  aopts.server.num_workers = 1;
  ReplicaApplier applier(aopts);
  ASSERT_TRUE(repl.wait_follower(1, std::chrono::milliseconds(10000)));

  constexpr std::size_t kRequests = 12;
  std::vector<std::future<InferenceResult>> futs;
  for (std::size_t id = 0; id < kRequests; ++id)
    futs.push_back(server.submit("m", f.codes_for(id), 1));
  for (auto& fut : futs) fut.get();

  // Every acknowledged response's accept record is replicated: at
  // least one record per request is past the watermark, and no wait
  // degraded.
  const auto st = repl.stats();
  EXPECT_GE(st.replicated_seq, kRequests);
  EXPECT_EQ(st.sync_degraded, 0u);
  server.shutdown();
}

TEST(Replication, AckWaitsDegradeToAsyncWithoutAFollower) {
  const ServeFixture f = ServeFixture::make();
  TmpDir dir("degrade");
  CheckpointManager ckpts(dir.file("leader-ckpts"));
  RequestJournal journal(dir.file("leader.jnl"));
  ReplicationOptions ropts;
  ropts.ack_mode = AckMode::kSync;
  ropts.ack_timeout = std::chrono::milliseconds(50);
  ReplicationLog repl(journal, &ckpts, ropts);

  ServerOptions opts;
  opts.num_workers = 1;
  opts.recovery.journal = &journal;
  opts.recovery.checkpoints = &ckpts;
  opts.recovery.replication = &repl;
  InferenceServer server(opts);
  server.register_model("m", f.amm);

  // No follower will ever ack: the serving path must stay live (bounded
  // degrade), not wedge.
  auto a = server.submit("m", f.codes_for(0), 1);
  auto b = server.submit("m", f.codes_for(1), 1);
  EXPECT_EQ(a.get().outputs, f.expected(0, 1));
  EXPECT_EQ(b.get().outputs, f.expected(1, 1));
  EXPECT_GE(repl.stats().sync_degraded, 1u);
  server.shutdown();
}

TEST(Replication, WindowModePassesInsideAndDegradesPastTheWindow) {
  const ServeFixture f = ServeFixture::make();
  TmpDir dir("window");
  CheckpointManager ckpts(dir.file("leader-ckpts"));
  RequestJournal journal(dir.file("leader.jnl"));
  ReplicationOptions ropts;
  ropts.ack_mode = AckMode::kWindow;
  ropts.window = 4;
  ropts.ack_timeout = std::chrono::milliseconds(50);
  ReplicationLog repl(journal, &ckpts, ropts);

  ServerOptions opts;
  opts.num_workers = 1;
  opts.batcher.max_batch_tokens = 1;
  opts.batcher.max_wait = std::chrono::microseconds(0);
  opts.recovery.journal = &journal;
  opts.recovery.checkpoints = &ckpts;
  opts.recovery.replication = &repl;
  InferenceServer server(opts);
  server.register_model("m", f.amm);

  // With no follower the watermark stays at 0: the first request (seq 1
  // <= window) acks without waiting; later ones exceed the window and
  // degrade after the bounded timeout.
  constexpr std::size_t kRequests = 8;
  std::vector<std::future<InferenceResult>> futs;
  for (std::size_t id = 0; id < kRequests; ++id)
    futs.push_back(server.submit("m", f.codes_for(id), 1));
  for (auto& fut : futs) fut.get();
  const auto st = repl.stats();
  EXPECT_GE(st.sync_degraded, 1u);
  EXPECT_LT(st.sync_degraded, kRequests)
      << "even in-window acks waited: the window bound is not applied";
  server.shutdown();
}

// ------------------------------------------------- network chaos

TEST(Replication, ChaosStreamSelfHealsByteExact) {
  const std::uint64_t seed = test_seed();
  SCOPED_TRACE(seed_trace(seed));
  const ServeFixture f = ServeFixture::make();
  TmpDir dir("chaos");
  FaultInjector fault(seed);
  // The four named network sites at fixed points, a follower-side
  // receive drop, plus seed-derived chaos on top — every fire point
  // reproduces from SSMA_TEST_SEED.
  fault.arm_named("repl_delay", 3);
  fault.arm_named("repl_send_drop", 6);
  fault.arm_named("repl_dup", 10);
  fault.arm_named("repl_recv_torn", 14);
  FaultPlan recv_drop;
  recv_drop.site = FaultSite::kReplRecv;
  recv_drop.kind = FaultKind::kDropMessage;
  recv_drop.fire_at = 9;
  fault.arm(recv_drop);
  fault.arm_network_chaos(4, 60);

  CheckpointManager ckpts(dir.file("leader-ckpts"));
  RequestJournal journal(dir.file("leader.jnl"));
  ReplicationOptions ropts;
  ropts.fault = &fault;
  ReplicationLog repl(journal, &ckpts, ropts);

  ServerOptions opts;
  opts.num_workers = 2;
  opts.recovery.journal = &journal;
  opts.recovery.checkpoints = &ckpts;
  opts.recovery.replication = &repl;
  InferenceServer server(opts);
  server.register_model("m", f.amm);

  ApplierOptions aopts;
  aopts.leader_port = repl.port();
  aopts.dir = dir.file("follower");
  aopts.server.num_workers = 1;
  aopts.fault = &fault;
  ReplicaApplier applier(aopts);

  constexpr std::size_t kRequests = 40;
  std::vector<std::future<InferenceResult>> futs;
  for (std::size_t id = 0; id < kRequests; ++id)
    futs.push_back(server.submit("m", f.codes_for(id), 1));
  for (std::size_t i = 0; i < futs.size(); ++i)
    EXPECT_EQ(futs[i].get().outputs, f.expected(i % f.pool.rows, 1));
  server.shutdown();

  // Dropped, torn, duplicated and delayed messages all self-heal
  // through the gap-detect + resume handshake: the follower converges
  // to an exact byte-copy of the leader's journal.
  ASSERT_TRUE(applier.wait_caught_up(journal.durable_seq(),
                                     std::chrono::milliseconds(20000)))
      << "chaos stream never converged; fired: "
      << ::testing::PrintToString(fault.fired_log());
  EXPECT_EQ(slurp(applier.journal_path()), slurp(journal.path()))
      << "journals diverged under chaos; fired: "
      << ::testing::PrintToString(fault.fired_log());

  EXPECT_GE(fault.fired(), 4u);
  const auto st = repl.stats();
  EXPECT_GE(st.dropped_sends + st.torn_sends + st.dup_sends, 2u);
  const auto ast = applier.stats();
  EXPECT_GE(ast.reconnects + ast.gap_reconnects + ast.dup_records +
                ast.recv_faults,
            1u);
}

TEST(Replication, IdleResendHealsADroppedFinalRecord) {
  const ServeFixture f = ServeFixture::make();
  TmpDir dir("idledrop");
  FaultInjector fault(1);

  CheckpointManager ckpts(dir.file("leader-ckpts"));
  RequestJournal journal(dir.file("leader.jnl"));
  ReplicationOptions ropts;
  ropts.fault = &fault;
  ropts.resend_after = std::chrono::milliseconds(50);
  ReplicationLog repl(journal, &ckpts, ropts);

  ServerOptions opts;
  opts.num_workers = 1;
  opts.recovery.journal = &journal;
  opts.recovery.checkpoints = &ckpts;
  opts.recovery.replication = &repl;
  InferenceServer server(opts);
  server.register_model("m", f.amm);

  ApplierOptions aopts;
  aopts.leader_port = repl.port();
  aopts.dir = dir.file("follower");
  aopts.server.num_workers = 1;
  ReplicaApplier applier(aopts);
  ASSERT_TRUE(repl.wait_follower(1, std::chrono::milliseconds(10000)));

  // Converge on a warm-up request so the send-poll count is stable.
  // Its completion record lands asynchronously after the future, so
  // wait for the leader journal itself to quiesce at 2 records
  // (accept + completed) before snapshotting the poll count.
  auto warm = server.submit("m", f.codes_for(0), 1);
  EXPECT_EQ(warm.get().outputs, f.expected(0, 1));
  const auto quiesce_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (journal.durable_seq() < 2 &&
         std::chrono::steady_clock::now() < quiesce_deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ASSERT_EQ(journal.durable_seq(), 2u);
  ASSERT_TRUE(applier.wait_caught_up(journal.durable_seq(),
                                     std::chrono::milliseconds(10000)));

  // Drop the send of the stream's LAST record — the final request's
  // completion record (poll +1 is its accept record) — then stop
  // traffic. No later record exists for the follower to gap-detect,
  // so only the idle resend can re-offer it.
  FaultPlan drop;
  drop.site = FaultSite::kReplSend;
  drop.kind = FaultKind::kDropMessage;
  drop.fire_at = fault.polls(FaultSite::kReplSend) + 2;
  fault.arm(drop);
  auto last = server.submit("m", f.codes_for(1), 1);
  EXPECT_EQ(last.get().outputs, f.expected(1, 1));
  server.shutdown();  // quiesce: the journal stops growing

  ASSERT_TRUE(applier.wait_caught_up(journal.durable_seq(),
                                     std::chrono::milliseconds(20000)))
      << "dropped final record was never re-offered; fired: "
      << ::testing::PrintToString(fault.fired_log());
  EXPECT_EQ(slurp(applier.journal_path()), slurp(journal.path()))
      << "follower journal is not a byte-copy of the leader's";
  const auto st = repl.stats();
  EXPECT_GE(st.dropped_sends, 1u);
  EXPECT_GE(st.idle_resends, 1u);
  // The record arrived in-stream and in-order: no gap was ever seen.
  EXPECT_EQ(applier.stats().gap_reconnects, 0u);
}

TEST(Replication, LagBookkeepingStaysBoundedWithoutAFollower) {
  const ServeFixture f = ServeFixture::make();
  TmpDir dir("pendingcap");
  CheckpointManager ckpts(dir.file("leader-ckpts"));
  RequestJournal journal(dir.file("leader.jnl"));
  ReplicationOptions ropts;  // async: acks never wait
  ReplicationLog repl(journal, &ckpts, ropts);

  ServerOptions opts;
  opts.num_workers = 1;
  opts.recovery.journal = &journal;
  opts.recovery.checkpoints = &ckpts;
  opts.recovery.replication = &repl;
  InferenceServer server(opts);
  server.register_model("m", f.amm);

  // A leader whose follower is down (or never configured to connect)
  // must not grow a lag-bookkeeping entry per request for the process
  // lifetime; the oldest entry survives so lag_ns keeps measuring.
  constexpr std::size_t kRequests = 32;
  std::vector<std::future<InferenceResult>> futs;
  for (std::size_t id = 0; id < kRequests; ++id)
    futs.push_back(server.submit("m", f.codes_for(id), 1));
  for (std::size_t i = 0; i < futs.size(); ++i)
    EXPECT_EQ(futs[i].get().outputs, f.expected(i % f.pool.rows, 1));
  server.shutdown();

  const auto st = repl.stats();
  EXPECT_GE(st.lag_records, kRequests);  // accept + completed each
  EXPECT_LE(st.pending_entries, 2u);
  EXPECT_GT(st.lag_ns, 0.0);
}

// -------------------------------------------- typed rejections

TEST(Replication, StaleFollowerGetsTypedRejection) {
  TmpDir dir("stale");
  // A follower whose journal holds history this leader never wrote:
  // resuming it would require the leader to invent records, so the
  // handshake must refuse with the typed reason, not a silent close.
  const std::string follower_dir = dir.file("follower");
  std::filesystem::create_directories(follower_dir);
  {
    RequestJournal fj(follower_dir + "/journal.ssj");
    fj.append_accepted(0, 1, {1, 2, 3, 4});
    fj.append_accepted(1, 1, {5, 6, 7, 8});
    fj.append_completed(0, 0, 0xBEEF);
  }

  CheckpointManager ckpts(dir.file("leader-ckpts"));
  RequestJournal journal(dir.file("leader.jnl"));  // empty: seq 0
  ReplicationOptions ropts;
  ReplicationLog repl(journal, &ckpts, ropts);

  ApplierOptions aopts;
  aopts.leader_port = repl.port();
  aopts.dir = follower_dir;
  aopts.server.num_workers = 1;
  ReplicaApplier applier(aopts);

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!applier.stats().rejected &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  const auto ast = applier.stats();
  ASSERT_TRUE(ast.rejected) << "leader never rejected the stale follower";
  EXPECT_EQ(ast.reject_reason, RejectReason::kStaleFollower);
  EXPECT_GE(repl.stats().rejected_followers, 1u);

  try {
    applier.promote();
    FAIL() << "promoting a rejected follower must throw";
  } catch (const RejectedError& e) {
    EXPECT_EQ(e.reason(), RejectReason::kStaleFollower);
  }
}

TEST(Replication, ShipsNewestValidCheckpointAndFollowerKeepsThree) {
  const ServeFixture f = ServeFixture::make();
  TmpDir dir("ship");
  FaultInjector fault(test_seed());
  CheckpointManager ckpts(dir.file("leader-ckpts"), &fault);
  recovery::CheckpointState st;
  st.registry_blob = default_registry(f.amm)->save_string();
  ASSERT_EQ(ckpts.write(st), 1u);
  // The newest version is torn: the leader must ship version 1 instead,
  // not re-offer the torn file on every reconnect.
  FaultPlan torn;
  torn.site = FaultSite::kCheckpointWrite;
  torn.kind = FaultKind::kTornCheckpoint;
  torn.fire_at = fault.polls(FaultSite::kCheckpointWrite) + 1;
  fault.arm(torn);
  ASSERT_EQ(ckpts.write(st), 2u);

  RequestJournal journal(dir.file("leader.jnl"));
  ReplicationLog repl(journal, &ckpts, ReplicationOptions{});
  ApplierOptions aopts;
  aopts.leader_port = repl.port();
  aopts.dir = dir.file("follower");
  aopts.server.num_workers = 1;
  ReplicaApplier applier(aopts);
  ASSERT_TRUE(applier.wait_standby(std::chrono::seconds(10)));
  const auto follower_file = [&](std::uint64_t v) {
    char name[32];
    std::snprintf(name, sizeof(name), "/checkpoint-%06llu.ssck",
                  static_cast<unsigned long long>(v));
    return applier.checkpoint_dir() + name;
  };
  EXPECT_EQ(slurp(follower_file(1)), slurp(ckpts.path_of(1)));
  EXPECT_FALSE(std::filesystem::exists(follower_file(2)));

  // Each later version reaches the follower, which keeps the newest
  // three exactly as the leader does.
  for (std::uint64_t v = 3; v <= 7; ++v) {
    ASSERT_EQ(ckpts.write(st), v);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!std::filesystem::exists(follower_file(v)) &&
           std::chrono::steady_clock::now() < deadline)
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    ASSERT_TRUE(std::filesystem::exists(follower_file(v))) << v;
  }
  EXPECT_EQ(recovery::CheckpointManager(applier.checkpoint_dir()).versions(),
            (std::vector<std::uint64_t>{5, 6, 7}));
  EXPECT_EQ(ckpts.versions(), (std::vector<std::uint64_t>{5, 6, 7}));
  EXPECT_EQ(applier.stats().checkpoints_received, 6u);
  EXPECT_EQ(applier.stats().reconnects, 0u);
}

TEST(Replication, PromoteBeforeFirstCheckpointIsTypedNotReady) {
  const std::uint16_t dead_port = unused_port();

  TmpDir dir("notready");
  ApplierOptions aopts;
  aopts.leader_port = dead_port;
  aopts.dir = dir.file("follower");
  aopts.server.num_workers = 1;
  aopts.backoff_base = std::chrono::milliseconds(5);
  aopts.backoff_cap = std::chrono::milliseconds(20);
  ReplicaApplier applier(aopts);

  // The applier never connects, so `reconnects` stays 0 by definition;
  // the retry loop is visible through the dial counter instead.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (applier.stats().connect_attempts < 3 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_GE(applier.stats().connect_attempts, 3u)
      << "applier is not retrying with backoff";
  EXPECT_EQ(applier.stats().reconnects, 0u);
  EXPECT_FALSE(applier.stats().connected);
  EXPECT_FALSE(applier.stats().has_standby);

  try {
    applier.promote();
    FAIL() << "promoting an empty standby must throw";
  } catch (const RejectedError& e) {
    EXPECT_EQ(e.reason(), RejectReason::kReplicaNotReady);
  }
}

// --------------------------------------- in-process promotion

// The full pair, in one process: a sync-acked leader hot-swaps mid
// stream, the follower is promoted after the leader stops, and the
// promoted server (a) carries the identical name@version map, (b)
// holds a completion CRC for every acknowledged request equal to the
// leader's, and (c) serves both banks bit-identically to the leader's
// reference — the zero-RPO contract, in-process edition (the
// cross-process kill matrix lives in test_recovery.cpp).
TEST(Replication, PromotionServesByteIdenticalResultsAcrossHotSwap) {
  const std::uint64_t seed = test_seed();
  SCOPED_TRACE(seed_trace(seed));
  const ServeFixture old_fx = ServeFixture::make(4, 8, 64, 7);
  const ServeFixture new_fx = ServeFixture::make(4, 8, 64, 99);
  const auto expected_on = [&](const maddness::Amm& amm,
                               const std::vector<std::uint8_t>& codes) {
    maddness::QuantizedActivations q;
    q.rows = 1;
    q.cols = old_fx.pool.cols;
    q.scale = old_fx.pool.scale;
    q.codes = codes;
    return amm.apply_int16(q);
  };

  TmpDir dir("promote");
  CheckpointManager ckpts(dir.file("leader-ckpts"));
  RequestJournal journal(dir.file("leader.jnl"));
  ReplicationOptions ropts;
  ropts.ack_mode = AckMode::kSync;
  ropts.ack_timeout = std::chrono::milliseconds(10000);
  ReplicationLog repl(journal, &ckpts, ropts);

  ServerOptions opts;
  opts.num_workers = 2;
  opts.recovery.journal = &journal;
  opts.recovery.checkpoints = &ckpts;
  opts.recovery.replication = &repl;
  InferenceServer server(opts);
  server.register_model("alpha", old_fx.amm);

  ApplierOptions aopts;
  aopts.leader_port = repl.port();
  aopts.dir = dir.file("follower");
  aopts.server.num_workers = 2;
  aopts.checkpoint_every = 8;
  ReplicaApplier applier(aopts);
  ASSERT_TRUE(repl.wait_follower(1, std::chrono::milliseconds(10000)));

  constexpr std::size_t kPerPhase = 10;
  struct Served {
    std::uint64_t id;
    std::uint64_t version;
    std::vector<std::uint8_t> codes;
    std::vector<std::int16_t> outputs;
  };
  std::vector<Served> served;
  const auto run_phase = [&](std::uint64_t want_version) {
    std::vector<std::pair<std::vector<std::uint8_t>,
                          std::future<InferenceResult>>> futs;
    for (std::size_t i = 0; i < kPerPhase; ++i) {
      auto codes = old_fx.codes_for(i);
      auto fut = server.submit("alpha", codes, 1);
      futs.emplace_back(std::move(codes), std::move(fut));
    }
    for (auto& [codes, fut] : futs) {
      InferenceResult res = fut.get();
      EXPECT_EQ(res.model_version, want_version);
      served.push_back(
          {res.request_id, res.model_version, codes, res.outputs});
    }
  };
  run_phase(1);
  EXPECT_EQ(server.register_model("alpha", new_fx.amm), 2u);
  run_phase(2);

  server.shutdown();
  ASSERT_TRUE(applier.wait_caught_up(journal.durable_seq(),
                                     std::chrono::milliseconds(10000)));
  repl.stop();

  replication::PromotionReport rep;
  auto promoted = applier.promote(&rep);
  ASSERT_NE(promoted, nullptr);
  EXPECT_EQ(rep.crc_mismatches, 0u);
  EXPECT_EQ(rep.replay_failures, 0u);
  EXPECT_EQ(rep.applied, 2 * kPerPhase);
  EXPECT_EQ(rep.completed_backfilled, 0u)
      << "a fully replicated stream needs no completion backfill";
  EXPECT_GT(rep.seal_to_serving_ms, 0.0);

  // The registry replicated exactly — including the hot-swap map.
  EXPECT_EQ(promoted->registry().names(),
            (std::vector<std::string>{"alpha"}));
  EXPECT_EQ(promoted->registry().versions("alpha"),
            (std::vector<std::uint64_t>{1, 2}));
  EXPECT_EQ(promoted->registry().latest_version("alpha"), 2u);

  // Both journals hold the same completion CRC for every acknowledged
  // request, and it is the CRC of the exact bytes the leader returned.
  const auto leader_replay = RequestJournal::read(journal.path());
  const auto follower_replay =
      RequestJournal::read(applier.journal_path());
  ASSERT_EQ(served.size(), 2 * kPerPhase);
  for (const Served& s : served) {
    const maddness::Amm& bank = s.version == 2 ? new_fx.amm : old_fx.amm;
    EXPECT_EQ(s.outputs, expected_on(bank, s.codes));
    const std::uint32_t want = crc_of(s.outputs);
    ASSERT_NE(leader_replay.completed_crc.find(s.id),
              leader_replay.completed_crc.end());
    EXPECT_EQ(leader_replay.completed_crc.at(s.id), want);
    ASSERT_NE(follower_replay.completed_crc.find(s.id),
              follower_replay.completed_crc.end());
    EXPECT_EQ(follower_replay.completed_crc.at(s.id), want)
        << "promoted follower diverged on acked request " << s.id;
  }

  // The promoted server serves both banks bit-identically and hands
  // out ids past the dead leader's watermark.
  auto on_old = promoted->submit("alpha@1", old_fx.codes_for(3), 1);
  auto on_new = promoted->submit("alpha@2", old_fx.codes_for(3), 1);
  const InferenceResult r1 = on_old.get();
  const InferenceResult r2 = on_new.get();
  EXPECT_EQ(r1.outputs, expected_on(old_fx.amm, old_fx.codes_for(3)));
  EXPECT_EQ(r2.outputs, expected_on(new_fx.amm, old_fx.codes_for(3)));
  EXPECT_GE(r1.request_id, 2 * kPerPhase);
  promoted->shutdown();

  // Promotion state is visible in the exposition.
  const std::string prom = promoted->render_prometheus();
  EXPECT_NE(prom.find("ssma_repl_role 2"), std::string::npos);
  EXPECT_NE(prom.find("ssma_repl_applied_records 20"), std::string::npos);
}

// ------------------------------------------- NetClient hardening

TEST(NetClientRetry, BacksOffUntilTheListenerAppears) {
  const std::uint64_t seed = test_seed();
  SCOPED_TRACE(seed_trace(seed));
  // Bind without listening: connects are refused until the "server"
  // comes up, which is exactly what a restarting leader looks like.
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  const std::uint16_t port = ntohs(addr.sin_port);

  std::thread late_listen([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    ::listen(fd, 8);
  });
  net::NetClient client;
  EXPECT_NO_THROW(client.connect_with_retry(
      "127.0.0.1", port, /*max_attempts=*/100,
      std::chrono::milliseconds(5), std::chrono::milliseconds(40), seed));
  EXPECT_FALSE(client.broken());
  late_listen.join();
  client.close();
  ::close(fd);
}

TEST(NetClientRetry, ExhaustedAttemptsThrowTheConnectError) {
  const std::uint16_t dead_port = unused_port();

  net::NetClient client;
  EXPECT_THROW(client.connect_with_retry(
                   "127.0.0.1", dead_port, /*max_attempts=*/3,
                   std::chrono::milliseconds(1),
                   std::chrono::milliseconds(4), test_seed()),
               CheckError);
}

}  // namespace
}  // namespace ssma::serve
