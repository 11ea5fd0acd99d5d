// Leader side of the distributed-HA pair: journal streaming replication
// plus checkpoint shipping.
//
// A ReplicationLog sits next to a leader InferenceServer's
// RequestJournal and tails it — the journal file itself is the
// replication buffer, so there is no second in-memory log to keep
// consistent. Followers connect over the library's standard CRC-framed
// wire protocol (net/wire_protocol.hpp, kRepl* messages), handshake
// with their durable high-water mark, receive the newest checkpoint if
// theirs is older, and then receive every journal record from their
// resume point on, byte-exact. The follower's journal file is thereby
// a byte-prefix of the leader's at all times, which is what makes
// promotion zero-RPO: replaying it on the deterministic kernel
// reproduces the leader's acknowledged outputs to the bit.
//
// Acked-write semantics — the durability contract clients buy:
//
//   kAsync   submit() acks as soon as the record is locally durable;
//            replication trails best-effort (bounded, measured loss on
//            leader death).
//   kWindow  acks may run at most `window` records ahead of the
//            replication watermark.
//   kSync    every ack waits until the record itself is replicated.
//
// The worker ack path calls wait_acked() to enforce this. A watermark
// wait that exceeds `ack_timeout` degrades to async for that record
// (counted in stats().sync_degraded) rather than wedging the serving
// path on a dead follower — availability over durability, explicitly
// measured.
//
// Checkpoint-before-records invariant: the server checkpoints a model
// version durably before any request can pin it (stage -> checkpoint ->
// publish -> checkpoint), so the newest checkpoint at any record's
// journal time contains every model that record can reference. The
// sender ships the newest valid checkpoint before streaming records
// past it, which is therefore sufficient for the follower to replay
// everything — including across hot-swap boundaries.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "serve/recovery/checkpoint.hpp"
#include "serve/recovery/fault_injector.hpp"
#include "serve/recovery/journal.hpp"

namespace ssma::serve::replication {

enum class AckMode : std::uint8_t {
  kAsync = 0,
  kWindow = 1,
  kSync = 2,
};
const char* to_string(AckMode mode);

struct ReplicationOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0 = ephemeral; read back via port()
  AckMode ack_mode = AckMode::kAsync;
  /// kWindow: max acked-but-unreplicated records before acks stall.
  std::uint64_t window = 64;
  /// Watermark wait bound before an ack degrades to async (liveness
  /// under follower death; counted in stats().sync_degraded).
  std::chrono::milliseconds ack_timeout{2000};
  /// Idle heartbeat-resend: when the stream has been quiet this long
  /// with sent-but-unacked records outstanding, re-offer them from the
  /// follower's ack mark. Heals a dropped last record that no follow-up
  /// traffic would ever gap-detect.
  std::chrono::milliseconds resend_after{250};
  std::size_t max_frame_bytes = 256u << 20;
  /// Polled at kReplSend before every outbound message. Borrowed.
  recovery::FaultInjector* fault = nullptr;
};

/// Point-in-time replication telemetry; all counters are lifetime.
struct ReplicationStats {
  std::uint64_t leader_seq = 0;       ///< newest locally durable record
  std::uint64_t replicated_seq = 0;   ///< watermark: max follower ack
  std::size_t followers = 0;          ///< handshaken live connections
  std::uint64_t records_sent = 0;
  std::uint64_t bytes_sent = 0;       ///< record + checkpoint payloads
  std::uint64_t checkpoints_shipped = 0;
  std::uint64_t rejected_followers = 0;  ///< kStaleFollower handshakes
  std::uint64_t sync_degraded = 0;    ///< ack waits that timed out
  std::uint64_t dropped_sends = 0;    ///< injected kDropMessage fires
  std::uint64_t torn_sends = 0;       ///< injected kTornMessage fires
  std::uint64_t dup_sends = 0;        ///< injected kDupMessage fires
  std::uint64_t idle_resends = 0;     ///< quiet-stream rewind re-offers
  std::uint64_t lag_records = 0;      ///< leader_seq - replicated_seq
  std::uint64_t lag_bytes = 0;        ///< journal bytes past watermark
  /// Age of the oldest unreplicated record (0 when fully caught up).
  double lag_ns = 0.0;
  /// Lag-gauge bookkeeping entries currently held (bounded; see
  /// ReplicationLog::pending_).
  std::size_t pending_entries = 0;
};

/// Leader-side replication endpoint. Construction binds the listener
/// and installs itself as the journal's commit hook; destruction (or
/// stop()) tears both down. One instance per journal.
class ReplicationLog {
 public:
  ReplicationLog(recovery::RequestJournal& journal,
                 recovery::CheckpointManager* checkpoints,
                 const ReplicationOptions& opts);
  ~ReplicationLog();

  ReplicationLog(const ReplicationLog&) = delete;
  ReplicationLog& operator=(const ReplicationLog&) = delete;

  /// Bound port (resolves an ephemeral request).
  std::uint16_t port() const { return port_; }

  /// Blocks until `n` followers have completed the handshake (true) or
  /// `timeout` elapses (false). Test/bench synchronization helper.
  bool wait_follower(std::size_t n, std::chrono::milliseconds timeout);

  /// Enforces the ack mode for the record at `seq`: returns once the
  /// watermark permits acknowledging it. Returns false when the wait
  /// degraded to async on timeout (sync_degraded incremented). kAsync
  /// returns true immediately.
  bool wait_acked(std::uint64_t seq);

  /// The slowest handshaken follower's durable ack mark — the journal
  /// compaction bound: records at or below it are replicated
  /// everywhere, so pruning them can never strand a connected
  /// follower's resume point. With no handshaken follower, the
  /// historical watermark (replicated_seq) is returned.
  std::uint64_t min_follower_ack() const;

  ReplicationStats stats() const;

  /// Seals the stream: stops accepting, closes every follower
  /// connection, joins all threads and drains any in-flight
  /// wait_acked()/wait_follower() callers (they return once stopping
  /// is observed, so destruction cannot race a waiter). Idempotent;
  /// the destructor calls it.
  void stop();

 private:
  struct Follower {
    int fd = -1;
    std::uint64_t acked_seq = 0;
    std::uint64_t shipped_ckpt = 0;  ///< newest checkpoint version sent
    bool ready = false;              ///< handshake complete
    bool done = false;               ///< session threads finished
    std::thread session;             ///< handshake + sender loop
    std::thread reader;              ///< ack drain
  };

  void on_commit(std::uint64_t seq, std::uint64_t bytes);
  void accept_main();
  void session_main(Follower* f);
  void reader_main(Follower* f);
  /// Ships the newest valid checkpoint newer than f->shipped_ckpt.
  /// Returns false when the connection broke.
  bool ship_checkpoints(Follower* f);
  /// Sends one encoded frame, applying any armed kReplSend fault.
  /// Returns false when the connection is (or was made) unusable.
  bool faulted_send(Follower* f, const std::string& frame,
                    bool* advanced);

  recovery::RequestJournal& journal_;
  recovery::CheckpointManager* checkpoints_;
  ReplicationOptions opts_;

  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::thread accept_thread_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool stopping_ = false;
  std::uint64_t leader_seq_ = 0;
  std::uint64_t leader_bytes_ = 0;
  std::uint64_t replicated_seq_ = 0;
  std::uint64_t replicated_bytes_ = 0;
  /// (seq, file bytes after it, append time) of records not yet past
  /// the watermark — feeds the bytes/ns lag gauges only, so it is kept
  /// bounded: with no handshaken follower only the oldest entry is
  /// retained, and a deeply lagged follower gets thinned interior
  /// entries (gauges coarsen, memory stays O(kMaxPending)).
  struct Pending {
    std::uint64_t seq;
    std::uint64_t bytes;
    std::chrono::steady_clock::time_point at;
  };
  static constexpr std::size_t kMaxPending = 8192;
  std::deque<Pending> pending_;
  /// Threads currently blocked in wait_acked()/wait_follower(); stop()
  /// drains them before returning so destruction cannot race a waiter
  /// still inside cv_.wait_for on mu_/cv_.
  std::size_t waiters_ = 0;
  std::list<std::unique_ptr<Follower>> followers_;

  // Lifetime counters (under mu_).
  std::uint64_t records_sent_ = 0;
  std::uint64_t bytes_sent_ = 0;
  std::uint64_t checkpoints_shipped_ = 0;
  std::uint64_t rejected_followers_ = 0;
  std::uint64_t sync_degraded_ = 0;
  std::uint64_t dropped_sends_ = 0;
  std::uint64_t torn_sends_ = 0;
  std::uint64_t dup_sends_ = 0;
  std::uint64_t idle_resends_ = 0;
};

}  // namespace ssma::serve::replication
