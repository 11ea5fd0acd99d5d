// Follower side of the distributed-HA pair: a warm standby that
// continuously applies the leader's replication stream and can be
// promoted into a serving InferenceServer with zero RPO.
//
// The applier connects to a ReplicationLog, handshakes with its own
// durable high-water mark (so a follower restart resumes exactly where
// its journal left off), and then:
//
//   - persists every shipped checkpoint file into its own checkpoint
//     directory (atomic tmp + rename, leader-byte-exact);
//   - appends every streamed journal record verbatim, keeping the
//     follower journal a byte-prefix of the leader's;
//   - replays each accepted record into a warm standby server built
//     from the first checkpoint, so promotion-time work is bounded by
//     in-flight requests, not journal length. Later checkpoints merge
//     into the standby's registry (live pins untouched), which is how
//     a promoted follower resolves "@latest" exactly as the leader
//     would — including across hot-swap boundaries;
//   - acks each record's sequence number, advancing the leader's
//     replication watermark (what sync/window acked-writes wait on).
//
// Duplicate records (seq <= durable) are acked and skipped; a sequence
// gap or torn stream tears the connection down and the reconnect
// handshake resumes from the follower's true high-water mark — the
// stream self-heals under drops, tears and duplication, which the
// chaos tests drive via the kReplSend/kReplRecv fault sites.
//
// promote() seals the stream, finishes the replay, audits replayed
// output CRCs against the leader's replicated completion records,
// backfills completion records for everything the leader never got to
// acknowledge, and attaches the follower's journal + checkpoint store
// to the standby — which is returned as a fully serving, fully
// protected leader. The applier (which owns that journal and store)
// must outlive the promoted server.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "serve/recovery/checkpoint.hpp"
#include "serve/recovery/fault_injector.hpp"
#include "serve/recovery/journal.hpp"
#include "serve/server.hpp"

namespace ssma::net {
struct ReplMessage;
}

namespace ssma::serve::replication {

struct ApplierOptions {
  std::string leader_host = "127.0.0.1";
  std::uint16_t leader_port = 0;
  /// Follower state root: journal.ssj + checkpoints/ live here.
  std::string dir;
  /// Standby construction options. `server.recovery` is ignored — the
  /// applier owns the follower's journal and checkpoint store and
  /// wires them in at promotion.
  ServerOptions server;
  /// Checkpoint cadence handed to the promoted server.
  std::size_t checkpoint_every = 0;
  /// Reconnect backoff: capped exponential with deterministic seeded
  /// jitter (so chaos runs reproduce from SSMA_TEST_SEED).
  std::chrono::milliseconds backoff_base{10};
  std::chrono::milliseconds backoff_cap{1000};
  std::uint64_t backoff_seed = 0x5eedfa57;
  std::size_t max_frame_bytes = 256u << 20;
  /// Polled at kReplRecv as each record arrives. Borrowed.
  recovery::FaultInjector* fault = nullptr;
};

struct ApplierStats {
  bool connected = false;
  bool has_standby = false;
  std::uint64_t connect_attempts = 0;  ///< dials, successful or not
  std::uint64_t reconnects = 0;      ///< connects after the first one
  std::uint64_t durable_seq = 0;     ///< follower journal high-water mark
  std::uint64_t checkpoints_received = 0;
  std::uint64_t applied_records = 0;    ///< accepted records replayed
  std::uint64_t completed_records = 0;  ///< leader completion CRCs seen
  std::uint64_t dup_records = 0;
  std::uint64_t gap_reconnects = 0;
  std::uint64_t recv_faults = 0;  ///< injected kReplRecv fires
  bool rejected = false;          ///< leader sent kReplReject
  RejectReason reject_reason = RejectReason::kShutdown;
  /// Accepted records applied per second since the first apply.
  double apply_rate_hz = 0.0;
};

/// What promote() did, for runbooks and the failover bench.
struct PromotionReport {
  std::uint64_t durable_seq = 0;  ///< records durable at promotion
  std::uint64_t applied = 0;      ///< accepted records with outputs
  /// Completion records written for requests the leader accepted but
  /// whose acks never replicated — the zero-RPO backfill.
  std::uint64_t completed_backfilled = 0;
  /// Replayed outputs whose CRC disagrees with the leader's replicated
  /// completion record. Always 0 on a healthy deterministic pair.
  std::uint64_t crc_mismatches = 0;
  std::uint64_t replay_failures = 0;  ///< futures that threw (bug/retire)
  double seal_to_serving_ms = 0.0;
};

class ReplicaApplier {
 public:
  /// Creates `dir` layout, opens (or resumes) the follower journal and
  /// starts the streaming thread.
  explicit ReplicaApplier(const ApplierOptions& opts);
  ~ReplicaApplier();

  ReplicaApplier(const ReplicaApplier&) = delete;
  ReplicaApplier& operator=(const ReplicaApplier&) = delete;

  std::string journal_path() const { return journal_path_; }
  std::string checkpoint_dir() const { return ckpt_dir_; }

  /// Blocks until the follower journal covers `seq` (true) or timeout.
  bool wait_caught_up(std::uint64_t seq, std::chrono::milliseconds timeout);
  /// Blocks until the warm standby exists (first checkpoint applied).
  bool wait_standby(std::chrono::milliseconds timeout);

  ApplierStats stats() const;

  /// Seals the stream (idempotent): disconnects and joins the thread.
  void stop();

  /// Seals the stream and turns the standby into a serving leader:
  /// drains the replay futures, audits CRCs, backfills completion
  /// records, attaches this follower's journal + checkpoint store and
  /// returns the server. Throws RejectedError(kReplicaNotReady) when no
  /// checkpoint ever arrived, RejectedError(kStaleFollower) when the
  /// leader rejected the handshake. Call at most once.
  std::unique_ptr<InferenceServer> promote(PromotionReport* report = nullptr);

 private:
  void run();
  /// One connected session: handshake + apply loop. Returns when the
  /// connection dies or stop() is called.
  void session(int fd);
  bool handle_checkpoint(const net::ReplMessage& m);
  /// Returns false when the session must be torn down (gap/tear).
  bool handle_record(const net::ReplMessage& m, int fd);
  void build_standby();

  ApplierOptions opts_;
  std::string journal_path_;
  std::string ckpt_dir_;
  std::unique_ptr<recovery::RequestJournal> journal_;
  /// Installs shipped files (never written through); the promoted
  /// server gets a fresh manager so its version counter adopts them.
  std::unique_ptr<recovery::CheckpointManager> shipped_ckpts_;
  std::unique_ptr<recovery::CheckpointManager> promoted_ckpts_;

  std::thread thread_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool stopping_ = false;
  bool promoted_ = false;
  int fd_ = -1;

  std::unique_ptr<InferenceServer> standby_;
  /// Replay futures not yet drained, in apply order.
  std::vector<std::pair<std::uint64_t, std::future<InferenceResult>>>
      replay_futures_;
  /// id -> CRC from the leader's replicated completion records.
  std::unordered_map<std::uint64_t, std::uint32_t> leader_crc_;
  /// ids with a completion record in the follower journal.
  std::unordered_set<std::uint64_t> completed_ids_;
  std::uint64_t max_applied_id_ = 0;
  std::uint64_t ckpt_next_request_id_ = 0;
  std::uint64_t ckpt_version_ = 0;  ///< newest applied checkpoint

  bool connected_ = false;
  std::uint64_t connect_attempts_ = 0;
  std::uint64_t reconnects_ = 0;
  std::uint64_t checkpoints_received_ = 0;
  std::uint64_t applied_records_ = 0;
  std::uint64_t completed_records_ = 0;
  std::uint64_t dup_records_ = 0;
  std::uint64_t gap_reconnects_ = 0;
  std::uint64_t recv_faults_ = 0;
  bool rejected_ = false;
  RejectReason reject_reason_ = RejectReason::kShutdown;
  std::string reject_detail_;
  std::chrono::steady_clock::time_point first_apply_at_{};
  std::chrono::steady_clock::time_point last_apply_at_{};
};

}  // namespace ssma::serve::replication
