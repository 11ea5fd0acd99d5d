#include "serve/replication/replica_applier.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "maddness/framing.hpp"
#include "net/wire_protocol.hpp"
#include "serve/recovery/recovery.hpp"
#include "serve/replication/socket_util.hpp"
#include "telemetry/telemetry.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/wire.hpp"

namespace ssma::serve::replication {

using net::FrameDecoder;
using net::MsgType;
using net::ReplMessage;

namespace {

bool recv_frame(int fd, FrameDecoder& dec, std::string* payload) {
  for (;;) {
    switch (dec.next(payload)) {
      case FrameDecoder::Result::kFrame:
        return true;
      case FrameDecoder::Result::kBad:
        return false;
      case FrameDecoder::Result::kNeedMore:
        break;
    }
    char buf[4096];
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    dec.feed(buf, static_cast<std::size_t>(n));
  }
}

}  // namespace

ReplicaApplier::ReplicaApplier(const ApplierOptions& opts) : opts_(opts) {
  SSMA_CHECK_MSG(!opts_.dir.empty(), "replication: applier dir required");
  std::filesystem::create_directories(opts_.dir);
  journal_path_ = opts_.dir + "/journal.ssj";
  ckpt_dir_ = opts_.dir + "/checkpoints";
  journal_ = std::make_unique<recovery::RequestJournal>(journal_path_);
  // Path/versions helper only; never written through, so its version
  // counter (fixed at construction, before any checkpoint arrives) is
  // irrelevant. The promoted server gets a fresh manager.
  ckpt_paths_ = std::make_unique<recovery::CheckpointManager>(ckpt_dir_);
  thread_ = std::thread([this] { run(); });
}

ReplicaApplier::~ReplicaApplier() { stop(); }

std::uint64_t ReplicaApplier::newest_local_checkpoint() const {
  const auto versions = ckpt_paths_->versions();
  for (auto it = versions.rbegin(); it != versions.rend(); ++it) {
    try {
      (void)recovery::CheckpointManager::load_file(ckpt_paths_->path_of(*it));
      return *it;
    } catch (const std::exception&) {
      continue;  // torn — an older version may still validate
    }
  }
  return 0;
}

void ReplicaApplier::build_standby() {
  recovery::CheckpointManager cm(ckpt_dir_);
  auto rs = recovery::recover_state(cm, journal_path_);
  if (!rs.has_checkpoint()) return;
  ServerOptions sopts = opts_.server;
  // The standby must not journal or checkpoint on its own: the applier
  // owns the follower's stores and the records in them are the
  // leader's. Promotion wires them in.
  sopts.recovery = RecoveryOptions{};
  auto standby = InferenceServer::restore(rs, sopts);
  auto futs = standby->replay(rs.journal.unacknowledged);
  std::lock_guard<std::mutex> lk(mu_);
  for (std::size_t i = 0; i < futs.size(); ++i)
    replay_futures_.emplace_back(rs.journal.unacknowledged[i].id,
                                 std::move(futs[i]));
  for (const auto& [id, crc] : rs.journal.completed_crc) {
    leader_crc_[id] = crc;
    completed_ids_.insert(id);
  }
  applied_records_ += rs.journal.unacknowledged.size();
  completed_records_ += rs.journal.completed_crc.size();
  max_applied_id_ = std::max(max_applied_id_, rs.journal.max_id);
  ckpt_next_request_id_ = std::max(ckpt_next_request_id_, rs.next_request_id);
  ckpt_version_ = std::max(ckpt_version_, rs.checkpoint_version);
  standby_ = std::move(standby);
  cv_.notify_all();
}

bool ReplicaApplier::handle_checkpoint(const ReplMessage& m) {
  const std::string path = ckpt_paths_->path_of(m.arg);
  const std::string tmp = path + ".tmp";
  {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    os.write(m.bytes.data(),
             static_cast<std::streamsize>(m.bytes.size()));
    os.flush();
    if (!os) {
      std::remove(tmp.c_str());
      return false;
    }
  }
  recovery::CheckpointState st;
  try {
    st = recovery::CheckpointManager::load_file(tmp);
  } catch (const std::exception&) {
    // The frame CRC passed but the checkpoint payload does not
    // validate: treat as a torn stream and resync.
    std::remove(tmp.c_str());
    return false;
  }
  std::filesystem::rename(tmp, path);

  if (!standby_) {
    build_standby();
  } else if (!st.registry_blob.empty()) {
    // Incremental registry application: already-installed versions are
    // skipped (live pins untouched), the stream's latest pointers are
    // honored exactly — the hot-swap-aware half of promotion fidelity.
    std::istringstream is(st.registry_blob);
    standby_->registry().merge(is);
  }
  std::lock_guard<std::mutex> lk(mu_);
  ++checkpoints_received_;
  ckpt_version_ = std::max(ckpt_version_, m.arg);
  ckpt_next_request_id_ =
      std::max(ckpt_next_request_id_, st.next_request_id);
  return true;
}

bool ReplicaApplier::handle_record(const ReplMessage& m, int fd) {
  int acks = 1;
  if (opts_.fault) {
    const auto action = opts_.fault->poll(recovery::FaultSite::kReplRecv);
    switch (action.kind) {
      case recovery::FaultKind::kDelay:
        std::this_thread::sleep_for(action.delay);
        break;
      case recovery::FaultKind::kDropMessage: {
        // Received but "lost" before persistence: no ack, no append.
        // The next record is a sequence gap, forcing a resync that
        // re-streams this one.
        std::lock_guard<std::mutex> lk(mu_);
        ++recv_faults_;
        return true;
      }
      case recovery::FaultKind::kTornMessage: {
        std::lock_guard<std::mutex> lk(mu_);
        ++recv_faults_;
        return false;
      }
      case recovery::FaultKind::kDupMessage:
        acks = 2;  // duplicate ack; the leader's watermark is monotonic
        {
          std::lock_guard<std::mutex> lk(mu_);
          ++recv_faults_;
        }
        break;
      default:
        break;
    }
  }

  const std::uint64_t durable = journal_->durable_seq();
  if (m.arg <= durable) {
    // Duplicate delivery (leader-side kDupMessage or a resend race):
    // already durable, so just re-ack the high-water mark.
    {
      std::lock_guard<std::mutex> lk(mu_);
      ++dup_records_;
    }
    ReplMessage ack;
    ack.type = MsgType::kReplAck;
    ack.arg = durable;
    const std::string frame = ack.encode();
    return send_all(fd, frame.data(), frame.size());
  }
  if (m.arg != durable + 1) {
    // Sequence gap (a drop upstream): resync from our true mark.
    std::lock_guard<std::mutex> lk(mu_);
    ++gap_reconnects_;
    return false;
  }

  const std::uint64_t seq = journal_->append_raw(m.bytes);
  SSMA_CHECK_MSG(seq == m.arg,
                 "replication: follower journal diverged from stream");

  recovery::ParsedRecord pr;
  if (recovery::RequestJournal::parse_record(m.bytes, &pr)) {
    if (pr.is_accepted) {
      if (standby_) {
        SSMA_TRACE_SPAN_IDS(kReplApply, pr.accepted.id, pr.accepted.id);
        auto futs = standby_->replay({pr.accepted});
        std::lock_guard<std::mutex> lk(mu_);
        replay_futures_.emplace_back(pr.accepted.id, std::move(futs[0]));
        ++applied_records_;
        max_applied_id_ = std::max(max_applied_id_, pr.accepted.id);
        const auto now = std::chrono::steady_clock::now();
        if (first_apply_at_.time_since_epoch().count() == 0)
          first_apply_at_ = now;
        last_apply_at_ = now;
      }
    } else {
      std::lock_guard<std::mutex> lk(mu_);
      leader_crc_[pr.completed_id] = pr.completed_crc;
      completed_ids_.insert(pr.completed_id);
      ++completed_records_;
    }
  }
  cv_.notify_all();

  ReplMessage ack;
  ack.type = MsgType::kReplAck;
  ack.arg = seq;
  const std::string frame = ack.encode();
  for (int i = 0; i < acks; ++i)
    if (!send_all(fd, frame.data(), frame.size())) return false;
  return true;
}

void ReplicaApplier::session(int fd) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    fd_ = fd;
    connected_ = true;
  }
  ReplMessage hello;
  hello.type = MsgType::kReplHello;
  hello.arg = journal_->durable_seq();
  hello.arg2 = ckpt_version_;
  {
    // Durable byte offset: our journal is a byte-prefix of the
    // leader's, so this lets the leader seek straight to our resume
    // point instead of re-scanning `arg` frames on every reconnect.
    wire::Writer hb(8);
    hb.put_u64(journal_->durable_bytes());
    hello.bytes = hb.take();
  }
  const std::string frame = hello.encode();
  if (send_all(fd, frame.data(), frame.size())) {
    FrameDecoder dec(opts_.max_frame_bytes);
    std::string payload;
    ReplMessage m;
    while (recv_frame(fd, dec, &payload)) {
      if (!net::parse_repl(payload, &m)) break;
      if (m.type == MsgType::kReplReject) {
        std::lock_guard<std::mutex> lk(mu_);
        rejected_ = true;
        reject_reason_ = static_cast<RejectReason>(m.arg);
        reject_detail_ = m.bytes;
        stopping_ = true;  // the leader says we diverged; retrying won't help
        cv_.notify_all();
        break;
      }
      if (m.type == MsgType::kReplCheckpoint) {
        if (!handle_checkpoint(m)) break;
      } else if (m.type == MsgType::kReplRecord) {
        if (!handle_record(m, fd)) break;
      } else if (m.type == MsgType::kReplBase) {
        // Compacted leader, fresh follower: adopt the compaction base
        // so our file is byte-identical to the leader's compacted
        // header, then ack it as our durable mark. adopt_base throws if
        // we already hold records — the leader only sends this to a
        // follower that handshook with seq 0.
        journal_->adopt_base(m.arg, m.arg2);
        ReplMessage ack;
        ack.type = MsgType::kReplAck;
        ack.arg = m.arg;
        const std::string af = ack.encode();
        if (!send_all(fd, af.data(), af.size())) break;
      } else {
        break;
      }
    }
  }
  std::lock_guard<std::mutex> lk(mu_);
  ::close(fd);
  fd_ = -1;
  connected_ = false;
}

void ReplicaApplier::run() {
  // Follower-restart resume: adopt whatever checkpoints + journal this
  // dir already holds before asking the leader for the delta.
  build_standby();
  {
    std::lock_guard<std::mutex> lk(mu_);
    ckpt_version_ = std::max(ckpt_version_, newest_local_checkpoint());
  }

  Rng rng(opts_.backoff_seed);
  std::uint64_t attempt = 0;
  bool ever_connected = false;
  for (;;) {
    {
      std::unique_lock<std::mutex> lk(mu_);
      if (stopping_) return;
      ++connect_attempts_;
    }
    const int fd = tcp_connect(opts_.leader_host, opts_.leader_port);
    if (fd >= 0) {
      attempt = 0;
      {
        std::lock_guard<std::mutex> lk(mu_);
        if (stopping_) {
          ::close(fd);
          return;
        }
        if (ever_connected) ++reconnects_;
      }
      ever_connected = true;
      session(fd);
      continue;
    }
    // Capped exponential backoff with deterministic seeded jitter.
    const std::uint64_t base =
        static_cast<std::uint64_t>(opts_.backoff_base.count());
    const std::uint64_t cap =
        static_cast<std::uint64_t>(opts_.backoff_cap.count());
    const std::uint64_t shift = std::min<std::uint64_t>(attempt, 20);
    std::uint64_t delay = std::min(cap, base << shift);
    delay += rng.next_below(delay / 2 + 1);
    ++attempt;
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait_for(lk, std::chrono::milliseconds(delay),
                 [&] { return stopping_; });
  }
}

bool ReplicaApplier::wait_caught_up(std::uint64_t seq,
                                    std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  std::unique_lock<std::mutex> lk(mu_);
  return cv_.wait_until(lk, deadline, [&] {
    return stopping_ || journal_->durable_seq() >= seq;
  }) && journal_->durable_seq() >= seq;
}

bool ReplicaApplier::wait_standby(std::chrono::milliseconds timeout) {
  std::unique_lock<std::mutex> lk(mu_);
  return cv_.wait_for(lk, timeout,
                      [&] { return stopping_ || standby_ != nullptr; }) &&
         standby_ != nullptr;
}

ApplierStats ReplicaApplier::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  ApplierStats s;
  s.connected = connected_;
  s.has_standby = standby_ != nullptr;
  s.connect_attempts = connect_attempts_;
  s.reconnects = reconnects_;
  s.durable_seq = journal_->durable_seq();
  s.checkpoints_received = checkpoints_received_;
  s.applied_records = applied_records_;
  s.completed_records = completed_records_;
  s.dup_records = dup_records_;
  s.gap_reconnects = gap_reconnects_;
  s.recv_faults = recv_faults_;
  s.rejected = rejected_;
  s.reject_reason = reject_reason_;
  if (applied_records_ > 0 &&
      last_apply_at_ > first_apply_at_) {
    const double secs = std::chrono::duration<double>(last_apply_at_ -
                                                      first_apply_at_)
                            .count();
    if (secs > 0)
      s.apply_rate_hz = static_cast<double>(applied_records_ - 1) / secs;
  }
  return s;
}

void ReplicaApplier::stop() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stopping_ = true;
    if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
    cv_.notify_all();
  }
  if (thread_.joinable()) thread_.join();
}

std::unique_ptr<InferenceServer> ReplicaApplier::promote(
    PromotionReport* report) {
  const auto t0 = std::chrono::steady_clock::now();
  SSMA_TRACE_SPAN(kPromotion);
  stop();  // seal the stream: nothing mutates state past this point
  SSMA_CHECK_MSG(!promoted_, "replication: promote() called twice");
  if (rejected_)
    throw RejectedError(reject_reason_,
                        "replication: leader rejected this follower: " +
                            reject_detail_);
  if (!standby_)
    throw RejectedError(RejectReason::kReplicaNotReady,
                        "replication: no checkpoint received — cannot "
                        "promote an empty standby");
  promoted_ = true;

  PromotionReport rep;
  rep.durable_seq = journal_->durable_seq();
  // Finish the replay and audit: every applied request's output CRC
  // must match the leader's replicated completion record where one
  // exists; requests the leader never acknowledged get their
  // completion records written here — the zero-RPO backfill.
  for (auto& [id, fut] : replay_futures_) {
    try {
      const InferenceResult r = fut.get();
      const std::uint32_t crc = maddness::crc32(
          r.outputs.data(), r.outputs.size() * sizeof(std::int16_t));
      const auto it = leader_crc_.find(id);
      if (it != leader_crc_.end() && it->second != crc)
        ++rep.crc_mismatches;
      if (!completed_ids_.count(id)) {
        journal_->append_completed(id, /*worker_id=*/-1, crc);
        completed_ids_.insert(id);
        ++rep.completed_backfilled;
      }
      ++rep.applied;
    } catch (const std::exception&) {
      ++rep.replay_failures;
    }
  }
  replay_futures_.clear();

  // The promoted leader must never reuse a request id the old leader
  // handed out.
  standby_->ensure_id_watermark(
      std::max(max_applied_id_ + 1, ckpt_next_request_id_));
  // Fresh manager so its version counter adopts every shipped file —
  // the promoted server's own checkpoints continue the leader's
  // numbering instead of colliding with it.
  promoted_ckpts_ =
      std::make_unique<recovery::CheckpointManager>(ckpt_dir_);
  standby_->attach_recovery(journal_.get(), promoted_ckpts_.get(),
                            opts_.checkpoint_every);
  rep.seal_to_serving_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t0)
          .count();
  standby_->note_promotion(rep.applied, stats().apply_rate_hz);
  if (report) *report = rep;
  return std::move(standby_);
}

}  // namespace ssma::serve::replication
