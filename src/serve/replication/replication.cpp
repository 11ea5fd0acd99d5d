#include "serve/replication/replication.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <fstream>
#include <utility>

#include "maddness/framing.hpp"
#include "net/tcp.hpp"
#include "net/wire_protocol.hpp"
#include "serve/request_queue.hpp"
#include "telemetry/telemetry.hpp"
#include "util/check.hpp"
#include "util/wire.hpp"

namespace ssma::serve::replication {

using net::FrameDecoder;
using net::MsgType;
using net::ReplMessage;
using net::send_all;

const char* to_string(AckMode mode) {
  switch (mode) {
    case AckMode::kAsync:
      return "async";
    case AckMode::kWindow:
      return "window";
    case AckMode::kSync:
      return "sync";
  }
  return "?";
}

namespace {

/// Tails a journal file by VIRTUAL byte offset (the stable addressing
/// that survives compaction): translates to a physical seek through the
/// journal's CompactionInfo and reopens the stream whenever compaction
/// rewrites the file (generation bump).
class JournalTailer {
 public:
  explicit JournalTailer(recovery::RequestJournal& journal)
      : journal_(journal), info_(journal.compaction_info()) {
    is_.open(journal_.path(), std::ios::binary);
  }

  const recovery::RequestJournal::CompactionInfo& info() const {
    return info_;
  }

  /// Reads the frame at virtual offset `*vpos`; advances *vpos past it
  /// on success. False on a not-yet-visible frame or an offset behind
  /// the compaction horizon.
  bool read_at(std::uint64_t* vpos, std::string* payload) {
    const auto now = journal_.compaction_info();
    if (now.generation != info_.generation) {
      info_ = now;
      is_.close();
      is_.open(journal_.path(), std::ios::binary);
    }
    if (*vpos < info_.base_bytes) return false;
    const std::uint64_t phys =
        *vpos - info_.base_bytes + info_.header_bytes;
    is_.clear();
    is_.seekg(static_cast<std::streamoff>(phys));
    if (!is_ || !maddness::try_read_framed_blob(is_, payload))
      return false;
    *vpos += 12 + payload->size();  // u64 len + u32 crc + payload
    return true;
  }

 private:
  recovery::RequestJournal& journal_;
  recovery::RequestJournal::CompactionInfo info_;
  std::ifstream is_;
};

}  // namespace

ReplicationLog::ReplicationLog(recovery::RequestJournal& journal,
                               recovery::CheckpointManager* checkpoints,
                               const ReplicationOptions& opts)
    : journal_(journal), checkpoints_(checkpoints), opts_(opts) {
  leader_seq_ = journal_.durable_seq();
  leader_bytes_ = journal_.durable_bytes();
  // Pre-existing records are untracked for byte/age lag (no append
  // timestamps exist for them); the record-count lag still covers them.
  replicated_bytes_ = leader_bytes_;

  listen_fd_ = net::tcp_listen(opts_.host, opts_.port, /*backlog=*/8,
                              /*nonblocking=*/false, &port_);

  journal_.set_commit_hook([this](std::uint64_t seq, std::uint64_t bytes) {
    on_commit(seq, bytes);
  });
  accept_thread_ = std::thread([this] { accept_main(); });
}

ReplicationLog::~ReplicationLog() { stop(); }

void ReplicationLog::on_commit(std::uint64_t seq, std::uint64_t bytes) {
  std::lock_guard<std::mutex> lk(mu_);
  leader_seq_ = seq;
  leader_bytes_ = bytes;
  // pending_ only feeds the lag gauges; never let it grow one entry
  // per request for the process lifetime when nothing is draining it.
  bool any_ready = false;
  for (const auto& f : followers_)
    if (f->ready) {
      any_ready = true;
      break;
    }
  if (!any_ready && pending_.size() > 1) {
    // No handshaken follower to advance the watermark: keep only the
    // oldest entry (the lag_ns anchor) until one connects.
    pending_.erase(pending_.begin() + 1, pending_.end());
  } else if (pending_.size() >= kMaxPending) {
    // Follower connected but deeply lagged: drop every other interior
    // entry. The byte/ns gauges coarsen; memory stays bounded.
    std::deque<Pending> thinned;
    for (std::size_t i = 0; i < pending_.size(); ++i)
      if (i == 0 || i + 1 == pending_.size() || i % 2 == 0)
        thinned.push_back(pending_[i]);
    pending_.swap(thinned);
  }
  pending_.push_back({seq, bytes, std::chrono::steady_clock::now()});
  cv_.notify_all();
}

void ReplicationLog::accept_main() {
  for (;;) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listener shut down
    }
    // TCP_NODELAY is inherited from the listener.
    std::lock_guard<std::mutex> lk(mu_);
    if (stopping_) {
      ::close(fd);
      return;
    }
    followers_.emplace_back(std::make_unique<Follower>());
    Follower* f = followers_.back().get();
    f->fd = fd;
    f->session = std::thread([this, f] { session_main(f); });
  }
}

bool ReplicationLog::faulted_send(Follower* f, const std::string& frame,
                                  bool* sent) {
  SSMA_TRACE_SPAN(kReplSend);
  *sent = false;
  int dup = 1;
  if (opts_.fault) {
    const auto action = opts_.fault->poll(recovery::FaultSite::kReplSend);
    switch (action.kind) {
      case recovery::FaultKind::kDelay:
        std::this_thread::sleep_for(action.delay);
        break;
      case recovery::FaultKind::kDropMessage: {
        // Silently not delivered: the stream position advances, and the
        // drop heals either when the follower detects the sequence gap
        // on the next record and reconnects with its real high-water
        // mark, or — if traffic stops — when the idle resend rewinds to
        // the follower's ack mark and re-offers it.
        std::lock_guard<std::mutex> lk(mu_);
        ++dropped_sends_;
        *sent = true;
        return true;
      }
      case recovery::FaultKind::kTornMessage: {
        // Half a frame, then cut: the follower's decoder sees a torn
        // stream and reconnects.
        (void)send_all(f->fd, frame.data(), frame.size() / 2);
        ::shutdown(f->fd, SHUT_RDWR);
        std::lock_guard<std::mutex> lk(mu_);
        ++torn_sends_;
        return false;
      }
      case recovery::FaultKind::kDupMessage: {
        dup = 2;
        std::lock_guard<std::mutex> lk(mu_);
        ++dup_sends_;
        break;
      }
      default:
        break;
    }
  }
  for (int i = 0; i < dup; ++i) {
    if (!send_all(f->fd, frame)) return false;
    std::lock_guard<std::mutex> lk(mu_);
    bytes_sent_ += frame.size();
  }
  *sent = true;
  return true;
}

bool ReplicationLog::ship_checkpoints(Follower* f) {
  if (!checkpoints_) return true;
  const std::vector<std::uint64_t> versions = checkpoints_->versions();
  // Newest first. A version that does not validate — torn (e.g. the
  // injected kTornCheckpoint) or pruned since the listing — yields to
  // the one before it.
  for (auto it = versions.rbegin();
       it != versions.rend() && *it > f->shipped_ckpt; ++it) {
    const std::string path = checkpoints_->path_of(*it);
    std::ifstream is(path, std::ios::binary);
    ReplMessage m;
    m.type = MsgType::kReplCheckpoint;
    m.arg = *it;
    m.bytes = wire::read_all(is);
    try {
      (void)recovery::CheckpointManager::decode(m.bytes, path);
    } catch (const std::exception&) {
      continue;
    }
    bool sent = false;
    // A dropped checkpoint cannot be gap-detected from sequence numbers
    // the way records are, so treat drop like a torn stream: cut the
    // connection and let the reconnect handshake re-ship it.
    if (!faulted_send(f, m.encode(), &sent) || !sent) {
      ::shutdown(f->fd, SHUT_RDWR);
      return false;
    }
    f->shipped_ckpt = *it;
    std::lock_guard<std::mutex> lk(mu_);
    ++checkpoints_shipped_;
    return true;
  }
  return true;
}

void ReplicationLog::session_main(Follower* f) {
  FrameDecoder dec(opts_.max_frame_bytes);
  std::string payload;
  ReplMessage hello;
  bool ok =
      net::recv_frame(f->fd, dec, &payload) == net::RecvStatus::kFrame &&
      net::parse_repl(payload, &hello) &&
      hello.type == MsgType::kReplHello;
  // Refuses a follower whose prefix this leader cannot serve
  // byte-exact, loudly rather than rewinding it.
  const auto reject_stale = [&](const std::string& why) {
    ReplMessage rej;
    rej.type = MsgType::kReplReject;
    rej.arg = static_cast<std::uint64_t>(RejectReason::kStaleFollower);
    rej.bytes = "follower seq " + std::to_string(hello.arg) + why;
    (void)send_all(f->fd, rej.encode());
    std::lock_guard<std::mutex> lk(mu_);
    ++rejected_followers_;
    ok = false;
  };
  // The follower claims records this leader never wrote: it has
  // diverged (e.g. promoted, or paired with a different leader).
  if (ok && hello.arg > journal_.durable_seq())
    reject_stale(" ahead of leader seq " +
                 std::to_string(journal_.durable_seq()));
  JournalTailer tail(journal_);
  // The follower's resume point was pruned by compaction while it was
  // disconnected (compaction only waits for CONNECTED followers' acks).
  if (ok && hello.arg > 0 && hello.arg < tail.info().base_seq)
    reject_stale(" behind compaction horizon " +
                 std::to_string(tail.info().base_seq));

  std::uint64_t next_seq = hello.arg + 1;
  std::uint64_t pos = 8;  // VIRTUAL offset past the journal magic
  if (ok) {
    f->shipped_ckpt = hello.arg2;
    if (!ship_checkpoints(f)) ok = false;
  }
  if (ok && hello.arg == 0 && tail.info().base_seq > 0) {
    // Fresh follower joining a compacted leader: its journal cannot be
    // a byte-prefix of ours (the prefix is gone), so ship the
    // compaction base first. The follower adopts it (adopt_base) and
    // its file becomes byte-identical to our compacted header; records
    // then stream from the first surviving one.
    ReplMessage base;
    base.type = MsgType::kReplBase;
    base.arg = tail.info().base_seq;
    base.arg2 = tail.info().base_bytes;
    bool sent = false;
    if (!faulted_send(f, base.encode(), &sent) || !sent) {
      ::shutdown(f->fd, SHUT_RDWR);
      ok = false;
    } else {
      next_seq = tail.info().base_seq + 1;
      pos = tail.info().base_bytes;
    }
  } else if (ok) {
    // Resume point: the follower's journal is a byte-prefix of ours,
    // so the durable VIRTUAL byte offset it reports in the hello IS
    // the offset of its next frame — seek there directly instead of
    // re-scanning hello.arg frames (O(journal) per reconnect adds up
    // to O(journal^2) under reconnect churn). An empty/implausible
    // offset falls back to the sequential skip.
    std::uint64_t follower_bytes = 0;
    if (hello.bytes.size() == 8) wire::Cursor(hello.bytes).u64(&follower_bytes);
    if (follower_bytes >= tail.info().base_bytes &&
        follower_bytes <= journal_.durable_bytes() &&
        (hello.arg > 0 || follower_bytes == 8)) {
      pos = follower_bytes;
    } else {
      // Skip the frames the follower already has, starting from the
      // first surviving record.
      pos = tail.info().base_bytes;
      for (std::uint64_t i = tail.info().base_seq;
           ok && i < hello.arg; ++i)
        ok = tail.read_at(&pos, &payload);
    }
  }
  if (ok) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      f->ready = true;
      f->acked_seq = hello.arg;
      replicated_seq_ = std::max(replicated_seq_, hello.arg);
      cv_.notify_all();
    }
    f->reader = std::thread([this, f] { reader_main(f); });

    // Sent-but-unacked frames (seq -> file offset of the frame). A
    // dropped send is normally healed by the follower spotting the
    // sequence gap on the NEXT record; when traffic stops there is no
    // next record, so after `resend_after` of quiet the sender rewinds
    // to the follower's ack mark and re-offers (the follower re-acks
    // duplicates idempotently).
    std::deque<std::pair<std::uint64_t, std::uint64_t>> unacked;
    constexpr std::size_t kMaxUnackedTracked = 65536;
    auto last_activity = std::chrono::steady_clock::now();

    bool broken = false;
    while (!broken) {
      std::uint64_t target;
      std::uint64_t acked;
      {
        std::unique_lock<std::mutex> lk(mu_);
        // The timeout doubles as the checkpoint-discovery poll: model
        // registrations checkpoint without journaling a record.
        cv_.wait_for(lk, std::chrono::milliseconds(50), [&] {
          return stopping_ || leader_seq_ >= next_seq;
        });
        if (stopping_) break;
        target = leader_seq_;
        acked = f->acked_seq;
      }
      while (!unacked.empty() && unacked.front().first <= acked) {
        unacked.pop_front();
        last_activity = std::chrono::steady_clock::now();
      }
      if (!ship_checkpoints(f)) break;
      if (next_seq > target && !unacked.empty() &&
          std::chrono::steady_clock::now() - last_activity >
              opts_.resend_after) {
        if (unacked.front().first != acked + 1) {
          // The rewind point aged out of the tracked window (cap hit):
          // resync through the reconnect handshake instead.
          break;
        }
        next_seq = unacked.front().first;
        pos = unacked.front().second;
        unacked.clear();
        last_activity = std::chrono::steady_clock::now();
        std::lock_guard<std::mutex> lk(mu_);
        ++idle_resends_;
      }
      while (next_seq <= target && !broken) {
        // The record is durable (leader_seq_ covers it), so the frame
        // is fully on disk; retry briefly against fs visibility jitter.
        const std::uint64_t frame_pos = pos;
        bool have = false;
        for (int attempt = 0; attempt < 100 && !have; ++attempt) {
          have = tail.read_at(&pos, &payload);
          if (!have)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        if (!have) {
          broken = true;
          break;
        }
        ReplMessage rec;
        rec.type = MsgType::kReplRecord;
        rec.arg = next_seq;
        rec.bytes = payload;
        bool sent = false;
        if (!faulted_send(f, rec.encode(), &sent)) {
          broken = true;
          break;
        }
        if (unacked.size() == kMaxUnackedTracked) unacked.pop_front();
        unacked.emplace_back(next_seq, frame_pos);
        last_activity = std::chrono::steady_clock::now();
        ++next_seq;
        std::lock_guard<std::mutex> lk(mu_);
        ++records_sent_;
      }
    }
  }

  ::shutdown(f->fd, SHUT_RDWR);
  if (f->reader.joinable()) f->reader.join();
  std::lock_guard<std::mutex> lk(mu_);
  ::close(f->fd);
  f->fd = -1;
  f->ready = false;
  f->done = true;
  cv_.notify_all();
}

void ReplicationLog::reader_main(Follower* f) {
  FrameDecoder dec(opts_.max_frame_bytes);
  std::string payload;
  ReplMessage m;
  while (net::recv_frame(f->fd, dec, &payload) == net::RecvStatus::kFrame) {
    if (!net::parse_repl(payload, &m) || m.type != MsgType::kReplAck)
      break;
    std::lock_guard<std::mutex> lk(mu_);
    f->acked_seq = std::max(f->acked_seq, m.arg);
    if (f->acked_seq > replicated_seq_) {
      replicated_seq_ = f->acked_seq;
      while (!pending_.empty() && pending_.front().seq <= replicated_seq_) {
        replicated_bytes_ = pending_.front().bytes;
        pending_.pop_front();
      }
      cv_.notify_all();
    }
  }
  // Wake the sender so a half-dead connection (peer gone, sends still
  // buffering) is torn down promptly.
  ::shutdown(f->fd, SHUT_RDWR);
}

bool ReplicationLog::wait_follower(std::size_t n,
                                   std::chrono::milliseconds timeout) {
  std::unique_lock<std::mutex> lk(mu_);
  const auto ready_count = [&] {
    std::size_t ready = 0;
    for (const auto& f : followers_)
      if (f->ready) ++ready;
    return ready;
  };
  ++waiters_;
  (void)cv_.wait_for(lk, timeout,
                     [&] { return stopping_ || ready_count() >= n; });
  if (--waiters_ == 0) cv_.notify_all();
  return ready_count() >= n;
}

std::uint64_t ReplicationLog::min_follower_ack() const {
  std::lock_guard<std::mutex> lk(mu_);
  bool any = false;
  std::uint64_t min_ack = ~std::uint64_t{0};
  for (const auto& f : followers_) {
    if (!f->ready) continue;
    any = true;
    min_ack = std::min(min_ack, f->acked_seq);
  }
  return any ? min_ack : replicated_seq_;
}

bool ReplicationLog::wait_acked(std::uint64_t seq) {
  if (opts_.ack_mode == AckMode::kAsync) return true;
  const std::uint64_t target =
      opts_.ack_mode == AckMode::kSync
          ? seq
          : (seq > opts_.window ? seq - opts_.window : 0);
  if (target == 0) return true;
  std::unique_lock<std::mutex> lk(mu_);
  ++waiters_;
  const bool ok = cv_.wait_for(lk, opts_.ack_timeout, [&] {
    return stopping_ || replicated_seq_ >= target;
  });
  if (--waiters_ == 0) cv_.notify_all();
  if (!ok) ++sync_degraded_;
  return ok;
}

ReplicationStats ReplicationLog::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  ReplicationStats s;
  s.leader_seq = leader_seq_;
  s.replicated_seq = replicated_seq_;
  for (const auto& f : followers_)
    if (f->ready) ++s.followers;
  s.records_sent = records_sent_;
  s.bytes_sent = bytes_sent_;
  s.checkpoints_shipped = checkpoints_shipped_;
  s.rejected_followers = rejected_followers_;
  s.sync_degraded = sync_degraded_;
  s.dropped_sends = dropped_sends_;
  s.torn_sends = torn_sends_;
  s.dup_sends = dup_sends_;
  s.idle_resends = idle_resends_;
  s.lag_records =
      leader_seq_ > replicated_seq_ ? leader_seq_ - replicated_seq_ : 0;
  s.lag_bytes = leader_bytes_ > replicated_bytes_
                    ? leader_bytes_ - replicated_bytes_
                    : 0;
  if (!pending_.empty()) {
    s.lag_ns = std::chrono::duration<double, std::nano>(
                   std::chrono::steady_clock::now() - pending_.front().at)
                   .count();
  }
  s.pending_entries = pending_.size();
  return s;
}

void ReplicationLog::stop() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (stopping_) return;
    stopping_ = true;
    cv_.notify_all();
  }
  journal_.set_commit_hook(nullptr);
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
  {
    std::lock_guard<std::mutex> lk(mu_);
    for (auto& f : followers_)
      if (f->fd >= 0) ::shutdown(f->fd, SHUT_RDWR);
  }
  for (auto& f : followers_)
    if (f->session.joinable()) f->session.join();
  // Drain in-flight wait_acked()/wait_follower() callers: they wake on
  // stopping_ and leave promptly, but destruction must not pull
  // mu_/cv_ out from under a waiter still inside cv_.wait_for.
  std::unique_lock<std::mutex> lk(mu_);
  cv_.wait(lk, [&] { return waiters_ == 0; });
}

}  // namespace ssma::serve::replication
