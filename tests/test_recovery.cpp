// Checkpoint/recovery tests: CRC framing, checkpoint versioning with
// torn-write fallback, journal replay with torn-tail tolerance, the
// crash-at-every-point matrix (a fault injected after each pipeline
// stage — enqueue / batch / execute / ack — with supervised in-process
// recovery), the hard-crash restart + journal-replay path, and the
// golden-file regression for the checkpoint format. The recovery
// contract under test: every acknowledged or replayed response is
// bit-exact vs a fault-free single-threaded Amm::apply_int16 run.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <future>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "engine/model_registry.hpp"
#include "engine/pipeline.hpp"
#include "maddness/framing.hpp"
#include "serve/recovery/checkpoint.hpp"
#include "serve/recovery/fault_injector.hpp"
#include "serve/recovery/journal.hpp"
#include "serve/recovery/recovery.hpp"
#include "serve/replication/replica_applier.hpp"
#include "serve/replication/replication.hpp"
#include "serve/server.hpp"
#include "serve_test_util.hpp"

namespace ssma::serve {
namespace {

using recovery::AcceptedRecord;
using recovery::CheckpointManager;
using recovery::CheckpointState;
using recovery::FaultInjector;
using recovery::FaultKind;
using recovery::FaultPlan;
using recovery::FaultSite;
using recovery::RequestJournal;

std::string slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  EXPECT_TRUE(is.is_open()) << path;
  std::ostringstream oss;
  oss << is.rdbuf();
  return oss.str();
}

// ------------------------------------------------------------- framing

TEST(Framing, Crc32MatchesKnownVector) {
  // The canonical CRC-32 check value.
  EXPECT_EQ(maddness::crc32(std::string("123456789")), 0xCBF43926u);
  EXPECT_EQ(maddness::crc32(std::string()), 0u);
}

// The byte-at-a-time table loop the slicing-by-8 CRC replaced: the
// reference every length, alignment and chaining split must match.
std::uint32_t crc32_bytewise(const std::uint8_t* p, std::size_t n,
                             std::uint32_t crc) {
  crc = ~crc;
  for (std::size_t i = 0; i < n; ++i) {
    crc ^= p[i];
    for (int k = 0; k < 8; ++k)
      crc = (crc & 1u) ? 0xEDB88320u ^ (crc >> 1) : crc >> 1;
  }
  return ~crc;
}

TEST(Framing, Crc32SlicingMatchesBytewiseReference) {
  Rng rng(test_seed());
  // 4691 B is one 16-row tcp_journal accept record.
  std::vector<std::uint8_t> buf(4691 + 8);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng.next_below(256));
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n <= 64; ++n) lengths.push_back(n);
  lengths.push_back(4691);
  for (const std::size_t n : lengths) {
    for (std::size_t off = 0; off < 8; ++off) {
      const std::uint8_t* p = buf.data() + off;
      const std::uint32_t want = crc32_bytewise(p, n, 0);
      ASSERT_EQ(maddness::crc32(p, n), want) << "n=" << n << " off=" << off;
      // Seed chaining: any split point continues the same checksum.
      for (const std::size_t cut : {std::size_t{0}, n / 3, n / 2, n}) {
        const std::uint32_t head = maddness::crc32(p, cut);
        ASSERT_EQ(maddness::crc32(p + cut, n - cut, head), want)
            << "n=" << n << " off=" << off << " cut=" << cut;
      }
      // A nonzero seed matches the reference's chaining too.
      ASSERT_EQ(maddness::crc32(p, n, 0x12345678u),
                crc32_bytewise(p, n, 0x12345678u));
    }
  }
}

TEST(Framing, FramedBlobRoundTripAndCorruptionDetected) {
  wire::Writer w;
  maddness::write_framed_blob(w, "hello, shard");
  std::string bytes = w.str();
  {
    std::istringstream is(bytes);
    EXPECT_EQ(maddness::read_framed_blob(is), "hello, shard");
  }
  // Flip one payload bit -> CRC must catch it.
  bytes[bytes.size() - 3] ^= 0x40;
  std::istringstream is(bytes);
  std::string out;
  EXPECT_FALSE(maddness::try_read_framed_blob(is, &out));
}

TEST(Framing, CorruptLengthHeaderIsTornNotOom) {
  // A bit-rotted length field far larger than the stream must come
  // back as a torn frame, never as a giant allocation or a throw.
  std::string bytes(12, '\0');
  bytes[3] = static_cast<char>(0xFF);  // len = 0xFF000000
  bytes += "short";
  std::istringstream is(bytes);
  std::string out;
  EXPECT_FALSE(maddness::try_read_framed_blob(is, &out));
}

TEST(Framing, AmmBlobIsSelfValidating) {
  const ServeFixture f = ServeFixture::make();
  std::ostringstream os;
  f.amm.save(os);
  std::string blob = os.str();
  {
    std::istringstream is(blob);
    const maddness::Amm replica = maddness::Amm::load(is);
    EXPECT_EQ(replica.apply_int16(f.pool), f.amm.apply_int16(f.pool));
  }
  // A single flipped byte deep in the payload fails the frame CRC
  // instead of silently corrupting LUT entries.
  blob[blob.size() / 2] ^= 0x01;
  std::istringstream is(blob);
  EXPECT_THROW(maddness::Amm::load(is), CheckError);
}

// --------------------------------------------------------- checkpoints

TEST(Checkpoint, WriteLoadRoundTrip) {
  TmpDir dir("ckpt");
  CheckpointManager mgr(dir.str());
  CheckpointState st;
  st.amm_blob = "not-a-real-blob-but-any-bytes";
  st.next_request_id = 42;
  st.accepted_requests = 40;
  st.completed_requests = 37;
  st.tokens = 80;
  st.batches = 11;
  EXPECT_EQ(mgr.write(st), 1u);
  EXPECT_EQ(mgr.write(st), 2u);

  std::uint64_t version = 0;
  const auto loaded = mgr.load_latest(&version);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(version, 2u);
  EXPECT_EQ(loaded->amm_blob, st.amm_blob);
  EXPECT_EQ(loaded->next_request_id, 42u);
  EXPECT_EQ(loaded->accepted_requests, 40u);
  EXPECT_EQ(loaded->completed_requests, 37u);
  EXPECT_EQ(loaded->tokens, 80u);
  EXPECT_EQ(loaded->batches, 11u);

  // A new manager over the same dir adopts the existing versions.
  CheckpointManager again(dir.str());
  EXPECT_EQ(again.versions(), (std::vector<std::uint64_t>{1, 2}));
  EXPECT_EQ(again.write(st), 3u);
}

TEST(Checkpoint, TornWriteFallsBackToLastValidVersion) {
  TmpDir dir("torn");
  FaultInjector fault(test_seed());
  CheckpointManager mgr(dir.str(), &fault);

  CheckpointState v1;
  v1.amm_blob = std::string(2048, 'a');
  v1.next_request_id = 100;
  EXPECT_EQ(mgr.write(v1), 1u);

  FaultPlan torn;
  torn.site = FaultSite::kCheckpointWrite;
  torn.kind = FaultKind::kTornCheckpoint;
  torn.fire_at = fault.polls(FaultSite::kCheckpointWrite) + 1;
  fault.arm(torn);

  CheckpointState v2 = v1;
  v2.next_request_id = 200;
  EXPECT_EQ(mgr.write(v2), 2u);  // lands torn on disk

  // Strict load of the torn file throws; latest-valid falls back to v1.
  EXPECT_THROW(CheckpointManager::load_file(mgr.path_of(2)), CheckError);
  std::uint64_t version = 0;
  const auto loaded = mgr.load_latest(&version);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(version, 1u);
  EXPECT_EQ(loaded->next_request_id, 100u);

  // A later good write shadows the torn version again.
  CheckpointState v3 = v1;
  v3.next_request_id = 300;
  EXPECT_EQ(mgr.write(v3), 3u);
  ASSERT_TRUE(mgr.load_latest(&version).has_value());
  EXPECT_EQ(version, 3u);
}

TEST(Checkpoint, KeepsNewestVersionsAndTornNewestFallsBack) {
  TmpDir dir("prune");
  FaultInjector fault(test_seed());
  CheckpointManager mgr(dir.str(), &fault);
  CheckpointState st;
  st.amm_blob = std::string(512, 'p');
  for (std::uint64_t v = 1; v <= 10; ++v) {
    st.next_request_id = v;
    EXPECT_EQ(mgr.write(st), v);
  }
  EXPECT_EQ(mgr.versions(), (std::vector<std::uint64_t>{8, 9, 10}));

  // A torn newest version: the older ones it would otherwise shadow are
  // all still there to fall back to.
  FaultPlan torn;
  torn.site = FaultSite::kCheckpointWrite;
  torn.kind = FaultKind::kTornCheckpoint;
  torn.fire_at = fault.polls(FaultSite::kCheckpointWrite) + 1;
  fault.arm(torn);
  st.next_request_id = 11;
  EXPECT_EQ(mgr.write(st), 11u);
  std::uint64_t version = 0;
  auto loaded = mgr.load_latest(&version);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(version, 10u);
  EXPECT_EQ(loaded->next_request_id, 10u);

  // The next good write prunes back to three, keeping the torn one's
  // predecessor.
  st.next_request_id = 12;
  EXPECT_EQ(mgr.write(st), 12u);
  EXPECT_EQ(mgr.versions(), (std::vector<std::uint64_t>{10, 11, 12}));
  loaded = mgr.load_latest(&version);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(version, 12u);
}

// ------------------------------------------------------------- journal

TEST(Journal, ReplaySeparatesUnacknowledgedFromCompleted) {
  TmpDir dir("jnl");
  const std::string path = dir.file("requests.jnl");
  {
    RequestJournal jnl(path);
    jnl.append_accepted(0, 1, {1, 2, 3, 4});
    jnl.append_accepted(1, 2, {5, 6, 7, 8});
    jnl.append_completed(0, /*worker_id=*/2, /*output_crc=*/0xDEAD);
    jnl.append_accepted(2, 1, {9, 9, 9, 9});
  }
  const auto replay = RequestJournal::read(path);
  EXPECT_EQ(replay.accepted, 3u);
  EXPECT_EQ(replay.completed, 1u);
  EXPECT_EQ(replay.max_id, 2u);
  EXPECT_FALSE(replay.torn_tail);
  ASSERT_EQ(replay.unacknowledged.size(), 2u);
  EXPECT_EQ(replay.unacknowledged[0].id, 1u);
  EXPECT_EQ(replay.unacknowledged[0].rows, 2u);
  EXPECT_EQ(replay.unacknowledged[0].codes,
            (std::vector<std::uint8_t>{5, 6, 7, 8}));
  EXPECT_EQ(replay.unacknowledged[1].id, 2u);
  EXPECT_EQ(replay.completed_crc.at(0), 0xDEADu);

  // Reopening appends instead of truncating history.
  {
    RequestJournal again(path);
    again.append_completed(1, 0, 0xBEEF);
  }
  const auto replay2 = RequestJournal::read(path);
  ASSERT_EQ(replay2.unacknowledged.size(), 1u);
  EXPECT_EQ(replay2.unacknowledged[0].id, 2u);
}

TEST(Journal, TornTailIsDroppedNotMisparsed) {
  TmpDir dir("jnltorn");
  const std::string path = dir.file("requests.jnl");
  {
    RequestJournal jnl(path);
    jnl.append_accepted(0, 1, {1, 2, 3, 4});
    jnl.append_accepted(1, 1, {5, 6, 7, 8});
  }
  // Truncate mid-record: the crash tail a real power cut leaves.
  const std::string whole = slurp(path);
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(whole.data(),
           static_cast<std::streamsize>(whole.size() - 7));
  os.close();

  const auto replay = RequestJournal::read(path);
  EXPECT_TRUE(replay.torn_tail);
  EXPECT_EQ(replay.accepted, 1u);
  ASSERT_EQ(replay.unacknowledged.size(), 1u);
  EXPECT_EQ(replay.unacknowledged[0].id, 0u);

  // Missing file == empty journal, not an error.
  const auto none = RequestJournal::read(dir.file("nope.jnl"));
  EXPECT_EQ(none.accepted, 0u);
  EXPECT_FALSE(none.torn_tail);
}

TEST(Journal, ReopenTruncatesTornTailSoNewAppendsStayReadable) {
  TmpDir dir("jnlreopen");
  const std::string path = dir.file("requests.jnl");
  {
    RequestJournal jnl(path);
    jnl.append_accepted(0, 1, {1, 2, 3, 4});
    jnl.append_accepted(1, 1, {5, 6, 7, 8});
  }
  // Crash tail: half of record 2 on disk.
  const std::string whole = slurp(path);
  {
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(whole.data(),
             static_cast<std::streamsize>(whole.size() - 7));
  }
  // Reopening truncates back to the last whole frame — appending after
  // the torn bytes would hide every post-restart record behind the
  // tear (readers stop at the first bad frame) and break the
  // follower's byte-prefix resume.
  {
    RequestJournal jnl(path);
    EXPECT_EQ(jnl.durable_seq(), 1u);
    EXPECT_EQ(jnl.durable_bytes(),
              static_cast<std::uint64_t>(
                  std::filesystem::file_size(path)));
    jnl.append_accepted(9, 1, {9, 9, 9, 9});
    EXPECT_EQ(jnl.durable_bytes(),
              static_cast<std::uint64_t>(
                  std::filesystem::file_size(path)));
  }
  const auto replay = RequestJournal::read(path);
  EXPECT_FALSE(replay.torn_tail);
  EXPECT_EQ(replay.accepted, 2u);
  ASSERT_EQ(replay.unacknowledged.size(), 2u);
  EXPECT_EQ(replay.unacknowledged[0].id, 0u);
  EXPECT_EQ(replay.unacknowledged[1].id, 9u);
}

TEST(Journal, TornMagicIsRewrittenForeignFileIsRefused) {
  TmpDir dir("jnlmagic");
  // Crash during journal creation: fewer than 8 magic bytes on disk.
  // Reopening must start the journal over (no records can predate the
  // magic), not wedge every future read.
  const std::string torn = dir.file("torn.jnl");
  {
    std::ofstream os(torn, std::ios::binary);
    os.write("SSM", 3);
  }
  {
    RequestJournal jnl(torn);
    jnl.append_accepted(7, 1, {1, 2, 3, 4});
  }
  const auto replay = RequestJournal::read(torn);
  EXPECT_EQ(replay.accepted, 1u);
  EXPECT_EQ(replay.unacknowledged.at(0).id, 7u);

  // A full 8 bytes of something else is not ours to clobber.
  const std::string foreign = dir.file("foreign.jnl");
  {
    std::ofstream os(foreign, std::ios::binary);
    os.write("NOTAJRNL-data", 13);
  }
  EXPECT_THROW(RequestJournal{foreign}, CheckError);
}

// ---------------------------------------- crash-at-every-point matrix

// A fault after each worker pipeline stage; the supervisor requeues the
// dead shard's in-flight batch and respawns the shard from the latest
// checkpoint. Every future must still resolve bit-exact.
TEST(Recovery, CrashAtEveryStageSupervisedIsBitExact) {
  const std::uint64_t seed = test_seed();
  SCOPED_TRACE(seed_trace(seed));
  const ServeFixture f = ServeFixture::make();

  struct Scenario {
    FaultSite site;
    FaultKind kind;
  };
  const Scenario scenarios[] = {
      {FaultSite::kBatchFormed, FaultKind::kKillShard},
      {FaultSite::kExecute, FaultKind::kKillShard},
      {FaultSite::kAck, FaultKind::kKillShard},
      {FaultSite::kExecute, FaultKind::kDropBeforeAck},
      {FaultSite::kAck, FaultKind::kDropBeforeAck},
  };

  for (const Scenario& sc : scenarios) {
    SCOPED_TRACE(std::string(to_string(sc.kind)) + " after " +
                 to_string(sc.site));
    TmpDir dir("crash");
    FaultInjector fault(seed);
    CheckpointManager ckpts(dir.str(), &fault);
    RequestJournal journal(dir.file("requests.jnl"));

    FaultPlan plan;
    plan.site = sc.site;
    plan.kind = sc.kind;
    plan.fire_at = 3;  // let a couple of batches through first
    fault.arm(plan);

    ServerOptions opts;
    opts.num_workers = 2;
    opts.batcher.max_batch_tokens = 4;
    opts.batcher.max_wait = std::chrono::microseconds(50);
    opts.recovery.fault = &fault;
    opts.recovery.journal = &journal;
    opts.recovery.checkpoints = &ckpts;
    opts.recovery.supervise = true;
    InferenceServer server(default_registry(f.amm), opts);

    constexpr std::size_t kRequests = 48;
    std::vector<std::future<InferenceResult>> futs;
    for (std::size_t id = 0; id < kRequests; ++id)
      futs.push_back(server.submit("default", f.codes_for(id), 1));
    for (std::size_t id = 0; id < futs.size(); ++id)
      EXPECT_EQ(futs[id].get().outputs, f.expected(id % f.pool.rows, 1))
          << "request " << id
          << " diverged from the fault-free reference";

    EXPECT_EQ(fault.fired(), 1u) << "armed fault did not fire";
    if (sc.kind == FaultKind::kKillShard) {
      EXPECT_EQ(server.respawn_count(), 1);
    }
    server.shutdown();
    EXPECT_EQ(server.metrics().requests, kRequests);

    // The journal must show every request acknowledged exactly once.
    const auto replay = RequestJournal::read(journal.path());
    EXPECT_EQ(replay.accepted, kRequests);
    EXPECT_EQ(replay.completed, kRequests);
    EXPECT_TRUE(replay.unacknowledged.empty());
  }
}

// The enqueue-stage crash: accepted into the WAL, lost before the
// queue. In-process supervision cannot see it — only journal replay
// recovers it. Combined here with a shard kill and no supervision: the
// full hard-crash + restart + replay path, verified to the bit.
TEST(Recovery, HardCrashRestartReplaysJournalBitExact) {
  const std::uint64_t seed = test_seed();
  SCOPED_TRACE(seed_trace(seed));
  const ServeFixture f = ServeFixture::make();
  TmpDir dir("restart");
  const std::string journal_path = dir.file("requests.jnl");
  constexpr std::size_t kRequests = 32;

  std::vector<std::vector<std::uint8_t>> payloads;
  for (std::size_t id = 0; id < kRequests; ++id)
    payloads.push_back(f.codes_for(id * 3 + 1));

  std::size_t served_before_crash = 0;
  std::set<std::uint64_t> failed_ids;  // submit order is id order
  {
    FaultInjector fault(seed);
    CheckpointManager ckpts(dir.str(), &fault);
    RequestJournal journal(journal_path);

    // Shard dies mid-load...
    FaultPlan kill;
    kill.site = FaultSite::kExecute;
    kill.kind = FaultKind::kKillShard;
    kill.fire_at = 5;
    fault.arm(kill);
    // ...and one request is lost between WAL accept and enqueue.
    FaultPlan lost;
    lost.site = FaultSite::kEnqueue;
    lost.kind = FaultKind::kKillShard;
    lost.fire_at = 11;
    fault.arm(lost);

    ServerOptions opts;
    opts.num_workers = 1;  // deterministic: the one shard dies
    opts.queue_capacity = 2 * kRequests;  // crash must not block submit
    opts.batcher.max_batch_tokens = 1;
    opts.batcher.max_wait = std::chrono::microseconds(0);
    opts.recovery.fault = &fault;
    opts.recovery.journal = &journal;
    opts.recovery.checkpoints = &ckpts;
    opts.recovery.checkpoint_every = 8;
    opts.recovery.supervise = false;  // a crash is a crash
    InferenceServer server(default_registry(f.amm), opts);

    std::vector<std::future<InferenceResult>> futs;
    for (std::size_t id = 0; id < kRequests; ++id)
      futs.push_back(server.submit("default", payloads[id], 1));
    server.shutdown();  // the "process" dies: unserved futures fail

    for (std::size_t id = 0; id < futs.size(); ++id) {
      try {
        const InferenceResult res = futs[id].get();
        EXPECT_EQ(res.outputs, f.expected_for(payloads[id], 1));
        served_before_crash++;
      } catch (const std::runtime_error&) {
        // Lost to the crash; the journal owns it now.
        failed_ids.insert(id);
      }
    }
    EXPECT_LT(served_before_crash, kRequests);
    EXPECT_GE(fault.fired(), 2u);
  }

  // ----- restart -----
  CheckpointManager ckpts(dir.str());
  const auto rs = recovery::recover_state(ckpts, journal_path);
  ASSERT_TRUE(rs.has_checkpoint());
  // Cadence compaction may have pruned acknowledged accepts, so the
  // record counts are not fixed; what must hold exactly is that the
  // unacknowledged set is the set of requests the crash failed.
  std::set<std::uint64_t> unacked_ids;
  for (const AcceptedRecord& rec : rs.journal.unacknowledged)
    unacked_ids.insert(rec.id);
  EXPECT_EQ(unacked_ids, failed_ids);
  EXPECT_EQ(rs.next_request_id, kRequests);

  RequestJournal journal(journal_path);  // keep journaling on recovery
  ServerOptions opts;
  opts.num_workers = 2;
  opts.recovery.journal = &journal;
  opts.recovery.checkpoints = &ckpts;
  auto server = InferenceServer::restore(rs, opts);

  // Replayed responses are bit-exact vs the fault-free reference —
  // including the enqueue-lost request the first run never served.
  auto futs = server->replay(rs.journal.unacknowledged);
  ASSERT_EQ(futs.size(), rs.journal.unacknowledged.size());
  for (std::size_t i = 0; i < futs.size(); ++i) {
    const AcceptedRecord& rec = rs.journal.unacknowledged[i];
    const InferenceResult res = futs[i].get();
    EXPECT_EQ(res.request_id, rec.id);
    EXPECT_EQ(res.outputs, f.expected_for(rec.codes, rec.rows))
        << "replayed request " << rec.id << " diverged";
  }
  // New admissions continue past the recovered watermark.
  auto fresh = server->submit("default", f.codes_for(0), 1);
  EXPECT_EQ(fresh.get().request_id, kRequests);
  server->shutdown();

  // Ack CRCs in the journal audit the crashed run's acknowledged
  // responses to the bit: recompute each from the reference kernel.
  for (std::size_t id = 0; id < kRequests; ++id) {
    const auto it = rs.journal.completed_crc.find(id);
    if (it == rs.journal.completed_crc.end()) continue;
    const auto want = f.expected_for(payloads[id], 1);
    EXPECT_EQ(it->second,
              maddness::crc32(want.data(),
                              want.size() * sizeof(std::int16_t)))
        << "acknowledged output CRC mismatch for request " << id;
  }

  // The second run journaled its acks; a third read shows none left.
  const auto after = RequestJournal::read(journal_path);
  EXPECT_TRUE(after.unacknowledged.empty());
}

// Every cadence checkpoint compacts the WAL: serving many cadence
// windows keeps the physical file near one window of records instead of
// growing for the whole run, and a hard crash on top of the compacted
// file still restores and replays bit-exact.
TEST(Recovery, CadenceCompactionBoundsJournal) {
  const std::uint64_t seed = test_seed();
  SCOPED_TRACE(seed_trace(seed));
  const ServeFixture f = ServeFixture::make();
  TmpDir dir("cadence-compact");
  const std::string journal_path = dir.file("requests.jnl");
  constexpr std::size_t kEvery = 8;
  constexpr std::size_t kServed = 12 * kEvery;  // >= 10 cadence rounds
  constexpr std::size_t kLost = 4;              // unserved at the crash

  // Journal bytes one request leaves behind: its accept + ack frames.
  std::uint64_t per_request = 0;
  {
    TmpDir sizing("cadence-sizing");
    RequestJournal j(sizing.file("j"));
    j.append_accepted(0, engine::ModelRegistry::kDefaultModel, 1, 1,
                      f.codes_for(0));
    j.append_completed(0, 0, 0);
    per_request = j.durable_bytes() - 8;
  }
  // Magic + compaction marker, then at most two cadence windows of
  // requests: the one being served, and the one the checkpoint could
  // not prune because its last accept was still in flight.
  const std::uint64_t bound = 8 + 29 + 2 * kEvery * per_request;
  ASSERT_LT(bound, kServed * per_request) << "bound must be meaningful";

  Rng rng(seed);
  std::uintmax_t peak_wal = 0;
  std::set<std::uint64_t> failed_ids;
  {
    FaultInjector fault(seed);
    CheckpointManager ckpts(dir.str());
    RequestJournal journal(journal_path);
    ServerOptions opts;
    opts.num_workers = 1;
    opts.queue_capacity = 2 * (kServed + kLost);
    opts.batcher.max_batch_tokens = 1;
    opts.batcher.max_wait = std::chrono::microseconds(0);
    opts.recovery.fault = &fault;
    opts.recovery.journal = &journal;
    opts.recovery.checkpoints = &ckpts;
    opts.recovery.checkpoint_every = kEvery;
    opts.recovery.supervise = false;
    InferenceServer server(default_registry(f.amm), opts);
    for (std::size_t id = 0; id < kServed; ++id) {
      const auto codes = f.codes_for(rng.next_below(f.pool.rows));
      EXPECT_EQ(server.submit("default", codes, 1).get().outputs,
                f.expected_for(codes, 1));
      peak_wal =
          std::max(peak_wal, std::filesystem::file_size(journal_path));
    }
    EXPECT_LE(peak_wal, bound);

    // Hard crash: the shard dies on its next batch, so the last
    // requests stay accepted but unacknowledged.
    FaultPlan kill;
    kill.site = FaultSite::kExecute;
    kill.kind = FaultKind::kKillShard;
    kill.fire_at = fault.polls(FaultSite::kExecute) + 1;
    fault.arm(kill);
    std::vector<std::future<InferenceResult>> futs;
    for (std::size_t i = 0; i < kLost; ++i)
      futs.push_back(server.submit("default", f.codes_for(i), 1));
    server.shutdown();
    for (std::size_t i = 0; i < kLost; ++i) {
      try {
        futs[i].get();
      } catch (const std::runtime_error&) {
        failed_ids.insert(kServed + i);
      }
    }
  }
  ASSERT_EQ(failed_ids.size(), kLost);

  CheckpointManager ckpts(dir.str());
  const auto rs = recovery::recover_state(ckpts, journal_path);
  ASSERT_TRUE(rs.has_checkpoint());
  EXPECT_GT(rs.journal.compacted_through, 0u);
  std::set<std::uint64_t> unacked_ids;
  for (const AcceptedRecord& rec : rs.journal.unacknowledged)
    unacked_ids.insert(rec.id);
  EXPECT_EQ(unacked_ids, failed_ids);
  EXPECT_EQ(rs.next_request_id, kServed + kLost);

  RequestJournal journal(journal_path);
  ServerOptions opts;
  opts.num_workers = 2;
  opts.recovery.journal = &journal;
  opts.recovery.checkpoints = &ckpts;
  auto server = InferenceServer::restore(rs, opts);
  auto futs = server->replay(rs.journal.unacknowledged);
  ASSERT_EQ(futs.size(), kLost);
  for (std::size_t i = 0; i < futs.size(); ++i) {
    const AcceptedRecord& rec = rs.journal.unacknowledged[i];
    const InferenceResult res = futs[i].get();
    EXPECT_EQ(res.request_id, rec.id);
    EXPECT_EQ(res.outputs, f.expected_for(rec.codes, rec.rows))
        << "replayed request " << rec.id << " diverged";
  }
  EXPECT_EQ(server->submit("default", f.codes_for(0), 1).get().request_id,
            kServed + kLost);
  server->shutdown();
}

TEST(Recovery, CadenceCheckpointsKeepTheDirectoryBounded) {
  const std::uint64_t seed = test_seed();
  SCOPED_TRACE(seed_trace(seed));
  const ServeFixture f = ServeFixture::make();
  TmpDir dir("cadence-prune");
  const std::string journal_path = dir.file("requests.jnl");
  constexpr std::size_t kEvery = 4;
  constexpr std::size_t kServed = 64 * kEvery;  // 64 cadence windows
  constexpr std::size_t kLost = 3;              // unserved at the crash

  const auto checkpoint_files = [&] {
    std::size_t n = 0;
    for (const auto& e : std::filesystem::directory_iterator(dir.str()))
      if (e.path().extension() == ".ssck") ++n;
    return n;
  };

  Rng rng(seed);
  std::size_t peak_files = 0;
  std::set<std::uint64_t> failed_ids;
  {
    FaultInjector fault(seed);
    CheckpointManager ckpts(dir.str());
    RequestJournal journal(journal_path);
    ServerOptions opts;
    opts.num_workers = 1;
    opts.queue_capacity = 2 * (kServed + kLost);
    opts.batcher.max_batch_tokens = 1;
    opts.batcher.max_wait = std::chrono::microseconds(0);
    opts.recovery.fault = &fault;
    opts.recovery.journal = &journal;
    opts.recovery.checkpoints = &ckpts;
    opts.recovery.checkpoint_every = kEvery;
    opts.recovery.supervise = false;
    InferenceServer server(default_registry(f.amm), opts);
    for (std::size_t id = 0; id < kServed; ++id) {
      const auto codes = f.codes_for(rng.next_below(f.pool.rows));
      EXPECT_EQ(server.submit("default", codes, 1).get().outputs,
                f.expected_for(codes, 1));
      peak_files = std::max(peak_files, checkpoint_files());
    }
    EXPECT_GE(ckpts.versions().back(), 64u);

    FaultPlan kill;
    kill.site = FaultSite::kExecute;
    kill.kind = FaultKind::kKillShard;
    kill.fire_at = fault.polls(FaultSite::kExecute) + 1;
    fault.arm(kill);
    std::vector<std::future<InferenceResult>> futs;
    for (std::size_t i = 0; i < kLost; ++i)
      futs.push_back(server.submit("default", f.codes_for(i), 1));
    server.shutdown();
    for (std::size_t i = 0; i < kLost; ++i) {
      try {
        futs[i].get();
      } catch (const std::runtime_error&) {
        failed_ids.insert(kServed + i);
      }
    }
  }
  EXPECT_LE(peak_files, CheckpointManager::kKeepVersions);
  ASSERT_EQ(failed_ids.size(), kLost);

  // Restore from what the pruned directory kept, then replay.
  CheckpointManager ckpts(dir.str());
  const auto rs = recovery::recover_state(ckpts, journal_path);
  ASSERT_TRUE(rs.has_checkpoint());
  std::set<std::uint64_t> unacked_ids;
  for (const AcceptedRecord& rec : rs.journal.unacknowledged)
    unacked_ids.insert(rec.id);
  EXPECT_EQ(unacked_ids, failed_ids);
  RequestJournal journal(journal_path);
  ServerOptions opts;
  opts.num_workers = 2;
  opts.recovery.journal = &journal;
  opts.recovery.checkpoints = &ckpts;
  auto server = InferenceServer::restore(rs, opts);
  auto futs = server->replay(rs.journal.unacknowledged);
  ASSERT_EQ(futs.size(), kLost);
  for (std::size_t i = 0; i < futs.size(); ++i) {
    const AcceptedRecord& rec = rs.journal.unacknowledged[i];
    EXPECT_EQ(futs[i].get().outputs, f.expected_for(rec.codes, rec.rows))
        << "replayed request " << rec.id << " diverged";
  }
  server->shutdown();
}

// The compaction horizon is the journal seq captured before the
// checkpoint's watermark is read. Pruning further (records admitted
// after the watermark was read) would let recover_state derive a
// next_request_id at or below ids already acknowledged, and a restored
// server would hand those ids out again.
TEST(Recovery, CompactionKeepsRecoveredIdsAboveEveryAck) {
  const std::uint64_t seed = test_seed();
  SCOPED_TRACE(seed_trace(seed));
  const ServeFixture f = ServeFixture::make();
  TmpDir dir("horizon");
  const std::string journal_path = dir.file("requests.jnl");
  CheckpointManager ckpts(dir.str());
  RequestJournal journal(journal_path);
  ServerOptions opts;
  opts.num_workers = 2;
  opts.batcher.max_wait = std::chrono::microseconds(0);
  opts.recovery.journal = &journal;
  opts.recovery.checkpoints = &ckpts;
  // No cadence: the compactions below are the only ones, so no
  // checkpoint or rewrite races the recover_state reads.
  InferenceServer server(default_registry(f.amm), opts);

  constexpr int kSubmitters = 3;
  constexpr int kRounds = 150;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> acked_next{0};  // 1 + highest acked id
  std::atomic<int> wrong{0};
  std::vector<std::thread> submitters;
  for (int t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&, t] {
      Rng rng(seed + static_cast<std::uint64_t>(t));
      while (!stop.load()) {
        const auto codes = f.codes_for(rng.next_below(f.pool.rows));
        const InferenceResult res =
            server.submit("default", codes, 1).get();
        if (res.outputs != f.expected_for(codes, 1)) wrong++;
        std::uint64_t cur = acked_next.load();
        while (cur < res.request_id + 1 &&
               !acked_next.compare_exchange_weak(cur, res.request_id + 1)) {
        }
        // Think time: the journal often drains to fully acknowledged,
        // the state in which an over-eager compaction prunes
        // everything admitted after the checkpoint's watermark.
        std::this_thread::sleep_for(
            std::chrono::microseconds(rng.next_below(400)));
      }
    });
  }

  Rng rng(seed);
  std::uint64_t pruned = 0;
  for (int round = 0; round < kRounds; ++round) {
    std::this_thread::sleep_for(
        std::chrono::microseconds(rng.next_below(2000)));
    pruned += server.compact_journal();
    const std::uint64_t acked = acked_next.load();
    const auto rs = recovery::recover_state(ckpts, journal_path);
    EXPECT_GE(rs.next_request_id, acked)
        << "round " << round << ": a restore would reissue an acked id";
  }
  stop = true;
  for (auto& th : submitters) th.join();
  server.shutdown();
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_GT(pruned, 0u);
}

TEST(Recovery, UnsupervisedCrashFailsFuturesLoudly) {
  const ServeFixture f = ServeFixture::make();
  FaultInjector fault(test_seed());
  FaultPlan kill;
  kill.site = FaultSite::kExecute;
  kill.kind = FaultKind::kKillShard;
  kill.fire_at = 1;
  fault.arm(kill);

  ServerOptions opts;
  opts.num_workers = 1;
  opts.queue_capacity = 64;
  opts.batcher.max_batch_tokens = 1;
  opts.batcher.max_wait = std::chrono::microseconds(0);
  opts.recovery.fault = &fault;
  InferenceServer server(default_registry(f.amm), opts);

  std::vector<std::future<InferenceResult>> futs;
  for (std::size_t id = 0; id < 4; ++id)
    futs.push_back(server.submit("default", f.codes_for(id), 1));
  server.shutdown();

  std::size_t failed = 0;
  for (auto& fut : futs) {
    try {
      fut.get();
    } catch (const std::runtime_error&) {
      failed++;  // a real error message, not std::future_error
    }
  }
  EXPECT_EQ(failed, 4u);
}

TEST(Recovery, CheckpointCadenceWritesVersions) {
  const ServeFixture f = ServeFixture::make();
  TmpDir dir("cadence");
  CheckpointManager ckpts(dir.str());

  ServerOptions opts;
  opts.num_workers = 2;
  opts.recovery.checkpoints = &ckpts;
  opts.recovery.checkpoint_every = 4;
  InferenceServer server(default_registry(f.amm), opts);

  std::vector<std::future<InferenceResult>> futs;
  for (std::size_t id = 0; id < 12; ++id)
    futs.push_back(server.submit("default", f.codes_for(id), 1));
  for (auto& fut : futs) fut.get();
  server.shutdown();

  // Startup checkpoint + one per 4 accepted requests; only the newest
  // few stay on disk.
  ASSERT_FALSE(ckpts.versions().empty());
  EXPECT_GE(ckpts.versions().back(), 4u);
  std::uint64_t version = 0;
  const auto latest = ckpts.load_latest(&version);
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->next_request_id, 12u);
  // A live server writes the v2 (registry) record; the operator comes
  // back as the implicitly-named default model, version 1.
  ASSERT_FALSE(latest->is_v1());
  engine::ModelRegistry registry;
  std::istringstream is(latest->registry_blob);
  registry.load(is);
  const engine::ModelRef replica = registry.resolve("default@1");
  EXPECT_EQ(replica->amm().apply_int16(f.pool), f.amm.apply_int16(f.pool));
}

// --------------------------------------------- golden checkpoint file

// Guards the on-disk checkpoint format against drift: a fixture
// checkpoint is committed to tests/data/ and must (a) load with the
// exact field values it was written with, (b) serve bit-identical
// outputs recorded next to it, and (c) re-encode byte-identically.
// Regenerate (format bumps only) by running test_recovery with
// --gtest_also_run_disabled_tests
// --gtest_filter='*RegenerateGoldenCheckpoint*'
namespace golden {
constexpr std::uint64_t kVersion = 1;
constexpr std::uint64_t kNextId = 77;
constexpr std::uint64_t kAccepted = 70;
constexpr std::uint64_t kCompleted = 66;
constexpr std::uint64_t kTokens = 132;
constexpr std::uint64_t kBatches = 17;
constexpr std::size_t kProbeRows = 8;

std::string checkpoint_path() {
  return std::string(SSMA_TEST_DATA_DIR) + "/checkpoint-000001.ssck";
}
std::string outputs_path() {
  return std::string(SSMA_TEST_DATA_DIR) + "/golden_outputs.txt";
}

/// The operator the golden fixture snapshots (deterministic train).
ServeFixture fixture() { return ServeFixture::make(4, 8, 64, 1234); }

/// Deterministic probe activations — integer pipeline from here on, so
/// the expected outputs are platform-stable.
maddness::QuantizedActivations probe(const maddness::Amm& amm) {
  maddness::QuantizedActivations q;
  q.rows = kProbeRows;
  q.cols = static_cast<std::size_t>(amm.cfg().total_dims());
  q.scale = amm.activation_scale();
  q.codes.resize(q.rows * q.cols);
  for (std::size_t i = 0; i < q.codes.size(); ++i)
    q.codes[i] = static_cast<std::uint8_t>((i * 37 + 11) & 0xFF);
  return q;
}
}  // namespace golden

TEST(Recovery, GoldenCheckpointFormatIsStable) {
  const CheckpointState st =
      CheckpointManager::load_file(golden::checkpoint_path());
  EXPECT_EQ(st.next_request_id, golden::kNextId);
  EXPECT_EQ(st.accepted_requests, golden::kAccepted);
  EXPECT_EQ(st.completed_requests, golden::kCompleted);
  EXPECT_EQ(st.tokens, golden::kTokens);
  EXPECT_EQ(st.batches, golden::kBatches);

  // The embedded operator still decodes the probe to the committed
  // bits (pure integer pipeline — platform independent).
  std::istringstream is(st.amm_blob);
  const maddness::Amm amm = maddness::Amm::load(is);
  const auto out = amm.apply_int16(golden::probe(amm));
  std::ifstream want(golden::outputs_path());
  ASSERT_TRUE(want.is_open()) << golden::outputs_path();
  std::size_t i = 0;
  int v = 0;
  while (want >> v) {
    ASSERT_LT(i, out.size());
    EXPECT_EQ(out[i], static_cast<std::int16_t>(v))
        << "golden output " << i << " drifted";
    i++;
  }
  EXPECT_EQ(i, out.size());

  // save -> load -> save is byte-identical (no serialization drift).
  TmpDir dir("golden");
  const std::string again = dir.file("rewrite.ssck");
  CheckpointManager::write_file(again, golden::kVersion, st);
  EXPECT_EQ(slurp(again), slurp(golden::checkpoint_path()))
      << "checkpoint re-encode changed bytes: format drift";
}

// The v1 on-disk path through a live server: the golden v1 checkpoint
// (one anonymous operator) plus a journal of model-less accept records
// restore as "default" version 1 and replay bit-exactly.
TEST(Recovery, V1CheckpointAndJournalRestoreAsDefaultModel) {
  const ServeFixture f = golden::fixture();
  TmpDir dir("v1restore");
  std::filesystem::copy_file(golden::checkpoint_path(),
                             dir.file("checkpoint-000001.ssck"));
  const std::string journal_path = dir.file("requests.jnl");
  constexpr std::uint64_t kRecords = 3;
  {
    RequestJournal journal(journal_path);
    for (std::uint64_t i = 0; i < kRecords; ++i) {
      const std::size_t rows = static_cast<std::size_t>(i) + 1;
      const std::vector<std::uint8_t> codes(
          f.pool.row(i), f.pool.row(i) + rows * f.pool.cols);
      journal.append_accepted(golden::kNextId + i, rows, codes);
    }
  }

  CheckpointManager ckpts(dir.str());
  const auto rs = recovery::recover_state(ckpts, journal_path);
  ASSERT_TRUE(rs.has_checkpoint());
  ASSERT_TRUE(rs.checkpoint.is_v1());
  ASSERT_EQ(rs.journal.unacknowledged.size(), kRecords);
  EXPECT_EQ(rs.next_request_id, golden::kNextId + kRecords);

  RequestJournal journal(journal_path);
  ServerOptions opts;
  opts.num_workers = 2;
  opts.recovery.journal = &journal;
  opts.recovery.checkpoints = &ckpts;
  auto server = InferenceServer::restore(rs, opts);
  EXPECT_EQ(server->registry().latest_version("default"), 1u);

  auto futs = server->replay(rs.journal.unacknowledged);
  ASSERT_EQ(futs.size(), kRecords);
  for (std::size_t i = 0; i < futs.size(); ++i) {
    const AcceptedRecord& rec = rs.journal.unacknowledged[i];
    EXPECT_TRUE(rec.model.empty()) << "not a v1-era record";
    const InferenceResult res = futs[i].get();
    EXPECT_EQ(res.request_id, rec.id);
    EXPECT_EQ(res.model, "default");
    EXPECT_EQ(res.model_version, 1u);
    EXPECT_EQ(res.outputs, f.expected_for(rec.codes, rec.rows))
        << "replayed v1 request " << rec.id << " diverged";
  }
  auto fresh = server->submit("default", f.codes_for(0), 1);
  const InferenceResult res = fresh.get();
  EXPECT_GE(res.request_id, rs.next_request_id);
  EXPECT_EQ(res.outputs, f.expected(0, 1));
  server->shutdown();

  EXPECT_TRUE(RequestJournal::read(journal_path).unacknowledged.empty());
}

// ---------------------------------------- golden v2 (registry) record

// Same drift guard for the v2 record: a committed checkpoint holding a
// two-model registry ("alpha" at versions 1 and 2 — a hot-swap
// snapshot — and "beta" at 1) must load with exact registry contents,
// decode the probe bit-identically on BOTH alpha banks, and re-encode
// byte-identically. Regenerate (format bumps only) via
// --gtest_also_run_disabled_tests
// --gtest_filter='*RegenerateGoldenCheckpointV2*'
namespace golden_v2 {
constexpr std::uint64_t kVersion = 1;
constexpr std::uint64_t kNextId = 91;
constexpr std::uint64_t kAccepted = 88;
constexpr std::uint64_t kCompleted = 85;
constexpr std::uint64_t kTokens = 170;
constexpr std::uint64_t kBatches = 21;

std::string checkpoint_path() {
  return std::string(SSMA_TEST_DATA_DIR) + "/checkpoint-v2-000001.ssck";
}
std::string outputs_path() {
  return std::string(SSMA_TEST_DATA_DIR) + "/golden_outputs_v2.txt";
}

/// The two alpha banks (old and retrained) plus beta — deterministic
/// trains, distinct seeds.
ServeFixture alpha_v1() { return ServeFixture::make(4, 8, 64, 1234); }
ServeFixture alpha_v2() { return ServeFixture::make(4, 8, 64, 5678); }
ServeFixture beta() { return ServeFixture::make(8, 16, 64, 91); }

std::string registry_blob() {
  engine::ModelRegistry reg;
  reg.register_model("alpha", alpha_v1().amm);
  reg.register_model("alpha", alpha_v2().amm);
  reg.register_model("beta", beta().amm);
  std::ostringstream os;
  reg.save(os);
  return os.str();
}
}  // namespace golden_v2

TEST(Recovery, GoldenCheckpointV2FormatIsStable) {
  const CheckpointState st =
      CheckpointManager::load_file(golden_v2::checkpoint_path());
  EXPECT_FALSE(st.is_v1());
  EXPECT_TRUE(st.amm_blob.empty());
  EXPECT_EQ(st.next_request_id, golden_v2::kNextId);
  EXPECT_EQ(st.accepted_requests, golden_v2::kAccepted);
  EXPECT_EQ(st.completed_requests, golden_v2::kCompleted);
  EXPECT_EQ(st.tokens, golden_v2::kTokens);
  EXPECT_EQ(st.batches, golden_v2::kBatches);

  engine::ModelRegistry reg;
  std::istringstream is(st.registry_blob);
  reg.load(is);
  EXPECT_EQ(reg.names(), (std::vector<std::string>{"alpha", "beta"}));
  EXPECT_EQ(reg.versions("alpha"), (std::vector<std::uint64_t>{1, 2}));
  EXPECT_EQ(reg.latest_version("alpha"), 2u);
  EXPECT_EQ(reg.latest_version("beta"), 1u);

  // Both alpha banks decode the probe to the committed bits — the
  // hot-swap boundary's old AND new outputs are format-stable.
  const maddness::Amm& a1 = reg.resolve("alpha@1")->amm();
  const maddness::Amm& a2 = reg.resolve("alpha@2")->amm();
  std::vector<std::int16_t> got = a1.apply_int16(golden::probe(a1));
  const auto v2out = a2.apply_int16(golden::probe(a2));
  got.insert(got.end(), v2out.begin(), v2out.end());

  std::ifstream want(golden_v2::outputs_path());
  ASSERT_TRUE(want.is_open()) << golden_v2::outputs_path();
  std::size_t i = 0;
  int v = 0;
  while (want >> v) {
    ASSERT_LT(i, got.size());
    EXPECT_EQ(got[i], static_cast<std::int16_t>(v))
        << "golden v2 output " << i << " drifted";
    i++;
  }
  EXPECT_EQ(i, got.size());

  // load -> re-encode is byte-identical (registry ordering and framing
  // are deterministic).
  TmpDir dir("goldenv2");
  const std::string again = dir.file("rewrite.ssck");
  CheckpointManager::write_file(again, golden_v2::kVersion, st);
  EXPECT_EQ(slurp(again), slurp(golden_v2::checkpoint_path()))
      << "v2 checkpoint re-encode changed bytes: format drift";
}

TEST(Recovery, DISABLED_RegenerateGoldenCheckpointV2) {
  CheckpointState st;
  st.registry_blob = golden_v2::registry_blob();
  st.next_request_id = golden_v2::kNextId;
  st.accepted_requests = golden_v2::kAccepted;
  st.completed_requests = golden_v2::kCompleted;
  st.tokens = golden_v2::kTokens;
  st.batches = golden_v2::kBatches;
  CheckpointManager::write_file(golden_v2::checkpoint_path(),
                                golden_v2::kVersion, st);

  const maddness::Amm a1 = golden_v2::alpha_v1().amm;
  const maddness::Amm a2 = golden_v2::alpha_v2().amm;
  std::vector<std::int16_t> out = a1.apply_int16(golden::probe(a1));
  const auto v2out = a2.apply_int16(golden::probe(a2));
  out.insert(out.end(), v2out.begin(), v2out.end());
  std::ofstream os(golden_v2::outputs_path());
  for (std::size_t i = 0; i < out.size(); ++i)
    os << out[i] << ((i + 1) % 8 == 0 ? "\n" : " ");
}

// -------------------------------- replay across the hot-swap boundary

// A crash that straddles a version hot-swap: requests admitted before
// the swap pinned alpha@1, requests after it pinned alpha@2, and some
// of each were never acknowledged. The journal's model-tagged accept
// records must replay every lost request on the exact bank it pinned —
// old ids bit-exact vs the old bank, new ids vs the new — even though
// the restored server's "latest" is the new version.
TEST(Recovery, HardCrashReplayAcrossHotSwapBoundaryIsBitExact) {
  const std::uint64_t seed = test_seed();
  SCOPED_TRACE(seed_trace(seed));
  const ServeFixture old_fx = ServeFixture::make(4, 8, 256, 7);
  const ServeFixture new_fx = ServeFixture::make(4, 8, 256, 99);
  TmpDir dir("swap");
  const std::string journal_path = dir.file("requests.jnl");
  constexpr std::size_t kBeforeSwap = 12;
  constexpr std::size_t kAfterSwap = 12;

  const auto expected_on = [&](const maddness::Amm& amm,
                               const std::vector<std::uint8_t>& codes,
                               std::size_t rows) {
    maddness::QuantizedActivations q;
    q.rows = rows;
    q.cols = old_fx.pool.cols;
    q.scale = old_fx.pool.scale;
    q.codes = codes;
    return amm.apply_int16(q);
  };

  {
    FaultInjector fault(seed);
    CheckpointManager ckpts(dir.str(), &fault);
    RequestJournal journal(journal_path);

    // The single shard dies early: most requests stay unacknowledged.
    FaultPlan kill;
    kill.site = FaultSite::kExecute;
    kill.kind = FaultKind::kKillShard;
    kill.fire_at = 3;
    fault.arm(kill);

    ServerOptions opts;
    opts.num_workers = 1;
    opts.queue_capacity = 4 * (kBeforeSwap + kAfterSwap);
    opts.batcher.max_batch_tokens = 2;
    opts.batcher.max_wait = std::chrono::microseconds(0);
    opts.recovery.fault = &fault;
    opts.recovery.journal = &journal;
    opts.recovery.checkpoints = &ckpts;
    opts.recovery.supervise = false;  // a crash is a crash
    InferenceServer server(opts);
    server.register_model("alpha", old_fx.amm);

    std::vector<std::future<InferenceResult>> futs;
    for (std::size_t id = 0; id < kBeforeSwap; ++id)
      futs.push_back(server.submit("alpha", old_fx.codes_for(id), 1));
    // Hot-swap mid-journal: the registration checkpoint makes v2
    // durable before any v2-pinned request can be journaled.
    EXPECT_EQ(server.register_model("alpha", new_fx.amm), 2u);
    for (std::size_t id = 0; id < kAfterSwap; ++id)
      futs.push_back(server.submit("alpha", old_fx.codes_for(id), 1));
    server.shutdown();
    std::size_t failed = 0;
    for (auto& fut : futs) {
      try {
        fut.get();
      } catch (const std::runtime_error&) {
        failed++;
      }
    }
    EXPECT_GT(failed, 0u) << "the crash should strand requests";
  }

  // ----- restart -----
  CheckpointManager ckpts(dir.str());
  const auto rs = recovery::recover_state(ckpts, journal_path);
  ASSERT_TRUE(rs.has_checkpoint());
  ASSERT_FALSE(rs.checkpoint.is_v1());
  ASSERT_FALSE(rs.journal.unacknowledged.empty());

  RequestJournal journal(journal_path);
  ServerOptions opts;
  opts.num_workers = 2;
  opts.recovery.journal = &journal;
  opts.recovery.checkpoints = &ckpts;
  auto server = InferenceServer::restore(rs, opts);
  EXPECT_EQ(server->registry().latest_version("alpha"), 2u);
  EXPECT_EQ(server->registry().versions("alpha"),
            (std::vector<std::uint64_t>{1, 2}));

  auto futs = server->replay(rs.journal.unacknowledged);
  ASSERT_EQ(futs.size(), rs.journal.unacknowledged.size());
  std::size_t replayed_old = 0, replayed_new = 0;
  for (std::size_t i = 0; i < futs.size(); ++i) {
    const AcceptedRecord& rec = rs.journal.unacknowledged[i];
    EXPECT_EQ(rec.model, "alpha");
    const bool pre_swap = rec.id < kBeforeSwap;
    EXPECT_EQ(rec.model_version, pre_swap ? 1u : 2u)
        << "journal lost the pinned version for request " << rec.id;
    const InferenceResult res = futs[i].get();
    EXPECT_EQ(res.model_version, rec.model_version);
    const maddness::Amm& bank = pre_swap ? old_fx.amm : new_fx.amm;
    EXPECT_EQ(res.outputs, expected_on(bank, rec.codes, rec.rows))
        << "replayed request " << rec.id
        << " diverged from its pinned bank";
    (pre_swap ? replayed_old : replayed_new)++;
  }
  // The crash landed inside the pre-swap stream, so everything after it
  // — including every post-swap request — replays.
  EXPECT_GT(replayed_old, 0u);
  EXPECT_EQ(replayed_new, kAfterSwap);
  server->shutdown();

  // Ack CRCs audit both sides of the boundary to the bit.
  const auto after = RequestJournal::read(journal_path);
  EXPECT_TRUE(after.unacknowledged.empty());
  for (std::size_t id = 0; id < kBeforeSwap + kAfterSwap; ++id) {
    const auto it = after.completed_crc.find(id);
    ASSERT_NE(it, after.completed_crc.end()) << "request " << id;
    const bool pre_swap = id < kBeforeSwap;
    const maddness::Amm& bank = pre_swap ? old_fx.amm : new_fx.amm;
    const auto want = expected_on(
        bank, old_fx.codes_for(pre_swap ? id : id - kBeforeSwap), 1);
    EXPECT_EQ(it->second,
              maddness::crc32(want.data(),
                              want.size() * sizeof(std::int16_t)))
        << "acknowledged output CRC mismatch for request " << id;
  }
}

// Two 2-stage dense pipelines with identical shapes (36 -> 36 -> 12)
// but different trained banks: the hot-swap pair for the pipeline
// replay test. Served through the fused ExecutionPlan (the server's
// default engine), so replay exercises the fused interior handoff.
struct SwapPipelines {
  maddness::Amm old_s0, old_s1, new_s0, new_s1;
  maddness::QuantizedActivations pool;

  static SwapPipelines make(std::uint64_t seed) {
    SwapPipelines p;
    const auto train = [](std::uint64_t s, maddness::Amm* s0,
                          maddness::Amm* s1) {
      Rng rng(s);
      Matrix calib(384, 36);
      for (std::size_t i = 0; i < calib.size(); ++i)
        calib.data()[i] = static_cast<float>(rng.next_double(0, 200));
      Matrix w0(36, 36), w1(36, 12);
      for (std::size_t i = 0; i < w0.size(); ++i)
        w0.data()[i] = static_cast<float>(rng.next_gaussian(0, 0.08));
      for (std::size_t i = 0; i < w1.size(); ++i)
        w1.data()[i] = static_cast<float>(rng.next_gaussian(0, 0.08));
      maddness::Config cfg;
      cfg.ncodebooks = 4;
      Matrix mid;
      *s0 = engine::train_chained_stage(cfg, calib, w0, &mid);
      *s1 = engine::train_chained_stage(cfg, mid, w1, nullptr);
    };
    train(seed, &p.old_s0, &p.old_s1);
    train(seed + 1000003, &p.new_s0, &p.new_s1);
    Rng rng(seed + 7);
    Matrix fresh(64, 36);
    for (std::size_t i = 0; i < fresh.size(); ++i)
      fresh.data()[i] = static_cast<float>(rng.next_double(0, 200));
    p.pool = maddness::quantize_activations(fresh,
                                            p.old_s0.activation_scale());
    return p;
  }

  std::vector<std::uint8_t> codes_for(std::size_t id) const {
    const std::size_t r = id % pool.rows;
    return std::vector<std::uint8_t>(pool.row(r),
                                     pool.row(r) + pool.cols);
  }
};

TEST(Recovery, PipelineReplayAcrossHotSwapIsBitExactThroughFusedPlan) {
  const std::uint64_t seed = test_seed();
  SCOPED_TRACE(seed_trace(seed));
  const SwapPipelines px = SwapPipelines::make(seed);
  // Reference handles mirroring the server's two registered versions;
  // pipeline_reference_apply is the materializing scalar oracle the
  // fused serve path must match bit for bit.
  const engine::ModelRef ref_v1 = engine::ModelHandle::from_stages(
      "pipe", 1, {&px.old_s0, &px.old_s1});
  const engine::ModelRef ref_v2 = engine::ModelHandle::from_stages(
      "pipe", 2, {&px.new_s0, &px.new_s1});
  const auto expected_on = [&](const engine::ModelHandle& model,
                               const std::vector<std::uint8_t>& codes,
                               std::size_t rows) {
    maddness::QuantizedActivations q;
    q.rows = rows;
    q.cols = px.pool.cols;
    q.scale = px.pool.scale;
    q.codes = codes;
    return engine::pipeline_reference_apply(model, q);
  };

  TmpDir dir("pipeswap");
  const std::string journal_path = dir.file("requests.jnl");
  constexpr std::size_t kBeforeSwap = 10;
  constexpr std::size_t kAfterSwap = 10;
  {
    FaultInjector fault(seed);
    CheckpointManager ckpts(dir.str(), &fault);
    RequestJournal journal(journal_path);
    FaultPlan kill;
    kill.site = FaultSite::kExecute;
    kill.kind = FaultKind::kKillShard;
    kill.fire_at = 3;
    fault.arm(kill);

    ServerOptions opts;
    opts.num_workers = 1;
    opts.queue_capacity = 4 * (kBeforeSwap + kAfterSwap);
    opts.batcher.max_batch_tokens = 2;
    opts.batcher.max_wait = std::chrono::microseconds(0);
    opts.recovery.fault = &fault;
    opts.recovery.journal = &journal;
    opts.recovery.checkpoints = &ckpts;
    opts.recovery.supervise = false;
    InferenceServer server(opts);
    server.register_pipeline("pipe", {&px.old_s0, &px.old_s1});

    std::vector<std::future<InferenceResult>> futs;
    for (std::size_t id = 0; id < kBeforeSwap; ++id)
      futs.push_back(server.submit("pipe", px.codes_for(id), 1));
    EXPECT_EQ(server.register_pipeline("pipe", {&px.new_s0, &px.new_s1}),
              2u);
    for (std::size_t id = 0; id < kAfterSwap; ++id)
      futs.push_back(server.submit("pipe", px.codes_for(id), 1));
    server.shutdown();
    std::size_t failed = 0;
    for (auto& fut : futs) {
      try {
        fut.get();
      } catch (const std::runtime_error&) {
        failed++;
      }
    }
    EXPECT_GT(failed, 0u) << "the crash should strand requests";
  }

  // ----- restart: replay every stranded request on its pinned bank -----
  CheckpointManager ckpts(dir.str());
  const auto rs = recovery::recover_state(ckpts, journal_path);
  ASSERT_TRUE(rs.has_checkpoint());
  ASSERT_FALSE(rs.journal.unacknowledged.empty());

  RequestJournal journal(journal_path);
  ServerOptions opts;
  opts.num_workers = 2;
  opts.recovery.journal = &journal;
  opts.recovery.checkpoints = &ckpts;
  auto server = InferenceServer::restore(rs, opts);
  EXPECT_EQ(server->registry().latest_version("pipe"), 2u);
  EXPECT_TRUE(server->registry().resolve("pipe@1")->is_pipeline());

  auto futs = server->replay(rs.journal.unacknowledged);
  ASSERT_EQ(futs.size(), rs.journal.unacknowledged.size());
  std::size_t replayed_new = 0;
  for (std::size_t i = 0; i < futs.size(); ++i) {
    const AcceptedRecord& rec = rs.journal.unacknowledged[i];
    const bool pre_swap = rec.id < kBeforeSwap;
    EXPECT_EQ(rec.model_version, pre_swap ? 1u : 2u)
        << "journal lost the pinned version for request " << rec.id;
    const InferenceResult res = futs[i].get();
    EXPECT_EQ(res.model_version, rec.model_version);
    const engine::ModelHandle& model = pre_swap ? *ref_v1 : *ref_v2;
    EXPECT_EQ(res.outputs, expected_on(model, rec.codes, rec.rows))
        << "replayed pipeline request " << rec.id
        << " diverged from its pinned banks";
    if (!pre_swap) replayed_new++;
  }
  EXPECT_EQ(replayed_new, kAfterSwap);
  server->shutdown();

  // Ack CRCs audit both sides of the boundary against the reference.
  const auto after = RequestJournal::read(journal_path);
  EXPECT_TRUE(after.unacknowledged.empty());
  for (std::size_t id = 0; id < kBeforeSwap + kAfterSwap; ++id) {
    const auto it = after.completed_crc.find(id);
    ASSERT_NE(it, after.completed_crc.end()) << "request " << id;
    const bool pre_swap = id < kBeforeSwap;
    const auto want = expected_on(
        pre_swap ? *ref_v1 : *ref_v2,
        px.codes_for(pre_swap ? id : id - kBeforeSwap), 1);
    EXPECT_EQ(it->second,
              maddness::crc32(want.data(),
                              want.size() * sizeof(std::int16_t)))
        << "acknowledged output CRC mismatch for request " << id;
  }
}

// -------------------- cross-process leader-kill failover matrix

// The crash-at-every-point matrix, taken across the process boundary:
// a forked child process IS the leader (journal + checkpoints +
// ReplicationLog + serving loop), the parent runs the follower, and an
// armed kKillProcess fault std::_Exit(9)s the leader at each pipeline
// site in turn. The parent then promotes and proves the zero-RPO
// contract: in sync mode every request the dead leader acknowledged is
// answered byte-identically by the promoted follower; in window mode
// loss is bounded by the watermark; in async mode whatever replicated
// is still byte-exact. "Byte-identical" is checked two ways at once —
// the client-visible CRC the child logged must equal both the
// independently recomputed fault-free reference AND the promoted
// follower's completion record.
namespace failover {

/// Deterministic fixtures both processes reconstruct from constants.
ServeFixture fixture_v1() { return ServeFixture::make(4, 8, 64, 1234); }
ServeFixture fixture_v2() { return ServeFixture::make(4, 8, 64, 5678); }

std::vector<std::int16_t> expected_on(
    const maddness::Amm& amm, const maddness::QuantizedActivations& pool,
    const std::vector<std::uint8_t>& codes) {
  maddness::QuantizedActivations q;
  q.rows = 1;
  q.cols = pool.cols;
  q.scale = pool.scale;
  q.codes = codes;
  return amm.apply_int16(q);
}

struct AckedLine {
  std::uint64_t id = 0;
  std::uint64_t version = 0;
  std::uint32_t crc = 0;
};

/// Parses the child's ack log, dropping a torn (newline-less) tail the
/// way the journal reader drops a torn record.
std::vector<AckedLine> read_acked(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream oss;
  oss << is.rdbuf();
  std::string all = oss.str();
  const std::size_t last_nl = all.find_last_of('\n');
  if (last_nl == std::string::npos) return {};
  all.resize(last_nl);
  std::vector<AckedLine> out;
  std::istringstream lines(all);
  std::string line;
  while (std::getline(lines, line)) {
    std::istringstream ls(line);
    AckedLine a;
    if (ls >> a.id >> a.version >> a.crc) out.push_back(a);
  }
  return out;
}

}  // namespace failover

// The child's main: becomes a replicated leader, publishes its port,
// arms the kill, then serves until the fault takes the process down.
// Driver-only — the Failover matrix forks and execs this by filter.
TEST(Failover, DISABLED_LeaderChildMain) {
  const char* dir_env = std::getenv("SSMA_LEADER_DIR");
  if (dir_env == nullptr) GTEST_SKIP() << "driver-only child";
  const std::string dir = dir_env;
  const int site = std::atoi(std::getenv("SSMA_KILL_SITE"));
  const std::uint64_t fire_after =
      std::strtoull(std::getenv("SSMA_KILL_FIRE"), nullptr, 0);
  const int ack_mode = std::atoi(std::getenv("SSMA_ACK_MODE"));
  const bool swap = std::getenv("SSMA_HOT_SWAP") != nullptr;

  const ServeFixture f = failover::fixture_v1();
  FaultInjector fault(test_seed());
  CheckpointManager ckpts(dir + "/ckpts", &fault);
  RequestJournal journal(dir + "/journal.ssj");

  serve::replication::ReplicationOptions ropts;
  ropts.ack_mode = static_cast<serve::replication::AckMode>(ack_mode);
  ropts.window = 4;
  // Generous: with a live follower this never trips, and the matrix
  // must not let a slow sanitizer run degrade a sync ack (that would
  // forge an acked-but-unreplicated line and fail the parent).
  ropts.ack_timeout = std::chrono::milliseconds(20000);
  ropts.fault = &fault;
  serve::replication::ReplicationLog repl(journal, &ckpts, ropts);

  // Publish the port via atomic rename so the parent never reads a
  // half-written file.
  {
    const std::string tmp = dir + "/port.tmp";
    std::ofstream os(tmp);
    os << repl.port();
    os.close();
    std::filesystem::rename(tmp, dir + "/port");
  }

  ServerOptions opts;
  opts.num_workers = 1;  // serialized: the ack log order is the id order
  opts.queue_capacity = 1024;
  opts.batcher.max_batch_tokens = 1;
  opts.batcher.max_wait = std::chrono::microseconds(0);
  opts.recovery.journal = &journal;
  opts.recovery.checkpoints = &ckpts;
  opts.recovery.checkpoint_every = 4;
  opts.recovery.fault = &fault;
  opts.recovery.replication = &repl;
  InferenceServer server(opts);
  server.register_model("m", f.amm);

  if (!repl.wait_follower(1, std::chrono::milliseconds(20000)))
    std::_Exit(7);  // parent fails the scenario on any non-9 exit

  // Arm only now: the handshake's checkpoint ship polls kReplSend too,
  // and the matrix wants the kill inside the steady-state stream.
  FaultPlan kill;
  kill.site = static_cast<FaultSite>(site);
  kill.kind = FaultKind::kKillProcess;
  kill.fire_at = fault.polls(kill.site) + fire_after;
  fault.arm(kill);

  std::ofstream acked(dir + "/acked.txt", std::ios::binary);
  const ServeFixture v2 = failover::fixture_v2();
  for (std::size_t i = 0; i < 200; ++i) {
    if (swap && i == 8) server.register_model("m", v2.amm);
    const InferenceResult res =
        server.submit("m", f.codes_for(i), 1).get();
    const std::uint32_t crc = maddness::crc32(
        res.outputs.data(), res.outputs.size() * sizeof(std::int16_t));
    acked << res.request_id << ' ' << res.model_version << ' ' << crc
          << '\n'
          << std::flush;
  }
  std::_Exit(6);  // the armed fault never fired
}

TEST(Failover, KillLeaderAtEverySitePromoteByteIdentical) {
  const std::uint64_t seed = test_seed();
  SCOPED_TRACE(seed_trace(seed));
  using serve::replication::AckMode;
  const ServeFixture f = failover::fixture_v1();
  const ServeFixture v2 = failover::fixture_v2();

  struct Scenario {
    const char* name;
    FaultSite site;
    std::uint64_t fire_after;  ///< polls of `site` past the handshake
    AckMode ack;
    bool swap;
  };
  const Scenario scenarios[] = {
      {"enqueue/sync", FaultSite::kEnqueue, 13, AckMode::kSync, false},
      {"batch/sync", FaultSite::kBatchFormed, 13, AckMode::kSync, false},
      {"execute/sync", FaultSite::kExecute, 13, AckMode::kSync, false},
      {"ack/sync", FaultSite::kAck, 13, AckMode::kSync, false},
      {"checkpoint/sync", FaultSite::kCheckpointWrite, 3, AckMode::kSync,
       false},
      {"replsend/sync", FaultSite::kReplSend, 21, AckMode::kSync, false},
      {"execute/window", FaultSite::kExecute, 13, AckMode::kWindow, false},
      {"replsend/window", FaultSite::kReplSend, 21, AckMode::kWindow,
       false},
      {"execute/async", FaultSite::kExecute, 13, AckMode::kAsync, false},
      {"execute/sync/hotswap", FaultSite::kExecute, 25, AckMode::kSync,
       true},
  };

  for (const Scenario& sc : scenarios) {
    SCOPED_TRACE(sc.name);
    TmpDir dir("failover");
    const std::string leader_dir = dir.file("leader");
    std::filesystem::create_directories(leader_dir);

    const pid_t pid = ::fork();
    ASSERT_NE(pid, -1);
    if (pid == 0) {
      // Child: become the leader. exec replaces the image, so the
      // forked copy of this test never runs its assertions.
      ::setenv("SSMA_LEADER_DIR", leader_dir.c_str(), 1);
      ::setenv("SSMA_KILL_SITE",
               std::to_string(static_cast<int>(sc.site)).c_str(), 1);
      ::setenv("SSMA_KILL_FIRE", std::to_string(sc.fire_after).c_str(),
               1);
      ::setenv("SSMA_ACK_MODE",
               std::to_string(static_cast<int>(sc.ack)).c_str(), 1);
      if (sc.swap) ::setenv("SSMA_HOT_SWAP", "1", 1);
      ::execl("/proc/self/exe", "test_recovery",
              "--gtest_filter=Failover.DISABLED_LeaderChildMain",
              "--gtest_also_run_disabled_tests",
              static_cast<char*>(nullptr));
      std::_Exit(127);  // exec failed
    }

    // Wait for the leader to publish its port.
    const std::string port_file = leader_dir + "/port";
    std::uint16_t port = 0;
    for (int i = 0; i < 3000 && port == 0; ++i) {
      if (std::filesystem::exists(port_file)) {
        std::ifstream is(port_file);
        int p = 0;
        is >> p;
        port = static_cast<std::uint16_t>(p);
      } else {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    }
    if (port == 0) ::kill(pid, SIGKILL);
    ASSERT_NE(port, 0) << "leader child never published a port";

    serve::replication::ApplierOptions aopts;
    aopts.leader_port = port;
    aopts.dir = dir.file("follower");
    aopts.server.num_workers = 2;
    serve::replication::ReplicaApplier applier(aopts);

    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status));
    ASSERT_EQ(WEXITSTATUS(status), 9)
        << "leader child did not die at the armed site (7 = follower "
           "never connected, 6 = fault never fired, 127 = exec failed)";

    // Drain: once the death of the connection is observed, everything
    // the follower received is already durable and applied.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (applier.stats().connected &&
           std::chrono::steady_clock::now() < deadline)
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    ASSERT_TRUE(applier.wait_standby(std::chrono::milliseconds(10000)))
        << "no checkpoint ever reached the follower";

    serve::replication::PromotionReport rep;
    auto promoted = applier.promote(&rep);
    ASSERT_NE(promoted, nullptr);
    EXPECT_EQ(rep.crc_mismatches, 0u)
        << "replayed outputs diverged from the leader's replicated acks";
    EXPECT_EQ(rep.replay_failures, 0u);

    const auto acked = failover::read_acked(leader_dir + "/acked.txt");
    EXPECT_GT(acked.size(), 0u)
        << "the leader died before acknowledging anything; the "
           "scenario shows nothing";
    const auto follower_replay =
        RequestJournal::read(applier.journal_path());
    std::size_t missing = 0;
    for (const failover::AckedLine& a : acked) {
      // The client-visible bytes were the fault-free reference...
      const maddness::Amm& bank = a.version == 2 ? v2.amm : f.amm;
      const auto want = failover::expected_on(
          bank, f.pool, f.codes_for(static_cast<std::size_t>(a.id)));
      const std::uint32_t want_crc = maddness::crc32(
          want.data(), want.size() * sizeof(std::int16_t));
      ASSERT_EQ(a.crc, want_crc)
          << "leader acked non-reference bytes for id " << a.id;
      // ...and the promoted follower holds the identical CRC (replayed
      // or backfilled) for every replicated request.
      const auto it = follower_replay.completed_crc.find(a.id);
      if (it == follower_replay.completed_crc.end()) {
        missing++;
        continue;
      }
      EXPECT_EQ(it->second, want_crc)
          << "promoted follower diverged on acked id " << a.id;
    }
    if (sc.ack == AckMode::kSync) {
      EXPECT_EQ(missing, 0u)
          << "zero-RPO violated: " << missing << " of " << acked.size()
          << " acked requests lost in sync mode";
    } else if (sc.ack == AckMode::kWindow) {
      EXPECT_LE(missing, 4u)
          << "window mode lost more than the watermark bound";
    } else {
      // Async: loss is unbounded by contract but measured here.
      EXPECT_LE(missing, acked.size());
    }

    if (sc.swap) {
      EXPECT_EQ(promoted->registry().versions("m"),
                (std::vector<std::uint64_t>{1, 2}))
          << "hot-swap registry map did not replicate";
      EXPECT_EQ(promoted->registry().latest_version("m"), 2u);
    }

    // The promoted follower serves fresh traffic bit-exact on the
    // latest bank, with ids past the dead leader's watermark.
    const InferenceResult res =
        promoted->submit("m", f.codes_for(3), 1).get();
    const maddness::Amm& latest = sc.swap ? v2.amm : f.amm;
    EXPECT_EQ(res.outputs,
              failover::expected_on(latest, f.pool, f.codes_for(3)));
    if (sc.ack == AckMode::kSync && !acked.empty()) {
      EXPECT_GT(res.request_id, acked.back().id)
          << "promoted server reused an id the dead leader handed out";
    }
    promoted->shutdown();
  }
}

// Not a test: regenerates the golden fixture after a deliberate format
// bump. Keep the constants above in sync.
TEST(Recovery, DISABLED_RegenerateGoldenCheckpoint) {
  const ServeFixture f = golden::fixture();
  std::ostringstream blob;
  f.amm.save(blob);
  CheckpointState st;
  st.amm_blob = blob.str();
  st.next_request_id = golden::kNextId;
  st.accepted_requests = golden::kAccepted;
  st.completed_requests = golden::kCompleted;
  st.tokens = golden::kTokens;
  st.batches = golden::kBatches;
  CheckpointManager::write_file(golden::checkpoint_path(),
                                golden::kVersion, st);

  const auto out = f.amm.apply_int16(golden::probe(f.amm));
  std::ofstream os(golden::outputs_path());
  for (std::size_t i = 0; i < out.size(); ++i)
    os << out[i] << ((i + 1) % 8 == 0 ? "\n" : " ");
}

}  // namespace
}  // namespace ssma::serve
