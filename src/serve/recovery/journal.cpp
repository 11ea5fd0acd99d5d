#include "serve/recovery/journal.hpp"

#include <algorithm>
#include <filesystem>
#include <unordered_set>

#include "maddness/framing.hpp"
#include "util/check.hpp"
#include "util/wire.hpp"

namespace ssma::serve::recovery {

namespace {

constexpr char kMagic[8] = {'S', 'S', 'M', 'A', 'J', 'N', 'L', '1'};
constexpr std::uint8_t kAccepted = 1;
constexpr std::uint8_t kCompleted = 2;
constexpr std::uint8_t kAcceptedV2 = 3;  ///< model-tagged accept
/// Compaction marker: the first frame of a compacted file, carrying the
/// (base_seq, base_bytes) the pruned prefix occupied. Not a record — it
/// has no sequence number and is skipped by read().
constexpr std::uint8_t kCompacted = 4;

/// Marker frame: type byte + base_seq + base_bytes.
std::string marker_frame(std::uint64_t base_seq, std::uint64_t base_bytes) {
  return maddness::build_frame(17, [&](wire::Writer& w) {
    w.put_u8(kCompacted);
    w.put_u64(base_seq);
    w.put_u64(base_bytes);
  });
}

bool parse_marker(const std::string& payload, std::uint64_t* base_seq,
                  std::uint64_t* base_bytes) {
  wire::Cursor c(payload);
  std::uint8_t type = 0;
  return payload.size() == 17 && c.u8(&type) && type == kCompacted &&
         c.u64(base_seq) && c.u64(base_bytes);
}

}  // namespace

RequestJournal::RequestJournal(const std::string& path) : path_(path) {
  // Append mode keeps an existing journal's history (a recovered server
  // keeps journaling into the same log); a fresh file gets the magic.
  // A file torn inside the magic itself (crash during creation — no
  // record can precede it) is rewritten from scratch; a full 8 bytes of
  // something else is a foreign file we refuse to clobber.
  char probe_magic[8];
  std::streamsize have = 0;
  {
    std::ifstream probe(path, std::ios::binary);
    if (probe.is_open()) {
      probe.read(probe_magic, sizeof(probe_magic));
      have = probe.gcount();
    }
  }
  const bool prefix_ok =
      std::equal(probe_magic, probe_magic + have, kMagic);
  SSMA_CHECK_MSG(prefix_ok || have < 8,
                 "not an SSMA journal: " << path);
  const bool fresh = have < 8;
  if (!fresh) {
    // Seed the sequence counter from the existing records so a
    // recovered leader keeps handing out file positions a resuming
    // follower can trust. A torn tail — the half-written record of the
    // crash itself — is not a record: truncate the file back to the
    // last whole frame before reopening for append. (Append mode would
    // otherwise write new records AFTER the torn bytes; readers stop at
    // the first bad frame, so every post-restart record would be
    // invisible to recovery and a resuming follower could never stream
    // past the tear.)
    std::streampos last_good;
    std::streampos end;
    {
      std::ifstream is(path, std::ios::binary);
      is.ignore(8);
      std::string payload;
      last_good = is.tellg();
      bool first = true;
      while (maddness::try_read_framed_blob(is, &payload)) {
        if (first) {
          first = false;
          std::uint64_t bs = 0, bb = 0;
          // A compacted file leads with its marker frame: adopt the
          // base so sequence numbers and virtual offsets continue the
          // pre-compaction addressing.
          if (parse_marker(payload, &bs, &bb)) {
            base_seq_ = bs;
            base_bytes_ = bb;
            seq_ = bs;
            header_bytes_ = static_cast<std::uint64_t>(is.tellg());
            generation_ = 1;
            last_good = is.tellg();
            continue;
          }
        }
        ++seq_;
        last_good = is.tellg();
      }
      is.clear();
      is.seekg(0, std::ios::end);
      end = is.tellg();
    }
    if (end > last_good)
      std::filesystem::resize_file(
          path, static_cast<std::uintmax_t>(
                    static_cast<std::streamoff>(last_good)));
    bytes_ = base_bytes_ +
             (static_cast<std::uint64_t>(last_good) - header_bytes_);
  }
  os_.open(path, fresh ? std::ios::binary | std::ios::trunc
                       : std::ios::binary | std::ios::app);
  SSMA_CHECK_MSG(os_.is_open(), "cannot open journal " << path);
  if (fresh) {
    os_.write(kMagic, sizeof(kMagic));
    os_.flush();
    bytes_ = 8;
  }
}

std::uint64_t RequestJournal::append_frame(const std::string& frame) {
  std::lock_guard<std::mutex> lock(mu_);
  // One write per record, flushed: the journal is only useful if it
  // survives the crash it exists to cover. (OS-level fsync durability
  // is out of scope for the in-process model; flush makes records
  // visible to a same-host reader immediately.)
  os_.write(frame.data(), static_cast<std::streamsize>(frame.size()));
  os_.flush();
  SSMA_CHECK_MSG(os_.good(), "journal append failure on " << path_);
  const std::uint64_t seq = ++seq_;
  bytes_ += frame.size();
  if (hook_) hook_(seq, bytes_);
  return seq;
}

std::uint64_t RequestJournal::append_raw(const std::string& payload) {
  return append_frame(
      maddness::build_frame(payload.size(), [&](wire::Writer& w) {
        w.put_bytes(payload.data(), payload.size());
      }));
}

std::uint64_t RequestJournal::durable_seq() const {
  std::lock_guard<std::mutex> lock(mu_);
  return seq_;
}

std::uint64_t RequestJournal::durable_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_;
}

RequestJournal::CompactionInfo RequestJournal::compaction_info() const {
  std::lock_guard<std::mutex> lock(mu_);
  return {base_seq_, base_bytes_, header_bytes_, generation_};
}

std::uint64_t RequestJournal::compact(std::uint64_t max_seq) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::uint64_t bound = std::min(max_seq, seq_);
  if (bound <= base_seq_) return 0;
  os_.flush();

  // One streaming pass over the live file (every frame CRC-checked as
  // it is read) keeps per-record metadata only, plus the set of ids
  // with a completion record ANYWHERE in the journal (a prefix record's
  // ack may live past the prune point; pruning the accept but keeping
  // the ack is fine — read() tolerates an ack with no accept).
  struct Meta {
    std::uint64_t frame_bytes;
    std::uint64_t accepted_id;
    bool parsed;
    bool is_accepted;
  };
  std::vector<Meta> records;
  records.reserve(static_cast<std::size_t>(seq_ - base_seq_));
  std::unordered_set<std::uint64_t> completed;
  std::uint64_t live_bytes = 0;
  {
    std::ifstream is(path_, std::ios::binary);
    SSMA_CHECK_MSG(is.is_open(), "cannot reopen journal " << path_);
    is.seekg(static_cast<std::streamoff>(header_bytes_));
    std::string payload;
    ParsedRecord rec;
    while (maddness::try_read_framed_blob(is, &payload)) {
      const bool parsed = parse_record(payload, &rec);
      if (parsed && !rec.is_accepted) completed.insert(rec.completed_id);
      records.push_back({maddness::kFrameHeaderBytes + payload.size(),
                         rec.accepted.id, parsed,
                         parsed && rec.is_accepted});
      live_bytes += records.back().frame_bytes;
    }
  }
  SSMA_CHECK_MSG(records.size() == seq_ - base_seq_,
                 "journal " << path_ << " holds " << records.size()
                            << " records, expected " << seq_ - base_seq_);

  // Longest fully-acknowledged prefix ending at or before the bound.
  std::uint64_t new_base = base_seq_;
  std::uint64_t pruned_bytes = 0;
  for (std::uint64_t s = base_seq_ + 1; s <= bound; ++s) {
    const Meta& m = records[s - base_seq_ - 1];
    SSMA_CHECK_MSG(m.parsed,
                   "unparsable journal record " << s << " in " << path_);
    if (m.is_accepted && !completed.count(m.accepted_id)) break;
    new_base = s;
    pruned_bytes += m.frame_bytes;
  }
  if (new_base <= base_seq_) return 0;
  const std::uint64_t pruned = new_base - base_seq_;

  // Atomic rewrite: magic + marker, then the surviving frames copied
  // byte-for-byte, into a temp file renamed over the original. A crash
  // leaves old or new, never a mix.
  const std::string marker =
      marker_frame(new_base, base_bytes_ + pruned_bytes);
  const std::string tmp = path_ + ".compact";
  {
    std::ifstream is(path_, std::ios::binary);
    SSMA_CHECK_MSG(is.is_open(), "cannot reopen journal " << path_);
    is.seekg(static_cast<std::streamoff>(header_bytes_ + pruned_bytes));
    std::ofstream ns(tmp, std::ios::binary | std::ios::trunc);
    SSMA_CHECK_MSG(ns.is_open(), "cannot open " << tmp);
    ns.write(kMagic, sizeof(kMagic));
    ns.write(marker.data(), static_cast<std::streamsize>(marker.size()));
    std::string chunk(std::size_t{1} << 16, '\0');
    for (std::uint64_t left = live_bytes - pruned_bytes; left > 0;) {
      const auto n = static_cast<std::streamsize>(
          std::min<std::uint64_t>(left, chunk.size()));
      is.read(chunk.data(), n);
      SSMA_CHECK_MSG(is.gcount() == n,
                     "journal " << path_ << " shrank during compaction");
      ns.write(chunk.data(), n);
      left -= static_cast<std::uint64_t>(n);
    }
    ns.flush();
    SSMA_CHECK_MSG(ns.good(), "compaction write failure on " << tmp);
  }
  os_.close();
  std::filesystem::rename(tmp, path_);
  os_.open(path_, std::ios::binary | std::ios::app);
  SSMA_CHECK_MSG(os_.is_open(), "cannot reopen journal " << path_);
  base_seq_ = new_base;
  base_bytes_ += pruned_bytes;
  header_bytes_ = sizeof(kMagic) + marker.size();
  ++generation_;
  // seq_/bytes_ are virtual and unchanged: appends, the commit hook and
  // the replication handshake keep their pre-compaction addressing.
  return pruned;
}

void RequestJournal::adopt_base(std::uint64_t base_seq,
                                std::uint64_t base_bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  SSMA_CHECK_MSG(seq_ == 0 && base_seq_ == 0,
                 "adopt_base on non-empty journal " << path_
                                                    << " (durable seq "
                                                    << seq_ << ")");
  SSMA_CHECK(base_seq >= 1 && base_bytes >= 8);
  const std::string marker = marker_frame(base_seq, base_bytes);
  os_.write(marker.data(), static_cast<std::streamsize>(marker.size()));
  os_.flush();
  SSMA_CHECK_MSG(os_.good(), "journal append failure on " << path_);
  base_seq_ = base_seq;
  base_bytes_ = base_bytes;
  seq_ = base_seq;
  bytes_ = base_bytes;
  header_bytes_ = sizeof(kMagic) + marker.size();
  ++generation_;
}

void RequestJournal::set_commit_hook(CommitHook hook) {
  std::lock_guard<std::mutex> lock(mu_);
  hook_ = std::move(hook);
}

std::uint64_t RequestJournal::append_accepted(
    std::uint64_t id, std::size_t rows,
    const std::vector<std::uint8_t>& codes) {
  return append_frame(
      maddness::build_frame(25 + codes.size(), [&](wire::Writer& w) {
        w.put_u8(kAccepted);
        w.put_u64(id);
        w.put_u64(rows);
        w.put_u64(codes.size());
        w.put_array(codes.data(), codes.size());
      }));
}

std::uint64_t RequestJournal::append_accepted(
    std::uint64_t id, const std::string& model,
    std::uint64_t model_version, std::size_t rows,
    const std::vector<std::uint8_t>& codes) {
  return append_frame(maddness::build_frame(
      41 + model.size() + codes.size(), [&](wire::Writer& w) {
        w.put_u8(kAcceptedV2);
        w.put_u64(id);
        w.put_str64(model);
        w.put_u64(model_version);
        w.put_u64(rows);
        w.put_u64(codes.size());
        w.put_array(codes.data(), codes.size());
      }));
}

std::uint64_t RequestJournal::append_completed(std::uint64_t id,
                                               int worker_id,
                                               std::uint32_t output_crc) {
  return append_frame(maddness::build_frame(17, [&](wire::Writer& w) {
    w.put_u8(kCompleted);
    w.put_u64(id);
    w.put_u32(static_cast<std::uint32_t>(worker_id));
    w.put_u32(output_crc);
  }));
}

bool RequestJournal::parse_record(const std::string& payload,
                                  ParsedRecord* out) {
  wire::Cursor c(payload);
  std::uint8_t type = 0;
  if (!c.u8(&type)) return false;
  if (type == kAccepted || type == kAcceptedV2) {
    out->is_accepted = true;
    AcceptedRecord& rec = out->accepted;
    std::uint64_t rows = 0, ncodes = 0;
    if (!c.u64(&rec.id)) return false;
    if (type == kAcceptedV2) {
      if (!c.str64(&rec.model) || !c.u64(&rec.model_version))
        return false;
    } else {
      rec.model.clear();
      rec.model_version = 0;
    }
    if (!c.u64(&rows) || !c.u64(&ncodes)) return false;
    rec.rows = static_cast<std::size_t>(rows);
    return c.array(&rec.codes, ncodes);
  }
  if (type == kCompleted) {
    out->is_accepted = false;
    std::uint32_t worker_id = 0;  // informational only
    return c.u64(&out->completed_id) && c.u32(&worker_id) &&
           c.u32(&out->completed_crc);
  }
  return false;  // unknown record type
}

JournalReplay RequestJournal::read(const std::string& path) {
  JournalReplay replay;
  std::ifstream is(path, std::ios::binary);
  if (!is.is_open()) return replay;
  char magic[8];
  is.read(magic, sizeof(magic));
  if (is.gcount() == 0) return replay;  // empty file
  SSMA_CHECK_MSG(is.gcount() == 8 && std::equal(magic, magic + 8, kMagic),
                 "not an SSMA journal: " << path);

  std::vector<AcceptedRecord> accepted;
  std::string payload;
  bool first = true;
  for (;;) {
    const std::streampos frame_start = is.tellg();
    if (!maddness::try_read_framed_blob(is, &payload)) {
      // Distinguish clean EOF from a torn tail: bytes existed past the
      // last whole record but didn't parse as a valid frame.
      is.clear();
      is.seekg(0, std::ios::end);
      replay.torn_tail = frame_start >= 0 && is.tellg() > frame_start;
      break;
    }
    if (first) {
      first = false;
      std::uint64_t bs = 0, bb = 0;
      if (parse_marker(payload, &bs, &bb)) {
        replay.compacted_through = bs;
        continue;
      }
    }
    ParsedRecord rec;
    SSMA_CHECK_MSG(parse_record(payload, &rec),
                   "unparsable journal record (unknown type or "
                   "truncated fields) in "
                       << path);
    if (rec.is_accepted) {
      replay.accepted++;
      replay.max_id = std::max(replay.max_id, rec.accepted.id);
      accepted.push_back(std::move(rec.accepted));
    } else {
      replay.completed++;
      replay.max_id = std::max(replay.max_id, rec.completed_id);
      replay.completed_crc[rec.completed_id] = rec.completed_crc;
    }
  }

  for (AcceptedRecord& rec : accepted)
    if (replay.completed_crc.find(rec.id) == replay.completed_crc.end())
      replay.unacknowledged.push_back(std::move(rec));
  return replay;
}

}  // namespace ssma::serve::recovery
