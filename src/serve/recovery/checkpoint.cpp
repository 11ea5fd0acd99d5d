#include "serve/recovery/checkpoint.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string_view>

#include "maddness/framing.hpp"
#include "serve/recovery/fault_injector.hpp"
#include "util/check.hpp"
#include "util/wire.hpp"

namespace ssma::serve::recovery {

namespace fs = std::filesystem;

namespace {

constexpr char kMagicV1[8] = {'S', 'S', 'M', 'A', 'C', 'K', 'P', '1'};
constexpr char kMagicV2[8] = {'S', 'S', 'M', 'A', 'C', 'K', 'P', '2'};
constexpr char kPrefix[] = "checkpoint-";
constexpr char kSuffix[] = ".ssck";

std::string file_name(std::uint64_t version) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%s%06llu%s", kPrefix,
                static_cast<unsigned long long>(version), kSuffix);
  return buf;
}

/// checkpoint-NNNNNN.ssck -> NNNNNN, or 0 when the name doesn't match.
std::uint64_t parse_version(const std::string& name) {
  const std::size_t plen = sizeof(kPrefix) - 1;
  const std::size_t slen = sizeof(kSuffix) - 1;
  if (name.size() <= plen + slen) return 0;
  if (name.compare(0, plen, kPrefix) != 0) return 0;
  if (name.compare(name.size() - slen, slen, kSuffix) != 0) return 0;
  const std::string digits = name.substr(plen, name.size() - plen - slen);
  if (digits.empty() ||
      digits.find_first_not_of("0123456789") != std::string::npos)
    return 0;
  return std::strtoull(digits.c_str(), nullptr, 10);
}

std::string encode(std::uint64_t version, const CheckpointState& st) {
  // The record format follows the state: a v1 state (no registry
  // section) re-encodes as the byte-identical v1 record, so golden v1
  // fixtures survive the v2 bump.
  const bool v1 = st.is_v1();
  const std::string& blob = v1 ? st.amm_blob : st.registry_blob;
  wire::Writer w(16 + maddness::kFrameHeaderBytes + 48 + blob.size());
  w.put_bytes(v1 ? kMagicV1 : kMagicV2, 8);
  w.put_u64(version);
  const std::size_t frame = maddness::begin_frame(w);
  w.put_u64(st.next_request_id);
  w.put_u64(st.accepted_requests);
  w.put_u64(st.completed_requests);
  w.put_u64(st.tokens);
  w.put_u64(st.batches);
  w.put_str64(blob);
  maddness::end_frame(w, frame);
  return w.take();
}

void write_bytes(const std::string& path, std::string_view bytes) {
  std::ofstream os(path, std::ios::binary);
  SSMA_CHECK_MSG(os.is_open(), "cannot open " << path);
  wire::write_all(os, bytes);
}

}  // namespace

CheckpointManager::CheckpointManager(std::string dir, FaultInjector* fault)
    : dir_(std::move(dir)), fault_(fault) {
  fs::create_directories(dir_);
  for (const std::uint64_t v : versions())
    next_version_ = std::max(next_version_, v + 1);
}

std::string CheckpointManager::path_of(std::uint64_t version) const {
  return (fs::path(dir_) / file_name(version)).string();
}

std::vector<std::uint64_t> CheckpointManager::versions() const {
  std::vector<std::uint64_t> out;
  for (const auto& entry : fs::directory_iterator(dir_)) {
    const std::uint64_t v = parse_version(entry.path().filename().string());
    if (v > 0) out.push_back(v);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::uint64_t CheckpointManager::write(const CheckpointState& st) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::uint64_t version = next_version_++;
  const std::string bytes = encode(version, st);

  if (fault_) {
    const FaultAction act = fault_->poll(FaultSite::kCheckpointWrite);
    if (act.kind == FaultKind::kTornCheckpoint) {
      // Simulated crash on a non-atomic filesystem: the final name
      // exists but holds only half the bytes. load_latest() must skip
      // it via the CRC frame.
      write_bytes(path_of(version),
                  std::string_view(bytes).substr(0, bytes.size() / 2));
      return version;
    }
  }
  commit(version, bytes);
  return version;
}

std::optional<CheckpointState> CheckpointManager::install(
    std::uint64_t version, const std::string& bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  try {
    CheckpointState st = decode(bytes, path_of(version));
    commit(version, bytes);
    return st;
  } catch (const std::exception&) {
    std::error_code ec;
    fs::remove(path_of(version) + ".tmp", ec);
    return std::nullopt;
  }
}

void CheckpointManager::commit(std::uint64_t version,
                               std::string_view bytes) const {
  const std::string final_path = path_of(version);
  const std::string tmp_path = final_path + ".tmp";
  write_bytes(tmp_path, bytes);
  fs::rename(tmp_path, final_path);
  const std::vector<std::uint64_t> vs = versions();
  for (std::size_t i = 0; i + kKeepVersions < vs.size(); ++i) {
    std::error_code ec;  // a reader racing the delete is not an error
    fs::remove(path_of(vs[i]), ec);
  }
}

void CheckpointManager::write_file(const std::string& path,
                                   std::uint64_t version,
                                   const CheckpointState& st) {
  write_bytes(path, encode(version, st));
}

CheckpointState CheckpointManager::load_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  SSMA_CHECK_MSG(is.is_open(), "cannot open checkpoint " << path);
  return decode(wire::read_all(is), path);
}

CheckpointState CheckpointManager::decode(const std::string& bytes,
                                          const std::string& path) {
  wire::Cursor file(bytes);
  std::string_view magic;
  const bool framed = file.view(8, &magic);
  const bool v1 = framed && magic == std::string_view(kMagicV1, 8);
  const bool v2 = framed && magic == std::string_view(kMagicV2, 8);
  SSMA_CHECK_MSG(v1 || v2, "not an SSMA checkpoint: " << path);
  file.get_u64();  // version echo; the filename is authoritative
  wire::Cursor payload(maddness::read_framed_blob(file));

  CheckpointState st;
  st.next_request_id = payload.get_u64();
  st.accepted_requests = payload.get_u64();
  st.completed_requests = payload.get_u64();
  st.tokens = payload.get_u64();
  st.batches = payload.get_u64();
  SSMA_CHECK_MSG(payload.str64(v1 ? &st.amm_blob : &st.registry_blob),
                 "checkpoint payload underflow: " << path);
  return st;
}

std::optional<CheckpointState> CheckpointManager::load_latest(
    std::uint64_t* version) const {
  std::vector<std::uint64_t> vs = versions();
  for (auto it = vs.rbegin(); it != vs.rend(); ++it) {
    try {
      CheckpointState st = load_file(path_of(*it));
      if (version) *version = *it;
      return st;
    } catch (const CheckError&) {
      // Torn or corrupt version: fall back to the one before it.
    }
  }
  return std::nullopt;
}

}  // namespace ssma::serve::recovery
