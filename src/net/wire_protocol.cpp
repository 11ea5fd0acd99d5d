#include "net/wire_protocol.hpp"

#include "maddness/framing.hpp"
#include "util/wire.hpp"

namespace ssma::net {

namespace {

using wire::Cursor;

bool parse_prelude(Cursor& c, MsgType want, std::uint64_t* corr) {
  std::uint8_t version = 0, type = 0;
  if (!c.u8(&version) || version != kWireVersion) return false;
  if (!c.u8(&type) || type != static_cast<std::uint8_t>(want))
    return false;
  return c.u64(corr);
}

/// [u8 version][u8 msg type][u64 correlation id]: the prelude of every
/// message; encoders append the per-type fields after it. Encoders size
/// the buffer as 64 bytes of fixed fields plus their variable parts.
void put_prelude(wire::Writer& w, MsgType type, std::uint64_t corr) {
  w.put_u8(kWireVersion);
  w.put_u8(static_cast<std::uint8_t>(type));
  w.put_u64(corr);
}

}  // namespace

std::string RpcRequest::encode() const {
  const std::size_t n = 64 + tenant.size() + model_ref.size();
  return maddness::build_frame(n + codes.size(), [&](wire::Writer& w) {
    put_prelude(w, MsgType::kInferRequest, correlation_id);
    w.put_str32(tenant);
    w.put_str32(model_ref);
    w.put_u32(deadline_ms);
    w.put_u8(priority);
    w.put_u64(rows);
    w.put_u64(codes.size());
    w.put_array(codes.data(), codes.size());
  });
}

std::string RpcResponse::encode() const {
  const std::size_t n = 64 + model.size() + message.size();
  return maddness::build_frame(n + 2 * outputs.size(), [&](wire::Writer& w) {
    put_prelude(w, MsgType::kInferResponse, correlation_id);
    w.put_u8(status);
    w.put_str32(model);
    w.put_u64(model_version);
    w.put_u64(rows);
    w.put_u64(outputs.size());
    w.put_array(outputs.data(), outputs.size());
    w.put_str32(message);
  });
}

std::string ReplMessage::encode() const {
  return maddness::build_frame(64 + bytes.size(), [&](wire::Writer& w) {
    put_prelude(w, type, arg);
    w.put_u64(arg2);
    w.put_str64(bytes);
  });
}

bool parse_repl(const std::string& payload, ReplMessage* out) {
  Cursor c(payload);
  std::uint8_t version = 0, type = 0;
  if (!c.u8(&version) || version != kWireVersion) return false;
  if (!c.u8(&type) ||
      type < static_cast<std::uint8_t>(MsgType::kReplHello) ||
      type > static_cast<std::uint8_t>(MsgType::kReplBase))
    return false;
  out->type = static_cast<MsgType>(type);
  if (!c.u64(&out->arg)) return false;
  if (!c.u64(&out->arg2)) return false;
  if (!c.str64(&out->bytes)) return false;
  return c.done();
}

std::string AdminRequest::encode() const {
  return maddness::build_frame(64 + target.size(), [&](wire::Writer& w) {
    put_prelude(w, MsgType::kAdminRequest, correlation_id);
    w.put_u8(op);
    w.put_str32(target);
  });
}

std::string AdminResponse::encode() const {
  return maddness::build_frame(64 + body.size(), [&](wire::Writer& w) {
    put_prelude(w, MsgType::kAdminResponse, correlation_id);
    w.put_u8(status);
    w.put_u64(arg);
    w.put_str32(body);
  });
}

bool parse_admin_request(const std::string& payload, AdminRequest* out) {
  Cursor c(payload);
  if (!parse_prelude(c, MsgType::kAdminRequest, &out->correlation_id))
    return false;
  if (!c.u8(&out->op)) return false;
  if (!c.str(&out->target)) return false;
  return c.done();
}

bool parse_admin_response(const std::string& payload,
                          AdminResponse* out) {
  Cursor c(payload);
  if (!parse_prelude(c, MsgType::kAdminResponse, &out->correlation_id))
    return false;
  if (!c.u8(&out->status)) return false;
  if (!c.u64(&out->arg)) return false;
  if (!c.str(&out->body)) return false;
  return c.done();
}

bool parse_request(const std::string& payload, RpcRequest* out) {
  Cursor c(payload);
  if (!parse_prelude(c, MsgType::kInferRequest, &out->correlation_id))
    return false;
  if (!c.str(&out->tenant)) return false;
  if (!c.str(&out->model_ref)) return false;
  if (!c.u32(&out->deadline_ms)) return false;
  if (!c.u8(&out->priority)) return false;
  if (!c.u64(&out->rows)) return false;
  std::uint64_t ncodes = 0;
  if (!c.u64(&ncodes)) return false;
  if (!c.array(&out->codes, ncodes)) return false;
  return c.done();
}

bool parse_response(const std::string& payload, RpcResponse* out) {
  Cursor c(payload);
  if (!parse_prelude(c, MsgType::kInferResponse, &out->correlation_id))
    return false;
  if (!c.u8(&out->status)) return false;
  if (!c.str(&out->model)) return false;
  if (!c.u64(&out->model_version)) return false;
  if (!c.u64(&out->rows)) return false;
  std::uint64_t nout = 0;
  if (!c.u64(&nout)) return false;
  if (!c.array(&out->outputs, nout)) return false;
  if (!c.str(&out->message)) return false;
  return c.done();
}

FrameDecoder::FrameDecoder(std::size_t max_frame_bytes)
    : max_frame_bytes_(max_frame_bytes) {}

void FrameDecoder::feed(const void* data, std::size_t n) {
  buf_.append(static_cast<const char*>(data), n);
}

FrameDecoder::Result FrameDecoder::next(std::string* payload) {
  // Compact once the consumed prefix dominates, so a long-lived
  // connection does not grow its buffer without bound.
  if (pos_ > 4096 && pos_ * 2 > buf_.size()) {
    buf_.erase(0, pos_);
    pos_ = 0;
  }
  const std::size_t avail = buf_.size() - pos_;
  if (avail < 12) return Result::kNeedMore;  // len(8) + crc(4)
  const char* p = buf_.data() + pos_;
  Cursor hdr(p, 12);
  const std::uint64_t len = hdr.get_u64();
  const std::uint32_t crc = hdr.get_u32();
  // An oversized length word means a desynchronized or hostile stream;
  // there is no way to resynchronize framing, so the caller must close.
  if (len > max_frame_bytes_) return Result::kBad;
  if (avail < 12 + len) return Result::kNeedMore;
  if (maddness::crc32(p + 12, static_cast<std::size_t>(len)) != crc)
    return Result::kBad;
  payload->assign(p + 12, static_cast<std::size_t>(len));
  pos_ += 12 + static_cast<std::size_t>(len);
  return Result::kFrame;
}

}  // namespace ssma::net
