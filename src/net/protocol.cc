#include "net/protocol.h"

#include <cstring>

namespace lahar {
namespace net {

const char* WireErrorName(WireError e) {
  switch (e) {
    case WireError::kBadFrame: return "bad_frame";
    case WireError::kUnknownType: return "unknown_type";
    case WireError::kVersionMismatch: return "version_mismatch";
    case WireError::kBackpressure: return "backpressure";
    case WireError::kQuotaExceeded: return "quota_exceeded";
    case WireError::kRejected: return "rejected";
    case WireError::kHandshake: return "handshake_required";
    case WireError::kServerFull: return "server_full";
  }
  return "unknown";
}

Status ErrorBody::ToStatus() const {
  Status s;
  switch (code) {
    case WireError::kBackpressure:
    case WireError::kQuotaExceeded:
      s = Status::OutOfRange(message);
      break;
    case WireError::kRejected:
    case WireError::kBadFrame:
    case WireError::kUnknownType:
      s = Status::InvalidArgument(message);
      break;
    case WireError::kVersionMismatch:
    case WireError::kHandshake:
      s = Status::InvalidArgument(message);
      break;
    case WireError::kServerFull:
      s = Status::OutOfRange(message);
      break;
    default:
      s = Status::Internal(message);
      break;
  }
  return std::move(s).WithPayload("wire_error", WireErrorName(code));
}

std::string EncodeFrame(MsgType type, const serial::Writer& body) {
  const uint32_t len = static_cast<uint32_t>(2 + body.size());
  std::string out;
  out.reserve(kFrameHeaderBytes + len);
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((len >> (8 * i)) & 0xFF));
  }
  out.push_back(static_cast<char>(kProtocolVersion));
  out.push_back(static_cast<char>(type));
  out += body.str();
  return out;
}

std::string EncodeFrame(MsgType type) {
  return EncodeFrame(type, serial::Writer());
}

void FrameReader::Append(std::string_view bytes) {
  buf_.append(bytes.data(), bytes.size());
}

Status FrameReader::Next(Frame* out) {
  if (poisoned_) {
    return Status::OutOfRange("framing violated; connection must be dropped");
  }
  if (buf_.size() < kFrameHeaderBytes) {
    return Status::NotFound("incomplete frame header");
  }
  uint32_t len = 0;
  for (int i = 0; i < 4; ++i) {
    len |= static_cast<uint32_t>(static_cast<uint8_t>(buf_[i])) << (8 * i);
  }
  if (len < 2 || len > kMaxFrameBytes) {
    poisoned_ = true;
    return Status::OutOfRange("frame payload length " + std::to_string(len) +
                              " outside [2, " +
                              std::to_string(kMaxFrameBytes) + "]");
  }
  if (buf_.size() < kFrameHeaderBytes + len) {
    return Status::NotFound("incomplete frame body");
  }
  out->version = static_cast<uint8_t>(buf_[kFrameHeaderBytes]);
  out->type = static_cast<uint8_t>(buf_[kFrameHeaderBytes + 1]);
  out->body.assign(buf_, kFrameHeaderBytes + 2, len - 2);
  buf_.erase(0, kFrameHeaderBytes + len);
  return Status::OK();
}

void EncodeHello(std::string_view tenant, serial::Writer* w) {
  w->Str(tenant);
}

Status DecodeHello(serial::Reader* r, std::string* tenant) {
  return r->Str(tenant);
}

void EncodeBatch(const TickBatch& batch, serial::Writer* w) {
  w->U32(batch.t);
  w->U32(static_cast<uint32_t>(batch.updates.size()));
  for (const StreamUpdate& u : batch.updates) {
    w->U32(u.stream);
    w->U8(u.cpt.has_value() ? 1 : 0);
    w->DoubleVec(u.marginal);
    if (u.cpt.has_value()) {
      w->U32(static_cast<uint32_t>(u.cpt->rows()));
      w->U32(static_cast<uint32_t>(u.cpt->cols()));
      w->F64s(u.cpt->data(), u.cpt->rows() * u.cpt->cols());
    }
  }
}

Status DecodeBatch(serial::Reader* r, TickBatch* out) {
  out->updates.clear();
  uint32_t n = 0;
  LAHAR_RETURN_NOT_OK(r->U32(&out->t));
  LAHAR_RETURN_NOT_OK(r->U32(&n));
  // Every update costs at least 13 bytes on the wire (u32 stream + u8
  // has_cpt + empty DoubleVec's u64 length); a count beyond that bound is
  // garbage and must not drive a huge reserve.
  if (static_cast<uint64_t>(n) * 13 > r->remaining()) {
    return Status::InvalidArgument("batch update count exceeds frame size");
  }
  out->updates.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    StreamUpdate u;
    uint8_t has_cpt = 0;
    LAHAR_RETURN_NOT_OK(r->U32(&u.stream));
    LAHAR_RETURN_NOT_OK(r->U8(&has_cpt));
    LAHAR_RETURN_NOT_OK(r->DoubleVec(&u.marginal));
    if (has_cpt > 1) {
      return Status::InvalidArgument("bad has_cpt flag");
    }
    if (has_cpt) {
      uint32_t rows = 0, cols = 0;
      LAHAR_RETURN_NOT_OK(r->U32(&rows));
      LAHAR_RETURN_NOT_OK(r->U32(&cols));
      // Divide rather than multiply by the element size: `cells * 8` wraps
      // uint64 for attacker-chosen dims (e.g. rows=2^31, cols=2^30), which
      // would pass the guard and then throw from a ~2^61-element allocation.
      const uint64_t cells = static_cast<uint64_t>(rows) * cols;
      if (cells > r->remaining() / 8) {
        return Status::InvalidArgument("CPT dims exceed frame size");
      }
      Matrix m(rows, cols, 0.0);
      LAHAR_RETURN_NOT_OK(r->F64s(m.data(), cells));
      u.cpt = std::move(m);
    }
    out->updates.push_back(std::move(u));
  }
  return Status::OK();
}

void EncodeError(WireError code, std::string_view message, serial::Writer* w) {
  w->U32(static_cast<uint32_t>(code));
  w->Str(message);
}

Status DecodeError(serial::Reader* r, ErrorBody* out) {
  uint32_t code = 0;
  LAHAR_RETURN_NOT_OK(r->U32(&code));
  LAHAR_RETURN_NOT_OK(r->Str(&out->message));
  out->code = static_cast<WireError>(code);
  return Status::OK();
}

void EncodeRegistered(const RegisteredBody& body, serial::Writer* w) {
  w->U64(body.id);
  w->Str(body.query_class);
  w->Str(body.engine);
  w->U8(body.exact ? 1 : 0);
}

Status DecodeRegistered(serial::Reader* r, RegisteredBody* out) {
  uint8_t exact = 1;
  LAHAR_RETURN_NOT_OK(r->U64(&out->id));
  LAHAR_RETURN_NOT_OK(r->Str(&out->query_class));
  LAHAR_RETURN_NOT_OK(r->Str(&out->engine));
  LAHAR_RETURN_NOT_OK(r->U8(&exact));
  out->exact = exact != 0;
  return Status::OK();
}

void EncodeTickUpdate(const TickUpdateBody& body, serial::Writer* w) {
  w->U32(body.t);
  w->U32(static_cast<uint32_t>(body.probs.size()));
  for (const auto& [id, p] : body.probs) {
    w->U64(id);
    w->F64(p);
  }
}

Status DecodeTickUpdate(serial::Reader* r, TickUpdateBody* out) {
  out->probs.clear();
  uint32_t n = 0;
  LAHAR_RETURN_NOT_OK(r->U32(&out->t));
  LAHAR_RETURN_NOT_OK(r->U32(&n));
  if (static_cast<uint64_t>(n) * 16 > r->remaining()) {
    return Status::InvalidArgument("tick update count exceeds frame size");
  }
  out->probs.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    QueryId id = 0;
    double p = 0;
    LAHAR_RETURN_NOT_OK(r->U64(&id));
    LAHAR_RETURN_NOT_OK(r->F64(&p));
    out->probs.emplace_back(id, p);
  }
  return Status::OK();
}

void EncodeCheckpointOk(const CheckpointOkBody& body, serial::Writer* w) {
  w->Str(body.path);
  w->U64(body.bytes);
}

Status DecodeCheckpointOk(serial::Reader* r, CheckpointOkBody* out) {
  LAHAR_RETURN_NOT_OK(r->Str(&out->path));
  return r->U64(&out->bytes);
}

}  // namespace net
}  // namespace lahar
