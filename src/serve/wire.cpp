#include "serve/wire.hpp"

#include <cstring>

#include "verify/codec.hpp"

namespace dopf::serve {

namespace {

void put_u32(std::string* out, std::uint32_t v) {
  out->push_back(static_cast<char>(v & 0xff));
  out->push_back(static_cast<char>((v >> 8) & 0xff));
  out->push_back(static_cast<char>((v >> 16) & 0xff));
  out->push_back(static_cast<char>((v >> 24) & 0xff));
}

std::uint32_t read_u32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

bool known_op(std::uint8_t op) {
  return op >= static_cast<std::uint8_t>(Op::kSolveRequest) &&
         op <= static_cast<std::uint8_t>(Op::kWorkerStats);
}

}  // namespace

const char* to_string(Op op) {
  switch (op) {
    case Op::kSolveRequest: return "solve-request";
    case Op::kSolveResponse: return "solve-response";
    case Op::kReject: return "reject";
    case Op::kPing: return "ping";
    case Op::kPong: return "pong";
    case Op::kCrashArm: return "crash-arm";
    case Op::kWorkerStats: return "worker-stats";
  }
  return "unknown";
}

const char* to_string(RejectCode code) {
  switch (code) {
    case RejectCode::kOverloaded: return "overloaded";
    case RejectCode::kDeadline: return "deadline";
    case RejectCode::kPreflight: return "preflight";
    case RejectCode::kWire: return "wire";
    case RejectCode::kShuttingDown: return "shutting-down";
    case RejectCode::kBadRequest: return "bad-request";
    case RejectCode::kDrained: return "drained";
    case RejectCode::kInternal: return "internal";
    case RejectCode::kQuarantined: return "quarantined";
  }
  return "unknown";
}

std::string encode_frame(Op op, std::string_view payload) {
  if (payload.size() > kMaxPayload) {
    throw WireError("frame payload of " + std::to_string(payload.size()) +
                    " bytes exceeds the " + std::to_string(kMaxPayload) +
                    "-byte limit");
  }
  std::string out;
  out.reserve(4 + 1 + 4 + payload.size() + 4);
  put_u32(&out, kWireMagic);
  const std::size_t crc_begin = out.size();
  out.push_back(static_cast<char>(op));
  put_u32(&out, static_cast<std::uint32_t>(payload.size()));
  out.append(payload);
  const std::uint32_t crc = dopf::verify::crc32(
      std::string_view(out.data() + crc_begin, out.size() - crc_begin));
  put_u32(&out, crc);
  return out;
}

Frame decode_frame(std::string_view bytes, std::size_t* consumed) {
  if (bytes.size() < 4) {
    throw WireError("truncated frame: " + std::to_string(bytes.size()) +
                    " byte(s), need 4 for the magic");
  }
  const auto* p = reinterpret_cast<const unsigned char*>(bytes.data());
  if (read_u32(p) != kWireMagic) {
    throw WireError("bad frame magic (stream desynchronized or not DPF1)");
  }
  if (bytes.size() < 9) {
    throw WireError("truncated frame header: " +
                    std::to_string(bytes.size()) + " byte(s), need 9");
  }
  const std::uint8_t op = p[4];
  const std::uint32_t len = read_u32(p + 5);
  // Length sanity BEFORE any allocation or wait: a corrupt length field
  // must not make the receiver wait for (or allocate) gigabytes.
  if (len > kMaxPayload) {
    throw WireError("frame length " + std::to_string(len) +
                    " exceeds the " + std::to_string(kMaxPayload) +
                    "-byte limit (corrupt length field?)");
  }
  const std::size_t total = 9 + static_cast<std::size_t>(len) + 4;
  if (bytes.size() < total) {
    throw WireError("truncated frame: have " + std::to_string(bytes.size()) +
                    " byte(s) of " + std::to_string(total));
  }
  const std::uint32_t want_crc = read_u32(p + 9 + len);
  const std::uint32_t got_crc =
      dopf::verify::crc32(std::string_view(bytes.data() + 4, 5 + len));
  if (want_crc != got_crc) {
    throw WireError("frame CRC mismatch (corrupted in transit)");
  }
  // Op validity is checked AFTER the CRC: a flipped op byte fails the CRC
  // first; an unknown-but-CRC-valid op means a protocol version mismatch.
  if (!known_op(op)) {
    throw WireError("unknown frame op " + std::to_string(op) +
                    " (protocol mismatch?)");
  }
  if (consumed != nullptr) *consumed = total;
  Frame f;
  f.op = static_cast<Op>(op);
  f.payload.assign(bytes.data() + 9, len);
  return f;
}

void WireWriter::u8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }

void WireWriter::u32(std::uint32_t v) { put_u32(&buf_, v); }

void WireWriter::u64(std::uint64_t v) {
  u32(static_cast<std::uint32_t>(v & 0xffffffffu));
  u32(static_cast<std::uint32_t>(v >> 32));
}

void WireWriter::f64(double v) {
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  u64(bits);
}

void WireWriter::str(std::string_view s) {
  if (s.size() > kMaxPayload) {
    throw WireError("string field of " + std::to_string(s.size()) +
                    " bytes exceeds the payload limit");
  }
  u32(static_cast<std::uint32_t>(s.size()));
  buf_.append(s);
}

std::string_view WireReader::need(std::size_t n, const char* field) {
  if (bytes_.size() - pos_ < n) {
    throw WireError(std::string("truncated payload: field '") + field +
                    "' needs " + std::to_string(n) + " byte(s), " +
                    std::to_string(bytes_.size() - pos_) + " left");
  }
  const std::string_view v = bytes_.substr(pos_, n);
  pos_ += n;
  return v;
}

std::uint8_t WireReader::u8(const char* field) {
  return static_cast<std::uint8_t>(need(1, field)[0]);
}

std::uint32_t WireReader::u32(const char* field) {
  const auto v = need(4, field);
  return read_u32(reinterpret_cast<const unsigned char*>(v.data()));
}

std::uint64_t WireReader::u64(const char* field) {
  const std::uint64_t lo = u32(field);
  const std::uint64_t hi = u32(field);
  return lo | (hi << 32);
}

double WireReader::f64(const char* field) {
  const std::uint64_t bits = u64(field);
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::string WireReader::str(const char* field) {
  const std::uint32_t len = u32(field);
  if (len > kMaxPayload) {
    throw WireError(std::string("string field '") + field + "' claims " +
                    std::to_string(len) + " bytes (corrupt length?)");
  }
  return std::string(need(len, field));
}

void WireReader::done(const char* what) const {
  if (pos_ != bytes_.size()) {
    throw WireError(std::string(what) + ": " +
                    std::to_string(bytes_.size() - pos_) +
                    " trailing byte(s) after the last field");
  }
}

std::string SolveRequest::encode() const {
  WireWriter w;
  w.u64(request_id);
  w.u32(deadline_ms);
  w.u8(resume ? 1 : 0);
  w.f64(rho);
  w.f64(eps_rel);
  w.u32(max_iterations);
  w.u32(check_every);
  w.str(preflight);
  w.str(feeder);
  w.str(scenario);
  return w.take();
}

SolveRequest SolveRequest::decode(std::string_view payload) {
  WireReader r(payload);
  SolveRequest req;
  req.request_id = r.u64("request_id");
  req.deadline_ms = r.u32("deadline_ms");
  req.resume = r.u8("resume") != 0;
  req.rho = r.f64("rho");
  req.eps_rel = r.f64("eps_rel");
  req.max_iterations = r.u32("max_iterations");
  req.check_every = r.u32("check_every");
  req.preflight = r.str("preflight");
  req.feeder = r.str("feeder");
  req.scenario = r.str("scenario");
  r.done("solve-request payload");
  return req;
}

std::uint64_t SolveRequest::content_hash() const {
  // FNV-1a steps from the fingerprint seed over the solve-defining fields;
  // request_id and resume are deliberately excluded so a resubmission
  // hashes to the same checkpoint.
  std::uint64_t h = dopf::verify::kFingerprintSeed;
  auto mix_bytes = [&h](const void* data, std::size_t n) {
    dopf::verify::fnv1a(h, data, n);
  };
  auto mix_str = [&](const std::string& s) {
    const std::uint64_t len = s.size();
    mix_bytes(&len, sizeof(len));
    mix_bytes(s.data(), s.size());
  };
  mix_bytes(&rho, sizeof(rho));
  mix_bytes(&eps_rel, sizeof(eps_rel));
  mix_bytes(&max_iterations, sizeof(max_iterations));
  mix_bytes(&check_every, sizeof(check_every));
  mix_str(preflight);
  mix_str(feeder);
  mix_str(scenario);
  return h;
}

std::string SolveResponse::encode() const {
  WireWriter w;
  w.u64(request_id);
  w.u8(status);
  w.u8(converged ? 1 : 0);
  w.u32(iterations);
  w.f64(objective);
  w.f64(primal_residual);
  w.f64(dual_residual);
  w.u64(model_fp);
  w.u64(scenario_fp);
  return w.take();
}

SolveResponse SolveResponse::decode(std::string_view payload) {
  WireReader r(payload);
  SolveResponse res;
  res.request_id = r.u64("request_id");
  res.status = r.u8("status");
  res.converged = r.u8("converged") != 0;
  res.iterations = r.u32("iterations");
  res.objective = r.f64("objective");
  res.primal_residual = r.f64("primal_residual");
  res.dual_residual = r.f64("dual_residual");
  res.model_fp = r.u64("model_fp");
  res.scenario_fp = r.u64("scenario_fp");
  r.done("solve-response payload");
  return res;
}

std::string Reject::encode() const {
  WireWriter w;
  w.u64(request_id);
  w.u8(static_cast<std::uint8_t>(code));
  w.u32(retry_after_ms);
  w.str(message);
  return w.take();
}

Reject Reject::decode(std::string_view payload) {
  WireReader r(payload);
  Reject rej;
  rej.request_id = r.u64("request_id");
  const std::uint8_t code = r.u8("code");
  if (code < static_cast<std::uint8_t>(RejectCode::kOverloaded) ||
      code > static_cast<std::uint8_t>(RejectCode::kQuarantined)) {
    throw WireError("unknown reject code " + std::to_string(code));
  }
  rej.code = static_cast<RejectCode>(code);
  rej.retry_after_ms = r.u32("retry_after_ms");
  rej.message = r.str("message");
  r.done("reject payload");
  return rej;
}

std::string Ping::encode() const {
  WireWriter w;
  w.u64(id);
  return w.take();
}

Ping Ping::decode(std::string_view payload) {
  WireReader r(payload);
  Ping p;
  p.id = r.u64("id");
  r.done("ping payload");
  return p;
}

}  // namespace dopf::serve
