#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

namespace dopf::serve {

/// Thrown on any malformed, truncated, oversized, or CRC-mismatched frame
/// or payload field. The load-bearing contract of the wire layer: a torn or
/// corrupted frame ALWAYS surfaces as this type — never a crash, a hang,
/// or a silently partial decode (the same solve-or-typed-reject discipline
/// the checkpoint/record codecs follow, now at the socket boundary).
class WireError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Frame kinds. The ordinal-keyed ServeFaultPlan counts frames of every
/// kind, so keep the numbering stable.
enum class Op : std::uint8_t {
  kSolveRequest = 1,   ///< client -> server: feeder + scenario + options
  kSolveResponse = 2,  ///< server -> client: deterministic solve summary
  kReject = 3,         ///< server -> client: typed rejection
  kPing = 4,           ///< client -> server: liveness / readiness probe
  kPong = 5,           ///< server -> client: ping reply (echoes the id)
  // Supervisor link only (parent <-> worker subprocess over a socketpair;
  // see serve/supervisor.hpp). A client sending these gets kBadRequest.
  kCrashArm = 6,       ///< parent -> worker: crash on the next solve (drill)
  kWorkerStats = 7,    ///< worker -> parent: final stats report before exit
};

/// Why a request was rejected instead of solved. Every rejection carries
/// one of these over the wire; the client maps them onto its pinned exit
/// codes (see tools/dopf_client.cpp).
enum class RejectCode : std::uint8_t {
  kOverloaded = 1,    ///< bounded queue full; retry_after_ms is a hint
  kDeadline = 2,      ///< the request's deadline expired (queued or solving)
  kPreflight = 3,     ///< admission control (PR 5 preflight) refused input
  kWire = 4,          ///< the request frame failed to decode (CRC/truncated)
  kShuttingDown = 5,  ///< server draining; request was not admitted
  kBadRequest = 6,    ///< decodable frame, invalid content (unknown feeder,
                      ///< malformed scenario override, bad options)
  kDrained = 7,       ///< in-flight solve checkpointed durably on drain;
                      ///< resubmit with resume to continue byte-identically
  kInternal = 8,      ///< unexpected server-side failure (typed, not crash)
  kQuarantined = 9,   ///< poison-pill circuit breaker: this request's
                      ///< content_hash crashed a worker twice; retry_after_ms
                      ///< carries the quarantine TTL (readmission time)
};

const char* to_string(Op op);
const char* to_string(RejectCode code);

/// Frame layout (all integers little-endian):
///
///   magic   u32  'D''P''F''1'
///   op      u8
///   length  u32  payload byte count (<= kMaxPayload)
///   payload length bytes
///   crc     u32  CRC-32 over op || length || payload
///
/// The CRC covers the header fields after the magic, so a flipped op or a
/// spliced length is caught the same way as payload rot. Oversized length
/// fields are rejected BEFORE allocation — a corrupt length cannot make the
/// receiver try to allocate 4 GiB.
inline constexpr std::uint32_t kWireMagic = 0x31465044u;  // "DPF1" LE
inline constexpr std::uint32_t kMaxPayload = 1u << 20;    // 1 MiB

/// Serialize a frame (header + payload + CRC) into a byte string.
std::string encode_frame(Op op, std::string_view payload);

/// Decode one frame from `bytes`. Throws WireError on truncation, bad
/// magic, oversize, unknown op, or CRC mismatch. On success `*consumed`
/// receives the frame's total byte length.
struct Frame {
  Op op = Op::kPing;
  std::string payload;
};
Frame decode_frame(std::string_view bytes, std::size_t* consumed = nullptr);

/// Bounds-checked little-endian payload writer. Append-only; the result is
/// the payload handed to encode_frame.
class WireWriter {
 public:
  void u8(std::uint8_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  /// Exact IEEE-754 bits: doubles round-trip losslessly (the binary
  /// equivalent of the hex-float text codec).
  void f64(double v);
  /// u32 length prefix + raw bytes.
  void str(std::string_view s);

  const std::string& bytes() const { return buf_; }
  std::string take() { return std::move(buf_); }

 private:
  std::string buf_;
};

/// Bounds-checked payload reader: every getter throws WireError (naming the
/// field) instead of reading past the end. `done()` rejects trailing
/// garbage so a spliced payload cannot hide extra bytes.
class WireReader {
 public:
  explicit WireReader(std::string_view bytes) : bytes_(bytes) {}

  std::uint8_t u8(const char* field);
  std::uint32_t u32(const char* field);
  std::uint64_t u64(const char* field);
  double f64(const char* field);
  std::string str(const char* field);
  /// Throw unless the payload was consumed exactly.
  void done(const char* what) const;

 private:
  std::string_view need(std::size_t n, const char* field);
  std::string_view bytes_;
  std::size_t pos_ = 0;
};

/// One solve request: a feeder reference, scenario overrides against its
/// base case (the runtime/scenario.hpp override grammar, one per line),
/// and the solver options the server honors. Everything else about the
/// solve (backend, preflight remediation artifacts) is server policy.
struct SolveRequest {
  std::uint64_t request_id = 0;
  /// Relative deadline in milliseconds, armed at ADMISSION (queue wait
  /// counts against it); 0 = none.
  std::uint32_t deadline_ms = 0;
  /// Preflight policy for admission control: "off", "warn", "auto",
  /// "strict" (the dopf_solve --preflight vocabulary).
  std::string preflight = "warn";
  /// Consult the server's checkpoint directory for a durable checkpoint of
  /// this exact request (same content hash) and resume from it.
  bool resume = false;
  double rho = 100.0;
  double eps_rel = 1e-3;
  std::uint32_t max_iterations = 200000;
  std::uint32_t check_every = 10;
  std::string feeder;    ///< "builtin:NAME" or a feeder file path
  std::string scenario;  ///< override lines ("load * scale 1.1\n..."), may
                         ///< be empty for the base case

  std::string encode() const;
  static SolveRequest decode(std::string_view payload);

  /// FNV-1a steps from verify::kFingerprintSeed (not the standard offset
  /// basis) over the solve-defining content (feeder, scenario, options —
  /// NOT request_id): two requests with equal hashes ask for the same
  /// solve, so the hash names the drain-checkpoint file a resubmission
  /// resumes from.
  std::uint64_t content_hash() const;
};

/// A deterministic solve summary: exact result bits, no wall-clock times,
/// so the same request always yields byte-identical response frames — the
/// property the fault harness byte-compares against solo solves.
struct SolveResponse {
  std::uint64_t request_id = 0;
  std::uint8_t status = 0;  ///< core::AdmmStatus as u8
  bool converged = false;
  std::uint32_t iterations = 0;
  double objective = 0.0;
  double primal_residual = 0.0;
  double dual_residual = 0.0;
  std::uint64_t model_fp = 0;
  std::uint64_t scenario_fp = 0;

  std::string encode() const;
  static SolveResponse decode(std::string_view payload);
};

/// A typed rejection. `retry_after_ms` is the server's backoff hint
/// (meaningful for kOverloaded; 0 otherwise).
struct Reject {
  std::uint64_t request_id = 0;  ///< 0 = unattributable (corrupt frame)
  RejectCode code = RejectCode::kInternal;
  std::uint32_t retry_after_ms = 0;
  std::string message;

  std::string encode() const;
  static Reject decode(std::string_view payload);
};

/// Ping/pong carry only an id so a delayed pong cannot be mistaken for the
/// answer to a later ping.
struct Ping {
  std::uint64_t id = 0;
  std::string encode() const;
  static Ping decode(std::string_view payload);
};

}  // namespace dopf::serve
