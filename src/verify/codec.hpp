#pragma once

#include <cinttypes>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>

namespace dopf::verify {

/// The bit-exact text codec and the hashes shared by the golden-trace
/// serializer (src/verify/trace.cpp), the checkpoint serializer
/// (src/runtime/checkpoint.cpp), the model fingerprints
/// (src/core/solve_model.cpp), stream records and the serve wire.
/// Header-only so core, runtime, stream and serve can reuse it without a
/// link-time dependency on dopf::verify.

/// Exact decimal-free rendering: C99 hex-float round-trips every bit.
inline std::string hex_double(double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

/// Zero-padded 16-digit lowercase hex: how fingerprints and content hashes
/// are written in checkpoints, stream records and checkpoint file names.
inline std::string hex_u64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return buf;
}

/// Parse a full numeric token (decimal or hex-float, inf/nan included).
/// Returns false if the token is empty or has trailing garbage.
inline bool parse_double_token(const std::string& token, double* out) {
  const char* begin = token.c_str();
  char* end = nullptr;
  const double v = std::strtod(begin, &end);
  if (end == begin || *end != '\0') return false;
  *out = v;
  return true;
}

/// CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320) over raw bytes.
/// Guards checkpoint payloads against truncation and bit rot.
inline std::uint32_t crc32(std::string_view bytes,
                           std::uint32_t crc = 0xffffffffu) {
  for (unsigned char c : bytes) {
    crc ^= c;
    for (int k = 0; k < 8; ++k) {
      crc = (crc >> 1) ^ (0xedb88320u & (0u - (crc & 1u)));
    }
  }
  return crc ^ 0xffffffffu;
}

/// 64-bit FNV-1a: its offset basis and prime.
inline constexpr std::uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ull;
inline constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;
/// The seed of the model fingerprints (core::topology_fingerprint,
/// core::scenario_fingerprint) and of serve::SolveRequest::content_hash:
/// the FNV offset basis 14695981039346656037 with its last digit dropped,
/// so those hashes are FNV-1a steps from a non-standard seed. Every
/// model_fp, checkpoint, stream record and req-*.ckpt name is pinned to
/// it, so it stays as it is.
inline constexpr std::uint64_t kFingerprintSeed = 1469598103934665603ull;

/// Fold `n` bytes at `data` into the running FNV-1a state `h`.
inline void fnv1a(std::uint64_t& h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
}

}  // namespace dopf::verify
