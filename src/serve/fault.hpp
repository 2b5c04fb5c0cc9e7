#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "runtime/fault.hpp"
#include "serve/wire.hpp"

namespace dopf::serve {

/// One scheduled transport failpoint. Where FsFailpoint (runtime/fault.hpp)
/// is keyed by the 1-based ordinal of a filesystem operation, transport
/// failpoints are keyed by the 1-based ordinal of the matching frame the
/// server SENDS — deterministic for the same request schedule, independent
/// of wall time. The four kinds model the torn/corrupted/slow shapes a real
/// transport exhibits:
///
///   kDrop      the frame is silently not sent (client read times out)
///   kCorrupt   one payload byte is flipped (client CRC check fires)
///   kTruncate  only a byte-prefix is sent and the connection is closed
///              (the wire-level torn write; client sees EOF mid-frame)
///   kDelay     the frame is sent after a real `delay_ms` sleep (reorders
///              against client retries; answers must still be identical)
struct ServeFailpoint {
  enum class Kind { kDrop, kCorrupt, kTruncate, kDelay };
  Kind kind = Kind::kDrop;
  /// 1-based ordinal of the first matching sent frame this fires on.
  int op = 1;
  /// Fire on `times` consecutive matching frames [op, op+times-1].
  int times = 1;
  /// Truncation length (kTruncate; default = half the frame).
  std::size_t bytes = 0;
  /// Real delay in milliseconds (kDelay; default 50).
  int delay_ms = 50;
  /// Only frames of this op kind count (0 = every frame). Lets a plan
  /// target "the 3rd solve-response" instead of "the 3rd frame".
  std::uint8_t frame_op = 0;

  std::string to_string() const;
};

/// A deterministic schedule of transport failpoints: a `--serve-faults`
/// spec in the grammar all fault flags share (transport row of the
/// DESIGN.md §7 table), e.g. "delay:op=2,ms=100,frame=response". Malformed
/// specs throw runtime::FaultError.
struct ServeFaultPlan {
  std::vector<ServeFailpoint> events;

  bool empty() const { return events.empty(); }
  static ServeFaultPlan parse(const std::string& spec);
};

/// Query-side view used inside the server's frame-send path. Each failpoint
/// counts the frames its filter matches on the shared OrdinalSchedule,
/// whose mutex gives concurrent sends one deterministic frame ordering per
/// counter. Thread-safe; an empty plan takes no lock.
class ServeFaultInjector {
 public:
  explicit ServeFaultInjector(ServeFaultPlan plan);

  /// Register one outgoing frame of kind `op`; returns the failpoint to
  /// apply (the first armed match), or nullptr for a clean send.
  const ServeFailpoint* on_send(Op op);

  /// Frames that were dropped / corrupted / truncated / delayed so far.
  struct Counts {
    int dropped = 0;
    int corrupted = 0;
    int truncated = 0;
    int delayed = 0;
  };
  Counts counts() const;

 private:
  ServeFaultPlan plan_;
  dopf::runtime::OrdinalSchedule schedule_;
};

/// Apply `fp` to an encoded frame in place (kCorrupt flips a payload byte;
/// kTruncate shortens to the configured prefix). Returns false when the
/// frame must not be sent at all (kDrop). kDelay is the caller's job (it
/// owns the socket write). Exposed for tests.
bool apply_failpoint(const ServeFailpoint& fp, std::string* frame,
                     bool* close_after);

}  // namespace dopf::serve
