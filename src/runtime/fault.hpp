#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "runtime/comm_model.hpp"

namespace dopf::runtime {

/// Thrown on malformed fault specs (of every plane: --faults, --io-faults,
/// --serve-faults, --crash-faults) and on unrecoverable injected faults (a
/// device lost with failover disabled, or retries exhausted).
class FaultError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// ---------------------------------------------------------------------------
// The failpoint grammar all four fault flags share (DESIGN.md §7, grammar
// table): `;`-separated entries `kind:key=value,...`, whitespace trimmed
// around every token, empty entries and fields skipped. A plane declares
// only its tables; the tokenizer, the number readers, the required-key and
// duplicate-entry checks and the diagnostics live here once.

/// `text` as a plain decimal integer in [lo, hi], or nullopt: signs other
/// than a leading '-', fractions, exponents, surrounding text and
/// out-of-range values are rejected, never truncated. The one integer
/// reader behind SpecEntry::integer and the tools' integer flags.
std::optional<int> read_integer(std::string_view text, int lo, int hi);

/// `text` as a plain decimal integer in [0, 2^64 - 1], or nullopt: any
/// sign, fraction, exponent, surrounding text or overflow is rejected (a
/// minus sign never wraps). The tools' reader for 64-bit seeds.
std::optional<std::uint64_t> read_unsigned(std::string_view text);

/// One kind of a plane: its name and the keys it reads. Any other key is
/// rejected, so an event's to_string() never drops a key it was given.
struct SpecKind {
  const char* name;
  std::span<const char* const> keys;
};

/// One plane's tables. `kinds[i]` is the plane's Kind enumerator i.
struct SpecGrammar {
  const char* prefix;  ///< leads every diagnostic: "io fault spec"
  std::span<const SpecKind> kinds;
  std::span<const char* const> required;
  const char* duplicate;  ///< what two duplicate entries share
};

/// One tokenized entry, already checked against its grammar's kinds, its
/// kind's keys and the required keys (a repeated key is rejected). Values
/// are read on demand; every reader quotes the offending token and the
/// entry.
class SpecEntry {
 public:
  SpecEntry(const SpecGrammar& grammar, std::string_view text);

  /// Index of the entry's kind in `grammar.kinds`.
  int kind() const { return kind_; }
  bool has(std::string_view key) const;
  /// The value as a decimal integer in [lo, hi] (`fallback` when absent).
  /// Fractions, exponents and out-of-range values are rejected.
  int integer(std::string_view key, int fallback, int lo = 1,
              int hi = 2147483647) const;
  /// The value as a finite real (`fallback` when absent).
  double real(std::string_view key, double fallback) const;
  /// The raw value ("" when absent).
  std::string text(std::string_view key) const;
  /// Throws FaultError "<prefix>: <what> in '<entry>'".
  [[noreturn]] void fail(const std::string& what) const;

 private:
  const std::string* find(std::string_view key) const;

  const SpecGrammar* grammar_;
  std::string text_;
  int kind_ = 0;
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// Split a spec into its entries (empty spec: no entries).
std::vector<SpecEntry> split_spec(const std::string& spec,
                                  const SpecGrammar& grammar);

/// Parse every entry through `build` and reject a later entry that
/// `same_slot` finds equal to an earlier one: a duplicated event is almost
/// always an editing mistake, and keeping both would double-fire it.
template <class Build, class SameSlot>
auto parse_spec(const std::string& spec, const SpecGrammar& grammar,
                Build build, SameSlot same_slot) {
  std::vector<decltype(build(std::declval<const SpecEntry&>()))> events;
  for (const SpecEntry& entry : split_spec(spec, grammar)) {
    auto ev = build(entry);
    for (std::size_t i = 0; i < events.size(); ++i) {
      if (same_slot(events[i], ev)) {
        entry.fail("entry " + std::to_string(events.size() + 1) +
                   " duplicates entry " + std::to_string(i + 1) + " ('" +
                   events[i].to_string() + "'): same " + grammar.duplicate);
      }
    }
    events.push_back(std::move(ev));
  }
  return events;
}

/// The `;`-joined to_string() of each event.
template <class Event>
std::string spec_string(const std::vector<Event>& events) {
  std::string out;
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (i > 0) out += ';';
    out += events[i].to_string();
  }
  return out;
}

/// The "fire on matching ordinals [first, first + times)" counter behind
/// the I/O, serve and crash planes. Each window counts only the operations
/// its event matches (a path filter and read/write side, a frame kind; the
/// crash plane matches every dispatch), so filtered failpoints fire
/// independently. Counters stop once past their window, so no ordinal
/// arithmetic can overflow. One mutex orders concurrent callers.
class OrdinalSchedule {
 public:
  explicit OrdinalSchedule(std::size_t num_kinds) : fired_(num_kinds, 0) {}

  /// Append the window of the next event; `kind` indexes fired().
  void add(int first, int times, int kind);

  /// Count one operation against every window `matches(i)` accepts; returns
  /// the first window the operation lands in, or -1.
  template <class Matches>
  int advance(const Matches& matches) {
    if (windows_.empty()) return -1;
    std::lock_guard<std::mutex> lock(mu_);
    int hit = -1;
    for (std::size_t i = 0; i < windows_.size(); ++i) {
      Window& w = windows_[i];
      if (!matches(i)) continue;
      if (w.seen < w.end) ++w.seen;
      if (hit < 0 && w.seen >= w.first && w.seen < w.end) {
        hit = static_cast<int>(i);
      }
    }
    if (hit >= 0) ++fired_[static_cast<std::size_t>(windows_[hit].kind)];
    return hit;
  }

  /// Operations on which an event of `kind` fired.
  int fired(int kind) const;

 private:
  struct Window {
    std::int64_t seen = 0;
    std::int64_t first = 1;
    std::int64_t end = 2;  // first + times
    int kind = 0;
  };
  std::vector<Window> windows_;
  std::vector<std::int64_t> fired_;
  mutable std::mutex mu_;
};

/// One scheduled fault. All faults are keyed by (device, iteration), so a
/// plan is fully deterministic: the same plan against the same run injects
/// the same faults at the same points, every time.
struct FaultEvent {
  enum class Kind {
    kKillDevice,       ///< device dies at the start of `iteration`
    kDropMessage,      ///< the device's consensus upload is lost `count` times
    kCorruptMessage,   ///< the upload payload is scaled by `factor`
    kStraggle,         ///< kernel time multiplied by `factor` on [iter, until]
  };
  Kind kind = Kind::kKillDevice;
  std::size_t device = 0;
  int iteration = 1;
  int until = 0;        ///< straggle end (inclusive; defaults to `iteration`)
  int count = 1;        ///< drop repetitions before the message gets through
  double factor = 0.0;  ///< straggle multiplier / corruption scale
  /// Persistent (recurring) fault: fires on EVERY iteration of
  /// [iteration, until] and is never consumed — the model of a chronically
  /// lossy link or a permanently slow device, as opposed to the one-shot
  /// transient semantics above. Parsed from `from=` instead of `iter=`.
  bool persistent = false;

  /// True when the event applies at `iteration` (persistent events cover
  /// their whole window; one-shot events match the exact iteration only —
  /// except straggle, whose [iter, until] window was always inclusive).
  bool active_at(int t) const;

  std::string to_string() const;
};

/// A deterministic schedule of faults: a `--faults` spec in the shared
/// grammar (device row of the DESIGN.md §7 table), e.g.
///   "kill:device=1,iter=137;straggle:device=2,from=10,until=40,factor=4"
/// `from=K` in place of `iter=K` makes a drop/corrupt/straggle PERSISTENT:
/// it recurs on every iteration of [K, until] and is never consumed.
/// simt::MultiDeviceBackend rejects a `device` it does not have.
struct FaultPlan {
  std::vector<FaultEvent> events;

  bool empty() const { return events.empty(); }

  /// Parse a spec string; throws FaultError with the offending token on
  /// malformed input. An empty/whitespace spec yields an empty plan.
  static FaultPlan parse(const std::string& spec);

  std::string to_string() const;
};

/// How the runtime reacts to injected faults. The costs of every recovery
/// action are priced through the CommModel so simulated time reflects them.
struct RecoveryPolicy {
  /// Re-partition a dead device's components onto the survivors and resume
  /// from the last checkpoint. Off: a kill raises FaultError.
  bool failover = true;
  /// CRC-verify consensus payloads; a corrupted message is detected and
  /// re-sent (priced as one retry) instead of silently entering the state.
  /// Off: corruption silently perturbs the consensus iterate.
  bool verify_messages = true;
  /// Message retry budget before a dropped link escalates to a device loss.
  int max_retries = 3;
  /// Detection timeout charged per failed delivery attempt.
  double retry_timeout_s = 100e-6;
  /// Exponential backoff factor applied to successive timeouts.
  double backoff_factor = 2.0;
};

/// Simulated seconds spent recovering a message that failed `failures`
/// times: each failure costs one (backed-off) detection timeout plus the
/// re-send priced through the alpha-beta model.
double retry_cost_seconds(const RecoveryPolicy& policy, const CommModel& comm,
                          std::size_t message_bytes, int failures);

/// Query-side view of a FaultPlan used inside the iteration loop. Kill
/// events are consumed (a device dies once); everything else is a pure
/// deterministic function of (device, iteration). Persistent events are
/// exempt from consumption: consume_* calls skip them, so they re-fire on
/// every covered iteration (including post-failover replays).
class FaultInjector {
 public:
  FaultInjector() = default;
  explicit FaultInjector(FaultPlan plan)
      : plan_(std::move(plan)), consumed_(plan_.events.size(), 0) {}

  bool empty() const { return plan_.empty(); }

  /// True when a not-yet-consumed kill is scheduled at (device, iteration).
  bool kill_scheduled(std::size_t device, int iteration) const;
  /// Consume the kill so a post-failover replay does not re-trigger it.
  void consume_kill(std::size_t device, int iteration);

  /// Number of times the device's upload is dropped at this iteration.
  int message_drops(std::size_t device, int iteration) const;
  /// Consume the drop events once retried, so a post-failover replay of the
  /// same iteration sees a clean link (transient-fault semantics).
  void consume_drops(std::size_t device, int iteration);

  /// The corruption event hitting the device's upload this iteration, or
  /// nullptr. Corruption applies on the first pass only (consumed like a
  /// kill), so a rolled-back replay is clean — matching a real transient.
  const FaultEvent* corruption(std::size_t device, int iteration) const;
  void consume_corruption(std::size_t device, int iteration);

  /// Kernel-time multiplier for the device at this iteration (1.0 = none).
  double straggle_factor(std::size_t device, int iteration) const;

 private:
  /// The first unconsumed `kind` event of `device` active at `iteration`,
  /// searching from index `from`; plan_.events.size() when there is none.
  std::size_t next(FaultEvent::Kind kind, std::size_t device, int iteration,
                   std::size_t from = 0) const;

  FaultPlan plan_;
  std::vector<char> consumed_;  // parallel to plan_.events
};

/// One scheduled filesystem failpoint. Where the FaultEvent family above is
/// keyed by (device, iteration), filesystem failpoints are keyed by the
/// 1-based ordinal of the matching I/O attempt — deterministic for the same
/// run, independent of wall time.
struct FsFailpoint {
  enum class Kind {
    kShortWrite,      ///< temp file receives only `bytes` bytes, then EIO
    kNoSpace,         ///< write fails immediately with ENOSPC
    kFailRename,      ///< temp written fine; the atomic rename fails (EIO)
    kCrashAfterTemp,  ///< process "crashes" after fsync(temp), before rename
    kCorruptRead,     ///< a read returns the file with one byte flipped
  };
  Kind kind = Kind::kNoSpace;
  /// 1-based ordinal of the first matching operation this failpoint fires
  /// on. Write-kind failpoints count write *attempts* (so a retry of a
  /// failed save is attempt N+1); kCorruptRead counts reads.
  int op = 1;
  /// Fire on `times` consecutive matching operations [op, op+times-1]
  /// (transient-fault semantics: times < max_retries is survivable).
  int times = 1;
  std::size_t bytes = 0;      ///< short-write length (kShortWrite)
  std::string path_contains;  ///< only ops whose path contains this count

  std::string to_string() const;
};

/// A deterministic schedule of filesystem failpoints: an `--io-faults` spec
/// in the shared grammar (I/O row of the DESIGN.md §7 table). Example: the
/// third checkpoint write attempt hits a full disk twice, then succeeds on
/// retry: "enospc:op=3,times=2,path=day.ckpt".
struct FsFaultPlan {
  std::vector<FsFailpoint> events;

  bool empty() const { return events.empty(); }
  static FsFaultPlan parse(const std::string& spec);
};

/// Query-side view of an FsFaultPlan used inside durable_write_file /
/// durable_read_file. Each failpoint counts the operations of its side
/// (write or read) matching its path filter, so two failpoints with
/// different filters fire independently and deterministically.
class FsFaultInjector {
 public:
  explicit FsFaultInjector(FsFaultPlan plan);

  bool empty() const { return plan_.empty(); }

  /// Register one write attempt of `path`; returns the failpoint to apply
  /// (the first armed match), or nullptr for a clean write.
  const FsFailpoint* on_write_attempt(const std::string& path);
  /// Register one read of `path`; returns an armed kCorruptRead or nullptr.
  const FsFailpoint* on_read(const std::string& path);

 private:
  const FsFailpoint* advance(const std::string& path, bool write_side);

  FsFaultPlan plan_;
  OrdinalSchedule schedule_;
};

}  // namespace dopf::runtime
