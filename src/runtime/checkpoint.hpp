#pragma once

#include <iosfwd>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/admm.hpp"
#include "runtime/durable.hpp"

namespace dopf::runtime {

/// Thrown on malformed, truncated, or corrupted checkpoint files.
class CheckpointError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// A complete restart point of the solver-free ADMM: the iterate snapshot
/// (everything the deterministic updates read, captured after iteration
/// `iteration`) plus the identity of the problem it was recorded on.
/// Serialized with the same C99 hex-float codec as the golden traces
/// (src/verify/codec.hpp) so a save/load round-trip preserves every bit,
/// and guarded by a CRC-32 of the payload so truncation or bit rot is
/// detected at load time instead of silently corrupting a resumed run.
struct AdmmCheckpoint : dopf::core::IterateSnapshot {
  std::string label;  ///< instance label (informational, e.g. "ieee13")
  /// FNV-1a fingerprint of the model topology (Abar pool, gather
  /// structure) the checkpoint was recorded against; 0 = unknown (legacy
  /// file). See core::topology_fingerprint.
  std::uint64_t model_fingerprint = 0;
  /// FNV-1a fingerprint of the bound scenario data (bbar, c, bounds, x0);
  /// 0 = unknown. A resume against edited loads fails validation loudly
  /// instead of silently continuing on the wrong scenario.
  std::uint64_t scenario_fingerprint = 0;
  /// Monotonic save counter assigned by CheckpointStore (0 = not stored in
  /// an A/B pair, the single-file layout). The store picks the slot with
  /// the highest valid generation on load, so a torn newest write falls
  /// back to the previous good one.
  std::uint64_t generation = 0;

  /// Snapshot the solver's current state (use from a checkpoint hook or
  /// between step-level calls; the state must be post-dual-update).
  static AdmmCheckpoint capture(const dopf::core::SolverFreeAdmm& admm,
                                int iteration, std::string label = {});

  /// Check this checkpoint against the solver's problem layout BEFORE any
  /// state is overwritten: x/z/z_prev/lambda dimensions must match, and —
  /// when `expected_label` is non-empty and the checkpoint carries a label —
  /// the labels must agree. When the checkpoint carries fingerprints
  /// (non-zero), the solver's bound model topology AND scenario data must
  /// fingerprint-match too, so a warm-session resume against edited loads
  /// is rejected. A CRC-valid checkpoint recorded on a different feeder or
  /// scenario fails here with a message naming both sides instead of
  /// silently corrupting the run. Throws CheckpointError.
  void validate_for(const dopf::core::SolverFreeAdmm& admm,
                    const std::string& expected_label = {}) const;

  /// Push this state back into a solver over the same problem layout
  /// (validated via validate_for first); its next solve() resumes from
  /// iteration + 1.
  void restore(dopf::core::SolverFreeAdmm* admm,
               const std::string& expected_label = {}) const;
};

void write_checkpoint(const AdmmCheckpoint& ck, std::ostream& out);
AdmmCheckpoint read_checkpoint(std::istream& in);
/// Atomically (write-temp -> fsync -> rename) replace `path` with the
/// serialized checkpoint. A failed or short write surfaces as IoError with
/// path + errno — never a silently-torn file. Returns the I/O work done
/// (retries are priced in simulated seconds like message recovery).
IoStats save_checkpoint(const AdmmCheckpoint& ck, const std::string& path,
                        const DurableOptions& opts = {});
AdmmCheckpoint load_checkpoint(const std::string& path,
                               const DurableOptions& opts = {});

/// Serialized size in bytes (what a rank must ship to recover a peer); used
/// to price failover through the communication model.
std::size_t checkpoint_bytes(const AdmmCheckpoint& ck);

/// Generation-numbered A/B checkpoint pair: saves alternate between
/// `base.a` and `base.b`, each stamped with a monotonically increasing
/// generation, and every write is atomic+durable. The slot holding the
/// PREVIOUS generation is never touched while the new one is written, so a
/// crash or torn write at any point leaves at least one loadable
/// checkpoint: load() prefers the highest valid generation and falls back
/// to the other slot — with a diagnostic naming what was wrong — when the
/// newest is corrupt.
class CheckpointStore {
 public:
  explicit CheckpointStore(std::string base_path, DurableOptions opts = {});

  const std::string& base_path() const { return base_path_; }
  std::string slot_a() const { return base_path_ + ".a"; }
  std::string slot_b() const { return base_path_ + ".b"; }
  /// True when either slot file exists on disk.
  bool any_slot_exists() const;

  /// Durably write `ck` (stamped generation latest+1) into the slot NOT
  /// holding the newest valid checkpoint. Throws IoError / SimulatedCrash.
  IoStats save(AdmmCheckpoint ck);

  struct Loaded {
    AdmmCheckpoint checkpoint;
    std::string path;        ///< the slot the checkpoint came from
    bool fell_back = false;  ///< newest-generation slot was rejected
    std::string diagnostic;  ///< why the preferred slot was rejected
  };
  /// Load the newest valid generation. Throws CheckpointError (with both
  /// slots' diagnoses) when neither slot holds a valid checkpoint.
  Loaded load() const;

 private:
  std::string base_path_;
  DurableOptions opts_;
  /// Next generation to stamp and the slot to write it to; scanned lazily
  /// from the on-disk slots on the first save.
  std::uint64_t next_generation_ = 0;
  int next_slot_ = 0;  // 0 = .a, 1 = .b
  bool scanned_ = false;
};

/// Resolve a `--resume PATH` argument against both layouts: when PATH.a or
/// PATH.b exists the A/B store is consulted (torn-write fallback included);
/// otherwise PATH itself is loaded as a single-file checkpoint.
CheckpointStore::Loaded resolve_checkpoint(const std::string& path,
                                           const DurableOptions& opts = {});

}  // namespace dopf::runtime
