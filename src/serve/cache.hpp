#pragma once

#include <cstddef>
#include <cstdint>
#include <condition_variable>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "core/scenario_binding.hpp"
#include "core/solve_model.hpp"
#include "network/network.hpp"
#include "opf/decompose.hpp"

namespace dopf::serve {

/// One cached topology precompute: everything requests sharing a topology
/// fingerprint coalesce onto. The SolveModel owns the per-component
/// projector factorizations (the paper's Table 4 subproblem precompute —
/// the expensive part, identical across load-only scenario variations);
/// the ScenarioBinding is rebound in place per request, so a b-only
/// scenario is a rhs rebind with zero refactorizations.
///
/// `mu` serializes rebind+solve on the binding: one scenario is bound at a
/// time per model, while requests against DIFFERENT models solve in
/// parallel on other workers.
struct CachedModel {
  std::string key;  ///< feeder + preflight policy (what admission derived)
  dopf::network::Network net;
  dopf::opf::DecomposeOptions decompose;
  dopf::linalg::ProjectorOptions projector;
  std::unique_ptr<dopf::core::SolveModel> model;
  std::unique_ptr<dopf::core::ScenarioBinding> binding;
  std::uint64_t model_fp = 0;  ///< core::topology_fingerprint of the pack
  std::size_t bytes = 0;       ///< resident-memory estimate for the budget
  std::mutex mu;
};

/// Rough resident-byte estimate for a bound model: the packed image as
/// core::PackedLocalSolvers::bytes() counts it, plus the retained Gram
/// factorizations (approximated as one more unpadded Abar-sized block).
/// Order-of-magnitude is all the budget needs.
std::size_t estimate_model_bytes(const dopf::core::ScenarioBinding& binding);

/// Memory-budgeted LRU cache of CachedModel entries, keyed by the
/// admission-derived model key. Entries are handed out as shared_ptr, so an
/// evicted entry stays alive until its last in-flight request releases it —
/// eviction bounds RESIDENT cache memory, never dangles a solve.
///
/// Concurrent acquires of the same missing key build once: later arrivals
/// wait for the builder instead of paying a duplicate factorization.
class ModelCache {
 public:
  using Builder = std::function<std::shared_ptr<CachedModel>()>;

  /// `budget_bytes` caps the estimated resident total; at least one entry
  /// is always retained (a budget smaller than any model still serves,
  /// thrashing instead of failing).
  explicit ModelCache(std::size_t budget_bytes);

  /// Return the cached entry for `key`, building it via `build` on a miss.
  /// Throws whatever `build` throws (the key stays absent).
  std::shared_ptr<CachedModel> acquire(const std::string& key,
                                       const Builder& build);

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::size_t resident_bytes = 0;
    std::size_t entries = 0;
  };
  Stats stats() const;

 private:
  void evict_over_budget_locked();

  std::size_t budget_bytes_;
  mutable std::mutex mu_;
  std::condition_variable build_done_;
  /// Most-recently-used at the front; eviction pops the back.
  std::list<std::shared_ptr<CachedModel>> lru_;
  std::unordered_map<std::string, std::list<std::shared_ptr<CachedModel>>::iterator>
      by_key_;
  std::unordered_map<std::string, bool> building_;
  Stats stats_;
};

}  // namespace dopf::serve
