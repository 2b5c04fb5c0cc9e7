#include "serve/cache.hpp"

namespace dopf::serve {

std::size_t estimate_model_bytes(const dopf::core::ScenarioBinding& binding) {
  return binding.model().bytes() + binding.bytes();
}

ModelCache::ModelCache(std::size_t budget_bytes)
    : budget_bytes_(budget_bytes) {}

std::shared_ptr<CachedModel> ModelCache::acquire(const std::string& key,
                                                 const Builder& build) {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    auto it = by_key_.find(key);
    if (it != by_key_.end()) {
      ++stats_.hits;
      lru_.splice(lru_.begin(), lru_, it->second);  // touch
      return *it->second;
    }
    if (building_.count(key) == 0) break;
    // Another worker is factorizing this key right now; wait for it
    // instead of paying a duplicate precompute.
    build_done_.wait(lock);
  }

  building_[key] = true;
  lock.unlock();
  std::shared_ptr<CachedModel> entry;
  try {
    entry = build();
  } catch (...) {
    lock.lock();
    building_.erase(key);
    build_done_.notify_all();
    throw;
  }
  lock.lock();
  building_.erase(key);
  ++stats_.misses;
  lru_.push_front(entry);
  by_key_[key] = lru_.begin();
  stats_.resident_bytes += entry->bytes;
  stats_.entries = lru_.size();
  evict_over_budget_locked();
  build_done_.notify_all();
  return entry;
}

void ModelCache::evict_over_budget_locked() {
  while (stats_.resident_bytes > budget_bytes_ && lru_.size() > 1) {
    const std::shared_ptr<CachedModel> victim = lru_.back();
    lru_.pop_back();
    by_key_.erase(victim->key);
    stats_.resident_bytes -= victim->bytes;
    ++stats_.evictions;
    // In-flight requests still hold shared_ptr copies; the model is freed
    // when the last one releases it.
  }
  stats_.entries = lru_.size();
}

ModelCache::Stats ModelCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace dopf::serve
