/// ModelCache policy: LRU eviction under a byte budget (always retaining
/// at least one entry), build-once coordination so concurrent misses on
/// the same key pay one build, and shared_ptr handout so eviction never
/// dangles an in-flight solve. Entries here are synthetic (no real
/// factorizations) — the policy is what's under test.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "runtime/instances.hpp"
#include "serve/cache.hpp"

namespace dopf::serve {
namespace {

std::shared_ptr<CachedModel> make_entry(const std::string& key,
                                        std::size_t bytes) {
  auto entry = std::make_shared<CachedModel>();
  entry->key = key;
  entry->bytes = bytes;
  entry->model_fp = std::hash<std::string>{}(key);
  return entry;
}

TEST(ModelCacheTest, MissBuildsThenHits) {
  ModelCache cache(1 << 20);
  int builds = 0;
  auto builder = [&] {
    ++builds;
    return make_entry("a", 100);
  };
  const auto first = cache.acquire("a", builder);
  const auto second = cache.acquire("a", builder);
  EXPECT_EQ(builds, 1);
  EXPECT_EQ(first.get(), second.get());
  const auto st = cache.stats();
  EXPECT_EQ(st.misses, 1u);
  EXPECT_EQ(st.hits, 1u);
  EXPECT_EQ(st.entries, 1u);
  EXPECT_EQ(st.resident_bytes, 100u);
}

TEST(ModelCacheTest, LruEvictionUnderBudget) {
  ModelCache cache(250);
  cache.acquire("a", [] { return make_entry("a", 100); });
  cache.acquire("b", [] { return make_entry("b", 100); });
  // Touch "a" so "b" is the least recently used.
  cache.acquire("a", [] { return make_entry("a", 100); });
  cache.acquire("c", [] { return make_entry("c", 100); });  // 300 > 250

  const auto st = cache.stats();
  EXPECT_EQ(st.evictions, 1u);
  EXPECT_EQ(st.entries, 2u);
  EXPECT_LE(st.resident_bytes, 250u);

  // "b" was evicted; "a" and "c" still hit.
  int rebuilt = 0;
  cache.acquire("a", [&] { ++rebuilt; return make_entry("a", 100); });
  cache.acquire("c", [&] { ++rebuilt; return make_entry("c", 100); });
  EXPECT_EQ(rebuilt, 0);
  cache.acquire("b", [&] { ++rebuilt; return make_entry("b", 100); });
  EXPECT_EQ(rebuilt, 1);
}

TEST(ModelCacheTest, AtLeastOneEntrySurvivesATinyBudget) {
  ModelCache cache(10);  // smaller than any entry
  const auto a = cache.acquire("a", [] { return make_entry("a", 100); });
  EXPECT_EQ(cache.stats().entries, 1u);
  // A second key evicts the first but is itself retained: the cache
  // thrashes instead of failing.
  const auto b = cache.acquire("b", [] { return make_entry("b", 100); });
  const auto st = cache.stats();
  EXPECT_EQ(st.entries, 1u);
  EXPECT_EQ(st.evictions, 1u);
  // The evicted entry is still alive through our shared_ptr.
  EXPECT_EQ(a->key, "a");
}

TEST(ModelCacheTest, BuilderFailureLeavesKeyAbsent) {
  ModelCache cache(1 << 20);
  EXPECT_THROW(
      cache.acquire("bad", []() -> std::shared_ptr<CachedModel> {
        throw std::runtime_error("build exploded");
      }),
      std::runtime_error);
  // The failed key is absent, not wedged: a later acquire rebuilds.
  int builds = 0;
  const auto entry = cache.acquire("bad", [&] {
    ++builds;
    return make_entry("bad", 10);
  });
  EXPECT_EQ(builds, 1);
  EXPECT_EQ(entry->key, "bad");
}

TEST(ModelCacheTest, ConcurrentMissesBuildOnce) {
  ModelCache cache(1 << 20);
  std::atomic<int> builds{0};
  std::atomic<bool> start{false};
  constexpr int kThreads = 8;
  std::vector<std::shared_ptr<CachedModel>> got(kThreads);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      while (!start.load(std::memory_order_acquire)) {
      }
      got[i] = cache.acquire("shared", [&] {
        ++builds;
        // Widen the race window: later arrivals must wait, not rebuild.
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        return make_entry("shared", 64);
      });
    });
  }
  start.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();

  EXPECT_EQ(builds.load(), 1);
  for (int i = 1; i < kThreads; ++i) EXPECT_EQ(got[i].get(), got[0].get());
  const auto st = cache.stats();
  EXPECT_EQ(st.misses, 1u);
  EXPECT_EQ(st.hits, static_cast<std::uint64_t>(kThreads - 1));
}

TEST(EstimateModelBytesTest, PackBytesPlusOneUnpaddedFactorBlock) {
  const auto inst = dopf::runtime::make_instance("ieee13");
  dopf::core::SolveModel model(inst.problem, {});
  dopf::core::ScenarioBinding binding(model);
  const auto& pack = binding.pack();
  std::size_t logical = 0;  // sum n_s^2: Abar without panel padding
  for (int ns : pack.comp_nvars) logical += static_cast<std::size_t>(ns) * ns;
  // The pack's own count includes the panel padding and the global-update
  // schedule, so it is the one definition the budget builds on.
  EXPECT_GT(pack.abar.size(), logical);
  EXPECT_GE(pack.bytes(), sizeof(double) * pack.abar.size() +
                              sizeof(int) * pack.global_order.size());
  EXPECT_EQ(estimate_model_bytes(binding),
            pack.bytes() + sizeof(double) * logical);
}

}  // namespace
}  // namespace dopf::serve
