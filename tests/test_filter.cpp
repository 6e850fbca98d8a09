// Unit tests for the succinct filter cache substrate (cuckoo filter with
// hotness-bit second-chance eviction).
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "common/hash.h"
#include "filter/cuckoo_filter.h"

namespace sphinx::filter {
namespace {

TEST(CuckooFilter, InsertedItemsAreFound) {
  CuckooFilter f(1 << 12);
  for (uint64_t i = 0; i < 1000; ++i) {
    ASSERT_TRUE(f.insert(splitmix64(i)));
  }
  for (uint64_t i = 0; i < 1000; ++i) {
    EXPECT_TRUE(f.contains(splitmix64(i))) << i;
  }
}

TEST(CuckooFilter, FalsePositiveRateBelowOnePercent) {
  // Paper Sec. III-B: a ~12-bit fingerprint keeps the fp rate < 1%.
  CuckooFilter f(1 << 14);  // 64K slots
  const uint64_t n = 50000;  // ~76% load
  for (uint64_t i = 0; i < n; ++i) f.insert(splitmix64(i));
  uint64_t fp = 0;
  const uint64_t probes = 200000;
  for (uint64_t i = 0; i < probes; ++i) {
    if (f.contains_cold(splitmix64(1'000'000'000 + i))) fp++;
  }
  EXPECT_LT(static_cast<double>(fp) / probes, 0.01);
}

TEST(CuckooFilter, EraseRemoves) {
  CuckooFilter f(1 << 10);
  const uint64_t h = splitmix64(1234);
  EXPECT_TRUE(f.insert(h));
  EXPECT_TRUE(f.contains_cold(h));
  EXPECT_TRUE(f.erase(h));
  EXPECT_FALSE(f.contains_cold(h));
  EXPECT_FALSE(f.erase(h));
}

TEST(CuckooFilter, DuplicateInsertIsIdempotent) {
  CuckooFilter f(1 << 10);
  const uint64_t h = splitmix64(99);
  EXPECT_TRUE(f.insert(h));
  EXPECT_TRUE(f.insert(h));
  EXPECT_EQ(f.stats().insert_dupes, 1u);
  EXPECT_TRUE(f.erase(h));
  EXPECT_FALSE(f.contains_cold(h));  // one erase removes the only copy
}

TEST(CuckooFilter, SecondChanceEvictsColdEntriesFirst) {
  // Fill a tiny filter, touch half the entries (making them hot), then
  // insert fresh items under pressure: evictions should hit cold entries,
  // so hot entries survive at a much higher rate.
  CuckooFilter f(64);  // 256 slots
  std::vector<uint64_t> hot, cold;
  for (uint64_t i = 0; hot.size() + cold.size() < 220; ++i) {
    const uint64_t h = splitmix64(i);
    if (!f.insert(h)) continue;
    if (i % 2 == 0) {
      hot.push_back(h);
    } else {
      cold.push_back(h);
    }
  }
  for (uint64_t h : hot) f.contains(h);  // sets hotness bits

  for (uint64_t i = 0; i < 200; ++i) {
    f.insert(splitmix64(0xdead0000 + i));
  }

  auto survivors = [&](const std::vector<uint64_t>& v) {
    uint64_t alive = 0;
    for (uint64_t h : v) {
      if (f.contains_cold(h)) alive++;
    }
    return static_cast<double>(alive) / static_cast<double>(v.size());
  };
  EXPECT_GT(survivors(hot), survivors(cold) + 0.15);
}

TEST(CuckooFilter, HotWorkingSetSurvivesOverCapacityChurn) {
  // Fill far past capacity with a one-shot cold stream while a small hot
  // working set is periodically re-touched. The second-chance policy must
  // keep (almost) all of the hot set resident and displace the cold
  // stream instead, even though the stream is several times the filter.
  CuckooFilter f(64);  // 256 slots
  std::vector<uint64_t> hot;
  for (uint64_t i = 0; hot.size() < 32; ++i) {
    const uint64_t h = splitmix64(0x50f7 + i);
    if (f.insert(h)) hot.push_back(h);
  }

  // 4x capacity of cold one-timers, interleaved with hot re-touches (each
  // contains() re-arms the hotness bit, like repeated index lookups on a
  // hot prefix).
  for (uint64_t i = 0; i < 1024; ++i) {
    f.insert(splitmix64(0xc01d0000 + i));
    if (i % 8 == 0) {
      for (uint64_t h : hot) f.contains(h);
    }
  }

  uint64_t hot_alive = 0;
  for (uint64_t h : hot) {
    if (f.contains_cold(h)) hot_alive++;
  }
  EXPECT_GE(hot_alive, hot.size() - 2) << "hot prefixes were displaced";

  // The cold stream did not accumulate: most one-timers are gone again.
  uint64_t cold_alive = 0;
  for (uint64_t i = 0; i < 1024; ++i) {
    if (f.contains_cold(splitmix64(0xc01d0000 + i))) cold_alive++;
  }
  EXPECT_LT(cold_alive, 256u);
  EXPECT_GT(f.stats().evictions, 0u);
}

TEST(CuckooFilter, RelocationMakesRoomWhenAllHot) {
  CuckooFilter f(32);  // 128 slots
  std::vector<uint64_t> items;
  for (uint64_t i = 0; items.size() < 100; ++i) {
    const uint64_t h = splitmix64(0xabc + i);
    if (f.insert(h)) items.push_back(h);
  }
  for (uint64_t h : items) f.contains(h);  // everything hot
  // New inserts must still succeed (relocation path).
  uint64_t inserted = 0;
  for (uint64_t i = 0; i < 50; ++i) {
    if (f.insert(splitmix64(0xffff0000 + i))) inserted++;
  }
  EXPECT_GT(inserted, 40u);
  EXPECT_GT(f.stats().relocations + f.stats().evictions, 0u);
}

TEST(CuckooFilter, WithBudgetRespectsBytes) {
  auto f = CuckooFilter::with_budget(1 << 20);
  EXPECT_LE(f->memory_bytes(), 1u << 20);
  EXPECT_GE(f->memory_bytes(), 1u << 19);  // at least half the budget
}

TEST(CuckooFilter, SizeCountsLiveEntries) {
  CuckooFilter f(1 << 10);
  EXPECT_EQ(f.size(), 0u);
  for (uint64_t i = 0; i < 100; ++i) f.insert(splitmix64(i));
  EXPECT_EQ(f.size(), 100u);
}

TEST(CuckooFilter, ConcurrentInsertAndLookup) {
  CuckooFilter f(1 << 14);
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        const uint64_t h = splitmix64(t * kPerThread + i);
        f.insert(h);
        f.contains(h);
      }
    });
  }
  for (auto& t : threads) t.join();
  // Low pressure (61% load): nearly everything must be present.
  uint64_t present = 0;
  for (uint64_t i = 0; i < kThreads * kPerThread; ++i) {
    if (f.contains_cold(splitmix64(i))) present++;
  }
  EXPECT_GT(present, kThreads * kPerThread * 98 / 100);
}

TEST(CuckooFilter, StatsReset) {
  CuckooFilter f(64);
  f.insert(splitmix64(1));
  f.insert(splitmix64(1));
  EXPECT_GT(f.stats().inserts, 0u);
  f.reset_stats();
  EXPECT_EQ(f.stats().inserts, 0u);
  EXPECT_EQ(f.stats().insert_dupes, 0u);
}

}  // namespace
}  // namespace sphinx::filter
