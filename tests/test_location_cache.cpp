// Unit tests for the location cache, the one-word-slot class behind both
// CN location tiers: the prefix entry cache (prefix hash -> INHT payload)
// and the leaf address cache (full-key hash -> leaf units and address).
// The PrefixEntryCache and LeafAddrCache suites exercise it as each tier
// uses it; the LocationCache suite pins what the two share.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/hash.h"
#include "core/inht.h"
#include "filter/location_cache.h"

namespace sphinx::filter {
namespace {

// Hashes that all land in the same set of `cache` (mirrors set_index()),
// each with its own 9-bit tag so no two alias one slot.
std::vector<uint64_t> same_set_hashes(const LocationCache& cache, size_t n) {
  std::vector<uint64_t> out;
  std::vector<uint64_t> tags;
  for (uint64_t i = 1; out.size() < n; ++i) {
    const uint64_t h = splitmix64(i);
    const uint64_t tag = h >> LocationCache::kTagShift;
    if ((splitmix64(h) & (cache.num_sets() - 1)) != 0 || tag == 0) continue;
    bool fresh = true;
    for (uint64_t t : tags) fresh = fresh && t != tag;
    if (!fresh) continue;
    tags.push_back(tag);
    out.push_back(h);
  }
  return out;
}

// ---- prefix entry cache tier -------------------------------------------

TEST(PrefixEntryCache, InsertLookupRoundTrip) {
  LocationCache pec(1 << 8);
  uint64_t payload = 0;
  bool was_hot = true;
  EXPECT_FALSE(pec.lookup(splitmix64(7), &payload, &was_hot));
  pec.insert(splitmix64(7), 0x1234);
  ASSERT_TRUE(pec.lookup(splitmix64(7), &payload, &was_hot));
  EXPECT_EQ(payload, 0x1234u);
  EXPECT_FALSE(was_hot);  // new entries start cold
  // The first lookup marked it hot.
  ASSERT_TRUE(pec.lookup(splitmix64(7), &payload, &was_hot));
  EXPECT_TRUE(was_hot);
  EXPECT_EQ(pec.stats().hits, 2u);
  EXPECT_EQ(pec.stats().misses, 1u);
}

TEST(PrefixEntryCache, HashZeroIsUsable) {
  // Hash 0 collides with the empty-tag sentinel and must be remapped, not
  // lost (the remap trick shared with the cuckoo filter's fingerprint 0).
  LocationCache pec(1 << 4);
  uint64_t payload = 0;
  bool was_hot = false;
  pec.insert(0, 0x77);
  ASSERT_TRUE(pec.lookup(0, &payload, &was_hot));
  EXPECT_EQ(payload, 0x77u);
}

TEST(PrefixEntryCache, InPlaceRefreshKeepsHotness) {
  LocationCache pec(1 << 4);
  uint64_t payload = 0;
  bool was_hot = false;
  pec.insert(splitmix64(1), 0xaa);
  ASSERT_TRUE(pec.lookup(splitmix64(1), &payload, &was_hot));  // now hot
  pec.insert(splitmix64(1), 0xbb);  // refresh (e.g. after a type switch)
  ASSERT_TRUE(pec.lookup(splitmix64(1), &payload, &was_hot));
  EXPECT_EQ(payload, 0xbbu);
  EXPECT_TRUE(was_hot);  // refresh must not demote a validated-hot entry
  EXPECT_EQ(pec.size(), 1u);
}

TEST(PrefixEntryCache, InvalidateIfRequiresMatchingAddress) {
  LocationCache pec(1 << 4);
  uint64_t payload = 0;
  bool was_hot = false;
  pec.insert(splitmix64(2), 0x500);
  // Wrong address: a concurrent refresh already replaced the entry, the
  // late invalidation must not drop the newer mapping.
  EXPECT_FALSE(pec.invalidate_if(splitmix64(2), 0x999));
  ASSERT_TRUE(pec.lookup(splitmix64(2), &payload, &was_hot));
  // Matching address purges.
  EXPECT_TRUE(pec.invalidate_if(splitmix64(2), 0x500));
  EXPECT_FALSE(pec.lookup(splitmix64(2), &payload, &was_hot));
  EXPECT_EQ(pec.stats().invalidations, 1u);
}

TEST(PrefixEntryCache, SecondChanceEvictsColdEntriesFirst) {
  LocationCache pec(2);
  const auto keys = same_set_hashes(pec, LocationCache::kWays + 1);
  uint64_t payload = 0;
  bool was_hot = false;
  // Fill one set, then touch all but one entry so exactly one stays cold.
  for (uint64_t i = 0; i < LocationCache::kWays; ++i) {
    pec.insert(keys[i], 0x100 + i);
  }
  for (uint64_t i = 1; i < LocationCache::kWays; ++i) {
    ASSERT_TRUE(pec.lookup(keys[i], &payload, &was_hot));
  }
  // Overflow insert must displace the cold entry, never a hot one.
  pec.insert(keys[LocationCache::kWays], 0x999);
  for (uint64_t i = 1; i < LocationCache::kWays; ++i) {
    EXPECT_TRUE(pec.lookup(keys[i], &payload, &was_hot)) << i;
  }
  EXPECT_FALSE(pec.lookup(keys[0], &payload, &was_hot));
  EXPECT_GT(pec.stats().evictions, 0u);
}

TEST(PrefixEntryCache, AllHotSetStillAcceptsInserts) {
  LocationCache pec(2);
  const auto keys = same_set_hashes(pec, LocationCache::kWays + 1);
  uint64_t payload = 0;
  bool was_hot = false;
  for (uint64_t i = 0; i < LocationCache::kWays; ++i) {
    pec.insert(keys[i], i + 1);
    ASSERT_TRUE(pec.lookup(keys[i], &payload, &was_hot));  // all hot
  }
  pec.insert(keys[LocationCache::kWays], 0x42);
  ASSERT_TRUE(
      pec.lookup(keys[LocationCache::kWays], &payload, &was_hot));
  EXPECT_EQ(payload, 0x42u);
  EXPECT_EQ(pec.size(), LocationCache::kWays);
}

TEST(PrefixEntryCache, WithBudgetRespectsBytes) {
  for (uint64_t budget : {4096ull, 64ull << 10, 1ull << 20}) {
    auto pec = LocationCache::with_budget(budget);
    EXPECT_LE(pec->memory_bytes(), budget);
    EXPECT_GE(pec->memory_bytes(), budget / 4);
  }
}

TEST(PrefixEntryCache, ConcurrentMixedOpsStayCoherent) {
  // Hammer one small cache from several threads mixing inserts, lookups
  // and invalidations. The assertion is the one-word slot contract: a
  // successful lookup never returns payload 0, never leaks the hot bit,
  // and never returns a value no thread wrote. (These small hashes all
  // share one 9-bit tag, so a lookup may return *another* key's payload
  // -- remote validation catches that -- and the check is membership in
  // the written set, not per-key equality.)
  LocationCache pec(1 << 4);
  constexpr int kThreads = 4;
  constexpr uint64_t kKeys = 64;
  std::atomic<uint64_t> bogus{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (uint64_t round = 0; round < 4000; ++round) {
        const uint64_t k = splitmix64(t * 4000 + round) % kKeys;
        const uint64_t payload = 0x1000 + k;  // per-key canonical payload
        switch ((t + round) % 3) {
          case 0:
            pec.insert(k, payload);
            break;
          case 1: {
            uint64_t got = 0;
            bool hot = false;
            if (pec.lookup(k, &got, &hot) &&
                (got < 0x1000 || got >= 0x1000 + kKeys)) {
              bogus.fetch_add(1);
            }
            break;
          }
          default:
            pec.invalidate_if(k, payload & LocationCache::kAddrMask);
            break;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(bogus.load(), 0u);
}

// ---- leaf address cache tier -------------------------------------------

TEST(LacPayload, PackUnpack) {
  const uint64_t addr48 = (0x2ull << 40) | 0xdeadb00;
  const uint64_t p = pack_lac_payload(5, addr48);
  EXPECT_EQ(lac_payload_units(p), 5u);
  EXPECT_EQ(lac_payload_addr48(p), addr48);
  EXPECT_EQ(p & (1ull << 63), 0u);  // bit 63 stays free for the hot bit
}

TEST(LeafAddrCache, InsertLookupInvalidate) {
  LocationCache lac(64);
  const uint64_t h = 0x1234567890abcdefull;
  const uint64_t payload = pack_lac_payload(3, 0xabc000);

  uint64_t got = 0;
  bool hot = true;
  EXPECT_FALSE(lac.lookup(h, &got, &hot));

  lac.insert(h, payload);
  ASSERT_TRUE(lac.lookup(h, &got, &hot));
  EXPECT_EQ(got, payload);
  EXPECT_FALSE(hot);  // first touch: second-chance bit not yet set
  ASSERT_TRUE(lac.lookup(h, &got, &hot));
  EXPECT_TRUE(hot);  // the first lookup promoted it

  // Address-keyed invalidation: the wrong address is a no-op (a concurrent
  // refresh must survive a stale purge), the right one removes the entry.
  lac.invalidate_if(h, 0xdef000);
  EXPECT_TRUE(lac.lookup(h, &got, &hot));
  lac.invalidate_if(h, 0xabc000);
  EXPECT_FALSE(lac.lookup(h, &got, &hot));
  EXPECT_EQ(lac.stats().invalidations, 1u);
}

TEST(LeafAddrCache, BudgetSizingRoundsDown) {
  // 100 slots of budget must not allocate 128: the budget is a cap.
  auto lac = LocationCache::with_budget(100 * LocationCache::kSlotBytes);
  EXPECT_LE(lac->memory_bytes(), 100 * LocationCache::kSlotBytes);
  EXPECT_GE(lac->capacity(), 1u);
}

// ---- shared slot word ----------------------------------------------------

TEST(LocationCache, InhtPayloadRoundTripKeepsTypeAndAddress) {
  // The PEC stores the 51-bit INHT payload in the 54-bit payload field
  // unchanged: the node type's three bits sit above the address.
  LocationCache pec(1 << 4);
  const rdma::GlobalAddr addr(2, 0xabcdef00);
  const uint64_t packed = core::pack_inht_payload(art::NodeType::kN256, addr);
  pec.insert(splitmix64(9), packed);
  uint64_t got = 0;
  bool hot = true;
  ASSERT_TRUE(pec.lookup(splitmix64(9), &got, &hot));
  EXPECT_EQ(got, packed);
  EXPECT_EQ(core::inht_payload_type(got), art::NodeType::kN256);
  EXPECT_EQ(core::inht_payload_addr(got), addr);
  EXPECT_FALSE(hot);
}

TEST(LocationCache, TagCollisionIsPurgedByAddressAndHeals) {
  // Two hashes with the same set index and 9-bit tag alias one slot: the
  // ~1/512 false match validation pays for. A lookup of the second returns
  // the first's payload; the caller's failed validation purges it by that
  // payload's address, and the second's own insert then hits.
  LocationCache cache(2);
  uint64_t h1 = 0, h2 = 0;
  for (uint64_t i = 1; h2 == 0; ++i) {
    const uint64_t h = splitmix64(i);
    if ((splitmix64(h) & (cache.num_sets() - 1)) != 0) continue;
    if (h1 == 0) {
      h1 = h;
    } else if (h >> LocationCache::kTagShift ==
               h1 >> LocationCache::kTagShift) {
      h2 = h;
    }
  }
  ASSERT_NE(h1, h2);
  const uint64_t p1 = pack_lac_payload(2, 0x111000);
  const uint64_t p2 = pack_lac_payload(4, 0x222000);
  cache.insert(h1, p1);

  uint64_t got = 0;
  bool hot = false;
  ASSERT_TRUE(cache.lookup(h2, &got, &hot));
  EXPECT_EQ(got, p1);  // a false match, not a miss
  EXPECT_TRUE(cache.invalidate_if(h2, lac_payload_addr48(p1)));
  EXPECT_FALSE(cache.lookup(h1, &got, &hot));
  EXPECT_EQ(cache.size(), 0u);

  cache.insert(h2, p2);
  ASSERT_TRUE(cache.lookup(h2, &got, &hot));
  EXPECT_EQ(got, p2);
}

}  // namespace
}  // namespace sphinx::filter
