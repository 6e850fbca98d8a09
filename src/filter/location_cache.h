// Location cache: the CN-wide "where is it?" tier next to the succinct
// filter cache. Where the cuckoo filter answers "does an inner node with
// this prefix *exist*?", a location cache maps a hash to a remote address.
// Each compute node runs two instances of this one class:
//   - the Prefix Entry Cache (PEC) maps a *prefix* hash to the 8-byte INHT
//     payload {node type, addr48}, so a search skips the hash-entry read
//     (3 RTTs -> 2);
//   - the Leaf Address Cache (LAC) maps a *full-key* hash to the leaf's
//     {units, addr48}, so a warm point read is one speculative leaf read
//     (2 RTTs -> 1).
//
// Coherence is by validation, not invalidation messages: a cached payload
// is only a *hint*. A PEC-found node is verified against the prefix hash,
// type and depth exactly as an INHT-read candidate would be
// (SphinxIndex::adopt_candidate); a LAC-found leaf is verified exactly as a
// descent-found leaf would be -- unit count against the header, CRC, a
// non-Invalid status and a byte-exact compare of the stored key. That
// compare is the guard that makes point descents immune to recycled blocks
// (DESIGN.md sect. 14), so a stale or ABA-recycled address costs at most a
// wasted read -- or zero, when the speculative read is doorbell-fused with
// the fallback -- never a wrong answer. Stale entries are purged via
// invalidate_if(), keyed on the address, so a concurrent refresh with the
// new address is never dropped.
//
// A slot is a single 8-byte word: tag(9) | hot(1) | payload(54). The short
// tag buys entry density: a false tag match costs one wasted speculative
// read (caught by the validation above and purged), at a ~1/512 rate,
// while the budget holds twice as many entries as a {hash, payload} pair
// would. One-word slots also make every transition a single CAS or store,
// so a lookup never sees a torn tag/payload pair. Eviction keeps the
// paper's hotness-bit second-chance policy (Sec. III-B); one instance is
// shared by all workers of one compute node.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>

#include "common/hash.h"

namespace sphinx::filter {

struct LocationCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t inserts = 0;
  uint64_t evictions = 0;      // second-chance / rotation replacements
  uint64_t invalidations = 0;  // stale entries purged after validation
};

// LAC payload layout: units<<48 | addr48. Leaf unit counts are six bits
// (pack_leaf_slot asserts units < 64), so the packed value spans 54 bits.
// The PEC's INHT payload, type<<48 | addr48, spans 51.
inline constexpr uint64_t kLacAddrMask = (1ULL << 48) - 1;

inline uint64_t pack_lac_payload(uint32_t units, uint64_t addr48) {
  return (static_cast<uint64_t>(units) << 48) | (addr48 & kLacAddrMask);
}
inline uint32_t lac_payload_units(uint64_t payload) {
  return static_cast<uint32_t>((payload >> 48) & 0x3f);
}
inline uint64_t lac_payload_addr48(uint64_t payload) {
  return payload & kLacAddrMask;
}

class LocationCache {
 public:
  static constexpr uint32_t kWays = 4;        // slots per set
  static constexpr uint64_t kSlotBytes = 8;   // one packed word
  static constexpr uint64_t kAddrMask = kLacAddrMask;

  // Slot word layout (0 = empty slot).
  static constexpr uint32_t kTagShift = 55;   // [63:55] 9-bit tag, nonzero
  static constexpr uint64_t kHotBit = 1ULL << 54;
  static constexpr uint64_t kPayloadMask = kHotBit - 1;

  // Sizes the cache to approximately `budget_bytes` of slot storage
  // (rounded down to a power-of-two set count, like the cuckoo filter).
  static std::unique_ptr<LocationCache> with_budget(uint64_t budget_bytes);

  // `num_sets` is rounded up to a power of two.
  explicit LocationCache(uint64_t num_sets);

  // Looks up `hash`. On a hit stores the cached payload in *payload_out
  // and the *pre-lookup* hotness in *was_hot, then marks the entry hot.
  // Cold hits are low-confidence: the entry was not recently validated, so
  // callers hedge the speculative read with a fused fallback read.
  bool lookup(uint64_t hash, uint64_t* payload_out, bool* was_hot);

  // Upserts `hash -> payload` (payload must fit kPayloadMask: 54
  // significant bits). An existing entry for the hash is replaced in place
  // -- a type switch or an out-of-place update moved the target -- keeping
  // its hotness; new entries start cold. Under pressure a random cold
  // victim is replaced (second chance); when every way is hot, all hotness
  // in the set is cleared and a rotating victim is evicted.
  void insert(uint64_t hash, uint64_t payload);

  // Purges the entry for `hash` only if it still points at `addr48` -- a
  // concurrent refresh with the new address must not be dropped. Returns
  // true when a slot was cleared.
  bool invalidate_if(uint64_t hash, uint64_t addr48);

  uint64_t num_sets() const { return num_sets_; }
  uint64_t capacity() const { return num_sets_ * kWays; }
  uint64_t memory_bytes() const { return capacity() * kSlotBytes; }

  // Approximate number of live entries.
  uint64_t size() const;

  LocationCacheStats stats() const;

 private:
  // Tag bits come from the hash's high end (set_index consumes remixed low
  // bits); 0 would collide with the empty-slot sentinel, so it remaps to 1
  // (the same trick the cuckoo filter plays with fingerprint 0).
  static uint64_t tag_of(uint64_t hash) {
    const uint64_t t = hash >> kTagShift;
    return (t == 0 ? 1 : t) << kTagShift;
  }
  static uint64_t word_tag(uint64_t word) {
    return word >> kTagShift << kTagShift;
  }
  uint64_t set_index(uint64_t hash) const {
    // Remix so the set index is independent of the bits the cuckoo filter
    // and the consistent-hash ring consume.
    return splitmix64(hash) & (num_sets_ - 1);
  }
  std::atomic<uint64_t>* set_of(uint64_t index) {
    return slots_.get() + index * kWays;
  }
  uint64_t next_random();

  uint64_t num_sets_;  // power of two
  std::unique_ptr<std::atomic<uint64_t>[]> slots_;
  std::atomic<uint64_t> rng_state_{0x9e3779b97f4a7c15ULL};

  mutable std::atomic<uint64_t> hits_{0};
  mutable std::atomic<uint64_t> misses_{0};
  mutable std::atomic<uint64_t> inserts_{0};
  mutable std::atomic<uint64_t> evictions_{0};
  mutable std::atomic<uint64_t> invalidations_{0};
};

// The two per-CN instances under their tier names.
using PrefixEntryCache = LocationCache;
using LeafAddressCache = LocationCache;

}  // namespace sphinx::filter
