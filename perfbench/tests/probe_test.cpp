// The output check: the oracle's exactness windows, and the decorator's
// failure and violation counts against a scripted in-memory index.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "probe_index.h"

namespace perfbench {
namespace {

std::string value_for(uint64_t stamp) {
  std::string v(64, 'v');
  std::memcpy(v.data(), &stamp, 8);
  return v;
}

// A correct (linearizable) ordered map, except for the faults a test
// switches on.
class MapIndex final : public KvIndex {
 public:
  bool lose_updates = false;     // update() reports a miss on live keys
  bool stale_reads = false;      // search() returns an older stamp
  bool truncate_scans = false;

  bool search(Slice key, std::string* out) override {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = m_.find(std::string(key.data(), key.size()));
    if (it == m_.end()) return false;
    *out = stale_reads ? value_for(value_stamp(it->second) + 1) : it->second;
    return true;
  }
  bool insert(Slice key, Slice value) override {
    std::lock_guard<std::mutex> lock(mu_);
    return m_.emplace(std::string(key.data(), key.size()),
                      std::string(value.data(), value.size()))
        .second;
  }
  bool update(Slice key, Slice value) override {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = m_.find(std::string(key.data(), key.size()));
    if (it == m_.end() || lose_updates) return false;
    it->second.assign(value.data(), value.size());
    return true;
  }
  bool remove(Slice key) override {
    std::lock_guard<std::mutex> lock(mu_);
    return m_.erase(std::string(key.data(), key.size())) > 0;
  }
  size_t scan(Slice start, size_t count,
              std::vector<std::pair<std::string, std::string>>* out) override {
    std::lock_guard<std::mutex> lock(mu_);
    out->clear();
    for (auto it = m_.lower_bound(std::string(start.data(), start.size()));
         it != m_.end() && out->size() < count; ++it) {
      out->push_back(*it);
    }
    if (truncate_scans && !out->empty()) out->pop_back();
    return out->size();
  }
  size_t scan_range(Slice, Slice, size_t,
                    std::vector<std::pair<std::string, std::string>>*) override {
    return 0;
  }
  bool last_scan_truncated() const override { return truncate_scans; }
  const char* name() const override { return "map"; }

 private:
  std::mutex mu_;
  std::map<std::string, std::string> m_;
};

struct Fixture : ::testing::Test {
  std::vector<std::string> keys = {"a", "b", "c", "d", "e"};
  ProbeShared shared{keys, 1, 64};
  MapIndex* map = nullptr;
  std::unique_ptr<ProbeIndex> probe;

  void SetUp() override {
    auto inner = std::make_unique<MapIndex>();
    map = inner.get();
    probe = std::make_unique<ProbeIndex>(std::move(inner), shared, 0);
  }
  WorkerAcc& acc() { return shared.acc[0]; }
};

TEST(KeyTable, FindsPoolKeysOnly) {
  const std::vector<std::string> keys = {"x", "yy", "zzz"};
  KeyTable t(keys);
  EXPECT_EQ(t.find(Slice("yy")), 1);
  EXPECT_EQ(t.find(Slice("zzz")), 2);
  EXPECT_EQ(t.find(Slice("w")), -1);
}

TEST(Oracle, ReadIsExactOnlyWithoutConcurrentMutation) {
  Oracle o(2);
  const Oracle::ReadWindow quiet = o.read_begin(0);
  EXPECT_TRUE(o.read_exact(0, quiet));
  const Oracle::ReadWindow r = o.read_begin(0);
  Oracle::WriteWindow w = o.write_begin(0);
  EXPECT_FALSE(o.read_exact(0, r));                 // mutation under way
  EXPECT_FALSE(o.read_exact(0, o.read_begin(0)));   // began during it
  EXPECT_TRUE(o.write_end(0, w, true, Oracle::kLive, 7));
  EXPECT_FALSE(o.read_exact(0, r));                 // mutation ended inside
  EXPECT_EQ(o.state(0), Oracle::kLive);
  EXPECT_EQ(o.stamp(0), 7u);
  EXPECT_TRUE(o.stamp_known(0));
}

TEST(Oracle, OverlappingUpdatesOfALiveKeyLeaveOnlyTheStampUnknown) {
  Oracle o(1);
  Oracle::WriteWindow a = o.write_begin(0);
  Oracle::WriteWindow b = o.write_begin(0);
  EXPECT_FALSE(o.write_end(0, b, true, Oracle::kLive, 2));
  EXPECT_FALSE(o.write_end(0, a, true, Oracle::kLive, 1));
  // Both were inserts of an absent key: the state is unknown too.
  EXPECT_FALSE(o.state_known(0));
  // A later write that runs alone settles both.
  Oracle::WriteWindow c = o.write_begin(0);
  EXPECT_TRUE(o.write_end(0, c, true, Oracle::kLive, 3));
  EXPECT_TRUE(o.stamp_known(0));
  EXPECT_EQ(o.stamp(0), 3u);
  // Overlapping updates of the now-live key leave it live, stamp unknown.
  Oracle::WriteWindow d = o.write_begin(0);
  Oracle::WriteWindow e = o.write_begin(0);
  o.write_end(0, d, true, Oracle::kLive, 4);
  o.write_end(0, e, true, Oracle::kLive, 5);
  EXPECT_TRUE(o.state_known(0));
  EXPECT_FALSE(o.stamp_known(0));
}

TEST_F(Fixture, CorrectIndexLeavesNoViolations) {
  std::string v;
  EXPECT_TRUE(probe->insert(Slice("a"), Slice(value_for(1))));
  EXPECT_TRUE(probe->insert(Slice("b"), Slice(value_for(2))));
  EXPECT_TRUE(probe->update(Slice("a"), Slice(value_for(3))));
  EXPECT_TRUE(probe->search(Slice("a"), &v));
  EXPECT_TRUE(probe->remove(Slice("b")));
  EXPECT_FALSE(probe->search(Slice("b"), &v));  // removed: a correct miss
  EXPECT_EQ(acc().failures.total(), 0u);
  EXPECT_EQ(acc().wrong_values + acc().lost_keys + acc().phantom_keys, 0u);
}

TEST_F(Fixture, LostUpdateOfLiveKeyIsAFailureAndALoss) {
  probe->insert(Slice("a"), Slice(value_for(1)));
  map->lose_updates = true;
  EXPECT_FALSE(probe->update(Slice("a"), Slice(value_for(2))));
  EXPECT_EQ(acc().failures.live_key_misses, 1u);
  EXPECT_EQ(acc().lost_keys, 1u);
  // An update of a never-inserted key is a correct miss.
  EXPECT_FALSE(probe->update(Slice("c"), Slice(value_for(2))));
  EXPECT_EQ(acc().failures.live_key_misses, 1u);
}

TEST_F(Fixture, DuplicateInsertFailureCountsButIsNotAViolation) {
  probe->insert(Slice("a"), Slice(value_for(1)));
  EXPECT_FALSE(probe->insert(Slice("a"), Slice(value_for(2))));
  EXPECT_EQ(acc().failures.insert_failures, 1u);
  EXPECT_EQ(acc().phantom_keys, 0u);
}

TEST_F(Fixture, StaleValueIsAWrongValue) {
  probe->insert(Slice("a"), Slice(value_for(1)));
  map->stale_reads = true;
  std::string v;
  EXPECT_TRUE(probe->search(Slice("a"), &v));
  EXPECT_EQ(acc().wrong_values, 1u);
}

TEST_F(Fixture, TruncatedScanIsAFailureAndSkipsTheCompletenessCheck) {
  for (const char* k : {"a", "b", "c"}) probe->insert(Slice(k), Slice(value_for(1)));
  shared.stable_sorted = {"a", "b", "c"};
  std::vector<std::pair<std::string, std::string>> out;
  probe->scan(Slice("a"), 3, &out);
  EXPECT_EQ(acc().scan_missing, 0u);
  map->truncate_scans = true;
  probe->scan(Slice("a"), 3, &out);
  EXPECT_EQ(acc().failures.truncated_scans, 1u);
  EXPECT_EQ(acc().scan_missing, 0u);
  EXPECT_EQ(acc().bad_scans, 0u);
}

TEST_F(Fixture, ShortScanThatSkipsStableKeysIsCaught) {
  for (const char* k : {"a", "b", "c"}) probe->insert(Slice(k), Slice(value_for(1)));
  // "d" is claimed stable but was never inserted: a scan from "a" that
  // ends short of the window without it must be flagged.
  shared.stable_sorted = {"a", "b", "c", "d"};
  std::vector<std::pair<std::string, std::string>> out;
  probe->scan(Slice("a"), 10, &out);
  EXPECT_EQ(acc().scan_missing, 1u);
}

TEST_F(Fixture, TimingIsRecordedOnlyWhileMeasuring) {
  probe->insert(Slice("a"), Slice(value_for(1)));
  std::string v;
  probe->search(Slice("a"), &v);
  EXPECT_TRUE(acc().read_lat.empty());
  shared.phase = ProbeShared::Phase::kMeasure;
  probe->search(Slice("a"), &v);
  EXPECT_EQ(acc().read_lat.size(), 1u);
  EXPECT_EQ(acc().kinds[kSearch].calls, 1u);
  EXPECT_EQ(acc().point_reads, 1u);
}

TEST_F(Fixture, BatchOpsAreCheckedAndTimedPerOp) {
  shared.phase = ProbeShared::Phase::kMeasure;
  const std::string v1 = value_for(1), v2 = value_for(2);
  std::string out;
  BatchOp ops[3];
  ops[0].kind = BatchOp::Kind::kInsert;
  ops[0].key = Slice("a");
  ops[0].value = Slice(v1);
  ops[1].kind = BatchOp::Kind::kInsert;
  ops[1].key = Slice("b");
  ops[1].value = Slice(v2);
  ops[2].kind = BatchOp::Kind::kSearch;
  ops[2].key = Slice("c");
  ops[2].value_out = &out;
  probe->execute_batch(ops, 3);
  EXPECT_TRUE(ops[0].ok && ops[1].ok && !ops[2].ok);
  EXPECT_EQ(acc().kinds[kBatch].calls, 1u);
  EXPECT_EQ(acc().write_lat.size(), 2u);
  EXPECT_EQ(acc().read_lat.size(), 1u);
  EXPECT_EQ(shared.oracle.state(0), Oracle::kLive);
  EXPECT_EQ(acc().failures.total(), 0u);
}

// Threads hammering a few shared keys through their own decorators over
// one linearizable map: the oracle must never flag a correct index, even
// when reads and writes of one key overlap.
TEST(Oracle, ConcurrentClientsOfACorrectIndexRaiseNoViolation) {
  const std::vector<std::string> keys = {"k0", "k1", "k2", "k3"};
  constexpr uint32_t kThreads = 4;
  ProbeShared shared(keys, kThreads, 64);
  shared.phase = ProbeShared::Phase::kMeasure;
  MapIndex map;
  struct Passthrough final : KvIndex {
    explicit Passthrough(MapIndex& m) : m(m) {}
    bool search(Slice k, std::string* v) override { return m.search(k, v); }
    bool insert(Slice k, Slice v) override { return m.insert(k, v); }
    bool update(Slice k, Slice v) override { return m.update(k, v); }
    bool remove(Slice k) override { return m.remove(k); }
    size_t scan(Slice s, size_t c,
                std::vector<std::pair<std::string, std::string>>* o) override {
      return m.scan(s, c, o);
    }
    size_t scan_range(Slice, Slice, size_t,
                      std::vector<std::pair<std::string, std::string>>*) override {
      return 0;
    }
    const char* name() const override { return "passthrough"; }
    MapIndex& m;
  };
  std::vector<std::thread> threads;
  for (uint32_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ProbeIndex probe(std::make_unique<Passthrough>(map), shared, t);
      std::mt19937_64 rng(t);
      std::string v;
      for (uint64_t i = 0; i < 20000; ++i) {
        const std::string& k = keys[rng() % keys.size()];
        const std::string val = value_for(t * 1'000'000 + i);
        switch (rng() % 4) {
          case 0: probe.insert(Slice(k), Slice(val)); break;
          case 1: probe.update(Slice(k), Slice(val)); break;
          case 2: probe.remove(Slice(k)); break;
          default: probe.search(Slice(k), &v); break;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  for (const auto& a : shared.acc) {
    EXPECT_EQ(a.violations(), 0u);
    EXPECT_EQ(a.failures.live_key_misses, 0u);
  }
}

}  // namespace
}  // namespace perfbench
