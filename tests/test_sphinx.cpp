// Tests for the Sphinx index: INHT payload packing, the filter-guided
// search path and its round-trip budget, false-positive recovery, fallback
// paths, type-switch coherence, and oracle semantics.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>

#include "art/art_index.h"
#include "common/rng.h"
#include "core/sphinx_index.h"
#include "test_util.h"
#include "ycsb/dataset.h"

namespace sphinx::core {
namespace {

TEST(InhtPayload, PackUnpack) {
  const rdma::GlobalAddr addr(3, 0xdeadbc0);
  const uint64_t p = pack_inht_payload(art::NodeType::kN48, addr);
  EXPECT_EQ(inht_payload_type(p), art::NodeType::kN48);
  EXPECT_EQ(inht_payload_addr(p), addr);
  EXPECT_LT(p, 1ULL << 51);  // fits the RACE payload field
}

class SphinxTest : public ::testing::Test {
 protected:
  void SetUp() override {
    cluster_ = testing::make_test_cluster();
    refs_ = create_sphinx(*cluster_);
    filter_ = filter::CuckooFilter::with_budget(1 << 20);
    endpoint_ = std::make_unique<rdma::Endpoint>(cluster_->fabric(), 0, true);
    allocator_ = std::make_unique<mem::RemoteAllocator>(*cluster_, *endpoint_);
    index_ = std::make_unique<SphinxIndex>(*cluster_, *endpoint_, *allocator_,
                                           refs_, filter_.get());
  }

  std::unique_ptr<mem::Cluster> cluster_;
  SphinxRefs refs_;
  std::unique_ptr<filter::CuckooFilter> filter_;
  std::unique_ptr<rdma::Endpoint> endpoint_;
  std::unique_ptr<mem::RemoteAllocator> allocator_;
  std::unique_ptr<SphinxIndex> index_;
};

TEST_F(SphinxTest, BasicRoundTrip) {
  EXPECT_TRUE(index_->insert("LYRICS", "music"));
  EXPECT_TRUE(index_->insert("LYRE", "harp"));
  EXPECT_TRUE(index_->insert("LOYAL", "dog"));
  std::string v;
  ASSERT_TRUE(index_->search("LYRICS", &v));
  EXPECT_EQ(v, "music");
  ASSERT_TRUE(index_->search("LYRE", &v));
  EXPECT_EQ(v, "harp");
  EXPECT_FALSE(index_->search("LYRIC", &v));
  EXPECT_FALSE(index_->search("L", &v));
}

TEST_F(SphinxTest, OracleRandomMixedOps) {
  std::map<std::string, std::string> oracle;
  Rng rng(99);
  const auto keys = testing::mixed_keys(800);
  for (int op = 0; op < 8000; ++op) {
    const std::string& k = keys[rng.next_below(keys.size())];
    switch (rng.next_below(4)) {
      case 0: {
        const std::string v = "v" + std::to_string(op);
        EXPECT_EQ(index_->insert(k, v), oracle.emplace(k, v).second) << k;
        break;
      }
      case 1: {
        const std::string v = "u" + std::to_string(op);
        const bool expect = oracle.count(k) > 0;
        EXPECT_EQ(index_->update(k, v), expect) << k;
        if (expect) oracle[k] = v;
        break;
      }
      case 2:
        EXPECT_EQ(index_->remove(k), oracle.erase(k) > 0) << k;
        break;
      default: {
        std::string v;
        const bool expect = oracle.count(k) > 0;
        ASSERT_EQ(index_->search(k, &v), expect) << k;
        if (expect) {
          EXPECT_EQ(v, oracle[k]);
        }
        break;
      }
    }
  }
  EXPECT_EQ(index_->tree_stats().ops_failed, 0u);
  std::string v;
  for (const auto& [k, val] : oracle) {
    ASSERT_TRUE(index_->search(k, &v)) << k;
    EXPECT_EQ(v, val);
  }
}

TEST_F(SphinxTest, WarmSearchTakesThreeRoundTrips) {
  // Paper Sec. III-B: with a warm filter cache an index operation needs
  // three round trips: hash entry, inner node, leaf.
  const auto keys = ycsb::generate_email_keys(500, 11);
  for (const auto& k : keys) {
    ASSERT_TRUE(index_->insert(k, "v"));
  }
  // Warm: one pass over all keys (fills the filter from visited paths).
  std::string v;
  for (const auto& k : keys) {
    ASSERT_TRUE(index_->search(k, &v));
  }
  // Measure.
  const uint64_t rtt0 = endpoint_->stats().round_trips;
  uint64_t ops = 0;
  for (const auto& k : keys) {
    ASSERT_TRUE(index_->search(k, &v));
    ++ops;
  }
  const double rtts_per_op =
      static_cast<double>(endpoint_->stats().round_trips - rtt0) /
      static_cast<double>(ops);
  EXPECT_LE(rtts_per_op, 3.3);
  EXPECT_GE(rtts_per_op, 2.0);
}

TEST_F(SphinxTest, WarmSearchTakesTwoRoundTripsWithPec) {
  // With the prefix entry cache warm, the hash-entry read disappears: a
  // search is node read + leaf read, two round trips.
  auto pec = filter::LocationCache::with_budget(1 << 20);
  rdma::Endpoint ep(cluster_->fabric(), 0, true);
  mem::RemoteAllocator alloc(*cluster_, ep);
  SphinxIndex warm(*cluster_, ep, alloc, refs_, filter_.get(), pec.get());
  const auto keys = ycsb::generate_email_keys(500, 11);
  for (const auto& k : keys) {
    ASSERT_TRUE(warm.insert(k, "v"));
  }
  std::string v;
  for (const auto& k : keys) {
    ASSERT_TRUE(warm.search(k, &v));  // warm filter + PEC
  }
  const uint64_t rtt0 = ep.stats().round_trips;
  const uint64_t hits0 = warm.sphinx_stats().pec_hits;
  uint64_t ops = 0;
  for (const auto& k : keys) {
    ASSERT_TRUE(warm.search(k, &v));
    ++ops;
  }
  const double rtts_per_op =
      static_cast<double>(ep.stats().round_trips - rtt0) /
      static_cast<double>(ops);
  EXPECT_LE(rtts_per_op, 2.4);
  EXPECT_GE(rtts_per_op, 1.9);
  EXPECT_GT(warm.sphinx_stats().pec_hits, hits0);
}

TEST_F(SphinxTest, ColdPecHitFusesSpeculativeReadIntoTwoRoundTrips) {
  // A PEC entry seeded by node creation (never looked up -> cold) is
  // hedged: node read + INHT group read go out in one doorbell batch.
  // When the entry is fresh the search still completes in two round trips.
  auto pec = filter::LocationCache::with_budget(1 << 18);
  rdma::Endpoint ep_a(cluster_->fabric(), 0, true);
  mem::RemoteAllocator alloc_a(*cluster_, ep_a);
  SphinxIndex writer(*cluster_, ep_a, alloc_a, refs_, filter_.get(),
                     pec.get());
  // Two keys diverging at byte 8 create one inner node at depth 8; its PEC
  // entry is seeded by on_inner_created and never looked up afterwards.
  ASSERT_TRUE(writer.insert("specpfx:Arest", "va"));
  ASSERT_TRUE(writer.insert("specpfx:Brest", "vb"));

  rdma::Endpoint ep_b(cluster_->fabric(), 0, true);
  mem::RemoteAllocator alloc_b(*cluster_, ep_b);
  SphinxIndex reader(*cluster_, ep_b, alloc_b, refs_, filter_.get(),
                     pec.get());
  // Pre-warm the reader's INHT directory cache for the prefix's MN (a
  // fresh client pays that once); this INHT probe does not touch the PEC,
  // so the entry stays cold.
  std::vector<uint64_t> scratch;
  reader.inht().search(art::prefix_hash(Slice("specpfx:")), scratch);
  const uint64_t rtt0 = ep_b.stats().round_trips;
  std::string v;
  ASSERT_TRUE(reader.search("specpfx:Arest", &v));
  EXPECT_EQ(v, "va");
  EXPECT_EQ(ep_b.stats().round_trips - rtt0, 2u);
  EXPECT_EQ(reader.sphinx_stats().speculative_wins, 1u);
  EXPECT_EQ(reader.sphinx_stats().pec_stale, 0u);
}

TEST_F(SphinxTest, StaleColdPecEntryCostsNoExtraRoundTrip) {
  // The fusion hedge pays off when the cold entry *is* stale: the fused
  // INHT group already holds the fresh payload, so recovery needs no
  // additional INHT round trip -- total three RTTs, the same as a search
  // with no PEC at all.
  auto pec = filter::LocationCache::with_budget(1 << 18);
  rdma::Endpoint ep_a(cluster_->fabric(), 0, true);
  mem::RemoteAllocator alloc_a(*cluster_, ep_a);
  SphinxIndex writer(*cluster_, ep_a, alloc_a, refs_, filter_.get(),
                     pec.get());
  ASSERT_TRUE(writer.insert("fusepfx:Arest", "va"));
  ASSERT_TRUE(writer.insert("fusepfx:Brest", "vb"));

  // A PEC-less client grows the node past Node4 so it is copied to a new
  // address and the old one is marked invalid. The shared PEC entry (cold,
  // nobody ever looked it up) now points at a dead node.
  rdma::Endpoint ep_c(cluster_->fabric(), 1, true);
  mem::RemoteAllocator alloc_c(*cluster_, ep_c);
  SphinxIndex grower(*cluster_, ep_c, alloc_c, refs_, nullptr);
  for (char c = 'C'; c <= 'J'; ++c) {
    ASSERT_TRUE(grower.insert(std::string("fusepfx:") + c + "rest", "vg"));
  }
  ASSERT_GT(grower.tree_stats().type_switches, 0u);

  rdma::Endpoint ep_b(cluster_->fabric(), 0, true);
  mem::RemoteAllocator alloc_b(*cluster_, ep_b);
  SphinxIndex reader(*cluster_, ep_b, alloc_b, refs_, filter_.get(),
                     pec.get());
  // Warm the INHT directory cache outside the measured window (see
  // ColdPecHitFusesSpeculativeReadIntoTwoRoundTrips).
  std::vector<uint64_t> scratch;
  reader.inht().search(art::prefix_hash(Slice("fusepfx:")), scratch);
  const uint64_t rtt0 = ep_b.stats().round_trips;
  std::string v;
  ASSERT_TRUE(reader.search("fusepfx:Arest", &v));
  EXPECT_EQ(v, "va");
  // Fused (stale node + group) + fresh node + leaf = 3 RTTs.
  EXPECT_EQ(ep_b.stats().round_trips - rtt0, 3u);
  EXPECT_EQ(reader.sphinx_stats().speculative_losses, 1u);
  EXPECT_EQ(reader.sphinx_stats().pec_stale, 1u);
  // The loss purged and re-seeded the shared entry: the next cold search
  // validates on the first try.
  rdma::Endpoint ep_d(cluster_->fabric(), 0, true);
  mem::RemoteAllocator alloc_d(*cluster_, ep_d);
  SphinxIndex reader2(*cluster_, ep_d, alloc_d, refs_, filter_.get(),
                      pec.get());
  ASSERT_TRUE(reader2.search("fusepfx:Brest", &v));
  EXPECT_EQ(v, "vb");
  EXPECT_EQ(reader2.sphinx_stats().pec_stale, 0u);
}

TEST_F(SphinxTest, PecStaleEntriesSelfHealAfterTypeSwitches) {
  // Warm a client's PEC, let a second client churn the same prefixes
  // through type switches, then verify the first client's searches (a)
  // stay correct and (b) purge-and-refresh each stale entry exactly once:
  // a second pass over the same keys finds no new staleness.
  auto pec = filter::LocationCache::with_budget(1 << 20);
  rdma::Endpoint ep_a(cluster_->fabric(), 0, true);
  mem::RemoteAllocator alloc_a(*cluster_, ep_a);
  SphinxIndex client(*cluster_, ep_a, alloc_a, refs_, filter_.get(),
                     pec.get());
  std::vector<std::string> keys;
  for (int p = 0; p < 20; ++p) {
    keys.push_back("heal" + std::to_string(p) + ":a1");
    keys.push_back("heal" + std::to_string(p) + ":b2");
  }
  std::string v;
  for (const auto& k : keys) {
    ASSERT_TRUE(client.insert(k, "v:" + k));
  }
  for (const auto& k : keys) {
    ASSERT_TRUE(client.search(k, &v));  // warm + mark entries hot
  }

  rdma::Endpoint ep_c(cluster_->fabric(), 1, true);
  mem::RemoteAllocator alloc_c(*cluster_, ep_c);
  SphinxIndex churner(*cluster_, ep_c, alloc_c, refs_, nullptr);
  for (int p = 0; p < 20; ++p) {
    for (char c = 'c'; c <= 'j'; ++c) {
      const std::string k =
          "heal" + std::to_string(p) + ":" + std::string(1, c) + "x";
      ASSERT_TRUE(churner.insert(k, "v:" + k));
      keys.push_back(k);
    }
  }
  ASSERT_GT(churner.tree_stats().type_switches, 0u);

  for (const auto& k : keys) {
    ASSERT_TRUE(client.search(k, &v)) << k;
    EXPECT_EQ(v, "v:" + k);
  }
  const uint64_t stale_after_first = client.sphinx_stats().pec_stale;
  EXPECT_GT(stale_after_first, 0u);
  for (const auto& k : keys) {
    ASSERT_TRUE(client.search(k, &v)) << k;
  }
  EXPECT_EQ(client.sphinx_stats().pec_stale, stale_after_first);
}

TEST_F(SphinxTest, SearchIsCheaperThanArtForDeepKeys) {
  // The headline claim: Sphinx's hash-based jump beats level-by-level
  // traversal for long keys / deep trees.
  const auto keys = ycsb::generate_email_keys(2000, 5);
  for (const auto& k : keys) {
    ASSERT_TRUE(index_->insert(k, "v"));
  }
  std::string v;
  for (const auto& k : keys) {
    ASSERT_TRUE(index_->search(k, &v));  // warm the filter
  }
  const uint64_t sphinx_rtt0 = endpoint_->stats().round_trips;
  for (const auto& k : keys) {
    ASSERT_TRUE(index_->search(k, &v));
  }
  const uint64_t sphinx_rtts = endpoint_->stats().round_trips - sphinx_rtt0;

  // Same data in a fresh ART on a fresh cluster.
  auto cluster2 = testing::make_test_cluster();
  art::TreeRef art_ref = art::create_tree(*cluster2);
  rdma::Endpoint ep2(cluster2->fabric(), 0, true);
  mem::RemoteAllocator alloc2(*cluster2, ep2);
  art::ArtIndex art_index(*cluster2, ep2, alloc2, art_ref);
  for (const auto& k : keys) {
    ASSERT_TRUE(art_index.insert(k, "v"));
  }
  const uint64_t art_rtt0 = ep2.stats().round_trips;
  for (const auto& k : keys) {
    ASSERT_TRUE(art_index.search(k, &v));
  }
  const uint64_t art_rtts = ep2.stats().round_trips - art_rtt0;
  EXPECT_LT(sphinx_rtts, art_rtts);
}

TEST_F(SphinxTest, FilterMissFallsBackToParallelRead) {
  // Two keys sharing a prefix, so an inner node exists at depth 7.
  ASSERT_TRUE(index_->insert("somekey123", "v1"));
  ASSERT_TRUE(index_->insert("somekey456", "v2"));
  // A second client with a cold (empty) filter must still find the keys.
  auto cold_filter = filter::CuckooFilter::with_budget(1 << 16);
  rdma::Endpoint ep2(cluster_->fabric(), 1, true);
  mem::RemoteAllocator alloc2(*cluster_, ep2);
  SphinxIndex cold(*cluster_, ep2, alloc2, refs_, cold_filter.get());
  std::string v;
  ASSERT_TRUE(cold.search("somekey123", &v));
  EXPECT_EQ(v, "v1");
  EXPECT_GT(cold.sphinx_stats().parallel_fallbacks, 0u);
  // The first search learned the inner-node prefix: the next search must
  // go straight through the filter, with no parallel fallback.
  const uint64_t fallbacks = cold.sphinx_stats().parallel_fallbacks;
  ASSERT_TRUE(cold.search("somekey123", &v));
  EXPECT_EQ(cold.sphinx_stats().parallel_fallbacks, fallbacks);
  EXPECT_GT(cold.sphinx_stats().filter_hits, 0u);
}

TEST_F(SphinxTest, NoFilterModeWorks) {
  rdma::Endpoint ep2(cluster_->fabric(), 1, true);
  mem::RemoteAllocator alloc2(*cluster_, ep2);
  SphinxIndex nofilter(*cluster_, ep2, alloc2, refs_, nullptr);
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(nofilter.insert("nf" + std::to_string(i), "v"));
  }
  std::string v;
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(nofilter.search("nf" + std::to_string(i), &v));
  }
  EXPECT_GT(nofilter.sphinx_stats().parallel_fallbacks, 0u);
  EXPECT_EQ(nofilter.sphinx_stats().filter_hits, 0u);
}

TEST_F(SphinxTest, InhtTracksCreatedInnerNodes) {
  const auto keys = testing::mixed_keys(500);
  for (const auto& k : keys) {
    ASSERT_TRUE(index_->insert(k, "v"));
  }
  EXPECT_GT(index_->inht().aggregated_stats().inserts, 0u);
  // Another client relying purely on the INHT (filter disabled) can find
  // every key without root traversals once entries exist.
  rdma::Endpoint ep2(cluster_->fabric(), 2, true);
  mem::RemoteAllocator alloc2(*cluster_, ep2);
  SphinxIndex peer(*cluster_, ep2, alloc2, refs_, nullptr);
  std::string v;
  for (const auto& k : keys) {
    ASSERT_TRUE(peer.search(k, &v)) << k;
  }
}

TEST_F(SphinxTest, TypeSwitchKeepsInhtCoherent) {
  // Force type switches under a common prefix, then verify a fresh client
  // can still jump through the INHT to the switched node.
  for (int i = 0; i < 200; ++i) {
    std::string k = "tsw:";
    k.push_back(static_cast<char>(1 + i));
    k += "rest";
    ASSERT_TRUE(index_->insert(k, std::to_string(i)));
  }
  EXPECT_GT(index_->tree_stats().type_switches, 0u);

  rdma::Endpoint ep2(cluster_->fabric(), 1, true);
  mem::RemoteAllocator alloc2(*cluster_, ep2);
  auto filter2 = filter::CuckooFilter::with_budget(1 << 20);
  SphinxIndex peer(*cluster_, ep2, alloc2, refs_, filter2.get());
  std::string v;
  for (int i = 0; i < 200; ++i) {
    std::string k = "tsw:";
    k.push_back(static_cast<char>(1 + i));
    k += "rest";
    ASSERT_TRUE(peer.search(k, &v)) << i;
    EXPECT_EQ(v, std::to_string(i));
  }
}

TEST_F(SphinxTest, ScanMatchesOracle) {
  std::map<std::string, std::string> oracle;
  const auto keys = testing::mixed_keys(400);
  for (const auto& k : keys) {
    index_->insert(k, "v:" + k);
    oracle[k] = "v:" + k;
  }
  std::vector<std::pair<std::string, std::string>> out;
  const size_t n = index_->scan("user:", 30, &out);
  auto it = oracle.lower_bound("user:");
  size_t i = 0;
  for (; it != oracle.end() && i < n; ++it, ++i) {
    EXPECT_EQ(out[i].first, it->first);
  }
  EXPECT_EQ(n, std::min<size_t>(30, i));
}

TEST_F(SphinxTest, DeleteVisibleToOtherClients) {
  ASSERT_TRUE(index_->insert("shared-key", "v"));
  rdma::Endpoint ep2(cluster_->fabric(), 1, true);
  mem::RemoteAllocator alloc2(*cluster_, ep2);
  auto filter2 = filter::CuckooFilter::with_budget(1 << 20);
  SphinxIndex peer(*cluster_, ep2, alloc2, refs_, filter2.get());
  std::string v;
  ASSERT_TRUE(peer.search("shared-key", &v));
  ASSERT_TRUE(index_->remove("shared-key"));
  EXPECT_FALSE(peer.search("shared-key", &v));
}

TEST_F(SphinxTest, FilterSharedAcrossClientsOfOneCn) {
  // Two workers on the same CN share the filter: the second benefits from
  // prefixes the first learned.
  const auto keys = ycsb::generate_email_keys(300, 17);
  for (const auto& k : keys) {
    ASSERT_TRUE(index_->insert(k, "v"));
  }
  std::string v;
  for (const auto& k : keys) {
    ASSERT_TRUE(index_->search(k, &v));
  }
  rdma::Endpoint ep2(cluster_->fabric(), 0, true);
  mem::RemoteAllocator alloc2(*cluster_, ep2);
  SphinxIndex peer(*cluster_, ep2, alloc2, refs_, filter_.get());
  for (const auto& k : keys) {
    ASSERT_TRUE(peer.search(k, &v));
  }
  EXPECT_EQ(peer.sphinx_stats().parallel_fallbacks, 0u);
}

TEST_F(SphinxTest, InhtMemoryOverheadIsSmall) {
  // Paper Sec. III-A / Fig. 6: the INHT adds only a few percent of MN
  // memory on top of the ART itself. At unit-test scale the table's
  // segment granularity dominates, so start it at minimum size; the paper's
  // 3.3-4.9% figure is validated at full scale by bench_memory.
  auto cluster = testing::make_test_cluster();
  SphinxRefs refs = create_sphinx(*cluster, /*inht_initial_depth=*/1);
  auto filter = filter::CuckooFilter::with_budget(1 << 20);
  rdma::Endpoint ep(cluster->fabric(), 0, true);
  mem::RemoteAllocator alloc(*cluster, ep);
  SphinxIndex index(*cluster, ep, alloc, refs, filter.get());
  const auto keys = ycsb::generate_u64_keys(20000, 23);
  for (const auto& k : keys) {
    ASSERT_TRUE(index.insert(k, std::string(64, 'v')));
  }
  mem::AllocStats& stats = cluster->alloc_stats();
  const uint64_t tree_bytes =
      stats.requested_bytes(mem::AllocTag::kInnerNode) +
      stats.requested_bytes(mem::AllocTag::kLeaf);
  const uint64_t table_bytes =
      stats.requested_bytes(mem::AllocTag::kHashTable);
  EXPECT_LT(static_cast<double>(table_bytes),
            0.25 * static_cast<double>(tree_bytes));
}

// ---- pipelined point reads (execute_batch lock-step rounds) ----------------

// A world with one Sphinx instance: a reader client (optionally with
// starved CN caches) and a cache-less mutator on its own endpoint that
// changes the tree behind the reader's back. Everything is single-threaded,
// so two worlds built the same way hold the same remote layout.
struct PipelineWorld {
  explicit PipelineWorld(uint64_t cache_budget) {
    cluster = testing::make_test_cluster();
    refs = create_sphinx(*cluster);
    if (cache_budget > 0) {
      filter = filter::CuckooFilter::with_budget(cache_budget);
      pec = filter::LocationCache::with_budget(cache_budget);
      lac = filter::LocationCache::with_budget(cache_budget);
    }
    reader_ep = std::make_unique<rdma::Endpoint>(cluster->fabric(), 0, true);
    reader_alloc = std::make_unique<mem::RemoteAllocator>(*cluster, *reader_ep);
    reader = std::make_unique<SphinxIndex>(*cluster, *reader_ep, *reader_alloc,
                                           refs, filter.get(), pec.get(),
                                           lac.get());
    mutator_ep = std::make_unique<rdma::Endpoint>(cluster->fabric(), 1, true);
    mutator_alloc =
        std::make_unique<mem::RemoteAllocator>(*cluster, *mutator_ep);
    mutator = std::make_unique<SphinxIndex>(*cluster, *mutator_ep,
                                            *mutator_alloc, refs, nullptr);
  }

  std::unique_ptr<mem::Cluster> cluster;
  SphinxRefs refs;
  std::unique_ptr<filter::CuckooFilter> filter;
  std::unique_ptr<filter::LocationCache> pec;
  std::unique_ptr<filter::LocationCache> lac;
  std::unique_ptr<rdma::Endpoint> reader_ep;
  std::unique_ptr<mem::RemoteAllocator> reader_alloc;
  std::unique_ptr<SphinxIndex> reader;
  std::unique_ptr<rdma::Endpoint> mutator_ep;
  std::unique_ptr<mem::RemoteAllocator> mutator_alloc;
  std::unique_ptr<SphinxIndex> mutator;
};

BatchOp search_op(const std::string& key, std::string* out) {
  BatchOp op;
  op.kind = BatchOp::Kind::kSearch;
  op.key = Slice(key);
  op.value_out = out;
  return op;
}

TEST(PipelinedReads, BatchesMatchSerialOutcomesUnderStarvedCaches) {
  // Tiny SFC/PEC/LAC budgets keep every cache tier evicting, so depth-8
  // batches run every miss path: filter false positives, stale PEC and LAC
  // entries (removes, out-of-place updates, type switches mid-run) and
  // plain misses. Each batch op must report what the serial entry point
  // reports, and both must match the oracle.
  PipelineWorld w(/*cache_budget=*/512);
  std::map<std::string, std::string> oracle;
  const auto keys = testing::mixed_keys(700, 3);
  for (size_t i = 0; i < 300; ++i) {
    ASSERT_TRUE(w.mutator->insert(keys[i], "v0:" + keys[i]));
    oracle[keys[i]] = "v0:" + keys[i];
  }
  Rng rng(41);
  const uint64_t switches_before = w.mutator->tree_stats().type_switches;
  std::vector<std::string> picked(8);
  std::vector<std::string> outs(8);
  for (int round = 0; round < 300; ++round) {
    // Mutations behind the reader's back: inserts grow nodes (splits and
    // type switches), removes and updates stale the reader's cached
    // bindings.
    for (int m = 0; m < 4; ++m) {
      const std::string& k = keys[rng.next_below(keys.size())];
      const std::string v = "v" + std::to_string(round) + ":" + k;
      switch (rng.next_below(3)) {
        case 0:
          ASSERT_EQ(w.mutator->insert(k, v), oracle.emplace(k, v).second);
          break;
        case 1:
          ASSERT_EQ(w.mutator->remove(k), oracle.erase(k) > 0);
          break;
        default: {
          const bool live = oracle.count(k) > 0;
          ASSERT_EQ(w.mutator->update(k, v + std::string(round % 40, 'x')),
                    live);
          if (live) oracle[k] = v + std::string(round % 40, 'x');
          break;
        }
      }
    }
    // Six searches (about four of live keys) and two of the reader's own
    // mutations, all on distinct keys: ops of one batch may linearize in
    // any order, so no two of them touch the same key.
    // The two mutations take random slots, so a slot that held a search
    // in an earlier batch carries a mutation in a later one.
    const size_t m1 = rng.next_below(8);
    const size_t m2 = (m1 + 1 + rng.next_below(7)) % 8;
    std::vector<BatchOp> batch;
    std::vector<std::string> values(8);
    for (size_t i = 0; i < 8; ++i) {
      do {
        picked[i] = keys[rng.next_below(keys.size())];
        if (i < 4) {
          const auto it = oracle.lower_bound(picked[i]);
          if (it != oracle.end()) picked[i] = it->first;
        }
      } while (std::find(picked.begin(), picked.begin() + i, picked[i]) !=
               picked.begin() + i);
      outs[i].clear();
      batch.push_back(search_op(picked[i], &outs[i]));
      if (i == m1 || i == m2) {
        values[i] = "b" + std::to_string(round);
        const bool key_live = oracle.count(picked[i]) > 0;
        batch[i].kind = rng.next_below(2) == 0 ? BatchOp::Kind::kRemove
                        : key_live             ? BatchOp::Kind::kUpdate
                                               : BatchOp::Kind::kInsert;
        batch[i].value = Slice(values[i]);
      }
    }
    w.reader->execute_batch(batch.data(), batch.size());
    for (size_t i = 0; i < 8; ++i) {
      const auto it = oracle.find(picked[i]);
      const bool live_before = it != oracle.end();
      ASSERT_TRUE(batch[i].done);
      switch (batch[i].kind) {
        case BatchOp::Kind::kRemove:
          ASSERT_EQ(batch[i].ok, live_before) << picked[i];
          oracle.erase(picked[i]);
          break;
        case BatchOp::Kind::kInsert:
        case BatchOp::Kind::kUpdate:
          ASSERT_TRUE(batch[i].ok) << picked[i];
          oracle[picked[i]] = values[i];
          break;
        default: {
          ASSERT_EQ(batch[i].ok, live_before) << picked[i];
          std::string serial;
          ASSERT_EQ(w.reader->search(picked[i], &serial), batch[i].ok);
          if (batch[i].ok) {
            EXPECT_EQ(outs[i], it->second);
            EXPECT_EQ(serial, it->second);
          }
        }
      }
    }
  }
  const SphinxStats& s = w.reader->sphinx_stats();
  EXPECT_GT(s.fp_rejects, 0u);
  EXPECT_GT(s.pec_stale, 0u);
  EXPECT_GT(s.lac_stale, 0u);
  EXPECT_GT(s.batch_fused_ops, s.batch_serial_ops);
  EXPECT_GT(w.mutator->tree_stats().type_switches, switches_before);
  EXPECT_EQ(s.lac_wrong_value, 0u);
  EXPECT_EQ(w.reader->tree_stats().ops_failed, 0u);
  const rdma::EndpointStats& net = w.reader_ep->stats();
  EXPECT_EQ(net.rtts_sum_by_phase(), net.round_trips);
  EXPECT_EQ(net.bytes_sum_by_phase(), net.bytes_total());
}

TEST(PipelinedReads, ColdMissBatchCostsLongestChainNotSum) {
  // With no CN caches, every search walks parallel INHT read -> start node
  // -> inner nodes -> leaf, and its chain does not depend on what other
  // searches ran before it. Serially the chains add up; in lock-step
  // rounds a batch costs at most one round more than its longest chain.
  PipelineWorld w(/*cache_budget=*/0);
  const auto keys = ycsb::generate_email_keys(2000, 5);
  for (const auto& k : keys) ASSERT_TRUE(w.mutator->insert(k, "v"));
  std::string v;
  // Warm the INHT directory caches of both clients used below.
  rdma::Endpoint ep2(w.cluster->fabric(), 0, true);
  mem::RemoteAllocator alloc2(*w.cluster, ep2);
  SphinxIndex serial(*w.cluster, ep2, alloc2, w.refs, nullptr);
  for (size_t i = 0; i < 50; ++i) {
    ASSERT_TRUE(w.reader->search(keys[i], &v));
    ASSERT_TRUE(serial.search(keys[i], &v));
  }

  uint64_t longest = 0;
  uint64_t total = 0;
  std::vector<std::string> outs(8);
  std::vector<BatchOp> batch;
  for (size_t i = 0; i < 8; ++i) {
    const std::string& k = keys[1000 + 97 * i];
    const uint64_t before = ep2.stats().round_trips;
    ASSERT_TRUE(serial.search(k, &v));
    const uint64_t chain = ep2.stats().round_trips - before;
    longest = std::max(longest, chain);
    total += chain;
    batch.push_back(search_op(k, &outs[i]));
  }
  const rdma::EndpointStats before = w.reader_ep->stats();
  w.reader->execute_batch(batch.data(), batch.size());
  const rdma::EndpointStats& after = w.reader_ep->stats();
  const uint64_t rounds = after.round_trips - before.round_trips;
  for (const BatchOp& op : batch) EXPECT_TRUE(op.ok);
  EXPECT_LE(rounds, 1 + longest);
  EXPECT_LT(rounds, total);
  EXPECT_EQ(w.reader->sphinx_stats().batch_fused_rounds, rounds);

  // Per-phase sums stay exact, and a shared round is charged whole to the
  // phase of its first read: every op opens with its parallel INHT read,
  // so exactly one round is an INHT round.
  EXPECT_EQ(after.rtts_sum_by_phase(), after.round_trips);
  EXPECT_EQ(after.bytes_sum_by_phase(), after.bytes_total());
  const auto inht = static_cast<size_t>(rdma::Phase::kInhtRead);
  EXPECT_EQ(after.rtts_by_phase[inht] - before.rtts_by_phase[inht], 1u);
}

TEST(PipelinedReads, SingleOpBatchIssuesSearchVerbsExactly) {
  // search() is a batch of one: two identical worlds, one driven through
  // search() and one through execute_batch with one op, issue the same
  // verbs with the same virtual clock, op for op -- warm and stale LAC
  // hits, PEC hits, misses and absent keys alike.
  PipelineWorld a(/*cache_budget=*/4096);
  PipelineWorld b(/*cache_budget=*/4096);
  const auto keys = testing::mixed_keys(400, 9);
  for (size_t i = 0; i < 300; ++i) {
    ASSERT_TRUE(a.mutator->insert(keys[i], "v"));
    ASSERT_TRUE(b.mutator->insert(keys[i], "v"));
  }
  Rng rng(5);
  for (int op = 0; op < 1500; ++op) {
    const std::string& k = keys[rng.next_below(keys.size())];
    if (op % 50 == 49) {
      // Stale both readers' bindings the same way.
      a.mutator->remove(k);
      b.mutator->remove(k);
      a.mutator->insert(k, "w");
      b.mutator->insert(k, "w");
      continue;
    }
    std::string va;
    std::string vb;
    const bool found_a = a.reader->search(k, &va);
    BatchOp bop = search_op(k, &vb);
    b.reader->execute_batch(&bop, 1);
    ASSERT_EQ(found_a, bop.ok) << k;
    ASSERT_EQ(va, vb);
    ASSERT_EQ(a.reader_ep->clock_ns(), b.reader_ep->clock_ns()) << op;
    ASSERT_EQ(bop.done_clock_ns, b.reader_ep->clock_ns());
  }
  const rdma::EndpointStats& sa = a.reader_ep->stats();
  const rdma::EndpointStats& sb = b.reader_ep->stats();
  EXPECT_EQ(sa.round_trips, sb.round_trips);
  EXPECT_EQ(sa.messages, sb.messages);
  EXPECT_EQ(sa.reads, sb.reads);
  EXPECT_EQ(sa.bytes_read, sb.bytes_read);
  EXPECT_EQ(sa.rtts_by_phase, sb.rtts_by_phase);
  EXPECT_EQ(sa.bytes_by_phase, sb.bytes_by_phase);
  EXPECT_GT(a.reader->sphinx_stats().lac_hits, 0u);
  EXPECT_GT(a.reader->sphinx_stats().lac_stale, 0u);
  EXPECT_GT(a.reader->sphinx_stats().pec_hits, 0u);
}

// ---- lock acquisition rides with its re-read (DESIGN.md Sec. 9) -------------

// Warm Sphinx mutations descend exactly like a search of the same key (SFC
// -> INHT entry -> start node -> leaf), then pay two round trips: the batch
// carrying the payload or delete CAS with the lock CAS and the locked
// node's re-read, and the slot CAS with the release.
class SphinxLockPath : public SphinxTest {
 protected:
  // Round trips of `op`, with the per-phase sums checked to stay exact.
  template <typename Op>
  uint64_t rtts_of(Op op, rdma::EndpointStats* delta) {
    const rdma::EndpointStats before = endpoint_->stats();
    op();
    *delta = endpoint_->stats() - before;
    EXPECT_EQ(delta->rtts_sum_by_phase(), delta->round_trips);
    EXPECT_EQ(delta->bytes_sum_by_phase(), delta->bytes_total());
    return delta->round_trips;
  }
  static uint64_t phase(const rdma::EndpointStats& d, rdma::Phase p) {
    return d.rtts_by_phase[static_cast<size_t>(p)];
  }
};

TEST_F(SphinxLockPath, RemoveAndFreeSlotInsertCostTheirSearchPlusTwo) {
  for (const char* k : {"xab1", "xab2", "xcd", "xab3", "xab4"}) {
    ASSERT_TRUE(index_->insert(k, std::string("v:") + k)) << k;
  }
  std::string v;
  rdma::EndpointStats search;
  rdma::EndpointStats op;
  const uint64_t search_rtts =
      rtts_of([&] { ASSERT_TRUE(index_->search("xab4", &v)); }, &search);
  EXPECT_EQ(rtts_of([&] { ASSERT_TRUE(index_->remove("xab4")); }, &op),
            search_rtts + 2);
  // No standalone lock or re-read: the descent's inner reads only.
  EXPECT_EQ(phase(op, rdma::Phase::kLock), 0u);
  EXPECT_EQ(phase(op, rdma::Phase::kInnerRead),
            phase(search, rdma::Phase::kInnerRead));
  EXPECT_EQ(phase(op, rdma::Phase::kLeafWrite), 1u);
  EXPECT_EQ(phase(op, rdma::Phase::kInnerWrite), 1u);

  // Inserting into the slot the remove freed: the descent stops at the
  // start node (no leaf read).
  EXPECT_EQ(rtts_of([&] { ASSERT_TRUE(index_->insert("xab4", "w")); }, &op),
            search_rtts - 1 + 2);
  EXPECT_EQ(phase(op, rdma::Phase::kLock), 0u);
  EXPECT_EQ(phase(op, rdma::Phase::kInnerRead),
            phase(search, rdma::Phase::kInnerRead));
  ASSERT_TRUE(index_->search("xab4", &v));
  EXPECT_EQ(v, "w");
  EXPECT_EQ(index_->tree_stats().lock_fail_retries, 0u);
}

TEST_F(SphinxLockPath, SplitAndOutOfPlaceUpdateFuseTheParentReRead) {
  for (const char* k : {"xab1", "xab2", "xcd", "xab3", "xab4"}) {
    ASSERT_TRUE(index_->insert(k, std::string("v:") + k)) << k;
  }
  std::string v;
  rdma::EndpointStats search;
  rdma::EndpointStats op;
  const uint64_t search_rtts =
      rtts_of([&] { ASSERT_TRUE(index_->search("xab1", &v)); }, &search);

  // Split below the start node: the descent ends at leaf xab1, then two
  // round trips; the new node's INHT entry (kInhtWrite) and any allocator
  // lease refill (kAlloc) come on top.
  const uint64_t split =
      rtts_of([&] { ASSERT_TRUE(index_->insert("xab1z", "v")); }, &op);
  EXPECT_EQ(split - phase(op, rdma::Phase::kInhtWrite) -
                phase(op, rdma::Phase::kAlloc),
            search_rtts + 2);
  EXPECT_EQ(phase(op, rdma::Phase::kLock), 0u);

  // Out of place: the leaf lock, the new leaf's write with the parent's
  // lock and re-read, the slot swap, the old leaf's Invalid write.
  const std::string big(300, 'B');
  EXPECT_EQ(rtts_of([&] { ASSERT_TRUE(index_->update("xab2", big)); }, &op) -
                phase(op, rdma::Phase::kAlloc),
            search_rtts + 4);
  EXPECT_EQ(phase(op, rdma::Phase::kLock), 1u);  // the leaf lock only
  EXPECT_EQ(phase(op, rdma::Phase::kInnerRead),
            phase(search, rdma::Phase::kInnerRead));
  ASSERT_TRUE(index_->search("xab2", &v));
  EXPECT_EQ(v, big);
  ASSERT_TRUE(index_->search("xab1z", &v));
}

}  // namespace
}  // namespace sphinx::core
