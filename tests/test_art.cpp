// Tests for the shared remote-tree engine, exercised through the ART
// baseline: node layout packing, image helpers, and full index semantics
// against a std::map oracle (inserts, searches, updates, deletes, scans,
// path compression, node type switches).
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <memory>
#include <set>

#include "art/art_index.h"
#include "art/node_image.h"
#include "art/node_layout.h"
#include "common/rng.h"
#include "rdma/fault_injector.h"
#include "test_util.h"
#include "ycsb/dataset.h"

namespace sphinx::art {
namespace {

// ---- layout packing -----------------------------------------------------------

TEST(NodeLayout, HeaderPackUnpack) {
  const uint64_t h = pack_inner_header(NodeStatus::kLocked, NodeType::kN48,
                                       123, 0x2ffffffffffULL);
  EXPECT_EQ(header_status(h), NodeStatus::kLocked);
  EXPECT_EQ(header_type(h), NodeType::kN48);
  EXPECT_EQ(header_depth(h), 123);
  EXPECT_EQ(header_prefix_hash42(h), 0x2ffffffffffULL);
  const uint64_t idle = with_status(h, NodeStatus::kIdle);
  EXPECT_EQ(header_status(idle), NodeStatus::kIdle);
  EXPECT_EQ(header_type(idle), NodeType::kN48);
}

TEST(NodeLayout, SlotPackUnpack) {
  const rdma::GlobalAddr addr(2, 0x7fffffc0);
  const uint64_t inner = pack_inner_slot(0xab, NodeType::kN16, addr);
  EXPECT_TRUE(slot_valid(inner));
  EXPECT_FALSE(slot_is_leaf(inner));
  EXPECT_EQ(slot_pkey(inner), 0xab);
  EXPECT_EQ(slot_child_type(inner), NodeType::kN16);
  EXPECT_EQ(slot_addr(inner), addr);

  const uint64_t leaf = pack_leaf_slot(0x01, 63, addr);
  EXPECT_TRUE(slot_is_leaf(leaf));
  EXPECT_EQ(slot_leaf_units(leaf), 63u);
  EXPECT_EQ(slot_addr(leaf), addr);
}

TEST(NodeLayout, LeafHeaderPackUnpack) {
  const uint64_t h = pack_leaf_header(NodeStatus::kIdle, 3, 21, 64);
  EXPECT_EQ(leaf_units(h), 3u);
  EXPECT_EQ(leaf_key_len(h), 21u);
  EXPECT_EQ(leaf_val_len(h), 64u);
}

TEST(NodeLayout, NodeSizes) {
  EXPECT_EQ(inner_node_bytes(NodeType::kN4), 24u + 32u);
  EXPECT_EQ(inner_node_bytes(NodeType::kN256), 24u + 2048u);
  EXPECT_EQ(next_node_type(NodeType::kN4), NodeType::kN16);
  EXPECT_EQ(next_node_type(NodeType::kN48), NodeType::kN256);
  EXPECT_EQ(next_node_type(NodeType::kN256), NodeType::kN256);
  EXPECT_EQ(leaf_units_for(9, 64), 2u);   // 8 + 16 + 64 + 8 = 96 -> 2x64
  EXPECT_EQ(leaf_units_for(33, 64), 2u);  // 8 + 40 + 64 + 8 = 120 -> 2x64
}

// ---- images -------------------------------------------------------------------

TEST(InnerImage, CreateAndFindSlots) {
  InnerImage img = InnerImage::create(NodeType::kN4, Slice("abc"));
  EXPECT_EQ(img.depth(), 3u);
  EXPECT_EQ(img.status(), NodeStatus::kIdle);
  EXPECT_EQ(img.prefix_hash_full(), prefix_hash(Slice("abc")));
  EXPECT_EQ(img.find_pkey('x'), -1);
  EXPECT_EQ(img.find_free('x'), 0);
  img.set_slot(0, pack_leaf_slot('x', 1, rdma::GlobalAddr(0, 64)));
  EXPECT_EQ(img.find_pkey('x'), 0);
  EXPECT_EQ(img.find_free('y'), 1);
  EXPECT_EQ(img.valid_slot_count(), 1u);
}

TEST(InnerImage, N256DirectIndex) {
  InnerImage img = InnerImage::create(NodeType::kN256, Slice("q"));
  img.set_slot(200, pack_leaf_slot(200, 1, rdma::GlobalAddr(0, 64)));
  EXPECT_EQ(img.find_pkey(200), 200);
  EXPECT_EQ(img.find_free(200), -1);
  EXPECT_EQ(img.find_free(100), 100);
}

TEST(InnerImage, FragConsistency) {
  // depth 10, fragment stores the last 6 prefix bytes: "efghij".
  const std::string prefix = "abcdefghij";
  InnerImage img = InnerImage::create(NodeType::kN4, Slice(prefix));
  TerminatedKey good(Slice("abcdefghijXYZ"));
  TerminatedKey bad(Slice("abcdefghiZXYZ"));
  TerminatedKey unverifiable(Slice("ZZcdefghijXYZ"));  // differs before frag
  EXPECT_TRUE(img.frag_consistent(good, 3));
  EXPECT_FALSE(img.frag_consistent(bad, 3));
  // The divergence is before the fragment window: optimistically accepted.
  EXPECT_TRUE(img.frag_consistent(unverifiable, 3));
}

TEST(InnerImage, GrownCopyPreservesSlots) {
  InnerImage img = InnerImage::create(NodeType::kN4, Slice("pq"));
  for (uint8_t i = 0; i < 4; ++i) {
    img.set_slot(i, pack_leaf_slot(static_cast<uint8_t>('a' + i), 1,
                                   rdma::GlobalAddr(0, 64 * (i + 1))));
  }
  InnerImage big = img.grown_copy(NodeType::kN16);
  EXPECT_EQ(big.type(), NodeType::kN16);
  EXPECT_EQ(big.depth(), img.depth());
  EXPECT_EQ(big.valid_slot_count(), 4u);
  for (uint8_t i = 0; i < 4; ++i) {
    EXPECT_GE(big.find_pkey(static_cast<uint8_t>('a' + i)), 0);
  }
  InnerImage huge = big.grown_copy(NodeType::kN256);
  EXPECT_EQ(huge.find_pkey('c'), 'c');
}

TEST(LeafImage, BuildVerifyUpdate) {
  LeafImage leaf = LeafImage::build(Slice("hello\0", 6), Slice("world"), 1);
  EXPECT_TRUE(leaf.checksum_ok());
  EXPECT_EQ(leaf.key().size(), 6u);
  EXPECT_EQ(leaf.value().to_string(), "world");
  leaf.replace_value(Slice("mars!"));
  EXPECT_TRUE(leaf.checksum_ok());
  EXPECT_EQ(leaf.value().to_string(), "mars!");
  // Corruption is detected.
  leaf.buf()[10] ^= 0xff;
  EXPECT_FALSE(leaf.checksum_ok());
}

TEST(LeafImage, ChecksumIgnoresStatusBits) {
  LeafImage leaf = LeafImage::build(Slice("k\0", 2), Slice("v"), 1);
  uint64_t h = leaf.header();
  h = with_status(h, NodeStatus::kLocked);
  std::memcpy(leaf.buf().data(), &h, 8);
  EXPECT_TRUE(leaf.checksum_ok());
  EXPECT_EQ(leaf.status(), NodeStatus::kLocked);
}

// ---- full index semantics vs oracle --------------------------------------------

class ArtIndexTest : public ::testing::Test {
 protected:
  void SetUp() override {
    cluster_ = testing::make_test_cluster();
    ref_ = create_tree(*cluster_);
    endpoint_ = std::make_unique<rdma::Endpoint>(cluster_->fabric(), 0, true);
    allocator_ = std::make_unique<mem::RemoteAllocator>(*cluster_, *endpoint_);
    index_ = std::make_unique<ArtIndex>(*cluster_, *endpoint_, *allocator_,
                                        ref_);
  }

  std::unique_ptr<mem::Cluster> cluster_;
  TreeRef ref_;
  std::unique_ptr<rdma::Endpoint> endpoint_;
  std::unique_ptr<mem::RemoteAllocator> allocator_;
  std::unique_ptr<ArtIndex> index_;
};

TEST_F(ArtIndexTest, InsertSearchSingle) {
  EXPECT_TRUE(index_->insert("hello", "world"));
  std::string v;
  EXPECT_TRUE(index_->search("hello", &v));
  EXPECT_EQ(v, "world");
  EXPECT_FALSE(index_->search("hell", &v));
  EXPECT_FALSE(index_->search("helloo", &v));
  EXPECT_FALSE(index_->search("x", &v));
}

TEST_F(ArtIndexTest, DuplicateInsertRejected) {
  EXPECT_TRUE(index_->insert("k", "v1"));
  EXPECT_FALSE(index_->insert("k", "v2"));
  std::string v;
  EXPECT_TRUE(index_->search("k", &v));
  EXPECT_EQ(v, "v1");
}

TEST_F(ArtIndexTest, PrefixKeysCoexist) {
  // Keys that are prefixes of each other exercise the terminator logic.
  const std::vector<std::string> keys = {"a",   "ab",   "abc", "abcd",
                                         "abd", "abde", "b"};
  for (const auto& k : keys) {
    ASSERT_TRUE(index_->insert(k, "v:" + k)) << k;
  }
  std::string v;
  for (const auto& k : keys) {
    ASSERT_TRUE(index_->search(k, &v)) << k;
    EXPECT_EQ(v, "v:" + k);
  }
  EXPECT_FALSE(index_->search("abcde", &v));
}

TEST_F(ArtIndexTest, UpdateChangesValue) {
  ASSERT_TRUE(index_->insert("key", "old"));
  EXPECT_TRUE(index_->update("key", "new"));
  std::string v;
  ASSERT_TRUE(index_->search("key", &v));
  EXPECT_EQ(v, "new");
  EXPECT_FALSE(index_->update("missing", "x"));
}

TEST_F(ArtIndexTest, UpdateGrowingValueGoesOutOfPlace) {
  ASSERT_TRUE(index_->insert("key", "small"));
  const std::string big(300, 'B');  // forces a bigger leaf
  EXPECT_TRUE(index_->update("key", big));
  std::string v;
  ASSERT_TRUE(index_->search("key", &v));
  EXPECT_EQ(v, big);
  // And back down (in-place within the bigger leaf).
  EXPECT_TRUE(index_->update("key", "tiny"));
  ASSERT_TRUE(index_->search("key", &v));
  EXPECT_EQ(v, "tiny");
}

TEST_F(ArtIndexTest, RemoveThenReinsert) {
  ASSERT_TRUE(index_->insert("key", "v1"));
  EXPECT_TRUE(index_->remove("key"));
  std::string v;
  EXPECT_FALSE(index_->search("key", &v));
  EXPECT_FALSE(index_->remove("key"));
  EXPECT_FALSE(index_->update("key", "x"));
  EXPECT_TRUE(index_->insert("key", "v2"));
  ASSERT_TRUE(index_->search("key", &v));
  EXPECT_EQ(v, "v2");
}

TEST_F(ArtIndexTest, TypeSwitchesUnderFanout) {
  // 200 distinct first bytes under a shared prefix force N4->N16->N48->N256.
  for (int i = 0; i < 200; ++i) {
    std::string k = "p";
    k.push_back(static_cast<char>(i + 1));
    k += "suffix";
    ASSERT_TRUE(index_->insert(k, std::to_string(i))) << i;
  }
  EXPECT_GE(index_->tree_stats().type_switches, 3u);
  std::string v;
  for (int i = 0; i < 200; ++i) {
    std::string k = "p";
    k.push_back(static_cast<char>(i + 1));
    k += "suffix";
    ASSERT_TRUE(index_->search(k, &v)) << i;
    EXPECT_EQ(v, std::to_string(i));
  }
}

TEST_F(ArtIndexTest, OracleRandomMixedOps) {
  std::map<std::string, std::string> oracle;
  Rng rng(2024);
  const std::vector<std::string> keys = testing::mixed_keys(800);
  for (int op = 0; op < 8000; ++op) {
    const std::string& k = keys[rng.next_below(keys.size())];
    switch (rng.next_below(4)) {
      case 0: {  // insert
        const std::string v = "v" + std::to_string(op);
        const bool expect = oracle.emplace(k, v).second;
        EXPECT_EQ(index_->insert(k, v), expect) << k;
        break;
      }
      case 1: {  // update
        const std::string v = "u" + std::to_string(op);
        const bool expect = oracle.count(k) > 0;
        EXPECT_EQ(index_->update(k, v), expect) << k;
        if (expect) oracle[k] = v;
        break;
      }
      case 2: {  // remove
        const bool expect = oracle.erase(k) > 0;
        EXPECT_EQ(index_->remove(k), expect) << k;
        break;
      }
      default: {  // search
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
  // Full verification pass.
  std::string v;
  for (const auto& [k, val] : oracle) {
    ASSERT_TRUE(index_->search(k, &v)) << k;
    EXPECT_EQ(v, val);
  }
}

TEST_F(ArtIndexTest, ScanReturnsSortedRange) {
  std::map<std::string, std::string> oracle;
  const std::vector<std::string> keys = testing::mixed_keys(500);
  for (const auto& k : keys) {
    index_->insert(k, "v:" + k);
    oracle[k] = "v:" + k;
  }
  std::vector<std::pair<std::string, std::string>> out;
  for (const auto& start : {std::string("order/"), std::string("user:"),
                            std::string("a"), keys[42]}) {
    const size_t n = index_->scan(start, 25, &out);
    auto it = oracle.lower_bound(start);
    size_t expected = 0;
    for (; it != oracle.end() && expected < 25; ++it, ++expected) {
      ASSERT_GT(out.size(), expected);
      EXPECT_EQ(out[expected].first, it->first);
      EXPECT_EQ(out[expected].second, it->second);
    }
    EXPECT_EQ(n, expected);
  }
}

TEST_F(ArtIndexTest, ScanPastEndReturnsShort) {
  index_->insert("aaa", "1");
  index_->insert("zzz", "2");
  std::vector<std::pair<std::string, std::string>> out;
  EXPECT_EQ(index_->scan("zzz", 10, &out), 1u);
  EXPECT_EQ(out[0].first, "zzz");
  EXPECT_EQ(index_->scan("zzzz", 10, &out), 0u);
}

TEST_F(ArtIndexTest, ScanSkipsDeleted) {
  for (char c = 'a'; c <= 'j'; ++c) {
    index_->insert(std::string(1, c), "v");
  }
  index_->remove("c");
  index_->remove("f");
  std::vector<std::pair<std::string, std::string>> out;
  EXPECT_EQ(index_->scan("a", 100, &out), 8u);
  for (const auto& [k, v] : out) {
    EXPECT_NE(k, "c");
    EXPECT_NE(k, "f");
  }
}

TEST_F(ArtIndexTest, U64KeysScanInNumericOrder) {
  std::set<uint64_t> values;
  Rng rng(7);
  while (values.size() < 300) values.insert(rng.next_u64());
  for (uint64_t v : values) {
    ASSERT_TRUE(index_->insert(encode_u64_key(v), std::to_string(v)));
  }
  std::vector<std::pair<std::string, std::string>> out;
  const uint64_t mid = *std::next(values.begin(), 150);
  index_->scan(encode_u64_key(mid), 50, &out);
  ASSERT_EQ(out.size(), 50u);
  auto it = values.find(mid);
  for (const auto& [k, v] : out) {
    EXPECT_EQ(decode_u64_key(Slice(k)), *it);
    ++it;
  }
}

TEST_F(ArtIndexTest, EmailDatasetRoundTrip) {
  const auto keys = ycsb::generate_email_keys(2000, 3);
  for (const auto& k : keys) {
    ASSERT_TRUE(index_->insert(k, "mail")) << k;
  }
  std::string v;
  for (const auto& k : keys) {
    ASSERT_TRUE(index_->search(k, &v)) << k;
  }
  EXPECT_EQ(index_->tree_stats().ops_failed, 0u);
}

TEST_F(ArtIndexTest, SearchCostsOneRttPerLevel) {
  // The ART-on-DM cost model: root read + one read per level + leaf read.
  ASSERT_TRUE(index_->insert("abcdef", "v"));
  const uint64_t before = endpoint_->stats().round_trips;
  std::string v;
  ASSERT_TRUE(index_->search("abcdef", &v));
  // Single key under the root: root + leaf = 2 round trips.
  EXPECT_EQ(endpoint_->stats().round_trips - before, 2u);
}

TEST_F(ArtIndexTest, MemoryAccountingGrowsAndShrinks) {
  mem::AllocStats& stats = cluster_->alloc_stats();
  const uint64_t inner0 = stats.requested_bytes(mem::AllocTag::kInnerNode);
  const uint64_t leaf0 = stats.requested_bytes(mem::AllocTag::kLeaf);
  for (int i = 0; i < 100; ++i) {
    index_->insert("mem" + std::to_string(i), "v");
  }
  EXPECT_GT(stats.requested_bytes(mem::AllocTag::kLeaf), leaf0);
  EXPECT_GT(stats.requested_bytes(mem::AllocTag::kInnerNode), inner0);
  const uint64_t leaf_after = stats.requested_bytes(mem::AllocTag::kLeaf);
  for (int i = 0; i < 100; ++i) {
    index_->remove("mem" + std::to_string(i));
  }
  EXPECT_LT(stats.requested_bytes(mem::AllocTag::kLeaf), leaf_after);
}

// ---- root replication (DESIGN.md Sec. 15) -----------------------------------

TEST_F(ArtIndexTest, RootReplicasCreatedOnEveryMn) {
  ASSERT_EQ(ref_.root_replicas.size(), 3u);
  std::set<uint32_t> mns;
  for (const rdma::GlobalAddr& rep : ref_.root_replicas) mns.insert(rep.mn());
  EXPECT_EQ(mns.size(), 3u);
  // The vector is indexed by MN id; the primary's entry is the primary.
  EXPECT_EQ(ref_.root_replicas[ref_.root.mn()], ref_.root);
  // All copies start byte-identical (the empty Node-256 root).
  rdma::Endpoint loader = cluster_->make_loader_endpoint();
  InnerImage primary = InnerImage::create(NodeType::kN256, Slice());
  loader.read(ref_.root, primary.raw(), inner_node_bytes(NodeType::kN256));
  for (const rdma::GlobalAddr& rep_addr : ref_.root_replicas) {
    if (rep_addr == ref_.root) continue;
    InnerImage rep = InnerImage::create(NodeType::kN256, Slice());
    loader.read(rep_addr, rep.raw(), inner_node_bytes(NodeType::kN256));
    EXPECT_EQ(std::memcmp(rep.raw(), primary.raw(),
                          inner_node_bytes(NodeType::kN256)),
              0);
  }
}

TEST_F(ArtIndexTest, RootSlotInstallsPropagateToReplicas) {
  // Distinct first bytes populate distinct root slots: each install (and
  // each later leaf -> inner replacement) must reach every replica.
  for (int i = 0; i < 40; ++i) {
    const std::string k = std::string(1, static_cast<char>('0' + i)) + "key";
    ASSERT_TRUE(index_->insert(k, "v:" + k)) << k;
    ASSERT_TRUE(index_->insert(k + "2", "w:" + k)) << k;  // forces a split
  }
  EXPECT_GT(index_->tree_stats().root_replica_propagations, 0u);
  rdma::Endpoint loader = cluster_->make_loader_endpoint();
  InnerImage primary = InnerImage::create(NodeType::kN256, Slice());
  loader.read(ref_.root, primary.raw(), inner_node_bytes(NodeType::kN256));
  for (const rdma::GlobalAddr& rep_addr : ref_.root_replicas) {
    if (rep_addr == ref_.root) continue;
    InnerImage rep = InnerImage::create(NodeType::kN256, Slice());
    loader.read(rep_addr, rep.raw(), inner_node_bytes(NodeType::kN256));
    for (uint32_t s = 0; s < 256; ++s) {
      EXPECT_EQ(rep.slot(s), primary.slot(s)) << "slot " << s;
    }
  }
}

TEST_F(ArtIndexTest, ReplicaRoutedSearchesSpreadAndStayCorrect) {
  const auto keys = testing::mixed_keys(300);
  for (const auto& k : keys) ASSERT_TRUE(index_->insert(k, "v:" + k));
  std::string v;
  for (int round = 0; round < 3; ++round) {
    for (const auto& k : keys) {
      ASSERT_TRUE(index_->search(k, &v)) << k;
      EXPECT_EQ(v, "v:" + k);
    }
  }
  EXPECT_FALSE(index_->search("not-a-key-anywhere", &v));
  const TreeStats& st = index_->tree_stats();
  // Round-robin over 3 MNs: roughly 2/3 of root-entry descents go through
  // a replica, the rest through the primary.
  EXPECT_GT(st.root_replica_reads, 0u);
  EXPECT_GT(st.root_primary_reads, 0u);
  // A single client's propagations complete under the root lock before its
  // next descent, so its replicas never lag itself: no rechecks.
  EXPECT_EQ(st.root_replica_rechecks, 0u);
}

TEST_F(ArtIndexTest, StaleReplicaNeverYieldsFalseVerdicts) {
  ASSERT_TRUE(index_->insert("stale-key", "stale-val"));
  // Forge the failure mode replication must absorb: a propagation that
  // never landed (e.g. the installer crashed after its slot CAS). Clear
  // the key's root slot in every replica, leaving only the primary truthful.
  rdma::Endpoint loader = cluster_->make_loader_endpoint();
  const uint64_t zero = 0;
  for (const rdma::GlobalAddr& rep : ref_.root_replicas) {
    if (rep == ref_.root) continue;
    loader.write(rep.plus(kInnerHeaderBytes + uint64_t{'s'} * 8), &zero,
                 sizeof(zero));
  }
  // Round-robin sends most entries through a stale replica; its kNoSlot
  // verdict must be re-verified through the primary, never reported.
  std::string v;
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(index_->search("stale-key", &v)) << "attempt " << i;
    EXPECT_EQ(v, "stale-val");
  }
  EXPECT_GT(index_->tree_stats().root_replica_rechecks, 0u);
  // Mutations route the same way: the update and remove land on the
  // primary regardless of which root image the first attempt read.
  EXPECT_TRUE(index_->update("stale-key", "v2"));
  ASSERT_TRUE(index_->search("stale-key", &v));
  EXPECT_EQ(v, "v2");
  EXPECT_TRUE(index_->remove("stale-key"));
  EXPECT_FALSE(index_->search("stale-key", &v));
}

// ---- lock acquisition rides with its re-read (DESIGN.md Sec. 9) -------------

// A fixed little tree below the root, so no mutation touches the replicated
// root: root['x'] -> P (prefix "x") -> {'a' -> M (prefix "xab", Node-4 with
// the four leaves xab1..xab4), 'c' -> leaf "xcd"}. A descent to one of M's
// leaves reads the root, P, M and the leaf: 4 round trips.
class ArtLockPath : public ArtIndexTest {
 protected:
  void SetUp() override {
    ArtIndexTest::SetUp();
    for (const char* k : {"xab1", "xab2", "xcd", "xab3", "xab4"}) {
      ASSERT_TRUE(index_->insert(k, std::string("v:") + k)) << k;
    }
    m_addr_ = child(read_node(ref_.root, NodeType::kN256), 'x');
    const InnerImage p = read_node(m_addr_, NodeType::kN4);
    ASSERT_EQ(p.depth(), 1u);
    m_addr_ = child(p, 'a');
    ASSERT_EQ(m().depth(), 3u);
    ASSERT_EQ(m().type(), NodeType::kN4);
  }

  InnerImage read_node(rdma::GlobalAddr addr, NodeType type) {
    rdma::Endpoint loader = cluster_->make_loader_endpoint();
    InnerImage img;
    loader.read(addr, img.raw(), inner_node_bytes(type));
    return img;
  }
  InnerImage m() { return read_node(m_addr_, NodeType::kN4); }
  static uint64_t slot_word(const InnerImage& node, uint8_t branch) {
    const int idx = node.find_pkey(branch);
    return idx < 0 ? 0 : node.slot(static_cast<uint32_t>(idx));
  }
  static rdma::GlobalAddr child(const InnerImage& node, uint8_t branch) {
    return slot_addr(slot_word(node, branch));
  }
  uint64_t leaf_header(rdma::GlobalAddr leaf) {
    rdma::Endpoint loader = cluster_->make_loader_endpoint();
    return loader.read64(leaf);
  }

  // Runs `op` and returns its round trips, checking that the per-phase
  // round trips and bytes still sum exactly to the totals. Allocator lease
  // refills (kAlloc) depend on the client's chunk state, not on the op's
  // protocol, and are left out. *delta receives the whole difference.
  template <typename Op>
  uint64_t rtts_of(Op op, rdma::EndpointStats* delta = nullptr) {
    const rdma::EndpointStats before = endpoint_->stats();
    op();
    const rdma::EndpointStats d = endpoint_->stats() - before;
    EXPECT_EQ(d.rtts_sum_by_phase(), d.round_trips);
    EXPECT_EQ(d.bytes_sum_by_phase(), d.bytes_total());
    if (delta != nullptr) *delta = d;
    return d.round_trips - phase(d, rdma::Phase::kAlloc);
  }
  static uint64_t phase(const rdma::EndpointStats& d, rdma::Phase p) {
    return d.rtts_by_phase[static_cast<size_t>(p)];
  }

  // A kCasFail rule that makes the next lock-acquire CAS on `mn` lose.
  void lose_next_lock_cas_on(uint32_t mn) {
    rdma::FaultRule rule;
    rule.kind = rdma::FaultKind::kCasFail;
    rule.mn = static_cast<int32_t>(mn);
    rule.verbs = rdma::verb_bit(rdma::VerbKind::kCas);
    rule.site = rdma::FaultSite::kLockAcquire;
    rule.max_fires = 1;
    injector_.add_rule(rule);
    cluster_->fabric().set_fault_injector(&injector_);
  }
  // One of M's keys whose leaf lives on a different MN than M, so a fault
  // rule can single out either the leaf CAS or M's lock CAS.
  std::string key_off_m_mn() {
    const InnerImage node = m();
    for (char c = '1'; c <= '4'; ++c) {
      if (child(node, static_cast<uint8_t>(c)).mn() != m_addr_.mn()) {
        return std::string("xab") + c;
      }
    }
    return "";
  }

  rdma::GlobalAddr m_addr_;
  rdma::FaultInjector injector_{7};
};

TEST_F(ArtLockPath, InsertSplitRemoveAndReplaceCostDescentPlusTwo) {
  // Removing xab4 frees a slot in M for the free-slot insert below.
  rdma::EndpointStats d;
  EXPECT_EQ(rtts_of([&] { ASSERT_TRUE(index_->remove("xab4")); }, &d), 4u + 2);
  // Leaf CAS + M's lock CAS + M's re-read in one batch, then slot clear +
  // release: no standalone lock or re-read round trip.
  EXPECT_EQ(phase(d, rdma::Phase::kLeafWrite), 1u);
  EXPECT_EQ(phase(d, rdma::Phase::kInnerWrite), 1u);
  EXPECT_EQ(phase(d, rdma::Phase::kLock), 0u);
  EXPECT_EQ(phase(d, rdma::Phase::kInnerRead), 3u);  // the descent only

  // Free slot in M: root + P + M, then leaf write + lock + re-read, then
  // slot CAS + release.
  EXPECT_EQ(rtts_of([&] { ASSERT_TRUE(index_->insert("xab5", "v")); }, &d),
            3u + 2);
  EXPECT_EQ(phase(d, rdma::Phase::kInnerRead), 3u);
  EXPECT_EQ(phase(d, rdma::Phase::kLock), 0u);

  // Split below M: the descent ends at leaf xab1 (4), then leaf + new node
  // writes + M's lock + re-read, then the slot swap.
  EXPECT_EQ(rtts_of([&] { ASSERT_TRUE(index_->insert("xab1z", "v")); }, &d),
            4u + 2);
  EXPECT_EQ(phase(d, rdma::Phase::kInnerRead), 3u);
  EXPECT_EQ(index_->tree_stats().splits, 3u);

  // An Invalid leaf still linked from P (forged: a remove whose slot clear
  // never happened): root + P + leaf, then the fused batch and the swap.
  const rdma::GlobalAddr p_addr =
      child(read_node(ref_.root, NodeType::kN256), 'x');
  const rdma::GlobalAddr dead = child(read_node(p_addr, NodeType::kN4), 'c');
  rdma::Endpoint loader = cluster_->make_loader_endpoint();
  loader.write64(dead, with_status(leaf_header(dead), NodeStatus::kInvalid));
  EXPECT_EQ(rtts_of([&] { ASSERT_TRUE(index_->insert("xcd", "v2")); }, &d),
            3u + 2);
  EXPECT_EQ(phase(d, rdma::Phase::kLock), 0u);
  EXPECT_NE(child(read_node(p_addr, NodeType::kN4), 'c'), dead);

  std::string v;
  ASSERT_TRUE(index_->search("xcd", &v));
  EXPECT_EQ(v, "v2");
  EXPECT_FALSE(index_->search("xab4", &v));
  EXPECT_EQ(index_->tree_stats().lock_fail_retries, 0u);
}

TEST_F(ArtLockPath, TypeSwitchAndOutOfPlaceUpdateFuseEachLock) {
  // M is a full Node-4, so inserting xab5 switches it to a Node-16: descent
  // (3); M's lock + re-read (1); the grown copy's write + P's lock + P's
  // re-read (1); slot swap + release (1); M marked Invalid (1); then the
  // retry's descent through the grown node (3) and the free-slot insert
  // (2). A separate re-read per lock used to cost two more.
  rdma::EndpointStats d;
  EXPECT_EQ(rtts_of([&] { ASSERT_TRUE(index_->insert("xab5", "v")); }, &d),
            3u + 4 + 3 + 2);
  EXPECT_EQ(index_->tree_stats().type_switches, 1u);
  EXPECT_EQ(phase(d, rdma::Phase::kLock), 1u);       // M's lock + re-read
  EXPECT_EQ(phase(d, rdma::Phase::kInnerRead), 6u);  // the two descents

  // Out of place: descent to the leaf (4); leaf lock (1); new leaf write +
  // parent lock + re-read (1); slot swap + release (1); old leaf Invalid
  // (1). One fewer than with a separate parent re-read.
  const std::string big(300, 'B');
  EXPECT_EQ(rtts_of([&] { ASSERT_TRUE(index_->update("xab2", big)); }, &d),
            4u + 4);
  EXPECT_EQ(phase(d, rdma::Phase::kLock), 1u);  // the leaf lock only
  std::string v;
  ASSERT_TRUE(index_->search("xab2", &v));
  EXPECT_EQ(v, big);
}

TEST_F(ArtLockPath, ReReadIsPostedRightBehindItsLockCas) {
  // The batch applies in post order, so only a read posted AFTER the lock
  // CAS returns the locked image. A zero-delay rule on every verb records
  // the exact verb sequence.
  rdma::FaultRule every_verb;
  every_verb.kind = rdma::FaultKind::kDelay;
  every_verb.delay_ns = 0;
  injector_.add_rule(every_verb);
  injector_.set_recording(true);
  cluster_->fabric().set_fault_injector(&injector_);
  const uint32_t leaf_mn = child(m(), '4').mn();
  ASSERT_TRUE(index_->remove("xab4"));
  ASSERT_TRUE(index_->insert("xab5", "v"));
  cluster_->fabric().set_fault_injector(nullptr);

  using rdma::VerbKind;
  struct Verb {
    VerbKind kind;
    uint32_t mn;
  };
  const uint32_t mn = m_addr_.mn();
  constexpr uint32_t kAnyMn = UINT32_MAX;  // the root, P, the new leaf
  const std::vector<Verb> want = {
      // remove: root, P, M, leaf; leaf CAS + M's lock CAS + M's re-read;
      // slot clear + release.
      {VerbKind::kRead, kAnyMn}, {VerbKind::kRead, kAnyMn},
      {VerbKind::kRead, mn}, {VerbKind::kRead, leaf_mn},
      {VerbKind::kCas, leaf_mn}, {VerbKind::kCas, mn}, {VerbKind::kRead, mn},
      {VerbKind::kCas, mn}, {VerbKind::kCas, mn},
      // insert: root, P, M; leaf write + M's lock CAS + M's re-read; slot
      // install + release.
      {VerbKind::kRead, kAnyMn}, {VerbKind::kRead, kAnyMn},
      {VerbKind::kRead, mn}, {VerbKind::kWrite, kAnyMn},
      {VerbKind::kCas, mn}, {VerbKind::kRead, mn}, {VerbKind::kCas, mn},
      {VerbKind::kCas, mn}};
  const std::vector<rdma::FaultEvent> got = injector_.events_for_client(0);
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].verb, want[i].kind) << "verb " << i;
    if (want[i].mn != kAnyMn) {
      EXPECT_EQ(got[i].mn, want[i].mn) << "verb " << i;
    }
  }
}

TEST_F(ArtLockPath, RemoveRetriesWhenLeafCasLosesAndParentLockWins) {
  const std::string key = key_off_m_mn();
  ASSERT_FALSE(key.empty()) << "no leaf of M on another MN";
  const uint8_t branch = static_cast<uint8_t>(key.back());
  const rdma::GlobalAddr leaf = child(m(), branch);
  const uint64_t m_header = m().header();

  // The leaf CAS (on the leaf's MN) loses; M's lock CAS in the same batch
  // wins and must be released before the retry.
  lose_next_lock_cas_on(leaf.mn());
  const uint64_t retries = index_->tree_stats().op_retries;
  // Descent (4) + fused batch (1) + release (1) + descent (4) + 2.
  EXPECT_EQ(rtts_of([&] { EXPECT_TRUE(index_->remove(key)); }),
            4u + 1 + 1 + 4 + 2);
  cluster_->fabric().set_fault_injector(nullptr);
  EXPECT_EQ(injector_.stats().cas_failures, 1u);
  EXPECT_EQ(index_->tree_stats().op_retries, retries + 1);
  EXPECT_EQ(index_->tree_stats().lock_fail_retries, 0u);

  // M is back at the exact header word the remove saw, the slot is gone
  // and the leaf is Invalid.
  EXPECT_EQ(m().header(), m_header);
  EXPECT_EQ(slot_word(m(), branch), 0u);
  EXPECT_EQ(header_status(leaf_header(leaf)), NodeStatus::kInvalid);
  std::string v;
  EXPECT_FALSE(index_->search(key, &v));
}

TEST_F(ArtLockPath, LostParentLockLeavesInvalidLeafForTheNextInsert) {
  const std::string key = key_off_m_mn();
  ASSERT_FALSE(key.empty()) << "no leaf of M on another MN";
  const uint8_t branch = static_cast<uint8_t>(key.back());
  const uint64_t dead_word = slot_word(m(), branch);
  const uint64_t m_header = m().header();

  // The leaf CAS wins (the delete linearizes); M's lock CAS loses, so the
  // slot clear is skipped: one fused batch after the descent.
  lose_next_lock_cas_on(m_addr_.mn());
  EXPECT_EQ(rtts_of([&] { EXPECT_TRUE(index_->remove(key)); }), 4u + 1);
  cluster_->fabric().set_fault_injector(nullptr);
  EXPECT_EQ(injector_.stats().cas_failures, 1u);
  EXPECT_EQ(index_->tree_stats().lock_fail_retries, 1u);

  // The leaf stays Invalid and linked; M was never locked.
  EXPECT_EQ(slot_word(m(), branch), dead_word);
  EXPECT_EQ(header_status(leaf_header(slot_addr(dead_word))),
            NodeStatus::kInvalid);
  EXPECT_EQ(m().header(), m_header);
  std::string v;
  EXPECT_FALSE(index_->search(key, &v));

  // The next insert of the key swaps the dead leaf out and retires it.
  const mem::AllocStats& alloc = cluster_->alloc_stats();
  const uint64_t retired = alloc.retired_bytes_total();
  EXPECT_EQ(rtts_of([&] { ASSERT_TRUE(index_->insert(key, "again")); }),
            4u + 2);
  EXPECT_NE(slot_word(m(), branch), dead_word);
  EXPECT_GE(alloc.retired_bytes_total() - retired,
            uint64_t{slot_leaf_units(dead_word)} * kLeafUnitBytes);
  ASSERT_TRUE(index_->search(key, &v));
  EXPECT_EQ(v, "again");
}

}  // namespace
}  // namespace sphinx::art
