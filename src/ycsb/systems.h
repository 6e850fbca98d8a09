// Constructs the four evaluated systems (Sphinx, SMART, SMART+C, ART) plus
// ablation variants behind a uniform factory interface, owning the shared
// CN-side state (succinct filter caches, node caches) each system needs.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "art/remote_tree.h"
#include "bptree/bptree.h"
#include "core/sphinx_index.h"
#include "filter/cuckoo_filter.h"
#include "filter/location_cache.h"
#include "smart/node_cache.h"
#include "ycsb/runner.h"

namespace sphinx::ycsb {

enum class SystemKind {
  kSphinx,          // INHT + succinct filter cache
  kSphinxNoFilter,  // ablation A1: INHT only (parallel multi-entry reads)
  kSmart,           // ART + CN node cache (paper: 20 MB)
  kSmartC,          // SMART with the large cache (paper: 200 MB)
  kArt,             // plain ART ported to DM
  kBpTree,          // extra baseline: Sherman-style B+ tree (8 B keys only)
};

const char* system_kind_name(SystemKind kind);

// Per-CN cache budgets from the paper's setup (Sec. V-A).
constexpr uint64_t kDefaultCacheBudget = 20ull << 20;   // 20 MB
constexpr uint64_t kLargeCacheBudget = 200ull << 20;    // 200 MB (SMART+C)
constexpr uint64_t kPaperDatasetKeys = 60'000'000;      // paper: 60 M keys

// Sentinel for SystemSetup's pec_budget_bytes and lac_budget_bytes: carve
// that location cache's default share out of the overall CN cache budget
// (Sphinx only; the NoFilter ablation keeps auto = off so A1 stays a pure
// INHT baseline).
constexpr uint64_t kAutoTierBudget = ~0ull;

// Scales the paper's absolute CN-side cache budget to a scaled-down
// dataset. The paper pairs 20 MB caches with 60 M keys (4.2% of the u64
// key bytes, 1.8% of email); keeping that *ratio* preserves the regime the
// figures measure -- a cache far smaller than the index's hot working set.
inline uint64_t scaled_cache_budget(uint64_t budget_at_paper_scale,
                                    uint64_t keys) {
  const uint64_t scaled =
      budget_at_paper_scale * keys / kPaperDatasetKeys;
  return scaled < (96ull << 10) ? (96ull << 10) : scaled;
}

class SystemSetup {
 public:
  // Creates the remote structures for `kind` on `cluster` and the per-CN
  // shared caches sized to `cache_budget_bytes`. `pec_budget_bytes`
  // controls the Sphinx prefix entry cache: kAutoTierBudget takes the
  // default 25% slice of the overall budget (5% stays reserved for INHT
  // directory caches), 0 disables the PEC (the seed SFC-only
  // configuration), and any other value is an absolute byte budget --
  // e.g. the PEC-only ablation passes the whole cache budget here with
  // kind = kSphinxNoFilter. `lac_budget_bytes` controls the leaf address
  // cache the same way: kAutoTierBudget takes a 25% slice, 0 disables the
  // LAC (pre-LAC behavior bit for bit), any other value is absolute. The
  // filter keeps whatever the enabled tiers leave (45% with all three,
  // 70% pre-LAC, 95% seed).
  SystemSetup(SystemKind kind, mem::Cluster& cluster,
              uint64_t cache_budget_bytes = kDefaultCacheBudget,
              uint64_t pec_budget_bytes = kAutoTierBudget,
              uint64_t lac_budget_bytes = kAutoTierBudget);

  const std::string& name() const { return name_; }
  SystemKind kind() const { return kind_; }
  IndexFactory factory();

  // Builds a standalone client (e.g. for examples/tests outside the
  // runner); caller keeps endpoint/allocator alive.
  std::unique_ptr<KvIndex> make_client(uint32_t cn, rdma::Endpoint& endpoint,
                                       mem::RemoteAllocator& allocator);

  // CN-side cache memory actually in use (filter slots / cached nodes).
  uint64_t cn_cache_bytes(uint32_t cn) const;

  // A/B switch for bench_ycsb --no-scan-jump: when false, Sphinx clients
  // enter scans at the root like the baselines (SFC/PEC still serve point
  // ops). No effect on non-Sphinx systems.
  void set_scan_jump(bool enabled) { scan_jump_ = enabled; }

  // A/B switch for bench_scalability --root-replicas: when false, ART and
  // Sphinx clients read only the primary root (pre-replication routing),
  // exposing the root MN's NIC as the saturation bottleneck. SMART always
  // runs with replicas off (its NodeCache fronts the primary root).
  void set_root_replicas(bool enabled) { root_replicas_ = enabled; }

  filter::CuckooFilter* filter(uint32_t cn) {
    return cn < filters_.size() ? filters_[cn].get() : nullptr;
  }
  filter::LocationCache* pec(uint32_t cn) {
    return cn < pecs_.size() ? pecs_[cn].get() : nullptr;
  }
  filter::LocationCache* lac(uint32_t cn) {
    return cn < lacs_.size() ? lacs_[cn].get() : nullptr;
  }
  smart::NodeCache* node_cache(uint32_t cn) {
    return cn < caches_.size() ? caches_[cn].get() : nullptr;
  }
  const core::SphinxRefs* sphinx_refs() const {
    return sphinx_refs_ ? sphinx_refs_.get() : nullptr;
  }
  const art::TreeRef& tree_ref() const { return tree_ref_; }
  const bptree::BpTreeRef& bptree_ref() const { return bptree_ref_; }

 private:
  SystemKind kind_;
  mem::Cluster& cluster_;
  std::string name_;
  bool scan_jump_ = true;
  bool root_replicas_ = true;
  art::TreeRef tree_ref_;
  bptree::BpTreeRef bptree_ref_;
  std::unique_ptr<core::SphinxRefs> sphinx_refs_;
  std::vector<std::unique_ptr<filter::CuckooFilter>> filters_;      // per CN
  std::vector<std::unique_ptr<filter::LocationCache>> pecs_;        // per CN
  std::vector<std::unique_ptr<filter::LocationCache>> lacs_;        // per CN
  std::vector<std::unique_ptr<smart::NodeCache>> caches_;           // per CN
};

}  // namespace sphinx::ycsb
