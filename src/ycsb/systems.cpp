#include "ycsb/systems.h"

#include "art/art_index.h"
#include "smart/smart_index.h"

namespace sphinx::ycsb {

const char* system_kind_name(SystemKind kind) {
  switch (kind) {
    case SystemKind::kSphinx:
      return "Sphinx";
    case SystemKind::kSphinxNoFilter:
      return "Sphinx-NoSFC";
    case SystemKind::kSmart:
      return "SMART";
    case SystemKind::kSmartC:
      return "SMART+C";
    case SystemKind::kArt:
      return "ART";
    case SystemKind::kBpTree:
      return "B+tree";
  }
  return "?";
}

SystemSetup::SystemSetup(SystemKind kind, mem::Cluster& cluster,
                         uint64_t cache_budget_bytes,
                         uint64_t pec_budget_bytes,
                         uint64_t lac_budget_bytes)
    : kind_(kind), cluster_(cluster), name_(system_kind_name(kind)) {
  const uint32_t num_cns = cluster.config().num_cns;
  switch (kind) {
    case SystemKind::kSphinx: {
      sphinx_refs_ = std::make_unique<core::SphinxRefs>(
          core::create_sphinx(cluster));
      tree_ref_ = sphinx_refs_->tree;
      // Split one CN cache budget across the three tiers: by default the
      // filter keeps 45%, the prefix entry cache takes 25%, the leaf
      // address cache takes 25%, and ~5% stays reserved for the INHT
      // directory caches (the paper sizes those at 2-5% of the filter
      // budget). Each cache's slice returns to the filter when that tier
      // is disabled, so --lac-budget=0 reproduces the pre-LAC 70/25 split
      // (and adding --pec-budget=0 the seed's 95%) bit for bit.
      const uint64_t pec_bytes = pec_budget_bytes == kAutoTierBudget
                                     ? cache_budget_bytes * 25 / 100
                                     : pec_budget_bytes;
      const uint64_t lac_bytes = lac_budget_bytes == kAutoTierBudget
                                     ? cache_budget_bytes * 25 / 100
                                     : lac_budget_bytes;
      const uint64_t filter_share =
          95 - (pec_bytes > 0 ? 25 : 0) - (lac_bytes > 0 ? 25 : 0);
      const uint64_t filter_bytes = cache_budget_bytes * filter_share / 100;
      for (uint32_t cn = 0; cn < num_cns; ++cn) {
        filters_.push_back(filter::CuckooFilter::with_budget(filter_bytes));
        if (pec_bytes > 0) {
          pecs_.push_back(filter::LocationCache::with_budget(pec_bytes));
        }
        if (lac_bytes > 0) {
          lacs_.push_back(filter::LocationCache::with_budget(lac_bytes));
        }
      }
      break;
    }
    case SystemKind::kSphinxNoFilter: {
      sphinx_refs_ = std::make_unique<core::SphinxRefs>(
          core::create_sphinx(cluster));
      tree_ref_ = sphinx_refs_->tree;
      // Auto means "pure INHT" here (the A1 ablation baseline); an explicit
      // budget yields the PEC-only (or PEC+LAC) variant of the ablation.
      const uint64_t pec_bytes =
          pec_budget_bytes == kAutoTierBudget ? 0 : pec_budget_bytes;
      const uint64_t lac_bytes =
          lac_budget_bytes == kAutoTierBudget ? 0 : lac_budget_bytes;
      for (uint32_t cn = 0; cn < num_cns && pec_bytes > 0; ++cn) {
        pecs_.push_back(filter::LocationCache::with_budget(pec_bytes));
      }
      for (uint32_t cn = 0; cn < num_cns && lac_bytes > 0; ++cn) {
        lacs_.push_back(filter::LocationCache::with_budget(lac_bytes));
      }
      break;
    }
    case SystemKind::kSmart:
    case SystemKind::kSmartC:
      tree_ref_ = art::create_tree(cluster);
      for (uint32_t cn = 0; cn < num_cns; ++cn) {
        caches_.push_back(
            std::make_unique<smart::NodeCache>(cache_budget_bytes));
      }
      break;
    case SystemKind::kArt:
      tree_ref_ = art::create_tree(cluster);
      break;
    case SystemKind::kBpTree:
      bptree_ref_ = bptree::create_bptree(cluster);
      break;
  }
}

// Pipelining honesty note: only Sphinx overrides KvIndex::execute_batch
// (cross-op doorbell fusion of the LAC fast path). SMART, SMART+C, ART and
// the B+ tree deliberately keep the inherited naive serial loop -- one op
// at a time, zero overlap -- so --pipeline-depth > 1 changes *their*
// numbers only through batch-boundary effects (none on the virtual clock),
// and the 4-system comparison measures Sphinx's pipelined client against
// unpipelined baselines explicitly, not against accidental stubs.
std::unique_ptr<KvIndex> SystemSetup::make_client(
    uint32_t cn, rdma::Endpoint& endpoint, mem::RemoteAllocator& allocator) {
  switch (kind_) {
    case SystemKind::kSphinx:
    case SystemKind::kSphinxNoFilter: {
      // A tier this setup did not build is nullptr, which skips it (the
      // NoFilter kind builds no filter).
      core::SphinxConfig config;
      config.tree.scan_jump = scan_jump_;
      config.tree.replicate_root = root_replicas_;
      return std::make_unique<core::SphinxIndex>(
          cluster_, endpoint, allocator, *sphinx_refs_, filter(cn), pec(cn),
          lac(cn), config);
    }
    case SystemKind::kSmart:
    case SystemKind::kSmartC:
      return std::make_unique<smart::SmartIndex>(
          cluster_, endpoint, allocator, tree_ref_, *caches_[cn],
          kind_ == SystemKind::kSmartC ? "SMART+C" : "SMART");
    case SystemKind::kArt: {
      art::TreeConfig config = art::ArtIndex::baseline_config();
      config.replicate_root = root_replicas_;
      return std::make_unique<art::ArtIndex>(cluster_, endpoint, allocator,
                                             tree_ref_, config);
    }
    case SystemKind::kBpTree:
      return std::make_unique<bptree::BpTreeIndex>(cluster_, endpoint,
                                                   allocator, bptree_ref_);
  }
  return nullptr;
}

IndexFactory SystemSetup::factory() {
  return [this](uint32_t worker_id, uint32_t cn, rdma::Endpoint& endpoint,
                mem::RemoteAllocator& allocator) {
    (void)worker_id;
    return make_client(cn, endpoint, allocator);
  };
}

uint64_t SystemSetup::cn_cache_bytes(uint32_t cn) const {
  uint64_t total = 0;
  if (cn < filters_.size() && filters_[cn]) {
    total += filters_[cn]->memory_bytes();
  }
  if (cn < pecs_.size() && pecs_[cn]) {
    total += pecs_[cn]->memory_bytes();
  }
  if (cn < lacs_.size() && lacs_[cn]) {
    total += lacs_[cn]->memory_bytes();
  }
  if (cn < caches_.size() && caches_[cn]) {
    total += caches_[cn]->bytes_used();
  }
  return total;
}

}  // namespace sphinx::ycsb
