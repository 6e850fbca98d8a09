// SphinxIndex: the paper's hybrid index. An adaptive radix tree on
// disaggregated memory whose inner nodes are additionally indexed by the
// Inner Node Hash Table (Sec. III-A), fronted on each compute node by a
// Succinct Filter Cache (Sec. III-B) and a Prefix Entry Cache.
//
// Search path (Sec. IV): hash all prefixes of the key locally, find the
// longest prefix present in the filter cache, read that prefix's hash
// entry (1 RTT), read the inner node it points to (1 RTT), then descend --
// normally straight to the leaf (1 RTT): three round trips end to end.
// The Prefix Entry Cache (an instance of filter/location_cache.h) removes
// the first hop on a hit: it caches the 8-byte hash entry itself, so the
// node read starts immediately and a search costs two round trips. Cached
// entries are hints only -- every fetched node is re-verified (type, depth,
// full 64-bit prefix hash, status), so a stale entry or a 9-bit tag
// collision costs a read, never a wrong answer, and is purged.
// Cold (low-confidence) entries are hedged with speculative doorbell
// fusion: the node read and the INHT group read issue in one batch, so a
// stale entry costs zero extra round trips.
// Filter misses fall back to reading the hash entries of *all* prefixes in
// one doorbell-batched round trip (the Theta(L)-bandwidth base mechanism);
// hash-table misses fall back to a plain root-to-leaf traversal, which also
// repopulates the filter via on_visit_inner().
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "art/remote_tree.h"
#include "common/metrics.h"
#include "core/inht.h"
#include "filter/cuckoo_filter.h"
#include "filter/location_cache.h"

namespace sphinx::core {

struct SphinxConfig {
  // CPU cost model for the CN-local work unique to Sphinx.
  uint64_t filter_probe_ns = 15;
  uint64_t pec_probe_ns = 15;
  uint64_t lac_probe_ns = 15;
  uint64_t prefix_hash_ns = 25;
  art::TreeConfig tree;
};

// Shared bootstrap state for one Sphinx instance (tree + per-MN INHT).
struct SphinxRefs {
  art::TreeRef tree;
  std::vector<race::TableRef> inht;
};

SphinxRefs create_sphinx(mem::Cluster& cluster,
                         uint8_t inht_initial_depth = 4);

struct SphinxStats {
  uint64_t filter_hits = 0;        // filter said "present" for some prefix
  uint64_t fp_rejects = 0;         // filter hit not confirmed by INHT/node
  uint64_t start_successes = 0;    // descents started below the root
  uint64_t parallel_fallbacks = 0; // multi-prefix doorbell reads issued
  uint64_t root_fallbacks = 0;     // find_start gave up -> root traversal
  uint64_t inht_update_misses = 0; // type-switch entry CAS lost a race
  uint64_t inht_insert_fails = 0;  // INHT insert gave up (table full / faults)
  uint64_t pec_hits = 0;           // prefix entry cache had a payload
  uint64_t pec_stale = 0;          // cached payload failed node validation
  uint64_t speculative_wins = 0;   // fused cold-hit read validated
  uint64_t speculative_losses = 0; // fused read stale; group rescued the op
  uint64_t scan_start_successes = 0;  // scans entered below the root
  uint64_t scan_root_fallbacks = 0;   // scan entry search failed -> root
  uint64_t lac_hits = 0;         // leaf address cache had a binding
  uint64_t lac_stale = 0;        // cached binding failed leaf validation
  uint64_t lac_fused_wins = 0;   // cold-hit fused leaf read validated
  uint64_t lac_fused_losses = 0; // stale leaf; fused inner seeded fallback
  uint64_t lac_wrong_value = 0;  // 1-RTT return failed final audit (== 0!)
  uint64_t batch_ops = 0;           // point ops entering execute_batch
  uint64_t batch_fused_ops = 0;     // ops finished in the lock-step rounds
  uint64_t batch_fused_rounds = 0;  // lock-step round trips (hit + miss)
  uint64_t batch_serial_ops = 0;    // mutations + anomalous searches

  SphinxStats& operator+=(const SphinxStats& o);
};

// Field registry: merge and JSON emission iterate this table instead of
// hand-rolling per-counter code (see common/metrics.h).
inline constexpr metrics::Field<SphinxStats> kSphinxStatsFields[] = {
    {"filter_hits", &SphinxStats::filter_hits},
    {"fp_rejects", &SphinxStats::fp_rejects},
    {"start_successes", &SphinxStats::start_successes},
    {"parallel_fallbacks", &SphinxStats::parallel_fallbacks},
    {"root_fallbacks", &SphinxStats::root_fallbacks},
    {"inht_update_misses", &SphinxStats::inht_update_misses},
    {"inht_insert_fails", &SphinxStats::inht_insert_fails},
    {"pec_hits", &SphinxStats::pec_hits},
    {"pec_stale", &SphinxStats::pec_stale},
    {"speculative_wins", &SphinxStats::speculative_wins},
    {"speculative_losses", &SphinxStats::speculative_losses},
    {"scan_start_successes", &SphinxStats::scan_start_successes},
    {"scan_root_fallbacks", &SphinxStats::scan_root_fallbacks},
    {"lac_hits", &SphinxStats::lac_hits},
    {"lac_stale", &SphinxStats::lac_stale},
    {"lac_fused_wins", &SphinxStats::lac_fused_wins},
    {"lac_fused_losses", &SphinxStats::lac_fused_losses},
    {"lac_wrong_value", &SphinxStats::lac_wrong_value},
    {"batch_ops", &SphinxStats::batch_ops},
    {"batch_fused_ops", &SphinxStats::batch_fused_ops},
    {"batch_fused_rounds", &SphinxStats::batch_fused_rounds},
    {"batch_serial_ops", &SphinxStats::batch_serial_ops},
};

inline SphinxStats& SphinxStats::operator+=(const SphinxStats& o) {
  metrics::add(*this, o, kSphinxStatsFields);
  return *this;
}

class SphinxIndex final : public art::RemoteTree {
 public:
  // `filter` is the CN-wide succinct filter cache shared by every worker of
  // this compute node; pass nullptr to run INHT-only (ablation A1, every
  // operation uses the parallel multi-entry INHT read). `pec` is the
  // CN-wide prefix entry cache and `lac` the CN-wide leaf address cache:
  // two location caches, same sharing, each optional (nullptr skips the
  // tier).
  SphinxIndex(mem::Cluster& cluster, rdma::Endpoint& endpoint,
              mem::RemoteAllocator& allocator, const SphinxRefs& refs,
              filter::CuckooFilter* filter,
              filter::LocationCache* pec = nullptr,
              filter::LocationCache* lac = nullptr,
              const SphinxConfig& config = SphinxConfig());

  const char* name() const override { return "Sphinx"; }

  // Point read: a batch of one through the same cursor execute_batch runs
  // (see there). With no LAC installed this issues exactly
  // RemoteTree::search's verbs.
  bool search(Slice key, std::string* value_out) override;

  // Pipelined multi-op execution. Every search op runs one resumable point
  // read, and all of them advance in lock-step rounds:
  //   1. probe: the LAC is probed locally for every search (cold hits also
  //      plan a PEC-hinted fallback inner read);
  //   2. hit round: ALL hits' speculative leaf reads, plus the cold hits'
  //      fused inner reads, in ONE doorbell round trip; each leaf is then
  //      validated (unit count, CRC, liveness, byte-exact key compare,
  //      lac_wrong_value audit). K warm hits cost 1 RTT instead of K;
  //   3. miss rounds: misses and stale hits plan their start-node search
  //      (prefix hashing, SFC/PEC probes) only now, so hits complete at
  //      the same virtual time; then every round posts each op's next
  //      read -- INHT entry, start node, inner node or leaf -- in ONE
  //      doorbell batch, charged whole to the phase of its first read.
  //      A stale hit whose fused inner read validated starts there;
  //   4. serial pass, in batch order: mutations, and searches that hit an
  //      anomaly (torn or invalid node, a miss that must be re-checked
  //      from the root, exhausted budget) resume RemoteTree's serial retry
  //      loop at attempt 1.
  void execute_batch(BatchOp* ops, size_t count) override;

  const SphinxStats& sphinx_stats() const { return sstats_; }
  InhtClient& inht() { return inht_; }
  filter::CuckooFilter* filter() { return filter_; }
  filter::LocationCache* pec() { return pec_; }
  filter::LocationCache* lac() { return lac_; }

 protected:
  bool find_start(const art::TerminatedKey& key, PathEntry* out) override;

  // Scan entry: same SFC -> PEC/INHT machinery, but capped at `max_depth`
  // so the entry node's subtree covers the whole scan window (Sec. IV
  // applied to range starts).
  bool find_scan_start(const art::TerminatedKey& key, uint32_t max_depth,
                       PathEntry* out) override;

  // Every inner node a scan frontier expands is a freshly verified
  // (prefix, node) binding: feed both CN cache tiers, so scans warm the
  // same state point descents rely on. Mirrors on_visit_inner plus the PEC
  // refresh from on_inner_switched.
  void on_scan_inner(rdma::GlobalAddr addr,
                     const art::InnerImage& image) override {
    if (filter_ != nullptr) {
      endpoint_.advance_local(config_.filter_probe_ns);
      filter_->insert(image.prefix_hash_full());
    }
    if (pec_ != nullptr) {
      endpoint_.advance_local(config_.pec_probe_ns);
      pec_->insert(image.prefix_hash_full(),
                   pack_inht_payload(image.type(), addr));
    }
  }

  void on_visit_inner(const art::TerminatedKey& key,
                      const PathEntry& entry) override {
    (void)key;
    // Track every inner-node prefix we learn about (Sec. IV, Search:
    // "the client updates the succinct filter cache for any prefixes not
    // present in the cache").
    if (filter_ != nullptr && entry.image.depth() > 0) {
      endpoint_.advance_local(config_.filter_probe_ns);
      filter_->insert(entry.image.prefix_hash_full());
    }
  }

  void on_inner_created(Slice full_prefix, const art::InnerImage& image,
                        rdma::GlobalAddr addr) override {
    (void)full_prefix;
    // A failed insert (table full, or injected CAS losses exhausting the
    // retry budget) is tolerable: searches fall back to the parallel-read /
    // root path, and on_inner_switched re-inserts the entry later.
    if (!inht_.insert(image.prefix_hash_full(), image.type(), addr)) {
      sstats_.inht_insert_fails++;
    }
    if (filter_ != nullptr) filter_->insert(image.prefix_hash_full());
    if (pec_ != nullptr) {
      pec_->insert(image.prefix_hash_full(),
                   pack_inht_payload(image.type(), addr));
    }
  }

  void on_inner_switched(const art::InnerImage& old_image,
                         rdma::GlobalAddr old_addr,
                         const art::InnerImage& new_image,
                         rdma::GlobalAddr new_addr) override {
    const uint64_t hash = new_image.prefix_hash_full();
    if (!inht_.update(hash, old_image.type(), old_addr, new_image.type(),
                      new_addr)) {
      // The entry vanished (e.g. its insert lost a race earlier); make the
      // table eventually consistent by inserting the fresh payload.
      sstats_.inht_update_misses++;
      inht_.insert(hash, new_image.type(), new_addr);
    }
    // The filter is untouched: the node's full prefix -- the only thing the
    // filter tracks -- is unchanged by a type switch (Sec. III-B). The PEC
    // caches the *entry*, which did change: refresh it in place so this
    // CN's next search for the prefix goes straight to the new node.
    if (pec_ != nullptr) {
      pec_->insert(hash, pack_inht_payload(new_image.type(), new_addr));
    }
  }

  // A node observed stale with its image in hand: purge the PEC entry for
  // its prefix, but only if it still names this address (a concurrent
  // refresh with the successor node's address must survive).
  void invalidate_inner(rdma::GlobalAddr addr,
                        const art::InnerImage& image) override {
    if (pec_ != nullptr) {
      pec_->invalidate_if(image.prefix_hash_full(), addr.to48());
    }
  }

  // A freshly verified key -> leaf binding (point read, write-side leaf
  // install, scan emit): feed the leaf address cache. The full terminated
  // key hashes with the same prefix_hash the leaf's MN placement uses.
  void note_leaf_at(Slice terminated_key, rdma::GlobalAddr addr,
                    uint32_t units) override {
    if (lac_ == nullptr) return;
    endpoint_.advance_local(config_.lac_probe_ns);
    lac_->insert(art::prefix_hash(terminated_key),
                 filter::pack_lac_payload(units, addr.to48()));
  }

  // The key's leaf was retired at the delete's linearization point: purge
  // the binding, but only if it still names this address (a concurrent
  // reinsert's refresh with the new leaf address must survive).
  void note_leaf_retired(Slice terminated_key,
                         rdma::GlobalAddr addr) override {
    if (lac_ == nullptr) return;
    endpoint_.advance_local(config_.lac_probe_ns);
    lac_->invalidate_if(art::prefix_hash(terminated_key), addr.to48());
  }

 private:
  // ---- resumable start search ---------------------------------------------
  // The SFC -> PEC/INHT search for a descent's start node as a cursor, so
  // one op's search can share round trips with other ops' reads. Local
  // work (prefix hashing, filter and PEC probes) runs eagerly up to the
  // next remote read; plan_start_read() posts that read, start_resolve()
  // consumes it. A filter false positive moves on to the next shorter
  // prefix inside the same cursor.
  struct StartCursor {
    enum class Mode : uint8_t {
      kFilter,    // longest filter hit first, then shorter ones
      kPecOnly,   // no filter: the PEC doubles as the existence hint
      kParallel,  // every prefix's INHT group in one round trip
    };
    enum class Await : uint8_t {
      kNone,       // finished: `found` holds the outcome
      kPecNode,    // hot PEC hit: the claimed node
      kPecFused,   // cold PEC hit: the claimed node + the INHT group
      kInht,       // INHT entry of prefix `len`
      kCandidate,  // node named by payloads[next_payload - 1]
      kGroups,     // INHT groups of every prefix (Mode::kParallel)
    };
    PathEntry* out = nullptr;  // node reads land in out->image
    uint32_t max_len = 0;
    uint32_t len = 0;  // prefix length being tried
    Mode mode = Mode::kParallel;
    Await await = Await::kNone;
    bool found = false;
    art::NodeType type = art::NodeType::kN4;  // node claimed at `addr`
    rdma::GlobalAddr addr;
    std::vector<uint64_t> hashes;  // prefix hashes, [1 .. max_len]
    std::vector<uint64_t> payloads;  // INHT candidates for prefix `len`
    size_t next_payload = 0;
    race::RaceClient::SearchRead inht;
    std::array<uint64_t, race::kSlotsPerGroup> fused_group{};
    std::vector<std::array<uint64_t, race::kSlotsPerGroup>> groups;
  };

  // Starts a search for the longest verified prefix of `key` no longer
  // than `max_len`, with node reads landing in *out. Bumps the shared path
  // counters (filter/PEC/parallel) but not the outcome counters -- those
  // belong to the callers.
  void start_begin(StartCursor& c, const art::TerminatedKey& key,
                   uint32_t max_len, PathEntry* out);
  rdma::Phase plan_start_read(StartCursor& c, rdma::DoorbellBatch& batch);
  void start_resolve(StartCursor& c);
  // Local work from the current prefix length down to the next read.
  void start_advance(StartCursor& c);
  // PEC probe for prefix c.len; plans the node read on a hit, else the
  // INHT read when `inht_on_miss`. Returns whether a read was planned.
  bool plan_try_at(StartCursor& c, bool inht_on_miss);
  void plan_inht(StartCursor& c);
  // Plans the next INHT candidate's node read, or moves on once prefix
  // c.len has none left.
  void adopt_next(StartCursor& c);
  // Mode::kParallel: the next shorter prefix whose group has candidates.
  void parallel_next(StartCursor& c);
  // Drives one start cursor synchronously (find_start/find_scan_start).
  bool start_search(const art::TerminatedKey& key, uint32_t max_len,
                    PathEntry* out);

  // Validates the node freshly fetched into out->image against what the
  // hash entry (or PEC) claimed, completing *out on success.
  bool validate_start(uint32_t len, uint64_t hash, art::NodeType type,
                      rdma::GlobalAddr addr, PathEntry* out);

  // ---- resumable point read ------------------------------------------------
  // One search op's cursor: LAC probe -> hit round -> start search (or the
  // stale hit's fused inner node) -> descent. Reused across batches (grown
  // once to the pipeline depth, never shrunk), so steady state is
  // allocation-free.
  struct PointRead {
    enum class Stage : uint8_t {
      kIdle,   // nothing in flight: not a search, or op.done
      kStart,  // start cursor in flight
      kWalk,   // descent in flight
      kRetry,  // anomaly: the serial retry loop finishes the op
    };
    Stage stage = Stage::kIdle;
    std::optional<art::TerminatedKey> key;
    bool allow_custom = true;  // serial retry state after an anomaly
    // LAC stage.
    bool lac_hit = false;
    bool hot = false;
    bool pending = false;  // stale hit, but the fused inner node validated
    uint64_t full_hash = 0;
    uint32_t units = 0;
    rdma::GlobalAddr leaf_addr;
    uint32_t hedge_len = 0;  // fused inner read's prefix (0 = none)
    uint64_t hedge_hash = 0;
    uint64_t hedge_payload = 0;
    StartCursor start;
    Descent walk;  // the LAC leaf and fused inner node land here too

    // Whether the op waits for a read of the current round.
    bool awaiting() const {
      return (stage == Stage::kStart &&
              start.await != StartCursor::Await::kNone) ||
             (stage == Stage::kWalk && walk.await != Await::kNone);
    }
  };

  // Runs the search ops of ops[0..count) through their point reads in
  // lock-step rounds (stages 1-3 of execute_batch); returns the number of
  // round trips the rounds took. Ops left !done have stage kRetry.
  size_t run_reads(BatchOp* ops, size_t count);
  // Stage 1 for one op: LAC probe and, for a cold hit, the hedge plan.
  void probe_lac(PointRead& r);
  // Validates a hit's speculative leaf; a stale one may leave a validated
  // start node behind (r.pending).
  void finish_lac(PointRead& r, BatchOp& op);
  // Plans a miss's first read (start search, or the pending start node).
  void begin_point_read(PointRead& r, BatchOp& op);
  // The start search is over: walk from the start node (`found`) or from
  // the root.
  void start_done(PointRead& r, BatchOp& op, bool found);
  void walk_done(PointRead& r, BatchOp& op);
  // An anomalous search's serial finish: the retry loop from attempt 1.
  void retry_serially(BatchOp& op, const PointRead& r);
  void finish_op(BatchOp& op, bool ok);

  InhtClient inht_;
  filter::CuckooFilter* filter_;
  filter::LocationCache* pec_;
  filter::LocationCache* lac_;
  SphinxConfig config_;
  SphinxStats sstats_;
  std::vector<uint64_t> hash_scratch_;  // cold LAC hits' prefix hashes
  StartCursor start_cursor_;  // find_start/find_scan_start's cursor
  std::vector<PointRead> reads_;
};

}  // namespace sphinx::core
