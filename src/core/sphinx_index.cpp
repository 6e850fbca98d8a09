#include "core/sphinx_index.h"

#include <algorithm>
#include <cassert>

namespace sphinx::core {

SphinxRefs create_sphinx(mem::Cluster& cluster, uint8_t inht_initial_depth) {
  SphinxRefs refs;
  refs.tree = art::create_tree(cluster);
  refs.inht = create_inht(cluster, inht_initial_depth);
  return refs;
}

SphinxIndex::SphinxIndex(mem::Cluster& cluster, rdma::Endpoint& endpoint,
                         mem::RemoteAllocator& allocator,
                         const SphinxRefs& refs, filter::CuckooFilter* filter,
                         filter::LocationCache* pec,
                         filter::LocationCache* lac,
                         const SphinxConfig& config)
    : RemoteTree(cluster, endpoint, allocator, refs.tree, config.tree),
      inht_(cluster, endpoint, allocator, refs.inht),
      filter_(filter),
      pec_(pec),
      lac_(lac),
      config_(config) {}

bool SphinxIndex::search(Slice key, std::string* value_out) {
  // The speculative leaf read dereferences a cached remote address with no
  // descent backing it; the epoch pin keeps any concurrently retired leaf
  // out of the recycler until this op quiesces.
  mem::EpochPin epoch(allocator_);
  BatchOp op;
  op.key = key;
  op.value_out = value_out;
  run_reads(&op, 1);
  if (!op.done) retry_serially(op, reads_[0]);
  return op.ok;
}

void SphinxIndex::execute_batch(BatchOp* ops, size_t count) {
  sstats_.batch_ops += count;
  // One pin brackets the whole batch: quiescence is announced at batch
  // boundaries (per-op pins inside the serial pass nest and collapse), so
  // the cross-op fused reads can never chase a block that was recycled
  // mid-batch.
  mem::EpochPin epoch(allocator_);
  sstats_.batch_fused_rounds += run_reads(ops, count);
  for (size_t i = 0; i < count; ++i) {
    if (ops[i].done) sstats_.batch_fused_ops++;
  }
  // Stage 4 (serial, batch order): mutations, and searches whose first
  // attempt hit an anomaly resume the serial retry loop at attempt 1.
  for (size_t i = 0; i < count; ++i) {
    BatchOp& op = ops[i];
    if (op.done) continue;
    sstats_.batch_serial_ops++;
    if (op.kind == BatchOp::Kind::kSearch) {
      retry_serially(op, reads_[i]);
    } else {
      execute_one(op);
    }
  }
}

void SphinxIndex::retry_serially(BatchOp& op, const PointRead& r) {
  finish_op(op, search_retry(*r.key, op.value_out, 1, r.allow_custom));
}

void SphinxIndex::finish_op(BatchOp& op, bool ok) {
  op.ok = ok;
  op.done = true;
  op.done_clock_ns = endpoint_.clock_ns();
}

size_t SphinxIndex::run_reads(BatchOp* ops, size_t count) {
  if (reads_.size() < count) reads_.resize(count);
  size_t rounds = 0;

  // Stage 1 (local, zero round trips): probe the LAC for every search op
  // in batch order.
  bool any_hit = false;
  for (size_t i = 0; i < count; ++i) {
    PointRead& r = reads_[i];
    r.stage = PointRead::Stage::kIdle;
    r.lac_hit = false;
    if (ops[i].kind != BatchOp::Kind::kSearch) continue;
    r.stage = PointRead::Stage::kStart;
    r.key.emplace(ops[i].key);
    r.allow_custom = true;
    r.pending = false;
    probe_lac(r);
    any_hit |= r.lac_hit;
  }

  // Stage 2: ONE doorbell round trip carrying every hit's speculative leaf
  // read plus the cold hits' fused inner reads. The whole round is
  // LAC-attributed (phases charge per round trip, not per verb or per op;
  // rdma/phase.h), so per-phase sums stay exactly equal to totals.
  if (any_hit) {
    rdma::DoorbellBatch batch(endpoint_);
    for (size_t i = 0; i < count; ++i) {
      PointRead& r = reads_[i];
      if (!r.lac_hit) continue;
      batch.add_read(r.leaf_addr, r.walk.leaf.buf().data(),
                     r.units * art::kLeafUnitBytes);
      if (r.hedge_len > 0) {
        const art::NodeType ftype = inht_payload_type(r.hedge_payload);
        batch.add_read(inht_payload_addr(r.hedge_payload),
                       r.walk.path[0].image.raw(),
                       art::inner_node_bytes(ftype));
      }
    }
    rounds++;
    rdma::PhaseScope lac_scope(endpoint_, rdma::Phase::kLacFusedRead);
    batch.execute();
  }
  for (size_t i = 0; i < count; ++i) {
    if (reads_[i].lac_hit) finish_lac(reads_[i], ops[i]);
  }

  // Stage 3: misses and stale hits plan their local work only now, after
  // the hit round, so the hits above completed at the same virtual time as
  // without any misses in the batch. Then lock-step rounds: each posts
  // every op's next read in one doorbell batch.
  for (size_t i = 0; i < count; ++i) {
    if (reads_[i].stage == PointRead::Stage::kStart) {
      begin_point_read(reads_[i], ops[i]);
    }
  }
  for (;;) {
    rdma::DoorbellBatch batch(endpoint_);
    rdma::Phase phase = rdma::Phase::kUnattributed;
    for (size_t i = 0; i < count; ++i) {
      PointRead& r = reads_[i];
      if (!r.awaiting()) continue;
      const rdma::Phase p = r.stage == PointRead::Stage::kStart
                                ? plan_start_read(r.start, batch)
                                : plan_descent_read(r.walk, batch);
      // A shared round is one round trip: it is charged whole to the phase
      // of its first read in batch order, never split across ops.
      if (phase == rdma::Phase::kUnattributed) phase = p;
    }
    if (batch.empty()) break;
    rounds++;
    {
      rdma::PhaseScope scope(endpoint_, phase);
      batch.execute();
    }
    for (size_t i = 0; i < count; ++i) {
      PointRead& r = reads_[i];
      if (!r.awaiting()) continue;
      if (r.stage == PointRead::Stage::kStart) {
        start_resolve(r.start);
        if (r.start.await == StartCursor::Await::kNone) {
          start_done(r, ops[i], r.start.found);
        }
      } else {
        descend_step(*r.key, r.walk);
        if (r.walk.await == Await::kNone) walk_done(r, ops[i]);
      }
    }
  }
  return rounds;
}

void SphinxIndex::probe_lac(PointRead& r) {
  r.hedge_len = 0;
  if (lac_ == nullptr) return;
  const art::TerminatedKey& tkey = *r.key;
  r.full_hash = tkey.hash_of_prefix(tkey.size());
  endpoint_.advance_local(config_.lac_probe_ns);
  uint64_t payload = 0;
  r.hot = false;
  if (!lac_->lookup(r.full_hash, &payload, &r.hot)) return;
  sstats_.lac_hits++;
  r.lac_hit = true;
  r.units = filter::lac_payload_units(payload);
  r.leaf_addr = rdma::GlobalAddr::from48(filter::lac_payload_addr48(payload));
  reset_descent(r.walk);
  r.walk.path.emplace_back();
  r.walk.leaf.resize(r.units);
  if (r.hot || pec_ == nullptr) return;

  // Cold (low-confidence) hits hedge: find the deepest PEC-hinted inner
  // node for this key *locally* (no round trips) so its read can ride the
  // same doorbell as the speculative leaf read. If the leaf turns out
  // stale, the fallback descent's start node is already in hand -- the
  // rescue costs zero extra round trips, mirroring the PEC's cold-hit
  // fusion with the INHT group read.
  const uint32_t max_len = tkey.size() - 1;
  hash_scratch_.resize(max_len + 1);
  for (uint32_t l = 1; l <= max_len; ++l) {
    hash_scratch_[l] = tkey.hash_of_prefix(l);
  }
  endpoint_.advance_local(config_.prefix_hash_ns * max_len);
  for (uint32_t l = max_len; l >= 1; --l) {
    if (filter_ != nullptr) {
      endpoint_.advance_local(config_.filter_probe_ns);
      if (!filter_->contains(hash_scratch_[l])) continue;
    }
    endpoint_.advance_local(config_.pec_probe_ns);
    uint64_t p = 0;
    bool inner_hot = false;
    if (!pec_->lookup(hash_scratch_[l], &p, &inner_hot)) continue;
    sstats_.pec_hits++;
    r.hedge_len = l;
    r.hedge_hash = hash_scratch_[l];
    r.hedge_payload = p;
    return;
  }
}

void SphinxIndex::finish_lac(PointRead& r, BatchOp& op) {
  const art::TerminatedKey& tkey = *r.key;
  const art::LeafImage& leaf = r.walk.leaf;
  // Validate the speculative leaf exactly as a descent-found leaf: unit
  // count, CRC, liveness, then the byte-exact key compare that makes wrong
  // answers structurally impossible even for ABA-recycled blocks.
  const bool image_ok =
      leaf.units() == r.units &&
      r.walk.leaf.revalidate() != art::LeafImage::Revalidate::kBad &&
      leaf.status() != art::NodeStatus::kInvalid;
  if (image_ok && leaf.key() == tkey.full()) {
    // Final audit on the exact image being returned. The gate above already
    // established both properties, so a failure here means the fast path
    // itself is broken; the regression gate fails on a nonzero count.
    if (!leaf.checksum_ok() || leaf.key() != tkey.full()) {
      sstats_.lac_wrong_value++;
    } else {
      if (op.value_out != nullptr) {
        op.value_out->assign(leaf.value().data(), leaf.value().size());
      }
      if (!r.hot) sstats_.lac_fused_wins++;
      r.stage = PointRead::Stage::kIdle;
      finish_op(op, true);
      return;
    }
  }

  // Stale binding: the key moved (delete, delete+reinsert, out-of-place
  // update), the slot's 9-bit tag matched another key's entry, or the leaf
  // image was torn. Purge it -- keyed on the address so a concurrent
  // refresh survives -- and fall back to the full search, which repopulates
  // the cache on success (staleness self-heals).
  sstats_.lac_stale++;
  lac_->invalidate_if(r.full_hash, r.leaf_addr.to48());
  if (r.hedge_len == 0) return;
  const art::NodeType ftype = inht_payload_type(r.hedge_payload);
  const rdma::GlobalAddr faddr = inht_payload_addr(r.hedge_payload);
  if (validate_start(r.hedge_len, r.hedge_hash, ftype, faddr,
                     &r.walk.path[0])) {
    // The fused inner read validated: the fallback descent starts there,
    // so the rescue spends no extra round trip.
    r.pending = true;
    sstats_.lac_fused_losses++;
  } else {
    sstats_.pec_stale++;
    pec_->invalidate_if(r.hedge_hash, faddr.to48());
  }
}

void SphinxIndex::begin_point_read(PointRead& r, BatchOp& op) {
  // A pending start node already sits validated in walk.path[0].
  if (!r.pending) {
    reset_descent(r.walk);
    r.walk.path.emplace_back();
    start_begin(r.start, *r.key, r.key->size() - 1, &r.walk.path[0]);
    if (r.start.await != StartCursor::Await::kNone) return;
  }
  start_done(r, op, r.pending || r.start.found);
}

void SphinxIndex::start_done(PointRead& r, BatchOp& op, bool found) {
  r.stage = PointRead::Stage::kWalk;
  if (found) {
    sstats_.start_successes++;
    r.walk.from_custom_start = true;
    descend_step(*r.key, r.walk);
    if (r.walk.await == Await::kNone) walk_done(r, op);
  } else {
    sstats_.root_fallbacks++;
    enter_root(r.walk, /*allow_replica_root=*/true);
  }
}

void SphinxIndex::walk_done(PointRead& r, BatchOp& op) {
  switch (search_verdict(r.walk, 0, &r.allow_custom, op.value_out)) {
    case SearchVerdict::kHit:
      r.stage = PointRead::Stage::kIdle;
      finish_op(op, true);
      return;
    case SearchVerdict::kMiss:
      r.stage = PointRead::Stage::kIdle;
      finish_op(op, false);
      return;
    case SearchVerdict::kRetry:
      r.stage = PointRead::Stage::kRetry;
      return;
  }
}

bool SphinxIndex::validate_start(uint32_t len, uint64_t hash,
                                 art::NodeType type, rdma::GlobalAddr addr,
                                 PathEntry* out) {
  // Verify the fetched node against the entry's metadata and the full
  // prefix hash stored in its header. (The paper uses a 12-bit fp2 plus a
  // 42-bit header hash; the node header here carries the full 64-bit
  // prefix hash, so surviving collisions are negligible and the leaf-level
  // common-prefix check in RemoteTree remains the last line of defense.)
  if (out->image.status() == art::NodeStatus::kInvalid) return false;
  if (out->image.type() != type) return false;
  if (out->image.depth() != len) return false;
  if (out->image.prefix_hash_full() != hash) return false;
  out->addr = addr;
  out->parent_depth = len;  // empty fragment window: prefix hash-verified
  out->taken_slot = -1;
  out->taken_word = 0;
  return true;
}

// ---- start search cursor ----------------------------------------------------

void SphinxIndex::start_begin(StartCursor& c, const art::TerminatedKey& key,
                              uint32_t max_len, PathEntry* out) {
  c.out = out;
  c.max_len = max_len;
  c.found = false;
  c.await = StartCursor::Await::kNone;
  if (max_len < 1) return;  // only the root can be an ancestor

  // Hash every candidate prefix locally (lengths 1 .. max_len).
  c.hashes.resize(max_len + 1);
  for (uint32_t l = 1; l <= max_len; ++l) {
    c.hashes[l] = key.hash_of_prefix(l);
  }
  endpoint_.advance_local(config_.prefix_hash_ns * max_len);
  c.mode = filter_ != nullptr ? StartCursor::Mode::kFilter
           : pec_ != nullptr  ? StartCursor::Mode::kPecOnly
                              : StartCursor::Mode::kParallel;
  c.len = max_len + 1;
  start_advance(c);
}

void SphinxIndex::start_advance(StartCursor& c) {
  while (c.mode != StartCursor::Mode::kParallel) {
    if (--c.len < 1) {
      c.mode = StartCursor::Mode::kParallel;
      break;
    }
    if (c.mode == StartCursor::Mode::kFilter) {
      // Longest prefix present in the succinct filter cache -> PEC probe,
      // then at most one hash-entry read (Sec. III-B).
      endpoint_.advance_local(config_.filter_probe_ns);
      if (!filter_->contains(c.hashes[c.len])) continue;
      sstats_.filter_hits++;
      if (plan_try_at(c, /*inht_on_miss=*/true)) return;
    } else if (plan_try_at(c, /*inht_on_miss=*/false)) {
      // PEC-only ablation (no filter): the entry cache doubles as the
      // existence hint. Misses cost nothing remotely; the parallel INHT
      // read below stays the backstop.
      return;
    }
  }
  // Parallel INHT read: the hash entries of all prefixes in one
  // doorbell-batched round trip (Sec. III-A).
  sstats_.parallel_fallbacks++;
  c.groups.resize(c.max_len + 1);
  c.await = StartCursor::Await::kGroups;
}

bool SphinxIndex::plan_try_at(StartCursor& c, bool inht_on_miss) {
  if (pec_ != nullptr) {
    endpoint_.advance_local(config_.pec_probe_ns);
    uint64_t payload = 0;
    bool hot = false;
    if (pec_->lookup(c.hashes[c.len], &payload, &hot)) {
      sstats_.pec_hits++;
      c.type = inht_payload_type(payload);
      c.addr = inht_payload_addr(payload);
      // High confidence: one speculative node read (the 2-RTT search).
      // Low confidence (cold entry): hedge by fusing the node read with
      // the INHT group read, so a stale entry already has the group in
      // hand and recovery costs zero extra round trips.
      c.await = hot ? StartCursor::Await::kPecNode
                    : StartCursor::Await::kPecFused;
      return true;
    }
  }
  if (!inht_on_miss) return false;
  plan_inht(c);
  return true;
}

void SphinxIndex::plan_inht(StartCursor& c) {
  // Single-prefix INHT lookup: one round trip (Sec. III-B).
  const uint64_t hash = c.hashes[c.len];
  inht_.client_for(hash).begin_search(c.inht, hash);
  c.payloads.clear();
  c.next_payload = 0;
  c.await = StartCursor::Await::kInht;
}

rdma::Phase SphinxIndex::plan_start_read(StartCursor& c,
                                         rdma::DoorbellBatch& batch) {
  switch (c.await) {
    case StartCursor::Await::kPecNode:
      batch.add_read(c.addr, c.out->image.raw(), art::inner_node_bytes(c.type));
      return rdma::Phase::kPecValidate;
    case StartCursor::Await::kPecFused: {
      // The fused speculative read is PEC-driven even though it piggybacks
      // an INHT group read; the whole doorbell is one round trip and phases
      // attribute per round trip, not per verb.
      const race::RaceClient::Probe probe = inht_.plan_probe(c.hashes[c.len]);
      batch.add_read(c.addr, c.out->image.raw(), art::inner_node_bytes(c.type));
      batch.add_read(probe.group_addr, c.fused_group.data(), race::kGroupBytes);
      return rdma::Phase::kPecValidate;
    }
    case StartCursor::Await::kInht:
      inht_.client_for(c.inht.hash).plan_search(c.inht, batch);
      return rdma::Phase::kInhtRead;
    case StartCursor::Await::kCandidate:
      batch.add_read(c.addr, c.out->image.raw(), art::inner_node_bytes(c.type));
      return rdma::Phase::kInnerRead;
    case StartCursor::Await::kGroups:
      for (uint32_t l = 1; l <= c.max_len; ++l) {
        const race::RaceClient::Probe probe = inht_.plan_probe(c.hashes[l]);
        batch.add_read(probe.group_addr, c.groups[l].data(),
                       race::kGroupBytes);
      }
      return rdma::Phase::kInhtRead;
    case StartCursor::Await::kNone:
      break;
  }
  assert(false && "start cursor has no read to plan");
  return rdma::Phase::kUnattributed;
}

void SphinxIndex::start_resolve(StartCursor& c) {
  const StartCursor::Await arrived = c.await;
  c.await = StartCursor::Await::kNone;
  switch (arrived) {
    case StartCursor::Await::kPecNode: {
      const uint64_t hash = c.hashes[c.len];
      if (validate_start(c.len, hash, c.type, c.addr, c.out)) {
        c.found = true;
        return;
      }
      sstats_.pec_stale++;
      pec_->invalidate_if(hash, c.addr.to48());
      plan_inht(c);  // the prefix existed recently; re-resolve it
      return;
    }
    case StartCursor::Await::kPecFused: {
      const uint64_t hash = c.hashes[c.len];
      if (validate_start(c.len, hash, c.type, c.addr, c.out)) {
        sstats_.speculative_wins++;
        c.found = true;
        return;
      }
      sstats_.speculative_losses++;
      sstats_.pec_stale++;
      pec_->invalidate_if(hash, c.addr.to48());
      c.payloads.clear();
      c.next_payload = 0;
      race::RaceClient::match_group(hash, c.fused_group.data(), c.payloads);
      break;
    }
    case StartCursor::Await::kInht:
      if (!inht_.client_for(c.inht.hash).finish_search(c.inht, c.payloads)) {
        c.await = StartCursor::Await::kInht;  // segment moved: probe again
        return;
      }
      break;
    case StartCursor::Await::kCandidate: {
      const uint64_t hash = c.hashes[c.len];
      if (validate_start(c.len, hash, c.type, c.addr, c.out)) {
        // Cache the verified entry so the next search for this prefix
        // skips the INHT read (the 2-RTT path).
        if (pec_ != nullptr) {
          pec_->insert(hash, pack_inht_payload(c.type, c.addr));
        }
        if (c.mode == StartCursor::Mode::kParallel && filter_ != nullptr) {
          filter_->insert(hash);
        }
        c.found = true;
        return;
      }
      break;
    }
    case StartCursor::Await::kGroups:
      c.len = c.max_len + 1;
      parallel_next(c);
      return;
    case StartCursor::Await::kNone:
      return;
  }
  adopt_next(c);
}

void SphinxIndex::adopt_next(StartCursor& c) {
  if (c.next_payload < c.payloads.size()) {
    // One round trip: fetch the candidate node and verify it.
    const uint64_t payload = c.payloads[c.next_payload++];
    c.type = inht_payload_type(payload);
    c.addr = inht_payload_addr(payload);
    c.await = StartCursor::Await::kCandidate;
    return;
  }
  if (c.mode == StartCursor::Mode::kParallel) {
    parallel_next(c);
    return;
  }
  // False positive (or stale entry): retry with a shorter prefix, as in
  // the paper's false-positive recovery.
  if (c.mode == StartCursor::Mode::kFilter) sstats_.fp_rejects++;
  start_advance(c);
}

void SphinxIndex::parallel_next(StartCursor& c) {
  while (--c.len >= 1) {
    c.payloads.clear();
    race::RaceClient::match_group(c.hashes[c.len], c.groups[c.len].data(),
                                  c.payloads);
    if (c.payloads.empty()) continue;
    c.next_payload = 0;
    adopt_next(c);
    return;
  }
}

bool SphinxIndex::start_search(const art::TerminatedKey& key,
                               uint32_t max_len, PathEntry* out) {
  StartCursor& c = start_cursor_;
  start_begin(c, key, max_len, out);
  while (c.await != StartCursor::Await::kNone) {
    rdma::DoorbellBatch batch(endpoint_);
    const rdma::Phase phase = plan_start_read(c, batch);
    {
      rdma::PhaseScope scope(endpoint_, phase);
      batch.execute();
    }
    start_resolve(c);
  }
  return c.found;
}

bool SphinxIndex::find_start(const art::TerminatedKey& key, PathEntry* out) {
  if (!start_search(key, key.size() - 1, out)) {
    sstats_.root_fallbacks++;
    return false;
  }
  sstats_.start_successes++;
  return true;
}

bool SphinxIndex::find_scan_start(const art::TerminatedKey& key,
                                  uint32_t max_depth, PathEntry* out) {
  const uint32_t cap = std::min<uint32_t>(max_depth, key.size() - 1);
  if (!start_search(key, cap, out)) {
    sstats_.scan_root_fallbacks++;
    return false;
  }
  sstats_.scan_start_successes++;
  return true;
}

}  // namespace sphinx::core
