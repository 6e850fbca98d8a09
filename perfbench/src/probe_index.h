// The benchmark's view into the index: a KvIndex decorator installed
// through the runner's IndexFactory. It times every call into the index
// (virtual ns from client_clock_ns(); host ns and spans only when tracing),
// keeps the per-op virtual latency samples the exact percentiles come from,
// and checks every result against a per-key oracle built from the call
// results themselves.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/hash.h"
#include "common/kv_index.h"
#include "derive.h"

namespace perfbench {

using sphinx::BatchOp;
using sphinx::KvIndex;
using sphinx::Slice;

// Maps a key to its position in the key pool (open addressing, linear
// probing). Built once; read-only afterwards, so lookups are lock-free.
class KeyTable {
 public:
  explicit KeyTable(const std::vector<std::string>& keys) : keys_(keys) {
    size_t cap = 16;
    while (cap < keys.size() * 2) cap <<= 1;
    mask_ = cap - 1;
    slots_.assign(cap, kEmpty);
    for (uint32_t i = 0; i < keys.size(); ++i) {
      size_t s = hash(keys[i]) & mask_;
      while (slots_[s] != kEmpty) s = (s + 1) & mask_;
      slots_[s] = i;
    }
  }

  // Pool index of `key`, or -1 when it is not a pool key.
  int64_t find(Slice key) const {
    const std::string_view k(key.data(), key.size());
    for (size_t s = hash(k) & mask_;; s = (s + 1) & mask_) {
      const uint32_t idx = slots_[s];
      if (idx == kEmpty) return -1;
      if (keys_[idx] == k) return idx;
    }
  }

 private:
  static constexpr uint32_t kEmpty = UINT32_MAX;
  static uint64_t hash(std::string_view k) {
    return sphinx::xxhash64(k.data(), k.size(), 0x70726f6265ULL);
  }
  const std::vector<std::string>& keys_;
  std::vector<uint32_t> slots_;
  size_t mask_ = 0;
};

// Per-key record of what the index must hold. A change counter (bumped
// when a mutation begins and again when it ends) and the number of
// mutations under way tell a read that overlapped no mutation of its key,
// whose snapshot of the record is then exact. A write that ran alone
// leaves an exact record. Writes of one key that overlap leave its stamp
// unknown (either may have landed last), and its state too unless they
// were updates of a live key; a later write that runs alone settles both.
// Each record has a spin lock held only across these few loads and stores
// (never across the index call), so a begin, an end and a snapshot are
// each atomic with respect to one another.
class Oracle {
 public:
  enum State : uint8_t { kAbsent = 0, kLive = 1, kRemoved = 2 };
  static constexpr uint8_t kStampUnknown = 1;
  static constexpr uint8_t kStateUnknown = 2;

  explicit Oracle(size_t keys) : n_(keys), recs_(new Record[keys]) {}

  size_t size() const { return n_; }
  State state(size_t i) const { return snapshot(i).state; }
  uint64_t stamp(size_t i) const { return snapshot(i).stamp; }
  bool state_known(size_t i) const { return (snapshot(i).unknown & kStateUnknown) == 0; }
  bool stamp_known(size_t i) const { return snapshot(i).unknown == 0; }

  struct ReadWindow {
    uint64_t changes = 0;
    bool idle = false;  // no mutation under way at the start
    State state = kAbsent;
    uint64_t stamp = 0;
    uint8_t unknown = kStateUnknown | kStampUnknown;
  };
  ReadWindow read_begin(size_t i) const { return snapshot(i); }
  // True when `w`'s snapshot held for the whole read.
  bool read_exact(size_t i, const ReadWindow& w) const {
    const Record& r = recs_[i];
    Guard g(r);
    return w.idle && r.inflight == 0 && r.changes == w.changes;
  }

  struct WriteWindow {
    uint64_t begin_changes = 0;
    bool overlapped = true;
    State prior = kAbsent;
    bool prior_known = false;  // `prior` is the key's true state if alone
  };
  WriteWindow write_begin(size_t i) {
    Record& r = recs_[i];
    Guard g(r);
    WriteWindow w;
    w.overlapped = r.inflight != 0;
    w.begin_changes = ++r.changes;
    r.inflight++;
    w.prior = r.state;
    w.prior_known = (r.unknown & kStateUnknown) == 0;
    return w;
  }
  // Ends a mutation. When `applied` (the call changed the key) the record
  // becomes `next` / `stamp`. Returns whether the write ran alone, i.e.
  // whether a known `prior` was exact for it.
  bool write_end(size_t i, const WriteWindow& w, bool applied, State next,
                 uint64_t stamp) {
    Record& r = recs_[i];
    Guard g(r);
    const bool alone = !w.overlapped && r.changes == w.begin_changes;
    if (applied) {
      r.state = next;
      r.stamp = stamp;
    }
    if (alone && applied) {
      r.unknown = 0;
    } else if (!alone) {
      const bool live_update = next == kLive && w.prior == kLive;
      r.unknown |= kStampUnknown | (live_update ? 0 : kStateUnknown);
    }
    r.changes++;
    r.inflight--;
    return alone;
  }

 private:
  struct Record {
    mutable std::atomic_flag busy = ATOMIC_FLAG_INIT;
    uint64_t changes = 0;
    uint64_t stamp = 0;
    uint32_t inflight = 0;
    State state = kAbsent;
    uint8_t unknown = 0;
  };
  class Guard {
   public:
    explicit Guard(const Record& r) : r_(r) {
      while (r_.busy.test_and_set(std::memory_order_acquire)) {
      }
    }
    ~Guard() { r_.busy.clear(std::memory_order_release); }
    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;

   private:
    const Record& r_;
  };

  ReadWindow snapshot(size_t i) const {
    const Record& r = recs_[i];
    Guard g(r);
    return {r.changes, r.inflight == 0, r.state, r.stamp, r.unknown};
  }

  size_t n_;
  std::unique_ptr<Record[]> recs_;
};

// The value layout the YCSB runner writes: an 8-byte stamp followed by 'v'
// padding (the last byte may carry an RMW's read byte).
inline uint64_t value_stamp(std::string_view v) {
  uint64_t s = 0;
  std::memcpy(&s, v.data(), std::min<size_t>(8, v.size()));
  return s;
}
inline bool value_well_formed(std::string_view v, size_t value_size) {
  if (v.size() != value_size) return false;
  for (size_t i = 8; i + 1 < v.size(); ++i) {
    if (v[i] != 'v') return false;
  }
  return true;
}

enum Kind : uint32_t { kSearch, kInsert, kUpdate, kRemove, kScan, kBatch, kNumKinds };
inline const char* kind_name(uint32_t k) {
  static const char* const kNames[kNumKinds] = {"search", "insert", "update",
                                                "remove", "scan",   "batch"};
  return kNames[k];
}

// Benchmark-side span around one index call. Spans of one op share op_id;
// the runner's round-trip spans are tied to it by virtual-time containment
// when the trace is written.
struct CallSpan {
  uint64_t op_id;
  uint32_t kind;
  uint32_t worker;
  uint64_t host_start_ns;
  uint64_t host_dur_ns;
  uint64_t virt_start_ns;
  uint64_t virt_dur_ns;
};

// What one worker's calls left behind. Each worker id is driven by one
// thread at a time, so the decorator writes its slot without locking.
struct WorkerAcc {
  struct KindAcc {
    uint64_t calls = 0;
    uint64_t sim_ns = 0;
    uint64_t host_calls = 0;  // calls timed on the host (traced chunks)
    uint64_t host_ns = 0;
  };
  std::array<KindAcc, kNumKinds> kinds{};
  std::vector<uint32_t> read_lat;   // per point read, virtual ns
  std::vector<uint32_t> write_lat;  // per insert/update/remove
  std::vector<uint32_t> scan_lat;   // per scan
  uint64_t point_reads = 0;
  Failures failures;
  // Output-check violations (any nonzero one fails the run).
  uint64_t wrong_values = 0;    // found a value other than the one written
  uint64_t lost_keys = 0;       // exact-live key not found / not mutable
  uint64_t phantom_keys = 0;    // exact-absent key found or re-inserted
  uint64_t bad_scans = 0;       // unordered, out of range or foreign keys
  uint64_t scan_missing = 0;    // stable key skipped by an untruncated scan
  std::vector<CallSpan> spans;

  uint64_t violations() const {
    return wrong_values + lost_keys + phantom_keys + bad_scans + scan_missing;
  }

  // Merges another worker's counts and samples (spans stay per worker).
  WorkerAcc& operator+=(const WorkerAcc& o) {
    for (uint32_t k = 0; k < kNumKinds; ++k) {
      kinds[k].calls += o.kinds[k].calls;
      kinds[k].sim_ns += o.kinds[k].sim_ns;
      kinds[k].host_calls += o.kinds[k].host_calls;
      kinds[k].host_ns += o.kinds[k].host_ns;
    }
    read_lat.insert(read_lat.end(), o.read_lat.begin(), o.read_lat.end());
    write_lat.insert(write_lat.end(), o.write_lat.begin(), o.write_lat.end());
    scan_lat.insert(scan_lat.end(), o.scan_lat.begin(), o.scan_lat.end());
    point_reads += o.point_reads;
    failures += o.failures;
    wrong_values += o.wrong_values;
    lost_keys += o.lost_keys;
    phantom_keys += o.phantom_keys;
    bad_scans += o.bad_scans;
    scan_missing += o.scan_missing;
    return *this;
  }
};

// Benchmark state shared by every decorator instance.
struct ProbeShared {
  enum class Phase { kLoad, kWarmup, kMeasure };

  ProbeShared(const std::vector<std::string>& pool, uint32_t workers,
              size_t value_size)
      : table(pool), oracle(pool.size()), acc(workers),
        value_size(value_size) {}

  KeyTable table;
  Oracle oracle;
  std::vector<WorkerAcc> acc;
  size_t value_size;
  std::atomic<Phase> phase{Phase::kLoad};
  bool tracing = false;        // host ns + spans (traced run only)
  uint32_t span_sample = 32;   // one span per this many calls
  size_t span_cap = 400;       // spans kept per worker (the trace file)
  uint64_t chunk = 0;          // measured chunk number (op id prefix)
  // Keys that are never removed, sorted: untruncated scans must return
  // every one of them inside their window. Empty when not checked.
  std::vector<std::string_view> stable_sorted;
};

class ProbeIndex final : public KvIndex {
 public:
  ProbeIndex(std::unique_ptr<KvIndex> inner, ProbeShared& shared,
             uint32_t worker)
      : inner_(std::move(inner)), sh_(shared), worker_(worker),
        acc_(shared.acc[worker]) {}

  KvIndex& inner() { return *inner_; }
  const char* name() const override { return inner_->name(); }
  uint64_t client_clock_ns() const override { return inner_->client_clock_ns(); }
  bool last_scan_truncated() const override { return inner_->last_scan_truncated(); }

  bool search(Slice key, std::string* value_out) override {
    const int64_t idx = sh_.table.find(key);
    const Oracle::ReadWindow w =
        idx >= 0 ? sh_.oracle.read_begin(idx) : Oracle::ReadWindow{};
    std::string local;
    std::string* out = value_out != nullptr ? value_out : &local;
    Call c = begin();
    const bool found = inner_->search(key, out);
    const uint64_t ns = end(c, kSearch);
    if (measuring()) {
      acc_.read_lat.push_back(clamp32(ns));
      acc_.point_reads++;
    }
    check_read(idx, w, found, *out);
    return found;
  }

  bool insert(Slice key, Slice value) override {
    const int64_t idx = sh_.table.find(key);
    Oracle::WriteWindow w{};
    if (idx >= 0) w = sh_.oracle.write_begin(idx);
    Call c = begin();
    const bool ok = inner_->insert(key, value);
    const uint64_t ns = end(c, kInsert);
    if (measuring()) acc_.write_lat.push_back(clamp32(ns));
    if (!ok) acc_.failures.insert_failures++;
    if (idx >= 0) {
      const bool alone = sh_.oracle.write_end(idx, w, ok, Oracle::kLive,
                                              value_stamp(sv(value)));
      if (alone && w.prior_known && ok && w.prior == Oracle::kLive) {
        acc_.phantom_keys++;
      }
    }
    return ok;
  }

  bool update(Slice key, Slice value) override {
    const int64_t idx = sh_.table.find(key);
    Oracle::WriteWindow w{};
    if (idx >= 0) w = sh_.oracle.write_begin(idx);
    Call c = begin();
    const bool ok = inner_->update(key, value);
    const uint64_t ns = end(c, kUpdate);
    if (measuring()) acc_.write_lat.push_back(clamp32(ns));
    if (idx >= 0) finish_update(idx, w, ok, value);
    return ok;
  }

  bool remove(Slice key) override {
    const int64_t idx = sh_.table.find(key);
    Oracle::WriteWindow w{};
    if (idx >= 0) w = sh_.oracle.write_begin(idx);
    Call c = begin();
    const bool ok = inner_->remove(key);
    const uint64_t ns = end(c, kRemove);
    if (measuring()) acc_.write_lat.push_back(clamp32(ns));
    if (idx >= 0) finish_remove(idx, w, ok);
    return ok;
  }

  size_t scan(Slice start_key, size_t count,
              std::vector<std::pair<std::string, std::string>>* out) override {
    Call c = begin();
    const size_t n = inner_->scan(start_key, count, out);
    const uint64_t ns = end(c, kScan);
    if (measuring()) acc_.scan_lat.push_back(clamp32(ns));
    const bool truncated = inner_->last_scan_truncated();
    if (truncated) acc_.failures.truncated_scans++;
    check_scan(sv(start_key), count, *out, n, truncated);
    return n;
  }

  size_t scan_range(
      Slice low_key, Slice high_key, size_t max_results,
      std::vector<std::pair<std::string, std::string>>* out) override {
    Call c = begin();
    const size_t n = inner_->scan_range(low_key, high_key, max_results, out);
    const uint64_t ns = end(c, kScan);
    if (measuring()) acc_.scan_lat.push_back(clamp32(ns));
    if (inner_->last_scan_truncated()) acc_.failures.truncated_scans++;
    return n;
  }

  void execute_batch(BatchOp* ops, size_t count) override {
    // Oracle windows open before the batch and close after it: every op of
    // the batch may linearize anywhere inside the call.
    slots_.resize(count);
    for (size_t i = 0; i < count; ++i) {
      BatchSlot& s = slots_[i];
      s.idx = sh_.table.find(ops[i].key);
      if (s.idx < 0) continue;
      if (ops[i].kind == BatchOp::Kind::kSearch) {
        s.rw = sh_.oracle.read_begin(s.idx);
      } else {
        s.ww = sh_.oracle.write_begin(s.idx);
      }
    }
    Call c = begin();
    inner_->execute_batch(ops, count);
    end(c, kBatch);
    for (size_t i = 0; i < count; ++i) {
      BatchOp& op = ops[i];
      BatchSlot& s = slots_[i];
      if (measuring() && op.done) {
        const uint64_t done = op.done_clock_ns >= c.virt ? op.done_clock_ns
                                                         : inner_->client_clock_ns();
        const uint32_t ns = clamp32(done - c.virt);
        if (op.kind == BatchOp::Kind::kSearch) {
          acc_.read_lat.push_back(ns);
          acc_.point_reads++;
        } else {
          acc_.write_lat.push_back(ns);
        }
      }
      switch (op.kind) {
        case BatchOp::Kind::kSearch:
          check_read(s.idx, s.rw, op.ok,
                     op.value_out != nullptr ? *op.value_out : std::string());
          break;
        case BatchOp::Kind::kInsert:
          if (!op.ok) acc_.failures.insert_failures++;
          if (s.idx >= 0) {
            const bool alone = sh_.oracle.write_end(
                s.idx, s.ww, op.ok, Oracle::kLive, value_stamp(sv(op.value)));
            if (alone && s.ww.prior_known && op.ok &&
                s.ww.prior == Oracle::kLive) {
              acc_.phantom_keys++;
            }
          }
          break;
        case BatchOp::Kind::kUpdate:
          if (s.idx >= 0) finish_update(s.idx, s.ww, op.ok, op.value);
          break;
        case BatchOp::Kind::kRemove:
          if (s.idx >= 0) finish_remove(s.idx, s.ww, op.ok);
          break;
      }
    }
  }

 private:
  struct Call {
    uint64_t virt;
    std::chrono::steady_clock::time_point host;
  };

  static std::string_view sv(Slice s) { return {s.data(), s.size()}; }
  static uint32_t clamp32(uint64_t v) {
    return v > UINT32_MAX ? UINT32_MAX : static_cast<uint32_t>(v);
  }
  bool measuring() const {
    return sh_.phase.load(std::memory_order_relaxed) ==
           ProbeShared::Phase::kMeasure;
  }

  Call begin() const {
    Call c{inner_->client_clock_ns(), {}};
    if (sh_.tracing) c.host = std::chrono::steady_clock::now();
    return c;
  }

  // Closes a call: accumulates its virtual (and, traced, host) time and
  // keeps one span in `span_sample`. Returns the virtual ns.
  uint64_t end(const Call& c, uint32_t kind) {
    const uint64_t virt_ns = inner_->client_clock_ns() - c.virt;
    if (!measuring()) return virt_ns;
    WorkerAcc::KindAcc& k = acc_.kinds[kind];
    const uint64_t seq = calls_++;
    k.calls++;
    k.sim_ns += virt_ns;
    if (sh_.tracing) {
      const auto now = std::chrono::steady_clock::now();
      const uint64_t host_ns = static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(now - c.host)
              .count());
      k.host_calls++;
      k.host_ns += host_ns;
      if (seq % sh_.span_sample == 0 && acc_.spans.size() < sh_.span_cap) {
        const uint64_t host_start = static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                c.host.time_since_epoch())
                .count());
        acc_.spans.push_back(CallSpan{(sh_.chunk << 40) |
                                          (uint64_t{worker_} << 32) | seq,
                                      kind, worker_, host_start, host_ns,
                                      c.virt, virt_ns});
      }
    }
    return virt_ns;
  }

  void check_read(int64_t idx, const Oracle::ReadWindow& w, bool found,
                  std::string_view value) {
    if (found && !value_well_formed(value, sh_.value_size)) {
      acc_.wrong_values++;
    }
    if (idx < 0 || (w.unknown & Oracle::kStateUnknown) ||
        !sh_.oracle.read_exact(idx, w)) {
      return;
    }
    const bool live = w.state == Oracle::kLive;
    if (live && !found) acc_.lost_keys++;
    if (!live && found) acc_.phantom_keys++;
    if (found && live && w.unknown == 0 && value_stamp(value) != w.stamp) {
      acc_.wrong_values++;
    }
  }

  // A write that ran alone on a key whose state was known must agree
  // with it: removes and updates of a live key succeed, of any other fail.
  void finish_update(int64_t idx, const Oracle::WriteWindow& w, bool ok,
                     Slice value) {
    const bool alone = sh_.oracle.write_end(idx, w, ok, Oracle::kLive,
                                            value_stamp(sv(value)));
    check_mutation(alone, w, ok);
  }

  void finish_remove(int64_t idx, const Oracle::WriteWindow& w, bool ok) {
    const bool alone = sh_.oracle.write_end(idx, w, ok, Oracle::kRemoved, 0);
    check_mutation(alone, w, ok);
  }

  void check_mutation(bool alone, const Oracle::WriteWindow& w, bool ok) {
    if (!alone || !w.prior_known) return;
    const bool live = w.prior == Oracle::kLive;
    if (live && !ok) {
      acc_.failures.live_key_misses++;
      acc_.lost_keys++;
    }
    if (!live && ok) acc_.phantom_keys++;
  }

  void check_scan(std::string_view start, size_t count,
                  const std::vector<std::pair<std::string, std::string>>& out,
                  size_t n, bool truncated) {
    bool bad = n != out.size() || n > count;
    for (size_t i = 0; i < out.size() && !bad; ++i) {
      const std::string_view k = out[i].first;
      if (k < start || (i > 0 && k <= std::string_view(out[i - 1].first)) ||
          sh_.table.find(Slice(out[i].first)) < 0 ||
          !value_well_formed(out[i].second, sh_.value_size)) {
        bad = true;
      }
    }
    if (bad) {
      acc_.bad_scans++;
      return;
    }
    if (truncated || sh_.stable_sorted.empty()) return;
    // Every stable key inside the returned window must be in the result,
    // and a short result must have run out of stable keys.
    const auto& st = sh_.stable_sorted;
    auto it = std::lower_bound(st.begin(), st.end(), start);
    size_t r = 0;
    for (; it != st.end() && !out.empty(); ++it) {
      if (*it > std::string_view(out.back().first)) break;
      while (r < out.size() && std::string_view(out[r].first) < *it) ++r;
      if (r == out.size() || std::string_view(out[r].first) != *it) {
        acc_.scan_missing++;
        return;
      }
    }
    if (out.size() < count && it != st.end()) acc_.scan_missing++;
  }

  std::unique_ptr<KvIndex> inner_;
  ProbeShared& sh_;
  uint32_t worker_;
  WorkerAcc& acc_;
  uint64_t calls_ = 0;
  struct BatchSlot {
    int64_t idx = -1;
    Oracle::ReadWindow rw{};
    Oracle::WriteWindow ww{};
  };
  std::vector<BatchSlot> slots_;
};

}  // namespace perfbench
