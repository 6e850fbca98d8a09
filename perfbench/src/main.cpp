// The repository benchmark: drives Sphinx through the public
// ycsb::SystemSetup / ycsb::YcsbRunner / KvIndex API with closed-loop
// workers on the default 3 CN / 3 MN simulated cluster, checks every output
// against an oracle, and prints the end-to-end metrics (untraced run) or
// the per-module metrics (traced run) by name and unit. The last stdout
// line is one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out FILE]
//
// See perfbench/README.md for the workloads and every metric.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <iostream>
#include <cmath>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "art/key.h"
#include "common/dist.h"
#include "common/rng.h"
#include "core/sphinx_index.h"
#include "derive.h"
#include "memnode/cluster.h"
#include "probe_index.h"
#include "rdma/network_config.h"
#include "ycsb/dataset.h"
#include "ycsb/runner.h"
#include "ycsb/systems.h"
#include "ycsb/workload.h"

using namespace sphinx;
using perfbench::ProbeIndex;
using perfbench::ProbeShared;

namespace {

constexpr uint32_t kWorkers = 4;
constexpr uint32_t kSetupReps = 3;
constexpr uint64_t kDatasetSeed = 1;

struct WorkloadDef {
  const char* name;
  ycsb::DatasetKind dataset;
  uint64_t loaded;
  uint64_t cache_budget;  // per CN
  ycsb::WorkloadSpec spec;
  uint32_t depth;
  uint64_t extra_keys;     // insert pool beyond the loaded keys
  uint64_t chunk_ops;      // per worker, one runner phase (warm-up and measured)
  uint64_t warm_chunks;    // warm-up chunks at least (where the level-off lands)
  // Measured ops per second of --seconds: about what 4 cores run per host
  // second. The measured op count is fixed by it, not by the clock, because
  // the figures drift with ops run (the SFC hit share keeps sinking under
  // starvation), so a time-bound window would make them follow host speed.
  uint64_t ops_per_second;
};

std::vector<WorkloadDef> workloads() {
  // Paper ratio: 20 MB of CN cache per 60 M keys => 349,525 B per CN at 1 M.
  const uint64_t starved = ycsb::scaled_cache_budget(ycsb::kDefaultCacheBudget,
                                                     1'000'000);
  return {
      {"email-read-starved", ycsb::DatasetKind::kEmail, 1'000'000, starved,
       ycsb::standard_workload('B'), 1, 0, 100'000, 4, 1'200'000},
      {"email-read-pipelined", ycsb::DatasetKind::kEmail, 1'000'000, starved,
       ycsb::standard_workload('B'), 8, 0, 100'000, 4, 1'200'000},
      {"u64-churn-fits", ycsb::DatasetKind::kU64, 200'000,
       ycsb::kDefaultCacheBudget, ycsb::churn_workload(), 1, 200'000, 100'000,
       16, 1'200'000},
      {"email-scan-starved", ycsb::DatasetKind::kEmail, 1'000'000, starved,
       ycsb::standard_workload('E'), 1, 100'000, 2'500, 4, 30'000},
  };
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_s() {
  timespec ts;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

uint64_t host_ns() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Index-internal counters summed over every worker client of one phase
// (the runner's per-worker hook fires once per client).
struct IndexAgg {
  core::SphinxStats sphinx;
  art::TreeStats tree;
  race::RaceStats race;

  void add(core::SphinxIndex& s) {
    sphinx += s.sphinx_stats();
    const art::TreeStats& t = s.tree_stats();
    tree.op_retries += t.op_retries;
    tree.lock_fail_retries += t.lock_fail_retries;
    tree.type_switches += t.type_switches;
    tree.splits += t.splits;
    tree.torn_leaf_rereads += t.torn_leaf_rereads;
    tree.invalid_node_retries += t.invalid_node_retries;
    tree.ops_failed += t.ops_failed;
    tree.alloc_degraded_ops += t.alloc_degraded_ops;
    tree.recovery += t.recovery;
    tree.backoff += t.backoff;
    tree.scan += t.scan;
    const race::RaceStats r = s.inht().aggregated_stats();
    race.searches += r.searches;
    race.inserts += r.inserts;
    race.insert_retries += r.insert_retries;
    race.splits += r.splits;
    race.dir_doublings += r.dir_doublings;
    race.dir_refreshes += r.dir_refreshes;
    race.recovery += r.recovery;
    race.backoff += r.backoff;
  }
};

// Cumulative cache-tier counters of all CNs (deltas give a phase's flow).
struct CacheSnap {
  uint64_t sfc_evictions = 0, pec_evictions = 0, lac_evictions = 0;
  uint64_t pec_hits = 0, pec_misses = 0;
};

// One run's worth of measured-phase aggregates, summed over chunks.
struct Measured {
  uint64_t ops = 0;
  uint64_t chunks = 0;
  double sim_seconds = 0;
  std::vector<double> cpu_ns_per_op;  // one entry per chunk
  rdma::EndpointStats net;
  double max_nic_util = 0;
  double mn_balance_weighted = 0;  // ops-weighted
  uint64_t reclaimed_blocks = 0;
  uint64_t epoch_advances = 0;
  uint64_t insert_overflow = 0;
  uint64_t scan_rtts = 0;
  uint64_t scans = 0;
  bool phase_sums_ok = true;
  // Traced run only: CPU per op split by whether the chunk was traced.
  uint64_t traced_ops = 0, untraced_ops = 0;
  double traced_cpu_s = 0, untraced_cpu_s = 0;
  perfbench::LocalTime local;
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string trace_out;
};

[[noreturn]] void usage(const std::string& msg) {
  std::cerr << "perfbench: " << msg
            << "\nusage: perfbench --workload <name> --seed <n> --seconds <s>"
               " --trace <0|1> [--trace-out FILE]\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string v = argv[++i];
    try {
      size_t pos = 0;
      if (flag == "--workload") {
        a.workload = v;
        have_workload = true;
        pos = v.size();
      } else if (flag == "--seed") {
        a.seed = std::stoull(v, &pos);
      } else if (flag == "--seconds") {
        a.seconds = std::stod(v, &pos);
        if (a.seconds <= 0) usage("--seconds must be positive");
      } else if (flag == "--trace") {
        a.trace = std::stoi(v, &pos);
        if (a.trace != 0 && a.trace != 1) usage("--trace must be 0 or 1");
      } else if (flag == "--trace-out") {
        a.trace_out = v;
        pos = v.size();
      } else {
        usage("unknown flag " + flag);
      }
      if (pos != v.size()) usage("bad value for " + flag + ": " + v);
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + v);
    }
  }
  if (!have_workload) usage("--workload is required");
  return a;
}

struct HostSpan {
  std::string name;
  uint64_t start_ns;
  uint64_t dur_ns;
};

// Everything one set-up builds: keys, cluster, caches, runner, probes.
struct Bench {
  const WorkloadDef& def;
  uint64_t seed;
  std::unique_ptr<mem::Cluster> cluster;
  std::unique_ptr<ycsb::SystemSetup> setup;
  std::unique_ptr<ProbeShared> shared;
  std::unique_ptr<ycsb::YcsbRunner> runner;
  std::mutex agg_mu;
  IndexAgg agg[3];  // by ProbeShared::Phase
  uint64_t attempted = 0;  // ops handed to the index (load + warm-up + measured)
  // Set-up steps in process CPU seconds (wall seconds for the log): on a
  // shared host, wall time also counts the time other tenants held the
  // cores, which swung one identical set-up step by up to 50%.
  double keygen_s = 0, load_s = 0, warmup_s = 0;
  double wall_s = 0;
  uint64_t warmup_chunks = 0;
  std::vector<HostSpan> spans;           // set-up steps, host clock

  Bench(const WorkloadDef& d, uint64_t s) : def(d), seed(s) {}

  double setup_s() const { return keygen_s + load_s + warmup_s; }
  IndexAgg& agg_of(ProbeShared::Phase p) { return agg[static_cast<int>(p)]; }

  ycsb::RunOptions options(uint64_t ops_per_worker, uint64_t chunk,
                           rdma::TraceRecorder* trace) const {
    ycsb::RunOptions o;
    o.workers = kWorkers;
    o.ops_per_worker = ops_per_worker;
    o.seed = seed * 1'000'003ULL + chunk;
    o.pipeline_depth = def.depth;
    o.trace = trace;
    return o;
  }

  CacheSnap caches() {
    CacheSnap c;
    for (uint32_t cn = 0; cn < cluster->config().num_cns; ++cn) {
      c.sfc_evictions += setup->filter(cn)->stats().evictions;
      const auto p = setup->pec(cn)->stats();
      c.pec_evictions += p.evictions;
      c.pec_hits += p.hits;
      c.pec_misses += p.misses;
      c.lac_evictions += setup->lac(cn)->stats().evictions;
    }
    return c;
  }

  // Room left in the key pool for fresh inserts; a chunk that could run it
  // dry would silently turn inserts into updates, so callers stop first.
  // Fresh pool keys consumed per op: the insert share until a chunk has
  // shown the real rate (churn reinserts keys it removed, so it claims far
  // fewer fresh keys than it inserts).
  double fresh_per_op = -1;
  bool pool_has_room(uint64_t ops_per_worker) const {
    const double rate = fresh_per_op >= 0 ? 1.5 * fresh_per_op
                                          : def.spec.insert / def.spec.total();
    const double need = rate * kWorkers * ops_per_worker;
    return static_cast<double>(runner->keys().size() - runner->visible_keys()) >= need;
  }
  // One runner phase; `trace` (optional) receives its round-trip spans.
  ycsb::RunResult run_chunk(uint64_t ops_per_worker, uint64_t chunk,
                            rdma::TraceRecorder* trace = nullptr) {
    const uint64_t v0 = runner->visible_keys();
    ycsb::RunResult r =
        runner->run(def.spec, options(ops_per_worker, chunk, trace));
    const double rate = static_cast<double>(runner->visible_keys() - v0) /
                        static_cast<double>(r.total_ops);
    fresh_per_op = std::max(fresh_per_op, rate);
    return r;
  }
};

uint64_t mn_bytes_for(const WorkloadDef& def) {
  // Sphinx needs ~175 B/key of MN heap for email at 1 M keys (leaves,
  // inner nodes, INHT); give 2x headroom plus allocator lease slack.
  const uint64_t keys = def.loaded + def.extra_keys;
  return keys * 400 / 3 + (48ull << 20);
}

void setup_once(Bench& b) {
  const WorkloadDef& def = b.def;
  // Each step records a host-clock span and returns its CPU seconds.
  uint64_t span0 = host_ns();
  double cpu0 = cpu_s();
  auto restart = [&] {
    span0 = host_ns();
    cpu0 = cpu_s();
  };
  auto step = [&](const char* name) {
    const uint64_t now = host_ns();
    b.spans.push_back({name, span0, now - span0});
    b.wall_s += 1e-9 * static_cast<double>(now - span0);
    const double cpu = cpu_s() - cpu0;
    restart();
    return cpu;
  };
  // The key set is part of the workload (like the paper's fixed email
  // dump); --seed drives the request streams. Seeding the keys too made
  // wire bytes/op swing by 8% between seeds with the hot keys' lengths.
  std::vector<std::string> keys = ycsb::generate_keys(
      def.dataset, def.loaded + def.extra_keys, kDatasetSeed);
  b.keygen_s = step("keygen");

  rdma::NetworkConfig net;  // paper testbed: 3 CNs, 3 MNs
  b.cluster = std::make_unique<mem::Cluster>(net, mn_bytes_for(def));
  b.setup = std::make_unique<ycsb::SystemSetup>(ycsb::SystemKind::kSphinx,
                                                *b.cluster, def.cache_budget);
  ycsb::IndexFactory inner = b.setup->factory();
  b.runner = std::make_unique<ycsb::YcsbRunner>(
      *b.cluster,
      [inner, &b](uint32_t w, uint32_t cn, rdma::Endpoint& ep,
                  mem::RemoteAllocator& alloc) -> std::unique_ptr<KvIndex> {
        return std::make_unique<ProbeIndex>(inner(w, cn, ep, alloc), *b.shared,
                                            w);
      },
      std::move(keys));
  b.runner->set_per_worker_hook([&b](KvIndex& index, uint32_t) {
    auto& probe = static_cast<ProbeIndex&>(index);
    auto& s = static_cast<core::SphinxIndex&>(probe.inner());
    std::lock_guard<std::mutex> lock(b.agg_mu);
    b.agg_of(b.shared->phase.load()).add(s);
  });
  b.load_s = step("build");

  // Oracle and key table are benchmark state, not the program's set-up.
  const std::vector<std::string>& pool = b.runner->keys();
  b.shared = std::make_unique<ProbeShared>(pool, kWorkers,
                                           def.spec.value_size);
  // Sample the calls whose round trips the runner traces: one op in
  // trace_sample, i.e. one batch call in trace_sample / depth.
  b.shared->span_sample =
      std::max(1u, ycsb::RunOptions().trace_sample / def.depth);
  if (def.spec.remove == 0 && def.spec.scan > 0) {
    auto& st = b.shared->stable_sorted;
    st.assign(pool.begin(), pool.begin() + def.loaded);
    std::sort(st.begin(), st.end());
  }

  restart();
  const uint32_t load_threads = std::min<uint32_t>(
      kWorkers, std::max(1u, std::thread::hardware_concurrency()));
  b.runner->load(def.loaded, def.spec.value_size, load_threads);
  b.attempted += def.loaded;
  b.load_s += step("load");

  // Warm up with the workload itself for at least the chunks it needs to
  // level off, and on until rtts/op and the LAC hit share stay within 2%
  // for two chunks in a row: the caches are then as full as the workload
  // keeps them. The minimum keeps set-up work the same from run to run.
  b.shared->phase = ProbeShared::Phase::kWarmup;
  double prev_rtts = -1, prev_lac = -1;
  uint32_t steady = 0;
  for (uint64_t c = 0; c < 60 && (c < def.warm_chunks || steady < 2) &&
                       b.pool_has_room(def.chunk_ops);
       ++c) {
    const IndexAgg& warm = b.agg_of(ProbeShared::Phase::kWarmup);
    const uint64_t lac0 = warm.sphinx.lac_hits;
    ycsb::RunResult r = b.run_chunk(def.chunk_ops, 1'000'000 + c);
    b.attempted += r.total_ops;
    b.warmup_chunks++;
    const double lac = static_cast<double>(warm.sphinx.lac_hits - lac0) /
                       static_cast<double>(r.total_ops);
    const bool flat = prev_rtts >= 0 &&
                      perfbench::levelled_off(prev_rtts, r.rtts_per_op, 0.02) &&
                      perfbench::levelled_off(prev_lac, lac, 0.02);
    steady = flat ? steady + 1 : 0;
    prev_rtts = r.rtts_per_op;
    prev_lac = lac;
  }
  b.warmup_s = step("warmup");
}

// Measures --seconds worth of the workload's ops (see ops_per_second) in
// fixed-size chunks. A host too slow to finish within three times
// --seconds stops early and says so. Traced runs alternate traced and
// untraced chunks so the tracing overhead is measured inside one run.
Measured measure(Bench& b, double seconds, bool traced,
                 std::vector<rdma::TraceEvent>* last_trace) {
  Measured m;
  ProbeShared& sh = *b.shared;
  sh.phase = ProbeShared::Phase::kMeasure;
  const uint64_t chunk_ops = b.def.chunk_ops;
  const uint64_t target = static_cast<uint64_t>(
      seconds * static_cast<double>(b.def.ops_per_second));
  const uint64_t chunks =
      std::max<uint64_t>(1, (target + chunk_ops * kWorkers - 1) /
                                (chunk_ops * kWorkers));
  const double t_cap = now_s() + 3 * seconds;
  while (m.chunks < chunks) {
    if (m.chunks > 0 && now_s() > t_cap) {
      std::cerr << "perfbench: host too slow, measured " << m.chunks << " of "
                << chunks << " chunks\n";
      break;
    }
    if (!b.pool_has_room(chunk_ops)) {
      std::cerr << "perfbench: key pool nearly dry, measured " << m.chunks
                << " of " << chunks << " chunks\n";
      break;
    }
    const bool trace_chunk = traced && (m.chunks % 2 == 0);
    sh.tracing = trace_chunk;
    sh.chunk = m.chunks;
    if (trace_chunk) {
      // The trace file shows the last traced chunk: its call spans and the
      // round trips the runner sampled from the same ops.
      for (auto& a : sh.acc) a.spans.clear();
    }
    rdma::TraceRecorder rec(size_t{1} << 20);
    const double c0 = cpu_s();
    ycsb::RunResult r =
        b.run_chunk(chunk_ops, m.chunks, trace_chunk ? &rec : nullptr);
    const double dc = cpu_s() - c0;
    m.cpu_ns_per_op.push_back(dc * 1e9 / static_cast<double>(r.total_ops));
    if (traced) {
      (trace_chunk ? m.traced_ops : m.untraced_ops) += r.total_ops;
      (trace_chunk ? m.traced_cpu_s : m.untraced_cpu_s) += dc;
    }
    if (trace_chunk) {
      perfbench::add_local_time(rec.events(), b.def.depth, &m.local);
      *last_trace = rec.events();
    }
    m.ops += r.total_ops;
    m.chunks++;
    m.sim_seconds += r.sim_seconds;
    m.phase_sums_ok = m.phase_sums_ok && perfbench::phase_sums_match(r.net);
    m.net += r.net;
    m.max_nic_util = std::max(m.max_nic_util, r.nic_utilization);
    m.mn_balance_weighted += r.mn_msg_balance * static_cast<double>(r.total_ops);
    m.reclaimed_blocks += r.reclaimed_blocks;
    m.epoch_advances += r.epoch_advances;
    m.insert_overflow += r.insert_overflow;
    m.scan_rtts += r.scan_round_trips;
    m.scans += r.scan_ops;
  }
  sh.tracing = false;
  b.attempted += m.ops;
  return m;
}

// Replays workload keys against the live per-CN caches through their
// public probes and reports host ns per probe / per prefix hash, next to
// the constants SphinxConfig charges on the virtual clock.
struct Calibration {
  double sfc_ns = 0, pec_ns = 0, lac_ns = 0, prefix_hash_ns = 0;
};

Calibration calibrate(Bench& b) {
  const uint64_t n = std::min<uint64_t>(100'000, b.def.loaded);
  ScrambledZipfianDistribution zipf(b.def.loaded, 0.99);
  Rng rng(b.seed ^ 0xca11b7a7eULL);
  std::vector<uint64_t> hashes;   // every prefix hash of every replayed key
  std::vector<uint64_t> full;     // full terminated-key hash per key
  hashes.reserve(n * 24);
  full.reserve(n);
  std::vector<art::TerminatedKey> tkeys;
  tkeys.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    const uint64_t idx = b.def.spec.dist == ycsb::RequestDist::kUniform
                             ? rng.next_below(b.def.loaded)
                             : zipf.next(rng);
    tkeys.emplace_back(Slice(b.runner->keys()[idx]));
  }
  uint64_t acc = 0;  // consumed below so the timed loops cannot be elided
  uint64_t prefixes = 0;
  double t = now_s();
  for (const auto& tk : tkeys) {
    for (uint32_t l = 1; l < tk.size(); ++l) acc += tk.hash_of_prefix(l);
    prefixes += tk.size() - 1;
  }
  Calibration c;
  c.prefix_hash_ns = (now_s() - t) * 1e9 / static_cast<double>(prefixes);
  for (const auto& tk : tkeys) {
    for (uint32_t l = 1; l < tk.size(); ++l) hashes.push_back(tk.hash_of_prefix(l));
    full.push_back(tk.hash_of_prefix(tk.size()));
  }
  const uint32_t cns = b.cluster->config().num_cns;
  t = now_s();
  for (uint32_t cn = 0; cn < cns; ++cn) {
    filter::CuckooFilter* f = b.setup->filter(cn);
    for (uint64_t h : hashes) acc += f->contains_cold(h);
  }
  c.sfc_ns = (now_s() - t) * 1e9 / static_cast<double>(hashes.size() * cns);
  t = now_s();
  for (uint32_t cn = 0; cn < cns; ++cn) {
    filter::PrefixEntryCache* p = b.setup->pec(cn);
    uint64_t payload = 0;
    bool hot = false;
    for (uint64_t h : hashes) acc += p->lookup(h, &payload, &hot) + payload;
  }
  c.pec_ns = (now_s() - t) * 1e9 / static_cast<double>(hashes.size() * cns);
  t = now_s();
  for (uint32_t cn = 0; cn < cns; ++cn) {
    filter::LeafAddressCache* l = b.setup->lac(cn);
    uint64_t payload = 0;
    bool hot = false;
    for (uint64_t h : full) acc += l->lookup(h, &payload, &hot) + payload;
  }
  c.lac_ns = (now_s() - t) * 1e9 / static_cast<double>(full.size() * cns);
  volatile uint64_t sink = acc;
  (void)sink;
  return c;
}

// Reads every pool key back through fresh clients and compares with the
// oracle: live keys must hold the bytes last written, removed and never
// inserted keys must be absent.
// A mismatch is re-read through a client with no CN caches, which tells a
// key gone from the remote index (`*_uncached`) from a stale cache entry.
struct AuditResult {
  uint64_t checked = 0, missing = 0, wrong = 0, phantom = 0;
  uint64_t missing_uncached = 0, wrong_uncached = 0;
};

AuditResult audit(Bench& b) {
  const uint32_t threads = std::min<uint32_t>(
      kWorkers, std::max(1u, std::thread::hardware_concurrency()));
  std::vector<AuditResult> parts(threads);
  std::vector<std::thread> auditors;
  const perfbench::Oracle& oracle = b.shared->oracle;
  for (uint32_t t = 0; t < threads; ++t) {
    auditors.emplace_back([&, t] {
      const uint32_t cn = t % b.cluster->config().num_cns;
      rdma::Endpoint ep(b.cluster->fabric(), cn, /*metered=*/false);
      mem::RemoteAllocator alloc(*b.cluster, ep);
      std::unique_ptr<KvIndex> client = b.setup->make_client(cn, ep, alloc);
      core::SphinxIndex bare(*b.cluster, ep, alloc, *b.setup->sphinx_refs(),
                             nullptr);
      AuditResult& out = parts[t];
      const std::vector<std::string>& pool = b.runner->keys();
      std::string v;
      for (size_t i = t; i < pool.size(); i += threads) {
        const bool found = client->search(pool[i], &v);
        out.checked++;
        auto bad_value = [&](const std::string& val) {
          return !perfbench::value_well_formed(val, b.def.spec.value_size) ||
                 (oracle.stamp_known(i) &&
                  perfbench::value_stamp(val) != oracle.stamp(i));
        };
        if (!oracle.state_known(i)) {
          if (found && !perfbench::value_well_formed(v, b.def.spec.value_size)) {
            out.wrong++;
          }
        } else if (oracle.state(i) == perfbench::Oracle::kLive) {
          if (!found) {
            out.missing++;
            out.missing_uncached += !bare.search(pool[i], &v);
          } else if (bad_value(v)) {
            out.wrong++;
            out.wrong_uncached += !bare.search(pool[i], &v) || bad_value(v);
          }
        } else if (found) {
          out.phantom++;
        }
      }
    });
  }
  for (auto& th : auditors) th.join();
  AuditResult total;
  for (const auto& p : parts) {
    total.checked += p.checked;
    total.missing += p.missing;
    total.wrong += p.wrong;
    total.phantom += p.phantom;
    total.missing_uncached += p.missing_uncached;
    total.wrong_uncached += p.wrong_uncached;
  }
  return total;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

void write_trace(const std::string& path, const Bench& b,
                 const std::vector<HostSpan>& setup_spans,
                 const std::vector<rdma::TraceEvent>& rtts) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "perfbench: cannot write trace to " << path << "\n";
    return;
  }
  // pid 1: host clock (set-up steps, index calls); pid 2: virtual clock
  // (the same calls and the round trips they caused, tied by op_id).
  out << "{\"traceEvents\":[\n";
  bool first = true;
  auto ev = [&](const std::string& name, int pid, uint32_t tid, uint64_t ts,
                uint64_t dur, int64_t op_id) {
    out << (first ? "" : ",\n") << "{\"name\":\"" << name
        << "\",\"ph\":\"X\",\"pid\":" << pid << ",\"tid\":" << tid
        << ",\"ts\":" << json_number(ts / 1000.0)
        << ",\"dur\":" << json_number(dur / 1000.0);
    if (op_id >= 0) out << ",\"args\":{\"op_id\":" << op_id << "}";
    out << "}";
    first = false;
  };
  for (const auto& s : setup_spans) {
    ev("setup:" + s.name, 1, 0, s.start_ns, s.dur_ns, -1);
  }
  // The sampled calls of each worker in virtual-clock order, and the round
  // trips inside them.
  std::vector<std::vector<const perfbench::CallSpan*>> calls(kWorkers);
  for (const auto& acc : b.shared->acc) {
    for (const auto& s : acc.spans) calls[s.worker].push_back(&s);
  }
  for (auto& v : calls) {
    std::sort(v.begin(), v.end(), [](const auto* x, const auto* y) {
      return x->virt_start_ns < y->virt_start_ns;
    });
    for (const perfbench::CallSpan* s : v) {
      const std::string name = std::string("call:") + perfbench::kind_name(s->kind);
      const auto op = static_cast<int64_t>(s->op_id);
      ev(name, 1, s->worker + 1, s->host_start_ns, s->host_dur_ns, op);
      ev(name, 2, s->worker, s->virt_start_ns, s->virt_dur_ns, op);
    }
  }
  for (const auto& e : rtts) {
    if (e.tid >= calls.size()) continue;
    const auto& v = calls[e.tid];
    auto it = std::upper_bound(v.begin(), v.end(), e.ts_ns,
                               [](uint64_t ts, const auto* c) {
                                 return ts < c->virt_start_ns;
                               });
    if (it == v.begin()) continue;
    const perfbench::CallSpan* c = *(it - 1);
    if (e.ts_ns + e.dur_ns <= c->virt_start_ns + c->virt_dur_ns) {
      ev(e.name, 2, e.tid, e.ts_ns, e.dur_ns, static_cast<int64_t>(c->op_id));
    }
  }
  out << "\n]}\n";
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Per-step set-up times of every repetition.
struct SetupTimes {
  std::vector<double> total, keygen, load, warmup;
};

// Everything the metrics are derived from, gathered once after the run.
struct Report {
  perfbench::WorkerAcc calls;  // all workers merged
  std::vector<uint32_t> all;   // every op's virtual ns (sorted, like the parts)
  perfbench::Failures failures;
  uint64_t live = 0;           // oracle-live keys at the end
  uint64_t lac_wrong = 0;      // whole run
  uint64_t lease_expiries = 0; // whole run
  double ops = 0;              // measured ops
};

Report gather(Bench& b, const Measured& m) {
  Report r;
  for (const auto& a : b.shared->acc) r.calls += a;
  auto& c = r.calls;
  r.all = c.read_lat;
  r.all.insert(r.all.end(), c.write_lat.begin(), c.write_lat.end());
  r.all.insert(r.all.end(), c.scan_lat.begin(), c.scan_lat.end());
  for (auto* v : {&r.all, &c.read_lat, &c.write_lat, &c.scan_lat}) {
    std::sort(v->begin(), v->end());
  }
  r.failures = c.failures;
  for (const auto& a : b.agg) {
    r.failures.tree_ops_failed += a.tree.ops_failed;
    r.lac_wrong += a.sphinx.lac_wrong_value;
    r.lease_expiries += a.tree.recovery.lease_expiries_observed +
                        a.race.recovery.lease_expiries_observed;
  }
  r.failures.degraded_ops = b.cluster->alloc_stats().alloc_degraded_ops();
  const perfbench::Oracle& o = b.shared->oracle;
  for (size_t i = 0; i < o.size(); ++i) r.live += o.state(i) == perfbench::Oracle::kLive;
  r.ops = static_cast<double>(m.ops);
  return r;
}

// The output check: every violation, as a message (empty when correct).
std::vector<std::string> check_outputs(Bench& b, const Measured& m,
                                       const Report& r, const AuditResult& au) {
  std::vector<std::string> errors;
  auto check = [&](bool ok, const std::string& what) {
    if (!ok) errors.push_back(what);
  };
  const perfbench::WorkerAcc& c = r.calls;
  const uint64_t underflows = b.cluster->alloc_stats().underflows();
  check(c.wrong_values == 0, "wrong values returned: " + std::to_string(c.wrong_values));
  check(c.lost_keys == 0, "live keys lost: " + std::to_string(c.lost_keys));
  check(c.phantom_keys == 0, "absent keys found: " + std::to_string(c.phantom_keys));
  check(c.bad_scans == 0, "malformed scans: " + std::to_string(c.bad_scans));
  check(c.scan_missing == 0, "scans skipped keys: " + std::to_string(c.scan_missing));
  check(au.missing == 0 && au.wrong == 0 && au.phantom == 0,
        "audit: " + std::to_string(au.missing) + " missing, " +
            std::to_string(au.wrong) + " wrong, " + std::to_string(au.phantom) +
            " phantom of " + std::to_string(au.checked) + " keys (" +
            std::to_string(au.missing_uncached) + " missing and " +
            std::to_string(au.wrong_uncached) +
            " wrong also without CN caches)");
  check(r.lac_wrong == 0, "lac_wrong_value " + std::to_string(r.lac_wrong));
  check(underflows == 0, "alloc_underflows " + std::to_string(underflows));
  check(m.phase_sums_ok, "per-phase RTTs/bytes do not sum to the totals");
  check(m.insert_overflow == 0, "key pool ran dry (inserts became updates)");
  // Latency samples are unloaded virtual times; they would miss the
  // queueing of a saturated NIC, which 4 workers never reach.
  check(m.max_nic_util <= 1.0, "a NIC saturated; latencies lack its queueing");
  check(!r.all.empty(), "no op was measured");
  return errors;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// The mid-quantile of sorted virtual-ns samples, in microseconds.
double q_us(const std::vector<uint32_t>& v, double p) {
  return perfbench::mid_quantile(v, p) / 1000.0;
}

std::vector<Metric> end_to_end(Bench& b, const Measured& m, const Report& r,
                               const SetupTimes& st) {
  using perfbench::ratio;
  const double tail = perfbench::highest_supported_percentile(r.all.size());
  rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return {
      {"sim_ops_per_sec", ratio(r.ops, m.sim_seconds), "1/s"},
      {"sim_p50_us", q_us(r.all, 0.5), "us"},
      {"sim_p99_us", q_us(r.all, std::min(0.99, tail)), "us"},
      {"sim_p999_us", q_us(r.all, tail), "us"},
      {"rtts_per_op", ratio(m.net.round_trips, r.ops), "count"},
      {"wire_bytes_per_op", ratio(m.net.bytes_total(), r.ops), "B"},
      {"host_cpu_ns_per_op", median(m.cpu_ns_per_op), "ns"},
      {"setup_s", median(st.total), "s"},
      {"mn_bytes_per_key",
       ratio(b.cluster->alloc_stats().total_padded(), r.live), "B"},
      {"host_peak_rss_mb", ru.ru_maxrss / 1024.0, "MB"},
  };
}

std::vector<Metric> per_layer(Bench& b, const Measured& m, const Report& r,
                              const SetupTimes& st, const CacheSnap& c0,
                              const CacheSnap& c1, const Calibration& cal) {
  using perfbench::per_kop;
  using perfbench::ratio;
  std::vector<Metric> out;
  auto put = [&](const std::string& name, double v, const std::string& unit) {
    out.push_back({name, v, unit});
  };
  const perfbench::WorkerAcc& c = r.calls;
  const IndexAgg& ix = b.agg_of(ProbeShared::Phase::kMeasure);
  const mem::AllocStats& as = b.cluster->alloc_stats();
  const double ops = r.ops;
  auto highest = [](const std::vector<uint32_t>& v) {
    return perfbench::highest_supported_percentile(v.size());
  };

  // ycsb: set-up steps and the run's own bookkeeping.
  put("ycsb.keygen_s", median(st.keygen), "s");
  put("ycsb.load_s", median(st.load), "s");
  put("ycsb.warmup_s", median(st.warmup), "s");
  put("ycsb.measured_ops", ops, "count");
  put("ycsb.latency_samples", r.all.size(), "count");
  put("ycsb.failed_op_ratio", perfbench::failed_op_ratio(r.failures, b.attempted),
      "ratio");

  // core: the decorator's per-call timing and the SphinxStats path mix.
  for (uint32_t k = 0; k < perfbench::kNumKinds; ++k) {
    const std::string kn = perfbench::kind_name(k);
    const auto& ka = c.kinds[k];
    put("core." + kn + "_sim_ns", ratio(ka.sim_ns, ka.calls), "ns");
    put("core." + kn + "_host_ns", ratio(ka.host_ns, ka.host_calls), "ns");
  }
  put("core.read_p50_us", q_us(c.read_lat, 0.5), "us");
  put("core.read_p999_us", q_us(c.read_lat, highest(c.read_lat)), "us");
  put("core.write_p50_us", q_us(c.write_lat, 0.5), "us");
  put("core.write_p999_us", q_us(c.write_lat, highest(c.write_lat)), "us");
  put("core.scan_p50_us", q_us(c.scan_lat, 0.5), "us");
  put("core.cn_local_sim_ns_per_op", m.local.local_ns_per_op(), "ns");
  const core::SphinxStats& ss = ix.sphinx;
  put("core.start_success_ratio",
      ratio(ss.start_successes, ss.start_successes + ss.root_fallbacks), "ratio");
  put("core.fp_reject_ratio", ratio(ss.fp_rejects, ss.filter_hits), "ratio");
  put("core.parallel_fallbacks_per_op", ratio(ss.parallel_fallbacks, ops), "count");
  put("core.batch_fused_ratio", ratio(ss.batch_fused_ops, ss.batch_ops), "ratio");
  put("core.batch_rounds_per_op", ratio(ss.batch_fused_rounds, ss.batch_ops),
      "count");
  put("core.prefix_hash_host_ns", cal.prefix_hash_ns, "ns");
  const double cpu_traced = ratio(m.traced_cpu_s * 1e9, m.traced_ops);
  const double cpu_untraced = ratio(m.untraced_cpu_s * 1e9, m.untraced_ops);
  put("core.host_cpu_ns_per_op_traced", cpu_traced, "ns");
  put("core.host_cpu_ns_per_op_untraced", cpu_untraced, "ns");
  put("core.tracing_overhead_ns_per_op", cpu_traced - cpu_untraced, "ns");

  // filter: the three CN cache tiers.
  const uint32_t cns = b.cluster->config().num_cns;
  uint64_t sfc_size = 0, sfc_cap = 0, pec_size = 0, pec_cap = 0;
  uint64_t lac_size = 0, lac_cap = 0, cache_bytes = 0;
  for (uint32_t cn = 0; cn < cns; ++cn) {
    sfc_size += b.setup->filter(cn)->size();
    sfc_cap += b.setup->filter(cn)->capacity();
    pec_size += b.setup->pec(cn)->size();
    pec_cap += b.setup->pec(cn)->capacity();
    lac_size += b.setup->lac(cn)->size();
    lac_cap += b.setup->lac(cn)->capacity();
    cache_bytes += b.setup->cn_cache_bytes(cn);
  }
  const uint64_t pec_hits = c1.pec_hits - c0.pec_hits;
  put("filter.lac_hit_ratio", ratio(ss.lac_hits, c.point_reads), "ratio");
  put("filter.lac_stale_ratio", ratio(ss.lac_stale, ss.lac_hits), "ratio");
  put("filter.pec_hit_ratio",
      ratio(pec_hits, pec_hits + c1.pec_misses - c0.pec_misses), "ratio");
  put("filter.pec_stale_ratio", ratio(ss.pec_stale, ss.pec_hits), "ratio");
  put("filter.sfc_evictions_per_kop",
      per_kop(c1.sfc_evictions - c0.sfc_evictions, m.ops), "count");
  put("filter.pec_evictions_per_kop",
      per_kop(c1.pec_evictions - c0.pec_evictions, m.ops), "count");
  put("filter.lac_evictions_per_kop",
      per_kop(c1.lac_evictions - c0.lac_evictions, m.ops), "count");
  put("filter.sfc_fill", ratio(sfc_size, sfc_cap), "ratio");
  put("filter.pec_fill", ratio(pec_size, pec_cap), "ratio");
  put("filter.lac_fill", ratio(lac_size, lac_cap), "ratio");
  put("filter.cn_cache_bytes", ratio(cache_bytes, cns), "B");
  put("filter.lac_wrong_value", r.lac_wrong, "count");
  put("filter.sfc_probe_host_ns", cal.sfc_ns, "ns");
  put("filter.pec_probe_host_ns", cal.pec_ns, "ns");
  put("filter.lac_probe_host_ns", cal.lac_ns, "ns");

  // racehash: the INHT tables behind the SFC.
  const race::RaceStats& rs = ix.race;
  put("racehash.searches_per_op", ratio(rs.searches, ops), "count");
  put("racehash.insert_retry_ratio", ratio(rs.insert_retries, rs.inserts), "ratio");
  put("racehash.splits", rs.splits, "count");
  put("racehash.dir_refreshes", rs.dir_refreshes, "count");

  // art: the remote tree's retries, structure changes and scan engine.
  const art::TreeStats& ts = ix.tree;
  put("art.op_retries_per_kop", per_kop(ts.op_retries, m.ops), "count");
  put("art.lock_fail_retries_per_kop", per_kop(ts.lock_fail_retries, m.ops),
      "count");
  put("art.invalid_node_retries", ts.invalid_node_retries, "count");
  put("art.torn_leaf_rereads", ts.torn_leaf_rereads, "count");
  put("art.splits", ts.splits, "count");
  put("art.type_switches", ts.type_switches, "count");
  put("art.backoff_wait_ns_per_op",
      ratio(ts.backoff.wait_ns + rs.backoff.wait_ns, ops), "ns");
  put("art.ops_failed", ts.ops_failed, "count");
  put("art.scan_jump_start_ratio", ratio(ts.scan.jump_starts, ts.scan.scans),
      "count");
  put("art.scan_stale_retries_per_scan",
      ratio(ts.scan.stale_retries, ts.scan.scans), "count");
  put("art.scan_rtts_per_scan", ratio(m.scan_rtts, m.scans), "count");

  // rdma: round trips and bytes per op by protocol phase.
  for (uint32_t p = 0; p < rdma::kNumPhases; ++p) {
    const std::string pn = rdma::phase_name(static_cast<rdma::Phase>(p));
    put("rdma.rtts." + pn, ratio(m.net.rtts_by_phase[p], ops), "count");
    put("rdma.bytes." + pn, ratio(m.net.bytes_by_phase[p], ops), "B");
  }
  put("rdma.verbs_per_rtt", ratio(m.net.verbs(), m.net.round_trips), "count");
  put("rdma.max_nic_utilization", m.max_nic_util, "ratio");
  put("rdma.mn_msg_balance", ratio(m.mn_balance_weighted, ops), "ratio");
  put("rdma.lease_expiries", r.lease_expiries, "count");

  // memnode: MN heap, reclamation and the epoch machinery.
  put("memnode.mn_bytes_used", as.total_padded(), "B");
  put("memnode.reclaimed_blocks_per_kop", per_kop(m.reclaimed_blocks, m.ops),
      "count");
  put("memnode.retired_bytes_outstanding", as.retired_bytes_outstanding(), "B");
  put("memnode.epoch_advances_per_kop", per_kop(m.epoch_advances, m.ops), "count");
  put("memnode.expired_epoch_slots", b.cluster->epochs().expired_slots(), "count");
  put("memnode.alloc_failures", as.alloc_failures(), "count");
  put("memnode.alloc_underflows", as.underflows(), "count");
  put("memnode.leaked_bytes", as.leaked_bytes(), "B");
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const std::vector<WorkloadDef> defs = workloads();
  const WorkloadDef* def = nullptr;
  for (const auto& d : defs) {
    if (args.workload == d.name) def = &d;
  }
  if (def == nullptr) {
    std::string names;
    for (const auto& d : defs) names += std::string(" ") + d.name;
    usage("unknown workload '" + args.workload + "' (one of:" + names + ")");
  }
  const bool traced = args.trace == 1;

  // Set up several times and keep the last: setup_s is the median, so one
  // slow set-up (page faults, a busy neighbour) does not move it.
  SetupTimes st;
  std::vector<HostSpan> setup_spans;
  std::unique_ptr<Bench> bench;
  for (uint32_t rep = 0; rep < kSetupReps; ++rep) {
    bench.reset();
    bench = std::make_unique<Bench>(*def, args.seed);
    setup_once(*bench);
    st.total.push_back(bench->setup_s());
    st.keygen.push_back(bench->keygen_s);
    st.load.push_back(bench->load_s);
    st.warmup.push_back(bench->warmup_s);
    for (const HostSpan& h : bench->spans) {
      setup_spans.push_back({h.name + std::to_string(rep), h.start_ns, h.dur_ns});
    }
    std::cerr << "setup " << rep << " (CPU s): keygen " << bench->keygen_s
              << ", load " << bench->load_s << ", warm-up " << bench->warmup_s
              << " (" << bench->warmup_chunks << " chunks); " << bench->wall_s
              << " s wall\n";
  }
  Bench& b = *bench;
  const CacheSnap cache0 = b.caches();
  std::vector<rdma::TraceEvent> last_trace;
  const Measured m = measure(b, args.seconds, traced, &last_trace);
  const CacheSnap cache1 = b.caches();
  Calibration cal;
  if (traced) cal = calibrate(b);
  const AuditResult au = audit(b);

  const Report r = gather(b, m);
  const std::vector<std::string> errors = check_outputs(b, m, r, au);
  for (const auto& e : errors) std::cerr << "perfbench: CHECK FAILED: " << e << "\n";
  const IndexAgg& ix = b.agg_of(ProbeShared::Phase::kMeasure);
  std::cerr << "latency samples: " << r.all.size() << " ("
            << r.calls.read_lat.size() << " reads, " << r.calls.write_lat.size()
            << " writes, " << r.calls.scan_lat.size() << " scans)\n"
            << "tripwires: lease_expiries " << r.lease_expiries
            << ", expired_epoch_slots " << b.cluster->epochs().expired_slots()
            << ", torn_leaf_rereads " << ix.tree.torn_leaf_rereads
            << ", lock_reclaims "
            << ix.tree.recovery.lock_reclaims + ix.race.recovery.lock_reclaims
            << "\n";
  if (perfbench::highest_supported_percentile(r.all.size()) < 0.999) {
    std::cerr << "perfbench: too few samples for p99.9; sim_p999_us reports p"
              << 100 * perfbench::highest_supported_percentile(r.all.size())
              << "\n";
  }

  const std::vector<Metric> out =
      traced ? per_layer(b, m, r, st, cache0, cache1, cal) : end_to_end(b, m, r, st);
  for (const auto& x : out) {
    std::cout << x.name << " " << json_number(x.value) << " " << x.unit << "\n";
  }
  if (traced && !args.trace_out.empty()) {
    write_trace(args.trace_out, b, setup_spans, last_trace);
  }
  std::ostringstream js;
  js << "{\"correct\": " << (errors.empty() ? "true" : "false")
     << ", \"attempted\": " << b.attempted << ", \"failed\": " << r.failures.total()
     << ", \"metrics\": {";
  for (size_t i = 0; i < out.size(); ++i) {
    js << (i ? ", " : "") << "\"" << out[i].name << "\": {\"value\": "
       << json_number(out[i].value) << ", \"unit\": \"" << out[i].unit << "\"}";
  }
  js << "}}";
  std::cout << js.str() << std::endl;
  return 0;
}
